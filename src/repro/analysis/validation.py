"""End-to-end spanner validation (the invariants DESIGN.md section 4 lists)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.stretch import StretchReport, adjacent_pair_stretch
from repro.core.spanner import SpannerResult
from repro.errors import ValidationError

__all__ = ["SpannerValidation", "validate_spanner"]


@dataclass(frozen=True)
class SpannerValidation:
    """Outcome of :func:`validate_spanner` (all checks passed if returned)."""

    size: int
    size_envelope: float
    stretch: StretchReport
    stretch_bound: int


def validate_spanner(
    result: SpannerResult,
    *,
    check_size_envelope: bool = True,
    stretch_sample: int | None = None,
    seed: int = 0,
) -> SpannerValidation:
    """Raise :class:`ValidationError` unless ``result`` is a valid spanner.

    Checks, in order: the edge set is a subgraph of ``G``; every edge of
    ``G`` has spanner distance at most the Theorem 9 bound
    (equivalently, connectivity is preserved per component and the
    stretch bound holds); and optionally ``|S|`` is inside the loose
    Lemma 10 envelope for the run's constants.
    """
    network = result.network
    for eid in result.edges:
        if not network.has_edge_id(eid):
            raise ValidationError(f"spanner edge {eid} is not an edge of G")

    bound = result.stretch_bound
    report = adjacent_pair_stretch(
        network,
        result.edges,
        sample=stretch_sample,
        seed=seed,
        cutoff=bound + 1,
    )
    if report.unreachable_pairs or report.beyond_cutoff:
        # Both buckets violate the bound here: the BFS cutoff is bound+1,
        # so a pair beyond it has spanner distance > bound even when the
        # endpoints are still connected in H.
        raise ValidationError(
            f"{report.unreachable_pairs + report.beyond_cutoff} adjacent pairs "
            f"have spanner distance > {bound} "
            f"({report.unreachable_pairs} provably disconnected in H)"
        )
    if report.max_stretch > bound:
        raise ValidationError(
            f"measured stretch {report.max_stretch} exceeds bound {bound}"
        )

    envelope = result.params.size_envelope(network.n)
    if check_size_envelope and result.size > envelope:
        raise ValidationError(
            f"|S|={result.size} exceeds the Lemma 10 envelope {envelope:.0f}"
        )
    return SpannerValidation(
        size=result.size,
        size_envelope=envelope,
        stretch=report,
        stretch_bound=bound,
    )
