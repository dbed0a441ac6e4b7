"""Stretch measurement.

An ``alpha``-spanner satisfies ``dist_H(u, v) <= alpha * dist_G(u, v)``
for all pairs.  For unweighted graphs this is equivalent to the
adjacent-pair condition ``dist_H(u, v) <= alpha`` for every edge
``(u, v)`` of ``G`` (footnote 1 of the paper), which is what
:func:`adjacent_pair_stretch` measures — exactly for small graphs,
or over a seeded sample of edges for large ones.

Distances come from the shared distance plane
(:mod:`repro.graphs.distance`, DESIGN.md §3.7), which batches one
truncated BFS per queried source through NumPy bitset sweeps; that
keeps *exact* measurement usable at tens of thousands of nodes.  The
test suite holds the report equal to the seed's deque BFS per source
(``tests/reference_distance.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.graphs.distance import adjacency_csr, distance_blocks
from repro.local.network import Network

__all__ = ["StretchReport", "adjacent_pair_stretch"]

_UNREACHABLE = math.inf


@dataclass(frozen=True)
class StretchReport:
    """Distribution of measured stretch values.

    ``unreachable_pairs`` counts pairs *proven* disconnected in ``H``
    (their BFS exhausted the component).  ``beyond_cutoff`` counts pairs
    whose distance exceeds a finite BFS ``cutoff`` — the search was
    truncated, so they are unverified rather than disconnected.
    """

    max_stretch: float
    mean_stretch: float
    pairs_measured: int
    unreachable_pairs: int
    beyond_cutoff: int


def _distance_rows(graph: Network, sources: Sequence[int], cutoff: float):
    """Yield ``(source, lookup, exhausted)`` per queried source of ``graph``.

    ``lookup(target)`` returns the distance or ``None`` when the target
    was not reached; ``exhausted`` says the truncated search explored
    its whole component (see
    :func:`~repro.graphs.distance.distance_blocks`).
    """
    indptr, indices = adjacency_csr(graph)
    for offset, dist, exhausted in distance_blocks(
        indptr, indices, sources, cutoff=cutoff
    ):
        for i in range(dist.shape[0]):
            row = dist[i]

            def lookup(target: int, row=row):
                d = int(row[target])
                return None if d < 0 else d

            yield sources[offset + i], lookup, bool(exhausted[i])


def adjacent_pair_stretch(
    network: Network,
    spanner_edges: Iterable[int],
    *,
    sample: int | None = None,
    seed: int = 0,
    cutoff: float = _UNREACHABLE,
) -> StretchReport:
    """Measure ``dist_H`` over edges of ``G`` (the spanner-defining pairs).

    ``sample=None`` measures every edge; otherwise ``sample`` edges are
    drawn without replacement with a seeded RNG.  ``cutoff`` truncates
    BFS (useful when the caller only needs to check a known bound).
    """
    spanner = network.subnetwork(spanner_edges)
    eids = list(network.edge_ids)
    if sample is not None and sample < len(eids):
        eids = random.Random(seed).sample(eids, sample)

    # Group queried edges by their lower endpoint so each BFS serves many.
    by_source: dict[int, list[int]] = {}
    for eid in eids:
        u, v = network.endpoints(eid)
        by_source.setdefault(u, []).append(v)

    worst = 0.0
    total = 0.0
    unreachable = 0
    beyond = 0
    measured = 0
    sources = list(by_source)
    for source, lookup, exhausted in _distance_rows(spanner, sources, cutoff):
        for target in by_source[source]:
            measured += 1
            d = lookup(target)
            if d is None:
                if exhausted:
                    unreachable += 1
                else:
                    beyond += 1
            else:
                worst = max(worst, float(d))
                total += d
    mean = total / max(1, measured - unreachable - beyond)
    return StretchReport(
        max_stretch=worst,
        mean_stretch=mean,
        pairs_measured=measured,
        unreachable_pairs=unreachable,
        beyond_cutoff=beyond,
    )
