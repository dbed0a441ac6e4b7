"""Self-healing spanner repair: a checked rebuild on the level kernel.

:func:`repair_spanner` takes a cached :class:`SpannerResult` (typically
the priced construction the artifact store holds), the post-churn
:class:`Network`, and the :class:`~repro.dynamic.churn.MutationLog`
chain connecting the two, and produces the spanner of the *new* graph:
exactly ``build_spanner(new_network, params)`` (and therefore
trace-signature-identical to a fresh distributed rebuild, by the repo's
headline equivalence), with ``provenance`` extended by the parent
graph's fingerprint.

Before it builds, it checks that the chain connects the parent's graph
to the new one, that the parameters are the parent's, and that the node
universe did not change.  It reads nothing from the parent's trace: the
build is a plain run of :class:`~repro.core.sampler.SamplerRun` on the
columnar level kernel, which is faster than replaying unchanged
clusters from the parent was (DESIGN.md §3.9), so repair equals rebuild
by construction.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro import obs
from repro.core.params import SamplerParams
from repro.core.sampler import SamplerRun
from repro.core.spanner import SpannerResult
from repro.errors import ConfigurationError
from repro.local.network import Network

from repro.dynamic.churn import MutationLog

__all__ = ["RepairRun", "repair_spanner"]


class RepairRun(SamplerRun):
    """A build of the post-churn ``network`` that descends from
    ``parent``: refused unless the parameters and the node universe are
    the parent's, and recorded in the result's provenance."""

    # The serving benchmark reads both counters until a benchmark
    # change retires ``dynamic.replayed_share``; a rebuild replays no
    # cluster.
    replayed_clusters = 0

    def __init__(
        self,
        network: Network,
        params: SamplerParams,
        *,
        parent: SpannerResult,
    ) -> None:
        if parent.params != params:
            raise ConfigurationError(
                "repair requires the parent's construction parameters"
            )
        if parent.network.n != network.n:
            raise ConfigurationError(
                f"node universe changed ({parent.network.n} -> {network.n}); "
                "churn keeps n fixed, so this is not a churn descendant"
            )
        super().__init__(network, params)
        self._provenance = parent.provenance + (parent.network.fingerprint(),)

    @property
    def fresh_clusters(self) -> int:
        """Clusters whose trials ran: every cluster of every level."""
        return sum(self.trace.populations)

    def result(self) -> SpannerResult:
        return dataclasses.replace(super().result(), provenance=self._provenance)


def repair_spanner(
    parent: SpannerResult,
    network: Network,
    logs: MutationLog | Sequence[MutationLog],
) -> SpannerResult:
    """Repair ``parent``'s spanner onto the post-churn ``network``.

    ``logs`` is the mutation chain from the parent's graph to
    ``network`` (a single log or a fingerprint-chained sequence, oldest
    first); a chain that does not connect the two graphs is refused.
    The result equals ``build_spanner(network, parent.params)`` — same
    edges, same full trace — with ``provenance`` extended by the parent
    graph's fingerprint, and ``messages``/``rounds`` of ``None`` (repair
    is centralized work; it meters no distributed messages).
    """
    chain = (logs,) if isinstance(logs, MutationLog) else tuple(logs)
    if not chain:
        raise ConfigurationError("repair needs at least one mutation log")
    expected = parent.network.fingerprint()
    for log in chain:
        if log.parent_fingerprint != expected:
            raise ConfigurationError(
                f"mutation log for epoch {log.epoch} chains from "
                f"{log.parent_fingerprint[:12]}…, expected {expected[:12]}…"
            )
        expected = log.child_fingerprint
    if expected != network.fingerprint():
        raise ConfigurationError(
            f"mutation chain ends at {expected[:12]}…, but the target "
            f"network is {network.fingerprint()[:12]}…"
        )
    if not obs.enabled():
        return RepairRun(network, parent.params, parent=parent).run()
    with obs.span(
        "dynamic/repair", n=network.n, m=network.m, chain=len(chain)
    ) as repair_span:
        result = RepairRun(network, parent.params, parent=parent).run()
        repair_span.set(edges=len(result.edges))
    return result
