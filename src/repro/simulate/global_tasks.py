"""Global computation with ``o(m)`` messages (the paper's concluding remark).

Section 7 closes with: *"using an o(m)-message spanner construction that
does not increase the time ... implies that any function can now be
computed on the graph in strictly optimal O(diameter) time and o(m)
messages (for large enough m)."*

This module realizes that remark: build the ``Sampler`` spanner once,
flood every node's input over it for ``alpha * D`` rounds (``D`` the
graph's diameter), and evaluate an arbitrary function of the full input
multiset locally at every node.  Leader election falls out as the
function ``min id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.graphs.distance import eccentricities
from repro.core.accounting import build_spanner_priced
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.local.network import Network
from repro.simulate.tlocal import t_local_broadcast

__all__ = ["GlobalComputation", "compute_global", "elect_leader"]

GlobalFunction = Callable[[Mapping[int, Any]], Any]


@dataclass(frozen=True)
class GlobalComputation:
    """Result of one global computation over the spanner."""

    outputs: dict[int, Any]
    spanner: SpannerResult
    diameter: int
    flood_rounds: int
    flood_messages: int

    @property
    def construction_messages(self) -> int:
        assert self.spanner.messages is not None
        return self.spanner.messages.total

    @property
    def total_messages(self) -> int:
        return self.construction_messages + self.flood_messages

    @property
    def total_rounds(self) -> int:
        assert self.spanner.rounds is not None
        return self.spanner.rounds + self.flood_rounds


def graph_diameter(network: Network) -> int:
    """Exact diameter via the distance plane's batched eccentricities."""
    ecc, reached = eccentricities(network)
    if any(count != network.n for count in reached):
        raise ValueError("diameter undefined: graph is disconnected")
    return max(ecc)


def compute_global(
    network: Network,
    function: GlobalFunction,
    inputs: Mapping[int, Any] | None = None,
    *,
    params: SamplerParams | None = None,
    seed: int = 0,
    diameter: int | None = None,
    store=None,
) -> GlobalComputation:
    """Evaluate ``function`` over all node inputs at every node.

    ``function`` receives the full ``{node: input}`` mapping — any
    function of the graph's inputs qualifies, per the concluding remark.
    The round cost is ``O(3^k h) + alpha * D = O(D)`` for fixed ``k, h``
    once ``D`` dominates the construction constant, and the message cost
    is the spanner construction plus ``O(alpha * D * |S|)`` — both
    independent of ``m``.  The construction is priced by
    ``build_spanner_priced``, equal to the metered run (DESIGN.md §3.15).

    ``store`` (or the ``REPRO_STORE`` process default) reuses every
    input-independent artifact — spanner, diameter, flood schedule — so
    a second global computation on the same graph pays only the local
    function evaluations (DESIGN.md §3.8).
    """
    sampler_params = params if params is not None else SamplerParams(k=1, h=2, seed=seed)
    from repro.store.store import resolve_store  # lazy: store sits above simulate

    active_store = resolve_store(store)
    if active_store is not None:
        spanner = active_store.spanner(network, sampler_params)
        d = diameter if diameter is not None else active_store.graph_diameter(network)
    else:
        spanner = build_spanner_priced(network, sampler_params)
        d = diameter if diameter is not None else graph_diameter(network)
    radius = spanner.stretch_bound * max(1, d)
    payload = dict(inputs) if inputs is not None else {v: v for v in network.nodes()}
    flood = t_local_broadcast(
        network.subnetwork(spanner.edges),
        payload_of=lambda v: payload[v],
        radius=radius,
        store=active_store,
    )
    outputs = {
        v: function(flood.collected[v]) for v in network.nodes()
    }
    return GlobalComputation(
        outputs=outputs,
        spanner=spanner,
        diameter=d,
        flood_rounds=flood.rounds,
        flood_messages=flood.total_messages,
    )


def elect_leader(
    network: Network,
    *,
    params: SamplerParams | None = None,
    seed: int = 0,
    store=None,
) -> GlobalComputation:
    """Leader election: every node outputs the minimum node id.

    The global task the lower bound of [25] makes expensive under
    CONGEST KT0 — here solved with ``o(m)`` messages thanks to the
    edge-ID model and the spanner.
    """
    return compute_global(
        network, lambda known: min(known), params=params, seed=seed, store=store
    )
