#!/usr/bin/env python3
"""Amortized serving: build the spanner once, serve many payloads.

The paper's preprocessing (the ``Sampler`` spanner, the flood schedule)
is payload-independent, so a simulation service pays it on the first
request only.  This demo serves five different LOCAL algorithms — BFS
layering, randomized coloring, Luby MIS, random matching, min-id
aggregation — on one graph through ``SimulationService`` and prints how
the amortized per-request message cost decays toward the marginal
(simulation-only) cost as traffic accumulates.  It also prints how many
of G's edges the spanner H keeps: at these parameters H = G, so the
numbers show amortization, not the paper's message saving.

Run:  python examples/amortized_service_demo.py
"""

from repro.algorithms import (
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomMatching,
    RandomizedColoring,
)
from repro.core.params import SamplerParams
from repro.graphs import erdos_renyi
from repro.service import SimulationService


def payloads():
    return [
        ("bfs", BfsLayers(0, 3)),
        ("coloring", RandomizedColoring(3)),
        ("mis", LubyMis(2)),
        ("matching", RandomMatching(2)),
        ("aggregation", MinIdAggregation(4)),
    ]


def main() -> None:
    net = erdos_renyi(400, 0.03, seed=7)
    params = SamplerParams(k=2, h=2, seed=5, c_query=0.7, c_target=1.0)
    service = SimulationService(net, params=params, seed=11)

    print(f"graph: n={net.n}, m={net.m}; sampler k={params.k}, h={params.h}")
    print(f"{'request':>3} {'payload':>12} {'serve':>5} {'constr msgs':>12} "
          f"{'sim msgs':>10} {'amortized msgs/req':>19}")
    for index, (label, algo) in enumerate(payloads(), start=1):
        response = service.submit(algo)
        kind = "cold" if response.cold else "warm"
        print(
            f"{index:>3} {label:>12} {kind:>5} "
            f"{response.construction_messages_paid:>12,} "
            f"{response.simulation.total_messages:>10,} "
            f"{service.metrics.amortized_messages():>19,.1f}"
        )

    metrics = service.metrics
    print()
    print(metrics.summary())
    marginal = metrics.simulation_messages / metrics.requests
    print(
        f"construction amortizes from {metrics.construction_messages_paid:,} "
        f"msgs (paid once) toward the marginal {marginal:,.1f} msgs/request "
        "as traffic grows."
    )
    kept = len(response.spanner.edges)
    print(f"spanner H keeps {kept:,} of G's {net.m:,} edges.")
    if kept == net.m:
        print(
            "These numbers are at H = G: each replay floods G itself, so "
            "they show amortized serving, not the paper's message saving, "
            "which needs a graph dense enough for H to drop edges."
        )


if __name__ == "__main__":
    main()
