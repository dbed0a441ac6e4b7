#!/usr/bin/env python
"""Priced ≡ metered on every small connected graph.

Builds the ``Sampler`` spanner of every connected graph of the networkx
atlas on 2 to 7 nodes (995 graphs) under ``theorem3_params(γ, seed)``
for γ ∈ {1, 2, 3} and seeds 0-2 — 8,955 builds — with both
``build_spanner_priced`` and ``build_spanner_distributed``, and compares
the two ``SpannerResult``s whole (DESIGN.md §3.15)::

    PYTHONPATH=src python tools/atlas_conformance.py

On the first difference, or the first build that raises, it prints the
atlas index, γ and seed with the differing fields or the error, and
exits 1.  ``tests/test_pricing.py`` runs the same check on the 2-5-node
slice, which holds every input of the sweep with an empty level.
"""

from __future__ import annotations

import sys
import time

import networkx as nx

from repro.core.accounting import build_spanner_priced
from repro.core.distributed import build_spanner_distributed
from repro.errors import SimulationError
from repro.local.network import Network
from repro.simulate import theorem3_params

GAMMAS = (1, 2, 3)
SEEDS = (0, 1, 2)
FIELDS = ("edges", "trace", "messages", "rounds")


def mismatch(net: Network, params) -> tuple[str | None, bool]:
    """What differs between the two builders (``None`` if nothing), and
    whether the build has an empty level."""
    try:
        priced = build_spanner_priced(net, params)
        metered = build_spanner_distributed(net, params)
    except SimulationError as exc:
        return f"raised {exc}", False
    differ = [f for f in FIELDS if getattr(priced, f) != getattr(metered, f)]
    found = f"fields {', '.join(differ)} differ" if differ else None
    return found, 0 in priced.trace.populations


def main() -> int:
    started = time.perf_counter()
    builds = empty = 0
    for index, graph in enumerate(nx.graph_atlas_g()):
        if not 2 <= graph.number_of_nodes() <= 7 or not nx.is_connected(graph):
            continue
        net = Network.from_graph(graph)
        for gamma in GAMMAS:
            for seed in SEEDS:
                params = theorem3_params(gamma, seed=seed)
                found, halted_early = mismatch(net, params)
                builds += 1
                if found is not None:
                    print(
                        f"priced != metered: atlas index {index}, gamma "
                        f"{gamma}, seed {seed}: {found}"
                    )
                    return 1
                empty += halted_early
    print(
        f"priced == metered on all {builds} builds ({empty} with an empty "
        f"level) in {time.perf_counter() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
