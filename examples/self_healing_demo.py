#!/usr/bin/env python3
"""Self-healing spanner repair on a churning graph (DESIGN.md §3.9).

A ``G(n=2000)`` network goes through five deterministic churn epochs
(edge removal + addition, node crash + recovery).  After each epoch the
cached spanner is *repaired* onto the mutated graph — the mutation
chain is checked, then the spanner is rebuilt on the level kernel — and
compared against a cold distributed rebuild of the same graph:
identical edges, identical trace, a fraction of the time.  The repaired result then
serves as the cache entry for the next epoch, so the provenance chain
grows one fingerprint per epoch.

Run:  python examples/self_healing_demo.py
"""

import time

from repro.analysis.validation import validate_spanner
from repro.core.distributed import build_spanner_distributed
from repro.core.params import SamplerParams
from repro.dynamic import ChurnPlan, apply_churn, repair_spanner
from repro.graphs import erdos_renyi

EPOCHS = 5


def main() -> None:
    net = erdos_renyi(2000, 8 / 1999, seed=1)
    params = SamplerParams(k=2, h=2, seed=1)
    plan = ChurnPlan(
        seed=42,
        epochs=EPOCHS,
        edge_removal=0.02,
        edge_addition=0.01,
        node_crash=0.002,
        node_recovery=0.5,
    )

    print(f"graph: n={net.n}, m={net.m}; sampler k={params.k}, h={params.h}")
    started = time.perf_counter()
    spanner = build_spanner_distributed(net, params)
    print(f"initial distributed construction: {time.perf_counter() - started:.2f}s, "
          f"|S|={spanner.size}")
    print()
    print(f"{'epoch':>5} {'churn (-E/+E, xN/+N)':>22} {'repair':>8} "
          f"{'rebuild':>8} {'speedup':>8} {'identical':>9} {'stretch':>8}")

    for epoch in range(EPOCHS):
        net, log = apply_churn(net, plan, epoch)
        churn = (
            f"-{len(log.removed_edges)}/+{len(log.added_edges)}, "
            f"x{len(log.crashed)}/+{len(log.recovered)}"
        )

        started = time.perf_counter()
        repaired = repair_spanner(spanner, net, log)
        repair_s = time.perf_counter() - started

        started = time.perf_counter()
        rebuilt = build_spanner_distributed(net, params)
        rebuild_s = time.perf_counter() - started

        identical = (
            repaired.edges == rebuilt.edges
            and repaired.trace.signature() == rebuilt.trace.signature()
        )
        checked = validate_spanner(repaired)
        print(
            f"{epoch:>5} {churn:>22} {repair_s:>7.2f}s {rebuild_s:>7.2f}s "
            f"{rebuild_s / repair_s:>7.1f}x {str(identical):>9} "
            f"{checked.stretch.max_stretch:>5.1f}<={repaired.stretch_bound}"
        )
        assert identical, "repair must be bit-identical to a rebuild"
        spanner = repaired  # the healed artifact is next epoch's cache entry

    print()
    print(
        f"provenance chain after {EPOCHS} epochs: "
        f"{len(spanner.provenance)} ancestor fingerprints "
        f"({' -> '.join(fp[:8] for fp in spanner.provenance)} -> "
        f"{net.fingerprint()[:8]})"
    )
    print(
        "every repair checked its mutation chain and rebuilt on the level "
        "kernel without simulating a message — same spanner, fraction of "
        "the work."
    )


if __name__ == "__main__":
    main()
