"""Run the distributed ``Sampler`` and assemble a :class:`SpannerResult`.

The driver wires :class:`~repro.core.distributed.program.SamplerProgram`
into the :mod:`repro.local` runtime, then reconstructs the execution
trace from the leaders' archived records.  The reconstructed trace
carries everything the centralized trace's :meth:`signature` compares
(populations, labels, centers, joins, unclustered sets, spanner edges
per level) — the equality of the two signatures is the reproduction's
core integration test.

Fields the distributed view cannot observe locally (per-node degrees in
``G_j``, active/stale edge splits, tree heights) are filled with ``-1`` /
empty markers; analyses needing them use the centralized trace.
"""

from __future__ import annotations

from collections import defaultdict

from repro import obs
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.core.trace import LevelTrace, NodeLevelTrace, SamplerTrace
from repro.errors import SimulationError
from repro.local.network import Network
from repro.local.runtime import run_program

__all__ = ["build_spanner_distributed"]


def build_spanner_distributed(
    network: Network,
    params: SamplerParams,
) -> SpannerResult:
    """Execute ``Sampler`` as a real message-passing LOCAL algorithm.

    The runtime steps only nodes with pending messages or due wake
    rounds — the ``SamplerProgram`` derives its wake set from the
    global :class:`Schedule` (DESIGN.md §3.6) — and services the
    program's declared hybrid planes (query/response and the status
    handshake) during delivery (DESIGN.md §3.10).  The tests hold the
    report equal to the seed's dense loop, which steps every node
    every round and dispatches every message.  A level no cluster
    reaches has population 0, and the run halts early
    (:meth:`Schedule.halting_round`).
    """
    schedule = Schedule.build(params)
    with obs.span(
        "build/distributed", n=network.n, m=network.m
    ) as build_span:
        report = run_program(
            network,
            lambda node: SamplerProgram(node, params, schedule),
            seed=params.seed,
            max_rounds=schedule.total_rounds + 2,
            n_hint=network.n,
        )
        build_span.set(
            rounds=report.rounds, messages=report.messages.total
        )
    if not report.halted:
        raise SimulationError("distributed Sampler did not halt")

    records_by_level: dict[int, dict[int, dict]] = defaultdict(dict)
    for out in report.outputs.values():
        for record in out["records"]:
            level = record["level"]
            cid = record["cid"]
            if cid in records_by_level[level]:
                raise SimulationError(
                    f"two leaders archived cluster {cid} at level {level}"
                )
            records_by_level[level][cid] = record

    trace = SamplerTrace(n=network.n, m=network.m, params=params)
    spanner: set[int] = set()
    sizes: dict[int, int] = {v: 1 for v in network.nodes()}
    for level in range(params.levels):
        records = records_by_level[level]
        f_edges: set[int] = set()
        nodes: dict[int, NodeLevelTrace] = {}
        joins: list[tuple[int, int, int]] = []
        centers: list[int] = []
        unclustered: list[int] = []
        for cid in sorted(records):
            record = records[cid]
            f_edges |= set(record["f_active"].values())
            nodes[cid] = _node_trace(record)
            if record["center"]:
                centers.append(cid)
            if record["decision"] == "join":
                joins.append((cid, record["join_to"], record["join_eid"]))
            elif record["decision"] in ("finish", "final"):
                unclustered.append(cid)
        spanner |= f_edges
        trace.levels.append(
            LevelTrace(
                level=level,
                population=len(records),
                active_edges=-1,
                stale_edges=-1,
                cluster_sizes={cid: sizes[cid] for cid in records},
                cluster_heights={},
                nodes=nodes,
                centers=tuple(centers),
                joins=tuple(joins),
                unclustered=tuple(unclustered),
                f_edges=frozenset(f_edges),
            )
        )
        for joiner, center, _eid in joins:
            sizes[center] += sizes.pop(joiner)

    halt = schedule.halting_round(trace.levels)
    if report.rounds != halt:
        raise SimulationError(
            f"round mismatch: ran {report.rounds}, schedule says {halt}"
        )
    return SpannerResult(
        network=network,
        params=params,
        edges=frozenset(spanner),
        trace=trace,
        messages=report.messages,
        rounds=report.rounds,
    )


def _node_trace(record: dict) -> NodeLevelTrace:
    stats = record["stats"]
    return NodeLevelTrace(
        vid=record["cid"],
        label=record["label"],
        trials=record["trials"],
        draws=sum(s.draws for s in stats),
        queries_sent=sum(len(s.queried_eids) for s in stats),
        neighbors_found=len(record["f_active"]),
        inactive_found=len(record["f_inactive"]),
        pool_initial=record["pool_initial"],
        pool_final=record["pool_final"],
        degree=-1,
        target=record["target"],
        query_budget=record["budget"],
        f_active=tuple(sorted(record["f_active"].items())),
        f_inactive=tuple(sorted(record["f_inactive"].items())),
        trial_stats=tuple(stats),
    )
