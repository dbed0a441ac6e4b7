"""Closed-form message accounting for the distributed ``Sampler``.

Given the execution trace (which both drivers produce identically for a
seed), the number of messages of every protocol phase is a simple sum:

* tree sessions (gather/scatter/plan/collect/status/cand/join) cost one
  message per non-root member of each participating cluster;
* query/response cost one message per distinct query edge per trial;
* status_req/status_rep/finish cost one message per ``F`` edge;
* attach costs one message per join; reroot one per old-tree edge.

The test suite asserts these formulas match the *metered* counts of the
real message-passing run exactly, tag by tag — the strongest possible
cross-validation between the model and the implementation.  Experiments
then use the cheap model to sweep sizes the full simulation cannot reach.

:func:`expected_per_round` goes one step further and places every
message in the round it is sent, from the cluster trees the trace's
joins imply; :func:`build_spanner_priced` uses both to return, from one
run of the level kernel, the very :class:`SpannerResult` the metered
distributed run returns (DESIGN.md §3.15).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from repro import obs
from repro.core.distributed.schedule import PhaseKind, Schedule
from repro.core.forest import ClusterForest
from repro.core.params import SamplerParams
from repro.core.sampler import build_spanner
from repro.core.spanner import SpannerResult
from repro.core.trace import SamplerTrace
from repro.errors import SimulationError
from repro.local.metrics import MessageStats
from repro.local.network import Network

__all__ = [
    "build_spanner_priced",
    "expected_message_counts",
    "expected_per_round",
    "expected_rounds",
    "expected_total_messages",
]


def expected_message_counts(trace: SamplerTrace) -> Counter:
    """Exact per-tag message counts implied by a ``Sampler`` trace."""
    counts: Counter = Counter()
    params = trace.params
    for level in trace.levels:
        sizes = level.cluster_sizes
        tree_messages = sum(s - 1 for s in sizes.values())
        counts["gather"] += tree_messages
        counts["scatter"] += tree_messages
        for vid, node in level.nodes.items():
            members = sizes[vid]
            for trial in node.trial_stats:
                counts["plan"] += members - 1
                counts["collect"] += members - 1
                counts["query"] += len(trial.queried_eids)
                counts["response"] += len(trial.queried_eids)
        if level.level < params.k:
            centers = set(level.centers)
            f_total = sum(len(node.f_active) for node in level.nodes.values())
            counts["status"] += tree_messages
            counts["status_req"] += f_total
            counts["status_rep"] += f_total
            counts["cand"] += sum(
                sizes[vid] - 1 for vid in sizes if vid not in centers
            )
            counts["join"] += tree_messages
            counts["attach"] += len(level.joins)
            counts["reroot"] += sum(sizes[joiner] - 1 for joiner, _c, _e in level.joins)
            counts["finish"] += sum(
                len(level.nodes[vid].f_active) for vid in level.unclustered
            )
    return +counts  # drop zero entries


def expected_total_messages(trace: SamplerTrace) -> int:
    return sum(expected_message_counts(trace).values())


def expected_rounds(params: SamplerParams) -> int:
    """Deterministic round count of the global schedule (Theorem 11)."""
    return Schedule.build(params).total_rounds


def expected_per_round(network: Network, trace: SamplerTrace) -> list[int]:
    """Messages *sent* in each round of the distributed run, round 0 first.

    One bucket per round up to the run's halt
    (:meth:`Schedule.halting_round`).  Every level's broadcasts and
    convergecasts run over the cluster trees at the level's start,
    which the trace's joins determine: replayed on a
    :class:`ClusterForest`, each joiner is re-rooted at its endpoint of
    the join edge and hung below the center's.  With ``d(x)`` a
    member's depth and ``h(x)`` the height of its subtree, a
    convergecast member sends at ``start + h(x)``, a broadcast reaches
    it by a message sent at ``start + d(x) - 1``, and the re-root flood
    reaches a joiner member at tree distance ``δ`` from the join
    endpoint by a message sent at ``start + δ - 1``.  Point-to-point
    phases send everything at their start (RESPONSE and STATUS_REP one
    round after their request).  DESIGN.md §3.15 lists the rules phase
    by phase.
    """
    params = trace.params
    schedule = Schedule.build(params)
    start = schedule.start_of
    rounds = np.zeros(schedule.total_rounds + 1, dtype=np.int64)
    forest = ClusterForest(network)
    n = network.n
    root, depth, height = _tree_shape(forest, n)
    for level in trace.levels:
        j = level.level
        active = np.zeros(n, dtype=bool)
        active[list(level.nodes)] = True
        # Every non-root member of an active cluster; cluster-level
        # attributes are looked up through its root.
        members = np.flatnonzero(active[root] & (depth > 0))
        cluster = root[members]
        up = height[members]  # convergecast send offset
        down = depth[members] - 1  # broadcast send offset

        def tree(kind, offsets, trial=0):
            if len(offsets):
                s = start(kind, j, trial)
                rounds[s : s + 1 + int(offsets.max())] += np.bincount(offsets)

        tree(PhaseKind.GATHER, up)
        tree(PhaseKind.SCATTER, down)
        trials = np.zeros(n, dtype=np.int64)
        for vid, node in level.nodes.items():
            trials[vid] = node.trials
        member_trials = trials[cluster]
        for t in range(1, params.trials + 1):
            running = member_trials >= t
            tree(PhaseKind.PLAN, down[running], t)
            tree(PhaseKind.COLLECT, up[running], t)
            queries = sum(
                len(node.trial_stats[t - 1].queried_eids)
                for node in level.nodes.values()
                if node.trials >= t
            )
            rounds[start(PhaseKind.QUERY, j, t)] += queries
            rounds[start(PhaseKind.RESPONSE, j, t)] += queries
        if j == params.k:
            break
        tree(PhaseKind.STATUS, down)
        f_total = sum(len(node.f_active) for node in level.nodes.values())
        rounds[start(PhaseKind.STATUS_REQ, j)] += f_total
        rounds[start(PhaseKind.STATUS_REP, j)] += f_total
        center = np.zeros(n, dtype=bool)
        center[list(level.centers)] = True
        tree(PhaseKind.CAND, up[~center[cluster]])
        tree(PhaseKind.JOIN, down)
        rounds[start(PhaseKind.ATTACH, j)] += len(level.joins)
        rounds[start(PhaseKind.FINISH, j)] += sum(
            len(level.nodes[vid].f_active) for vid in level.unclustered
        )
        joiner_end = np.full(n, -1, dtype=np.int64)
        for joiner, center_id, eid in level.joins:
            a, b = network.endpoints(eid)
            joiner_end[joiner] = a if root[a] == joiner else b
            forest.attach(joiner, center_id, eid)
        pre_root = root
        root, depth, height = _tree_shape(forest, n)
        # The re-root flood runs over the joiner's pre-join tree, which
        # now hangs below its join endpoint x: a member's distance from
        # x is its depth below x.
        x_of = joiner_end[pre_root]
        flooded = np.flatnonzero((x_of >= 0) & (np.arange(n) != x_of))
        tree(PhaseKind.REROOT, depth[flooded] - depth[x_of[flooded]] - 1)
    return rounds[: schedule.halting_round(trace.levels) + 1].tolist()


def _tree_shape(forest: ClusterForest, n: int):
    """``(root, depth, height)`` arrays over the physical nodes: each
    node's cluster id, its depth in the cluster tree and the height of
    its subtree (0 at a leaf), by parent-pointer sweeps bounded by the
    tree height."""
    root = np.asarray(forest.root_of, dtype=np.int64)
    ident = np.arange(n, dtype=np.int64)
    parent = ident.copy()
    for child, (par, _eid) in forest.parent_items():
        parent[child] = par
    depth = (parent != ident).astype(np.int64)
    cur = parent
    while True:
        nxt = parent[cur]
        moved = nxt != cur
        if not moved.any():
            break
        depth += moved
        cur = nxt
    height = np.zeros(n, dtype=np.int64)
    for d in range(int(depth.max(initial=0)), 0, -1):
        layer = np.flatnonzero(depth == d)
        np.maximum.at(height, parent[layer], height[layer] + 1)
    return root, depth, height


def build_spanner_priced(
    network: Network, params: SamplerParams
) -> SpannerResult:
    """The metered distributed run's :class:`SpannerResult`, priced.

    The one construction every pipeline runs, store or not.  It runs
    the level kernel (:func:`~repro.core.sampler.build_spanner`) and
    returns what
    :func:`~repro.core.distributed.build_spanner_distributed` returns
    for the same inputs, field for field, on every input: the kernel's
    edges, its trace in the distributed view, the round the run halts
    in (:meth:`Schedule.halting_round`, the schedule's length unless a
    level is empty), and message stats whose ``total``, ``by_tag`` and
    ``per_round`` are the closed forms above.  ``tests/test_pricing.py``
    holds the two equal.

    Raises :class:`SimulationError` when the priced counts disagree
    with each other; it never falls back to the simulation.
    """
    built = build_spanner(network, params)
    with obs.span("build/price", n=network.n) as price_span:
        trace = built.trace
        by_tag = expected_message_counts(trace)
        total = sum(by_tag.values())
        per_round = expected_per_round(network, trace)
        rounds = len(per_round) - 1
        if sum(per_round) != total:
            raise SimulationError(
                f"priced run disagrees with itself: {sum(per_round)} "
                f"messages by round up to round {rounds}, {total} by tag"
            )
        price_span.set(messages=total, rounds=rounds)
    return dataclasses.replace(
        built,
        trace=_distributed_view(trace),
        messages=MessageStats(total=total, by_tag=by_tag, per_round=per_round),
        rounds=rounds,
    )


def _distributed_view(trace: SamplerTrace) -> SamplerTrace:
    """The trace as ``build_spanner_distributed`` reconstructs it: the
    fields no node observes locally — degrees in ``G_j``, the
    active/stale edge split, tree heights and the finished records —
    are ``-1`` or empty."""
    levels = [
        dataclasses.replace(
            level,
            active_edges=-1,
            stale_edges=-1,
            cluster_heights={},
            nodes={
                vid: node._replace(degree=-1) for vid, node in level.nodes.items()
            },
        )
        for level in trace.levels
    ]
    return SamplerTrace(n=trace.n, m=trace.m, params=trace.params, levels=levels)
