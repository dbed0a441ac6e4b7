"""A serial reference of centralized ``Sampler``: the oracle for the
level kernel that :mod:`repro.core.sampler` runs on.

This is the seed's per-level recount, kept deliberately plain and slow
(the tests run it at n <= 150).  At every level each active cluster's
pool ``X_v`` is recounted from its members' incidences — an edge seen
twice is intra-cluster — minus every finish announcement any member
received; one :class:`~repro.core.trials.TrialMachine` per cluster runs
on its ``("trials", j, cid)`` stream; then centers, joins and finishes
follow Pseudocode 1.  It shares no code with :mod:`repro.core.parallel`
and keeps no state across levels beyond the forest and the per-node
announcement sets, so it checks the kernel's full trace independently.
"""

from __future__ import annotations

from collections import Counter

from repro.core.forest import ClusterForest
from repro.core.spanner import SpannerResult
from repro.core.trace import FinishedCluster, LevelTrace, NodeLevelTrace, SamplerTrace
from repro.core.trials import TrialMachine
from repro.rng import RngFactory


def reference_build(network, params) -> SpannerResult:
    """``build_spanner(network, params)`` by the seed's recount."""
    n = network.n
    forest = ClusterForest(network)
    rngf = RngFactory(params.seed)
    trace = SamplerTrace(n=n, m=network.m, params=params)
    spanner: set[int] = set()
    announced: dict[int, set[int]] = {v: set() for v in network.nodes()}
    active = set(network.nodes())
    for j in range(params.levels):
        pools = {cid: _pool(network, forest, announced, cid) for cid in active}
        groups = {
            cid: _by_neighbor(network, forest, cid, pools[cid]) for cid in active
        }
        machines = {}
        for cid in sorted(active):
            rng = rngf.stream("trials", j, cid)
            machine = TrialMachine(cid, j, pools[cid], params, n, rng)
            while machine.wants_trial():
                results = []
                for eid in machine.begin_trial():
                    a, b = network.endpoints(eid)
                    other = forest.cluster_of(b if forest.cluster_of(a) == cid else a)
                    results.append((eid, other, groups[cid][other], other in active))
                machine.deliver(results)
            machines[cid] = machine
        found = {cid: machine.f_active for cid, machine in machines.items()}
        level_f = {eid for f in found.values() for eid in f.values()}
        spanner |= level_f

        centers: list[int] = []
        joins: list[tuple[int, int, int]] = []
        if j < params.k:
            p_j = params.center_probability(j, n)
            centers = sorted(c for c in active if rngf.uniform("center", j, c) < p_j)
            for vid in sorted(active - set(centers)):
                # Join the smallest center found from either side, over
                # the smallest edge between the pair.
                options = [(u, eid) for u, eid in found[vid].items() if u in centers]
                options += [(u, found[u][vid]) for u in centers if vid in found[u]]
                if options:
                    joins.append((vid, *min(options)))
        joined = {vid for vid, _u, _e in joins}
        unclustered = tuple(sorted(active - set(centers) - joined))

        stale = sum(
            len(bundle)
            for cid in active
            for other, bundle in groups[cid].items()
            if other not in active
        )
        trace.levels.append(
            LevelTrace(
                level=j,
                population=len(active),
                active_edges=(sum(len(pools[c]) for c in active) - stale) // 2,
                stale_edges=stale,
                cluster_sizes={cid: forest.size(cid) for cid in active},
                cluster_heights=forest.heights_of(active),
                nodes={
                    cid: _node_trace(cid, machines[cid], pools[cid], groups[cid])
                    for cid in active
                },
                centers=tuple(centers),
                joins=tuple(joins),
                unclustered=unclustered,
                f_edges=frozenset(level_f),
            )
        )

        for joiner, center, eid in joins:
            forest.attach(joiner, center, eid)
        for cid in unclustered:
            trace.finished[cid] = FinishedCluster(
                cid=cid,
                level=j,
                label=machines[cid].label,
                live_edges=frozenset(pools[cid]),
            )
            if j < params.k:
                members = set(forest.members(cid))
                for eid in found[cid].values():
                    a, b = network.endpoints(eid)
                    announced[b if a in members else a] |= set(pools[cid])
        active = set(centers)
    return SpannerResult(
        network=network, params=params, edges=frozenset(spanner), trace=trace
    )


def _pool(network, forest, announced, cid) -> list[int]:
    counts: Counter[int] = Counter()
    dead: set[int] = set()
    for phys in forest.members(cid):
        counts.update(network.incident(phys))
        dead |= announced[phys]
    return sorted(e for e, c in counts.items() if c == 1 and e not in dead)


def _by_neighbor(network, forest, cid, pool) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for eid in pool:
        a, b = network.endpoints(eid)
        other = forest.cluster_of(b if forest.cluster_of(a) == cid else a)
        groups.setdefault(other, []).append(eid)
    return groups


def _node_trace(cid, machine, pool, groups) -> NodeLevelTrace:
    return NodeLevelTrace(
        vid=cid,
        label=machine.label,
        trials=machine.trials_run,
        draws=sum(s.draws for s in machine.stats),
        queries_sent=sum(len(s.queried_eids) for s in machine.stats),
        neighbors_found=len(machine.f_active),
        inactive_found=len(machine._f_inactive),
        pool_initial=len(pool),
        pool_final=machine.pool_size,
        degree=len(groups),
        target=machine.target,
        query_budget=machine.query_budget,
        f_active=tuple(sorted(machine.f_active.items())),
        f_inactive=tuple(sorted(machine._f_inactive.items())),
        trial_stats=machine.stats,
    )
