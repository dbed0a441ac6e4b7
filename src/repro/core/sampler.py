"""Centralized driver of algorithm ``Sampler`` (Pseudocode 1).

This is the canonical implementation: it executes levels
``j = 0 .. k``, running one :class:`~repro.core.trials.TrialMachine` per
virtual node (the first step of ``Cluster_j``), then marks centers and
forms clusters (the second step), contracting the result into the next
level.

Semantics match the distributed implementation exactly (see
DESIGN.md): a cluster's unexplored pool is

    ``X_v = dedup(member incident edges)  minus  finish announcements``

where *dedup* drops every edge id appearing twice among the members
(such edges are intra-cluster — the unique-edge-ID trick), and finish
announcements are the edge lists that unclustered clusters push over
their ``F`` edges when they leave the hierarchy.  Edges leading to
finished clusters that never announced (only possible for the rare
``STRANDED`` label) remain in ``X_v`` and are discovered and peeled via
an ``active=False`` query response.

Pools are maintained incrementally: each cluster's dedup'd pool is
carried across levels and merged by symmetric difference on
:meth:`ClusterForest.attach` — an edge appearing in both merging pools
has both endpoint-incidences inside the merged cluster, i.e. it became
intra-cluster and cancels.  Finish announcements accumulate in
per-cluster ``dead`` sets (unioned on merge) and are subtracted only
when ``X_v`` is read.  Cluster lookups and edge endpoints come from
flat arrays (``ClusterForest.root_of``, ``Network.endpoints_flat``).
The seed implementation recounted every pool at every level; its full
traces are frozen in ``tests/data/golden_full_traces.json``, which this
strategy must keep matching bit for bit.

Randomness is drawn from per-``(purpose, level, cluster)`` streams of a
:class:`~repro.rng.RngFactory` rooted at ``params.seed``, which is what
makes the centralized and distributed runs bit-identical.
"""

from __future__ import annotations

import os
import random
from collections import Counter

from repro import obs
from repro.core.forest import ClusterForest
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.core.trace import FinishedCluster, LevelTrace, NodeLevelTrace, SamplerTrace
from repro.core.trials import TrialMachine
from repro.errors import ConfigurationError, SimulationError
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["build_spanner", "SamplerRun", "resolve_jobs"]

JOBS_ENV = "REPRO_BUILD_JOBS"


def resolve_jobs(jobs: int | None) -> int:
    """Resolve the ``jobs=`` knob: explicit value, else ``REPRO_BUILD_JOBS``,
    else 1 (the serial path)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    return max(1, int(jobs))


class SamplerRun:
    """One centralized execution; exposed for step-by-step inspection."""

    def __init__(
        self,
        network: Network,
        params: SamplerParams,
        *,
        jobs: int | None = None,
    ) -> None:
        self.network = network
        self.params = params
        self.forest = ClusterForest(network)
        self.spanner_edges: set[int] = set()
        self.trace = SamplerTrace(n=network.n, m=network.m, params=params)
        self._rngf = RngFactory(params.seed)
        self._active: set[int] = set(network.nodes())
        self._finished: dict[int, FinishedCluster] = {}
        self._level_done = 0
        # jobs > 1 shards the per-level trial population across worker
        # processes (repro.core.parallel).
        self._jobs = resolve_jobs(jobs)
        self._engine = None
        self._eid_row, self._ep_u, self._ep_v = network.endpoints_flat()
        # Pool invariant: ``_pools[cid]`` holds exactly the edges with
        # one endpoint-incidence inside cluster ``cid``.  Clusters that
        # never merged are *absent*: they are level-0 singletons whose
        # pool is simply ``network.incident(cid)``.
        self._pools: dict[int, set[int]] = {}
        self._dead: dict[int, set[int]] = {}
        # Parallel levels keep announcements factored instead of
        # eagerly unioned: ``_dead_pairs[receiver]`` is the set of
        # finished clusters that announced to ``receiver``, and
        # ``_payloads[finisher]`` the announced edge array.  The
        # receiver's dead set is (by definition) the union of its
        # announcers' payloads; workers apply it by membership
        # without anyone ever materializing the union.
        self._dead_pairs: dict[int, set[int]] = {}
        self._payloads: dict[int, object] = {}
        # Parallel levels stop maintaining ``_pools`` (workers derive
        # every pool from the shared-memory root arrays); once unset,
        # ``_live_edges`` falls back to recounting member incidences.
        self._pools_valid = True

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------
    def run(self) -> SpannerResult:
        with obs.span(
            "build/spanner",
            n=self.network.n,
            m=self.network.m,
            jobs=self._jobs,
        ) as build_span:
            try:
                for j in range(self.params.levels):
                    self.run_level(j)
            finally:
                self.close()
            result = self.result()
            build_span.set(edges=len(result.edges))
        return result

    def close(self) -> None:
        """Release the parallel engine (pool + shared memory), if any.

        ``run()`` always calls this; step-by-step drivers should too
        (the engine's own finalizer is the backstop)."""
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine.close()

    def result(self) -> SpannerResult:
        return SpannerResult(
            network=self.network,
            params=self.params,
            edges=frozenset(self.spanner_edges),
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    # one invocation of Cluster_j
    # ------------------------------------------------------------------
    def run_level(self, j: int) -> LevelTrace:
        if j != self._level_done:
            raise SimulationError(f"levels must run in order; expected {self._level_done}")
        if not obs.enabled():
            return self._run_level_inner(j)
        parallel_path = bool(self._active and self._parallel_level_ok(j))
        with obs.span(
            "build/level", level=j, parallel=parallel_path
        ) as level_span:
            trace = self._run_level_inner(j)
            level_span.set(
                population=trace.population, edges=len(trace.f_edges)
            )
        return trace

    def _run_level_inner(self, j: int) -> LevelTrace:
        if self._active and self._parallel_level_ok(j):
            return self._run_level_parallel(j)
        live = {cid: self._live_edges(cid) for cid in self._active}
        by_neighbor = {
            cid: self._group_by_neighbor(cid, edges) for cid, edges in live.items()
        }
        sizes = {cid: self.forest.size(cid) for cid in self._active}
        heights = self.forest.heights_of(self._active)

        machines = self._run_trials(j, live, by_neighbor)

        level_f: set[int] = set()
        for machine in machines.values():
            level_f.update(machine._f_active.values())
        self.spanner_edges |= level_f

        if j < self.params.k:
            centers, joins, unclustered = self._form_clusters(j, machines)
        else:
            # Final level: no clustering; every node of G_k is unclustered.
            centers, joins = (), ()
            unclustered = tuple(sorted(self._active))

        active_edges = stale_edges = 0
        for cid, groups in by_neighbor.items():
            for other, bundle in groups.items():
                if other in self._active:
                    active_edges += len(bundle)
                else:
                    stale_edges += len(bundle)
        level_trace = LevelTrace(
            level=j,
            population=len(live),
            active_edges=active_edges // 2,
            stale_edges=stale_edges,
            cluster_sizes=sizes,
            cluster_heights=heights,
            nodes={
                cid: self._node_trace(cid, machine, live[cid], len(by_neighbor[cid]))
                for cid, machine in machines.items()
            },
            centers=centers,
            joins=joins,
            unclustered=unclustered,
            f_edges=frozenset(level_f),
        )
        self.trace.levels.append(level_trace)

        # Apply the level's outcome.
        for joiner, center, eid in joins:
            self.forest.attach(joiner, center, eid)
            self._merge_pools(joiner, center)
        for cid in unclustered:
            self._finish_cluster(cid, j, machines[cid], live[cid])
        for cid in unclustered:
            self._pools.pop(cid, None)
            self._dead.pop(cid, None)
            self._dead_pairs.pop(cid, None)
        self._after_level(j, level_trace)
        self._active = set(centers) if j < self.params.k else set()
        self._level_done = j + 1
        return level_trace

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_trials(
        self,
        j: int,
        live: dict[int, list[int]],
        by_neighbor: dict[int, dict[int, list[int]]],
    ) -> dict[int, TrialMachine]:
        """Run every active cluster's trial machine to completion.

        Each cluster first goes through :meth:`_replay`; only the
        clusters it declines run a real machine.
        """
        machines: dict[int, TrialMachine] = {}
        trial_rng = self._rngf.prefix("trials", j)
        n = self.network.n
        target_j = self.params.target(j, n)
        budget_j = self.params.queries_per_trial(j, n)
        eid_row = self._eid_row
        ep_u = self._ep_u
        ep_v = self._ep_v
        root = self.forest.root_of
        active = self._active
        replay = self._replay
        # One Random instance re-seeded per machine: each machine runs
        # to completion before the next is built, so the draw sequence
        # is identical to giving every machine a fresh Random.
        shared_rng = random.Random()
        for cid in sorted(active):
            replayed = replay(cid, live[cid])
            if replayed is not None:
                machines[cid] = replayed
                continue
            shared_rng.seed(trial_rng.child_seed(cid))
            machine = TrialMachine(
                vid=cid,
                level=j,
                incident_edges=live[cid],
                params=self.params,
                n=n,
                rng=shared_rng,
                target=target_j,
                budget=budget_j,
            )
            groups = by_neighbor[cid]
            while machine.wants_trial():
                # Plain eid-first tuples: deliver() unpacks positionally,
                # so the QueryResult envelope is skipped on the hot path.
                results = []
                for eid in machine.begin_trial():
                    row = eid if eid_row is None else eid_row[eid]
                    ca = root[ep_u[row]]
                    other = root[ep_v[row]] if ca == cid else ca
                    results.append((eid, other, groups[other], other in active))
                machine.deliver(results)
            machines[cid] = machine
        return machines

    def _replay(self, cid: int, live: list[int]) -> TrialMachine | None:
        """A finished stand-in for ``cid``'s machine, or ``None`` to run
        it.  The base run replays nothing; the override point for
        :class:`~repro.dynamic.repair.RepairRun`, which replays the
        machines whose inputs a churn epoch provably did not change."""
        return None

    # ------------------------------------------------------------------
    # process-parallel level execution (repro.core.parallel)
    # ------------------------------------------------------------------
    def _parallel_level_ok(self, j: int) -> bool:
        """May level ``j`` run on the sharded parallel engine?

        Override point: ``RepairRun`` additionally requires an empty
        clean set (a pure-rebuild level), since replay decisions are
        interleaved with the serial trial loop."""
        return self._jobs > 1

    def _note_parallel_trials(self, j: int, part) -> None:
        """Hook invoked in place of :meth:`_run_trials` bookkeeping when
        a level runs parallel.  ``RepairRun`` resets its per-level replay
        state here."""

    def _run_level_parallel(self, j: int) -> LevelTrace:
        """One invocation of ``Cluster_j`` on the sharded engine.

        Mirrors :meth:`run_level` stage for stage; the trial population
        executes in worker processes (repro.core.parallel) and comes back
        as one columnar :class:`~repro.core.parallel.LevelPartial` whose
        reduce order is independent of the shard count.  Pools and dead
        sets are still maintained (``_merge_pools`` / ``_finish_cluster``)
        so serial and parallel levels can interleave freely within one
        run — bit-identical either way.
        """
        import numpy as np

        from repro.core import parallel

        if self._engine is None:
            self._engine = parallel.ParallelBuildEngine(
                self.network, self.params, self._jobs
            )
        active_sorted = sorted(self._active)
        futures = self._engine.submit_level(
            j,
            root_of=self.forest.root_of,
            active_sorted=active_sorted,
            dead=self._dead,
            dead_pairs=self._dead_pairs,
            payloads=self._payloads,
        )
        # Per-level bookkeeping overlaps worker execution: both read the
        # same pre-level forest state (the workers from their shm copy).
        # Sizes and heights come from vectorized sweeps instead of the
        # per-cluster forest walks the serial level uses — same dicts,
        # O(n * tree height) total instead of one walk per cluster.
        n = self.network.n
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        active_np = np.asarray(active_sorted, dtype=np.int64)
        counts = np.bincount(root_np, minlength=n)
        sizes = dict(zip(active_sorted, counts[active_np].tolist()))
        ident = np.arange(n, dtype=np.int64)
        pa = ident.copy()
        for child, (par_phys, _eid) in self.forest.parent_items():
            pa[child] = par_phys
        # depth[x] = hops from x to its tree root: chase parent pointers
        # in lockstep, at most tree-height iterations (Lemma 8 bounds it
        # by (3^j - 1) / 2).
        depth = (pa != ident).astype(np.int64)
        cur = pa
        while True:
            nxt = pa[cur]
            moved = nxt != cur
            if not moved.any():
                break
            depth += moved
            cur = nxt
        tree_h = np.zeros(n, dtype=np.int64)
        np.maximum.at(tree_h, root_np, depth)
        heights = dict(zip(active_sorted, tree_h[active_np].tolist()))
        part = self._engine.collect(futures)
        self._note_parallel_trials(j, part)

        nodes = part.node_traces(j, self.params, n)
        level_f = frozenset(part.fa_e.tolist())
        self.spanner_edges |= level_f

        if j < self.params.k:
            centers = tuple(part.centers.tolist())
            joins = part.joins(n)
            clustered = np.concatenate(
                [
                    part.centers,
                    np.asarray([v for v, _u, _e in joins], dtype=np.int64),
                ]
            )
            unclustered = tuple(
                np.setdiff1d(part.cids, clustered, assume_unique=True).tolist()
            )
        else:
            centers, joins = (), ()
            unclustered = tuple(active_sorted)

        level_trace = LevelTrace(
            level=j,
            population=len(active_sorted),
            active_edges=part.active_edges // 2,
            stale_edges=part.stale_edges,
            cluster_sizes=sizes,
            cluster_heights=heights,
            nodes=nodes,
            centers=centers,
            joins=joins,
            unclustered=unclustered,
            f_edges=level_f,
        )
        self.trace.levels.append(level_trace)

        self._pools_valid = False
        self._pools.clear()
        if joins:
            je = np.asarray([e for _v, _u, e in joins], dtype=np.int64)
            jv = np.asarray([v for v, _u, _e in joins], dtype=np.int64)
            rows = (
                je
                if self._eid_row is None
                else np.searchsorted(
                    np.asarray(self.network.edge_ids, dtype=np.int64), je
                )
            )
            pu = np.frombuffer(self._ep_u, dtype=np.int64)[rows]
            pv = np.frombuffer(self._ep_v, dtype=np.int64)[rows]
            root_np = np.asarray(self.forest.root_of, dtype=np.int64)
            joiner_side = root_np[pu] == jv
            xs = np.where(joiner_side, pu, pv).tolist()
            ys = np.where(joiner_side, pv, pu).tolist()
            self.forest.bulk_attach(joins, xs, ys)
            for joiner, center, _eid in joins:
                self._merge_dead(joiner, center)
        self._finish_clusters_parallel(j, unclustered, part, nodes)
        for cid in unclustered:
            self._pools.pop(cid, None)
            self._dead.pop(cid, None)
            self._dead_pairs.pop(cid, None)
        self._after_level(j, level_trace)
        self._active = set(centers) if j < self.params.k else set()
        self._level_done = j + 1
        return level_trace

    def _finish_clusters_parallel(self, j, unclustered, part, nodes):
        """Bulk variant of per-cluster :meth:`_finish_cluster` for a
        parallel level: identical records and receiver dead-set updates,
        with the receiver lookup vectorized over all announced ``F``
        edges at once.  Returns the receiver cluster id per announced
        edge (finishers in ascending order) — ``RepairRun`` overrides to
        also mark those receivers dirty, mirroring its serial override.
        """
        import numpy as np

        from repro.core.parallel import _concat_ranges

        finished = self._finished
        trace_finished = self.trace.finished
        announce = j < self.params.k
        for cid in unclustered:
            live_arr = part.live_array(cid)
            record = FinishedCluster(
                cid=cid,
                level=j,
                label=nodes[cid].label,
                live_edges=frozenset(live_arr.tolist()),
            )
            finished[cid] = record
            trace_finished[cid] = record
            if announce:
                self._payloads[cid] = live_arr
        if not announce or not unclustered:
            return None  # final level: nothing to announce
        finishers = np.asarray(unclustered, dtype=np.int64)
        pos = np.searchsorted(part.cids, finishers)
        fa_off = np.zeros(len(part.cids) + 1, dtype=np.int64)
        np.cumsum(part.fa_cnt, out=fa_off[1:])
        cnt = part.fa_cnt[pos]
        idx = _concat_ranges(fa_off[pos], cnt)
        eids = part.fa_e[idx]
        owner = np.repeat(finishers, cnt)
        if self._eid_row is None:
            rows = eids
        else:
            rows = np.searchsorted(
                np.asarray(self.network.edge_ids, dtype=np.int64), eids
            )
        ep_u = np.frombuffer(self._ep_u, dtype=np.int64)
        ep_v = np.frombuffer(self._ep_v, dtype=np.int64)
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        ru = root_np[ep_u[rows]]
        rv = root_np[ep_v[rows]]
        # The finisher neither joined nor centered this level, so its
        # members' assignment is unchanged post-attach: the member
        # endpoint is the one whose root is the finisher itself.
        recv = np.where(ru == owner, rv, ru)
        dead_pairs = self._dead_pairs
        for o, r in zip(owner.tolist(), recv.tolist()):
            pairs_r = dead_pairs.get(r)
            if pairs_r is None:
                dead_pairs[r] = {o}
            else:
                pairs_r.add(o)
        return recv

    def _after_level(self, j: int, level_trace: LevelTrace) -> None:
        """Hook after a level's joins/finishes apply, before the active
        set advances.  The base run needs nothing here; ``RepairRun``
        uses it to propagate its clean-cluster bookkeeping."""

    def _live_edges(self, cid: int) -> list[int]:
        """``X_v`` at level start: dedup minus received finish payloads."""
        pool = self._pools.get(cid)
        dead = self._dead.get(cid)
        pairs = self._dead_pairs.get(cid)
        if pairs:
            # Fold factored parallel-level announcements back into an
            # explicit dead set (only reachable when a serial level
            # reads state a parallel level produced).
            dead = set(dead) if dead else set()
            for finisher in pairs:
                dead.update(self._payloads[finisher].tolist())
        if not self._pools_valid:
            # Recount the dedup'd pool from member incidences —
            # parallel levels do not maintain ``_pools``, so a serial
            # read rebuilds it on the spot.
            counts: Counter[int] = Counter()
            for phys in self.forest.members(cid):
                counts.update(self.network.incident(phys))
            pool = {e for e, c in counts.items() if c == 1}
        if pool is None:  # never merged: singleton, cid is its phys id
            incident = self.network.incident(cid)
            if not dead:
                return list(incident)
            return [e for e in incident if e not in dead]
        if dead:
            return sorted(pool - dead)
        return sorted(pool)

    def _merge_pools(self, joiner: int, center: int) -> None:
        """Fold ``joiner``'s pool and dead set into ``center``'s.

        Symmetric difference implements intra-cluster cancellation: an
        edge present in both pools has one endpoint-incidence in each
        cluster, so after the merge both incidences are internal and the
        edge leaves every pool for good.  The smaller set is always the
        one iterated.
        """
        pools = self._pools
        pool_j = pools.pop(joiner, None)
        if pool_j is None:
            pool_j = set(self.network.incident(joiner))
        pool_c = pools.get(center)
        if pool_c is None:
            pool_c = set(self.network.incident(center))
            pools[center] = pool_c
        if len(pool_j) > len(pool_c):
            pool_j ^= pool_c
            pools[center] = pool_j
        else:
            pool_c ^= pool_j
        self._merge_dead(joiner, center)

    def _merge_dead(self, joiner: int, center: int) -> None:
        """Fold ``joiner``'s announcement state into ``center``'s — the
        dead-set half of :meth:`_merge_pools`, also used alone by the
        parallel level loop (which leaves ``_pools`` unmaintained)."""
        dead_j = self._dead.pop(joiner, None)
        if dead_j:
            dead_c = self._dead.get(center)
            if dead_c is None:
                self._dead[center] = dead_j
            elif len(dead_j) > len(dead_c):
                dead_j |= dead_c
                self._dead[center] = dead_j
            else:
                dead_c |= dead_j
        pairs_j = self._dead_pairs.pop(joiner, None)
        if pairs_j:
            pairs_c = self._dead_pairs.get(center)
            if pairs_c is None:
                self._dead_pairs[center] = pairs_j
            elif len(pairs_j) > len(pairs_c):
                pairs_j |= pairs_c
                self._dead_pairs[center] = pairs_j
            else:
                pairs_c |= pairs_j

    def _group_by_neighbor(self, cid: int, edges: list[int]) -> dict[int, list[int]]:
        """Partition ``X_v`` by the cluster at the other end of each edge.

        Bundles stay lists (ascending eid, since ``edges`` is sorted);
        they are only iterated and counted, never hashed or mutated.
        """
        groups: dict[int, list[int]] = {}
        eid_row = self._eid_row
        ep_u = self._ep_u
        ep_v = self._ep_v
        root = self.forest.root_of
        for eid in edges:
            row = eid if eid_row is None else eid_row[eid]
            ca = root[ep_u[row]]
            other = root[ep_v[row]] if ca == cid else ca
            if other == cid:
                raise SimulationError(f"edge {eid} is intra-cluster for {cid}")
            bundle = groups.get(other)
            if bundle is None:
                groups[other] = [eid]
            else:
                bundle.append(eid)
        return groups

    def _form_clusters(
        self, j: int, machines: dict[int, TrialMachine]
    ) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """Second step of ``Cluster_j``: centers, joins, unclustered."""
        p_j = self.params.center_probability(j, self.network.n)
        center_rng = self._rngf.prefix("center", j)
        centers = {cid for cid in self._active if center_rng.uniform(cid) < p_j}
        # Read-only view of each finished machine's neighbor map; trials
        # are over, so sharing the internal dict is safe and copy-free.
        outgoing = {cid: machines[cid]._f_active for cid in self._active}
        incoming: dict[int, dict[int, int]] = {cid: {} for cid in self._active}
        for cid, f_map in outgoing.items():
            for neighbor, eid in f_map.items():
                incoming[neighbor][cid] = eid

        joins: list[tuple[int, int, int]] = []
        for vid in sorted(self._active - centers):
            candidates = {u for u in outgoing[vid] if u in centers}
            candidates |= {u for u in incoming[vid] if u in centers}
            if not candidates:
                continue
            chosen = min(candidates)
            options = [
                eid
                for eid in (outgoing[vid].get(chosen), incoming[vid].get(chosen))
                if eid is not None
            ]
            joins.append((vid, chosen, min(options)))
        joined = {vid for vid, _u, _e in joins}
        unclustered = tuple(sorted(self._active - centers - joined))
        return tuple(sorted(centers)), tuple(joins), unclustered

    def _finish_cluster(
        self, cid: int, level: int, machine: TrialMachine, live: list[int]
    ) -> None:
        """Leave the hierarchy: record and announce over the ``F`` edges."""
        record = FinishedCluster(
            cid=cid,
            level=level,
            label=machine.label,
            live_edges=frozenset(live),
        )
        self._finished[cid] = record
        self.trace.finished[cid] = record
        if level >= self.params.k:
            return  # final level: no further sampling, nothing to announce
        members = set(self.forest.members(cid))
        payload = set(live)
        for _neighbor, eid in machine.f_active.items():
            a, b = self.network.endpoints(eid)
            receiver = b if a in members else a
            # Announcements travel with the receiver's *current* cluster:
            # merges union dead sets, so this is exactly the union of
            # member phys-level announcements in the seed.
            rcid = self.forest.cluster_of(receiver)
            dead = self._dead.get(rcid)
            if dead is None:
                self._dead[rcid] = set(payload)
            else:
                dead |= payload

    def _node_trace(
        self, cid: int, machine: TrialMachine, live: list[int], degree: int
    ) -> NodeLevelTrace:
        stats = machine.stats
        draws = queries = 0
        for s in stats:
            draws += s.draws
            queries += len(s.queried_eids)
        f_active = machine._f_active
        f_inactive = machine._f_inactive
        return NodeLevelTrace(
            vid=cid,
            label=machine.label,
            trials=machine.trials_run,
            draws=draws,
            queries_sent=queries,
            neighbors_found=len(f_active),
            inactive_found=len(f_inactive),
            pool_initial=len(live),
            pool_final=machine.pool_size,
            degree=degree,
            target=machine.target,
            query_budget=machine.query_budget,
            f_active=tuple(sorted(f_active.items())),
            f_inactive=tuple(sorted(f_inactive.items())),
            trial_stats=stats,
        )

def build_spanner(
    network: Network,
    params: SamplerParams,
    *,
    jobs: int | None = None,
) -> SpannerResult:
    """Run centralized ``Sampler`` and return the spanner with its trace.

    ``jobs`` (default: ``REPRO_BUILD_JOBS``, else 1) shards each level's
    trial population across that many worker processes over a shared
    -memory view of the graph — bit-identical results, see DESIGN.md
    §3.11.
    """
    return SamplerRun(network, params, jobs=jobs).run()
