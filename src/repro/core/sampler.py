"""Centralized driver of algorithm ``Sampler`` (Pseudocode 1).

This is the canonical implementation: it executes levels
``j = 0 .. k``, running every virtual node's trials (the first step of
``Cluster_j``), then marks centers and forms clusters (the second
step), contracting the result into the next level.

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

Each level is one group-by over the active clusters, computed
in-process by the columnar level kernel of :mod:`repro.core.parallel`.
Pools are derived afresh at every level from the cluster assignment
(``ClusterForest.root_of``) and the factored announcements this run
keeps; the seed recount strategy's full traces are frozen in
``tests/data/golden_full_traces.json``, which the kernel must keep
matching bit for bit, and ``tests/reference_sampler.py`` keeps a plain
serial recount as the oracle for random inputs.

Randomness is drawn from per-``(purpose, level, cluster)`` streams of a
:class:`~repro.rng.RngFactory` rooted at ``params.seed``, which is what
makes the centralized and distributed runs bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.forest import ClusterForest
from repro.core.parallel import LevelKernel, _concat_ranges
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.core.trace import FinishedCluster, LevelTrace, SamplerTrace
from repro.errors import SimulationError
from repro.local.network import Network

__all__ = ["build_spanner", "SamplerRun"]


class SamplerRun:
    """One centralized execution; exposed for step-by-step inspection."""

    def __init__(self, network: Network, params: SamplerParams) -> None:
        self.network = network
        self.params = params
        self.forest = ClusterForest(network)
        self.spanner_edges: set[int] = set()
        self.trace = SamplerTrace(n=network.n, m=network.m, params=params)
        self._active: set[int] = set(network.nodes())
        self._level_done = 0
        self._kernel = LevelKernel(network, params)
        # Finish announcements stay factored: ``_dead_pairs[receiver]``
        # is the set of finished clusters that announced to
        # ``receiver``, and ``_payloads[finisher]`` the announced edge
        # array.  The receiver's dead set is (by definition) the union
        # of its announcers' payloads; the kernel applies it by
        # membership without anyone ever materializing the union.
        self._dead_pairs: dict[int, set[int]] = {}
        self._payloads: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------
    def run(self) -> SpannerResult:
        with obs.span(
            "build/spanner", n=self.network.n, m=self.network.m
        ) as build_span:
            for j in range(self.params.levels):
                self.run_level(j)
            result = self.result()
            build_span.set(edges=len(result.edges))
        return result

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
        with obs.span("build/level", level=j) as level_span:
            trace = self._run_level_inner(j)
            level_span.set(
                population=trace.population, edges=len(trace.f_edges)
            )
        return trace

    def _run_level_inner(self, j: int) -> LevelTrace:
        """One invocation of ``Cluster_j`` on the level kernel.

        The trial population executes in :mod:`repro.core.parallel` and
        comes back as one columnar :class:`LevelPartial`.  A level with
        no active cluster yields an empty partial and an empty trace.
        """
        active_sorted = sorted(self._active)
        part = self._kernel.run_level(
            j,
            root_of=self.forest.root_of,
            active_sorted=active_sorted,
            dead_pairs=self._dead_pairs,
            payloads=self._payloads,
        )
        # Sizes and heights of the pre-level clusters, from vectorized
        # sweeps — O(n * tree height) in total.
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

        if joins:
            self._apply_joins(joins)
        self._finish_clusters(j, unclustered, part, nodes)
        for cid in unclustered:
            self._dead_pairs.pop(cid, None)
        self._active = set(centers) if j < self.params.k else set()
        self._level_done = j + 1
        return level_trace

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _endpoints(self, eids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both endpoint columns of ``eids``, read off the kernel's CSR
        views."""
        views = self._kernel.views
        if not self._kernel.identity:
            eids = np.searchsorted(views["eids"], eids)
        return views["ep_u"][eids], views["ep_v"][eids]

    def _apply_joins(self, joins) -> None:
        """Attach every joiner to its center and fold the joiner's
        received announcements into the center's."""
        pu, pv = self._endpoints(
            np.asarray([e for _v, _u, e in joins], dtype=np.int64)
        )
        jv = np.asarray([v for v, _u, _e in joins], dtype=np.int64)
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        joiner_side = root_np[pu] == jv
        xs = np.where(joiner_side, pu, pv).tolist()
        ys = np.where(joiner_side, pv, pu).tolist()
        self.forest.bulk_attach(joins, xs, ys)
        dead_pairs = self._dead_pairs
        for joiner, center, _eid in joins:
            pairs_j = dead_pairs.pop(joiner, None)
            if not pairs_j:
                continue
            pairs_c = dead_pairs.get(center)
            if pairs_c is None:
                dead_pairs[center] = pairs_j
            elif len(pairs_j) > len(pairs_c):
                pairs_j |= pairs_c
                dead_pairs[center] = pairs_j
            else:
                pairs_c |= pairs_j

    def _finish_clusters(self, j, unclustered, part, nodes) -> None:
        """Record every unclustered cluster and announce its pool over
        its ``F`` edges, the receiver lookup vectorized over all
        announced edges at once."""
        trace_finished = self.trace.finished
        announce = j < self.params.k
        for cid in unclustered:
            live_arr = part.live_array(cid)
            trace_finished[cid] = FinishedCluster(
                cid=cid,
                level=j,
                label=nodes[cid].label,
                live_edges=frozenset(live_arr.tolist()),
            )
            if announce:
                self._payloads[cid] = live_arr
        if not announce or not unclustered:
            return  # final level: nothing to announce
        finishers = np.asarray(unclustered, dtype=np.int64)
        pos = np.searchsorted(part.cids, finishers)
        fa_off = np.zeros(len(part.cids) + 1, dtype=np.int64)
        np.cumsum(part.fa_cnt, out=fa_off[1:])
        cnt = part.fa_cnt[pos]
        eids = part.fa_e[_concat_ranges(fa_off[pos], cnt)]
        owner = np.repeat(finishers, cnt)
        eu, ev = self._endpoints(eids)
        root_np = np.asarray(self.forest.root_of, dtype=np.int64)
        ru = root_np[eu]
        rv = root_np[ev]
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


def build_spanner(network: Network, params: SamplerParams) -> SpannerResult:
    """Run centralized ``Sampler`` and return the spanner with its trace.

    Every level runs on the in-process level kernel, DESIGN.md §3.11.
    """
    return SamplerRun(network, params).run()
