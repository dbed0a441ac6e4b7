"""The level kernel of ``Sampler``: one level as a columnar group-by
(DESIGN.md §3.11).

Inside one level of ``Sampler`` every active cluster's trial machine is
independent: per-``(purpose, level, cluster)`` RNG streams
(:class:`~repro.rng.RngFactory`) make the outcome of each cluster a pure
function of ``(graph, params, level state)``, regardless of execution
order.  This module exploits that:

* :func:`_run_level_kernel` is the kernel.  For the sorted active
  clusters it derives each cluster's unexplored pool ``X_v`` from flat
  arrays (the cut edges incident to the cluster, minus finish
  announcements), executes the level's trials, and returns one columnar
  :class:`LevelPartial`: pools, ``F`` edges, per-cluster trace columns,
  center coins, and active/stale edge counts, all keyed by ascending
  cluster id.
* :class:`LevelKernel` owns the arrays the kernel reads: views of the
  :class:`Network` CSR arrays, set up once per build, plus a per-level
  block — cluster assignment ``root_of``, active flags, and a
  members-by-cluster index — replaced at each level boundary.  The
  kernel runs in the calling thread over every active cluster at once.

The fast path vectorizes the *exhaustive* trial (pool no larger than the
query budget — the overwhelmingly common case under the repo's budget
formulas): such a machine runs exactly one trial that queries its whole
sorted pool, peels every edge, keeps the minimum edge id per discovered
neighbor, draws nothing from its RNG, and ends ``LIGHT``.  That outcome
is a pure group-by over ``(cluster, neighbor, eid)`` — one ``lexsort``
per level.  Clusters whose pool exceeds the budget (or any cluster when
``exhaustive_small_pools`` is off) fall back to a real
:class:`~repro.core.trials.TrialMachine` seeded from the identical
``("trials", j, cid)`` stream, so the kernel never approximates: its
full trace equals the serial reference in ``tests/reference_sampler.py``
(tests/test_parallel_build.py) and the frozen seed traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.core.params import SamplerParams
from repro.core.trace import NodeLevelTrace
from repro.core.trials import NodeLabel, TrialMachine, TrialStats
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["LevelKernel", "LevelPartial"]


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of ``[s, s+c)`` for every ``(s, c)`` pair, concatenated."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(starts, counts) + pos


def _node_trace_of(
    cid: int, machine: TrialMachine, pool_initial: int, degree: int
) -> NodeLevelTrace:
    """The trace of one fallback cluster's finished machine."""
    stats = machine.stats
    draws = queries = 0
    for s in stats:
        draws += s.draws
        queries += len(s.queried_eids)
    return NodeLevelTrace(
        vid=cid,
        label=machine.label,
        trials=machine.trials_run,
        draws=draws,
        queries_sent=queries,
        neighbors_found=len(machine._f_active),
        inactive_found=len(machine._f_inactive),
        pool_initial=pool_initial,
        pool_final=machine.pool_size,
        degree=degree,
        target=machine.target,
        query_budget=machine.query_budget,
        f_active=tuple(sorted(machine._f_active.items())),
        f_inactive=tuple(sorted(machine._f_inactive.items())),
        trial_stats=stats,
    )


def _run_level_kernel(
    st: LevelKernel, j: int, cids: np.ndarray, pair_items: tuple | None
) -> LevelPartial:
    """The kernel: level ``j`` for the sorted active clusters ``cids``.

    ``pair_items`` carries the factored finish announcements received
    by these clusters (see :meth:`LevelKernel.run_level`).  All outputs
    are keyed by ascending cluster id.
    """
    views = st.views
    params = st.params
    n = st.n
    A = len(cids)
    target_j = params.target(j, n)
    budget_j = params.queries_per_trial(j, n)

    # --- pools: cut edges per cluster, minus finish announcements ----
    roots_sorted = views["roots_sorted"]
    starts = np.searchsorted(roots_sorted, cids, side="left")
    ends = np.searchsorted(roots_sorted, cids, side="right")
    mcnt = ends - starts
    members = views["member_order"][_concat_ranges(starts, mcnt)]
    indptr = views["indptr"]
    estarts = indptr[members]
    ecnt = indptr[members + 1] - estarts
    E = views["inc"][_concat_ranges(estarts, ecnt)]
    C = np.repeat(np.repeat(cids, mcnt), ecnt)
    eids_sorted = None if st.identity else views["eids"]
    rows = E if eids_sorted is None else np.searchsorted(eids_sorted, E)
    root = views["root"]
    ru = root[views["ep_u"][rows]]
    rv = root[views["ep_v"][rows]]
    other = np.where(ru == C, rv, ru)
    keep = other != C  # both-endpoints-inside edges are intra-cluster
    if pair_items is not None:
        # Factored announcements: an edge of cluster C is dead iff its
        # far cluster O is a finisher that announced to C (pair test)
        # and the edge is in that finisher's payload (membership test).
        # Sound because an announced payload edge incident to C always
        # has its far endpoint inside the announcing (hence forever
        # unmerged) finished cluster.
        recv_a, fin_a, payload_map = pair_items
        span = st.m if st.identity else int(views["eids"][-1]) + 1
        cand = np.isin(C * np.int64(n) + other, recv_a * np.int64(n) + fin_a)
        cand &= keep
        if cand.any():
            if int(fin_a.max()) * span < 2**62:
                payload_keys = np.concatenate(
                    [
                        np.asarray(arr, dtype=np.int64) + fid * span
                        for fid, arr in payload_map.items()
                    ]
                )
                idx = np.flatnonzero(cand)
                hit = np.isin(
                    other[idx] * span + E[idx], payload_keys
                )
                keep[idx[hit]] = False
            else:  # rare huge-eid graphs: per-pair masking
                for r, f in zip(recv_a.tolist(), fin_a.tolist()):
                    keep &= ~(
                        (C == r)
                        & (other == f)
                        & np.isin(E, np.asarray(payload_map[f], dtype=np.int64))
                    )
    E = E[keep]
    C = C[keep]
    O = other[keep]
    act = views["aflags"][O].astype(bool)

    # --- pool order (ascending eid per cluster) ----------------------
    po = np.lexsort((E, C))
    live = np.ascontiguousarray(E[po])
    Cp = C[po]
    live_off = np.zeros(A + 1, dtype=np.int64)
    np.cumsum(
        np.searchsorted(Cp, cids, side="right")
        - np.searchsorted(Cp, cids, side="left"),
        out=live_off[1:],
    )
    pool_len = live_off[1:] - live_off[:-1]

    # --- group order: one row per (cluster, neighbor) bundle ---------
    go = np.lexsort((E, O, C))
    Cg = C[go]
    Og = O[go]
    Eg = E[go]
    Ag = act[go]
    first = np.empty(len(go), dtype=bool)
    if len(go):
        first[0] = True
        first[1:] = (Cg[1:] != Cg[:-1]) | (Og[1:] != Og[:-1])
    gC = Cg[first]
    gO = Og[first]
    gE = Eg[first]
    gA = Ag[first]
    gs = np.searchsorted(gC, cids, side="left")
    ge = np.searchsorted(gC, cids, side="right")
    deg = ge - gs
    csA = np.zeros(len(gC) + 1, dtype=np.int64)
    np.cumsum(gA, out=csA[1:])
    fa_cnt = csA[ge] - csA[gs]
    fi_cnt = deg - fa_cnt
    # Exhaustive trials keep the minimum eid per neighbor: the group
    # firsts, already ascending by neighbor within each cluster.
    fa_o = np.ascontiguousarray(gO[gA])
    fa_e = np.ascontiguousarray(gE[gA])
    fi_o = np.ascontiguousarray(gO[~gA])
    fi_e = np.ascontiguousarray(gE[~gA])

    # --- fallback: pools larger than the budget run a real machine ---
    if params.exhaustive_small_pools:
        fb_idx = np.flatnonzero(pool_len > budget_j)
    else:
        fb_idx = np.flatnonzero(pool_len > 0)
    fallback: dict[int, NodeLevelTrace] = {}
    if len(fb_idx):
        (
            fallback,
            fa_o,
            fa_e,
            fa_cnt,
            fi_o,
            fi_e,
            fi_cnt,
        ) = _run_fallback_machines(
            st,
            j,
            fb_idx,
            cids,
            live,
            live_off,
            Cg,
            Og,
            Eg,
            deg,
            fa_o,
            fa_e,
            fa_cnt,
            fi_o,
            fi_e,
            fi_cnt,
            target_j,
            budget_j,
        )

    # --- center coins (the per-cluster ("center", j, cid) streams) ---
    centers = np.empty(0, dtype=np.int64)
    if j < params.k:
        coins = st.rngf.prefix("center", j).uniforms(cids.tolist())
        centers = cids[coins < params.center_probability(j, n)]

    active_edges = int(act.sum())
    return LevelPartial(
        cids=cids,
        live=live,
        live_off=live_off,
        fa_o=fa_o,
        fa_e=fa_e,
        fa_cnt=fa_cnt,
        fi_o=fi_o,
        fi_e=fi_e,
        fi_cnt=fi_cnt,
        deg=deg,
        active_edges=active_edges,
        stale_edges=len(E) - active_edges,
        centers=centers,
        fallback=fallback,
    )


def _run_fallback_machines(
    st,
    j,
    fb_idx,
    cids,
    live,
    live_off,
    Cg,
    Og,
    Eg,
    deg,
    fa_o,
    fa_e,
    fa_cnt,
    fi_o,
    fi_e,
    fi_cnt,
    target_j,
    budget_j,
):
    """Run real trial machines for over-budget pools; splice their
    ``F`` sets over the vectorized group-first columns."""
    params = st.params
    views = st.views
    aflags = views["aflags"]
    root = views["root"]
    ep_u = views["ep_u"]
    ep_v = views["ep_v"]
    eids_sorted = None if st.identity else views["eids"]
    trial_prefix = st.rngf.prefix("trials", j)
    shared_rng = random.Random()
    fa_off = np.zeros(len(cids) + 1, dtype=np.int64)
    np.cumsum(fa_cnt, out=fa_off[1:])
    fi_off = np.zeros(len(cids) + 1, dtype=np.int64)
    np.cumsum(fi_cnt, out=fi_off[1:])
    fa_o_l = fa_o.tolist()
    fa_e_l = fa_e.tolist()
    fi_o_l = fi_o.tolist()
    fi_e_l = fi_e.tolist()
    fa_cnt = fa_cnt.copy()
    fi_cnt = fi_cnt.copy()
    fallback: dict[int, NodeLevelTrace] = {}
    for i in reversed(fb_idx.tolist()):
        cid = int(cids[i])
        pool = live[live_off[i] : live_off[i + 1]].tolist()
        span = slice(
            int(np.searchsorted(Cg, cid, side="left")),
            int(np.searchsorted(Cg, cid, side="right")),
        )
        groups: dict[int, list[int]] = {}
        for o_, e_ in zip(Og[span].tolist(), Eg[span].tolist()):
            bundle = groups.get(o_)
            if bundle is None:
                groups[o_] = [e_]
            else:
                bundle.append(e_)
        shared_rng.seed(trial_prefix.child_seed(cid))
        machine = TrialMachine(
            vid=cid,
            level=j,
            incident_edges=pool,
            params=params,
            n=st.n,
            rng=shared_rng,
            target=target_j,
            budget=budget_j,
        )
        while machine.wants_trial():
            results = []
            for eid in machine.begin_trial():
                row = eid if eids_sorted is None else int(
                    np.searchsorted(eids_sorted, eid)
                )
                ca = int(root[ep_u[row]])
                o_ = int(root[ep_v[row]]) if ca == cid else ca
                results.append((eid, o_, groups[o_], bool(aflags[o_])))
            machine.deliver(results)
        fallback[cid] = _node_trace_of(cid, machine, len(pool), int(deg[i]))
        fa_items = sorted(machine._f_active.items())
        fi_items = sorted(machine._f_inactive.items())
        fa_o_l[fa_off[i] : fa_off[i + 1]] = [o_ for o_, _ in fa_items]
        fa_e_l[fa_off[i] : fa_off[i + 1]] = [e_ for _, e_ in fa_items]
        fi_o_l[fi_off[i] : fi_off[i + 1]] = [o_ for o_, _ in fi_items]
        fi_e_l[fi_off[i] : fi_off[i + 1]] = [e_ for _, e_ in fi_items]
        fa_cnt[i] = len(fa_items)
        fi_cnt[i] = len(fi_items)
    return (
        fallback,
        np.asarray(fa_o_l, dtype=np.int64),
        np.asarray(fa_e_l, dtype=np.int64),
        fa_cnt,
        np.asarray(fi_o_l, dtype=np.int64),
        np.asarray(fi_e_l, dtype=np.int64),
        fi_cnt,
    )


@dataclass
class LevelPartial:
    """One level's kernel output: columnar, keyed by ascending cluster
    id throughout."""

    cids: np.ndarray
    live: np.ndarray
    live_off: np.ndarray
    fa_o: np.ndarray
    fa_e: np.ndarray
    fa_cnt: np.ndarray
    fi_o: np.ndarray
    fi_e: np.ndarray
    fi_cnt: np.ndarray
    deg: np.ndarray
    active_edges: int
    stale_edges: int
    centers: np.ndarray
    fallback: dict[int, NodeLevelTrace]
    _index: dict[int, int] | None = field(default=None, repr=False)

    def live_array(self, cid: int) -> np.ndarray:
        """The level-start pool ``X_v`` of ``cid``, ascending, as an
        int64 array view."""
        index = self._index
        if index is None:
            index = self._index = {
                int(c): i for i, c in enumerate(self.cids.tolist())
            }
        i = index[cid]
        return self.live[self.live_off[i] : self.live_off[i + 1]]

    def node_traces(
        self, level: int, params: SamplerParams, n: int
    ) -> dict[int, NodeLevelTrace]:
        """Per-cluster traces: vector-assembled for exhaustive trials,
        the machine's own trace for fallback clusters."""
        target_j = params.target(level, n)
        budget_j = params.queries_per_trial(level, n)
        cids = self.cids.tolist()
        live = self.live.tolist()
        off = self.live_off.tolist()
        # Single forward pass over the pair columns via islice on a zip
        # iterator: clusters consume their fa_cnt/fi_cnt entries in cid
        # order, so no intermediate pair list is ever materialized.
        fa_it = zip(self.fa_o.tolist(), self.fa_e.tolist())
        fi_it = zip(self.fi_o.tolist(), self.fi_e.tolist())
        take = islice
        fa_cnt = self.fa_cnt.tolist()
        fi_cnt = self.fi_cnt.tolist()
        deg = self.deg.tolist()
        fallback = self.fallback
        light = NodeLabel.LIGHT
        trace_cls = NodeLevelTrace
        stats_cls = TrialStats
        # NodeLevelTrace is a NamedTuple; building through tuple.__new__
        # skips its python-level argument-parsing __new__ on this
        # ~population-sized loop.  Instances are indistinguishable.
        tnew = tuple.__new__
        empty = ()
        nodes: dict[int, NodeLevelTrace] = {}
        for i, cid in enumerate(cids):
            na = fa_cnt[i]
            ni = fi_cnt[i]
            entry = fallback.get(cid) if fallback else None
            if entry is not None:
                nodes[cid] = entry
                if na:
                    next(take(fa_it, na - 1, na), None)
                if ni:
                    next(take(fi_it, ni - 1, ni), None)
                continue
            fa = tuple(take(fa_it, na)) if na else empty
            fi = tuple(take(fi_it, ni)) if ni else empty
            o0 = off[i]
            pool_len = off[i + 1] - o0
            if pool_len:
                d = deg[i]
                pool = tuple(live[o0 : o0 + pool_len])
                nodes[cid] = tnew(
                    trace_cls,
                    (
                        cid,
                        light,
                        1,
                        pool_len,
                        pool_len,
                        na,
                        ni,
                        pool_len,
                        0,
                        d,
                        target_j,
                        budget_j,
                        fa,
                        fi,
                        (stats_cls(1, pool_len, pool_len, pool, d, pool_len),),
                    ),
                )
            else:
                nodes[cid] = tnew(
                    trace_cls,
                    (cid, light, 0, 0, 0, 0, 0, 0, 0, 0,
                     target_j, budget_j, empty, empty, empty),
                )
        return nodes

    def joins(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """The join step of ``Cluster_j``, vectorized: every active
        non-center picks its minimum candidate center, tie-broken by the
        minimum edge id between the pair (outgoing or incoming)."""
        centers = self.centers
        if not len(centers) or not len(self.fa_o):
            return ()
        cflag = np.zeros(n, dtype=bool)
        cflag[centers] = True
        fa_c = np.repeat(self.cids, self.fa_cnt)
        co = cflag[self.fa_o]
        cc = cflag[fa_c]
        mo = co & ~cc  # owner v joins discovered center u
        mi = cc & ~co  # discovered v joins owning center u
        v = np.concatenate([fa_c[mo], self.fa_o[mi]])
        if not len(v):
            return ()
        u = np.concatenate([self.fa_o[mo], fa_c[mi]])
        e = np.concatenate([self.fa_e[mo], self.fa_e[mi]])
        order = np.lexsort((e, u, v))
        v = v[order]
        u = u[order]
        e = e[order]
        keep = np.empty(len(v), dtype=bool)
        keep[0] = True
        keep[1:] = v[1:] != v[:-1]
        return tuple(
            zip(v[keep].tolist(), u[keep].tolist(), e[keep].tolist())
        )


class LevelKernel:
    """The arrays the level kernel reads, for one build.

    Created by :class:`~repro.core.sampler.SamplerRun` and reused for
    every level of the run: the static block (views of the network's
    CSR arrays) is set up once, the per-level block by each
    :meth:`run_level`.  The kernel functions read the views, ``params``,
    ``n``, ``m``, the consecutive-eid flag ``identity`` and the RNG
    factory off this object.
    """

    def __init__(self, network: Network, params: SamplerParams) -> None:
        eid_row, ep_u, ep_v = network.endpoints_flat()
        indptr, inc = network.incidence_csr()
        self.views: dict[str, np.ndarray] = {
            "ep_u": np.frombuffer(ep_u, dtype=np.int64),
            "ep_v": np.frombuffer(ep_v, dtype=np.int64),
            "indptr": np.frombuffer(indptr, dtype=np.int64),
            "inc": np.frombuffer(inc, dtype=np.int64),
        }
        self.identity = eid_row is None
        if not self.identity:
            # Rows are sorted by eid, so the row array itself is the
            # sorted key the kernel binary-searches.
            self.views["eids"] = np.asarray(network.edge_ids, dtype=np.int64)
        self.params = params
        self.n = network.n
        self.m = network.m
        self.rngf = RngFactory(params.seed)

    def run_level(
        self,
        j: int,
        *,
        root_of: list[int],
        active_sorted: list[int],
        dead_pairs: dict[int, set[int]],
        payloads: dict,
    ) -> LevelPartial:
        """Set the level state and run the kernel over every active
        cluster.

        ``dead_pairs``/``payloads`` are the factored finish
        announcements of earlier levels — receiver -> announcing
        finishers, finisher -> announced edge array — which the kernel
        applies by membership without materializing the per-receiver
        unions.
        """
        views = self.views
        root = np.asarray(root_of, dtype=np.int64)
        member_order = np.argsort(root, kind="stable")
        views["root"] = root
        views["member_order"] = member_order
        views["roots_sorted"] = root[member_order]
        cids = np.asarray(active_sorted, dtype=np.int64)
        aflags = np.zeros(self.n, dtype=np.uint8)
        aflags[cids] = 1
        views["aflags"] = aflags

        recv_l: list[int] = []
        fin_l: list[int] = []
        for cid, finishers in dead_pairs.items():
            if finishers and aflags[cid]:
                recv_l.extend([cid] * len(finishers))
                fin_l.extend(finishers)
        pair_items = None
        if recv_l:
            pair_items = (
                np.asarray(recv_l, dtype=np.int64),
                np.asarray(fin_l, dtype=np.int64),
                {fid: payloads[fid] for fid in set(fin_l)},
            )
        return _run_level_kernel(self, j, cids, pair_items)
