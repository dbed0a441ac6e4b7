"""The level kernel of ``Sampler``: one level as a columnar group-by
(DESIGN.md §3.11).

Inside one level of ``Sampler`` every active cluster's trial machine is
independent: per-``(purpose, level, cluster)`` RNG streams
(:class:`~repro.rng.RngFactory`) make the outcome of each cluster a pure
function of ``(graph, params, level state)``, regardless of execution
order.  This module exploits that:

* :func:`_run_shard_impl` is the kernel.  For a contiguous range of the
  sorted active clusters it derives each cluster's unexplored pool
  ``X_v`` from flat arrays (the cut edges incident to the cluster,
  minus finish announcements), executes the level's trials, and
  returns columnar partials: pools, ``F`` edges, per-cluster trace
  columns, center coins, and active/stale edge counts.
* :class:`ParallelBuildEngine` owns the arrays the kernel reads: the
  :class:`Network` CSR arrays, written once per build, plus a per-level
  block — cluster assignment ``root_of``, active flags, and a
  members-by-cluster index — rewritten at each level boundary.  At
  ``jobs=1`` these are plain in-process arrays and the kernel runs in
  the calling thread over every active cluster at once.  At ``jobs>1``
  they live in one :mod:`multiprocessing.shared_memory` segment
  (zero-copy for every worker) and a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` runs one shard of
  clusters per worker.
* Because shards are ascending-``cid`` ranges and every per-cluster
  output is keyed by ``cid``, the reduce is plain concatenation in
  shard order — deterministic for any shard count, which is why
  ``jobs=1`` and ``jobs=8`` produce bit-identical traces.

The fast path vectorizes the *exhaustive* trial (pool no larger than the
query budget — the overwhelmingly common case under the repo's budget
formulas): such a machine runs exactly one trial that queries its whole
sorted pool, peels every edge, keeps the minimum edge id per discovered
neighbor, draws nothing from its RNG, and ends ``LIGHT``.  That outcome
is a pure group-by over ``(cluster, neighbor, eid)`` — one ``lexsort``
per shard.  Clusters whose pool exceeds the budget (or any cluster when
``exhaustive_small_pools`` is off) fall back to a real
:class:`~repro.core.trials.TrialMachine` seeded from the identical
``("trials", j, cid)`` stream, so the kernel never approximates: its
full trace equals the serial reference in ``tests/reference_sampler.py``
(tests/test_parallel_build.py) and the frozen seed traces.
"""

from __future__ import annotations

import os
import random
import weakref
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro import obs
from repro.core.params import SamplerParams
from repro.core.trace import NodeLevelTrace
from repro.core.trials import NodeLabel, TrialMachine, TrialStats
from repro.errors import SimulationError
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["ParallelBuildEngine", "LevelPartial"]

# Names of shared-memory segments this process created and has not yet
# unlinked — the leak detector used by the worker-crash tests.
_LIVE_SEGMENTS: set[str] = set()

# Test hook: when set in the environment, every shard task dies before
# doing any work, simulating a hard worker crash mid-level.
_CRASH_ENV = "REPRO_PARALLEL_CRASH_SHARD"


# ----------------------------------------------------------------------
# shared-memory layout
# ----------------------------------------------------------------------
def _layout(n: int, m: int, identity: bool) -> tuple[dict, int]:
    """``{field: (byte offset, element count, dtype)}`` plus total bytes.

    Static fields (written once per build): the CSR endpoint arrays,
    incidence index, and — only when edge ids are non-consecutive — the
    sorted edge-id array workers binary-search for row lookup.  Dynamic
    fields (rewritten per level): cluster assignment, active flags, the
    stable members-by-cluster permutation with its sorted key array, and
    the sorted active cluster ids.
    """
    fields: dict[str, tuple[int, int, object]] = {}
    offset = 0

    def add(name: str, count: int, dtype) -> None:
        nonlocal offset
        fields[name] = (offset, count, dtype)
        offset += count * np.dtype(dtype).itemsize

    add("ep_u", m, np.int64)
    add("ep_v", m, np.int64)
    add("indptr", n + 1, np.int64)
    add("inc", 2 * m, np.int64)
    add("eids", 0 if identity else m, np.int64)
    add("root", n, np.int64)
    add("member_order", n, np.int64)
    add("roots_sorted", n, np.int64)
    add("active_sorted", n, np.int64)
    add("aflags", n, np.uint8)
    return fields, max(offset, 1)


def _views(buf, fields: dict, writeable: bool) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for name, (offset, count, dtype) in fields.items():
        view = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
        view.flags.writeable = writeable
        views[name] = view
    return views


# ----------------------------------------------------------------------
# kernel state
# ----------------------------------------------------------------------
class _KernelState:
    """Everything the kernel reads: the array views (CSR + level block),
    params, ``n``, ``m``, the consecutive-eid flag and the RNG factory.
    ``shm`` keeps a worker's mapping alive for the views' lifetime."""

    __slots__ = ("views", "params", "n", "m", "identity", "rngf", "shm")

    def __init__(self, views, params, n, m, identity, shm=None) -> None:
        self.views = views
        self.params = params
        self.n = n
        self.m = m
        self.identity = identity
        self.rngf = RngFactory(params.seed)
        self.shm = shm


# The pool worker's state, set once by its initializer.
_WORKER: _KernelState | None = None


def _attach_worker(shm_name: str, n: int, m: int, identity: bool, params) -> None:
    """Pool initializer: map the segment read-only, build array views."""
    global _WORKER
    import atexit
    from multiprocessing import resource_tracker, shared_memory

    # Attaching would register the segment with the resource tracker as
    # if this process owned it; the parent is the sole owner/unlinker,
    # so suppress registration (the 3.13 ``track=False`` knob,
    # hand-rolled for 3.10-3.12 — bpo-39959).
    original_register = resource_tracker.register
    try:
        resource_tracker.register = (
            lambda name, rtype: None
            if rtype == "shared_memory"
            else original_register(name, rtype)
        )
        shm = shared_memory.SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    fields, _ = _layout(n, m, identity)
    views = _views(shm.buf, fields, writeable=False)
    _WORKER = _KernelState(views, params, n, m, identity, shm)
    atexit.register(_detach_worker)


def _detach_worker() -> None:
    """Drop the views (buffer exports) so the mapping closes cleanly."""
    global _WORKER
    state, _WORKER = _WORKER, None
    if state is None:
        return
    state.views.clear()
    try:
        state.shm.close()
    except Exception:
        pass


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


def _run_shard(j: int, lo: int, hi: int, pair_items: tuple | None) -> dict:
    """Pool task: run one shard on this worker's state; return partials.

    When the obs plane is on, the shard's span tree (a ``build/shard``
    root tagged with the worker pid) rides back to the parent as a
    ``"spans"`` columnar partial, drained from this worker's collector
    so persistent workers never accumulate state across levels.
    """
    if os.environ.get(_CRASH_ENV):
        os._exit(13)
    if not obs.enabled():
        return _run_shard_impl(_WORKER, j, lo, hi, pair_items)
    # Forked workers inherit the parent collector's finished records;
    # shipping those back would make the parent re-adopt its own
    # history (duplicating it per shard, compounding per build).  Only
    # records produced by THIS task may ride back, so clear first.
    obs.collector().drain_records()
    with obs.span(
        "build/shard", level=int(j), lo=int(lo), hi=int(hi)
    ) as shard_span:
        out = _run_shard_impl(_WORKER, j, lo, hi, pair_items)
        shard_span.set(clusters=int(hi - lo))
    out["spans"] = obs.collector().drain_records()
    return out


def _run_shard_impl(
    st: _KernelState, j: int, lo: int, hi: int, pair_items: tuple | None
) -> dict:
    """The kernel: level ``j`` for active clusters ``[lo, hi)``.

    ``pair_items`` carries the factored finish announcements received
    by this range's clusters (see :meth:`ParallelBuildEngine.submit_level`).
    All outputs are keyed by ascending cluster id.
    """
    views = st.views
    params = st.params
    n = st.n
    cids = views["active_sorted"][lo:hi]
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

    # --- center coins (deterministic replay of the parent's stream) --
    centers = np.empty(0, dtype=np.int64)
    if j < params.k:
        pref = st.rngf.prefix("center", j)
        p_j = params.center_probability(j, n)
        uniform = pref.uniform
        centers = np.asarray(
            [cid for cid in cids.tolist() if uniform(cid) < p_j],
            dtype=np.int64,
        )

    return {
        "cids": np.ascontiguousarray(cids),
        "live": live,
        "live_off": live_off,
        "fa_o": fa_o,
        "fa_e": fa_e,
        "fa_cnt": np.ascontiguousarray(fa_cnt),
        "fi_o": fi_o,
        "fi_e": fi_e,
        "fi_cnt": np.ascontiguousarray(fi_cnt),
        "deg": np.ascontiguousarray(deg),
        "active_edges": int(act.sum()),
        "stale_edges": int(len(E) - int(act.sum())),
        "centers": centers,
        "fallback": fallback,
    }


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


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class LevelPartial:
    """The deterministic reduce of one level's shard outputs.

    Columnar, keyed by ascending cluster id throughout; identical for
    every shard count because shards are contiguous ``cid`` ranges and
    each column is concatenated in shard order.
    """

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
        the worker-built machine trace for fallback clusters."""
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


def _release(shm, executor, views: dict) -> None:
    """Idempotent teardown of a pool engine, shared by ``close()``, GC,
    and exit."""
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    views.clear()  # drop the buffer exports or the mmap cannot close
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except Exception:
        pass
    _LIVE_SEGMENTS.discard(shm.name)


class ParallelBuildEngine:
    """The level kernel's arrays for one build, and its workers.

    Created lazily by :class:`~repro.core.sampler.SamplerRun` on its
    first level and reused for every later level of the same run (the
    static CSR block is written exactly once per build).  At ``jobs=1``
    the arrays are plain in-process NumPy arrays and :meth:`submit_level`
    runs the kernel in the calling thread: no shared memory, no pool, no
    :mod:`multiprocessing` import.  At ``jobs>1`` they live in one
    shared-memory segment that a persistent worker pool maps read-only;
    the run closes the engine, with a :func:`weakref.finalize` backstop
    so a crashed or abandoned run can never leak the segment.
    """

    def __init__(
        self, network: Network, params: SamplerParams, jobs: int
    ) -> None:
        self._jobs = jobs
        n = network.n
        m = network.m
        eid_row, ep_u, ep_v = network.endpoints_flat()
        identity = eid_row is None
        indptr, inc = network.incidence_csr()
        static = {
            "ep_u": np.frombuffer(ep_u, dtype=np.int64),
            "ep_v": np.frombuffer(ep_v, dtype=np.int64),
            "indptr": np.frombuffer(indptr, dtype=np.int64),
            "inc": np.frombuffer(inc, dtype=np.int64),
        }
        if not identity:
            # Rows are sorted by eid, so the row array itself is the
            # sorted key the kernel binary-searches.
            static["eids"] = np.asarray(network.edge_ids, dtype=np.int64)
        self._shm = self._pool = None
        self._closed = False
        if jobs == 1:
            self._views = dict(
                static,
                root=np.empty(n, dtype=np.int64),
                member_order=np.empty(n, dtype=np.int64),
                roots_sorted=np.empty(n, dtype=np.int64),
                active_sorted=np.empty(n, dtype=np.int64),
                aflags=np.zeros(n, dtype=np.uint8),
            )
            self._state = _KernelState(self._views, params, n, m, identity)
            return
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import shared_memory

        fields, total = _layout(n, m, identity)
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        _LIVE_SEGMENTS.add(self._shm.name)
        self._views = _views(self._shm.buf, fields, writeable=True)
        for name, array in static.items():
            self._views[name][:] = array
        self._pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_attach_worker,
            initargs=(self._shm.name, n, m, identity, params),
        )
        self._finalizer = weakref.finalize(
            self, _release, self._shm, self._pool, self._views
        )

    def close(self) -> None:
        """Shut the pool down and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._finalizer.detach()
            _release(self._shm, self._pool, self._views)

    # ------------------------------------------------------------------
    def submit_level(
        self,
        j: int,
        *,
        root_of: list[int],
        active_sorted: list[int],
        dead_pairs: dict[int, set[int]],
        payloads: dict,
    ) -> list:
        """Write the level state and start the kernel over every active
        cluster; :meth:`collect` finishes the level.

        ``dead_pairs``/``payloads`` are the factored finish
        announcements of earlier levels — receiver -> announcing
        finishers, finisher -> announced edge array — which the kernel
        applies by membership without materializing the per-receiver
        unions.  At ``jobs=1`` the kernel has already run when this
        returns (the partials themselves come back); at ``jobs>1`` the
        shard futures do.
        """
        if self._closed:
            raise SimulationError("level kernel already closed")
        A = len(active_sorted)
        views = self._views
        root = np.asarray(root_of, dtype=np.int64)
        views["root"][:] = root
        member_order = np.argsort(root, kind="stable")
        views["member_order"][:] = member_order
        views["roots_sorted"][:] = root[member_order]
        active_np = np.asarray(active_sorted, dtype=np.int64)
        views["active_sorted"][:A] = active_np
        aflags = views["aflags"]
        aflags[:] = 0
        aflags[active_np] = 1

        shards = [
            (int(chunk[0]), int(chunk[-1]) + 1)
            for chunk in np.array_split(np.arange(A), self._jobs)
            if len(chunk)
        ]
        shard_recv: dict[int, tuple[list, list]] = {}
        for cid, finishers in dead_pairs.items():
            if not finishers or not aflags[cid]:
                continue
            pos = int(np.searchsorted(active_np, cid))
            shard_i = next(i for i, (lo, hi) in enumerate(shards) if pos < hi)
            recv_l, fin_l = shard_recv.setdefault(shard_i, ([], []))
            recv_l.extend([cid] * len(finishers))
            fin_l.extend(finishers)
        pairs_by_shard = {
            shard_i: (
                np.asarray(recv_l, dtype=np.int64),
                np.asarray(fin_l, dtype=np.int64),
                {fid: payloads[fid] for fid in set(fin_l)},
            )
            for shard_i, (recv_l, fin_l) in shard_recv.items()
        }
        if self._pool is None:
            return [
                _run_shard_impl(self._state, j, lo, hi, pairs_by_shard.get(i))
                for i, (lo, hi) in enumerate(shards)
            ]
        return [
            self._pool.submit(_run_shard, j, lo, hi, pairs_by_shard.get(i))
            for i, (lo, hi) in enumerate(shards)
        ]

    def collect(self, pending: list) -> LevelPartial:
        """Finish one :meth:`submit_level` batch and reduce it.

        The reduce concatenates shard columns in shard order — shards
        are contiguous ascending-cid ranges, so the result is identical
        for any shard count.
        """
        if self._pool is None:
            return self._reduce(pending)
        from concurrent.futures.process import BrokenProcessPool

        parts = []
        try:
            for future in pending:
                parts.append(future.result())
        except BrokenProcessPool as exc:
            self.close()
            raise SimulationError(
                "parallel build worker crashed; shared-memory segment "
                "released, rerun with jobs=1 to diagnose"
            ) from exc
        # Adopt worker span partials in shard order (deterministic) and
        # strip them before the columnar reduce sees the dicts.
        for part in parts:
            spans = part.pop("spans", None)
            if spans and obs.enabled():
                obs.collector().adopt(spans)
        return self._reduce(parts)

    def _reduce(self, parts: list[dict]) -> LevelPartial:
        """Concatenate shard partials in shard order (ascending cid)."""

        def cat(key: str) -> np.ndarray:
            arrays = [part[key] for part in parts]
            if not arrays:
                return np.empty(0, dtype=np.int64)
            return np.concatenate(arrays)

        live_off = np.zeros(
            sum(len(part["cids"]) for part in parts) + 1, dtype=np.int64
        )
        cursor = 0
        base = 0
        for part in parts:
            offs = part["live_off"]
            count = len(offs) - 1
            live_off[cursor + 1 : cursor + 1 + count] = offs[1:] + base
            base += int(offs[-1])
            cursor += count
        fallback: dict[int, NodeLevelTrace] = {}
        for part in parts:
            fallback.update(part["fallback"])
        return LevelPartial(
            cids=cat("cids"),
            live=cat("live"),
            live_off=live_off,
            fa_o=cat("fa_o"),
            fa_e=cat("fa_e"),
            fa_cnt=cat("fa_cnt"),
            fi_o=cat("fi_o"),
            fi_e=cat("fi_e"),
            fi_cnt=cat("fi_cnt"),
            deg=cat("deg"),
            active_edges=sum(part["active_edges"] for part in parts),
            stale_edges=sum(part["stale_edges"] for part in parts),
            centers=cat("centers"),
            fallback=fallback,
        )
