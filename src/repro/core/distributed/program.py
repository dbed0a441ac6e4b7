"""Per-node program of the distributed ``Sampler``.

Every physical node runs one :class:`SamplerProgram`.  Cluster-level
actions (the virtual nodes of ``G_j``) are realized by tree sessions:

* the *leader* of a cluster is its tree root (whose physical id equals
  the cluster id by construction) and is the only member that holds the
  cluster's :class:`~repro.core.trials.TrialMachine`;
* convergecasts (GATHER / COLLECT / CAND) flow member data up the tree:
  each member sends exactly one message to its parent once all of its
  children reported;
* broadcasts (SCATTER / PLAN / STATUS / JOIN) flow root decisions down.

Query edges are genuine point-to-point messages over the physical graph;
any node — including nodes whose cluster already left the hierarchy —
answers a ``query`` reactively with its stored ``(cid, active, edge
list)``, which is exactly the "u reports the IDs of all the edges
touching u" mechanic of Section 1.3.

The program is driven by the global :class:`~repro.core.distributed.schedule.Schedule`;
nodes never coordinate control flow with messages.  All cluster
randomness comes from streams keyed by ``(purpose, level, cluster id)``
off ``params.seed``, matching the centralized driver draw for draw.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Sequence

from repro.core.distributed.schedule import Phase, PhaseKind, Schedule
from repro.core.params import SamplerParams
from repro.core.trials import QueryResult, TrialMachine
from repro.errors import ProtocolError
from repro.local.knowledge import Knowledge
from repro.local.message import Inbound
from repro.local.node import Context, HybridPlane, NodeProgram
from repro.rng import RngFactory, RngPrefix

__all__ = ["SamplerProgram"]

# Shared pre-hashed derivation prefixes, one pair per root seed: every
# leader derivation is ("trials"|"center", level, cid) off params.seed,
# so 2n program instances can share two RngPrefix objects instead of
# re-hashing the purpose part on each draw.  Bit-identical to the
# RngFactory derivations (the RngPrefix contract, guarded by test_rng);
# the cache holds one tiny entry per distinct seed seen in-process.
_PREFIX_CACHE: dict[int, tuple[RngPrefix, RngPrefix]] = {}


def _seed_prefixes(seed: int) -> tuple[RngPrefix, RngPrefix]:
    pair = _PREFIX_CACHE.get(seed)
    if pair is None:
        factory = RngFactory(seed)
        pair = (factory.prefix("trials"), factory.prefix("center"))
        _PREFIX_CACHE[seed] = pair
    return pair

_STAY = "stay"
_JOIN = "join"
_FINISH = "finish"
_FINAL = "final"


class SamplerProgram(NodeProgram):
    """State machine of one physical node across all levels."""

    # Slotted: ~25 attributes are read on every one of the O(n * 3^k h)
    # steps, so skipping the per-instance dict is a measurable win on
    # the spanner_dist kernels.
    __slots__ = (
        "_node",
        "_params",
        "_schedule",
        "_trials_rng",
        "_center_rng",
        "_parent",
        "_children",
        "_cid",
        "_finished",
        "_stored_cid",
        "_stored_active",
        "_stored_elist",
        "_dead_payloads",
        "_machine",
        "_conv",
        "_gathered",
        "_plan",
        "_trial_active",
        "_responses",
        "_center",
        "_f_items",
        "_cands",
        "_decision",
        "_pending_finish",
        "_phase",
        "_ports",
        "_archive",
    )

    # Hybrid rounds (DESIGN.md §3.10): the point-to-point tags that
    # dominate every run — the query/response exchange and the F-edge
    # status handshake — have delivery-time effects of fixed shape, so
    # the vector engine services them during delivery without stepping
    # the receivers.  Each declaration mirrors the matching `_dispatch`
    # branch exactly; the schedule guarantees the arrival rounds'
    # phase actions are no-ops for receivers woken only by these
    # messages (queries land at RESPONSE, status_reqs at STATUS_REP —
    # both pure-delivery phases), and `_handle_reactive`'s rule — a
    # finished node answers queries and absorbs finish payloads, nothing
    # else — is carried by the `*_reactive` flags.
    hybrid_planes = {
        "query": HybridPlane(
            respond_tag="response",
            respond_attrs=("_stored_cid", "_stored_active", "_stored_elist"),
            respond_reactive=True,
        ),
        "response": HybridPlane(absorb_into="_responses", entry="port_first"),
        "status_req": HybridPlane(
            absorb_into="_cands",
            entry="port_last",
            respond_tag="status_rep",
            respond_attrs=("_stored_cid", "_center"),
        ),
        "status_rep": HybridPlane(absorb_into="_cands", entry="port_last"),
        "finish": HybridPlane(
            absorb_into="_dead_payloads", entry="payload0", absorb_reactive=True
        ),
    }

    def __init__(self, node: int, params: SamplerParams, schedule: Schedule) -> None:
        self._node = node
        self._params = params
        self._schedule = schedule
        self._trials_rng, self._center_rng = _seed_prefixes(params.seed)
        # tree / cluster state
        self._parent: int | None = None
        self._children: list[int] = []
        self._cid = node
        self._finished = False
        # stored cluster knowledge (used to answer queries)
        self._stored_cid = node
        self._stored_active = True
        self._stored_elist: tuple[int, ...] = ()
        self._dead_payloads: list[tuple[int, ...]] = []
        # per-level state
        self._machine: TrialMachine | None = None
        self._conv: list | None = None  # [tag, buf, pending, sent]
        self._gathered: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] | None = None
        self._plan: frozenset[int] = frozenset()
        self._trial_active = False
        self._responses: list[tuple[int, int, bool, tuple[int, ...]]] = []
        self._center = False
        self._f_items: tuple[tuple[int, int], ...] = ()
        self._cands: list[tuple[int, bool, int]] = []
        self._decision: tuple = ()
        self._pending_finish = False
        # bookkeeping
        self._phase: Phase | None = None
        self._ports: frozenset[int] = frozenset()
        self._archive: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    # NodeProgram API
    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        if ctx.knowledge is Knowledge.KT0:
            raise ProtocolError("Sampler requires unique edge IDs (not KT0)")
        self._ports = frozenset(ctx.ports)
        # Exact wake rounds derived from the global schedule (DESIGN.md
        # §3.6): unconditionally a node acts only at GATHER starts and
        # END.  Leader rounds are registered at each GATHER once
        # leadership for the level is known, and trial / status / join
        # follow-ups are registered by the handler of the broadcast that
        # makes them relevant.  Everything else is message-driven, and
        # an inbound message wakes a sleeping node on its own.
        ctx.wake_me_at(self._schedule.skeleton_wake_rounds())

    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        if self._finished:
            for msg in inbox:
                self._handle_reactive(ctx, msg)
            return
        phase, rel = self._schedule.phase_at(ctx.round)
        self._phase = phase
        for msg in inbox:
            self._dispatch(ctx, msg)
        self._act(ctx, phase, rel)

    def output(self) -> dict[str, Any]:
        return {
            "node": self._node,
            "records": list(self._archive),
            "final_parent": self._parent,
            "final_cid": self._cid,
            "finished": self._finished,
        }

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def _handle_reactive(self, ctx: Context, msg: Inbound) -> None:
        """Finished nodes: answer queries, absorb finish payloads."""
        if msg.tag == "query":
            self._answer_query(ctx, msg.port)
        elif msg.tag == "finish":
            self._dead_payloads.append(tuple(msg.payload[0]))
        # everything else is stale traffic for a finished node; ignore.

    def _dispatch(self, ctx: Context, msg: Inbound) -> None:
        # Tags ordered by measured frequency (query/response and the
        # status handshake dominate every run) so the common messages
        # exit the chain after one or two comparisons.
        tag = msg.tag
        if tag == "query":
            self._answer_query(ctx, msg.port)
        elif tag == "response":
            cid, active, elist = msg.payload
            self._responses.append((msg.port, cid, active, tuple(elist)))
        elif tag == "status_req":
            nbr_cid, nbr_center = msg.payload
            self._cands.append((nbr_cid, nbr_center, msg.port))
            ctx.send(msg.port, (self._stored_cid, self._center), tag="status_rep")
        elif tag == "status_rep":
            nbr_cid, nbr_center = msg.payload
            self._cands.append((nbr_cid, nbr_center, msg.port))
        elif tag == "gather" or tag == "collect" or tag == "cand":
            self._conv_receive(ctx, tag, msg.payload)
        elif tag == "scatter":
            cid, elist = msg.payload
            self._stored_cid = cid
            self._stored_active = True
            self._stored_elist = tuple(elist)
            self._forward(ctx, msg.payload, "scatter")
        elif tag == "plan":
            trial, eids = msg.payload
            self._plan = frozenset(eids)
            self._trial_active = True
            self._responses = []
            self._register_trial_wakes(ctx, trial)
            self._forward(ctx, msg.payload, "plan")
        elif tag == "status":
            center, cid, f_items = msg.payload
            self._center = center
            self._f_items = tuple(tuple(item) for item in f_items)
            self._register_status_wakes(ctx)
            self._forward(ctx, msg.payload, "status")
        elif tag == "join":
            self._decision = tuple(msg.payload)
            if self._decision[0] == _FINISH:
                self._pending_finish = True
            self._register_decision_wakes(ctx)
            self._forward(ctx, msg.payload, "join")
        elif tag == "attach":
            self._children.append(msg.port)
        elif tag == "reroot":
            self._apply_reroot(ctx, msg.port, msg.payload)
        elif tag == "finish":
            self._dead_payloads.append(tuple(msg.payload[0]))
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown tag {tag!r} at node {self._node}")

    def _answer_query(self, ctx: Context, port: int) -> None:
        ctx.send(
            port,
            (self._stored_cid, self._stored_active, self._stored_elist),
            tag="response",
        )

    def _forward(self, ctx: Context, payload: Any, tag: str) -> None:
        for child in self._children:
            ctx.send(child, payload, tag=tag)

    def _apply_reroot(self, ctx: Context, port: int, payload: Any) -> None:
        (new_cid,) = payload
        old_adjacent = list(self._children)
        if self._parent is not None:
            old_adjacent.append(self._parent)
        new_children = [eid for eid in old_adjacent if eid != port]
        for child in new_children:
            ctx.send(child, payload, tag="reroot")
        self._parent = port
        self._children = new_children
        self._cid = new_cid

    # ------------------------------------------------------------------
    # convergecast plumbing
    # ------------------------------------------------------------------
    # Conv state is a bare [tag, buf, pending, sent] list — this is the
    # protocol's inner loop, so no dict hashing and no defensive buffer
    # copies: callers hand `_conv_open` a fresh list, and after the
    # single upward send a member never touches its buffer again.
    def _conv_open(self, ctx: Context, tag: str, own: list) -> None:
        conv = self._conv = [tag, own, len(self._children), False]
        if conv[2] == 0:
            self._conv_send(ctx, conv)

    def _conv_receive(self, ctx: Context, tag: str, payload: Any) -> None:
        conv = self._conv
        if conv is None or conv[0] != tag:
            raise ProtocolError(
                f"unexpected {tag} convergecast at node {self._node}"
            )
        conv[1].extend(payload)
        conv[2] -= 1
        if conv[2] == 0 and not conv[3]:
            self._conv_send(ctx, conv)

    def _conv_send(self, ctx: Context, conv: list) -> None:
        conv[3] = True
        if self._parent is not None:
            ctx.send(self._parent, conv[1], tag=conv[0])
        else:
            self._conv_complete(ctx, conv[0], conv[1])

    def _conv_complete(self, ctx: Context, tag: str, buf: list) -> None:
        if tag == "gather":
            self._gathered = [
                (tuple(ports), tuple(tuple(d) for d in dead)) for ports, dead in buf
            ]
        elif tag == "collect":
            machine = self._require_machine()
            machine.deliver(
                [
                    QueryResult(eid=eid, neighbor=cid, neighbor_edges=elist, active=active)
                    for eid, cid, active, elist in buf
                ]
            )
        elif tag == "cand":
            self._cands = [tuple(c) for c in buf]

    # ------------------------------------------------------------------
    # phase actions
    # ------------------------------------------------------------------
    def _act(self, ctx: Context, phase: Phase, rel: int) -> None:
        # Checked in step-frequency order: trial rounds dominate every
        # run, and RESPONSE / STATUS_REP rounds are pure delivery (all
        # work happens in _dispatch), so they exit immediately.
        kind = phase.kind
        if kind is PhaseKind.RESPONSE or kind is PhaseKind.STATUS_REP:
            return
        if kind is PhaseKind.QUERY:
            if rel == 0 and self._trial_active:
                for eid in sorted(self._plan & self._ports):
                    ctx.send(eid, (self._stored_cid,), tag="query")
            return
        if kind is PhaseKind.COLLECT:
            if rel == 0 and self._trial_active:
                self._conv_open(ctx, "collect", list(self._responses))
                # The trial is over for this node: clearing here (instead
                # of at the next PLAN start, as the pre-active-set code
                # did) is observationally identical — nothing reads the
                # trial state between COLLECT and the next PLAN — and it
                # removes the last reason to wake every node at every
                # PLAN start.
                self._trial_active = False
                self._plan = frozenset()
                self._responses = []
            return
        if kind is PhaseKind.GATHER:
            if rel == 0:
                self._level_reset()
                if self._is_leader():
                    # Leadership is stable within a level (reroots happen
                    # at its very end), so the level's leader rounds are
                    # known exactly here.
                    ctx.wake_me_at(self._schedule.leader_wake_rounds(phase.level))
                entry = (tuple(self._ports), tuple(tuple(d) for d in self._dead_payloads))
                self._conv_open(ctx, "gather", [entry])
        elif kind is PhaseKind.SCATTER:
            if rel == 0 and self._is_leader():
                self._leader_scatter(ctx, phase.level)
        elif kind is PhaseKind.PLAN:
            if rel == 0 and self._is_leader():
                self._leader_plan(ctx, phase.trial)
        elif kind is PhaseKind.STATUS:
            if rel == 0 and self._is_leader():
                self._leader_status(ctx, phase.level)
        elif kind is PhaseKind.STATUS_REQ:
            if rel == 0:
                for _nbr, eid in self._f_items:
                    if eid in self._ports:
                        ctx.send(eid, (self._stored_cid, self._center), tag="status_req")
        elif kind is PhaseKind.CAND:
            if rel == 0 and not self._center:
                self._conv_open(ctx, "cand", list(self._cands))
        elif kind is PhaseKind.JOIN:
            if rel == 0 and self._is_leader():
                self._leader_join(ctx, phase.level)
        elif kind is PhaseKind.ATTACH:
            if rel == 0 and self._decision and self._decision[0] == _JOIN:
                eid = self._decision[2]
                if eid in self._ports:
                    ctx.send(eid, None, tag="attach")
        elif kind is PhaseKind.REROOT:
            if rel == 0 and self._decision and self._decision[0] == _JOIN:
                _verb, new_cid, eid = self._decision
                if eid in self._ports:
                    self._initiate_reroot(ctx, new_cid, eid)
        elif kind is PhaseKind.FINISH:
            if rel == 0 and self._pending_finish:
                for _nbr, eid in self._f_items:
                    if eid in self._ports:
                        ctx.send(eid, (self._stored_elist,), tag="finish")
                self._finished = True
                self._stored_active = False
                ctx.halt(reactive=True)
        elif kind is PhaseKind.END:
            if self._is_leader():
                self._archive_record(phase.level, decision=(_FINAL,))
            ctx.halt()

    # ------------------------------------------------------------------
    # leader logic
    # ------------------------------------------------------------------
    def _is_leader(self) -> bool:
        return self._parent is None and not self._finished

    def _require_machine(self) -> TrialMachine:
        if self._machine is None:
            raise ProtocolError(f"node {self._node} has no trial machine")
        return self._machine

    def _level_reset(self) -> None:
        self._conv = None
        self._gathered = None
        self._plan = frozenset()
        self._trial_active = False
        self._responses = []
        self._center = False
        self._f_items = ()
        self._cands = []
        self._decision = ()
        self._pending_finish = False

    def _leader_scatter(self, ctx: Context, level: int) -> None:
        if self._gathered is None:
            raise ProtocolError(f"leader {self._node} missing gather data")
        counts: Counter[int] = Counter()
        dead: set[int] = set()
        for ports, dead_lists in self._gathered:
            counts.update(ports)
            for payload in dead_lists:
                dead.update(payload)
        live = tuple(sorted(e for e, c in counts.items() if c == 1 and e not in dead))
        self._machine = TrialMachine(
            vid=self._cid,
            level=level,
            incident_edges=live,
            params=self._params,
            n=ctx.n_hint,
            rng=self._trials_rng.stream(level, self._cid),
        )
        self._stored_cid = self._cid
        self._stored_active = True
        self._stored_elist = live
        self._register_first_plan_wake(ctx)
        self._forward(ctx, (self._cid, live), "scatter")

    def _leader_plan(self, ctx: Context, trial: int) -> None:
        machine = self._require_machine()
        if not machine.wants_trial():
            return
        eids = machine.begin_trial()
        self._plan = frozenset(eids)
        self._trial_active = True
        self._responses = []
        self._register_trial_wakes(ctx, trial)
        # Wake at the next PLAN start *unconditionally*: in a healthy run
        # wants_trial() decides there (and a "no" ends the chain); in a
        # faulty run with a stranded collect convergecast the call raises
        # exactly where the dense loop's poll would.
        if trial < self._params.trials:
            ctx.sleep_until(
                self._schedule.start_of(PhaseKind.PLAN, self._phase.level, trial + 1)
            )
        self._forward(ctx, (trial, tuple(eids)), "plan")

    def _leader_status(self, ctx: Context, level: int) -> None:
        machine = self._require_machine()
        p_j = self._params.center_probability(level, ctx.n_hint)
        self._center = self._center_rng.uniform(level, self._cid) < p_j
        self._f_items = tuple(sorted(machine.f_active.items()))
        self._register_status_wakes(ctx)
        payload = (self._center, self._cid, self._f_items)
        self._forward(ctx, payload, "status")

    def _leader_join(self, ctx: Context, level: int) -> None:
        if self._center:
            decision: tuple = (_STAY,)
        else:
            center_cands = [(cid, eid) for cid, is_center, eid in self._cands if is_center]
            if center_cands:
                chosen = min(cid for cid, _eid in center_cands)
                eid = min(eid for cid, eid in center_cands if cid == chosen)
                decision = (_JOIN, chosen, eid)
            else:
                decision = (_FINISH,)
        self._archive_record(level, decision=decision)
        self._decision = decision
        if decision[0] == _FINISH:
            self._pending_finish = True
        self._register_decision_wakes(ctx)
        self._forward(ctx, decision, "join")

    # ------------------------------------------------------------------
    # schedule-derived wake registration (active-set scheduling)
    # ------------------------------------------------------------------
    def _register_trial_wakes(self, ctx: Context, trial: int) -> None:
        """A live trial means acting at its QUERY and COLLECT starts.

        The QUERY wake exists only to send queries over owned plan
        edges, so a member holding none skips it — its QUERY step is a
        no-op under dense stepping too.  COLLECT is unconditional: every
        member opens the collect convergecast there.
        """
        both, collect_only = self._schedule.trial_wake_rounds(
            self._phase.level, trial
        )
        if self._plan & self._ports:
            ctx.wake_me_at(both)
        else:
            ctx.wake_me_at(collect_only)

    def _register_first_plan_wake(self, ctx: Context) -> None:
        """Leader only, at SCATTER: wake at PLAN of trial 1 iff a trial
        is due.  ``wants_trial`` is monotone within a level (the target
        set grows, the pool shrinks, the trial count rises), so a
        machine that declines here would decline at PLAN 1 as well —
        skipping the wake is exact.  Subsequent PLAN wakes are chained
        by :meth:`_leader_plan` itself."""
        machine = self._machine
        if machine is None or not machine.wants_trial():
            return
        ctx.sleep_until(
            self._schedule.start_of(PhaseKind.PLAN, self._phase.level, 1)
        )

    def _register_status_wakes(self, ctx: Context) -> None:
        """Status knowledge implies one spontaneous follow-up: probing
        owned F-edges at STATUS_REQ.  A node without owned F-items is a
        no-op there under dense stepping too, so no wake is needed; the
        CAND start sits in the static skeleton because nodes act there
        on their *default* state as well."""
        if any(eid in self._ports for _nbr, eid in self._f_items):
            ctx.sleep_until(
                self._schedule.start_of(PhaseKind.STATUS_REQ, self._phase.level)
            )

    def _register_decision_wakes(self, ctx: Context) -> None:
        """A join decision wakes the join-edge owner at ATTACH and
        REROOT; a finish decision wakes the whole cluster at FINISH."""
        level = self._phase.level
        sched = self._schedule
        decision = self._decision
        if decision[0] == _JOIN:
            if decision[2] in self._ports:
                ctx.wake_me_at(
                    (
                        sched.start_of(PhaseKind.ATTACH, level),
                        sched.start_of(PhaseKind.REROOT, level),
                    )
                )
        elif decision[0] == _FINISH:
            ctx.wake_me_at((sched.start_of(PhaseKind.FINISH, level),))

    def _initiate_reroot(self, ctx: Context, new_cid: int, join_eid: int) -> None:
        old_adjacent = list(self._children)
        if self._parent is not None:
            old_adjacent.append(self._parent)
        for eid in old_adjacent:
            ctx.send(eid, (new_cid,), tag="reroot")
        self._parent = join_eid
        self._children = old_adjacent
        self._cid = new_cid

    def _archive_record(self, level: int, decision: tuple) -> None:
        machine = self._require_machine()
        record = {
            "level": level,
            "cid": self._cid,
            "center": self._center,
            "decision": decision[0],
            "join_to": decision[1] if decision[0] == _JOIN else None,
            "join_eid": decision[2] if decision[0] == _JOIN else None,
            "label": machine.label,
            "f_active": machine.f_active,
            "f_inactive": machine.f_inactive,
            "trials": machine.trials_run,
            "stats": machine.stats,
            "target": machine.target,
            "budget": machine.query_budget,
            "pool_initial": len(self._stored_elist),
            "pool_final": machine.pool_size,
        }
        self._archive.append(record)
