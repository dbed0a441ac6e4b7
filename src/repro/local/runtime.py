"""The synchronous round engine.

Semantics (fully synchronous LOCAL model):

* all nodes run in lockstep; a message sent in round ``r`` is delivered
  at the start of round ``r + 1``;
* message size is unbounded and not metered; the *count* of messages is
  metered exactly — one per ``Context.send`` call that a fault plan
  does not drop.  A message the plan erases is metered (and counted as
  ``corrupted``) but reaches no receiver.  Under a fixed round budget,
  sends queued in the final round have no delivery round left; they
  are discarded unmetered, so ``total`` always equals the number of
  messages received plus the number erased;
* the run ends when every non-reactive program has halted and no
  messages are in flight, or when an optional fixed round budget is
  reached.

The engine is deterministic: nodes are stepped in increasing id order
and per-node randomness comes from streams derived off the run seed.

The loop steps only the *active set* each round (DESIGN.md §3.6) —
nodes with a pending inbox, nodes whose declared wake round arrived,
and nodes that never opted into quiescence — using per-round wake
buckets and a live non-halted counter.  For programs that honour the
:class:`~repro.local.node.Context` sleep contract this is
observationally identical to stepping every non-halted node every
round, which is what the seed's dense loop did; that loop is the
contract's oracle and lives in ``tests/reference_runtime.py``, which
holds the two :class:`RunReport`-identical.

A homogeneous population whose program class declares
:class:`~repro.local.node.HybridPlane`\\ s has its plane-tagged messages
serviced during delivery instead of by stepping the receivers
(DESIGN.md §3.10).
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable

from repro import obs
from repro.errors import SimulationError
from repro.local.faults import FaultPlan
from repro.local.message import Inbound, Outbound
from repro.local.metrics import MessageStats, RunReport
from repro.local.network import Network
from repro.local.node import Context, HybridPlane, NodeProgram
from repro.rng import RngFactory

__all__ = ["Runtime", "ProgramFactory"]

ProgramFactory = Callable[[int], NodeProgram]


def _merge_sorted(a: list[int], b: list[int]) -> list[int]:
    """Merge two disjoint ascending lists into one ascending list."""
    if not a:
        return b
    if not b:
        return a
    merged: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:] if i < len_a else b[j:])
    return merged


class Runtime:
    """Drives one distributed execution over a :class:`Network`."""

    def __init__(
        self,
        network: Network,
        program_factory: ProgramFactory,
        *,
        seed: int = 0,
        max_rounds: int = 100_000,
        fixed_rounds: int | None = None,
        n_hint: int | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._network = network
        self._seed = seed
        self._max_rounds = max_rounds
        self._fixed_rounds = fixed_rounds
        self._n_hint = n_hint if n_hint is not None else network.n
        self._faults = faults or FaultPlan.none()
        rng_factory = RngFactory(seed)
        node_rng = rng_factory.prefix("node")
        self._programs: list[NodeProgram] = []
        self._contexts: list[Context] = []
        eid_row, ep_u, ep_v = network.endpoints_flat()
        for node in network.nodes():
            eids = network.incident(node)
            neighbor_by_eid: dict[int, int] = {}
            for eid in eids:
                row = eid if eid_row is None else eid_row[eid]
                u = ep_u[row]
                neighbor_by_eid[eid] = ep_v[row] if u == node else u
            ctx = Context(
                node=node,
                eids=eids,
                neighbor_by_eid=neighbor_by_eid,
                knowledge=network.knowledge,
                n_hint=self._n_hint,
                # Deferred: the stream hash is paid only if the program
                # actually draws from ctx.rng (same stream either way).
                rng=lambda node=node: node_rng.stream(node),
            )
            self._contexts.append(ctx)
            self._programs.append(program_factory(node))
        # Routing table: eid -> (u, v, port at u, port at v), computed once
        # so delivery never re-derives endpoints or ports per message.
        self._route: dict[int, tuple[int, int, int, int]] = {}
        contexts = self._contexts
        for eid in network.edge_ids:
            row = eid if eid_row is None else eid_row[eid]
            u = ep_u[row]
            v = ep_v[row]
            self._route[eid] = (
                u,
                v,
                contexts[u]._port_of(eid),
                contexts[v]._port_of(eid),
            )
        # Hybrid rounds (DESIGN.md §3.10): a homogeneous population
        # whose program class declares HybridPlanes gets its
        # plane-tagged messages serviced during delivery instead of by
        # stepping the receivers.
        self._planes: dict[str, HybridPlane] | None = None
        if self._programs:
            cls = type(self._programs[0])
            planes = getattr(cls, "hybrid_planes", None)
            if planes and all(type(p) is cls for p in self._programs):
                self._planes = planes

    @property
    def network(self) -> Network:
        return self._network

    def run(self) -> RunReport:
        if not obs.enabled():
            return self._run_active()
        with obs.span("runtime/run", n=self._network.n) as run_span:
            report = self._run_active()
            run_span.set(
                rounds=report.rounds,
                messages=report.messages.total,
                dropped=report.messages.dropped,
                corrupted=report.messages.corrupted,
                halted=report.halted,
            )
        return report

    # ------------------------------------------------------------------
    # step only pending-inbox / due-wake / running nodes
    # ------------------------------------------------------------------
    def _run_active(self) -> RunReport:
        stats = MessageStats()
        network = self._network
        n = network.n
        fixed = self._fixed_rounds
        contexts = self._contexts
        programs = self._programs
        in_flight: list[Outbound] = []

        # Round 0: on_start at every node.
        stats.open_round()
        for node in network.nodes():
            programs[node].on_start(contexts[node])
        if fixed == 0:
            self._discard_undelivered()
        else:
            in_flight = self._collect(stats, round_index=0)

        # Classify after round 0: `running` nodes are stepped every round
        # (they never opted into quiescence), sleepers sit in the wake
        # heap, and `live` counts non-halted nodes so termination is O(1)
        # instead of a per-round scan of every context.
        live = 0
        running: set[int] = set()
        # Wake entries live in per-round buckets rather than one global
        # heap: the loop visits every round index exactly once in order,
        # so popping the current bucket replaces ~2 log n heap ops per
        # wake with a dict pop.  Lazy deletion: next_wake[v] names v's
        # one live entry; entries in other buckets are stale and skipped.
        wake_buckets: dict[int, list[int]] = {}
        next_wake: list[int | None] = [None] * n
        for node in network.nodes():
            ctx = contexts[node]
            if ctx._halted:
                continue
            live += 1
            if ctx._sleeping:
                nxt = ctx._next_wake_after(0)
                if nxt is not None:
                    bucket = wake_buckets.get(nxt)
                    if bucket is None:
                        bucket = wake_buckets[nxt] = []
                    bucket.append(node)
                    next_wake[node] = nxt
            else:
                running.add(node)
        # `running` changes rarely (a program opts in or out of
        # quiescence, or halts), so its sorted form is cached and the
        # per-round step list is a linear merge with the — disjoint —
        # sorted extras instead of an O(n log n) sort per round.
        running_sorted = sorted(running)
        running_dirty = False

        rounds = 0
        route = self._route
        planes = self._planes
        while True:
            if fixed is not None:
                if rounds >= fixed:
                    break
            elif not in_flight and live == 0:
                break
            if rounds >= self._max_rounds:
                raise SimulationError(
                    f"exceeded max_rounds={self._max_rounds} "
                    f"({stats.total} messages so far)"
                )
            rounds += 1
            stats.open_round()
            inboxes: dict[int, list[Inbound]] = {}
            responders: "set[int] | tuple" = ()
            if planes is None:
                for eid, sender, payload, tag in in_flight:
                    u, v, port_u, port_v = route[eid]
                    if sender == u:
                        receiver, port = v, port_v
                    else:
                        receiver, port = u, port_u
                    box = inboxes.get(receiver)
                    if box is None:
                        box = inboxes[receiver] = []
                    box.append(Inbound(port, payload, tag))
            else:
                responders = set()
                # Hybrid delivery: plane-tagged messages are absorbed /
                # answered right here, in in-flight order — the same
                # order the receiver's dispatch loop would see — and
                # never reach an inbox.  Everything happens *before* any
                # node steps, exactly where the receiver's own
                # dispatch-before-act places it, and eligibility mirrors
                # the halted/reactive stepping guard below.
                planes_get = planes.get
                for eid, sender, payload, tag in in_flight:
                    u, v, port_u, port_v = route[eid]
                    if sender == u:
                        receiver, port = v, port_v
                    else:
                        receiver, port = u, port_u
                    plane = planes_get(tag)
                    if plane is not None:
                        ctx = contexts[receiver]
                        if ctx._halted:
                            if not ctx._reactive:
                                continue
                            may_absorb = plane.absorb_reactive
                            may_respond = plane.respond_reactive
                        else:
                            may_absorb = may_respond = True
                        attr = plane.absorb_into
                        if attr is not None and may_absorb:
                            kind = plane.entry
                            if kind == "port_first":
                                item = (port,) + payload
                            elif kind == "port_last":
                                item = payload + (port,)
                            else:
                                item = tuple(payload[0])
                            # getattr per message: handlers may rebind
                            # the buffer between rounds (level resets).
                            getattr(programs[receiver], attr).append(item)
                        if plane.respond_tag is not None and may_respond:
                            prog = programs[receiver]
                            reply = tuple(
                                [getattr(prog, a) for a in plane.respond_attrs]
                            )
                            # The reply goes back over the same edge, so
                            # the outbox entry reuses the known eid.
                            ctx._outbox.append(
                                (eid, receiver, reply, plane.respond_tag)
                            )
                            responders.add(receiver)
                        continue
                    box = inboxes.get(receiver)
                    if box is None:
                        box = inboxes[receiver] = []
                    box.append(Inbound(port, payload, tag))
            if running:
                extra = {node for node in inboxes if node not in running}
            else:
                extra = set(inboxes)
            due = wake_buckets.pop(rounds, None)
            if due is not None:
                for node in due:
                    if next_wake[node] == rounds:
                        next_wake[node] = None
                        if node not in running:
                            extra.add(node)
            if running_dirty:
                running_sorted = sorted(running)
                running_dirty = False
            stepped = (
                _merge_sorted(running_sorted, sorted(extra))
                if extra
                else running_sorted
            )
            for node in stepped:
                ctx = contexts[node]
                inbox = inboxes.get(node) or ()
                # Same eligibility guard as the dense loop: halted nodes
                # run only reactively, and only on a non-empty inbox —
                # and a reactive step cannot un-halt, so no bookkeeping.
                if ctx._halted:
                    if ctx._reactive and inbox:
                        ctx._round = rounds
                        programs[node].on_round(ctx, inbox)
                    continue
                ctx._round = rounds
                programs[node].on_round(ctx, inbox)
                if ctx._halted:
                    live -= 1
                    if node in running:
                        running.discard(node)
                        running_dirty = True
                    next_wake[node] = None
                elif ctx._sleeping:
                    if node in running:
                        running.discard(node)
                        running_dirty = True
                    # A sleeper with a still-pending heap entry and no
                    # new declarations needs no queue rescan.
                    if ctx._wake_dirty or next_wake[node] is None:
                        ctx._wake_dirty = False
                        nxt = ctx._next_wake_after(rounds)
                        if nxt is not None and next_wake[node] != nxt:
                            bucket = wake_buckets.get(nxt)
                            if bucket is None:
                                bucket = wake_buckets[nxt] = []
                            bucket.append(node)
                            next_wake[node] = nxt
                elif node not in running:
                    running.add(node)
                    running_dirty = True
                    next_wake[node] = None
            if fixed is not None and rounds >= fixed:
                self._discard_undelivered()
                in_flight = []
                break
            # Only stepped nodes can have queued sends, and `stepped` is
            # ascending, so collection order matches the dense loop.
            # Plane responders that were not stepped hold queued replies
            # too; merging them in keeps the drain order ascending.
            drain = stepped
            if responders:
                resp_only = sorted(
                    node
                    for node in responders
                    if node not in running and node not in extra
                )
                if resp_only:
                    drain = _merge_sorted(stepped, resp_only)
            in_flight = self._collect(stats, round_index=rounds, nodes=drain)

        outputs = {
            node: programs[node].output() for node in network.nodes()
        }
        return RunReport(
            rounds=rounds,
            messages=stats,
            outputs=outputs,
            halted=live == 0,
        )

    # ------------------------------------------------------------------
    def _collect(
        self,
        stats: MessageStats,
        round_index: int,
        nodes: Iterable[int] | None = None,
    ) -> list[Outbound]:
        """Drain one round's outboxes (of ``nodes``, ascending, or of
        every node), apply the fault plan and meter the round in bulk.

        Returns the messages to deliver: an erased message is metered
        and counted as ``corrupted`` but is not among them.
        """
        queued: list[Outbound] = []
        all_contexts = self._contexts
        contexts = (
            all_contexts
            if nodes is None
            else [all_contexts[node] for node in nodes]
        )
        for ctx in contexts:
            if ctx._outbox:
                queued.extend(ctx._outbox)
                ctx._outbox = []
        faults = self._faults
        if faults.is_noop or not queued:
            stats.record_batch(queued)
            return queued
        dropped, erased = faults.fates(
            round_index, [msg[0] for msg in queued], [msg[1] for msg in queued]
        )
        stats.dropped += int(dropped.sum())
        stats.corrupted += int(erased.sum())
        stats.record_batch(list(compress(queued, (~dropped).tolist())))
        return list(compress(queued, (~(dropped | erased)).tolist()))

    def _discard_undelivered(self) -> None:
        """Drop queued sends that have no delivery round left (unmetered)."""
        for ctx in self._contexts:
            ctx._outbox = []


def run_program(
    network: Network,
    program_factory: ProgramFactory,
    *,
    seed: int = 0,
    max_rounds: int = 100_000,
    fixed_rounds: int | None = None,
    n_hint: int | None = None,
    faults: FaultPlan | None = None,
) -> RunReport:
    """Convenience wrapper: build a :class:`Runtime` and run it."""
    runtime = Runtime(
        network,
        program_factory,
        seed=seed,
        max_rounds=max_rounds,
        fixed_rounds=fixed_rounds,
        n_hint=n_hint,
        faults=faults,
    )
    return runtime.run()
