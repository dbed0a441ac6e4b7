"""Array-native round engine: populations stepped as NumPy kernels.

The per-node :class:`~repro.local.runtime.Runtime` interprets one
``NodeProgram`` per node and pays Python dispatch for every message and
every step.  For *homogeneous* populations — every node runs the same
program, differing only in per-node state — a synchronous round is
data-parallel by construction: deliver all messages at once, step all
nodes at once.  This module provides that execution path.

Four pieces (DESIGN.md §3.10):

* :class:`VectorProgram` — the population protocol: declare state as
  arrays, emit one :class:`PopulationOutbox` per round, digest one
  :class:`PopulationInbox` (a CSR view of the round's deliveries,
  segmented by receiver in exactly the reference delivery order).
* :class:`VectorRuntime` — the driver.  Its loop is a line-for-line
  mirror of the per-node ``Runtime``: round 0 is ``on_start``; sends of
  round ``r`` are delivered at the start of ``r + 1``; under
  ``fixed_rounds`` the final round's sends are discarded unmetered
  (``total == delivered`` always); the ``max_rounds`` error text is
  byte-identical.  Fault plans act through the same
  :meth:`~repro.local.faults.FaultPlan.fates` masks the per-node
  interpreter asks for, so both engines drop and erase the same
  messages and meter them alike.
* :class:`DeliveryPlan` — one network's routing tables, built once
  per network: the receiver of every incidence-CSR position and the
  inbox of a round in which every node broadcasts, so such a round is
  delivered without sorting and no broadcast looks its edges up.
* the dispatch: registered payloads (:mod:`repro.algorithms.vector`),
  the runtime flood and push–pull gossip always run as populations,
  under every fault plan; unregistered payloads fall back to the
  per-node interpreter.

The equality contract is *RunReport-identical*: outputs, rounds,
halted, ``total``/``by_tag``/``per_round``/``dropped``/``corrupted``
all match the per-node programs on the same inputs; those programs and
the dense loop that runs them are the oracles of
``tests/reference_runtime.py``.  Vector populations
must therefore be port-numbering agnostic (their observable behaviour
may not depend on ``KT0`` vs ``EDGE_IDS`` port labels), which holds for
every population shipped here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.local.faults import FaultPlan
from repro.local.metrics import MessageStats, RunReport
from repro.local.network import Network

__all__ = [
    "DeliveryPlan",
    "PopulationOutbox",
    "PopulationInbox",
    "VectorProgram",
    "VectorRuntime",
    "broadcast_outbox",
    "delivery_plan",
    "gather_segments",
]

@dataclass
class PopulationOutbox:
    """One round's sends from the whole population.

    Rows are ordered ascending by sender, and within one sender in the
    order the reference program would have called ``Context.send`` —
    that ordering is the contract that makes the next round's inbox
    segments byte-compatible with the reference delivery order.
    ``data`` is program-private payload storage aligned with the rows
    (the runtime never looks inside it).
    """

    eids: np.ndarray  # int64, one entry per message
    senders: np.ndarray  # int64, ascending
    data: Any = None
    # The incidence-CSR position of each row when the outbox is a
    # broadcast_outbox, else None.
    positions: np.ndarray | None = None


@dataclass
class PopulationInbox:
    """CSR view of one round's deliveries, segmented by receiver.

    ``indptr`` has ``n + 1`` entries; receiver ``v``'s messages occupy
    ``slice(indptr[v], indptr[v + 1])`` of the row-aligned columns, in
    the exact order the per-node ``Runtime`` would present them (in-flight
    order, which within one receiver is ascending sender, per-sender
    send order).  ``rows`` are indices into the *previous* outbox, so a
    program recovers its payload columns with ``payload_col[rows]``.
    Messages a fault plan dropped or erased are not in it.
    """

    indptr: np.ndarray  # int64, shape (n + 1,)
    rows: np.ndarray  # int64, indices into the producing outbox
    senders: np.ndarray  # int64
    eids: np.ndarray  # int64 (the receiver-side port under EDGE_IDS)
    data: Any = None  # the producing outbox's ``data``, passed through


class VectorProgram(ABC):
    """A homogeneous population executed as one struct-of-arrays program.

    ``tag`` is the single message tag the population uses (all shipped
    populations are single-tag; ``by_tag`` metering relies on it).
    ``live`` must equal the number of nodes the per-node ``Runtime`` would
    consider non-halted (reactive halts count as halted).
    """

    tag: str = ""

    @abstractmethod
    def on_start(self) -> PopulationOutbox | None:
        """Round 0: initialize state, return the initial sends (or None)."""

    @abstractmethod
    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        """Digest one round's inbox, advance state, return the sends."""

    @abstractmethod
    def outputs(self) -> dict[int, Any]:
        """Per-node outputs, equal to the reference programs' ``output()``."""

    @property
    @abstractmethod
    def live(self) -> int:
        """Number of non-halted nodes (reactive halts count as halted)."""


def _receiver_order(receivers: np.ndarray, n: int) -> np.ndarray:
    """The stable permutation that sorts messages by receiver.

    Stability keeps in-flight order inside each receiver's segment,
    which is exactly the reference per-receiver inbox order.  Receivers
    fit uint16 below 2**16 nodes, where NumPy's stable sort is a radix
    sort; a stable sort's permutation is unique, so either key width
    yields the same order.
    """
    key = receivers.astype(np.uint16, copy=False) if n <= 1 << 16 else receivers
    return np.argsort(key, kind="stable")


@dataclass(frozen=True, eq=False)
class DeliveryPlan:
    """A network's read-only routing tables for :class:`VectorRuntime`.

    Every broadcast's rows are positions of the incidence CSR, so the
    receiver of each position, and the stable receiver order of all of
    them, are constants of the network.  With ``perm`` that order, an
    all-node broadcast's inbox is ``indptr`` (the incidence ``indptr``:
    every node receives one message per port), ``rows = perm``,
    ``senders = owner[perm]`` and ``eids = inc[perm]``.  Built once per
    network by :func:`delivery_plan`.
    """

    indptr: np.ndarray  # incidence indptr, shape (n + 1,)
    inc: np.ndarray  # the eid at each CSR position
    owner: np.ndarray  # the node whose segment holds each position
    receiver: np.ndarray  # the other end of each position's edge
    perm: np.ndarray  # positions in stable receiver order
    senders: np.ndarray  # owner[perm]
    eids: np.ndarray  # inc[perm]
    ep_u: np.ndarray  # the network's row-indexed endpoint arrays
    ep_v: np.ndarray
    # The sorted eids when ids are not consecutive (eid -> row is then
    # one searchsorted), else None (every eid is its own row).
    eid_sorted: np.ndarray | None


def _build_plan(network: Network) -> DeliveryPlan:
    n = network.n
    indptr_buf, inc_buf = network.incidence_csr()
    eid_row, ep_u_buf, ep_v_buf = network.endpoints_flat()
    indptr = np.frombuffer(indptr_buf, dtype=np.int64)
    inc = np.frombuffer(inc_buf, dtype=np.int64)
    ep_u = np.frombuffer(ep_u_buf, dtype=np.int64)
    ep_v = np.frombuffer(ep_v_buf, dtype=np.int64)
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if eid_row is None:
        eid_sorted = None
        rows = inc
    else:
        eid_sorted = np.fromiter(network.edge_ids, dtype=np.int64, count=network.m)
        rows = np.searchsorted(eid_sorted, inc)
    receiver = ep_u[rows] + ep_v[rows] - owner
    perm = _receiver_order(receiver, n)
    plan = DeliveryPlan(
        indptr=indptr,
        inc=inc,
        owner=owner,
        receiver=receiver,
        perm=perm,
        senders=owner[perm],
        eids=inc[perm],
        ep_u=ep_u,
        ep_v=ep_v,
        eid_sorted=eid_sorted,
    )
    for column in vars(plan).values():
        if column is not None:
            column.flags.writeable = False
    return plan


def delivery_plan(network: Network) -> DeliveryPlan:
    """The network's :class:`DeliveryPlan`, built on the first call.

    The plan lives in the network (``with_knowledge`` clones share it).
    Threads racing the first build store equal plans.
    """
    plan = network._delivery
    if plan is None:
        plan = network._delivery = _build_plan(network)
    return plan


def gather_segments(
    indptr: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR positions of the segments of ``nodes`` (vectorized gather).

    Returns ``(owners, positions)``: ``positions`` concatenates
    ``range(indptr[v], indptr[v + 1])`` for each ``v`` in order, and
    ``owners`` repeats each node id ``len(segment)`` times.  Used to
    expand "these nodes broadcast on every port" into explicit
    (sender, eid) message rows.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    owners = np.repeat(nodes, counts)
    offsets = np.cumsum(counts) - counts
    positions = np.arange(total, dtype=np.int64)
    positions += np.repeat(indptr[nodes] - offsets, counts)
    return owners, positions


def broadcast_outbox(plan: DeliveryPlan, nodes: np.ndarray) -> PopulationOutbox | None:
    """Outbox for "every node in ``nodes`` sends on all its ports".

    ``nodes`` must be ascending and distinct; the incident eids of one
    node are already ascending inside the incidence CSR, which matches
    the reference ``for port in ctx.ports`` send order.  The rows record
    their CSR positions, from which delivery reads their receivers.
    When ``nodes`` is every node, the rows are the whole CSR: the outbox
    takes the plan's read-only eid and owner columns instead of
    gathering segments.
    """
    inc = plan.inc
    if nodes.size == plan.indptr.size - 1:
        if inc.size == 0:
            return None
        return PopulationOutbox(
            eids=inc,
            senders=plan.owner,
            positions=np.arange(inc.size, dtype=np.int64),
        )
    owners, positions = gather_segments(plan.indptr, nodes)
    if owners.size == 0:
        return None
    return PopulationOutbox(eids=inc[positions], senders=owners, positions=positions)


@dataclass
class _InFlight:
    """Post-fault survivors of one round's sends (pre-delivery)."""

    rows: np.ndarray  # indices into the producing outbox
    eids: np.ndarray
    senders: np.ndarray
    data: Any
    positions: np.ndarray | None  # CSR positions of a broadcast's rows


class VectorRuntime:
    """Drives one :class:`VectorProgram` population over a network.

    The loop mirrors the per-node ``Runtime`` exactly — same round
    numbering, same ``fixed_rounds`` discard semantics, same
    ``SimulationError`` text — so a population that steps correctly is
    automatically RunReport-identical to its per-node counterpart.
    """

    def __init__(
        self,
        network: Network,
        program: VectorProgram,
        *,
        max_rounds: int = 100_000,
        fixed_rounds: int | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._network = network
        self._program = program
        self._max_rounds = max_rounds
        self._fixed_rounds = fixed_rounds
        self._faults = faults or FaultPlan.none()
        self._plan = delivery_plan(network)

    def run(self) -> RunReport:
        stats = MessageStats()
        program = self._program
        fixed = self._fixed_rounds
        n = self._network.n

        # Round 0: on_start across the population.
        stats.open_round()
        outbox = program.on_start()
        if fixed == 0:
            # No delivery round will ever run: round-0 sends cannot be
            # delivered, so they are discarded unmetered.
            in_flight = None
        else:
            in_flight = self._collect(stats, outbox, round_index=0)

        rounds = 0
        while True:
            if fixed is not None:
                if rounds >= fixed:
                    break
            elif in_flight is None and program.live == 0:
                break
            if rounds >= self._max_rounds:
                raise SimulationError(
                    f"exceeded max_rounds={self._max_rounds} "
                    f"({stats.total} messages so far)"
                )
            rounds += 1
            stats.open_round()
            inbox = self._deliver(in_flight, n)
            outbox = program.step_population(rounds, inbox)
            if fixed is not None and rounds >= fixed:
                # Final fixed round: anything queued now can never be
                # delivered — discarded unmetered, like the reference.
                break
            in_flight = self._collect(stats, outbox, round_index=rounds)

        return RunReport(
            rounds=rounds,
            messages=stats,
            outputs=program.outputs(),
            halted=program.live == 0,
        )

    # ------------------------------------------------------------------
    def _collect(
        self,
        stats: MessageStats,
        outbox: PopulationOutbox | None,
        round_index: int,
    ) -> _InFlight | None:
        """Apply the fault plan and meter one round's sends in bulk.

        An erased message is metered like a delivered one and counted
        as ``corrupted``, but it is not in flight: no receiver sees it.
        """
        if outbox is None or outbox.eids.size == 0:
            return None
        eids = outbox.eids
        senders = outbox.senders
        positions = outbox.positions
        rows = np.arange(eids.size, dtype=np.int64)
        faults = self._faults
        if faults.is_noop:
            stats.record_uniform(self._program.tag, int(eids.size))
        else:
            dropped, erased = faults.fates(
                round_index, eids.tolist(), senders.tolist()
            )
            n_dropped = int(dropped.sum())
            stats.dropped += n_dropped
            stats.corrupted += int(erased.sum())
            stats.record_uniform(self._program.tag, int(eids.size) - n_dropped)
            delivered = ~(dropped | erased)
            if not delivered.all():
                rows, eids = rows[delivered], eids[delivered]
                senders = senders[delivered]
                if positions is not None:
                    positions = positions[delivered]
                if eids.size == 0:
                    return None
        return _InFlight(
            rows=rows,
            eids=eids,
            senders=senders,
            data=outbox.data,
            positions=positions,
        )

    def _deliver(self, in_flight: _InFlight | None, n: int) -> PopulationInbox:
        """Route survivors to receivers and build the CSR inbox.

        An all-node broadcast with nothing dropped or erased gets the
        plan's inbox; any other broadcast reads its receivers from the
        plan by CSR position, and any other outbox from the endpoint
        arrays by eid.  Both sort their round stably by receiver.
        """
        empty = np.empty(0, dtype=np.int64)
        if in_flight is None:
            return PopulationInbox(
                indptr=np.zeros(n + 1, dtype=np.int64),
                rows=empty,
                senders=empty,
                eids=empty,
                data=None,
            )
        plan = self._plan
        positions = in_flight.positions
        if positions is not None and positions.size == plan.perm.size:
            # Broadcast rows are distinct positions, so every one of
            # them is here: the rows are the CSR in order.
            return PopulationInbox(
                indptr=plan.indptr,
                rows=plan.perm,
                senders=plan.senders,
                eids=plan.eids,
                data=in_flight.data,
            )
        if positions is not None:
            receivers = plan.receiver[positions]
        else:
            if plan.eid_sorted is None:
                table_rows = in_flight.eids
            else:
                table_rows = np.searchsorted(plan.eid_sorted, in_flight.eids)
            receivers = (
                plan.ep_u[table_rows] + plan.ep_v[table_rows] - in_flight.senders
            )
        order = _receiver_order(receivers, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(receivers, minlength=n), out=indptr[1:])
        return PopulationInbox(
            indptr=indptr,
            rows=in_flight.rows[order],
            senders=in_flight.senders[order],
            eids=in_flight.eids[order],
            data=in_flight.data,
        )
