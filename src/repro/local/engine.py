"""Array-native round engine: populations stepped as NumPy kernels.

The per-node :class:`~repro.local.runtime.Runtime` interprets one
``NodeProgram`` per node and pays Python dispatch for every message and
every step.  For *homogeneous* populations — every node runs the same
program, differing only in per-node state — a synchronous round is
data-parallel by construction: deliver all messages at once, step all
nodes at once.  This module provides that execution path.

Three pieces (DESIGN.md §3.10):

* :class:`VectorProgram` — the population protocol: declare state as
  arrays, emit one :class:`PopulationOutbox` per round, digest one
  :class:`PopulationInbox` (a CSR view of the round's deliveries,
  segmented by receiver in exactly the reference delivery order).
* :class:`VectorRuntime` — the driver.  Its loop is a line-for-line
  mirror of the per-node ``Runtime``: round 0 is ``on_start``; sends of
  round ``r`` are delivered at the start of ``r + 1``; under
  ``fixed_rounds`` the final round's sends are discarded unmetered
  (``total == delivered`` always); the ``max_rounds`` error text is
  byte-identical.  Fault plans are applied as drop/corrupt masks over
  the same per-message coin stream, so dropped/corrupted counters agree
  with the per-node interpreter bit for bit.
* the dispatch: registered payloads (:mod:`repro.algorithms.vector`),
  the runtime flood and push–pull gossip always run as populations;
  unregistered payloads and corrupt-capable plans fall back to the
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
    "PopulationOutbox",
    "PopulationInbox",
    "VectorProgram",
    "VectorRuntime",
    "gather_segments",
    "broadcast_outbox",
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


@dataclass
class PopulationInbox:
    """CSR view of one round's deliveries, segmented by receiver.

    ``indptr`` has ``n + 1`` entries; receiver ``v``'s messages occupy
    ``slice(indptr[v], indptr[v + 1])`` of the row-aligned columns, in
    the exact order the per-node ``Runtime`` would present them (in-flight
    order, which within one receiver is ascending sender, per-sender
    send order).  ``rows`` are indices into the *previous* outbox, so a
    program recovers its payload columns with ``payload_col[rows]``.
    ``corrupted`` marks messages whose payload a fault plan replaced
    with the ``CORRUPTED`` sentinel; vector programs must skip (or
    otherwise mirror the reference handling of) those rows.
    """

    indptr: np.ndarray  # int64, shape (n + 1,)
    rows: np.ndarray  # int64, indices into the producing outbox
    senders: np.ndarray  # int64
    eids: np.ndarray  # int64 (the receiver-side port under EDGE_IDS)
    corrupted: np.ndarray  # bool
    data: Any = None  # the producing outbox's ``data``, passed through

    def segment(self, node: int) -> slice:
        return slice(int(self.indptr[node]), int(self.indptr[node + 1]))


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


def gather_segments(
    indptr: np.ndarray, values: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR segments of ``nodes`` (vectorized gather).

    Returns ``(owners, gathered)`` where ``owners`` repeats each node id
    ``len(segment)`` times and ``gathered`` is the matching slice of
    ``values`` — i.e. ``values[indptr[v]:indptr[v+1]]`` for each ``v``
    in order.  Used to expand "these nodes broadcast on every port"
    into explicit (sender, eid) message rows.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    owners = np.repeat(nodes, counts)
    offsets = np.cumsum(counts) - counts
    idx = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    idx += np.repeat(indptr[nodes], counts)
    return owners, values[idx]


def broadcast_outbox(
    indptr: np.ndarray,
    inc_eids: np.ndarray,
    nodes: np.ndarray,
    data: Any = None,
) -> PopulationOutbox | None:
    """Outbox for "every node in ``nodes`` sends on all its ports".

    ``nodes`` must be ascending and distinct; the incident eids of one
    node are already ascending inside the incidence CSR, which matches
    the reference ``for port in ctx.ports`` send order.  When ``nodes``
    is every node, the rows are the whole CSR: the outbox takes a
    read-only view of ``inc_eids`` and one ``np.repeat`` owner column
    instead of gathering segments.
    """
    n = indptr.size - 1
    if nodes.size == n:
        if inc_eids.size == 0:
            return None
        eids = inc_eids.view()
        eids.flags.writeable = False
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        return PopulationOutbox(eids=eids, senders=owners, data=data)
    owners, eids = gather_segments(indptr, inc_eids, nodes)
    if owners.size == 0:
        return None
    return PopulationOutbox(eids=eids, senders=owners, data=data)


@dataclass
class _InFlight:
    """Post-fault survivors of one round's sends (pre-delivery)."""

    rows: np.ndarray  # indices into the producing outbox
    eids: np.ndarray
    senders: np.ndarray
    corrupted: np.ndarray
    data: Any


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
        eid_row, ep_u, ep_v = network.endpoints_flat()
        self._ep_u = np.frombuffer(ep_u, dtype=np.int64)
        self._ep_v = np.frombuffer(ep_v, dtype=np.int64)
        # Consecutive ids make every eid its own endpoint row.  Otherwise
        # rows are sorted by eid, so the sorted eid array turns
        # eid -> row into one searchsorted per round.
        self._eid_sorted = (
            None
            if eid_row is None
            else np.fromiter(network.edge_ids, dtype=np.int64, count=network.m)
        )
        # Receivers fit uint16 below 2**16 nodes, where NumPy's stable
        # sort is a radix sort; a stable sort's permutation is unique,
        # so either key width yields the same inbox.
        self._receiver_dtype = np.uint16 if network.n <= 1 << 16 else np.int64

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
        """Apply the fault plan and meter one round's sends in bulk."""
        if outbox is None or outbox.eids.size == 0:
            return None
        eids = outbox.eids
        senders = outbox.senders
        rows = np.arange(eids.size, dtype=np.int64)
        faults = self._faults
        if faults.can_drop:
            drops = faults.drops
            mask = np.fromiter(
                (drops(round_index, e, s) for e, s in zip(eids.tolist(), senders.tolist())),
                dtype=bool,
                count=eids.size,
            )
            dropped = int(mask.sum())
            if dropped:
                stats.dropped += dropped
                keep = ~mask
                rows, eids, senders = rows[keep], eids[keep], senders[keep]
                if eids.size == 0:
                    return None
        if faults.can_corrupt:
            corrupts = faults.corrupts
            corrupted = np.fromiter(
                (
                    corrupts(round_index, e, s)
                    for e, s in zip(eids.tolist(), senders.tolist())
                ),
                dtype=bool,
                count=eids.size,
            )
            stats.corrupted += int(corrupted.sum())
        else:
            corrupted = np.zeros(eids.size, dtype=bool)
        stats.record_uniform(self._program.tag, int(eids.size))
        return _InFlight(
            rows=rows,
            eids=eids,
            senders=senders,
            corrupted=corrupted,
            data=outbox.data,
        )

    def _deliver(self, in_flight: _InFlight | None, n: int) -> PopulationInbox:
        """Route survivors to receivers and build the CSR inbox."""
        empty = np.empty(0, dtype=np.int64)
        if in_flight is None:
            return PopulationInbox(
                indptr=np.zeros(n + 1, dtype=np.int64),
                rows=empty,
                senders=empty,
                eids=empty,
                corrupted=np.empty(0, dtype=bool),
                data=None,
            )
        if self._eid_sorted is None:
            table_rows = in_flight.eids
        else:
            table_rows = np.searchsorted(self._eid_sorted, in_flight.eids)
        receivers = (
            self._ep_u[table_rows] + self._ep_v[table_rows] - in_flight.senders
        )
        # Stable sort by receiver keeps in-flight order inside each
        # segment — exactly the reference per-receiver inbox order.
        order = np.argsort(
            receivers.astype(self._receiver_dtype, copy=False), kind="stable"
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(receivers, minlength=n), out=indptr[1:])
        return PopulationInbox(
            indptr=indptr,
            rows=in_flight.rows[order],
            senders=in_flight.senders[order],
            eids=in_flight.eids[order],
            corrupted=in_flight.corrupted[order],
            data=in_flight.data,
        )
