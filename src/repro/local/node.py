"""The per-node program API of the simulator.

A distributed algorithm is expressed as a :class:`NodeProgram` subclass.
The runtime instantiates one program per node (via a factory) and drives
all of them in lockstep rounds:

* round 0: :meth:`NodeProgram.on_start` runs at every node; messages
  queued there are delivered at the beginning of round 1;
* round ``r >= 1``: every node receives the messages sent to it in round
  ``r - 1`` and runs :meth:`NodeProgram.on_round`.

A node that calls :meth:`Context.halt` stops being scheduled, except
that it may opt into *reactive* mode (``reactive=True``) in which its
``on_round`` is still invoked whenever a message arrives — the paper's
finished clusters answer queries this way without counting as active.

Quiescence declarations.  A node that knows it has nothing to do for a
while can declare it with :meth:`Context.sleep_until` (one wake round,
or none) or :meth:`Context.wake_me_at` (a bulk schedule of wake rounds).
The declaration is a *contract*: a sleeping node promises that running
its ``on_round`` with an empty inbox before the next declared wake round
would be a no-op, so the runtime skips those invocations entirely.  An
inbound message always wakes a sleeping node — quiescence never delays
delivery — and waking early does not cancel the remaining wake
schedule.  The dense loop of ``tests/reference_runtime.py`` records the
declarations but steps every node every round, which is exactly why it
and the runtime produce identical runs for contract-honouring programs.
"""

from __future__ import annotations

import heapq
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Sequence

from repro.errors import ProtocolError
from repro.local.knowledge import Knowledge
from repro.local.message import Inbound, Outbound

__all__ = ["Context", "HybridPlane", "NodeProgram"]


@dataclass(frozen=True)
class HybridPlane:
    """Declares that one message tag can be serviced at delivery time.

    A program class may publish ``hybrid_planes`` (DESIGN.md §3.10): a
    mapping from message tag to a plane describing the *entire* effect
    that delivering such a message has on its receiver.  The runtime
    then handles those messages inline during delivery — appending an
    entry to a program attribute and/or queueing a fixed-shape reply —
    without stepping the receiver at all, which turns the protocol's
    hottest point-to-point rounds into array-sweep work over the
    in-flight list.

    Declaring a plane is a correctness contract, checked by the engine
    equality suite:

    * the program's own dispatch of the tag does exactly the declared
      absorb append and/or reply send — no other state change, no wake
      declarations;
    * the phase action of every round in which the tag can arrive is a
      no-op for receivers that were woken *only* by these messages (or
      the receiver independently holds a wake for that round);
    * replies read attributes that no other node's step in the same
      round can mutate.

    ``entry`` selects the absorbed item's layout: ``"port_first"`` is
    ``(port,) + payload``, ``"port_last"`` is ``payload + (port,)``, and
    ``"payload0"`` is ``tuple(payload[0])``.  Halted receivers ignore
    the message unless they are reactive and the matching
    ``*_reactive`` flag is set — mirroring the eligibility rule the
    runtime applies before stepping a halted node.
    """

    absorb_into: str | None = None
    entry: str = "port_first"
    absorb_reactive: bool = False
    respond_tag: str | None = None
    respond_attrs: tuple[str, ...] = ()
    respond_reactive: bool = False


class Context:
    """Local view handed to a node program; enforces the knowledge model."""

    __slots__ = (
        "_node",
        "_ports",
        "_port_to_eid",
        "_eid_to_port",
        "_neighbor_by_eid",
        "_knowledge",
        "_n_hint",
        "_rng",
        "_rng_factory",
        "_outbox",
        "_halted",
        "_reactive",
        "_round",
        "_sleeping",
        "_wake_bulk",
        "_wake_idx",
        "_wake_extra",
        "_wake_dirty",
    )

    def __init__(
        self,
        node: int,
        eids: Sequence[int],
        neighbor_by_eid: dict[int, int],
        knowledge: Knowledge,
        n_hint: int,
        rng: "random.Random | Callable[[], random.Random]",
    ) -> None:
        self._node = node
        self._knowledge = knowledge
        self._n_hint = n_hint
        # A callable defers the stream derivation to first use: programs
        # that never draw (the distributed Sampler keys its randomness
        # off cluster ids, not nodes) skip the per-node hash entirely.
        self._rng = None if callable(rng) else rng
        self._rng_factory = rng if callable(rng) else None
        self._neighbor_by_eid = neighbor_by_eid
        if knowledge is Knowledge.KT0:
            self._port_to_eid = dict(enumerate(eids))
            self._eid_to_port = {eid: port for port, eid in enumerate(eids)}
            self._ports = tuple(range(len(eids)))
        else:
            self._port_to_eid = {eid: eid for eid in eids}
            self._eid_to_port = dict(self._port_to_eid)
            self._ports = tuple(eids)
        self._outbox: list[Outbound] = []
        self._halted = False
        self._reactive = False
        self._round = 0
        self._sleeping = False
        self._wake_bulk: Sequence[int] = ()
        self._wake_idx = 0
        self._wake_extra: list[int] = []
        # Set by every declaration; the runtime clears it when it
        # re-reads the wake queue, so unchanged sleepers skip the scan.
        self._wake_dirty = False

    # -- identity and knowledge ---------------------------------------
    @property
    def node(self) -> int:
        """This node's unique identifier (standard LOCAL assumption)."""
        return self._node

    @property
    def degree(self) -> int:
        return len(self._ports)

    @property
    def ports(self) -> tuple[int, ...]:
        """Handles for incident edges (global edge ids unless KT0)."""
        return self._ports

    @property
    def n_hint(self) -> int:
        """The promised O(1)-approximate upper bound on ``n``."""
        return self._n_hint

    @property
    def rng(self) -> random.Random:
        """This node's private, reproducible randomness stream."""
        if self._rng is None:
            self._rng = self._rng_factory()
        return self._rng

    @property
    def round(self) -> int:
        """The current round index (0 during ``on_start``).

        Synchronous LOCAL executions share a global round counter, so
        exposing it is model-faithful; programs that derive control flow
        from it stay correct whether or not sleepers are stepped.
        """
        return self._round

    @property
    def knowledge(self) -> Knowledge:
        return self._knowledge

    def neighbor(self, port: int) -> int:
        """The ID of the node across ``port`` — KT1 only."""
        if not self._knowledge.exposes_neighbor_ids:
            raise ProtocolError(
                f"neighbor IDs are not available under {self._knowledge.value}"
            )
        return self._neighbor_by_eid[self._port_to_eid[port]]

    # -- actions --------------------------------------------------------
    def send(self, port: int, payload: Any, tag: str = "") -> None:
        """Queue one message over ``port`` for delivery next round."""
        if self._halted and not self._reactive:
            raise ProtocolError(f"node {self._node} sent after halting")
        eid = self._port_to_eid.get(port)
        if eid is None:
            raise ProtocolError(
                f"node {self._node} is not incident to port {port}"
            )
        # Entries are bare tuples in Outbound field order; the runtime
        # unpacks them positionally (one tuple alloc beats a NamedTuple
        # __new__ on the hottest allocation site in the engine).
        self._outbox.append((eid, self._node, payload, tag))

    def halt(self, *, reactive: bool = False) -> None:
        """Stop being scheduled; ``reactive=True`` keeps answering messages."""
        self._halted = True
        self._reactive = reactive

    def sleep_until(self, round_index: int | None = None) -> None:
        """Declare quiescence until ``round_index`` (``None`` = indefinitely).

        Contract: until the declared wake round, stepping this node with
        an empty inbox would be a no-op, so the runtime skips
        it.  Any inbound message wakes the node regardless; waking early
        keeps the remaining wake schedule.  May be called repeatedly to
        add further wake rounds.
        """
        if round_index is not None:
            if round_index <= self._round:
                raise ProtocolError(
                    f"node {self._node} asked to wake at round {round_index} "
                    f"but it is already round {self._round}"
                )
            heapq.heappush(self._wake_extra, round_index)
        self._sleeping = True
        self._wake_dirty = True

    def wake_me_at(self, rounds: Iterable[int]) -> None:
        """Declare additional wake rounds (ascending round indices).

        Registering a schedule does not cancel previously declared wake
        rounds — the node wakes at the union.  The *first* registered
        schedule is stored by reference, so many nodes sharing one
        schedule (e.g. the distributed ``Sampler``'s skeleton of phase
        starts) share one tuple; later registrations merge through the
        per-node wake heap.  Entries at or before the current round are
        skipped for free.
        """
        bulk = rounds if isinstance(rounds, (tuple, list)) else tuple(rounds)
        prev: int | None = None
        for round_index in bulk:
            if prev is not None and prev >= round_index:
                raise ProtocolError(
                    f"node {self._node} declared an unsorted wake schedule"
                )
            prev = round_index
        if not self._wake_bulk:
            self._wake_bulk = bulk
            self._wake_idx = 0
        else:
            now = self._round
            for round_index in bulk:
                if round_index > now:
                    heapq.heappush(self._wake_extra, round_index)
        self._sleeping = True
        self._wake_dirty = True

    def wake(self) -> None:
        """Cancel sleep mode: be stepped every round again (wake rounds kept)."""
        self._sleeping = False

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def reactive(self) -> bool:
        return self._reactive

    @property
    def sleeping(self) -> bool:
        return self._sleeping

    # -- runtime-side helpers (not part of the program-facing API) ------
    def _port_of(self, eid: int) -> int:
        return self._eid_to_port[eid]

    def _next_wake_after(self, round_index: int) -> int | None:
        """Smallest declared wake round strictly after ``round_index``.

        Advances past stale entries but does not consume the returned
        one, so repeated calls at the same round are idempotent (a node
        woken early by a message keeps its pending wake round).
        """
        bulk = self._wake_bulk
        idx = self._wake_idx
        limit = len(bulk)
        while idx < limit and bulk[idx] <= round_index:
            idx += 1
        self._wake_idx = idx
        extra = self._wake_extra
        while extra and extra[0] <= round_index:
            heapq.heappop(extra)
        if idx < limit:
            nxt = bulk[idx]
            if extra and extra[0] < nxt:
                return extra[0]
            return nxt
        return extra[0] if extra else None


class NodeProgram(ABC):
    """Base class for synchronous LOCAL node programs."""

    # Empty slots keep the base dict-free so subclasses may opt into
    # __slots__ for dense attribute access; subclasses that don't still
    # get an instance dict as usual.
    __slots__ = ()

    #: Optional tag -> :class:`HybridPlane` map enabling hybrid rounds
    #: under the vector engine; ``None`` keeps every delivery on the
    #: per-node dispatch path.
    hybrid_planes: ClassVar[dict[str, HybridPlane] | None] = None

    def on_start(self, ctx: Context) -> None:
        """Round-0 hook; override to initialize state and send first messages."""

    @abstractmethod
    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        """Process one synchronous round."""

    def output(self) -> Any:
        """The node's final output, collected into the run report."""
        return None
