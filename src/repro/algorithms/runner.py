"""Execution backends for :class:`~repro.algorithms.base.LocalAlgorithm`.

* :func:`run_direct` — executes the algorithm on the message-passing
  kernel, metering real messages and rounds.  This is the "naive"
  execution whose message complexity the paper's scheme reduces
  (algorithms that talk to all neighbors every round cost
  ``Theta(m)`` messages per round here).
* :func:`run_inprocess` — a fast synchronous evaluation without message
  objects, used where only outputs matter (baseline spanner content,
  large sweeps).  Identical results by construction, which tests check.

Both derive node tapes as ``RngFactory(seed).stream("tape", node)`` —
the same derivation the message-reduction transformer uses, so outputs
are comparable bit for bit across all three execution modes.
:func:`node_draws` serves the vector populations the same tapes as
memoized arrays.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import obs
from repro.algorithms.base import LocalAlgorithm, NodeInit
from repro.errors import ProtocolError
from repro.local.engine import VectorProgram, VectorRuntime
from repro.local.faults import FaultPlan
from repro.local.message import Inbound
from repro.local.metrics import MessageStats
from repro.local.network import Network
from repro.local.node import Context, NodeProgram
from repro.local.runtime import run_program
from repro.rng import RngFactory

__all__ = ["run_direct", "run_inprocess", "DirectOutcome", "node_tape", "node_draws"]


def node_tape(seed: int, node: int):
    """The canonical per-node randomness tape (shared across backends)."""
    return RngFactory(seed).stream("tape", node)


class _DrawMemo:
    """Thread-safe LRU of draw arrays, bounded by their total bytes.

    Evicts least recently used entries first; an entry larger than the
    whole budget is never kept.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.nbytes = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: tuple, draws: np.ndarray, size: int) -> np.ndarray:
        """Keep ``draws`` (``size`` bytes) unless an equal entry won the race."""
        if size > self.budget:
            return draws
        with self._lock:
            entry = self._entries.setdefault(key, (draws, size))
            if entry[0] is draws:
                self.nbytes += size
                while self.nbytes > self.budget:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self.nbytes -= evicted
            return entry[0]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


# Warm serving replays the same randomized payloads on the same graph,
# so their tapes are drawn once per (seed, n, count, bound).  An entry is
# a pure function of its key, so one process-wide memo changes no answer.
_DRAWS = _DrawMemo(8 << 20)


def node_draws(
    seed: int, n: int, count: int, bound: int | np.ndarray | None = None
) -> np.ndarray:
    """Each node's first ``count`` tape draws as a read-only ``(n, count)`` array.

    Row ``v`` holds what ``node_tape(seed, v)`` yields for ``count``
    successive ``random()`` calls (``bound=None``, float64) or
    ``randrange(b)`` calls (int64), where ``b`` is ``bound`` itself or
    ``bound[v]`` for a per-node array.  Memoized per
    ``(seed, n, count, bound)`` under a byte budget; a miss draws every
    tape in Python, as the per-node programs' ``init`` does.
    """
    per_node = None
    if bound is not None and not np.isscalar(bound):
        per_node = np.asarray(bound, dtype=np.int64)
    key = (seed, n, count, bound if per_node is None else per_node.tobytes())
    draws = _DRAWS.get(key)
    if draws is not None:
        return draws
    draws = np.empty((n, count), dtype=np.float64 if bound is None else np.int64)
    bounds = [bound] * n if per_node is None else per_node.tolist()
    for v in range(n):
        tape = node_tape(seed, v)
        if bound is None:
            draws[v] = [tape.random() for _ in range(count)]
        else:
            draws[v] = [tape.randrange(bounds[v]) for _ in range(count)]
    draws.flags.writeable = False
    key_bytes = 0 if per_node is None else per_node.nbytes
    return _DRAWS.put(key, draws, draws.nbytes + key_bytes)


@dataclass(frozen=True)
class DirectOutcome:
    """Result of a kernel execution of a LOCAL algorithm."""

    outputs: dict[int, Any]
    messages: MessageStats
    rounds: int

    @property
    def total_messages(self) -> int:
        return self.messages.total


class _AlgorithmProgram(NodeProgram):
    """Adapter: pure LocalAlgorithm -> kernel NodeProgram."""

    def __init__(self, node: int, algo: LocalAlgorithm, seed: int, t: int) -> None:
        self._node = node
        self._algo = algo
        self._seed = seed
        self._t = t
        self._state: Any = None
        self._out: Any = None
        self._round = 0
        self._precomputed = False

    def on_start(self, ctx: Context) -> None:
        info = NodeInit(node=ctx.node, ports=tuple(ctx.ports), n=ctx.n_hint)
        self._state = self._algo.init(info, node_tape(self._seed, ctx.node))
        self._state, outbox = self._algo.step(self._state, 0, {})
        if self._t == 0:
            self._finish(ctx)
            return
        self._emit(ctx, outbox)
        if not ctx.ports:
            # An isolated node can never receive, so every remaining
            # step sees an empty inbox and is computable right now; the
            # node then sleeps until its halting round t, keeping the
            # run's round count identical to stepping it every round.
            for r in range(1, self._t + 1):
                self._state, outbox = self._algo.step(self._state, r, {})
                if r < self._t:
                    self._emit(ctx, outbox)
            self._out = self._algo.output(self._state)
            self._precomputed = True
            ctx.sleep_until(self._t)

    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        if self._precomputed:
            # Output is ready; halt only at the halting round t so a
            # loop that steps this node every round reports the same
            # rounds as one that lets it sleep.
            if ctx.round >= self._t:
                ctx.halt()
            return
        self._round += 1
        r = self._round
        packed: dict[int, Any] = {}
        for msg in inbox:
            if msg.port in packed:
                raise ProtocolError(
                    f"two messages on edge {msg.port} in one round at node {ctx.node}"
                )
            packed[msg.port] = msg.payload
        self._state, outbox = self._algo.step(self._state, r, packed)
        if r < self._t:
            self._emit(ctx, outbox)
        else:
            self._finish(ctx)

    def output(self) -> Any:
        return self._out

    def _emit(self, ctx: Context, outbox: dict[int, Any]) -> None:
        for eid, payload in sorted(outbox.items()):
            ctx.send(eid, payload, tag=self._algo.name)

    def _finish(self, ctx: Context) -> None:
        self._out = self._algo.output(self._state)
        ctx.halt()


def _vector_or_fallback(
    algo: LocalAlgorithm, network: Network, seed: int
) -> VectorProgram | None:
    """The vector population for ``algo``, or ``None`` — announced as an
    ``algorithms/reference_fallback`` event — when no population serves
    it and the reference interpreter must run it instead."""
    from repro.algorithms.vector import vector_population

    population = vector_population(algo, network, seed)
    if population is None:
        obs.event(
            "algorithms/reference_fallback", algo=algo.name, reason="unregistered"
        )
    return population


def run_direct(
    network: Network,
    algo: LocalAlgorithm,
    seed: int = 0,
    *,
    faults: FaultPlan | None = None,
) -> DirectOutcome:
    """Execute on the kernel; messages and rounds are metered exactly.

    Registered algorithms run as array populations under every fault
    plan; everything else runs on the per-node interpreter, and each
    such fallback emits an ``algorithms/reference_fallback`` event on
    the telemetry plane.  A message the plan drops or erases never
    reaches the algorithm: its ``step`` just finds that port missing.
    """
    t = algo.rounds(network.n)
    population = _vector_or_fallback(algo, network, seed)
    if population is not None:
        report = VectorRuntime(
            network, population, max_rounds=t + 2, faults=faults
        ).run()
    else:
        report = run_program(
            network,
            lambda node: _AlgorithmProgram(node, algo, seed, t),
            seed=seed,
            max_rounds=t + 2,
            faults=faults,
        )
    return DirectOutcome(outputs=report.outputs, messages=report.messages, rounds=report.rounds)


def run_inprocess(
    network: Network,
    algo: LocalAlgorithm,
    seed: int = 0,
) -> dict[int, Any]:
    """Fast synchronous evaluation (no kernel); outputs only.

    Registered algorithms execute as array populations (same outputs,
    no per-node Python stepping); everything else runs the original
    message-free loop, announced by an ``algorithms/reference_fallback``
    event.
    """
    n = network.n
    t = algo.rounds(n)
    population = _vector_or_fallback(algo, network, seed)
    if population is not None:
        return VectorRuntime(network, population, max_rounds=t + 2).run().outputs
    states: list[Any] = []
    for node in network.nodes():
        info = NodeInit(node=node, ports=tuple(network.incident(node)), n=n)
        states.append(algo.init(info, node_tape(seed, node)))
    inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
    for r in range(t + 1):
        next_inboxes: list[dict[int, Any]] = [{} for _ in range(n)]
        for node in network.nodes():
            states[node], outbox = algo.step(states[node], r, inboxes[node])
            if r == t:
                continue
            for eid, payload in outbox.items():
                next_inboxes[network.other_end(eid, node)][eid] = payload
        inboxes = next_inboxes
    return {node: algo.output(states[node]) for node in network.nodes()}
