"""Deterministic ``t``-hop aggregation payloads.

These are the sharpest correctness probes for the message-reduction
scheme: their outputs are exact functions of the ``t``-ball, so any
discrepancy between direct execution and spanner-based simulation is a
bug, not noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.algorithms.base import Inbox, LocalAlgorithm, NodeInit, Outbox

__all__ = ["BallCollect", "MinIdAggregation"]


@dataclass
class _CollectState:
    ports: tuple[int, ...]
    known: frozenset[int]
    new: frozenset[int]


class BallCollect(LocalAlgorithm):
    """Collect the IDs of all nodes within ``t`` hops.

    Output: sorted tuple of node ids at distance at most ``t``.  This is
    exactly the ``t``-local broadcast task of Section 6, expressed as a
    LOCAL algorithm.
    """

    name = "ball-collect"

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ValueError("t must be >= 0")
        self._t = t

    def rounds(self, n: int) -> int:
        return self._t

    def init(self, info: NodeInit, tape: random.Random) -> _CollectState:
        me = frozenset({info.node})
        return _CollectState(ports=info.ports, known=me, new=me)

    def step(self, state: _CollectState, r: int, inbox: Inbox) -> tuple[_CollectState, Outbox]:
        incoming: set[int] = set()
        for payload in inbox.values():
            incoming.update(payload)
        fresh = frozenset(incoming - state.known)
        state = _CollectState(
            ports=state.ports, known=state.known | fresh, new=fresh if r > 0 else state.new
        )
        outbox: Outbox = {}
        if state.new:
            for eid in state.ports:
                outbox[eid] = tuple(sorted(state.new))
        return state, outbox

    def output(self, state: _CollectState) -> tuple[int, ...]:
        return tuple(sorted(state.known))


class MinIdAggregation(LocalAlgorithm):
    """Minimum node id within ``t`` hops (a classic local leader probe)."""

    name = "min-id"

    def __init__(self, t: int) -> None:
        if t < 0:
            raise ValueError("t must be >= 0")
        self._t = t

    def rounds(self, n: int) -> int:
        return self._t

    def init(self, info: NodeInit, tape: random.Random) -> tuple:
        return (info.ports, info.node, info.node)  # (ports, best, last_sent)

    def step(self, state: tuple, r: int, inbox: Inbox) -> tuple[tuple, Outbox]:
        ports, best, last_sent = state
        for payload in inbox.values():
            if payload < best:
                best = payload
        outbox: Outbox = {}
        if best != last_sent or r == 0:
            for eid in ports:
                outbox[eid] = best
            last_sent = best
        return (ports, best, last_sent), outbox

    def output(self, state: tuple) -> int:
        return state[1]
