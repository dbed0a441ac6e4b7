"""Randomized ``(Delta + 1)``-coloring as a LOCAL payload.

The standard trial-color process: every uncolored node proposes a color
drawn uniformly from its palette (``deg(v) + 1`` colors) minus the
colors its neighbors have already fixed; a proposal is kept if no
neighbor proposed or owns the same color.  Terminates in ``O(log n)``
phases whp.  All randomness is pre-drawn from the node tape so the
algorithm replays exactly under the message-reduction scheme.

One phase = one communication round: a message carries
``(proposal, fixed_flag)`` and doubles as the fixed-color announcement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.algorithms.base import Inbox, LocalAlgorithm, NodeInit, Outbox

__all__ = ["RandomizedColoring"]


@dataclass
class _ColorState:
    ports: tuple[int, ...]
    palette_size: int
    draws: tuple[int, ...]
    fixed: int | None = None
    fixed_round: int = -1
    proposal: int | None = None
    neighbor_fixed: frozenset[int] = frozenset()


class RandomizedColoring(LocalAlgorithm):
    """Output: the node's color in ``0..deg(v)`` (or ``None``, whp never)."""

    name = "rand-coloring"

    def __init__(self, phases: int | None = None) -> None:
        self._phases_override = phases

    def rounds(self, n: int) -> int:
        if self._phases_override is not None:
            return self._phases_override
        return 6 * max(1, math.ceil(math.log2(max(2, n)))) + 8

    def init(self, info: NodeInit, tape: random.Random) -> _ColorState:
        palette = info.degree + 1
        draws = tuple(tape.randrange(palette) for _ in range(self.rounds(info.n) + 1))
        return _ColorState(ports=info.ports, palette_size=palette, draws=draws)

    def step(self, state: _ColorState, r: int, inbox: Inbox) -> tuple[_ColorState, Outbox]:
        # 1. Digest last round: neighbor proposals and fixed colors.
        neighbor_fixed = set(state.neighbor_fixed)
        neighbor_proposals: set[int] = set()
        for payload in inbox.values():
            color, is_fixed = payload
            if is_fixed:
                neighbor_fixed.add(color)
            elif color is not None:
                neighbor_proposals.add(color)
        state.neighbor_fixed = frozenset(neighbor_fixed)

        # 2. Resolve our previous proposal.
        if state.fixed is None and state.proposal is not None:
            if (
                state.proposal not in neighbor_proposals
                and state.proposal not in neighbor_fixed
            ):
                state.fixed = state.proposal
                state.fixed_round = r

        # 3. Emit: newly fixed nodes announce once; uncolored nodes propose.
        outbox: Outbox = {}
        if state.fixed is not None:
            if state.fixed_round == r:
                for eid in state.ports:
                    outbox[eid] = (state.fixed, True)
            state.proposal = None
            return state, outbox

        allowed = [c for c in range(state.palette_size) if c not in neighbor_fixed]
        if allowed:
            state.proposal = allowed[state.draws[r] % len(allowed)]
            for eid in state.ports:
                outbox[eid] = (state.proposal, False)
        else:  # pragma: no cover - palette exhaustion is impossible
            state.proposal = None
        return state, outbox

    def output(self, state: _ColorState) -> int | None:
        return state.fixed
