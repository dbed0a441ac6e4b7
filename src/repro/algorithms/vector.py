"""Vector populations for the :mod:`repro.algorithms` library.

Each class here is the struct-of-arrays twin of one
:class:`~repro.algorithms.base.LocalAlgorithm` run through
``_AlgorithmProgram``: same round structure (``algo.step(r)`` for
``r = 0..t``, step-``t`` outbox discarded, every node halts after step
``t``), same per-node randomness (the randomized populations read the
identical ``node_tape`` draws through
:func:`~repro.algorithms.runner.node_draws`), same outputs — so
:func:`~repro.algorithms.runner.run_direct` is RunReport-identical
across engines.  Every population updates its state from the delivered
inbox alone, never from what a sender *would* have said, so the two
engines also agree under fault plans, whose dropped and erased
messages never reach an inbox.

A message in these populations always carries "the value its sender
last announced" (or a value the receiver can recompute from the
sender's id and the round), so no payload columns ride on the outbox:
delivered rows read ``sent_*[sender]``.  That works because sends of
round ``r`` are delivered in round ``r + 1``, *before* the sender's
next announcement is written.

:func:`vector_population` is the registry lookup the runner dispatches
through.  All six library payloads are registered; anything else (the
Baswana–Sen baseline, user algorithms) runs on the reference
interpreter, and the runner announces that fallback on the telemetry
plane.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.algorithms.aggregation import BallCollect, MinIdAggregation
from repro.algorithms.base import LocalAlgorithm
from repro.algorithms.bfs import BfsLayers
from repro.algorithms.coloring import RandomizedColoring
from repro.algorithms.matching import RandomMatching
from repro.algorithms.mis import LubyMis
from repro.algorithms.runner import node_draws
from repro.local.engine import (
    PopulationInbox,
    PopulationOutbox,
    VectorProgram,
    broadcast_outbox,
    delivery_plan,
)
from repro.local.network import Network

__all__ = ["vector_population"]


def _ints_or_none(values: np.ndarray) -> dict[int, int | None]:
    """``{v: values[v]}`` as Python ints, ``None`` where negative.

    Built with whole-array ops and one ``tolist``: no per-node bytecode.
    """
    boxed = values.astype(object)
    boxed[values < 0] = None
    return dict(enumerate(boxed.tolist()))


class _AlgoPopulation(VectorProgram):
    """Shared scaffolding: incidence CSR, round budget, halting."""

    def __init__(self, algo: LocalAlgorithm, network: Network) -> None:
        self.tag = algo.name
        n = network.n
        self._n = n
        self._t = algo.rounds(n)
        self._plan = delivery_plan(network)
        self._indptr = self._plan.indptr
        self._inc = self._plan.inc
        self._degs = np.diff(self._indptr)
        # Every node halts after step t (reference `_finish` at r == t,
        # or straight from on_start when t == 0).
        self._live = 0 if self._t == 0 else n

    def _broadcast(self, nodes: np.ndarray) -> PopulationOutbox | None:
        return broadcast_outbox(self._plan, nodes)

    def _receivers(self, inbox: PopulationInbox) -> np.ndarray:
        return np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(inbox.indptr)
        )

    @staticmethod
    def _segments(inbox: PopulationInbox) -> tuple[np.ndarray, np.ndarray]:
        """``(receivers, starts)`` of the non-empty inbox segments, in
        the form ``ufunc.reduceat`` takes per-receiver reductions."""
        receivers = np.flatnonzero(np.diff(inbox.indptr))
        return receivers, inbox.indptr[receivers]

    @property
    def live(self) -> int:
        return self._live


class _VectorBfs(_AlgoPopulation):
    """:class:`BfsLayers`: dist = 1 + min over first-round arrivals."""

    def __init__(self, algo: BfsLayers, network: Network) -> None:
        super().__init__(algo, network)
        self._root = algo._root
        self._dist = np.full(self._n, -1, dtype=np.int64)
        self._dist[self._root] = 0

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._broadcast(np.asarray([self._root], dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        newly = np.empty(0, dtype=np.int64)
        if inbox.senders.size:
            uniq, starts = self._segments(inbox)
            segmin = np.minimum.reduceat(self._dist[inbox.senders], starts)
            unset = self._dist[uniq] < 0
            newly = uniq[unset]
            self._dist[newly] = segmin[unset] + 1
        if round_index >= self._t:
            self._live = 0
            return None
        return self._broadcast(newly) if newly.size else None

    def outputs(self) -> dict[int, int | None]:
        return _ints_or_none(self._dist)


class _VectorMinId(_AlgoPopulation):
    """:class:`MinIdAggregation`: broadcast the running minimum on change."""

    def __init__(self, algo: MinIdAggregation, network: Network) -> None:
        super().__init__(algo, network)
        self._best = np.arange(self._n, dtype=np.int64)
        self._sent = self._best.copy()  # value carried by in-flight messages

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        # Step 0 emits at every node (`r == 0` forces the send).
        return self._broadcast(np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        if inbox.senders.size:
            uniq, starts = self._segments(inbox)
            segmin = np.minimum.reduceat(self._sent[inbox.senders], starts)
            np.minimum.at(self._best, uniq, segmin)
        if round_index >= self._t:
            self._live = 0
            return None
        changed = np.flatnonzero(self._best != self._sent)
        if changed.size == 0:
            return None
        self._sent[changed] = self._best[changed]
        return self._broadcast(changed)

    def outputs(self) -> dict[int, int]:
        return dict(enumerate(self._best.tolist()))


class _VectorBallCollect(_AlgoPopulation):
    """:class:`BallCollect`: flood-style bitset accumulation."""

    def __init__(self, algo: BallCollect, network: Network) -> None:
        super().__init__(algo, network)
        n = self._n
        words = (n + 63) // 64
        self._known = np.zeros((n, words), dtype=np.uint64)
        idx = np.arange(n, dtype=np.int64)
        self._known[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        self._sent = self._known.copy()  # each node's last `new` bundle

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        # Step 0: `new` is the node's own id — everyone with ports emits.
        return self._broadcast(np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        emitters = np.empty(0, dtype=np.int64)
        if inbox.senders.size:
            uniq, starts = self._segments(inbox)
            orred = np.bitwise_or.reduceat(
                self._sent[inbox.senders], starts, axis=0
            )
            fresh = orred & ~self._known[uniq]
            sel = (fresh != 0).any(axis=1)
            self._known[uniq] |= fresh
            emitters = uniq[sel]
            if round_index < self._t and emitters.size:
                self._sent[emitters] = fresh[sel]
        if round_index >= self._t:
            self._live = 0
            return None
        return self._broadcast(emitters) if emitters.size else None

    def outputs(self) -> dict[int, tuple[int, ...]]:
        # One flat nonzero over the bool view (NumPy's fast path; bits
        # past n are clear) and one bulk tolist.  Row-major order lists
        # each node's members ascending.
        bits = np.unpackbits(
            self._known.view(np.uint8), axis=1, bitorder="little"
        ).view(bool)
        owners, members = np.divmod(np.flatnonzero(bits), bits.shape[1])
        ends = np.cumsum(np.bincount(owners, minlength=self._n)).tolist()
        members = members.tolist()
        return {
            v: tuple(members[start:end])
            for v, (start, end) in enumerate(zip([0, *ends], ends))
        }


# _HIGH_BITS[k]: the bits at or above position k of one uint64 word.
_HIGH_BITS = np.array(
    [((1 << 64) - 1) ^ ((1 << k) - 1) for k in range(65)], dtype=np.uint64
)
# The in-word search's halving steps: (width, mask of `width` low bits).
_HALVES = tuple(
    (np.uint64(width), np.uint64((1 << width) - 1)) for width in (32, 16, 8, 4, 2, 1)
)


def pick_free_colors(blocked: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Each column's ``draw % free``-th clear bit of ``blocked``, or ``-1``.

    ``blocked`` is a ``(words, columns)`` uint64 array holding one color
    bitset per column (color ``c`` is bit ``c & 63`` of word ``c >> 6``),
    and ``free`` counts a column's clear bits.  With the bits at or above
    a node's palette size and its neighbors' fixed colors set, this is
    the reference's ``allowed[draw % len(allowed)]`` without the list: a
    cumulative popcount over the words finds the word holding the chosen
    color, and a 6-step popcount bisection finds its bit.  A column with
    no clear bit gets ``-1``.
    """
    free = ~blocked
    words, columns = free.shape
    per_word = np.bitwise_count(free).astype(np.int64)
    ends = np.cumsum(per_word, axis=0)
    total = ends[-1]
    rank = draws % np.maximum(total, 1)
    word = np.minimum((ends <= rank).sum(axis=0), words - 1)
    column = np.arange(columns)
    rank -= ends[word, column] - per_word[word, column]
    bits = free[word, column]
    # The chosen bit is the rank-th set bit of `bits` at or above `at`;
    # each step keeps the low half of the window or passes it.
    at = np.zeros(columns, dtype=np.uint64)
    for width, mask in _HALVES:
        low = np.bitwise_count((bits >> at) & mask).astype(np.int64)
        up = rank >= low
        rank -= low * up
        at += width * up
    return np.where(total > 0, word * 64 + at.astype(np.int64), -1)


def _hold_colors(bitsets: np.ndarray, nodes: np.ndarray, colors: np.ndarray) -> None:
    """Make column ``v`` of the ``(words, n)`` ``bitsets`` hold just its
    color, for each ``v`` in ``nodes``."""
    bitsets[:, nodes] = 0
    bitsets[colors >> 6, nodes] = np.uint64(1) << (colors & 63).astype(np.uint64)


class _VectorColoring(_AlgoPopulation):
    """:class:`RandomizedColoring`: trial-color with pre-drawn tapes.

    Color sets are ``(words, n)`` uint64 bitsets over the global color
    range, one column per node.  ``_blocked`` holds the colors a node
    may not propose: the bits at or above its own palette size, set once
    at construction, plus every color a neighbor announced as fixed.  A
    proposal is :func:`pick_free_colors` over the uncolored columns — the
    reference's list indexing, without the list.  Each node's last
    message is one bit in ``_said_fixed`` or ``_said_proposal``, so a
    round folds its receiver-sorted inbox in with one
    ``np.bitwise_or.reduceat`` per word and kind, and costs
    O(messages + uncolored * words) word operations.
    """

    def __init__(
        self, algo: RandomizedColoring, network: Network, seed: int
    ) -> None:
        super().__init__(algo, network)
        n, t = self._n, self._t
        palette = self._degs + 1
        words = (int(palette.max()) + 63) // 64 if n else 1
        # The reference init draws one randrange(palette) per round 0..t.
        self._draws = node_draws(seed, n, t + 1, palette)
        self._fixed = np.full(n, -1, dtype=np.int64)
        self._proposal = np.full(n, -1, dtype=np.int64)
        low = palette - 64 * np.arange(words, dtype=np.int64)[:, None]
        self._blocked = _HIGH_BITS[np.clip(low, 0, 64)]
        self._said_fixed = np.zeros((words, n), dtype=np.uint64)
        self._said_proposal = np.zeros((words, n), dtype=np.uint64)
        self._newly = np.empty(0, dtype=np.int64)

    def _emit_round(self, r: int) -> PopulationOutbox | None:
        """Steps 3 of the reference: announce-once + proposals."""
        emit = np.zeros(self._n, dtype=bool)
        newly = self._newly
        if newly.size:
            emit[newly] = True
            _hold_colors(self._said_fixed, newly, self._fixed[newly])
            self._said_proposal[:, newly] = 0
        uncolored = np.flatnonzero(self._fixed < 0)
        if uncolored.size:
            chosen = pick_free_colors(
                self._blocked[:, uncolored], self._draws[uncolored, r]
            )
            self._proposal[uncolored] = chosen
            ok = chosen >= 0
            proposers = uncolored[ok]
            _hold_colors(self._said_proposal, proposers, chosen[ok])
            emit[proposers] = True
        emitters = np.flatnonzero(emit)
        return self._broadcast(emitters) if emitters.size else None

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._emit_round(0)

    def _fold_inbox(self, inbox: PopulationInbox) -> np.ndarray:
        """OR the fixed colors heard into ``_blocked``; return the
        ``(words, n)`` bitsets of the proposals heard."""
        heard = np.zeros_like(self._blocked)
        if not inbox.senders.size:
            return heard
        receivers, starts = self._segments(inbox)
        senders = inbox.senders
        # Last round's winners are the only senders of fixed colors.
        announced = self._newly.size > 0
        for word in range(heard.shape[0]):
            if announced:
                self._blocked[word, receivers] |= np.bitwise_or.reduceat(
                    self._said_fixed[word, senders], starts
                )
            heard[word, receivers] = np.bitwise_or.reduceat(
                self._said_proposal[word, senders], starts
            )
        return heard

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        heard = self._fold_inbox(inbox)
        # Resolve last round's proposals against proposals + fixed.
        cand = np.flatnonzero((self._fixed < 0) & (self._proposal >= 0))
        prop = self._proposal[cand]
        word = prop >> 6
        taken = (
            (self._blocked[word, cand] | heard[word, cand])
            >> (prop & 63).astype(np.uint64)
        ) & np.uint64(1)
        won = taken == 0
        self._newly = cand[won]
        self._fixed[self._newly] = prop[won]
        if round_index >= self._t:
            self._live = 0
            return None
        return self._emit_round(round_index)

    def outputs(self) -> dict[int, int | None]:
        return _ints_or_none(self._fixed)


_UNDECIDED, _IN, _OUT = 0, 1, 2
# A node's output by status, looked up for all nodes at once.
_LUBY_OUTPUTS = np.array([None, True, False], dtype=object)


class _VectorLuby(_AlgoPopulation):
    """:class:`LubyMis`: priority exchange on even rounds, winners on odd.

    An undecided node has never absorbed a ``"winner"`` (absorbing one
    makes it ``out``), so its live ports are all its ports: it announces
    on every port, and the reference's live-port filters never exclude
    a message it receives.  Even steps only ever deliver winner
    notifications and odd steps only priorities, so a delivered row's
    value is the sender's priority for the current phase.
    """

    def __init__(self, algo: LubyMis, network: Network, seed: int) -> None:
        super().__init__(algo, network)
        self._priority = node_draws(seed, self._n, algo.phases(self._n))
        self._status = np.full(self._n, _UNDECIDED, dtype=np.int8)

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._broadcast(np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        status = self._status
        phase, odd = divmod(round_index, 2)
        if odd:
            # Local maxima among the priorities heard join the MIS.
            own = self._priority[:, phase]
            wins = status == _UNDECIDED
            if inbox.senders.size:
                uniq, starts = self._segments(inbox)
                heard = np.maximum.reduceat(own[inbox.senders], starts)
                wins[uniq[heard >= own[uniq]]] = False
            emitters = np.flatnonzero(wins)
            status[emitters] = _IN
        else:
            # A winner notification knocks an undecided receiver out.
            if inbox.senders.size:
                heard = np.flatnonzero(np.diff(inbox.indptr))
                status[heard[status[heard] == _UNDECIDED]] = _OUT
            emitters = np.flatnonzero(status == _UNDECIDED)
        if round_index >= self._t:
            self._live = 0
            return None
        return self._broadcast(emitters) if emitters.size else None

    def outputs(self) -> dict[int, bool | None]:
        return dict(enumerate(_LUBY_OUTPUTS[self._status].tolist()))


class _VectorMatching(_AlgoPopulation):
    """:class:`RandomMatching`: propose, accept, confirm-and-announce.

    A node's live edges are a mask over its incidence slots (its
    incident eids, ascending), so the reference's
    ``sorted(live)[(draw >> 1) % len(live)]`` is the pick-th live slot
    of the node's segment.  A ``"matched"`` announcement clears the
    receiver's slot for that eid.  Round ``t`` is an absorb-only step
    whose effect no output reads, so it is skipped.
    """

    def __init__(
        self, algo: RandomMatching, network: Network, seed: int
    ) -> None:
        super().__init__(algo, network)
        n = self._n
        self._draws = node_draws(seed, n, algo.phases(n), 2**30)
        self._slot_live = np.ones(self._inc.size, dtype=bool)
        # (node, eid) -> incidence slot, by searchsorted on node * span + eid.
        self._span = int(self._inc.max()) + 1 if self._inc.size else 1
        self._slot_key = self._plan.owner * self._span + self._inc
        self._matched = np.full(n, -1, dtype=np.int64)
        self._proposal = np.full(n, -1, dtype=np.int64)
        self._acceptor = np.zeros(n, dtype=bool)
        self._announced = np.zeros(n, dtype=bool)

    def on_start(self) -> PopulationOutbox | None:
        if self._t == 0:
            return None
        return self._propose(0)

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        if round_index >= self._t:
            self._live = 0
            return None
        phase, stage = divmod(round_index, 3)
        if stage == 0:
            if inbox.senders.size:
                slots = np.searchsorted(
                    self._slot_key,
                    self._receivers(inbox) * self._span + inbox.eids,
                )
                self._slot_live[slots] = False
            return self._propose(phase)
        if stage == 1:
            return self._accept(inbox)
        return self._confirm(inbox)

    def _propose(self, phase: int) -> PopulationOutbox | None:
        """Stage 0: free nodes take a role; proposers pick a live edge."""
        # alive_before[i] = live slots among slots 0..i-1.
        alive_before = np.concatenate(([0], np.cumsum(self._slot_live)))
        first = alive_before[self._indptr[:-1]]
        live = alive_before[self._indptr[1:]] - first
        draw = self._draws[:, phase]
        free = (self._matched < 0) & (live > 0)
        odd = (draw & 1).astype(bool)
        self._acceptor = free & odd
        proposers = np.flatnonzero(free & ~odd)
        self._proposal.fill(-1)
        if proposers.size == 0:
            return None
        pick = (draw[proposers] >> 1) % live[proposers]
        slots = np.searchsorted(alive_before, first[proposers] + pick + 1) - 1
        eids = self._inc[slots]
        self._proposal[proposers] = eids
        return PopulationOutbox(eids=eids, senders=proposers)

    def _accept(self, inbox: PopulationInbox) -> PopulationOutbox | None:
        """Stage 1: each acceptor binds to its smallest proposing edge."""
        if not inbox.senders.size:
            return None
        uniq, starts = self._segments(inbox)
        smallest = np.minimum.reduceat(inbox.eids, starts)
        chosen = self._acceptor[uniq]
        acceptors = uniq[chosen]
        if acceptors.size == 0:
            return None
        self._matched[acceptors] = smallest[chosen]
        return PopulationOutbox(eids=smallest[chosen], senders=acceptors)

    def _confirm(self, inbox: PopulationInbox) -> PopulationOutbox | None:
        """Stage 2: accepted proposers match; new matches announce."""
        if inbox.senders.size:
            receivers = self._receivers(inbox)
            accepted = self._proposal[receivers] == inbox.eids
            self._matched[receivers[accepted]] = inbox.eids[accepted]
        fresh = np.flatnonzero((self._matched >= 0) & ~self._announced)
        self._announced[fresh] = True
        return self._broadcast(fresh) if fresh.size else None

    def outputs(self) -> dict[int, int | None]:
        return _ints_or_none(self._matched)


_BUILDERS: dict[type, Callable[..., VectorProgram]] = {
    BfsLayers: lambda algo, network, seed: _VectorBfs(algo, network),
    MinIdAggregation: lambda algo, network, seed: _VectorMinId(algo, network),
    BallCollect: lambda algo, network, seed: _VectorBallCollect(algo, network),
    RandomizedColoring: _VectorColoring,
    LubyMis: _VectorLuby,
    RandomMatching: _VectorMatching,
}


def vector_population(
    algo: LocalAlgorithm, network: Network, seed: int
) -> VectorProgram | None:
    """The vector twin of ``algo``, or ``None`` when only the reference
    interpreter can execute it (unregistered algorithm class)."""
    builder = _BUILDERS.get(type(algo))
    if builder is None:
        return None
    return builder(algo, network, seed)
