"""``t``-local broadcast over a spanner (Lemma 12).

Every node starts with a message ``M_v`` and must deliver it to every
node within ``t`` hops *in G*.  Given an ``alpha``-spanner ``H``, nodes
at ``G``-distance ``t`` are at ``H``-distance at most ``alpha * t``, so
flooding ``H`` for ``alpha * t`` rounds solves the task.  Messages:
each node forwards only items it has not forwarded before, and items
travelling over an edge in the same round are aggregated into one
message (the LOCAL model does not meter message size), so the total is
at most ``2 |S| * alpha * t`` — the bound used in the proof of
Lemma 12.

Two paths compute the outcome (DESIGN.md §3.5), and the input picks
one:

* without a fault plan (or under one that injects nothing),
  :func:`t_local_broadcast` derives the :class:`FloodReport` directly
  from batched CSR frontier sweeps (the distance plane, DESIGN.md
  §3.7): the flood is a deterministic function of the spanner and the
  radius, so collected sets are radius-balls in ``H`` and the exact
  message counts follow from first-learn rounds — node ``v`` forwards
  on all of its ``deg(v)`` ports in round ``r`` iff some item first
  reached it in round ``r``, i.e. iff ``r`` is at most ``v``'s
  (radius-capped) eccentricity in ``H``.  No ``Inbound``/``Outbound``
  object is ever allocated.
* :func:`runtime_flood` simulates the literal forward-new-items flood
  round by round (:class:`_VectorFlood`, a bitset population on the
  vector round engine, DESIGN.md §3.10).  It is what runs under a
  fault plan that drops or erases messages, and the derivation's
  oracle: the test suite asserts report equality between the two
  across graph families, radii, and seeds, and holds the population
  equal to the per-node flood program of ``tests/reference_runtime.py``.

The derivation's sweeps have one implementation; the test suite holds
its :class:`FloodSchedule` equal to one built on the seed's
frontier-list BFS (``tests/reference_distance.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.graphs.distance import BallFamily, balls_and_eccentricities
from repro.local.engine import (
    PopulationInbox,
    PopulationOutbox,
    VectorProgram,
    VectorRuntime,
    broadcast_outbox,
    delivery_plan,
)
from repro.local.metrics import MessageStats
from repro.local.network import Network

__all__ = [
    "FloodReport",
    "FloodSchedule",
    "flood_schedule",
    "flood_stats",
    "runtime_flood",
    "t_local_broadcast",
]


@dataclass(frozen=True)
class FloodReport:
    """Outcome of one flooding pass."""

    collected: dict[int, dict[int, Any]]  # node -> {origin: payload}
    messages: MessageStats
    rounds: int

    @property
    def total_messages(self) -> int:
        return self.messages.total


@dataclass(frozen=True)
class FloodSchedule:
    """Array-native flood summary: who learns what, and what it costs.

    ``balls[v]`` is the set of origins ``v`` collects (its radius-ball in
    the spanner, itself included); ``ecc[v]`` is ``v``'s radius-capped
    eccentricity — the last round in which anything *new* reached ``v``,
    hence the last round in which ``v`` forwards.  ``messages``/``rounds``
    are exactly what the literal runtime meters for the same flood.

    ``balls`` is a :class:`~repro.graphs.distance.BallFamily`: it
    indexes and iterates as frozensets, but stays bit-packed so schedule
    derivation never materializes millions of Python sets unless a
    consumer actually asks for them.
    """

    balls: Sequence[frozenset[int]]
    ecc: tuple[int, ...]
    messages: MessageStats
    rounds: int

    def mean_ball_size(self) -> float:
        balls = self.balls
        if isinstance(balls, BallFamily):
            total = int(balls.sizes().sum())
        else:
            total = sum(len(b) for b in balls)
        return total / max(1, len(balls))


class _VectorFlood(VectorProgram):
    """Forward-new-items flooding with per-edge aggregation, as a bitset
    population.

    Round 0 sends every node's own item on all of its ports; afterwards
    a node forwards, on all of its ports and bundled into one message
    per edge, exactly the items it learnt in the previous round, so a
    round with nothing new sends nothing.  A bundle the fault plan
    erases is metered but never arrives.

    Per-node knowledge is one row of an ``(n, ceil(n/64))`` uint64
    matrix; a round is a segment-OR of the senders' last bundles into
    each receiver, one ``& ~known`` for freshness, and one broadcast
    outbox over the emitters' ports.  Payload identity is implicit:
    ``fresh[sender]`` at delivery time *is* the bundle the reference
    program would have packed, so messages carry no data columns.
    """

    tag = "flood"

    def __init__(
        self, network: Network, payload_of: Callable[[int], Any], rounds: int
    ) -> None:
        n = network.n
        self._n = n
        self._payloads = [payload_of(v) for v in range(n)]
        self._rounds = rounds
        self._plan = delivery_plan(network)
        words = (n + 63) // 64
        self._known = np.zeros((n, words), dtype=np.uint64)
        idx = np.arange(n, dtype=np.int64)
        self._known[idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        # The bundle each node put in its most recent emission; stale
        # rows are never read (only emitters appear as senders).
        self._fresh = self._known.copy()
        self._live = 0 if rounds <= 0 else n

    def on_start(self) -> PopulationOutbox | None:
        if self._rounds <= 0:
            return None
        return broadcast_outbox(self._plan, np.arange(self._n, dtype=np.int64))

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        senders = inbox.senders
        if senders.size == 0:
            return None
        receivers = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(inbox.indptr)
        )
        starts = np.flatnonzero(
            np.r_[True, receivers[1:] != receivers[:-1]]
        )
        orred = np.bitwise_or.reduceat(self._fresh[senders], starts, axis=0)
        uniq = receivers[starts]
        new = orred & ~self._known[uniq]
        emit_sel = (new != 0).any(axis=1)
        if not emit_sel.any():
            return None
        self._known[uniq] |= new
        emitters = uniq[emit_sel]
        self._fresh[emitters] = new[emit_sel]
        return broadcast_outbox(self._plan, emitters)

    def outputs(self) -> dict[int, dict[int, Any]]:
        n = self._n
        payloads = self._payloads
        # Dedup identical balls first: past the saturation radius most
        # rows converge to the same component bitset, and nodes with
        # equal balls can share one payload dict (treat outputs as
        # read-only).  Then one whole-matrix nonzero + one bulk tolist
        # and dicts from C zips — per-node flatnonzero with per-element
        # numpy boxing would dominate the run once balls approach n.
        uniq, inverse = np.unique(self._known, axis=0, return_inverse=True)
        bits = np.unpackbits(
            uniq.view(np.uint8), axis=1, bitorder="little"
        )[:, :n]
        owners, members = np.nonzero(bits)
        ends = np.cumsum(
            np.bincount(owners, minlength=uniq.shape[0])
        ).tolist()
        members_list = members.tolist()
        dicts: list[dict[int, Any]] = []
        start = 0
        for end in ends:
            seg = members_list[start:end]
            dicts.append(dict(zip(seg, map(payloads.__getitem__, seg))))
            start = end
        inv = inverse.tolist()
        return {v: dicts[inv[v]] for v in range(n)}

    @property
    def live(self) -> int:
        return self._live


def flood_schedule(spanner: Network, radius: int) -> FloodSchedule:
    """Compute the flood's outcome without simulating it.

    One batched truncated BFS over the spanner (the distance plane,
    :func:`repro.graphs.distance.balls_and_eccentricities`) yields
    every node's collected ball and capped eccentricity; the exact
    per-round message counts follow in one suffix-sum pass:

    * round 0 sends one message per port at every node (``2|S|`` total);
    * round ``1 <= r < radius`` sends ``deg(v)`` messages for every
      ``v`` whose BFS layer ``r`` is non-empty, i.e. ``ecc[v] >= r``;
    * round ``radius`` sends are never delivered and are not metered
      (the runtime discards them the same way).
    """
    n = spanner.n
    balls, ecc = balls_and_eccentricities(spanner, radius)
    degs = [spanner.degree(v) for v in range(n)]
    return FloodSchedule(
        balls=balls,
        ecc=tuple(ecc),
        messages=flood_stats(ecc, degs, radius),
        rounds=max(0, radius),
    )


def flood_stats(ecc: Sequence[int], degs: Sequence[int], radius: int) -> MessageStats:
    """Exact flood message counters from capped eccentricities + degrees.

    The suffix-sum derivation documented on :func:`flood_schedule`,
    factored out so artifacts that cache per-node distances (the store's
    ``FloodProfile``) re-derive stats for any truncated radius through
    the *same* code path — equality with a fresh schedule is structural,
    not coincidental.
    """
    n = len(degs)
    stats = MessageStats()
    if radius > 0:
        per_round = [0] * (radius + 1)
        per_round[0] = sum(degs)
        if radius > 1:
            # deg mass by capped eccentricity, then suffix-sum so
            # per_round[r] = sum of deg(v) over v with ecc[v] >= r.
            deg_by_ecc = [0] * (radius + 1)
            for v in range(n):
                deg_by_ecc[ecc[v]] += degs[v]
            running = 0
            for e in range(radius, 0, -1):
                running += deg_by_ecc[e]
                if e < radius:
                    per_round[e] = running
        total = sum(per_round)
        stats.total = total
        stats.per_round = per_round
        if total:
            stats.by_tag = Counter({"flood": total})
    else:
        stats.per_round = [0]
    return stats


def runtime_flood(
    spanner: Network,
    payload_of: Callable[[int], Any],
    radius: int,
    *,
    faults=None,
) -> FloodReport:
    """Flood each node's payload ``radius`` hops through ``spanner``,
    round by round.

    The literal flood on the vector round engine: every message is
    sent, metered and, under ``faults`` (a
    :class:`~repro.local.faults.FaultPlan`), dropped or erased as the
    plan decides.  Without faults its report equals the derivation of
    :func:`t_local_broadcast`.
    """
    report = VectorRuntime(
        spanner,
        _VectorFlood(spanner, payload_of, radius),
        fixed_rounds=radius,
        max_rounds=radius + 1,
        faults=faults,
    ).run()
    return FloodReport(
        collected=report.outputs,
        messages=report.messages,
        rounds=report.rounds,
    )


def t_local_broadcast(
    spanner: Network,
    payload_of: Callable[[int], Any],
    radius: int,
    *,
    faults=None,
) -> FloodReport:
    """Flood each node's payload ``radius`` hops through ``spanner``.

    ``spanner`` is typically ``network.subnetwork(S)``; payloads opaque.
    The report is derived from batched CSR sweeps
    (:func:`flood_schedule`).  A ``faults`` plan (a
    :class:`~repro.local.faults.FaultPlan`) that can drop or erase a
    message runs the literal flood instead (:func:`runtime_flood`): the
    derivation describes the failure-free flood only.
    """
    if faults is not None and not faults.is_noop:
        return runtime_flood(spanner, payload_of, radius, faults=faults)
    schedule = flood_schedule(spanner, radius)
    payloads = [payload_of(v) for v in range(spanner.n)]
    collected = {
        v: {origin: payloads[origin] for origin in ball}
        for v, ball in enumerate(schedule.balls)
    }
    return FloodReport(
        collected=collected,
        messages=schedule.messages,
        rounds=schedule.rounds,
    )
