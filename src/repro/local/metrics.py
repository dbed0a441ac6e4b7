"""Message and round metering for simulator runs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MessageStats", "RunReport"]


@dataclass
class MessageStats:
    """Exact message counters for one run.

    ``total`` counts every sent message that a fault plan did not drop,
    once.  ``by_tag`` breaks the total down by the free-form tag the
    sender attached (the distributed ``Sampler`` uses tags like
    ``"query"``, ``"bcast"``, ``"finish"`` so experiments can attribute
    cost to protocol phases).  ``dropped`` counts messages removed by a
    fault plan; they are *not* included in ``total``.  ``corrupted``
    counts messages a fault plan erased: they were sent, so they *are*
    included in ``total`` (and ``by_tag``/``per_round``), but no
    receiver saw them, so ``total == delivered + corrupted``.
    ``per_round[r]`` holds the messages recorded while round ``r`` was
    open; ``sum(per_round) == total`` is an unconditional invariant
    (metering before any :meth:`open_round` lands in an implicit
    round 0).

    ``stage_offsets`` records where merged runs begin inside
    ``per_round``: empty for a single run, and after :meth:`merge` one
    entry per constituent stage (``[0, len(stage1.per_round), ...]``).
    Index ``per_round[stage_offsets[i] + r]`` is round ``r`` *of stage
    i* — without the offsets, round indices of multi-stage schemes
    silently misalign when read as one series.
    """

    total: int = 0
    dropped: int = 0
    corrupted: int = 0
    by_tag: Counter = field(default_factory=Counter)
    per_round: list[int] = field(default_factory=list)
    stage_offsets: list[int] = field(default_factory=list)

    def record_batch(self, msgs) -> None:
        """Meter one round's messages in bulk, each under its own tag.

        Exactly equivalent to one ``record_uniform(tag, 1)`` per
        message — same ``total``, ``by_tag``, ``per_round`` — but with
        one Counter update per round instead of one per message.
        """
        count = len(msgs)
        if not count:
            return
        self.total += count
        if not self.per_round:
            # Metering before any open_round still has to land in a
            # bucket: sum(per_round) == total is an invariant.
            self.per_round.append(0)
        self.per_round[-1] += count
        # Entries are (eid, sender, payload, tag) tuples; index 3 is the tag.
        self.by_tag.update(msg[3] for msg in msgs)

    def record_uniform(self, tag: str, count: int) -> None:
        """Meter ``count`` messages that all share one ``tag``.

        The vector round engine's populations are single-tag, so one
        integer add meters a whole round with no per-message Counter
        update at all.
        """
        if not count:
            return
        self.total += count
        self.by_tag[tag] += count
        if not self.per_round:
            self.per_round.append(0)
        self.per_round[-1] += count

    def snapshot(self) -> dict:
        """Point-in-time dict view, for the obs metrics registry.

        The same ``snapshot() -> dict`` contract as ``ServiceMetrics``
        and ``StoreStats``, so a run's stats can be registered in
        ``repro.obs.registry()`` and rendered by the Prometheus
        exporter.  ``by_tag`` is a plain dict copy and ``stage_offsets``
        a list copy — mutating the snapshot never touches the live
        counters.
        """
        return {
            "total": self.total,
            "dropped": self.dropped,
            "corrupted": self.corrupted,
            "by_tag": dict(self.by_tag),
            "stage_offsets": list(self.stage_offsets),
        }

    def open_round(self) -> None:
        self.per_round.append(0)

    @property
    def rounds_with_traffic(self) -> int:
        return sum(1 for c in self.per_round if c)

    def merge(self, other: "MessageStats") -> "MessageStats":
        """Combine counters from two runs (used by multi-stage schemes).

        ``per_round`` is concatenated, and ``stage_offsets`` marks where
        each constituent run starts so per-round series can still be
        read per stage (:meth:`stage_slices`).
        """
        own_offsets = self.stage_offsets or [0]
        other_offsets = other.stage_offsets or [0]
        shift = len(self.per_round)
        merged = MessageStats(
            total=self.total + other.total,
            dropped=self.dropped + other.dropped,
            corrupted=self.corrupted + other.corrupted,
            by_tag=self.by_tag + other.by_tag,
            per_round=self.per_round + other.per_round,
            stage_offsets=own_offsets + [shift + off for off in other_offsets],
        )
        return merged

    def stage_slices(self) -> list[list[int]]:
        """``per_round`` split back into one series per merged stage."""
        offsets = self.stage_offsets or [0]
        bounds = offsets + [len(self.per_round)]
        return [
            self.per_round[start:end]
            for start, end in zip(bounds, bounds[1:])
        ]


@dataclass
class RunReport:
    """Outcome of one synchronous run.

    ``rounds`` is the number of communication rounds executed (the round
    in which ``on_start`` fires is round 0 and is not counted as a
    communication round unless messages were exchanged afterwards).
    ``outputs`` maps node id to whatever the node program exposed via its
    ``output()`` hook.
    """

    rounds: int
    messages: MessageStats
    outputs: dict[int, Any]
    halted: bool

    @property
    def total_messages(self) -> int:
        return self.messages.total

    def summary(self) -> str:
        return (
            f"rounds={self.rounds} messages={self.messages.total} "
            f"(dropped={self.messages.dropped}, "
            f"corrupted={self.messages.corrupted}) halted={self.halted}"
        )
