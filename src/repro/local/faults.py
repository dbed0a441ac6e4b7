"""Deterministic fault injection for kernel-level testing.

The LOCAL model itself is failure-free; these hooks exist to test that
the simulator's bookkeeping (delivery, counting) is airtight and to let
users experiment with robustness of protocols built on the kernel.
Faults are deterministic functions of ``(round, eid, sender)`` — the
sender pins down the direction of travel over the edge — so runs remain
reproducible.

Two fault kinds share the same coin discipline:

* **drops** remove a message entirely (it is metered as ``dropped``,
  never delivered);
* **corruption** erases a message in flight: it was sent, so it is
  metered in ``total`` (and ``by_tag``/``per_round``) and counted as
  ``corrupted``, but no receiver ever sees it — a checksummed transport
  discards what fails its check.

:meth:`FaultPlan.fates` decides both for one round's messages, for
every round engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.rng import stable_uniform

__all__ = ["FaultPlan", "DropRule", "CorruptRule"]

DropRule = Callable[[int, int, int], bool]
"""``rule(round_index, eid, sender) -> bool``: True drops the message."""

CorruptRule = Callable[[int, int, int], bool]
"""``rule(round_index, eid, sender) -> bool``: True erases the message."""


@dataclass(frozen=True)
class FaultPlan:
    """Decides the fate of the message ``sender`` sent in ``round`` over
    ``eid``.

    ``drop_probability`` applies a seeded Bernoulli coin per
    ``(round, eid, sender)`` — i.e. per direction of the edge; ``rule``
    allows arbitrary deterministic drop predicates over the same triple.
    Either (or both) may be used.  ``corrupt_probability`` and
    ``corrupt_rule`` mirror the same discipline for erasure; the
    corruption coin is drawn from an independent stream (key prefix
    ``"corrupt"`` instead of ``"drop"``), so drop and corruption
    decisions never correlate through the shared seed.

    Evaluation order (see :meth:`fates`): the drop decision is made
    first — a dropped message is gone and is **never** also corrupted —
    and within each decision the deterministic rule is consulted
    *before* the probability coin (see :meth:`drops`).
    """

    drop_probability: float = 0.0
    seed: int = 0
    rule: DropRule | None = None
    corrupt_probability: float = 0.0
    corrupt_rule: CorruptRule | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not 0.0 <= self.corrupt_probability <= 1.0:
            raise ValueError("corrupt_probability must be in [0, 1]")

    @property
    def is_noop(self) -> bool:
        """True when no message can ever be dropped or corrupted (the
        round engines skip :meth:`fates` entirely on this fast path)."""
        return not (self.can_drop or self.can_corrupt)

    @property
    def can_drop(self) -> bool:
        """True when some message *could* drop (rule or nonzero coin)."""
        return self.rule is not None or self.drop_probability > 0.0

    @property
    def can_corrupt(self) -> bool:
        """True when some message *could* be erased."""
        return self.corrupt_rule is not None or self.corrupt_probability > 0.0

    def drops(self, round_index: int, eid: int, sender: int) -> bool:
        """Whether the message is lost.

        The deterministic ``rule`` is evaluated first; only when it
        declines (or is absent) does the seeded coin
        ``stable_uniform(seed, ("drop", round, eid, sender))`` decide —
        so a rule hit never consumes nor depends on the coin, and the
        coin stream is identical whether or not a rule is installed.
        """
        if self.rule is not None and self.rule(round_index, eid, sender):
            return True
        if self.drop_probability > 0.0:
            coin = stable_uniform(self.seed, ("drop", round_index, eid, sender))
            return coin < self.drop_probability
        return False

    def corrupts(self, round_index: int, eid: int, sender: int) -> bool:
        """Whether the (undropped) message is erased.

        Same rule-before-coin discipline as :meth:`drops`, over the
        independent ``("corrupt", round, eid, sender)`` stream.
        """
        if self.corrupt_rule is not None and self.corrupt_rule(
            round_index, eid, sender
        ):
            return True
        if self.corrupt_probability > 0.0:
            coin = stable_uniform(self.seed, ("corrupt", round_index, eid, sender))
            return coin < self.corrupt_probability
        return False

    def fates(
        self, round_index: int, eids: Sequence[int], senders: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(dropped, erased)`` masks of one round's messages.

        Message ``i`` went out over ``eids[i]`` from ``senders[i]``.
        :meth:`drops` is asked of every message first, in order, then
        :meth:`corrupts` of the survivors only, in order, so no message
        is in both masks and adding corruption never shifts the drop
        coins.
        """
        count = len(eids)
        dropped = np.zeros(count, dtype=bool)
        if self.can_drop:
            drops = partial(self.drops, round_index)
            dropped = np.fromiter(map(drops, eids, senders), dtype=bool, count=count)
        erased = np.zeros(count, dtype=bool)
        if self.can_corrupt:
            corrupts = partial(self.corrupts, round_index)
            erased = np.fromiter(
                (
                    not lost and corrupts(eid, sender)
                    for eid, sender, lost in zip(eids, senders, dropped.tolist())
                ),
                dtype=bool,
                count=count,
            )
        return dropped, erased

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()
