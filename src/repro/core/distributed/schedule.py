"""The global phase schedule of the distributed ``Sampler``.

Every level ``j`` consists of fixed-length windows sized by the cluster
tree height bound ``H_j = (3^j - 1) / 2`` of Lemma 8:

========== =============== ====================================================
phase       length          purpose
========== =============== ====================================================
GATHER      ``H_j + 1``     convergecast member edge lists + finish payloads
SCATTER     ``H_j + 1``     leader broadcasts cluster id and live edge list
PLAN        ``H_j + 1``     leader broadcasts the trial's sampled query edges
QUERY       1               owners send query messages over sampled edges
RESPONSE    1               queried endpoints reply (cid, active, edge list)
COLLECT     ``H_j + 1``     convergecast responses back to the leader
STATUS      ``H_j + 1``     leader flips center coin, broadcasts status + F
STATUS_REQ  1               F-edge owners exchange cluster/center status
STATUS_REP  1               replies to the above
CAND        ``H_j + 1``     convergecast center candidates (non-center only)
JOIN        ``H_j + 1``     leader broadcasts stay / join / finish decision
ATTACH      1               joining edge owner notifies the center side
REROOT      ``2 H_j + 2``   re-root flood over the joiner's old tree
FINISH      1               finished clusters announce over their F edges
========== =============== ====================================================

PLAN/QUERY/RESPONSE/COLLECT repeat ``2h`` times per level; the
STATUS..FINISH block is skipped at the final level ``k``.  A 1-round END
phase closes the run.  The total is ``O(3^k * h)`` rounds — Theorem 11's
round complexity — and is a deterministic function of ``(k, h)``; a run
whose clusters all finish below level ``k`` halts earlier.  The tests
assert :meth:`Schedule.halting_round` equals the measured round count.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Sequence

from repro.core.params import SamplerParams
from repro.core.trace import LevelTrace

__all__ = ["PhaseKind", "Phase", "Schedule", "tree_height_bound"]


def tree_height_bound(level: int) -> int:
    """Lemma 8: height of a level-``j`` cluster tree is at most ``(3^j - 1)/2``."""
    return (3**level - 1) // 2


class PhaseKind(enum.Enum):
    GATHER = "gather"
    SCATTER = "scatter"
    PLAN = "plan"
    QUERY = "query"
    RESPONSE = "response"
    COLLECT = "collect"
    STATUS = "status"
    STATUS_REQ = "status_req"
    STATUS_REP = "status_rep"
    CAND = "cand"
    JOIN = "join"
    ATTACH = "attach"
    REROOT = "reroot"
    FINISH = "finish"
    END = "end"


@dataclass(frozen=True)
class Phase:
    kind: PhaseKind
    level: int
    trial: int  # 1-based trial index for PLAN..COLLECT, else 0
    start: int  # first round of the phase (rounds are 1-based)
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length - 1


class Schedule:
    """Immutable list of phases with O(log) round-to-phase lookup."""

    def __init__(self, phases: list[Phase]) -> None:
        self._phases = phases
        self._starts = [p.start for p in phases]
        self.total_rounds = phases[-1].end if phases else 0
        # One shared tuple: every node of a run registers this same
        # object as its wake schedule, so the per-node cost is a pointer.
        self._phase_starts = tuple(self._starts)
        self._start_of: dict[tuple[PhaseKind, int, int], int] = {
            (p.kind, p.level, p.trial): p.start for p in phases
        }
        # CAND is in the skeleton because *every* node acts at its start
        # whenever it is not a center — including a node whose status
        # broadcast was lost (faulty runs), which still opens an empty
        # candidate convergecast exactly like the dense loop's poll.
        self._skeleton = tuple(
            p.start
            for p in phases
            if p.kind is PhaseKind.GATHER
            or p.kind is PhaseKind.CAND
            or p.kind is PhaseKind.END
        )
        self._leader_rounds: dict[int, tuple[int, ...]] = {}
        self._trial_wakes: dict[
            tuple[int, int], tuple[tuple[int, int], tuple[int]]
        ] = {}
        self._memo_round = -1
        self._memo_result: tuple[Phase, int] | None = None

    @classmethod
    def build(cls, params: SamplerParams) -> "Schedule":
        phases: list[Phase] = []
        next_round = 1

        def add(kind: PhaseKind, level: int, trial: int, length: int) -> None:
            nonlocal next_round
            phases.append(
                Phase(kind=kind, level=level, trial=trial, start=next_round, length=length)
            )
            next_round += length

        for level in range(params.levels):
            window = tree_height_bound(level) + 1
            add(PhaseKind.GATHER, level, 0, window)
            add(PhaseKind.SCATTER, level, 0, window)
            for trial in range(1, params.trials + 1):
                add(PhaseKind.PLAN, level, trial, window)
                add(PhaseKind.QUERY, level, trial, 1)
                add(PhaseKind.RESPONSE, level, trial, 1)
                add(PhaseKind.COLLECT, level, trial, window)
            if level < params.k:
                add(PhaseKind.STATUS, level, 0, window)
                add(PhaseKind.STATUS_REQ, level, 0, 1)
                add(PhaseKind.STATUS_REP, level, 0, 1)
                add(PhaseKind.CAND, level, 0, window)
                add(PhaseKind.JOIN, level, 0, window)
                add(PhaseKind.ATTACH, level, 0, 1)
                add(PhaseKind.REROOT, level, 0, 2 * tree_height_bound(level) + 2)
                add(PhaseKind.FINISH, level, 0, 1)
        add(PhaseKind.END, params.k, 0, 1)
        return cls(phases)

    def phase_at(self, round_index: int) -> tuple[Phase, int]:
        """The phase covering ``round_index`` and the relative round within it.

        One-slot memo: all nodes stepped in a synchronous round ask for
        the same round, so a run does one bisect per *round* instead of
        one per *step*.
        """
        if round_index == self._memo_round:
            return self._memo_result
        if not 1 <= round_index <= self.total_rounds:
            raise ValueError(f"round {round_index} outside schedule")
        idx = bisect.bisect_right(self._starts, round_index) - 1
        phase = self._phases[idx]
        result = (phase, round_index - phase.start)
        self._memo_round = round_index
        self._memo_result = result
        return result

    @property
    def phases(self) -> tuple[Phase, ...]:
        return tuple(self._phases)

    # ------------------------------------------------------------------
    # wake-round helpers (active-set scheduling, DESIGN.md §3.6)
    # ------------------------------------------------------------------
    @property
    def phase_starts(self) -> tuple[int, ...]:
        """First round of every phase, ascending (one shared tuple)."""
        return self._phase_starts

    def next_phase_start(self, round_index: int) -> int | None:
        """Smallest phase start strictly after ``round_index`` (or None)."""
        idx = bisect.bisect_right(self._starts, round_index)
        return self._starts[idx] if idx < len(self._starts) else None

    def start_of(self, kind: PhaseKind, level: int, trial: int = 0) -> int:
        """First round of the unique ``(kind, level, trial)`` phase."""
        try:
            return self._start_of[(kind, level, trial)]
        except KeyError:
            raise ValueError(
                f"no {kind.value} phase at level {level}, trial {trial}"
            ) from None

    def halting_round(self, levels: Sequence[LevelTrace]) -> int:
        """The round a run with these levels halts in: END, unless no
        cluster of a level ``j < k`` becomes a center.  Then every
        cluster finishes there, level ``j + 1`` is empty, every node
        halts at level ``j``'s FINISH, and the run ends there, or one
        round later, where the finish messages sent at FINISH arrive.
        """
        for level in levels[:-1]:
            if not level.centers:
                finishing = any(
                    level.nodes[vid].f_active for vid in level.unclustered
                )
                return self.start_of(PhaseKind.FINISH, level.level) + finishing
        return self.total_rounds

    def skeleton_wake_rounds(self) -> tuple[int, ...]:
        """The wake rounds *every* node needs unconditionally.

        Every ``SamplerProgram`` acts spontaneously at each level's
        GATHER start (open the member convergecast), at each CAND start
        (every non-center opens the candidate convergecast — with its
        *default* state when the status broadcast was lost, exactly as
        the dense loop would), and at END (halt).  Everything else
        is either leader-only (:meth:`leader_wake_rounds`), conditional
        on state whose *absence* makes the dense step a no-op too —
        plan, status, join handlers register the follow-up round via
        ``Context.sleep_until`` / ``wake_me_at`` — or an inbound
        message, which wakes a sleeping node on its own.  One shared
        tuple serves all ``n`` nodes.
        """
        return self._skeleton

    def leader_wake_rounds(self, level: int) -> tuple[int, ...]:
        """Rounds where the *leader* of a level-``level`` cluster acts
        spontaneously regardless of its trial machine's state: SCATTER
        and (below the final level) STATUS and JOIN.  Cached per level;
        leadership is stable within a level, so registering at GATHER
        start is exact.  PLAN starts are deliberately absent: they are
        registered one trial at a time (at SCATTER for trial 1, at each
        COLLECT completion for the next) and only while the leader's
        ``TrialMachine.wants_trial()`` still holds — the guard is
        monotone, so a leader that stops trialing never wakes for the
        remaining trial windows.
        """
        cached = self._leader_rounds.get(level)
        if cached is None:
            kinds = (PhaseKind.SCATTER, PhaseKind.STATUS, PhaseKind.JOIN)
            cached = tuple(
                sorted(
                    p.start
                    for p in self._phases
                    if p.level == level and p.kind in kinds
                )
            )
            self._leader_rounds[level] = cached
        return cached

    def trial_wake_rounds(
        self, level: int, trial: int
    ) -> tuple[tuple[int, int], tuple[int]]:
        """Shared wake tuples for a live ``(level, trial)``: the pair is
        ``((QUERY start, COLLECT start), (COLLECT start,))`` — the first
        for members owning plan edges, the second for everyone else.
        Cached so every cluster member registers the same tuple objects.
        """
        cached = self._trial_wakes.get((level, trial))
        if cached is None:
            query = self.start_of(PhaseKind.QUERY, level, trial)
            collect = self.start_of(PhaseKind.COLLECT, level, trial)
            cached = ((query, collect), (collect,))
            self._trial_wakes[(level, trial)] = cached
        return cached

    def rounds_bound(self, params: SamplerParams) -> int:
        """A closed-form ``O(3^k h)`` upper bound used in tests."""
        return 30 * 3**params.k * (params.h + 1) + 30
