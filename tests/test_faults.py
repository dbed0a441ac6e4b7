"""Message-corruption faults: determinism, ordering, metering (§3.9).

A corrupted message is an erasure: it is metered in ``total`` (and
``by_tag``/``per_round``) and counted as ``corrupted``, but no receiver
ever sees it, on the runtime and on the dense loop alike.
"""

from __future__ import annotations

import pytest

import reference_runtime
from reference_runtime import dense_program
from repro.local import FaultPlan, NodeProgram
from repro.local.metrics import MessageStats
from repro.local.runtime import run_program

# The runtime steps only the active set; the dense loop of
# tests/reference_runtime.py is its oracle.
RUN = {"active": run_program, "dense": dense_program}


class Collector(NodeProgram):
    """Echo once, record every received payload."""

    def __init__(self, rounds: int = 1) -> None:
        self.rounds = rounds
        self.received: list[object] = []
        self._r = 0

    def on_start(self, ctx):
        for port in ctx.ports:
            ctx.send(port, ("data", ctx.node), tag="test")

    def on_round(self, ctx, inbox):
        self._r += 1
        self.received.extend(msg.payload for msg in inbox)
        if self._r >= self.rounds:
            ctx.halt()

    def output(self):
        return tuple(self.received)


class Sleeper(NodeProgram):
    """Send on every port in round 0, then wait for mail: asleep
    (``sleep_until(None)``) or halted reactively, so that only a
    delivery steps the node.  Outputs how often it was stepped."""

    def __init__(self, reactive: bool) -> None:
        self.reactive = reactive
        self.steps = 0

    def on_start(self, ctx):
        for port in ctx.ports:
            ctx.send(port, ctx.node, tag="test")
        if self.reactive:
            ctx.halt(reactive=True)
        else:
            ctx.sleep_until(None)

    def on_round(self, ctx, inbox):
        self.steps += 1

    def output(self):
        return self.steps


ERASE_ALL = FaultPlan(corrupt_rule=lambda r, eid, sender: True)


class TestCorruptionSemantics:
    @pytest.mark.parametrize("loop", ("active", "dense"))
    def test_erased_message_reaches_no_inbox(self, path4, loop):
        report = RUN[loop](path4, lambda n: Collector(), seed=0, faults=ERASE_ALL)
        # every message is sent and metered, and none is delivered
        assert report.messages.total == 2 * path4.m
        assert report.messages.corrupted == 2 * path4.m
        assert report.messages.by_tag == {"test": 2 * path4.m}
        assert report.messages.per_round == [2 * path4.m, 0]
        assert report.messages.dropped == 0
        assert all(out == () for out in report.outputs.values())

    # The dense loop steps every live node every round, so there only a
    # reactively halted node waits for mail.
    @pytest.mark.parametrize(
        "loop, reactive", [("active", False), ("active", True), ("dense", True)]
    )
    def test_erased_message_wakes_no_sleeper(self, path4, loop, reactive):
        def run(faults):
            return RUN[loop](
                path4, lambda n: Sleeper(reactive), fixed_rounds=2, faults=faults
            )

        clean, erased = run(None), run(ERASE_ALL)
        assert set(clean.outputs.values()) == {1}  # mail wakes every node
        assert set(erased.outputs.values()) == {0}
        assert erased.messages.total == erased.messages.corrupted == 2 * path4.m
        assert erased.messages.per_round == clean.messages.per_round

    def test_envelope_survives_corruption(self, path4):
        """Edge/tag metering is untouched: an erased message is metered
        as if it had been delivered."""
        plan = FaultPlan(corrupt_probability=1.0, seed=1)
        clean = run_program(path4, lambda n: Collector(), seed=0)
        dirty = run_program(path4, lambda n: Collector(), seed=0, faults=plan)
        assert dirty.messages.total == clean.messages.total
        assert dirty.messages.by_tag == clean.messages.by_tag
        assert dirty.messages.per_round == clean.messages.per_round

    def test_drop_beats_corruption(self, er_small):
        """A dropped message is never also corrupted."""
        plan = FaultPlan(
            rule=lambda r, eid, sender: True,
            corrupt_probability=1.0,
            seed=2,
        )
        report = run_program(er_small, lambda n: Collector(), seed=0, faults=plan)
        assert report.messages.dropped == 2 * er_small.m
        assert report.messages.total == 0
        assert report.messages.corrupted == 0

    def test_corruption_never_shifts_drop_coins(self, er_small):
        """Adding corruption must not change which messages drop."""
        drops_only = FaultPlan(drop_probability=0.4, seed=7)
        both = FaultPlan(drop_probability=0.4, seed=7, corrupt_probability=0.6)
        r1 = run_program(er_small, lambda n: Collector(), seed=0, faults=drops_only)
        r2 = run_program(er_small, lambda n: Collector(), seed=0, faults=both)
        assert r1.messages.dropped == r2.messages.dropped
        assert r1.messages.total == r2.messages.total
        assert r2.messages.corrupted > 0

    def test_corruption_is_deterministic(self, er_small):
        plan = FaultPlan(corrupt_probability=0.5, seed=9)
        r1 = run_program(er_small, lambda n: Collector(), seed=0, faults=plan)
        r2 = run_program(er_small, lambda n: Collector(), seed=0, faults=plan)
        assert r1.outputs == r2.outputs
        assert r1.messages.corrupted == r2.messages.corrupted
        assert 0 < r1.messages.corrupted < 2 * er_small.m

    def test_rule_is_consulted_before_the_coin(self):
        """A rule hit never consumes the coin: for triples the rule
        declines, the decision is identical with or without a rule."""
        coin_only = FaultPlan(corrupt_probability=0.5, seed=4)
        with_rule = FaultPlan(
            corrupt_probability=0.5,
            seed=4,
            corrupt_rule=lambda r, eid, sender: eid == 0,
        )
        for r in range(4):
            for eid in range(6):
                for sender in range(4):
                    if eid == 0:
                        assert with_rule.corrupts(r, eid, sender)
                    else:
                        assert with_rule.corrupts(r, eid, sender) == coin_only.corrupts(
                            r, eid, sender
                        )

    def test_corrupt_and_drop_streams_are_independent(self):
        """Same seed, same triple: the two decisions use distinct keys."""
        plan = FaultPlan(drop_probability=0.5, corrupt_probability=0.5, seed=11)
        triples = [(r, e, s) for r in range(6) for e in range(6) for s in range(2)]
        drops = [plan.drops(*t) for t in triples]
        corrupts = [plan.corrupts(*t) for t in triples]
        assert drops != corrupts  # identical streams would correlate fully

    @pytest.mark.parametrize("fixed", (None, 3))
    def test_schedulers_agree_under_corruption(self, er_small, fixed):
        def run(scheduler):
            plan = FaultPlan(
                drop_probability=0.2,
                corrupt_probability=0.3,
                seed=5,
                corrupt_rule=lambda r, eid, sender: (r + eid) % 5 == 0,
            )
            return RUN[scheduler](
                er_small,
                lambda n: Collector(rounds=3),
                seed=2,
                faults=plan,
                fixed_rounds=fixed,
            )

        dense, active = run("dense"), run("active")
        assert dense.outputs == active.outputs
        assert dense.messages.total == active.messages.total
        assert dense.messages.dropped == active.messages.dropped
        assert dense.messages.corrupted == active.messages.corrupted
        assert dense.messages.per_round == active.messages.per_round


class TestFaultPlanSurface:
    def test_is_noop_covers_all_four_knobs(self):
        assert FaultPlan.none().is_noop
        assert not FaultPlan(drop_probability=0.1).is_noop
        assert not FaultPlan(rule=lambda r, e, s: False).is_noop
        assert not FaultPlan(corrupt_probability=0.1).is_noop
        assert not FaultPlan(corrupt_rule=lambda r, e, s: False).is_noop

    def test_invalid_corrupt_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(corrupt_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_probability=-0.1)

    def test_fates_asks_corrupts_of_survivors_only(self):
        asked = []

        def corrupt_rule(r, eid, sender):
            asked.append((eid, sender))
            return eid % 2 == 0

        plan = FaultPlan(
            drop_probability=0.5, seed=3, corrupt_rule=corrupt_rule
        )
        eids = list(range(40))
        senders = [eid % 3 for eid in eids]
        dropped, erased = plan.fates(5, eids, senders)
        assert dropped.tolist() == [plan.drops(5, e, s) for e, s in zip(eids, senders)]
        assert 0 < dropped.sum() < len(eids)
        survivors = [(e, s) for e, s, d in zip(eids, senders, dropped) if not d]
        assert asked == survivors
        assert erased.tolist() == [
            not d and e % 2 == 0 for e, d in zip(eids, dropped.tolist())
        ]
        none_dropped, none_erased = FaultPlan.none().fates(5, eids, senders)
        assert not none_dropped.any() and not none_erased.any()

    def test_stats_merge_carries_corrupted(self):
        a, b = MessageStats(), MessageStats()
        a.record_uniform("t", 1)
        a.corrupted += 1
        b.record_uniform("t", 1)
        b.corrupted += 2
        merged = MessageStats.merge(a, b)
        assert merged.corrupted == 3
        assert merged.total == 2  # an erased message was sent


class _SpyStats(MessageStats):
    """MessageStats that counts its ``record_batch`` calls, in all and
    in its busiest round."""

    def __init__(self) -> None:
        super().__init__()
        self.batch_calls = 0
        self.busiest = 0
        self._this_round = 0

    def open_round(self):
        super().open_round()
        self._this_round = 0

    def record_batch(self, msgs):
        self.batch_calls += 1
        self._this_round += 1
        self.busiest = max(self.busiest, self._this_round)
        super().record_batch(msgs)


class TestBatchedMetering:
    """Every plan takes the one batched collect path: outboxes move
    whole and metering is one ``record_batch`` per round, never one per
    message; the plan only holds back what it drops or erases."""

    @staticmethod
    def spy_on_stats(monkeypatch) -> list[_SpyStats]:
        import repro.local.runtime as runtime_mod

        spies: list[_SpyStats] = []

        def make_spy():
            spy = _SpyStats()
            spies.append(spy)
            return spy

        monkeypatch.setattr(runtime_mod, "MessageStats", make_spy)
        monkeypatch.setattr(reference_runtime, "MessageStats", make_spy)
        return spies

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    def test_corrupt_only_never_meters_per_message(self, path4, scheduler, monkeypatch):
        spies = self.spy_on_stats(monkeypatch)
        plan = FaultPlan(corrupt_probability=0.5, seed=7)
        report = RUN[scheduler](path4, lambda n: Collector(2), seed=0, faults=plan)
        assert spies, "runtime did not construct its stats object"
        assert max(s.busiest for s in spies) == 1
        assert sum(s.batch_calls for s in spies) > 0
        assert report.messages.total > 0
        assert report.messages.corrupted > 0

    @pytest.mark.parametrize("loop", ("active", "dense"))
    @pytest.mark.parametrize(
        "plan",
        (
            FaultPlan.none(),
            FaultPlan(drop_probability=0.3, seed=7),
            FaultPlan(drop_probability=0.3, corrupt_probability=0.3, seed=7),
        ),
        ids=("none", "drops", "both"),
    )
    def test_every_plan_meters_per_round(self, path4, plan, loop, monkeypatch):
        spies = self.spy_on_stats(monkeypatch)
        report = RUN[loop](path4, lambda n: Collector(2), seed=0, faults=plan)
        assert max(s.busiest for s in spies) == 1
        assert sum(s.batch_calls for s in spies) > 0
        assert report.messages.total > 0
        assert (report.messages.dropped > 0) == plan.can_drop

    def test_corrupt_only_report_matches_per_message_semantics(self, path4):
        # The batched path meters what per-message metering would: the
        # same counters on the runtime and the dense loop, and every
        # metered message either delivered or erased.
        plan = FaultPlan(corrupt_probability=0.4, seed=11)
        active = run_program(path4, lambda n: Collector(2), seed=0, faults=plan)
        dense = dense_program(path4, lambda n: Collector(2), seed=0, faults=plan)
        assert active.messages.total == dense.messages.total
        assert active.messages.per_round == dense.messages.per_round
        assert active.messages.corrupted == dense.messages.corrupted
        assert active.outputs == dense.outputs
        delivered = sum(len(out) for out in active.outputs.values())
        assert 0 < delivered < active.messages.total
        assert active.messages.total == delivered + active.messages.corrupted
