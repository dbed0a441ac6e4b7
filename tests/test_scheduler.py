"""The active-set runtime contract (DESIGN.md §3.6).

Two pillars:

1. **Equivalence** — the runtime, which steps only the active set, and
   the seed's dense loop of ``tests/reference_runtime.py``, which steps
   every non-halted node every round, produce identical
   :class:`~repro.local.metrics.RunReport`s (outputs, rounds, ``total``,
   ``by_tag``, ``per_round``, ``halted``) for the distributed
   ``Sampler`` and every simulate path, across graph families × seeds,
   including runs with fault plans and ``fixed_rounds``.  Parameters
   named ``scheduler`` pick ``"active"`` (the runtime) or ``"dense"``
   (the oracle).
2. **Quiescence** — sleeping nodes are genuinely not stepped on
   empty-inbox rounds, inbound messages always wake them, and the wake
   API enforces its declared invariants.
"""

from __future__ import annotations

import pytest

from repro.algorithms import BallCollect, MinIdAggregation
from repro.algorithms.runner import run_direct
from repro.core import SamplerParams
from repro.core.distributed import build_spanner_distributed
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.errors import ProtocolError
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.local import FaultPlan, Network, NodeProgram
from repro.local.runtime import run_program
from repro.simulate import run_one_stage, run_two_stage, runtime_flood, t_local_broadcast
from repro.simulate.gossip import run_push_pull
from reference_runtime import (
    dense_program,
    literal_simulation,
    reference_direct,
    reference_engines,
    reference_flood,
    reference_push_pull,
    unregistered,
)

FAMILIES = {
    "gnp": lambda: erdos_renyi(60, 0.12, seed=5),
    "torus": lambda: torus(8, 8),
    "ba": lambda: barabasi_albert(64, 2, seed=7),
}
SEEDS = (0, 1, 2)
RUN = {"active": run_program, "dense": dense_program}


def assert_reports_equal(dense, active):
    assert dense.outputs == active.outputs
    assert dense.rounds == active.rounds
    assert dense.halted == active.halted
    assert dense.messages.total == active.messages.total
    assert dense.messages.by_tag == active.messages.by_tag
    assert dense.messages.per_round == active.messages.per_round
    assert dense.messages.dropped == active.messages.dropped


def run_sampler(net, params, scheduler):
    schedule = Schedule.build(params)
    return RUN[scheduler](
        net,
        lambda node: SamplerProgram(node, params, schedule),
        seed=params.seed,
        max_rounds=schedule.total_rounds + 2,
        n_hint=net.n,
    )


class TestSamplerEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_runreport_identical(self, family, seed):
        net = FAMILIES[family]()
        params = SamplerParams(k=2, h=2, seed=seed)
        dense = run_sampler(net, params, "dense")
        active = run_sampler(net, params, "active")
        assert_reports_equal(dense, active)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spanner_results_identical(self, family):
        net = FAMILIES[family]()
        params = SamplerParams(k=1, h=3, seed=11, c_query=0.7, c_target=1.0)
        with reference_engines() as calls:
            dense = build_spanner_distributed(net, params)
        assert calls["dense"] == 1
        active = build_spanner_distributed(net, params)
        assert dense.edges == active.edges
        assert dense.rounds == active.rounds
        assert dense.trace.signature() == active.trace.signature()
        assert dense.messages.per_round == active.messages.per_round

    @pytest.mark.parametrize("drop_seed", (9, 17, 23))
    def test_sampler_under_faults(self, er_small, drop_seed):
        plan = FaultPlan(drop_probability=0.02, seed=drop_seed)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(scheduler):
            return RUN[scheduler](
                er_small,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=er_small.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
            )

        # Dropped broadcasts can strand convergecasts, so run under a
        # fixed budget: the scheduler contract must hold regardless.
        try:
            dense = run("dense")
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as active_exc:
                run("active")
            assert str(active_exc.value) == str(exc)
            return
        active = run("active")
        assert_reports_equal(dense, active)
        assert dense.messages.dropped > 0


class TestSimulatePathsEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_flood_runtime_engine(self, family, seed):
        # The flood draws no randomness, so the seed picks the radius.
        net = FAMILIES[family]()
        active = runtime_flood(net, payload_of=lambda v: ("ball", v), radius=seed + 1)
        dense = reference_flood(net, lambda v: ("ball", v), seed + 1)
        assert dense.collected == active.collected
        assert dense.rounds == active.rounds
        assert dense.messages.total == active.messages.total
        assert dense.messages.per_round == active.messages.per_round
        assert dense.messages.by_tag == active.messages.by_tag

    @pytest.mark.parametrize("seed", SEEDS)
    def test_direct_runner(self, er_small, seed):
        algo = MinIdAggregation(2)
        dense = reference_direct(er_small, algo, seed=seed)
        active = run_direct(er_small, algo, seed=seed)
        assert dense.outputs == active.outputs
        assert dense.rounds == active.rounds
        assert dense.messages.total == active.messages.total
        assert dense.messages.per_round == active.messages.per_round

    def test_direct_runner_with_isolated_nodes(self):
        # 0-1 edge plus isolated nodes 2, 3: the degree-0 fast path must
        # not change rounds, outputs, or metering on either loop.
        net = Network.from_edge_pairs(4, [(0, 1)])
        algo = MinIdAggregation(2)
        dense = reference_direct(net, algo, seed=1)
        active = run_direct(net, unregistered(algo), seed=1)
        assert active == run_direct(net, algo, seed=1)
        assert dense.outputs == active.outputs
        assert dense.rounds == active.rounds == algo.rounds(net.n)
        assert dense.messages.total == active.messages.total

    def test_direct_runner_on_edgeless_network(self):
        # All nodes isolated: precomputed nodes must still halt at round
        # t on both loops (the dense one steps them every round).
        net = Network.from_edge_pairs(3, [])
        algo = BallCollect(4)
        dense = reference_direct(net, algo, seed=1)
        active = run_direct(net, unregistered(algo), seed=1)
        assert active == run_direct(net, algo, seed=1)
        assert dense.outputs == active.outputs
        assert dense.rounds == active.rounds == algo.rounds(net.n)
        assert dense.messages.per_round == active.messages.per_round

    @pytest.mark.parametrize("seed", SEEDS)
    def test_push_pull_gossip(self, er_small, seed):
        dense = reference_push_pull(er_small, rounds=6, t=2, seed=seed)
        active = run_push_pull(er_small, rounds=6, t=2, seed=seed)
        assert dense.coverage == active.coverage
        assert dense.rounds == active.rounds
        assert dense.messages.total == active.messages.total
        assert dense.messages.per_round == active.messages.per_round

    def test_one_and_two_stage_schemes(self, monkeypatch):
        # The process-default store would price both constructions.
        monkeypatch.delenv("REPRO_STORE", raising=False)
        net = erdos_renyi(80, 0.15, seed=13)
        params = SamplerParams(k=1, h=2, seed=7, c_query=0.7, c_target=1.0)
        payload = BallCollect(2)
        with reference_engines() as calls:
            one_d = run_one_stage(net, payload, params=params, seed=5)
            two_d = run_two_stage(
                net, payload, stage1_params=params, stage2_k=3, seed=5
            )
        assert calls["dense"] == 2 and calls["flood"] == 3
        with literal_simulation():
            one_a = run_one_stage(net, payload, params=params, seed=5)
            two_a = run_two_stage(
                net, payload, stage1_params=params, stage2_k=3, seed=5
            )
        assert one_d.outputs == one_a.outputs
        assert one_d.total_messages == one_a.total_messages
        assert one_d.total_rounds == one_a.total_rounds
        assert two_d.outputs == two_a.outputs
        assert two_d.total_messages == two_a.total_messages
        assert two_d.stage2_edges == two_a.stage2_edges

    def test_runtime_engine_matches_fast_engine_under_active(self):
        net = erdos_renyi(70, 0.12, seed=3)
        fast = t_local_broadcast(net, lambda v: v, radius=3)
        runtime = runtime_flood(net, lambda v: v, radius=3)
        assert fast.collected == runtime.collected
        assert fast.messages.total == runtime.messages.total
        assert fast.messages.per_round == runtime.messages.per_round


class _Sleeper(NodeProgram):
    """Sleeps forever after on_start; counts its steps."""

    steps = 0

    def on_start(self, ctx):
        ctx.sleep_until(None)

    def on_round(self, ctx, inbox):
        type(self).steps += 1


class _TimerProgram(NodeProgram):
    """Wakes at declared rounds only; records the rounds it saw."""

    def __init__(self, wake_at):
        self.seen: list[int] = []
        self._wake_at = wake_at

    def on_start(self, ctx):
        ctx.wake_me_at(self._wake_at)

    def on_round(self, ctx, inbox):
        self.seen.append(ctx.round)
        if ctx.round >= self._wake_at[-1]:
            ctx.halt()

    def output(self):
        return tuple(self.seen)


class TestWakeContract:
    def test_sleeping_nodes_not_stepped_on_empty_rounds(self, path4):
        _Sleeper.steps = 0
        report = run_program(path4, lambda n: _Sleeper(), seed=0, fixed_rounds=5)
        assert _Sleeper.steps == 0
        assert report.rounds == 5
        # dense steps them every round; outputs are still identical
        _Sleeper.steps = 0
        dense = dense_program(path4, lambda n: _Sleeper(), seed=0, fixed_rounds=5)
        assert _Sleeper.steps == 4 * 5
        assert dense.rounds == report.rounds
        assert dense.messages.per_round == report.messages.per_round

    def test_wake_me_at_schedule_is_honoured(self, path4):
        report = run_program(path4, lambda n: _TimerProgram((2, 5, 7)), seed=0)
        assert report.rounds == 7
        assert all(out == (2, 5, 7) for out in report.outputs.values())

    def test_message_wakes_sleeper_early(self):
        net = Network.from_edge_pairs(2, [(0, 1)])

        class Poker(NodeProgram):
            def on_start(self, ctx):
                ctx.send(ctx.ports[0], "poke")
                ctx.halt()

            def on_round(self, ctx, inbox):
                pass

        class Sleepy(NodeProgram):
            def __init__(self):
                self.woken_at: list[tuple[int, int]] = []

            def on_start(self, ctx):
                ctx.wake_me_at((9,))

            def on_round(self, ctx, inbox):
                self.woken_at.append((ctx.round, len(inbox)))
                if ctx.round >= 9:
                    ctx.halt()

            def output(self):
                return tuple(self.woken_at)

        report = run_program(net, lambda n: Poker() if n == 0 else Sleepy(), seed=0)
        # woken once by the message at round 1, again by the timer at 9
        assert report.outputs[1] == ((1, 1), (9, 0))

    def test_sleep_until_past_round_raises(self, path4):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                ctx.sleep_until(0)

            def on_round(self, ctx, inbox):
                pass

        with pytest.raises(ProtocolError):
            run_program(path4, lambda n: Bad(), seed=0)

    def test_unsorted_bulk_schedule_raises(self, path4):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_me_at((5, 3))

            def on_round(self, ctx, inbox):
                pass

        with pytest.raises(ProtocolError):
            run_program(path4, lambda n: Bad(), seed=0)

    def test_wake_cancels_sleep(self, path4):
        class Napper(NodeProgram):
            def __init__(self):
                self.steps = 0

            def on_start(self, ctx):
                ctx.sleep_until(3)

            def on_round(self, ctx, inbox):
                self.steps += 1
                ctx.wake()  # back to dense stepping
                if ctx.round >= 5:
                    ctx.halt()

            def output(self):
                return self.steps

        report = run_program(path4, lambda n: Napper(), seed=0)
        # slept through rounds 1-2, then stepped 3, 4, 5
        assert all(out == 3 for out in report.outputs.values())
        assert report.rounds == 5


class _ReactiveEcho(NodeProgram):
    """Halts reactively at start; answers every message once."""

    def on_start(self, ctx):
        ctx.halt(reactive=True)

    def on_round(self, ctx, inbox):
        for msg in inbox:
            ctx.send(msg.port, ("echo", msg.payload), tag="echo")


class _Prober(NodeProgram):
    """Sends probes for a few rounds; collects echoes."""

    def __init__(self, rounds):
        self._rounds = rounds
        self.got = []

    def on_start(self, ctx):
        for port in ctx.ports:
            ctx.send(port, 0, tag="probe")

    def on_round(self, ctx, inbox):
        for msg in inbox:
            self.got.append((ctx.round, msg.port, msg.payload))
        if ctx.round < self._rounds:
            for port in ctx.ports:
                ctx.send(port, ctx.round, tag="probe")
        else:
            ctx.halt()

    def output(self):
        return tuple(self.got)


class TestReactiveFaultsFixedRoundsInterplay:
    """Reactive halt × FaultPlan × fixed_rounds on the runtime and the
    dense loop."""

    @pytest.mark.parametrize("scheduler", ("dense", "active"))
    @pytest.mark.parametrize("fixed", (None, 0, 3, 6))
    def test_reactive_echo_under_fault_plan(self, star6, scheduler, fixed):
        plan = FaultPlan(
            drop_probability=0.3,
            seed=5,
            rule=lambda r, eid, sender: (r + eid) % 5 == 0,
        )
        report = RUN[scheduler](
            star6,
            lambda n: _Prober(4) if n == 0 else _ReactiveEcho(),
            seed=2,
            faults=plan,
            fixed_rounds=fixed,
        )
        assert sum(report.messages.per_round) == report.messages.total
        if fixed is not None:
            assert report.rounds == fixed

    @pytest.mark.parametrize("fixed", (None, 0, 3, 6))
    def test_schedulers_agree_under_fault_plan(self, star6, fixed):
        def run(scheduler):
            plan = FaultPlan(
                drop_probability=0.3,
                seed=5,
                rule=lambda r, eid, sender: (r + eid) % 5 == 0,
            )
            return RUN[scheduler](
                star6,
                lambda n: _Prober(4) if n == 0 else _ReactiveEcho(),
                seed=2,
                faults=plan,
                fixed_rounds=fixed,
            )

        assert_reports_equal(run("dense"), run("active"))

    @pytest.mark.parametrize("scheduler", ("dense", "active"))
    def test_fixed_rounds_discards_final_sends_unmetered(self, path4, scheduler):
        report = RUN[scheduler](path4, lambda n: _Prober(10), seed=0, fixed_rounds=2)
        delivered = sum(len(out) for out in report.outputs.values())
        assert report.messages.total == delivered
