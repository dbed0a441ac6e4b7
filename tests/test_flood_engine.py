"""Equivalence tests for the fast flood (DESIGN.md §3.5).

:func:`t_local_broadcast` derives :class:`FloodReport` from CSR
frontier sweeps; :func:`runtime_flood` simulates the literal flood
round by round (its per-node oracle is ``tests/reference_runtime.py``).
The contract: *equal reports* — collected sets, rounds, and the full
``MessageStats`` (total, ``by_tag``, ``per_round``) — on every tested
family × radius × seed combination, identical simulation outcomes from
:func:`simulate_over_spanner` and :func:`runtime_simulation`, and a
fault plan that injects nothing running the derivation, as no plan does.
"""

from __future__ import annotations

import pytest

import reference_distance as oracle
from reference_runtime import literal_simulation
from repro.algorithms import BallCollect, LubyMis, MinIdAggregation, run_direct
from repro.core import SamplerParams, build_spanner
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.local import FaultPlan
from repro.simulate import (
    flood_schedule,
    run_one_stage,
    run_two_stage,
    runtime_flood,
    runtime_simulation,
    simulate_over_spanner,
    t_local_broadcast,
)

FAMILIES = [
    ("gnp", lambda seed: erdos_renyi(60, 0.1, seed=seed)),
    ("torus", lambda seed: torus(7, 7)),
    ("ba", lambda seed: barabasi_albert(60, 3, seed=seed)),
]


def _spanner_sub(net, seed):
    result = build_spanner(net, SamplerParams(k=1, h=2, seed=seed))
    return net.subnetwork(result.edges), result


class TestEngineEquivalence:
    @pytest.mark.parametrize("family,make", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 6])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_flood_reports_equal(self, family, make, radius, seed):
        net = make(seed)
        sub, _ = _spanner_sub(net, seed)
        fast = t_local_broadcast(sub, lambda v: (v, "p"), radius)
        slow = runtime_flood(sub, lambda v: (v, "p"), radius)
        assert fast.collected == slow.collected
        assert fast.rounds == slow.rounds
        assert fast.messages.total == slow.messages.total
        assert fast.messages.by_tag == slow.messages.by_tag
        assert fast.messages.per_round == slow.messages.per_round
        assert fast == slow  # full dataclass equality, nothing forgotten

    @pytest.mark.parametrize("family,make", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_simulation_outcomes_equal(self, family, make):
        net = make(3)
        sub, result = _spanner_sub(net, 3)
        for algo in (BallCollect(2), MinIdAggregation(2), LubyMis(phases=3)):
            fast = simulate_over_spanner(
                net, result.edges, result.stretch_bound, algo, seed=11
            )
            slow = runtime_simulation(
                net, result.edges, result.stretch_bound, algo, seed=11
            )
            assert fast.outputs == slow.outputs
            assert fast.messages == slow.messages
            assert fast.rounds == slow.rounds
            assert fast.radius == slow.radius
            assert fast.mean_reports == slow.mean_reports

    def test_under_flooded_radius_still_matches_runtime(self):
        """With a radius below alpha*t some balls are not covered; the
        fast path must fall back to the literal per-center replay and
        stay output-identical to ``runtime_simulation``."""
        net = erdos_renyi(40, 0.08, seed=9)
        sub, result = _spanner_sub(net, 9)
        algo = BallCollect(2)
        for radius in (0, 1, 2):
            fast = simulate_over_spanner(
                net, result.edges, result.stretch_bound, algo, seed=7, radius=radius
            )
            slow = runtime_simulation(
                net, result.edges, result.stretch_bound, algo, seed=7, radius=radius
            )
            assert fast.outputs == slow.outputs
            assert fast.messages == slow.messages

    def test_noop_plan_takes_the_derivation(self, monkeypatch):
        """A plan that injects nothing is no fault plan: both entry
        points answer on the derivation, equal to no plan at all."""
        import repro.simulate.tlocal as tlocal_module
        import repro.simulate.transformer as transformer_module

        def refuse(*args, **kwargs):
            raise AssertionError("a no-op plan reached the literal path")

        monkeypatch.setattr(tlocal_module, "runtime_flood", refuse)
        monkeypatch.setattr(transformer_module, "runtime_simulation", refuse)
        net = erdos_renyi(40, 0.1, seed=2)
        sub, result = _spanner_sub(net, 2)
        none = FaultPlan.none()
        assert t_local_broadcast(sub, lambda v: v, 3, faults=none) == (
            t_local_broadcast(sub, lambda v: v, 3)
        )
        algo = MinIdAggregation(2)
        assert simulate_over_spanner(
            net, result.edges, result.stretch_bound, algo, seed=4, faults=none
        ) == simulate_over_spanner(net, result.edges, result.stretch_bound, algo, seed=4)

    @pytest.mark.parametrize("family,make", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_distance_engines_agree_through_broadcast(self, family, make):
        """The derived FloodReport, on the vector distance plane, is the
        one the oracle's frontier-list BFS implies."""
        net = make(4)
        sub, _ = _spanner_sub(net, 4)
        report = t_local_broadcast(sub, lambda v: (v, "p"), 3)
        schedule = oracle.flood_schedule(sub, 3)
        assert report.collected == {
            v: {origin: (origin, "p") for origin in ball}
            for v, ball in enumerate(schedule.balls)
        }
        assert report.messages == schedule.messages
        assert report.rounds == schedule.rounds


class TestFloodSchedule:
    def test_balls_are_radius_balls(self):
        net = erdos_renyi(50, 0.09, seed=4)
        sub, _ = _spanner_sub(net, 4)
        adj = [sub.neighbors(v) for v in sub.nodes()]
        schedule = flood_schedule(sub, 3)
        for v in sub.nodes():
            assert schedule.balls[v] == frozenset(
                oracle.single_source_distances(adj, v, cutoff=3)
            )

    def test_ecc_is_capped_eccentricity(self):
        net = torus(5, 5)  # diameter 4 (wraparound grid)
        schedule = flood_schedule(net, 10)
        assert all(e == 4 for e in schedule.ecc)
        capped = flood_schedule(net, 3)
        assert all(e == 3 for e in capped.ecc)

    def test_message_stats_invariants(self):
        net = erdos_renyi(50, 0.09, seed=4)
        sub, _ = _spanner_sub(net, 4)
        schedule = flood_schedule(sub, 4)
        stats = schedule.messages
        assert sum(stats.per_round) == stats.total
        assert stats.per_round[0] == 2 * sub.m
        assert stats.per_round[-1] == 0  # final-round sends are undelivered
        assert stats.by_tag["flood"] == stats.total
        assert stats.total <= 2 * sub.m * 4

    def test_zero_radius(self):
        net = torus(4, 4)
        schedule = flood_schedule(net, 0)
        assert schedule.messages.total == 0
        assert schedule.rounds == 0
        assert all(ball == {v} for v, ball in enumerate(schedule.balls))


class TestSchemesThroughEngines:
    """The one- and two-stage pipelines produce identical reports on the
    derivation and on the literal path (outputs also equal direct)."""

    def test_one_stage(self):
        net = erdos_renyi(60, 0.18, seed=14)
        algo = MinIdAggregation(2)
        params = SamplerParams(k=1, h=2, seed=5)
        fast = run_one_stage(net, algo, params=params, seed=2)
        with literal_simulation():
            slow = run_one_stage(net, algo, params=params, seed=2)
        direct = run_direct(net, algo, seed=2)
        assert fast.outputs == slow.outputs == direct.outputs
        assert fast.total_messages == slow.total_messages
        assert fast.total_rounds == slow.total_rounds

    def test_two_stage(self):
        net = erdos_renyi(60, 0.18, seed=14)
        algo = BallCollect(2)
        params = SamplerParams(k=1, h=2, seed=5)
        fast = run_two_stage(net, algo, stage1_params=params, stage2_k=2, seed=2)
        with literal_simulation():
            slow = run_two_stage(
                net, algo, stage1_params=params, stage2_k=2, seed=2
            )
        direct = run_direct(net, algo, seed=2)
        assert fast.outputs == slow.outputs == direct.outputs
        assert fast.stage2_edges == slow.stage2_edges
        assert fast.total_messages == slow.total_messages
        assert fast.total_rounds == slow.total_rounds
