"""Tests for the message-reduction pipeline (Section 6).

The central theorem-level assertion: for every payload algorithm, on
every workload, the scheme's outputs are bit-identical to a direct
execution with the same seed.
"""

from __future__ import annotations

import pytest

from reference_distance import single_source_distances
from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomizedColoring,
    run_direct,
)
from repro.analysis.stretch import adjacent_pair_stretch
from repro.core import SamplerParams, build_spanner
from repro.graphs import erdos_renyi, torus
from repro.simulate import (
    gossip_estimate,
    run_one_stage,
    run_two_stage,
    simulate_over_spanner,
    t_local_broadcast,
    theorem3_params,
)
from repro.simulate.gossip import run_push_pull


@pytest.fixture(scope="module")
def net():
    return erdos_renyi(60, 0.18, seed=14)


@pytest.fixture(scope="module")
def spanner(net):
    return build_spanner(net, SamplerParams(k=1, h=2, seed=5))


class TestTLocalBroadcast:
    def test_coverage_contains_radius_ball(self, net, spanner):
        sub = net.subnetwork(spanner.edges)
        radius = 4
        flood = t_local_broadcast(sub, lambda v: f"m{v}", radius)
        adj = [sub.neighbors(v) for v in sub.nodes()]
        for v in net.nodes():
            ball = single_source_distances(adj, v, cutoff=radius)
            for member in ball:
                assert member in flood.collected[v]

    def test_message_bound(self, net, spanner):
        sub = net.subnetwork(spanner.edges)
        radius = 5
        flood = t_local_broadcast(sub, lambda v: v, radius)
        assert flood.total_messages <= 2 * sub.m * radius
        assert flood.rounds == radius

    def test_zero_radius(self, net, spanner):
        sub = net.subnetwork(spanner.edges)
        flood = t_local_broadcast(sub, lambda v: v, 0)
        assert flood.total_messages == 0
        assert all(flood.collected[v] == {v: v} for v in net.nodes())


PAYLOADS = [
    ("ball1", lambda: BallCollect(1)),
    ("ball2", lambda: BallCollect(2)),
    ("minid2", lambda: MinIdAggregation(2)),
    ("minid3", lambda: MinIdAggregation(3)),
    ("mis4", lambda: LubyMis(phases=4)),
    ("coloring", lambda: RandomizedColoring(phases=10)),
    ("bfs3", lambda: BfsLayers(0, 3)),
]


class TestTransformerEquality:
    @pytest.mark.parametrize("name,make", PAYLOADS, ids=[p[0] for p in PAYLOADS])
    def test_simulated_equals_direct(self, net, spanner, name, make):
        algo = make()
        direct = run_direct(net, algo, seed=21)
        sim = simulate_over_spanner(
            net, spanner.edges, spanner.stretch_bound, algo, seed=21
        )
        assert sim.outputs == direct.outputs

    def test_works_on_full_graph_as_spanner(self, net):
        algo = MinIdAggregation(2)
        direct = run_direct(net, algo, seed=3)
        sim = simulate_over_spanner(net, net.edge_ids, 1, algo, seed=3)
        assert sim.outputs == direct.outputs

    def test_simulation_rounds_are_alpha_t(self, net, spanner):
        algo = BallCollect(2)
        sim = simulate_over_spanner(
            net, spanner.edges, spanner.stretch_bound, algo, seed=3
        )
        assert sim.rounds == spanner.stretch_bound * 2

    def test_torus_payloads(self):
        tor = torus(6, 6)
        span = build_spanner(tor, SamplerParams(k=1, h=2, seed=8))
        algo = BallCollect(2)
        direct = run_direct(tor, algo, seed=4)
        sim = simulate_over_spanner(
            tor, span.edges, span.stretch_bound, algo, seed=4
        )
        assert sim.outputs == direct.outputs


class TestOneStageScheme:
    def test_theorem3_params(self):
        params = theorem3_params(2, seed=9)
        assert params.k == 2
        assert params.h == 7
        assert params.seed == 9

    def test_report_arithmetic(self, net):
        algo = MinIdAggregation(2)
        report = run_one_stage(net, algo, gamma=1, seed=2)
        assert report.total_messages == (
            report.construction_messages + report.simulation_messages
        )
        assert report.total_rounds == (
            report.construction_rounds + report.simulation_rounds
        )
        assert "one-stage" in report.summary()

    def test_outputs_match_direct(self, net):
        algo = LubyMis(phases=4)
        report = run_one_stage(net, algo, gamma=1, seed=2)
        direct = run_direct(net, algo, seed=2)
        assert report.outputs == direct.outputs


class TestTwoStageScheme:
    def test_outputs_match_direct(self, net):
        algo = BallCollect(2)
        report = run_two_stage(
            net,
            algo,
            stage1_params=SamplerParams(k=1, h=2, seed=5),
            stage2_k=2,
            seed=2,
        )
        direct = run_direct(net, algo, seed=2)
        assert report.outputs == direct.outputs

    def test_stage2_is_valid_spanner(self, net):
        report = run_two_stage(
            net,
            BallCollect(1),
            stage1_params=SamplerParams(k=1, h=2, seed=5),
            stage2_k=3,
            seed=2,
        )
        stretch = adjacent_pair_stretch(net, report.stage2_edges)
        assert stretch.unreachable_pairs == 0
        assert stretch.max_stretch <= report.stage2_stretch
        assert "two-stage" in report.summary()

    def test_totals_cover_all_stages(self, net):
        report = run_two_stage(
            net,
            BallCollect(1),
            stage1_params=SamplerParams(k=1, h=2, seed=5),
            stage2_k=2,
            seed=2,
        )
        assert report.stage1.messages is not None
        assert report.total_messages == (
            report.stage1.messages.total
            + report.stage2_sim.total_messages
            + report.payload_sim.total_messages
        )


class TestGossipBaseline:
    def test_estimate_formula(self):
        est = gossip_estimate(1024, t=4)
        assert est.rounds == 4 * 10 + 100
        assert est.messages == est.rounds * 1024
        assert est.messages_per_round == 1024

    def test_push_pull_coverage_improves_with_rounds(self):
        net = erdos_renyi(40, 0.25, seed=3)
        short = run_push_pull(net, rounds=2, t=2, seed=1)
        long = run_push_pull(net, rounds=40, t=2, seed=1)
        assert long.coverage >= short.coverage
        assert 0 < short.coverage <= 1
        # push-pull sends at most 2 messages per node per round
        assert long.messages.total <= 2 * net.n * (long.rounds + 1)
