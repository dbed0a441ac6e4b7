"""Tests for the payload LOCAL algorithms and their runners."""

from __future__ import annotations

import networkx as nx
import pytest

from reference_distance import single_source_distances
from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomizedColoring,
    run_direct,
    run_inprocess,
)

ALGOS = [
    ("ball2", lambda n: BallCollect(2)),
    ("ball0", lambda n: BallCollect(0)),
    ("minid3", lambda n: MinIdAggregation(3)),
    ("mis", lambda n: LubyMis(phases=6)),
    ("coloring", lambda n: RandomizedColoring(phases=24)),
    ("bfs", lambda n: BfsLayers(0, 4)),
]


class TestBackendEquality:
    @pytest.mark.parametrize("name,make", ALGOS, ids=[a[0] for a in ALGOS])
    def test_direct_equals_inprocess(self, workload, name, make):
        algo = make(workload.n)
        direct = run_direct(workload, algo, seed=5)
        fast = run_inprocess(workload, algo, seed=5)
        assert direct.outputs == fast

    def test_direct_rounds_equal_t(self, er_small):
        algo = MinIdAggregation(3)
        direct = run_direct(er_small, algo, seed=1)
        assert direct.rounds == algo.rounds(er_small.n)

    def test_zero_round_algorithm(self, er_small):
        algo = BallCollect(0)
        direct = run_direct(er_small, algo, seed=1)
        assert direct.total_messages == 0
        assert direct.outputs == {v: (v,) for v in er_small.nodes()}


class TestBallCollect:
    def test_matches_true_balls(self, er_small):
        t = 2
        outputs = run_inprocess(er_small, BallCollect(t), seed=0)
        adj = [er_small.neighbors(v) for v in er_small.nodes()]
        for v in er_small.nodes():
            ball = sorted(single_source_distances(adj, v, cutoff=t))
            assert outputs[v] == tuple(ball)


class TestMinId:
    def test_matches_ball_minimum(self, er_small):
        t = 3
        balls = run_inprocess(er_small, BallCollect(t), seed=0)
        minids = run_inprocess(er_small, MinIdAggregation(t), seed=0)
        for v in er_small.nodes():
            assert minids[v] == min(balls[v])


class TestLubyMis:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_mis(self, er_medium, seed):
        outputs = run_inprocess(er_medium, LubyMis(), seed=seed)
        assert all(out is not None for out in outputs.values())
        in_mis = {v for v, out in outputs.items() if out}
        for eid in er_medium.edge_ids:
            u, v = er_medium.endpoints(eid)
            assert not (u in in_mis and v in in_mis), "MIS not independent"
        for v in er_medium.nodes():
            if v not in in_mis:
                assert any(u in in_mis for u in er_medium.neighbors(v)), (
                    "MIS not maximal"
                )

    def test_isolated_node_joins(self, disconnected):
        outputs = run_inprocess(disconnected, LubyMis(phases=6), seed=0)
        assert outputs[6] is True  # the isolated node has no competitors


class TestColoring:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_proper_coloring_within_palette(self, er_medium, seed):
        outputs = run_inprocess(er_medium, RandomizedColoring(), seed=seed)
        assert all(color is not None for color in outputs.values())
        for eid in er_medium.edge_ids:
            u, v = er_medium.endpoints(eid)
            assert outputs[u] != outputs[v]
        for v in er_medium.nodes():
            assert 0 <= outputs[v] <= er_medium.degree(v)


class TestBfsLayers:
    def test_matches_networkx(self, er_small):
        t = 4
        outputs = run_inprocess(er_small, BfsLayers(0, t), seed=0)
        truth = nx.single_source_shortest_path_length(
            er_small.to_networkx(), 0, cutoff=t
        )
        for v in er_small.nodes():
            assert outputs[v] == truth.get(v)

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            BfsLayers(0, -1)
        with pytest.raises(ValueError):
            BallCollect(-1)
        with pytest.raises(ValueError):
            MinIdAggregation(-2)
