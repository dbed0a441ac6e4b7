"""Tests for the randomized maximal matching payload."""

from __future__ import annotations

import pytest

from repro.algorithms import run_direct, run_inprocess
from repro.algorithms.matching import RandomMatching
from repro.core import SamplerParams, build_spanner
from repro.simulate import simulate_over_spanner


def assert_valid_matching(net, outputs, *, require_maximal: bool) -> None:
    matched_edges = {out for out in outputs.values() if out is not None}
    for eid in matched_edges:
        u, v = net.endpoints(eid)
        assert outputs[u] == eid, f"edge {eid} not symmetric at {u}"
        assert outputs[v] == eid, f"edge {eid} not symmetric at {v}"
    if require_maximal:
        free = {v for v, out in outputs.items() if out is None}
        for v in free:
            assert all(u not in free for u in net.neighbors(v)), (
                f"free nodes {v} and a free neighbor violate maximality"
            )


class TestMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_and_maximal(self, er_medium, seed):
        outputs = run_inprocess(er_medium, RandomMatching(), seed=seed)
        assert_valid_matching(er_medium, outputs, require_maximal=True)

    def test_direct_equals_inprocess(self, er_small):
        algo = RandomMatching(phases=10)
        direct = run_direct(er_small, algo, seed=3)
        assert direct.outputs == run_inprocess(er_small, algo, seed=3)

    def test_path_graph(self, path4):
        outputs = run_inprocess(path4, RandomMatching(), seed=1)
        assert_valid_matching(path4, outputs, require_maximal=True)
        assert sum(1 for o in outputs.values() if o is not None) >= 2

    def test_star_matches_exactly_one_leaf(self, star6):
        outputs = run_inprocess(star6, RandomMatching(), seed=2)
        assert_valid_matching(star6, outputs, require_maximal=True)
        assert outputs[0] is not None
        matched_leaves = [v for v in range(1, 6) if outputs[v] is not None]
        assert len(matched_leaves) == 1

    def test_through_message_reduction_scheme(self, er_small):
        algo = RandomMatching(phases=6)
        spanner = build_spanner(er_small, SamplerParams(k=1, h=2, seed=5))
        direct = run_direct(er_small, algo, seed=9)
        sim = simulate_over_spanner(
            er_small, spanner.edges, spanner.stretch_bound, algo, seed=9
        )
        assert sim.outputs == direct.outputs
