"""Tests for the Baswana–Sen baseline."""

from __future__ import annotations

import pytest

from repro.algorithms import run_direct, run_inprocess
from repro.analysis.stretch import adjacent_pair_stretch
from repro.baselines import BaswanaSenLocal, baswana_sen_messages_estimate
from repro.errors import ConfigurationError
from repro.graphs import complete_graph, erdos_renyi


def baswana_sen_spanner(network, k, seed=0):
    """The spanner edge set: the union of a replayed run's node outputs."""
    outputs = run_inprocess(network, BaswanaSenLocal(k=k, coin_seed=seed), seed=seed)
    return frozenset().union(*outputs.values())


class TestSpannerProperties:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stretch_bound(self, er_medium, k):
        edges = baswana_sen_spanner(er_medium, k=k, seed=3)
        report = adjacent_pair_stretch(er_medium, edges)
        assert report.unreachable_pairs == 0
        assert report.max_stretch <= 2 * k - 1

    def test_k1_keeps_everything(self, er_small):
        edges = baswana_sen_spanner(er_small, k=1, seed=3)
        assert edges == frozenset(er_small.edge_ids)

    def test_sparsifies_dense_graphs(self):
        net = complete_graph(80)
        edges = baswana_sen_spanner(net, k=3, seed=1)
        assert len(edges) < 0.5 * net.m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expected_size_scaling(self, seed):
        # O(k n^{1+1/k}) expected; allow a generous constant
        net = erdos_renyi(150, 0.3, seed=9)
        k = 2
        edges = baswana_sen_spanner(net, k=k, seed=seed)
        assert len(edges) <= 6 * k * net.n ** (1 + 1 / k)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError):
            BaswanaSenLocal(k=0)


class TestDistributedTwin:
    def test_direct_run_matches_centralized(self, er_medium):
        algo = BaswanaSenLocal(k=3, coin_seed=7)
        direct = run_direct(er_medium, algo, seed=7)
        union = set()
        for added in direct.outputs.values():
            union.update(added)
        assert frozenset(union) == baswana_sen_spanner(er_medium, k=3, seed=7)

    def test_direct_message_cost_is_theta_m_per_round(self, er_medium):
        k = 3
        algo = BaswanaSenLocal(k=k, coin_seed=7)
        direct = run_direct(er_medium, algo, seed=7)
        assert direct.total_messages == baswana_sen_messages_estimate(er_medium, k)
        assert direct.rounds == k

    def test_determinism(self, er_small):
        a = baswana_sen_spanner(er_small, k=2, seed=5)
        b = baswana_sen_spanner(er_small, k=2, seed=5)
        c = baswana_sen_spanner(er_small, k=2, seed=6)
        assert a == b
        assert a != c or len(a) == er_small.m  # different coins, different spanner
