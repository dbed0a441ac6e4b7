"""Integration tests for the centralized Sampler driver."""

from __future__ import annotations

import pytest

from repro.analysis import adjacent_pair_stretch, validate_spanner
from repro.core import NodeLabel, SamplerParams, build_spanner
from repro.core.sampler import SamplerRun
from repro.errors import SimulationError
from repro.graphs import complete_graph


class TestBasicInvariants:
    def test_spanner_is_subgraph(self, workload, default_params):
        result = build_spanner(workload, default_params)
        assert result.edges <= set(workload.edge_ids)

    def test_stretch_bound_holds(self, workload, default_params):
        result = build_spanner(workload, default_params)
        report = adjacent_pair_stretch(workload, result.edges)
        assert report.unreachable_pairs == 0
        assert report.max_stretch <= result.stretch_bound

    def test_validation_passes(self, workload, default_params):
        validate_spanner(build_spanner(workload, default_params))

    def test_size_envelope(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        assert result.size <= default_params.size_envelope(er_medium.n)

    def test_populations_strictly_structured(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        populations = result.trace.populations
        assert populations[0] == er_medium.n
        assert len(populations) == default_params.levels
        assert all(p >= 0 for p in populations)

    def test_levels_record_labels_for_all_nodes(self, er_small, default_params):
        result = build_spanner(er_small, default_params)
        level0 = result.trace.level(0)
        assert set(level0.nodes) == set(range(er_small.n))
        assert level0.population == er_small.n


class TestClusterStructure:
    def test_tree_heights_respect_lemma8(self, er_medium):
        params = SamplerParams(k=3, h=2, seed=5)
        result = build_spanner(er_medium, params)
        for level in result.trace.levels:
            bound = (3**level.level - 1) // 2
            for height in level.cluster_heights.values():
                assert height <= bound

    def test_joins_reference_centers(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        for level in result.trace.levels:
            centers = set(level.centers)
            for joiner, center, _eid in level.joins:
                assert center in centers
                assert joiner not in centers

    def test_partition_of_each_level(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        for level in result.trace.levels:
            joined = {v for v, _c, _e in level.joins}
            centers = set(level.centers)
            unclustered = set(level.unclustered)
            population = set(level.nodes)
            if level.level < default_params.k:
                assert joined | centers | unclustered == population
                assert not (joined & centers)
                assert not (joined & unclustered)
                assert not (centers & unclustered)
            else:
                assert unclustered == population

    def test_join_edges_in_spanner(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        for level in result.trace.levels:
            for _j, _c, eid in level.joins:
                assert eid in result.edges

    def test_f_edges_partition_spanner(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        union = set()
        for level in result.trace.levels:
            union |= level.f_edges
        assert union == set(result.edges)


class TestDegenerateInputs:
    def test_single_node(self):
        from repro.local.network import Network

        net = Network.from_edge_pairs(1, [])
        result = build_spanner(net, SamplerParams(k=1, h=1, seed=1))
        assert result.size == 0

    def test_disconnected_components(self, disconnected, default_params):
        result = build_spanner(disconnected, default_params)
        # per-component guarantee: every adjacent pair connected within bound
        report = adjacent_pair_stretch(disconnected, result.edges)
        assert report.unreachable_pairs == 0

    def test_star_graph(self, star6, default_params):
        result = build_spanner(star6, default_params)
        # a star is its own only spanner
        assert result.edges == set(star6.edge_ids)

    def test_path_graph(self, path4, default_params):
        result = build_spanner(path4, default_params)
        assert result.edges == set(path4.edge_ids)

    def test_complete_graph_sparsifies(self):
        net = complete_graph(90)
        params = SamplerParams(k=1, h=2, seed=3, c_query=0.4, c_target=0.5)
        result = build_spanner(net, params)
        assert result.size < net.m


class TestStepwiseDriver:
    def test_levels_must_run_in_order(self, er_small, default_params):
        run = SamplerRun(er_small, default_params)
        with pytest.raises(SimulationError):
            run.run_level(1)

    def test_stepwise_matches_batch(self, er_small, default_params):
        run = SamplerRun(er_small, default_params)
        for j in range(default_params.levels):
            run.run_level(j)
        stepwise = run.result()
        batch = build_spanner(er_small, default_params)
        assert stepwise.edges == batch.edges


class TestSeedSensitivity:
    def test_same_seed_identical(self, er_small, default_params):
        a = build_spanner(er_small, default_params)
        b = build_spanner(er_small, default_params)
        assert a.edges == b.edges
        assert a.trace.signature() == b.trace.signature()

    def test_different_seed_differs(self, er_small):
        a = build_spanner(er_small, SamplerParams(k=2, h=2, seed=1))
        b = build_spanner(er_small, SamplerParams(k=2, h=2, seed=2))
        assert a.edges != b.edges or a.trace.signature() != b.trace.signature()


class TestPaperExactMode:
    def test_small_run_is_valid(self, er_small):
        params = SamplerParams.paper_exact(k=1, h=1, c=1.0, seed=3)
        result = build_spanner(er_small, params)
        validate_spanner(result, check_size_envelope=False)

    def test_paper_budgets_query_everything_at_small_n(self, er_small):
        params = SamplerParams.paper_exact(k=1, h=1, c=2.0, seed=3)
        result = build_spanner(er_small, params)
        # at this scale the paper constants degenerate to S = E
        assert result.edges == set(er_small.edge_ids)


class TestFinishedRegistry:
    def test_finished_clusters_recorded(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        finished = result.trace.finished
        unclustered_total = sum(
            len(level.unclustered) for level in result.trace.levels
        )
        assert len(finished) == unclustered_total
        for record in finished.values():
            assert record.label in (NodeLabel.LIGHT, NodeLabel.HEAVY, NodeLabel.STRANDED)
