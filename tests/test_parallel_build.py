"""The level kernel: bit-identity with the serial reference (DESIGN.md §3.11).

The contract is absolute: ``build_spanner`` returns a ``SpannerResult``
that compares equal — edges, full trace with every per-node
``NodeLevelTrace``, finished-cluster certificates — to the serial
reference in ``tests/reference_sampler.py``, which shares no code with
the kernel.  These tests pin that across graph families, seeds, both
trial strategies, stale edges to finished clusters that never
announced, levels with no active cluster, the non-consecutive edge ids
of churned graphs, and every connected graph on 2 to 6 nodes, plus the
operational contract: a build touches no shared memory and starts no
process.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_sampler import reference_build
from repro.core import SamplerParams, build_spanner
from repro.dynamic import ChurnPlan, apply_churn, repair_spanner
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.local.network import Network
from test_pricing import connected_atlas

_PARAMS = SamplerParams(k=2, h=2, seed=1)

_FAMILIES = {
    "gnp": lambda: erdos_renyi(120, 0.08, seed=5),
    "torus": lambda: torus(8, 9),
    "ba": lambda: barabasi_albert(90, 3, seed=5),
}


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_equals_serial(self, family, seed):
        net = _FAMILIES[family]()
        params = SamplerParams(k=2, h=2, seed=seed)
        # full equality: edges, trace, certificates
        assert build_spanner(net, params) == reference_build(net, params)

    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    def test_equals_serial_without_exhaustive_fast_path(self, family):
        """``exhaustive_small_pools=False`` forces every cluster through
        the kernel's real TrialMachine fallback."""
        params = SamplerParams(k=2, h=2, seed=1, exhaustive_small_pools=False)
        net = _FAMILIES[family]()
        assert build_spanner(net, params) == reference_build(net, params)

    @pytest.mark.parametrize("graph_seed", [1, 2, 3, 4])
    def test_level_with_no_active_cluster(self, graph_seed):
        """Every cluster can leave the hierarchy before the last level
        (no center coin of level 0 lands at this sampler seed); the
        kernel then yields an empty level trace."""
        net = erdos_renyi(5, 0.4, seed=graph_seed)
        params = SamplerParams(k=2, h=1, seed=0)
        result = build_spanner(net, params)
        assert result.trace.populations == [5, 5, 0]
        assert result == reference_build(net, params)

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_finished_neighbours_that_never_announced(self, exhaustive):
        """A small query budget lets clusters finish without finding
        every neighbour; their edges stay in the neighbours' pools as
        stale edges, whose queries are answered ``active=False``."""
        net = erdos_renyi(100, 0.2, seed=4)
        params = SamplerParams(
            k=2,
            h=2,
            seed=4,
            c_query=0.1,
            c_target=0.3,
            exhaustive_small_pools=exhaustive,
        )
        expected = reference_build(net, params)
        assert sum(level.stale_edges for level in expected.trace.levels) > 0
        assert build_spanner(net, params) == expected

    @given(
        seed=st.integers(0, 200),
        n=st.integers(min_value=30, max_value=120),
        exhaustive=st.booleans(),
        small_budget=st.booleans(),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_serial_property(self, seed, n, exhaustive, small_budget):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        budget = dict(c_query=0.1, c_target=0.3) if small_budget else {}
        params = SamplerParams(
            k=2, h=2, seed=seed + 1, exhaustive_small_pools=exhaustive, **budget
        )
        assert build_spanner(net, params) == reference_build(net, params)

    def test_jobs_one_is_the_serial_path(self, monkeypatch):
        """A build runs the kernel in-process: it creates no
        shared-memory segment and starts no process."""
        import multiprocessing.process
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("a build used multiprocessing")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        net = _FAMILIES["gnp"]()
        assert build_spanner(net, _PARAMS) == reference_build(net, _PARAMS)

    @pytest.mark.parametrize("rate", [0.05, 0.4])
    def test_churned_graph_equals_serial(self, rate):
        """Churn leaves gaps in the edge ids, so the kernel finds edge
        rows by binary search; the repair of a churned graph is still
        the serial reference's build."""
        net = erdos_renyi(150, 0.08, seed=5)
        child, log = apply_churn(
            net,
            ChurnPlan(
                seed=11,
                epochs=1,
                edge_removal=rate,
                edge_addition=rate / 2,
                node_crash=rate / 10,
                node_recovery=0.5,
            ),
            epoch=0,
        )
        assert child.endpoints_flat()[0] is not None  # non-consecutive ids
        repaired = repair_spanner(build_spanner(net, _PARAMS), child, log)
        assert repaired == reference_build(child, _PARAMS)


class TestAtlas:
    """Exhaustive over the small connected graphs: the kernel equals the
    serial reference on every one, under both trial strategies,
    including the inputs whose last levels are empty."""

    def test_atlas_has_142_connected_graphs_on_two_to_six_nodes(self):
        assert len(connected_atlas(max_nodes=6)) == 142

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_connected_graph_on_two_to_six_nodes(self, k):
        for graph in connected_atlas(max_nodes=6):
            net = Network.from_graph(graph)
            for seed in (0, 1):
                for exhaustive in (True, False):
                    params = SamplerParams(
                        k=k, h=2, seed=seed, exhaustive_small_pools=exhaustive
                    )
                    assert build_spanner(net, params) == reference_build(
                        net, params
                    ), (graph.name, seed, exhaustive)
