"""Construction priced, not simulated (DESIGN.md §3.15).

``build_spanner_priced`` runs the level kernel and prices the
construction in closed form; ``build_spanner_distributed`` runs the
message-passing protocol and meters it.  The contract is full
:class:`SpannerResult` equality — edges, the trace in its distributed
view, rounds, and message stats down to ``per_round`` — on every input
the metered run accepts, and the same refusal on the inputs it refuses
(a level with population 0).
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SamplerParams, build_spanner
from repro.core.accounting import build_spanner_priced
from repro.core.distributed import build_spanner_distributed
from repro.errors import SimulationError
from repro.graphs import barabasi_albert, erdos_renyi, grid, torus
from repro.local.network import Network
from repro.local.runtime import Runtime
from repro.store import ArtifactStore
from test_core_equivalence import CASES


def assert_priced_equals_metered(net, params):
    priced = build_spanner_priced(net, params)
    metered = build_spanner_distributed(net, params)
    assert priced == metered
    # dataclass equality covers these; spelled out for the failure report
    assert priced.messages.per_round == metered.messages.per_round
    assert priced.trace.full_signature() == metered.trace.full_signature()
    return priced


def two_components_and_an_isolated_node():
    return Network.from_edge_pairs(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5), (5, 6), (6, 7), (7, 4)],
        name="two-components+isolated",
    )


def connected_atlas(max_nodes=5):
    """Every connected atlas graph on 2 to ``max_nodes`` nodes: 30 up to
    5 nodes, 142 up to 6."""
    return [
        g
        for g in nx.graph_atlas_g()
        if 2 <= g.number_of_nodes() <= max_nodes and nx.is_connected(g)
    ]


class TestEquivalenceCases:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_core_equivalence_graphs(self, case):
        _name, build, params = case
        assert_priced_equals_metered(build(), params)


class TestTreeShapes:
    """Per-round placement depends on the cluster trees: cover deep ones."""

    @pytest.mark.parametrize(
        "net_name, build",
        [
            ("torus8", lambda: torus(8, 8)),
            ("grid6x9", lambda: grid(6, 9)),
            ("ba100", lambda: barabasi_albert(100, 2, seed=1)),
        ],
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_levels_and_tree_depths(self, net_name, build, k):
        net = build()
        params = SamplerParams(k=k, h=2, seed=k)
        heights = build_spanner(net, params).trace.levels[-1].cluster_heights
        # Lemma 8 caps a level-1 tree at height 1; deeper levels must
        # actually exercise trees at least 2 deep.
        assert max(heights.values()) >= min(k, 2)
        assert_priced_equals_metered(net, params)


class TestBudgetsAndPools:
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_stale_edge_budget(self, exhaustive):
        """A small query budget leaves stale edges to finished
        clusters, answered ``active=False``."""
        net = erdos_renyi(100, 0.2, seed=4)
        params = SamplerParams(
            k=2,
            h=2,
            seed=4,
            c_query=0.1,
            c_target=0.3,
            exhaustive_small_pools=exhaustive,
        )
        trace = build_spanner(net, params).trace
        assert sum(level.stale_edges for level in trace.levels) > 0
        assert_priced_equals_metered(net, params)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_without_exhaustive_small_pools(self, seed):
        net = erdos_renyi(70, 0.1, seed=seed)
        params = SamplerParams(k=2, h=2, seed=seed, exhaustive_small_pools=False)
        assert_priced_equals_metered(net, params)


class TestDisconnected:
    @pytest.mark.parametrize("k", [1, 2])
    def test_components_and_isolated_node(self, k):
        assert_priced_equals_metered(
            two_components_and_an_isolated_node(), SamplerParams(k=k, h=2, seed=3)
        )

    def test_sparse_gnp_with_isolated_nodes(self):
        graph = nx.gnp_random_graph(40, 0.04, seed=6)
        assert any(degree == 0 for _v, degree in graph.degree())
        assert not nx.is_connected(graph)
        assert_priced_equals_metered(
            Network.from_graph(graph), SamplerParams(k=1, h=2, seed=2)
        )


class TestAtlas:
    """Exhaustive over the small connected graphs: equal wherever the
    metered run completes, and refused wherever it refuses."""

    def test_atlas_has_thirty_connected_graphs(self):
        assert len(connected_atlas()) == 30

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_connected_graph_on_two_to_five_nodes(self, k):
        compared = 0
        for graph in connected_atlas():
            net = Network.from_graph(graph)
            for seed in (0, 1):
                params = SamplerParams(k=k, h=2, seed=seed)
                if 0 in build_spanner(net, params).trace.populations:
                    for build in (build_spanner_priced, build_spanner_distributed):
                        with pytest.raises(SimulationError):
                            build(net, params)
                else:
                    assert_priced_equals_metered(net, params)
                    compared += 1
        assert compared > 0


class TestEmptyLevel:
    def test_priced_and_metered_refuse_an_empty_level(self):
        net = erdos_renyi(5, 0.4, seed=0)
        params = SamplerParams(k=2, h=1, seed=0)
        assert build_spanner(net, params).trace.populations[-1] == 0
        with pytest.raises(SimulationError, match="round mismatch"):
            build_spanner_distributed(net, params)
        with pytest.raises(SimulationError, match="population 0"):
            build_spanner_priced(net, params)

    def test_the_store_refuses_it_too(self):
        net = erdos_renyi(5, 0.4, seed=0)
        store = ArtifactStore()
        with pytest.raises(SimulationError):
            store.fetch_spanner(net, SamplerParams(k=2, h=1, seed=0))
        assert store.stats.puts == 0
        cached, _ = store.peek_spanner(net, SamplerParams(k=2, h=1, seed=0))
        assert cached is None


class TestStorePrices:
    def test_store_build_never_runs_the_simulation(self, monkeypatch):
        net = erdos_renyi(60, 0.1, seed=4)
        params = SamplerParams(k=2, h=2, seed=3)
        metered = build_spanner_distributed(net, params)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the store must price, not simulate")

        monkeypatch.setattr(Runtime, "run", refuse)
        built, info = ArtifactStore().fetch_spanner(net, params)
        assert info.source == "built"
        assert built == metered


@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.floats(min_value=0.02, max_value=0.5),
    graph_seed=st.integers(0, 10_000),
    k=st.integers(min_value=1, max_value=3),
    h=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 10_000),
    small_budget=st.booleans(),
    exhaustive=st.booleans(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_priced_equals_metered_property(
    n, p, graph_seed, k, h, seed, small_budget, exhaustive
):
    net = Network.from_graph(nx.gnp_random_graph(n, p, seed=graph_seed))
    budget = dict(c_query=0.1, c_target=0.3) if small_budget else {}
    params = SamplerParams(
        k=k, h=h, seed=seed, exhaustive_small_pools=exhaustive, **budget
    )
    if 0 in build_spanner(net, params).trace.populations:
        for build in (build_spanner_priced, build_spanner_distributed):
            with pytest.raises(SimulationError):
                build(net, params)
    else:
        assert_priced_equals_metered(net, params)
