"""Construction priced, not simulated (DESIGN.md §3.15).

``build_spanner_priced`` runs the level kernel and prices the
construction in closed form; ``build_spanner_distributed`` runs the
message-passing protocol and meters it.  The contract is full
:class:`SpannerResult` equality — edges, the trace in its distributed
view, rounds, and message stats down to ``per_round`` — on every input,
including the ones where a level is empty and the run halts before its
schedule ends (``Schedule.halting_round``).  Every pipeline builds with
``build_spanner_priced``, with or without a store.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import BallCollect
from repro.core import SamplerParams, build_spanner
from repro.core.accounting import build_spanner_priced
from repro.core.distributed import PhaseKind, Schedule, build_spanner_distributed
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.local.network import Network
from repro.local.runtime import Runtime
from repro.simulate import run_one_stage, run_two_stage, theorem3_params
from repro.simulate.global_tasks import compute_global
from repro.store import ArtifactStore
from conftest import grid
from test_core_equivalence import CASES


def assert_priced_equals_metered(net, params):
    priced = build_spanner_priced(net, params)
    metered = build_spanner_distributed(net, params)
    assert priced == metered
    # dataclass equality covers these; spelled out for the failure report
    assert priced.messages.per_round == metered.messages.per_round
    assert priced.trace.full_signature() == metered.trace.full_signature()
    assert len(priced.messages.per_round) == priced.rounds + 1
    return priced


def g29():
    """Atlas G29, a 5-node tree: at ``theorem3_params(2, seed=0)`` no
    cluster of level 1 becomes a center, so level 2 is empty."""
    return Network.from_graph(nx.graph_atlas(29))


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
    """Exhaustive over the small connected graphs, equal on every one.
    ``tools/atlas_conformance.py`` runs the Theorem 3 sweep on all 995
    connected graphs on 2-7 nodes."""

    def test_atlas_has_thirty_connected_graphs(self):
        assert len(connected_atlas()) == 30

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_connected_graph_on_two_to_five_nodes(self, k):
        for graph in connected_atlas():
            net = Network.from_graph(graph)
            for seed in (0, 1):
                assert_priced_equals_metered(net, SamplerParams(k=k, h=2, seed=seed))

    def test_theorem3_slice_with_every_empty_level_input(self):
        """Theorem 3's parameters at γ ∈ {1, 2, 3}, seeds 0-2: this
        slice holds all 21 atlas inputs on 2-7 nodes with an empty
        level (atlas 29-52 at γ=2, seed 0)."""
        empty = []
        for graph in connected_atlas():
            net = Network.from_graph(graph)
            for gamma in (1, 2, 3):
                for seed in (0, 1, 2):
                    params = theorem3_params(gamma, seed=seed)
                    priced = assert_priced_equals_metered(net, params)
                    if 0 in priced.trace.populations:
                        empty.append((graph.name, gamma, seed))
        assert len(empty) == 21
        assert {(gamma, seed) for _name, gamma, seed in empty} == {(2, 0)}


class TestEmptyLevel:
    """A level no cluster reaches: every node halts early, and both
    builders report the round the run halts in."""

    def test_g29_halts_at_the_first_round_of_the_empty_level(self):
        params = theorem3_params(2, seed=0)
        priced = assert_priced_equals_metered(g29(), params)
        schedule = Schedule.build(params)
        assert priced.trace.populations == [5, 5, 0]
        assert priced.rounds == schedule.start_of(PhaseKind.GATHER, 2) == 170
        assert schedule.total_rounds == 348
        assert priced.messages.total == 72
        # Level 1's finish messages are sent in round 169, its FINISH
        # round, and arrive in round 170, which sends nothing.
        assert priced.messages.per_round[169:] == [
            priced.messages.by_tag["finish"],
            0,
        ]

    @pytest.mark.parametrize(
        "atlas, params, populations",
        [
            (3, SamplerParams(k=3, h=1, seed=9), [2, 1, 1, 0]),
            (1, SamplerParams(k=2, h=1, seed=7), [1, 0, 0]),
        ],
    )
    def test_a_level_without_finish_messages_halts_at_finish(
        self, atlas, params, populations
    ):
        """A lone cluster has no active neighbour, so its level sends no
        finish message and the run ends in that level's FINISH round."""
        net = Network.from_graph(nx.graph_atlas(atlas))
        priced = assert_priced_equals_metered(net, params)
        assert priced.trace.populations == populations
        assert "finish" not in priced.messages.by_tag
        last = populations.index(0) - 1
        finish = Schedule.build(params).start_of(PhaseKind.FINISH, last)
        assert priced.rounds == finish

    def test_priced_and_metered_agree_on_an_empty_level(self):
        net = erdos_renyi(5, 0.4, seed=0)
        params = SamplerParams(k=2, h=1, seed=0)
        priced = assert_priced_equals_metered(net, params)
        assert priced.trace.populations[-1] == 0
        assert priced.rounds < Schedule.build(params).total_rounds

    def test_the_store_builds_it(self):
        store = ArtifactStore()
        params = theorem3_params(2, seed=0)
        built, info = store.fetch_spanner(g29(), params)
        assert info.source == "built"
        assert built == build_spanner_distributed(g29(), params)
        cached, info = store.fetch_spanner(g29(), params)
        assert info.source == "memory"
        assert cached == built

    def test_a_fresh_store_reads_it_back_from_disk(self, tmp_path):
        params = theorem3_params(2, seed=0)
        built, _ = ArtifactStore(tmp_path).fetch_spanner(g29(), params)
        loaded, info = ArtifactStore(tmp_path).fetch_spanner(g29(), params)
        assert info.source == "disk"
        assert loaded == built


class TestStorePrices:
    """Every construction prices: the store's and the pipelines'."""

    @staticmethod
    def refuse_simulation(monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("construction must price, not simulate")

        monkeypatch.setattr(Runtime, "run", refuse)

    def test_store_build_never_runs_the_simulation(self, monkeypatch):
        net = erdos_renyi(60, 0.1, seed=4)
        params = SamplerParams(k=2, h=2, seed=3)
        metered = build_spanner_distributed(net, params)
        self.refuse_simulation(monkeypatch)
        built, info = ArtifactStore().fetch_spanner(net, params)
        assert info.source == "built"
        assert built == metered

    def test_pipelines_without_a_store_never_run_it(self, monkeypatch):
        net = erdos_renyi(40, 0.15, seed=2)
        params = SamplerParams(k=1, h=2, seed=3)
        self.refuse_simulation(monkeypatch)
        one = run_one_stage(net, BallCollect(2), params=params, seed=1)
        two = run_two_stage(net, BallCollect(2), stage1_params=params, seed=1)
        whole = compute_global(net, min, params=params)
        priced = build_spanner_priced(net, params)
        assert one.spanner == two.stage1 == whole.spanner == priced


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
    assert_priced_equals_metered(net, params)
