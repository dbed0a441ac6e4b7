"""The distance plane against its oracle (DESIGN.md §3.7).

The vector engine (NumPy bitset sweeps) and the oracle in
``tests/reference_distance.py`` (the seed pure-Python BFS) must produce
*equal values* for every consumer: ``FloodSchedule`` (balls, ecc,
per_round, by_tag), ``StretchReport`` (including truncated-cutoff and
disconnected-spanner cases), eccentricities/diameter, and the
transformer's coverage verdicts, whose oracle is a brute-force
``B_t ⊆ ball`` check.  Hypothesis drives families × radii × seeds
through both; the unit tests pin the edge cases property shrinking
tends to miss, and :class:`TestAtlas` runs every connected graph on 2 to
7 nodes.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_distance as oracle
import repro.graphs.distance as distance_plane
import repro.simulate.transformer as transformer
from reference_distance import bfs_exhausted, single_source_distances
from repro.algorithms import BallCollect, MinIdAggregation
from repro.analysis.stretch import adjacent_pair_stretch, pairwise_stretch
from repro.core import SamplerParams, build_spanner
from repro.dynamic import ChurnPlan, apply_churn
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.graphs.distance import (
    BallFamily,
    adjacency_csr,
    ball_matrix_blocks,
    balls_and_eccentricities,
    component_labels,
    distance_blocks,
    distance_matrix,
    eccentricities,
)
from repro.local.network import Network
from repro.simulate import flood_schedule, runtime_simulation, simulate_over_spanner
from repro.simulate.global_tasks import graph_diameter
from test_pricing import connected_atlas

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FAMILIES = {
    "gnp": lambda seed: erdos_renyi(40 + seed % 17, 0.09, seed=seed),
    "torus": lambda seed: torus(4 + seed % 4, 5),
    "ba": lambda seed: barabasi_albert(40 + seed % 13, 2 + seed % 2, seed=seed),
    "gnm": lambda seed: dense_gnm(20 + seed % 11, 30 + seed % 40, seed=seed),
}


def _spanner_edges(net: Network, seed: int) -> frozenset[int]:
    return build_spanner(net, SamplerParams(k=1, h=2, seed=seed)).edges


def _thinned(edges: frozenset[int], seed: int, keep: float) -> list[int]:
    """A seeded subset of the spanner's edges (to force disconnection)."""
    rng = random.Random(seed)
    kept = [eid for eid in sorted(edges) if rng.random() < keep]
    return kept


def _disjoint_union(*parts: Network, isolated: int = 0) -> Network:
    """The parts side by side (node ids shifted), plus isolated nodes."""
    pairs, offset = [], 0
    for part in parts:
        pairs.extend(
            (a + offset, b + offset)
            for a, b in (part.endpoints(eid) for eid in part.edge_ids)
        )
        offset += part.n
    return Network.from_edge_pairs(offset + isolated, pairs, name="union")


def _path(n: int, seed: int) -> Network:
    """A path through the nodes in a seeded random order."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return Network.from_edge_pairs(n, list(zip(order, order[1:])), name="path")


# Disconnected graphs: isolated nodes and at least three components.
_DISCONNECTED = {
    "union": lambda: _disjoint_union(
        erdos_renyi(18, 0.25, seed=3),
        torus(3, 4),
        Network.from_edge_pairs(2, [(0, 1)]),
        isolated=3,
    ),
    "churned": lambda: apply_churn(
        erdos_renyi(50, 0.08, seed=9),
        ChurnPlan(seed=4, edge_removal=0.1, node_crash=0.1),
        epoch=0,
    )[0],
}


def _nx_graph(net: Network) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(net.n))
    graph.add_edges_from(net.endpoints(eid) for eid in net.edge_ids)
    return graph


@pytest.fixture
def replayed(monkeypatch):
    """Records the centers the shared replay hands to ``replay_ball``."""
    centers: list[int] = []
    original = transformer.replay_ball

    def recording(algo, center, *args):
        centers.append(center)
        return original(algo, center, *args)

    monkeypatch.setattr(transformer, "replay_ball", recording)
    return centers


class TestFloodScheduleEquality:
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        radius=st.integers(min_value=0, max_value=7),
        seed=st.integers(min_value=0, max_value=500),
    )
    @_SETTINGS
    def test_engines_agree(self, family, radius, seed):
        net = _FAMILIES[family](seed)
        sub = net.subnetwork(_spanner_edges(net, seed))
        fast = flood_schedule(sub, radius)
        ref = oracle.flood_schedule(sub, radius)
        assert fast.ecc == ref.ecc
        assert fast.rounds == ref.rounds
        assert fast.messages.total == ref.messages.total
        assert fast.messages.per_round == ref.messages.per_round
        assert fast.messages.by_tag == ref.messages.by_tag
        assert fast.balls == ref.balls
        assert ref.balls == fast.balls  # symmetric across representations
        assert fast == ref
        assert fast.mean_ball_size() == ref.mean_ball_size()

    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        keep=st.sampled_from([0.0, 0.3, 0.7]),
    )
    @_SETTINGS
    def test_engines_agree_on_disconnected_spanners(self, family, seed, keep):
        """Thinning the spanner disconnects it; ball/ecc values must
        still match (frontiers die early on islands)."""
        net = _FAMILIES[family](seed)
        sub = net.subnetwork(_thinned(_spanner_edges(net, seed), seed, keep))
        assert flood_schedule(sub, 4) == oracle.flood_schedule(sub, 4)


class TestStretchReportEquality:
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        cutoff=st.sampled_from([math.inf, 1, 2, 3, 2.5]),
        keep=st.sampled_from([1.0, 0.5, 0.1]),
    )
    @_SETTINGS
    def test_adjacent_pair_engines_agree(self, family, seed, cutoff, keep):
        net = _FAMILIES[family](seed)
        edges = _spanner_edges(net, seed)
        spanner = sorted(edges) if keep >= 1.0 else _thinned(edges, seed, keep)
        fast = adjacent_pair_stretch(net, spanner, cutoff=cutoff)
        assert fast == oracle.adjacent_pair_stretch(net, spanner, cutoff=cutoff)
        # thinned spanners must be able to produce both buckets
        assert fast.unreachable_pairs >= 0 and fast.beyond_cutoff >= 0

    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        seed=st.integers(min_value=0, max_value=500),
        sources=st.sampled_from([None, 7]),
        keep=st.sampled_from([1.0, 0.4]),
    )
    @_SETTINGS
    def test_pairwise_engines_agree(self, family, seed, sources, keep):
        net = _FAMILIES[family](seed)
        edges = _spanner_edges(net, seed)
        spanner = sorted(edges) if keep >= 1.0 else _thinned(edges, seed, keep)
        fast = pairwise_stretch(net, spanner, sources=sources, seed=seed)
        assert fast == oracle.pairwise_stretch(net, spanner, sources=sources, seed=seed)

    def test_sampling_path_engines_agree(self):
        net = erdos_renyi(80, 0.1, seed=6)
        edges = _spanner_edges(net, 6)
        fast = adjacent_pair_stretch(net, edges, sample=40, seed=3)
        assert fast == oracle.adjacent_pair_stretch(net, edges, sample=40, seed=3)
        assert fast.pairs_measured == 40


class TestSimulationEquality:
    @pytest.mark.parametrize("radius", [0, 1, 2, None])
    def test_transformer_distance_engines_agree(self, radius, replayed):
        """The vector coverage check replays exactly the centers the
        oracle's brute-force ``B_t ⊆ ball`` check finds uncovered, and
        the outcome equals the runtime flood's, even under-flooded."""
        net = erdos_renyi(40, 0.08, seed=9)
        result = build_spanner(net, SamplerParams(k=1, h=2, seed=9))
        algo = BallCollect(2)
        t = algo.rounds(net.n)
        flood_radius = radius if radius is not None else result.stretch_bound * t
        balls = oracle.flood_schedule(net.subnetwork(result.edges), flood_radius).balls

        args = (net, result.edges, result.stretch_bound, algo)
        fast = simulate_over_spanner(*args, seed=7, radius=radius)
        assert sorted(replayed) == oracle.uncovered_centers(net, balls, t)
        assert fast == runtime_simulation(*args, seed=7, radius=radius)

    @pytest.mark.parametrize("radius", [0, 1, 2, None])
    @pytest.mark.parametrize("keep", [1.0, 0.6])
    @pytest.mark.parametrize("graph", sorted(_DISCONNECTED))
    def test_disconnected_graphs(self, graph, keep, radius, replayed):
        """On graphs with isolated nodes and several components the
        shared replay hands exactly the centers a brute-force
        ``B_t ⊆ ball`` check finds uncovered to ``replay_ball``, and the
        outcome equals the runtime flood's."""
        net = _DISCONNECTED[graph]()
        components = list(nx.connected_components(_nx_graph(net)))
        assert len(components) >= 3
        assert any(len(c) == 1 for c in components)
        result = build_spanner(net, SamplerParams(k=2, h=2, seed=9))
        edges = sorted(result.edges) if keep >= 1.0 else _thinned(result.edges, 9, keep)
        algo = BallCollect(2)
        t = algo.rounds(net.n)
        flood_radius = radius if radius is not None else result.stretch_bound * t
        balls = oracle.flood_schedule(net.subnetwork(edges), flood_radius).balls
        args = (net, edges, result.stretch_bound, algo)
        fast = simulate_over_spanner(*args, seed=7, radius=radius)
        assert sorted(replayed) == oracle.uncovered_centers(net, balls, t)
        assert fast == runtime_simulation(*args, seed=7, radius=radius)

    @pytest.mark.parametrize("graph", sorted(_DISCONNECTED))
    def test_schedule_from_another_graph(self, graph, replayed):
        """A schedule measured on a different graph over the same nodes
        holds balls that need not contain the center's component, even
        when they are as large: the replayed centers must still be the
        brute-force verdict's."""
        net = _DISCONNECTED[graph]()
        labels = component_labels(net.n, *net.endpoints_flat()[1:])
        comp_size = np.bincount(labels, minlength=net.n)[labels]
        # A star over every node but one of the largest component: its
        # balls hold n - 1 nodes, yet miss that node.
        missing = int(np.argmax(comp_size))
        hub = (missing + 1) % net.n
        other = Network.from_edge_pairs(
            net.n, [(hub, w) for w in range(net.n) if w not in (hub, missing)]
        )
        schedule = flood_schedule(other, 3)
        sizes = schedule.balls.sizes()
        fooled = [
            c
            for c in range(net.n)
            if sizes[c] >= comp_size[c]
            and not {w for w in range(net.n) if labels[w] == labels[c]}
            <= schedule.balls[c]
        ]
        assert fooled  # a size-only rule would call these covered
        result = build_spanner(net, SamplerParams(k=2, h=2, seed=9))
        algo = BallCollect(2)
        simulate_over_spanner(
            net,
            result.edges,
            result.stretch_bound,
            algo,
            seed=7,
            radius=3,
            schedule=schedule,
        )
        assert sorted(replayed) == oracle.uncovered_centers(
            net, schedule.balls, algo.rounds(net.n)
        )
        assert set(fooled) & set(replayed)

    def test_one_stage_under_reference_engine(self, monkeypatch):
        """The whole pipeline on the literal flood and the per-node
        oracles, which touch no distance-plane code, equals the default
        run on the plane."""
        from reference_runtime import reference_engines
        from repro.simulate import run_one_stage

        monkeypatch.delenv("REPRO_STORE", raising=False)
        net = erdos_renyi(50, 0.15, seed=3)
        algo = MinIdAggregation(2)
        params = SamplerParams(k=1, h=2, seed=5)
        fast = run_one_stage(net, algo, params=params, seed=2)
        with reference_engines() as calls:
            reference = run_one_stage(net, algo, params=params, seed=2)
        assert calls["dense"] == calls["flood"] == 1
        assert fast == reference


class TestBatchedPrimitives:
    def test_distance_blocks_match_single_source(self, monkeypatch):
        cases = [
            (barabasi_albert(50, 2, seed=4), (math.inf, 0, 1, 2, 3.5)),
            # more than 255 levels: the distance counters must widen
            (_path(300, seed=1), (math.inf, 299, 254, 1)),
            (_DISCONNECTED["union"](), (math.inf, 0, 1, 3)),
            (_DISCONNECTED["churned"](), (math.inf, 0, 1, 2)),
            (Network.from_edge_pairs(6, []), (math.inf, 0, 1)),
        ]
        for net, cutoffs in cases:
            adj = [list(net.neighbors(v)) for v in range(net.n)]
            indptr, indices = adjacency_csr(net)
            for split in (False, True):
                with monkeypatch.context() as patch:
                    if split:
                        # a third of the rows per block: several blocks
                        rows = max(2, net.n // 3)
                        patch.setattr(distance_plane, "_BLOCK_CELLS_DIST", rows * net.n)
                    for cutoff in cutoffs:
                        blocks = list(
                            distance_blocks(indptr, indices, range(net.n), cutoff=cutoff)
                        )
                        assert (len(blocks) > 1) == split
                        for offset, dist, exhausted in blocks:
                            assert dist.dtype == np.int32
                            for i in range(dist.shape[0]):
                                ref = single_source_distances(adj, offset + i, cutoff)
                                got = {w: int(d) for w, d in enumerate(dist[i]) if d >= 0}
                                assert got == ref
                                assert bool(exhausted[i]) == bfs_exhausted(ref, cutoff)

    @pytest.mark.parametrize("case", ["path", "star", "edgeless", "single", "union"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_component_labels_match_networkx(self, case, seed):
        rng = random.Random(seed)
        if case == "path":
            net = _path(40 + seed, seed)
        elif case == "star":
            n = 25 + seed
            hub = rng.randrange(n)
            net = Network.from_edge_pairs(n, [(hub, w) for w in range(n) if w != hub])
        elif case == "edgeless":
            net = Network.from_edge_pairs(7 + seed, [])
        elif case == "single":
            net = Network.from_edge_pairs(1, [])
        else:
            net = _DISCONNECTED["union"]()
        labels = component_labels(net.n, *net.endpoints_flat()[1:])
        assert labels.shape == (net.n,)
        expected = np.empty(net.n, dtype=np.int64)
        for component in nx.connected_components(_nx_graph(net)):
            expected[sorted(component)] = min(component)
        assert np.array_equal(labels, expected)

    def test_adjacency_csr_matches_neighbors(self):
        net = erdos_renyi(30, 0.2, seed=8)
        indptr, indices = adjacency_csr(net)
        for v in range(net.n):
            got = sorted(indices[indptr[v] : indptr[v + 1]].tolist())
            assert got == sorted(net.neighbors(v))

    def test_ball_matrix_blocks_match_family(self):
        net = torus(5, 5)
        indptr, indices = adjacency_csr(net)
        family, _ = balls_and_eccentricities(net, 2)
        for offset, rows in ball_matrix_blocks(indptr, indices, range(net.n), 2):
            for i in range(rows.shape[0]):
                assert frozenset(np.nonzero(rows[i])[0].tolist()) == family[offset + i]

    def test_eccentricities_and_diameter(self):
        net = torus(5, 5)  # wraparound grid, diameter 4
        assert eccentricities(net) == oracle.eccentricities(net)
        assert graph_diameter(net) == 4
        two = Network.from_edge_pairs(4, [(0, 1), (2, 3)], name="two-islands")
        assert eccentricities(two) == oracle.eccentricities(two)
        with pytest.raises(ValueError):
            graph_diameter(two)

    def test_single_node_and_edgeless(self):
        lone = Network.from_edge_pairs(1, [])
        assert flood_schedule(lone, 3) == oracle.flood_schedule(lone, 3)
        islands = Network.from_edge_pairs(5, [])
        fast = flood_schedule(islands, 2)
        assert all(ball == {v} for v, ball in enumerate(fast.balls))
        assert fast == oracle.flood_schedule(islands, 2)


def _star(n: int, hub: int) -> Network:
    return Network.from_edge_pairs(
        n, [(hub, w) for w in range(n) if w != hub], name="star"
    )


def _interleaved() -> Network:
    """A G(n, p) on the odd ids with every even id isolated, so the
    level step's degree order moves every node."""
    inner = erdos_renyi(24, 0.2, seed=6)
    pairs = [
        (2 * a + 1, 2 * b + 1)
        for a, b in (inner.endpoints(eid) for eid in inner.edge_ids)
    ]
    return Network.from_edge_pairs(48, pairs, name="interleaved")


# At most 64 nodes, so every sweep block packs its sources in one word
# and a column's width is its cost in words.
_SPLIT_SHAPES = {
    "star": lambda: _star(60, hub=23),
    "ba": lambda: barabasi_albert(60, 3, seed=5),
    "parallel": lambda: Network.from_edge_pairs(
        9,
        [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2), (2, 3), (3, 0), (1, 4),
         (4, 5), (5, 6), (6, 4), (6, 4), (1, 7)],
        name="parallel",
    ),
    "interleaved": _interleaved,
}


def _column_words(net: Network, split: str) -> int:
    """A ``_COLUMN_WORDS`` that puts the level step's head/tail split
    before every column ("tail"), after every column ("head"), or
    inside the widest node's adjacency list ("mid")."""
    if split == "head":
        return 1
    if split == "tail":
        return net.n + 1
    deg = np.diff(adjacency_csr(net)[0])
    # how many nodes have more than j neighbors, for each column j
    widths = [int((deg > j).sum()) for j in range(int(deg.max()))]
    return widths[len(widths) // 2] + 1


class TestLevelStep:
    """The degree-sliced level step against the oracle, with its
    head/tail split forced before, inside and after the adjacency lists
    and the sweeps cut into one or several source blocks."""

    @pytest.fixture(params=["one-block", "blocks"])
    def blocks(self, request, monkeypatch):
        def apply(net: Network) -> None:
            if request.param == "blocks":
                rows = max(2, net.n // 3)
                monkeypatch.setattr(distance_plane, "_BLOCK_CELLS", rows * net.n)
                monkeypatch.setattr(distance_plane, "_BLOCK_CELLS_DIST", rows * net.n)

        return apply

    @pytest.mark.parametrize("split", ["head", "mid", "tail"])
    @pytest.mark.parametrize("shape", sorted(_SPLIT_SHAPES))
    def test_consumers_match_the_oracle(self, shape, split, blocks, monkeypatch):
        net = _SPLIT_SHAPES[shape]()
        blocks(net)
        monkeypatch.setattr(distance_plane, "_COLUMN_WORDS", _column_words(net, split))
        indptr, indices = adjacency_csr(net)
        step = distance_plane._LevelStep(indptr, indices, words=1)
        assert (bool(step.columns), step.tail is not None) == {
            "head": (True, False),
            "mid": (True, True),
            "tail": (False, True),
        }[split]
        adj = oracle.adjacency(net)
        for cutoff in (math.inf, 1, 2):
            for offset, dist, exhausted in distance_blocks(
                indptr, indices, range(net.n), cutoff=cutoff
            ):
                for i, row in enumerate(dist):
                    ref = single_source_distances(adj, offset + i, cutoff)
                    assert {w: int(d) for w, d in enumerate(row) if d >= 0} == ref
                    assert bool(exhausted[i]) == bfs_exhausted(ref, cutoff)
        for radius in range(4):
            expected = oracle.flood_schedule(net, radius)
            balls, ecc = balls_and_eccentricities(net, radius)
            assert balls == expected.balls
            assert tuple(ecc) == expected.ecc
            for offset, rows in ball_matrix_blocks(indptr, indices, range(net.n), radius):
                for i, row in enumerate(rows):
                    assert frozenset(np.flatnonzero(row).tolist()) == balls[offset + i]
            matrix = distance_matrix(indptr, indices, radius)
            for v in range(net.n):
                ref = single_source_distances(adj, v, radius)
                assert {w: int(d) for w, d in enumerate(matrix[v]) if d >= 0} == ref
        assert eccentricities(net) == oracle.eccentricities(net)

    def test_star_hub_is_one_tail_segment(self):
        # column 0 is every node; the hub's other n - 2 neighbors are
        # narrow columns, folded in as one reduceat segment
        net = _star(20_000, hub=7)
        indptr, indices = adjacency_csr(net)
        step = distance_plane._LevelStep(indptr, indices, words=27)
        assert [len(column) for column in step.columns] == [net.n]
        assert step.tail_starts.tolist() == [0]
        assert len(step.tail) == net.n - 2

    def test_no_nodes_and_a_single_node(self):
        indptr, indices = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        assert list(distance_blocks(indptr, indices, [])) == []
        assert list(ball_matrix_blocks(indptr, indices, [], 2)) == []
        assert distance_matrix(indptr, indices, 3).shape == (0, 0)
        lone = Network.from_edge_pairs(1, [])
        indptr, indices = adjacency_csr(lone)
        assert distance_matrix(indptr, indices, 3).tolist() == [[0]]
        [(offset, dist, exhausted)] = distance_blocks(indptr, indices, [0])
        assert (offset, dist.tolist(), exhausted.tolist()) == (0, [[0]], [True])
        assert balls_and_eccentricities(lone, 2)[1] == [0]
        assert eccentricities(lone) == ([0], [1])


class TestBallFamily:
    def _family_pair(self):
        net = erdos_renyi(30, 0.12, seed=2)
        packed, _ = balls_and_eccentricities(net, 2)
        sets = oracle.flood_schedule(net, 2).balls
        return packed, sets

    def test_sequence_protocol(self):
        packed, sets = self._family_pair()
        assert len(packed) == len(sets)
        assert list(packed) == list(sets)
        assert packed[-1] == sets[len(sets) - 1]
        assert packed[1:3] == sets[1:3]
        with pytest.raises(IndexError):
            packed[len(packed)]

    def test_equality_across_representations(self):
        packed, sets = self._family_pair()
        assert packed == sets and sets == packed
        assert packed == tuple(sets)  # plain sequences compare too
        other = BallFamily.from_sets([frozenset({0})] * len(packed), packed.universe)
        assert packed != other

    def test_sizes_and_membership(self):
        packed, sets = self._family_pair()
        assert packed.sizes().tolist() == [len(s) for s in sets]
        rows = packed.membership_rows([0, 3])
        assert frozenset(np.nonzero(rows[0])[0].tolist()) == sets[0]
        set_rows = sets.membership_rows([0, 3])
        assert np.array_equal(rows, set_rows)

    def test_holds_components_tests_members_not_sizes(self):
        # components {0, 1, 2}, {3, 4}, {5}
        labels = np.array([0, 0, 0, 3, 3, 5])
        sets = [
            frozenset({0, 1, 2}),  # its whole component
            frozenset({1, 3, 4}),  # as large, but misses 0 and 2
            frozenset({0, 1, 2, 3, 4, 5}),
            frozenset({3}),  # misses 4
            frozenset({0, 3, 4}),
            frozenset({0, 1}),  # misses its own center
        ]
        expected = [True, False, True, False, True, False]
        by_sets = BallFamily.from_sets(sets, 6)
        packed = BallFamily.from_packed(
            np.packbits(by_sets.membership_rows(range(6)), axis=1, bitorder="little"), 6
        )
        for family in (by_sets, packed):
            assert family.holds_components(range(6), labels).tolist() == expected
            assert family.holds_components([5, 1], labels).tolist() == [False, False]

    def test_unhashable_and_constructor_guard(self):
        packed, _ = self._family_pair()
        with pytest.raises(TypeError):
            hash(packed)
        with pytest.raises(ValueError):
            BallFamily(3)


class TestAtlas:
    """Every connected graph on 2 to 7 nodes (networkx's atlas), against
    the oracle.  A failure names the atlas graph and the radius, cutoff
    or ``t``."""

    @pytest.fixture(scope="class")
    def atlas(self):
        return [
            (graph.name, Network.from_graph(graph))
            for graph in connected_atlas(max_nodes=7)
        ]

    def test_schedules_eccentricities_and_distances(self, atlas):
        schedules = 0
        for name, net in atlas:
            for radius in range(net.n + 1):
                expected = oracle.flood_schedule(net, radius)
                assert flood_schedule(net, radius) == expected, (name, radius)
                schedules += 1
            assert eccentricities(net) == oracle.eccentricities(net), name
            adj = oracle.adjacency(net)
            indptr, indices = adjacency_csr(net)
            for cutoff in (math.inf, 1, 2):
                for offset, dist, exhausted in distance_blocks(
                    indptr, indices, range(net.n), cutoff=cutoff
                ):
                    for i, row in enumerate(dist):
                        ref = single_source_distances(adj, offset + i, cutoff)
                        got = {w: int(d) for w, d in enumerate(row) if d >= 0}
                        assert got == ref, (name, cutoff, offset + i)
                        assert bool(exhausted[i]) == bfs_exhausted(ref, cutoff), (
                            name,
                            cutoff,
                            offset + i,
                        )
        assert schedules == 7775

    def test_stretch_and_coverage_on_a_thinned_spanner(self, atlas):
        verdicts = 0
        for name, net in atlas:
            thinned = sorted(net.edge_ids)[::2]
            for cutoff in (math.inf, 2):
                assert adjacent_pair_stretch(
                    net, thinned, cutoff=cutoff
                ) == oracle.adjacent_pair_stretch(net, thinned, cutoff=cutoff), (
                    name,
                    cutoff,
                )
            assert pairwise_stretch(net, thinned) == oracle.pairwise_stretch(
                net, thinned
            ), name
            spanner = net.subnetwork(thinned)
            for radius in range(3):
                balls = flood_schedule(spanner, radius).balls
                for t in range(1, 4):
                    uncovered = balls.coverage(net, t)[0]
                    assert sorted(uncovered) == oracle.uncovered_centers(
                        net, balls, t
                    ), (name, radius, t)
                    verdicts += 1
        assert verdicts == 8955
