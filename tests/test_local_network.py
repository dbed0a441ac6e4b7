"""Tests for Network, EdgeRef and the knowledge model."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_churn as oracle
from reference_churn import assert_same_network
from repro.errors import ConfigurationError
from repro.graphs import erdos_renyi
from repro.local import EdgeRef, Knowledge, Network


class TestEdgeRef:
    def test_canonical_orientation(self):
        edge = EdgeRef(0, 5, 2)
        assert (edge.u, edge.v) == (2, 5)

    def test_other(self):
        edge = EdgeRef(0, 1, 2)
        assert edge.other(1) == 2
        assert edge.other(2) == 1
        with pytest.raises(ValueError):
            edge.other(3)

    def test_loop_detection(self):
        assert EdgeRef(0, 3, 3).is_loop()
        assert not EdgeRef(0, 3, 4).is_loop()


class TestNetworkConstruction:
    def test_from_edge_pairs(self, path4):
        assert path4.n == 4
        assert path4.m == 3
        assert path4.incident(1) == (0, 1)
        assert path4.degree(0) == 1

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(2, [EdgeRef(0, 0, 1), EdgeRef(0, 1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(2, [EdgeRef(0, 1, 1)])

    def test_endpoint_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(2, [EdgeRef(0, 0, 5)])

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError):
            Network(0, [])

    def test_from_graph_is_deterministic(self):
        a = erdos_renyi(30, 0.2, seed=9)
        b = erdos_renyi(30, 0.2, seed=9)
        assert a.edge_ids == b.edge_ids
        assert [a.endpoints(e) for e in a.edge_ids] == [
            b.endpoints(e) for e in b.edge_ids
        ]

    def test_to_networkx_roundtrip(self, er_small):
        g = er_small.to_networkx()
        again = Network.from_graph(g)
        assert again.n == er_small.n
        assert again.m == er_small.m


class TestNetworkAccessors:
    def test_other_end(self, path4):
        eid = path4.incident(0)[0]
        assert path4.other_end(eid, 0) == 1

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(0)) == [1, 2]

    def test_incident_sorted(self, star6):
        assert list(star6.incident(0)) == sorted(star6.incident(0))

    def test_adjacency(self, triangle):
        adj = triangle.adjacency()
        assert sorted(adj[1]) == [0, 2]


class TestSubnetwork:
    def test_preserves_edge_ids(self, er_small):
        keep = list(er_small.edge_ids)[::2]
        sub = er_small.subnetwork(keep)
        assert sub.n == er_small.n
        assert set(sub.edge_ids) == set(keep)
        for eid in keep:
            assert sub.endpoints(eid) == er_small.endpoints(eid)

    def test_unknown_edge_rejected(self, path4):
        with pytest.raises(ConfigurationError):
            path4.subnetwork([999])

    def test_empty_subnetwork(self, path4):
        sub = path4.subnetwork([])
        assert sub.m == 0
        assert sub.n == 4


class TestKnowledge:
    def test_default_is_edge_ids(self, path4):
        assert path4.knowledge is Knowledge.EDGE_IDS

    def test_with_knowledge(self, path4):
        kt1 = path4.with_knowledge(Knowledge.KT1)
        assert kt1.knowledge is Knowledge.KT1
        assert kt1.m == path4.m

    def test_exposure_flags(self):
        assert not Knowledge.KT0.exposes_edge_ids
        assert Knowledge.EDGE_IDS.exposes_edge_ids
        assert not Knowledge.EDGE_IDS.exposes_neighbor_ids
        assert Knowledge.KT1.exposes_neighbor_ids


@st.composite
def edge_rows(draw):
    """``(n, [(eid, a, b), ...])``: unordered scattered ids, either
    orientation, parallel edges allowed, possibly no edges at all."""
    n = draw(st.integers(min_value=1, max_value=30))
    if n == 1:
        return n, []
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=60,
        )
    )
    ids = draw(
        st.lists(
            st.integers(0, 500), min_size=len(pairs), max_size=len(pairs), unique=True
        )
    )
    return n, [(eid, a, b) for eid, (a, b) in zip(ids, pairs)]


_ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestCsrFillOracle:
    """Every constructor and derivation fills the CSR as the per-row
    loop it replaced (``tests/reference_churn.py``) did, slot for slot."""

    @given(case=edge_rows())
    @_ORACLE_SETTINGS
    def test_constructors(self, case):
        n, rows = case
        edges = [EdgeRef(eid, a, b) for eid, a, b in rows]
        assert_same_network(Network(n, edges), oracle.network(n, edges))
        pairs = [(a, b) for _eid, a, b in rows]
        assert_same_network(
            Network.from_edge_pairs(n, pairs), oracle.from_edge_pairs(n, pairs)
        )
        us = np.array([a for a, _b in pairs], dtype=np.int64)
        vs = np.array([b for _a, b in pairs], dtype=np.int64)
        assert_same_network(Network.from_arrays(n, us, vs), oracle.from_arrays(n, us, vs))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(pairs)
        assert_same_network(Network.from_graph(graph), oracle.from_graph(graph))

    @given(case=edge_rows(), seed=st.integers(0, 1000))
    @_ORACLE_SETTINGS
    def test_subnetwork_and_mutated(self, case, seed):
        n, rows = case
        rng = random.Random(seed)
        for parent in (
            Network(n, [EdgeRef(eid, a, b) for eid, a, b in rows]),
            Network.from_edge_pairs(n, [(a, b) for _eid, a, b in rows]),
        ):
            ids = list(parent.edge_ids)
            # repeats allowed, any order
            keep = rng.choices(ids, k=rng.randrange(len(ids) + 1))
            assert_same_network(parent.subnetwork(keep), oracle.subnetwork(parent, keep))
            drop = rng.sample(ids, rng.randrange(len(ids) + 1))
            # re-add half the dropped ids (below the survivors) and three
            # fresh ones, in no particular order
            fresh = range(max(ids, default=0) + 1, max(ids, default=0) + 4)
            add = [
                (eid, *rng.sample(range(n), 2))
                for eid in [*drop[: len(drop) // 2], *fresh]
            ] if n > 1 else []
            rng.shuffle(add)
            assert_same_network(
                parent.mutated(remove=drop, add=add),
                oracle.mutated(parent, remove=drop, add=add),
            )

    def test_path_node_is_v_then_u(self):
        # node 1 is the v of row 0 and the u of row 1, so its slice is
        # (0, 1); sorting concat(us, vs) would list row 1 first
        pairs = [(0, 1), (1, 2)]
        for net in (
            Network.from_edge_pairs(3, pairs),
            Network.from_arrays(3, [0, 1], [1, 2]),
            Network(3, [EdgeRef(7, 0, 1), EdgeRef(9, 1, 2)]),
        ):
            assert net.incident(1) == tuple(net.edge_ids)
        assert_same_network(
            Network.from_edge_pairs(3, pairs), oracle.from_edge_pairs(3, pairs)
        )

    def test_unsorted_additions_are_merged_in_eid_order(self):
        net = Network.from_edge_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        add = [(9, 0, 4), (1, 0, 2), (6, 1, 3)]
        child = net.mutated(remove=[1], add=add)
        assert child.edge_ids == (0, 1, 2, 3, 6, 9)
        assert_same_network(child, oracle.mutated(net, remove=[1], add=add))

    def test_derived_ids_are_the_parents_objects(self):
        net = erdos_renyi(60, 0.2, seed=1)
        child = net.mutated(remove=net.edge_ids[:5], add=[(10**6, 0, 1)])
        assert all(a is b for a, b in zip(child.edge_ids, net.edge_ids[5:]))
        sub = child.subnetwork(child.edge_ids[::2])
        assert all(a is b for a, b in zip(sub.edge_ids, child.edge_ids[::2]))

    @pytest.mark.parametrize("bad", [999, -1, 2**64, 10**6])
    def test_unknown_ids_are_named(self, er_small, bad):
        sparse = er_small.subnetwork(er_small.edge_ids[1::2])
        for net in (er_small, sparse):
            ids = [net.edge_ids[0], bad]
            with pytest.raises(ConfigurationError, match=f"edge id {bad} not in network"):
                net.subnetwork(ids)
            with pytest.raises(ConfigurationError, match=f"unknown edge id {bad}"):
                net.mutated(remove=ids)

    def test_smallest_unknown_id_is_named(self, path4):
        with pytest.raises(ConfigurationError, match="edge id 7 not in network"):
            path4.subnetwork([0, 9, 7, 2])
