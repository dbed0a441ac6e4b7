"""``Network.fingerprint()`` — the artifact store's addressing primitive.

The contract (DESIGN.md §3.8): two networks share a fingerprint iff
they agree on ``n``, the knowledge model, and the exact
``eid -> (u, v)`` mapping; the hash is invariant to construction input
order and to lazy view materialization.
"""

from __future__ import annotations

from repro.bench.workloads import dense_graph
from repro.graphs import erdos_renyi, torus
from repro.local.knowledge import Knowledge
from repro.local.network import Network


def _pairs() -> list[tuple[int, int]]:
    return [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]


class TestFingerprint:
    def test_stable_and_cached(self):
        net = erdos_renyi(40, 0.2, seed=3)
        first = net.fingerprint()
        assert first == net.fingerprint()
        assert len(first) == 64 and int(first, 16) >= 0  # hex sha256

    def test_equal_content_equal_fingerprint(self):
        a = Network.from_edge_pairs(4, _pairs())
        b = Network.from_edge_pairs(4, _pairs(), name="other-name")
        assert a.fingerprint() == b.fingerprint()  # names are cosmetic

    def test_invariant_to_edge_input_order(self):
        # from_edge_pairs assigns eids by position, so reversing the
        # list changes the eid->endpoints mapping; feeding identical
        # EdgeRef rows in any order must not.
        a = Network.from_edge_pairs(4, _pairs())
        edges = [a.edge(eid) for eid in a.edge_ids]
        shuffled = Network(4, reversed(edges))
        assert a.fingerprint() == shuffled.fingerprint()

    def test_view_materialization_does_not_change_hash(self):
        net = erdos_renyi(30, 0.2, seed=5)
        before = net.fingerprint()
        # Materialize every lazy view the Network owns.
        net.adjacency()
        for v in net.nodes():
            net.incident(v)
            net.neighbors(v)
        for eid in net.edge_ids:
            net.edge(eid)
        assert net.fingerprint() == before

    def test_distinct_graphs_distinct_fingerprints(self):
        base = Network.from_edge_pairs(4, _pairs())
        relabeled = Network.from_edge_pairs(4, [(3, 2), (2, 1), (1, 0), (3, 0), (2, 0)])
        missing_edge = Network.from_edge_pairs(4, _pairs()[:-1])
        bigger = Network.from_edge_pairs(5, _pairs())
        fingerprints = {
            base.fingerprint(),
            relabeled.fingerprint(),
            missing_edge.fingerprint(),
            bigger.fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_same_pairs_different_eids_differ(self):
        # Same topology, shifted edge ids: the unique-edge-ID model
        # makes the ids semantic, so the fingerprints must differ.
        from repro.local.edges import EdgeRef

        a = Network.from_edge_pairs(4, _pairs())
        shifted = Network(
            4,
            [EdgeRef(eid + 10, *a.endpoints(eid)) for eid in a.edge_ids],
        )
        assert a.fingerprint() != shifted.fingerprint()

    def test_knowledge_is_part_of_the_hash(self):
        net = Network.from_edge_pairs(4, _pairs())
        kt1 = net.with_knowledge(Knowledge.KT1)
        assert net.fingerprint() != kt1.fingerprint()
        # ...and the clone's hash is its own, not the parent's cache.
        assert kt1.fingerprint() == Network.from_edge_pairs(
            4, _pairs(), knowledge=Knowledge.KT1
        ).fingerprint()

    def test_full_subnetwork_collides_with_parent(self):
        # Same n, same eid->endpoints mapping, same knowledge: the
        # "collide only when truly identical" direction.
        net = torus(4, 4)
        assert net.subnetwork(net.edge_ids).fingerprint() == net.fingerprint()

    def test_proper_subnetwork_differs(self):
        net = torus(4, 4)
        sub = net.subnetwork(list(net.edge_ids)[:-1])
        assert sub.fingerprint() != net.fingerprint()


class TestValueEquality:
    def test_networks_compare_by_content(self):
        a = Network.from_edge_pairs(4, _pairs(), name="a")
        b = Network.from_edge_pairs(4, _pairs(), name="b")
        assert a == b and hash(a) == hash(b)
        assert a != Network.from_edge_pairs(4, _pairs()[:-1])
        assert a != Network.from_edge_pairs(4, _pairs()).with_knowledge(Knowledge.KT1)
        assert a != object() and (a == object()) is False

    def test_store_rebound_results_compare_equal(self, tmp_path):
        # The property that motivates value equality: a SpannerResult
        # rebound to a content-identical graph equals the live build.
        from repro.core import SamplerParams
        from repro.core.distributed import build_spanner_distributed
        from repro.store import load_spanner, save_spanner

        net = erdos_renyi(30, 0.2, seed=4)
        twin = erdos_renyi(30, 0.2, seed=4)
        result = build_spanner_distributed(net, SamplerParams(k=1, h=1, seed=2))
        path = tmp_path / "sp.npz"
        save_spanner(path, result)
        assert load_spanner(path, twin) == result


class TestDenseGraphDedupe:
    def test_repeated_builds_return_the_same_object(self):
        a = dense_graph(48, seed=2)
        b = dense_graph(48, seed=2)
        assert a is b

    def test_distinct_instances_stay_distinct(self):
        assert dense_graph(48, seed=2) is not dense_graph(48, seed=3)
