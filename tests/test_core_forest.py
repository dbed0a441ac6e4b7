"""Tests for the cluster forest (Lemma 8 machinery)."""

from __future__ import annotations

import pytest

from reference_forest import cluster_members, cluster_tree
from repro.core.forest import ClusterForest
from repro.errors import ValidationError
from repro.local.network import Network


@pytest.fixture
def line6() -> Network:
    return Network.from_edge_pairs(6, [(i, i + 1) for i in range(5)], name="line6")


class TestAttach:
    def test_singleton_merge(self, line6):
        forest = ClusterForest(line6)
        forest.attach(joiner=1, center=0, eid=0)
        assert cluster_members(forest, 0) == [0, 1]
        assert forest.root_of[1] == 0
        assert cluster_tree(forest, 0).height == 1

    def test_chain_of_merges_rerooted(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)   # {0,1}
        forest.attach(2, 0, 1)   # {0,1,2} via edge (1,2)
        forest.attach(3, 0, 2)   # via (2,3)
        tree = cluster_tree(forest, 0)
        assert tree.size == 4
        assert tree.height == 3
        assert tree.edge_ids() == frozenset({0, 1, 2})

    def test_merge_cluster_into_cluster_with_reroot(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)       # A = {0,1} rooted at 0
        forest.attach(3, 2, 2)       # B = {2,3} rooted at 2
        # B joins A through edge (1,2): x=2 is already B's root
        forest.attach(2, 0, 1)
        tree = cluster_tree(forest, 0)
        assert tree.size == 4
        assert forest.root_of[3] == 0

    def test_reroot_flips_path(self, line6):
        forest = ClusterForest(line6)
        # build B = {2,3,4} rooted at 2 as a chain 2<-3<-4
        forest.attach(3, 2, 2)
        forest.attach(4, 2, 3)
        # join B into {5} through edge (4,5): tree must re-root at 4
        forest.attach(2, 5, 4)
        tree = cluster_tree(forest, 5)
        assert tree.size == 4
        depths = tree.depths()
        assert depths[4] == 1 and depths[3] == 2 and depths[2] == 3

    def test_self_attach_rejected(self, line6):
        forest = ClusterForest(line6)
        with pytest.raises(ValidationError):
            forest.attach(0, 0, 0)

    def test_non_crossing_edge_rejected(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)
        # edge 0 = (0,1) is now internal to cluster 0
        with pytest.raises(ValidationError):
            forest.attach(2, 0, 0)

    def test_unknown_cluster_rejected(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)
        with pytest.raises(ValidationError):
            forest.attach(1, 5, 4)  # 1 is no longer a cluster id


class TestAccessors:
    def test_initial_state(self, line6):
        forest = ClusterForest(line6)
        assert forest.size(3) == 1
        assert cluster_tree(forest, 3).parent == {}
        assert all(cluster_tree(forest, v).height == 0 for v in range(6))

    def test_parent_edge_after_attach(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)
        assert cluster_tree(forest, 0).parent == {1: (0, 0)}  # the root has no parent edge

    def test_tree_edges_subset_of_used(self, line6):
        forest = ClusterForest(line6)
        forest.attach(1, 0, 0)
        forest.attach(2, 0, 1)
        assert cluster_tree(forest, 0).edge_ids() <= {0, 1, 2, 3, 4}
