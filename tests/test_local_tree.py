"""Tests for the rooted-tree view of the cluster forest (``reference_forest``)."""

from __future__ import annotations

import pytest

from reference_forest import RootedTree
from repro.errors import ValidationError


def chain_tree(length: int) -> RootedTree:
    """0 <- 1 <- 2 ... (root 0), edge ids = child index."""
    return RootedTree(root=0, parent={i: (i - 1, i) for i in range(1, length)})


class TestRootedTree:
    def test_depths_and_height(self):
        tree = chain_tree(4)
        assert tree.depths() == {0: 0, 1: 1, 2: 2, 3: 3}
        assert tree.height == 3
        assert tree.size == 4

    def test_singleton(self):
        tree = RootedTree(root=7, parent={})
        assert tree.height == 0
        assert tree.members == frozenset({7})

    def test_children_sorted(self):
        tree = RootedTree(root=0, parent={2: (0, 5), 1: (0, 4)})
        assert tree.children()[0] == [(1, 4), (2, 5)]

    def test_edge_ids(self):
        assert chain_tree(3).edge_ids() == frozenset({1, 2})

    def test_disconnected_parent_map_rejected(self):
        with pytest.raises(ValidationError):
            RootedTree(root=0, parent={2: (3, 0)}).depths()
