"""The cluster forest's trees, read back from its parent pointers.

:class:`~repro.core.forest.ClusterForest` keeps one flat parent map
over the physical nodes (``parent_items()``) and the cluster of every
node (``root_of``); the level kernel and the pricing read those arrays
directly.  The serial reference sampler and the forest tests need the
per-cluster view instead: :func:`cluster_tree` assembles a cluster's
spanning tree as a :class:`RootedTree`, whose depths and height are
the quantities Lemma 8 of the paper bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.core.forest import ClusterForest
from repro.errors import ValidationError


@dataclass(frozen=True)
class RootedTree:
    """An immutable rooted tree over integer node ids."""

    root: int
    parent: Mapping[int, tuple[int, int]]  # child -> (parent, eid)

    @property
    def members(self) -> frozenset[int]:
        return frozenset(self.parent) | {self.root}

    @property
    def size(self) -> int:
        return len(self.parent) + 1

    def children(self) -> dict[int, list[tuple[int, int]]]:
        """parent -> list of (child, eid), children sorted by id."""
        out: dict[int, list[tuple[int, int]]] = {}
        for child, (par, eid) in sorted(self.parent.items()):
            out.setdefault(par, []).append((child, eid))
        return out

    def depths(self) -> dict[int, int]:
        depth = {self.root: 0}
        kids = self.children()
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            for child, _eid in kids.get(node, ()):
                depth[child] = depth[node] + 1
                queue.append(child)
        if len(depth) != self.size:
            raise ValidationError("parent map is not a connected tree")
        return depth

    @property
    def height(self) -> int:
        return max(self.depths().values(), default=0)

    def edge_ids(self) -> frozenset[int]:
        return frozenset(eid for _parent, eid in self.parent.values())


def cluster_members(forest: ClusterForest, cid: int) -> list[int]:
    """Physical members of cluster ``cid``, ascending, root included."""
    return [phys for phys, root in enumerate(forest.root_of) if root == cid]


def cluster_tree(forest: ClusterForest, cid: int) -> RootedTree:
    """The current spanning tree of cluster ``cid``."""
    pointers = dict(forest.parent_items())
    members = set(cluster_members(forest, cid))
    missing = members - set(pointers) - {cid}
    if missing:
        raise ValidationError(f"members without parents in cluster {cid}: {missing}")
    return RootedTree(root=cid, parent={p: pointers[p] for p in members if p != cid})
