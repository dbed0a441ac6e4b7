"""Tests for the graph generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    barabasi_albert,
    caveman,
    complete_graph,
    dense_gnm,
    erdos_renyi,
    grid,
    hypercube,
    random_regular,
    torus,
)


def _decode_pair_index_by_scan(idx: int, n: int) -> tuple[int, int]:
    """Scalar oracle for ``generators._decode_pair_index`` by direct scan."""
    u = 0
    while idx >= n - 1 - u:
        idx -= n - 1 - u
        u += 1
    return u, u + 1 + idx


class TestGenerators:
    def test_erdos_renyi_connected(self):
        net = erdos_renyi(80, 0.05, seed=2)
        assert nx.is_connected(net.to_networkx())

    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(50, 0.1, seed=7)
        b = erdos_renyi(50, 0.1, seed=7)
        assert a.edge_ids == b.edge_ids

    def test_dense_gnm_exact_m_or_connected(self):
        net = dense_gnm(40, 200, seed=1)
        assert net.m >= 200  # ensure_connected may add a few
        assert net.m <= 210

    def test_dense_gnm_rejects_overfull(self):
        with pytest.raises(ConfigurationError):
            dense_gnm(10, 100)

    def test_random_regular(self):
        net = random_regular(20, 4, seed=1)
        degrees = [net.degree(v) for v in net.nodes()]
        assert all(d >= 4 for d in degrees)  # ensure_connected may add edges
        assert sum(degrees) >= 80

    def test_random_regular_parity(self):
        with pytest.raises(ConfigurationError):
            random_regular(7, 3)

    def test_hypercube(self):
        net = hypercube(4)
        assert net.n == 16
        assert net.m == 32
        assert all(net.degree(v) == 4 for v in net.nodes())

    def test_grid_and_torus(self):
        g = grid(3, 4)
        t = torus(3, 4)
        assert g.n == t.n == 12
        assert g.m == 17
        assert t.m == 24
        assert all(t.degree(v) == 4 for v in t.nodes())

    def test_complete(self):
        net = complete_graph(10)
        assert net.m == 45

    def test_barabasi_albert(self):
        net = barabasi_albert(50, 3, seed=1)
        assert net.n == 50
        assert nx.is_connected(net.to_networkx())

    def test_caveman(self):
        net = caveman(4, 5)
        assert net.n == 20
        assert nx.is_connected(net.to_networkx())


class TestArrayEngine:
    """The O(m) vectorized generators (DESIGN.md §3.11): same
    distribution family as the reference path, different instances,
    pinned against scalar mirrors and structural invariants."""

    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_pair_decode_matches_scalar_mirror(self, n):
        import numpy as np

        from repro.graphs.generators import _decode_pair_index

        total = n * (n - 1) // 2
        idx = np.arange(total, dtype=np.int64)
        u, v = _decode_pair_index(idx, n)
        mirror = [_decode_pair_index_by_scan(i, n) for i in range(total)]
        assert list(zip(u.tolist(), v.tolist())) == mirror
        assert (u < v).all()

    def test_array_gnp_deterministic_and_connected(self):
        a = erdos_renyi(300, 0.02, seed=9, engine="array")
        b = erdos_renyi(300, 0.02, seed=9, engine="array")
        assert a.edge_ids == b.edge_ids
        assert a.fingerprint() == b.fingerprint()
        assert nx.is_connected(a.to_networkx())

    def test_array_gnp_seeds_differ(self):
        a = erdos_renyi(300, 0.02, seed=9, engine="array")
        b = erdos_renyi(300, 0.02, seed=10, engine="array")
        assert a.fingerprint() != b.fingerprint()

    def test_array_gnm_exact_edge_count(self):
        net = dense_gnm(100, 400, seed=3, connected=False, engine="array")
        assert net.m == 400
        seen = set()
        for eid in net.edge_ids:
            u, v = net.endpoints(eid)
            assert u != v  # simple graph: no self-loops ...
            assert (u, v) not in seen  # ... and no duplicate pairs
            seen.add((u, v))

    def test_array_ba_structure(self):
        n, attach = 120, 3
        net = barabasi_albert(n, attach, seed=4, engine="array")
        assert net.n == n
        # attachment process: a seed clique-free core then one batch of
        # `attach` edges per arriving node, connected by construction
        assert net.m == (n - attach) * attach
        assert nx.is_connected(net.to_networkx())
        degrees = sorted(net.degree(v) for v in net.nodes())
        assert degrees[0] >= attach  # arrivals bring `attach` stubs
        assert degrees[-1] > 2 * attach  # heavy tail exists

    @pytest.mark.parametrize(
        "build, fingerprint",
        [
            (
                lambda: erdos_renyi(1000, 0.002, seed=0, engine="array"),
                "2d865bbc29450a0ad658bb16ce9564b3d055fb0b0d93099cbb75bfcebb03de8c",
            ),
            (
                lambda: erdos_renyi(1000, 0.002, seed=1, engine="array"),
                "1917daf25eb0ee7da680046ddb67a3af64beb41404bed562a379075fe01ac4c0",
            ),
            (
                lambda: dense_gnm(200, 150, seed=0, engine="array"),
                "65f339c78d55561d4d4ca835880882d75bb13add844f7164d881084c85847aa9",
            ),
            (
                lambda: dense_gnm(200, 150, seed=1, engine="array"),
                "6cc2ea1d7a2971e9556488e34104246088bed233a496065be39cc83c7fe80fde",
            ),
            (
                lambda: barabasi_albert(300, 2, seed=0, engine="array"),
                "6628551e0ffa7e27823106d6b7727de05a13293c38cbbd188c6e2e8b4163e769",
            ),
        ],
    )
    def test_array_graphs_keep_their_fingerprints(self, build, fingerprint):
        """Sparse draws leave many components for the connecting pass;
        the pinned graphs must not change with its implementation."""
        assert build().fingerprint() == fingerprint

    @pytest.mark.parametrize("n, m, seed", [(1, 0, 0), (60, 20, 1), (200, 150, 2)])
    def test_components_match_union_find(self, n, m, seed):
        """The vectorized components equal a plain union-find's: same
        members, each sorted, in ascending-minimum order."""
        import random

        import numpy as np

        from repro.graphs.generators import _components

        rng = random.Random(seed)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(m)}
        u = np.array([a for a, _ in pairs], dtype=np.int64)
        v = np.array([b for _, b in pairs], dtype=np.int64)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
        buckets = {}
        for node in range(n):
            buckets.setdefault(find(node), []).append(node)
        expected = [buckets[root] for root in sorted(buckets)]
        assert _components(n, u, v) == expected

    def test_default_engine_unchanged(self):
        """engine='reference' is the default and stays byte-identical —
        existing seeds must keep reproducing their committed graphs."""
        assert (
            erdos_renyi(50, 0.1, seed=7).fingerprint()
            == erdos_renyi(50, 0.1, seed=7, engine="reference").fingerprint()
        )

    def test_bad_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(30, 0.1, seed=1, engine="simd")
