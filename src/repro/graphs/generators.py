"""Deterministic generators for benchmark and test networks.

All generators return :class:`~repro.local.network.Network` instances
with consecutive, content-derived edge ids (see
:meth:`Network.from_graph`), so a given ``(family, parameters, seed)``
triple always produces the identical network.

Random families are connected by construction or post-connected with
:func:`ensure_connected`, which links components along a seeded random
permutation; the paper's guarantees are per connected component, but a
connected input keeps stretch measurement simple.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.distance import component_labels
from repro.local.knowledge import Knowledge
from repro.local.network import Network

__all__ = [
    "erdos_renyi",
    "dense_gnm",
    "random_regular",
    "hypercube",
    "grid",
    "torus",
    "complete_graph",
    "barabasi_albert",
    "caveman",
    "ensure_connected",
]

_ENGINES = ("reference", "array")


def _check_engine(engine: str) -> None:
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"unknown generator engine {engine!r}; choose from {_ENGINES}"
        )


# ----------------------------------------------------------------------
# array engine internals (DESIGN.md §3.11)
#
# The array engine samples edges as *pair indices* into the upper
# triangle of the adjacency matrix and decodes them vectorized, so a
# G(n, p) instance at n = 10^5..10^6 is generated in O(m) NumPy work.
# It draws from ``numpy.random.default_rng`` (PCG64), not the
# networkx/MT19937 path — same distribution family, different sampled
# instances — because replaying networkx exactly would need one draw
# per node *pair* (O(n^2), the very cost this engine removes).  The
# ``engine="reference"`` default keeps every existing seed reproducing
# byte-identically; cross-checks against pure-Python mirrors in
# tests/test_graphs.py pin the vectorized decode and assembly.
# ----------------------------------------------------------------------


def _decode_pair_index(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert ``idx = u*n - u*(u+1)/2 + (v - u - 1)`` over ``u < v < n``.

    The float solve of the triangular equation can land one row off at
    64-bit edge cases, so two integer fixups follow it.
    """
    b = 2 * n - 1
    u = ((b - np.sqrt(b * b - 8.0 * idx)) / 2).astype(np.int64)
    off = u * n - u * (u + 1) // 2
    u[off > idx] -= 1
    off = u * n - u * (u + 1) // 2
    u[idx - off >= (n - 1 - u)] += 1
    off = u * n - u * (u + 1) // 2
    v = idx - off + u + 1
    return u, v


def _sample_distinct_indices(
    rng: np.random.Generator, total: int, count: int
) -> np.ndarray:
    """``count`` distinct uniform indices from ``0..total-1``, sorted.

    Oversampled rejection: draw with replacement, unique, repeat until
    enough, then thin to exactly ``count`` without replacement.  The
    union of uniform draws is an exchangeable subset, so thinning keeps
    the result a uniform ``count``-subset.
    """
    if count > total:
        raise ConfigurationError(f"cannot sample {count} of {total} pairs")
    have = np.empty(0, dtype=np.int64)
    while len(have) < count:
        need = count - len(have)
        draw = rng.integers(0, total, size=int(need * 1.1) + 16)
        have = np.unique(np.concatenate([have, draw]))
    if len(have) > count:
        have = np.sort(rng.choice(have, size=count, replace=False))
    return have


def _components(n: int, u: np.ndarray, v: np.ndarray) -> list[list[int]]:
    """Connected components, each sorted, in ascending-minimum order."""
    labels = component_labels(n, u, v)
    # A stable sort by label keeps each component's nodes ascending;
    # labels are component minima, so components come out in order.
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [part.tolist() for part in np.split(order, cuts)]


def _connect_components_array(
    n: int, u: np.ndarray, v: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Array-engine analogue of :func:`ensure_connected`.

    Chains seeded random representatives of the components in
    ascending-minimum order — the same rule as the reference path, drawn
    from its own ``random.Random`` so the added edges are reproducible
    from ``seed`` alone.
    """
    comps = _components(n, u, v)
    if len(comps) <= 1:
        return u, v
    rng = random.Random(seed ^ 0x5EED)
    extra_u: list[int] = []
    extra_v: list[int] = []
    for left, right in zip(comps, comps[1:]):
        extra_u.append(rng.choice(left))
        extra_v.append(rng.choice(right))
    return (
        np.concatenate([u, np.array(extra_u, dtype=np.int64)]),
        np.concatenate([v, np.array(extra_v, dtype=np.int64)]),
    )


def _finish_array_graph(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    seed: int,
    connected: bool,
    knowledge: Knowledge,
    name: str,
) -> Network:
    if connected:
        u, v = _connect_components_array(n, u, v, seed)
    # Content-derived consecutive ids: rows in (u, v) lexicographic
    # order, matching the id discipline of ``Network.from_graph``.
    order = np.lexsort((v, u))
    return Network.from_arrays(
        n, u[order], v[order], knowledge=knowledge, name=name
    )


def _gnp_pairs_array(
    n: int, p: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    count = int(rng.binomial(total, p)) if total else 0
    idx = _sample_distinct_indices(rng, total, count)
    return _decode_pair_index(idx, n)


def _gnm_pairs_array(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    idx = _sample_distinct_indices(rng, total, m)
    return _decode_pair_index(idx, n)


def _ba_pairs_array(
    n: int, attach: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Preferential attachment over the repeated-endpoints multiset.

    Node ``attach`` links to all of ``0..attach-1``; every later node
    draws ``attach`` distinct targets uniformly from the multiset of
    edge endpoints so far (degree-proportional by construction).
    Connected by induction, like the reference generator.
    """
    if attach < 1 or attach >= n:
        raise ConfigurationError("barabasi_albert needs 1 <= attach < n")
    rng = np.random.default_rng(seed)
    us: list[int] = []
    vs: list[int] = []
    repeated: list[int] = []
    targets = list(range(attach))
    for source in range(attach, n):
        us.extend(targets)
        vs.extend([source] * len(targets))
        repeated.extend(targets)
        repeated.extend([source] * len(targets))
        picked: set[int] = set()
        while len(picked) < attach:
            for slot in rng.integers(
                0, len(repeated), size=2 * (attach - len(picked))
            ).tolist():
                picked.add(repeated[slot])
                if len(picked) == attach:
                    break
        targets = sorted(picked)
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def ensure_connected(graph: nx.Graph, seed: int) -> nx.Graph:
    """Connect components by chaining seeded random representatives.

    Adds at most ``#components - 1`` edges; for the random families used
    here that is a vanishing perturbation.
    """
    if graph.number_of_nodes() == 0 or nx.is_connected(graph):
        return graph
    rng = random.Random(seed ^ 0x5EED)
    components = [sorted(c) for c in nx.connected_components(graph)]
    components.sort(key=lambda c: c[0])
    for left, right in zip(components, components[1:]):
        graph.add_edge(rng.choice(left), rng.choice(right))
    return graph


def erdos_renyi(
    n: int,
    p: float,
    seed: int = 0,
    *,
    connected: bool = True,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
    engine: str = "reference",
) -> Network:
    """G(n, p) random graph.

    ``engine="reference"`` (the default) is the original networkx path —
    byte-identical instances for existing seeds.  ``engine="array"`` is
    the O(m) vectorized sampler (DESIGN.md §3.11): same distribution,
    different instances, and the only path feasible at n >= 10^5.
    """
    _check_engine(engine)
    name = f"er(n={n},p={p},s={seed})"
    if engine == "array":
        u, v = _gnp_pairs_array(n, p, seed)
        return _finish_array_graph(
            n, u, v, seed, connected, knowledge, name + "[array]"
        )
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if connected:
        graph = ensure_connected(graph, seed)
    return Network.from_graph(graph, knowledge=knowledge, name=name)


def dense_gnm(
    n: int,
    m: int,
    seed: int = 0,
    *,
    connected: bool = True,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
    engine: str = "reference",
) -> Network:
    """G(n, m): exactly ``m`` uniformly random edges — the density-sweep workload.

    ``engine`` selects the networkx reference path or the vectorized
    array sampler; see :func:`erdos_renyi`.  The array path keeps edge
    count exact: ``connected`` may add chain edges on top of ``m``,
    matching the reference behaviour.
    """
    _check_engine(engine)
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ConfigurationError(f"m={m} exceeds simple-graph maximum {max_m}")
    name = f"gnm(n={n},m={m},s={seed})"
    if engine == "array":
        u, v = _gnm_pairs_array(n, m, seed)
        return _finish_array_graph(
            n, u, v, seed, connected, knowledge, name + "[array]"
        )
    graph = nx.gnm_random_graph(n, m, seed=seed)
    if connected:
        graph = ensure_connected(graph, seed)
    return Network.from_graph(graph, knowledge=knowledge, name=name)


def random_regular(
    n: int,
    d: int,
    seed: int = 0,
    *,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
) -> Network:
    """Random ``d``-regular graph (a standard expander family for d >= 3)."""
    if n * d % 2 != 0:
        raise ConfigurationError("n*d must be even for a d-regular graph")
    graph = nx.random_regular_graph(d, n, seed=seed)
    graph = ensure_connected(graph, seed)
    return Network.from_graph(graph, knowledge=knowledge, name=f"reg(n={n},d={d},s={seed})")


def hypercube(dim: int, *, knowledge: Knowledge = Knowledge.EDGE_IDS) -> Network:
    """The ``dim``-dimensional hypercube (n = 2**dim) — Peleg–Ullman's habitat."""
    graph = nx.hypercube_graph(dim)
    relabel = {node: int("".join(map(str, node)), 2) for node in graph.nodes()}
    graph = nx.relabel_nodes(graph, relabel)
    return Network.from_graph(graph, knowledge=knowledge, name=f"hypercube(d={dim})")


def grid(rows: int, cols: int, *, knowledge: Knowledge = Knowledge.EDGE_IDS) -> Network:
    """2D grid (open boundary): sparse, large diameter."""
    graph = nx.grid_2d_graph(rows, cols)
    relabel = {(r, c): r * cols + c for r, c in graph.nodes()}
    graph = nx.relabel_nodes(graph, relabel)
    return Network.from_graph(graph, knowledge=knowledge, name=f"grid({rows}x{cols})")


def torus(rows: int, cols: int, *, knowledge: Knowledge = Knowledge.EDGE_IDS) -> Network:
    """2D torus (periodic grid)."""
    graph = nx.grid_2d_graph(rows, cols, periodic=True)
    relabel = {(r, c): r * cols + c for r, c in graph.nodes()}
    graph = nx.relabel_nodes(graph, relabel)
    return Network.from_graph(graph, knowledge=knowledge, name=f"torus({rows}x{cols})")


def complete_graph(n: int, *, knowledge: Knowledge = Knowledge.EDGE_IDS) -> Network:
    """K_n — the densest workload (m = n(n-1)/2)."""
    return Network.from_graph(
        nx.complete_graph(n), knowledge=knowledge, name=f"complete(n={n})"
    )


def barabasi_albert(
    n: int,
    attach: int,
    seed: int = 0,
    *,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
    engine: str = "reference",
) -> Network:
    """Preferential-attachment graph: heavy-tailed degrees.

    ``engine`` selects the networkx reference path or the array
    attachment process (connected by construction on both paths); see
    :func:`erdos_renyi`.
    """
    _check_engine(engine)
    name = f"ba(n={n},m={attach},s={seed})"
    if engine == "array":
        u, v = _ba_pairs_array(n, attach, seed)
        return _finish_array_graph(
            n, u, v, seed, False, knowledge, name + "[array]"
        )
    graph = nx.barabasi_albert_graph(n, attach, seed=seed)
    return Network.from_graph(graph, knowledge=knowledge, name=name)


def caveman(cliques: int, clique_size: int, *, knowledge: Knowledge = Knowledge.EDGE_IDS) -> Network:
    """Connected caveman graph: dense clusters, sparse inter-cluster edges.

    A stress test for the clustering hierarchy — most edges are
    intra-cluster and must be recognized as such by the dedup rule.
    """
    graph = nx.connected_caveman_graph(cliques, clique_size)
    return Network.from_graph(
        graph, knowledge=knowledge, name=f"caveman({cliques}x{clique_size})"
    )
