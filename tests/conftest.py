"""Shared fixtures: small, deterministic networks and parameter sets.

The hypercube and grid families are built here: only the tests use
them, so :mod:`repro.graphs` does not ship them.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.params import SamplerParams
from repro.graphs import caveman, erdos_renyi, torus
from repro.local.network import Network


def hypercube(dim: int) -> Network:
    """The ``dim``-dimensional hypercube (n = 2**dim) — Peleg–Ullman's habitat."""
    graph = nx.hypercube_graph(dim)
    graph = nx.relabel_nodes(
        graph, {node: int("".join(map(str, node)), 2) for node in graph.nodes()}
    )
    return Network.from_graph(graph, name=f"hypercube(d={dim})")


def grid(rows: int, cols: int) -> Network:
    """2D grid (open boundary): sparse, large diameter."""
    graph = nx.grid_2d_graph(rows, cols)
    graph = nx.relabel_nodes(graph, {(r, c): r * cols + c for r, c in graph.nodes()})
    return Network.from_graph(graph, name=f"grid({rows}x{cols})")


@pytest.fixture
def path4() -> Network:
    """0-1-2-3 path."""
    return Network.from_edge_pairs(4, [(0, 1), (1, 2), (2, 3)], name="path4")


@pytest.fixture
def triangle() -> Network:
    return Network.from_edge_pairs(3, [(0, 1), (1, 2), (0, 2)], name="triangle")


@pytest.fixture
def star6() -> Network:
    """Center 0 with five leaves."""
    return Network.from_edge_pairs(6, [(0, i) for i in range(1, 6)], name="star6")


@pytest.fixture
def er_small() -> Network:
    return erdos_renyi(60, 0.15, seed=3)


@pytest.fixture
def er_medium() -> Network:
    return erdos_renyi(120, 0.12, seed=4)


@pytest.fixture
def disconnected() -> Network:
    """Two triangles with no crossing edges, plus one isolated node."""
    return Network.from_edge_pairs(
        7,
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        name="two-triangles",
    )


@pytest.fixture
def default_params() -> SamplerParams:
    return SamplerParams(k=2, h=2, seed=11)


@pytest.fixture
def tiny_params() -> SamplerParams:
    return SamplerParams(k=1, h=1, seed=7)


@pytest.fixture(
    params=[
        ("er", lambda: erdos_renyi(50, 0.2, seed=1)),
        ("hypercube", lambda: hypercube(5)),
        ("torus", lambda: torus(6, 6)),
        ("grid", lambda: grid(5, 7)),
        ("caveman", lambda: caveman(5, 6)),
    ],
    ids=lambda p: p[0],
)
def workload(request) -> Network:
    """A small family of structurally diverse graphs."""
    return request.param[1]()
