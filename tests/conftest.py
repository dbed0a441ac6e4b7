"""Shared fixtures: small, deterministic networks and parameter sets."""

from __future__ import annotations

import pytest

from repro.core.params import SamplerParams
from repro.graphs import caveman, erdos_renyi, grid, hypercube, torus
from repro.local.network import Network


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
