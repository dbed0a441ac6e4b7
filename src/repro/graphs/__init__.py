"""Graph workloads and the multigraph machinery behind cluster graphs.

* :mod:`repro.graphs.generators` — deterministic families of test and
  benchmark networks (Erdős–Rényi, random regular, hypercube, torus,
  complete, Barabási–Albert, caveman, fixed-m G(n,m)).
* :mod:`repro.graphs.multigraph` — :class:`LevelMultigraph`, the virtual
  graph ``G_j`` of the paper (cluster nodes, parallel edges carried as
  original edge ids).
* :mod:`repro.graphs.contraction` — builds ``G_{j+1} = G_j(C)``.
* :mod:`repro.graphs.distance` — the distance plane: batched truncated
  BFS over CSR arrays (NumPy bitset sweeps + the pure-Python reference
  engine) behind every flood/stretch/coverage computation.
"""

from repro.graphs.distance import (
    BallFamily,
    balls_and_eccentricities,
    eccentricities,
)
from repro.graphs.generators import (
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
from repro.graphs.multigraph import LevelMultigraph
from repro.graphs.contraction import contract

__all__ = [
    "BallFamily",
    "LevelMultigraph",
    "balls_and_eccentricities",
    "barabasi_albert",
    "eccentricities",
    "caveman",
    "complete_graph",
    "contract",
    "dense_gnm",
    "erdos_renyi",
    "grid",
    "hypercube",
    "random_regular",
    "torus",
]
