"""Graph workloads and the distance plane.

* :mod:`repro.graphs.generators` — deterministic families of test and
  benchmark networks (Erdős–Rényi, random regular, hypercube, torus,
  complete, Barabási–Albert, caveman, fixed-m G(n,m)).
* :mod:`repro.graphs.distance` — the distance plane: batched truncated
  BFS over CSR arrays (NumPy bitset sweeps) behind every
  flood/stretch/coverage computation.
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

__all__ = [
    "BallFamily",
    "balls_and_eccentricities",
    "barabasi_albert",
    "eccentricities",
    "caveman",
    "complete_graph",
    "dense_gnm",
    "erdos_renyi",
    "grid",
    "hypercube",
    "random_regular",
    "torus",
]
