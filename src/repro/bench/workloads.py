"""Shared workload definitions for the experiment suite."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.local.network import Network
from repro.graphs import dense_gnm, erdos_renyi, hypercube, torus

__all__ = ["Workload", "density_sweep", "size_sweep", "stretch_workloads"]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], Network]


def size_sweep(scale: str) -> list[int]:
    """Node counts for E1's growth fit (graphs get m = n(n-1)/4 edges)."""
    if scale == "full":
        return [128, 256, 512, 1024]
    return [128, 256, 512]


def density_sweep(scale: str) -> tuple[int, list[int]]:
    """(n, list of m) for E3's fixed-n density sweep."""
    if scale == "full":
        return 900, [8_000, 20_000, 50_000, 120_000, 250_000]
    return 600, [5_000, 12_000, 30_000, 70_000, 140_000]


def dense_graph(n: int, seed: int = 1) -> Network:
    """The E1 family: a quarter-complete G(n, m) with m = n(n-1)/4.

    Degrees grow linearly in ``n`` while the sampler's query budgets
    grow as ``n^{2^j delta + eps}``, so the whole sweep sits in the
    paper's sparsification regime (budgets below degrees).

    Repeated builds are deduped: an ``(n, seed)`` memo skips the
    construction entirely on repeats, and a second
    :meth:`Network.fingerprint` layer collapses distinct argument
    combinations that produce content-identical graphs.  Every
    experiment cell asking for the same instance therefore gets the
    *same* ``Network`` object back, sharing its lazily built caches
    (adjacency, neighbor tuples, the fingerprint itself) across the
    sweep.
    """
    key = (n, seed)
    cached = _DENSE_BY_ARGS.get(key)
    if cached is None:
        built = dense_gnm(n, n * (n - 1) // 4, seed=seed)
        cached = _DENSE_BY_ARGS[key] = _DENSE_BY_FINGERPRINT.setdefault(
            built.fingerprint(), built
        )
    return cached


_DENSE_BY_ARGS: dict[tuple[int, int], Network] = {}
_DENSE_BY_FINGERPRINT: dict[str, Network] = {}


def stretch_workloads(scale: str) -> list[Workload]:
    loads = [
        Workload("er(220,0.10)", lambda: erdos_renyi(220, 0.10, seed=5)),
        Workload("hypercube(8)", lambda: hypercube(8)),
        Workload("torus(14x14)", lambda: torus(14, 14)),
    ]
    if scale == "full":
        loads.append(Workload("er(500,0.06)", lambda: erdos_renyi(500, 0.06, seed=6)))
        loads.append(Workload("hypercube(10)", lambda: hypercube(10)))
    return loads
