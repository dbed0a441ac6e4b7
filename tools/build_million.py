#!/usr/bin/env python
"""Guarded end-to-end spanner build at n = 10^6 (DESIGN.md §3.11).

The scale target of the level kernel, runnable on demand rather than
inside the test or bench suites — a million-node sparse G(n, p) needs a
few GB of RSS and minutes of wall clock, which is real money on CI::

    PYTHONPATH=src python tools/build_million.py
    PYTHONPATH=src python tools/build_million.py --n 300000
    PYTHONPATH=src python tools/build_million.py --degree 6 --seed 3

Prints per-stage wall times (generation, build), the spanner size and
density, and the process peak RSS.  The graph comes
from the O(m) array generator — the reference per-pair generator is
quadratic-ish in wall clock at this n and would dwarf the build.
"""

from __future__ import annotations

import argparse
import sys
import time

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]


def _peak_rss_mb() -> float | None:
    if resource is None:  # pragma: no cover - non-POSIX
        return None
    # Linux reports kilobytes
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="one guarded large-n spanner build (default n=10^6)"
    )
    parser.add_argument("--n", type=int, default=1_000_000, help="node count")
    parser.add_argument(
        "--degree", type=float, default=8.0, help="average degree of G(n, p)"
    )
    parser.add_argument("--seed", type=int, default=1, help="graph + sampler seed")
    parser.add_argument(
        "--k", type=int, default=2, help="level parameter k (stretch 2*3^k - 1)"
    )
    args = parser.parse_args(argv)

    from repro.core import SamplerParams, build_spanner
    from repro.graphs import erdos_renyi

    t0 = time.perf_counter()
    net = erdos_renyi(
        args.n, args.degree / (args.n - 1), seed=args.seed, engine="array"
    )
    t_gen = time.perf_counter() - t0
    print(
        f"generated {net.name}: n={net.n} m={net.m} ({t_gen:.1f}s)",
        flush=True,
    )

    params = SamplerParams(k=args.k, h=2, seed=args.seed)
    t0 = time.perf_counter()
    result = build_spanner(net, params)
    t_build = time.perf_counter() - t0
    print(
        f"built spanner: |S|={result.size} "
        f"(density {result.density_ratio():.3f}, "
        f"stretch bound {result.stretch_bound}) "
        f"in {t_build:.1f}s",
        flush=True,
    )
    peak = _peak_rss_mb()
    if peak is not None:
        print(f"peak RSS {peak:.0f} MB")
    levels = result.trace.populations
    print(f"level populations: {levels}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
