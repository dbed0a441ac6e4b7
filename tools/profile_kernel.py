#!/usr/bin/env python
"""One-shot cProfile wrapper around a perf-harness kernel.

Hot-path PRs should start from data, not guesses::

    PYTHONPATH=src python tools/profile_kernel.py spanner_dist/gnp/n2000
    PYTHONPATH=src python tools/profile_kernel.py scheme/one_stage/gnp --sort tottime
    PYTHONPATH=src python tools/profile_kernel.py service/gnp/n2000 --baseline
    PYTHONPATH=src python tools/profile_kernel.py spanner/gnp/n2000 --top-alloc
    PYTHONPATH=src python tools/profile_kernel.py spanner/gnp/n2000 --obs-trace /tmp/build.trace.json
    PYTHONPATH=src python tools/profile_kernel.py --list

The kernel's ``build()`` (input construction) runs outside the profile;
only the measured body is profiled — the same split the harness times.
``--baseline`` profiles the kernel's baseline body instead.
``--top-alloc`` swaps the time profile for a ``tracemalloc``
allocation profile: the top ``--limit`` allocation sites plus the
traced-peak size — the place to start when a kernel's ``peak_rss_mb``
regresses.  (tracemalloc sees this process only.)
``--obs-trace PATH`` additionally runs the body under ``REPRO_OBS=1``
and writes its span tree as a Chrome ``trace_event`` file — open it in
chrome://tracing or Perfetto to see where the profiled wall-time went
per phase.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile one BENCH_core kernel by name"
    )
    parser.add_argument(
        "kernel",
        nargs="?",
        help="kernel name as it appears in BENCH_core.json "
        "(e.g. spanner_dist/gnp/n2000)",
    )
    parser.add_argument(
        "--list", action="store_true", help="print available kernel names"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--limit", type=int, default=25, help="rows to print (default: 25)"
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="profile the kernel's baseline body instead: the cold serve "
        "(service/*), the serial front (service/concurrent/*), the rebuild "
        "(repair/*) or the obs-on build (obs/overhead)",
    )
    parser.add_argument(
        "--top-alloc",
        action="store_true",
        help="profile allocations (tracemalloc) instead of time: top "
        "--limit allocation sites plus the traced peak",
    )
    parser.add_argument(
        "--obs-trace",
        metavar="PATH",
        help="run the body with REPRO_OBS=1 and write its span tree as "
        "a Chrome trace_event file (chrome://tracing / Perfetto) "
        "alongside the profile",
    )
    args = parser.parse_args(argv)

    # The telemetry switch must be pinned before repro imports, so a
    # future eager reader of REPRO_OBS cannot silently ignore it.
    if args.obs_trace:
        os.environ["REPRO_OBS"] = "1"

    from repro.bench.perf import default_kernels

    kernels = {kernel.name: kernel for kernel in default_kernels()}
    if args.list or not args.kernel:
        for name in kernels:
            print(name)
        return 0 if args.list else 2
    kernel = kernels.get(args.kernel)
    if kernel is None:
        sys.stderr.write(
            f"unknown kernel {args.kernel!r}; use --list to see names\n"
        )
        return 2
    body = kernel.run
    if args.baseline:
        if kernel.baseline is None:
            sys.stderr.write(f"{kernel.name} has no baseline body\n")
            return 2
        body = kernel.baseline

    from repro.bench.perf import _net_of

    built = kernel.build()
    net = _net_of(built)
    label = f"{kernel.name}{' (baseline)' if args.baseline else ''}"
    print(f"profiling {label} on n={net.n}, m={net.m} ...", flush=True)
    if args.obs_trace:
        # The build above ran with spans on too; keep only the body's.
        from repro import obs

        obs.collector().reset()
    if args.top_alloc:
        import tracemalloc

        tracemalloc.start()
        body(built)
        current, peak = tracemalloc.get_traced_memory()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        print(
            f"traced peak {peak / 2**20:.1f} MB "
            f"(still reachable at end: {current / 2**20:.1f} MB)"
        )
        for stat in snapshot.statistics("lineno")[: args.limit]:
            print(f"  {stat}")
    else:
        profiler = cProfile.Profile()
        profiler.enable()
        body(built)
        profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats(args.sort).print_stats(args.limit)
    if args.obs_trace:
        from repro import obs

        count = obs.write_chrome_trace(
            obs.collector().finished(), args.obs_trace
        )
        print(f"span tree: {count} spans -> {args.obs_trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
