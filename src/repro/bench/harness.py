"""Command-line entry point: ``python -m repro.bench``.

Examples::

    python -m repro.bench --experiment E3
    python -m repro.bench --experiment all --scale quick
    python -m repro.bench --experiment all --scale full --out results.txt
    python -m repro.bench --perf                    # time kernels, write BENCH_core.json
    python -m repro.bench --perf --check            # fail on >25% regression
    python -m repro.bench --perf --check --filter "spanner/*,flood/*"
    python -m repro.bench --perf --check --filter "spanner*,!*n100000"
    python -m repro.bench --perf --memory-budget 4096  # fail past 4 GB RSS
    python -m repro.bench --perf --repeats 3        # override best-of counts
    python -m repro.bench --perf --jobs 4           # kernels across 4 processes
    python -m repro.bench --experiment all --jobs 4 # experiments in parallel
    python -m repro.bench --experiment all --store /tmp/artifacts
                                                    # reuse spanners/schedules
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.tables import format_table

__all__ = ["main"]


def _run_experiment_chunk(name: str, scale: str):
    """Worker for ``--jobs``: run one experiment, return its rendered
    chunk, whether it failed, and the (pickleable) ``TableResult`` —
    the parent needs E11's table for ``--update-readme``.  Each
    experiment cell is seed-deterministic, so chunks merge
    order-independently; the parent re-emits them in canonical
    experiment order."""
    started = time.perf_counter()
    try:
        table = run_experiment(name, scale)
    except AssertionError as exc:
        return f"== {name}: FAILED ==\n{exc}", True, None
    elapsed = time.perf_counter() - started
    return f"{format_table(table)}\n({elapsed:.1f}s)", False, table


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        # 0 repeats would time nothing and record infinite kernel times
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _experiment_key(name: str) -> tuple[int, object]:
    """Natural sort: E2 before E10; unknown shapes sort last, lexicographically."""
    suffix = name[1:]
    if name[:1].upper() == "E" and suffix.isdigit():
        return (0, int(suffix))
    return (1, name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Regenerate the paper's claims as measured tables "
            "(Bitton-Emek-Izumi-Kutten, DISC 2019)."
        ),
    )
    parser.add_argument(
        "--experiment",
        default="all",
        help="experiment id (E1..E11) or 'all'",
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=("quick", "full"),
        help="workload sizes: quick (seconds each) or full (minutes total)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also append the rendered tables to this file",
    )
    parser.add_argument(
        "--perf",
        action="store_true",
        help="run the perf-regression kernels instead of the experiments",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --perf: compare against the committed bench file and "
        "exit non-zero on any >25%% regression (does not overwrite it)",
    )
    parser.add_argument(
        "--bench-file",
        default=None,
        help="perf baseline path (default: BENCH_core.json)",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="GLOB",
        help="with --perf: run only kernels matching these comma-"
        "separated fnmatch globs (e.g. 'spanner/*,flood/*'); prefix a "
        "glob with '!' to exclude (e.g. 'spanner*,!*n100000'); with "
        "--check, only matching kernels are compared",
    )
    parser.add_argument(
        "--repeats",
        type=_positive_int,
        default=None,
        metavar="N",
        help="with --perf: override every kernel's best-of repeat count",
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run independent perf kernels / experiments in N worker "
        "processes (results merge deterministically; timings share the "
        "machine, so prefer --jobs 1 when ratcheting the perf baseline)",
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MB",
        help="with --perf: fail (exit 1) if any kernel's peak RSS — "
        "process high-water mark including child processes — "
        "exceeds this many megabytes",
    )
    parser.add_argument(
        "--update-readme",
        action="store_true",
        help="regenerate the README's generated sections: Performance/"
        "Serving with --perf, Robustness with an experiment run that "
        "includes E11",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="serve the experiments through a shared artifact store at "
        "DIR (sets REPRO_STORE for this run, workers included), so "
        "cells that share a graph + SamplerParams reuse the spanner "
        "and flood schedule instead of rebuilding them; tables are "
        "bit-identical either way (DESIGN.md §3.8).  Ignored with "
        "--perf: the perf kernels pin their own store state so "
        "committed timings stay comparable",
    )
    args = parser.parse_args(argv)

    if args.store and not args.perf:
        # Environment (not a parameter) so --jobs worker processes
        # inherit the same store without any plumbing.
        os.environ["REPRO_STORE"] = args.store

    if args.perf:
        from repro.bench.perf import BENCH_FILE, main_perf

        if args.bench_file is None:
            args.bench_file = BENCH_FILE
        # A store warm from earlier runs would let the scheme kernels
        # skip the very construction they exist to time, so perf runs
        # are always store-off (BENCH_core.json numbers stay
        # comparable).  The variable is restored afterwards: in-process
        # callers keep their configured store.
        saved_store = os.environ.pop("REPRO_STORE", None)
        if saved_store is not None:
            print("perf: ignoring inherited REPRO_STORE (kernels run store-off)")
        try:
            return main_perf(args)
        finally:
            if saved_store is not None:
                os.environ["REPRO_STORE"] = saved_store

    names = (
        sorted(EXPERIMENTS, key=_experiment_key)
        if args.experiment.lower() == "all"
        else [args.experiment]
    )

    chunks: list[str] = []
    failures = 0
    tables: dict[str, object] = {}
    if args.jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for name, (chunk, failed, table) in zip(
                names,
                pool.map(_run_experiment_chunk, names, [args.scale] * len(names)),
            ):
                failures += int(failed)
                chunks.append(chunk)
                tables[name.upper()] = table
    else:
        for name in names:
            chunk, failed, table = _run_experiment_chunk(name, args.scale)
            failures += int(failed)
            chunks.append(chunk)
            tables[name.upper()] = table
    output = "\n\n".join(chunks) + "\n"
    sys.stdout.write(output)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(output)
    if args.update_readme:
        from repro.bench.experiments_dynamic import update_readme_robustness

        table = tables.get("E11")
        if table is None:
            sys.stderr.write(
                "--update-readme without --perf regenerates the Robustness "
                "section and needs E11 in the run\n"
            )
        elif update_readme_robustness(table):
            sys.stdout.write("updated README.md Robustness section\n")
        else:
            sys.stderr.write("README.md markers not found; section not updated\n")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
