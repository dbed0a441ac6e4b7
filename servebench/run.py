"""The serving benchmark: one closed-loop workload per run.

Usage (from the repository root)::

    python3 servebench/run.py --workload warm_mix --seed 1 --seconds 30 --trace 0
    python3 servebench/run.py --self-test

Each run starts the workload in a fresh interpreter (``worker.py``) with
every ``REPRO_*`` variable removed from its environment, prints the
environment and every metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics.  ``--trace 1`` runs the workload twice, untraced
and then traced, prints the tracing overhead (traced minus untraced
end-to-end metrics), writes the traced run's spans under
``.servebench/traces/`` and reports the per-layer metrics.

Exit status: 0 when every request was answered correctly, 1 when any
request failed or disagreed with ``run_direct``, 2 when the run could
not be made (for example, no ``src/repro`` beside this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm_mix", "cold_graphs", "churn_repair")

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "messages_per_request": "count",
    "rounds_per_request": "count",
}

# The exact counts the self-test requires to repeat across two runs of
# one seed: (section of the worker's result, metric).
EXACT = (
    ("metrics", "messages_per_request"),
    ("metrics", "rounds_per_request"),
    ("layers", "service.merged_share"),
    ("layers", "dynamic.replayed_share"),
    ("layers", "core.spanner_edges"),
    ("layers", "store.bytes_written"),
)

CHILD_TIMEOUT = 170


# Every per-layer metric of a traced run, with its unit.  Times are per
# request except where servebench/README.md says otherwise.
LAYER_UNITS = {
    "service.self_ms": "ms",
    "service.self_calls": "calls/req",
    "service.front_wait_ms": "ms",
    "service.merged_share": "ratio",
    "store.lookup_ms": "ms",
    "store.lookup_calls": "calls/req",
    "store.schedule_ms": "ms",
    "store.schedule_calls": "calls/req",
    "store.write_ms": "ms",
    "store.write_calls": "calls/req",
    "store.bytes_written": "B",
    "store.hit_ratio": "ratio",
    "store.evictions": "count/req",
    "core.build_ms": "ms",
    "core.build_calls": "calls/req",
    "core.construction_messages": "count",
    "core.construction_rounds": "count",
    "core.spanner_edges": "count",
    "graphs.profile_build_ms": "ms",
    "graphs.profile_build_calls": "calls/req",
    "graphs.generate_ms": "ms",
    "graphs.generate_calls": "calls/setup",
    "simulate.coverage_ms": "ms",
    "simulate.coverage_calls": "calls/req",
    "simulate.mean_reports": "count",
    "algorithms.replay_ms": "ms",
    "algorithms.replay_calls": "calls/req",
    "local.subnetwork_ms": "ms",
    "local.subnetwork_calls": "calls/req",
    "dynamic.repair_ms": "ms",
    "dynamic.repair_calls": "calls/req",
    "dynamic.replayed_share": "ratio",
    "dynamic.churn_ms": "ms",
    "dynamic.churn_calls": "calls/req",
    "trace.layer_coverage": "ratio",
    "trace.client_ms": "ms",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, *extra) -> dict:
    """Run one workload in a fresh interpreter; returns its result."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        *extra,
    ]
    if trace:
        trace_file = ROOT / ".servebench" / "traces" / f"{workload}-seed{seed}.jsonl"
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with status {done.returncode}")
    return json.loads(lines[-1])


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        print(f"  {name:<30} {metrics[name]:>14.4f} {unit}")


def measure(args) -> int:
    results = []
    if args.trace:
        results.append(run_worker(args.workload, args.seed, args.seconds, False))
    results.append(run_worker(args.workload, args.seed, args.seconds, bool(args.trace)))
    final = results[-1]
    env = final["environment"]
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}"
    )
    print(
        f"{args.workload} seed {args.seed}: {final['attempted']} requests, "
        f"{final['failed']} failed, {final['pairs_checked']} "
        "(graph, payload) pairs checked against run_direct"
    )
    print_metrics("end-to-end, calibrated:", final["metrics"], END_TO_END_UNITS)
    print_metrics("end-to-end, raw wall clock:", final["raw_metrics"], END_TO_END_UNITS)
    if args.trace:
        untraced = results[0]["metrics"]
        overhead = {
            name: value - untraced[name] for name, value in final["metrics"].items()
        }
        print_metrics(
            "tracing overhead (traced minus untraced):", overhead, END_TO_END_UNITS
        )
        print_metrics("per layer (traced run):", final["layers"], LAYER_UNITS)
        spans = Path(final["trace_file"]).relative_to(ROOT)
        print(f"spans: {spans} (render with: python -m repro.obs report {spans})")
        section, units = final["layers"], LAYER_UNITS
    else:
        section, units = final["metrics"], END_TO_END_UNITS
    correct = all(result["correct"] for result in results)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": {
                    name: {"value": section[name], "unit": unit}
                    for name, unit in units.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0 if correct else 1


def self_test(seed: int) -> int:
    """Two traced runs per workload at the smallest sizes must agree exactly."""
    small = ("--size", "small", "--min-requests", "10")
    failures = 0
    for workload in WORKLOADS:
        first, second = (
            run_worker(workload, seed, 1.0, True, *small) for _ in range(2)
        )
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                print(f"FAIL {workload}: {run['failed']} failed requests")
                failures += 1
        for section, name in EXACT:
            a, b = first[section][name], second[section][name]
            status = "ok  " if a == b else "FAIL"
            failures += a != b
            print(f"{status} {workload:<13} {name:<24} {a!r} vs {b!r}")
    print("self-test passed" if not failures else f"self-test: {failures} failures")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closed-loop serving benchmark for repro.service."
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check that two runs of one seed repeat every exact count",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(args.seed)
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
