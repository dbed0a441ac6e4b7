"""Runs one workload in this process and prints its result as JSON.

``run.py`` starts this script in a fresh interpreter per workload run, with
every ``REPRO_*`` variable removed from the environment before ``repro``
is imported, so the program runs with its defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402

from tracer import LAYERS, REQUEST, Tracer  # noqa: E402

# Per-layer time is per measured request, except these denominators;
# call counts are per request, except the set-up layer's.
PER_COLD_SERVE = {"store.write"}
PER_EPOCH = {"dynamic.repair", "dynamic.churn"}
PER_SETUP = {"graphs.generate"}


def end_to_end(phase, setups, peak_rss_mb: float, factor_at) -> dict:
    """The seven end-to-end metrics.

    ``factor_at(moment)`` scales a wall-clock time taken at that moment
    (see ``calibration.py``); ``setups`` holds ``(midpoint, seconds)``.
    """
    factors = [factor_at(moment) for moment in phase.ends]
    latencies_ms = [1000 * s * f for s, f in zip(phase.latencies, factors)]
    wall = phase.wall * mean_factor(phase, factors)
    service = phase.service
    requests = max(1, service["requests"])
    return {
        "throughput_rps": len(latencies_ms) / wall,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": statistics.quantiles(latencies_ms, n=10)[8],
        "setup_s": statistics.median(s * factor_at(mid) for mid, s in setups),
        "peak_rss_mb": peak_rss_mb,
        "messages_per_request": (
            service["construction_messages_paid"] + service["simulation_messages"]
        )
        / requests,
        "rounds_per_request": (
            service["construction_rounds_paid"] + service["simulation_rounds"]
        )
        / requests,
    }


def mean_factor(phase, factors: list[float]) -> float:
    """The scale factor of the measured phase, weighted by request time."""
    return sum(s * f for s, f in zip(phase.latencies, factors)) / sum(phase.latencies)


def per_layer(tracer: Tracer, phase, setups: int, scale: float) -> dict:
    """Per-layer metrics of a traced run; layer times are multiplied by ``scale``."""
    requests = max(1, len(phase.latencies))
    service = phase.service
    store = phase.store
    denominators = {
        **dict.fromkeys(PER_COLD_SERVE, service["cold_serves"]),
        **dict.fromkeys(PER_EPOCH, phase.epochs),
        **dict.fromkeys(PER_SETUP, setups),
    }
    measured = tracer.self_times("measure")
    set_up = tracer.self_times("setup")
    out: dict[str, float] = {}
    covered = 0.0
    for span, layer in LAYERS.items():
        seconds, calls = (set_up if layer in PER_SETUP else measured).get(
            span, (0.0, 0)
        )
        if layer not in PER_SETUP:
            covered += seconds
        per = denominators.get(layer, requests)
        out[f"{layer}_ms"] = 1000 * scale * seconds / per if per else 0.0
        out[f"{layer}_calls"] = calls / (setups if layer in PER_SETUP else requests)
    out["trace.layer_coverage"] = covered / phase.wall
    out["trace.client_ms"] = (
        1000 * scale * measured.get(REQUEST, (0.0, 0))[0] / requests
    )
    waits = phase.front_waits
    out["service.front_wait_ms"] = (
        1000 * scale * statistics.fmean(waits) if waits else 0.0
    )
    out["service.merged_share"] = service["merged"] / max(1, service["requests"])
    hits = store["memory_hits"] + store["disk_hits"]
    out["store.hit_ratio"] = hits / max(1, hits + store["misses"])
    out["store.evictions"] = store["evictions"] / requests
    written = tracer.attr_values("store/write", "bytes", "measure")
    out["store.bytes_written"] = (
        sum(written) / service["cold_serves"] if service["cold_serves"] else 0.0
    )
    builds = len(tracer.attr_values("core/build", "edges"))
    for key, metric in (
        ("messages", "core.construction_messages"),
        ("rounds", "core.construction_rounds"),
        ("edges", "core.spanner_edges"),
    ):
        values = tracer.attr_values("core/build", key)
        out[metric] = sum(values) / builds if builds else 0.0
    reports = tracer.attr_values("simulate/over_spanner", "mean_reports", "measure")
    out["simulate.mean_reports"] = statistics.fmean(reports) if reports else 0.0
    clusters = tracer.replayed_clusters + tracer.fresh_clusters
    out["dynamic.replayed_share"] = (
        tracer.replayed_clusters / clusters if clusters else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--min-requests", type=int, default=100)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    from calibration import Calibrator
    from workloads import WORKLOADS, Verifier

    scratch = ROOT / ".servebench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    calibrator = Calibrator()
    workload = WORKLOADS[args.workload](args.seed, args.size, scratch)
    try:
        if tracer is not None:
            tracer.install()
        setups: list[tuple[float, float]] = []

        def timed_setup() -> None:
            phase_name = tracer.phase if tracer is not None else None
            if tracer is not None:
                tracer.phase = "setup"
            calibrator.sample()
            started = time.perf_counter()
            workload.setup()
            ended = time.perf_counter()
            setups.append(((started + ended) / 2, ended - started))
            if tracer is not None:
                tracer.phase = phase_name

        for repeat in range(workload.SETUPS_BEFORE):
            if repeat:
                workload.release()
                gc.collect()
            timed_setup()
        calibrator.sample()
        if tracer is not None:
            tracer.phase = "measure"
        workload.between = timed_setup
        verifier = Verifier(workload.service_seed)
        phase = workload.measure(
            args.seconds, args.min_requests, tracer, verifier, calibrator
        )
        calibrator.sample()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(workload.SETUPS_AFTER):
            workload.release()
            gc.collect()
            timed_setup()
        calibrator.sample()
        if tracer is not None:
            tracer.recording = False
        verifier.verify()
        scale = mean_factor(phase, [calibrator.factor_at(t) for t in phase.ends])
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "correct": verifier.failed == 0,
            "attempted": phase.attempted,
            "failed": verifier.failed,
            "pairs_checked": verifier.pairs,
            "metrics": end_to_end(phase, setups, peak_rss_mb, calibrator.factor_at),
            "raw_metrics": end_to_end(phase, setups, peak_rss_mb, lambda _: 1.0),
            "calibration": {
                "samples": len(calibrator.samples),
                "median_ms": 1000 * statistics.median(calibrator.samples),
                "scale": scale,
            },
            "environment": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": len(os.sched_getaffinity(0)),
            },
        }
        if tracer is not None:
            result["layers"] = per_layer(tracer, phase, len(setups), scale)
            if args.trace_file:
                Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
                tracer.write(args.trace_file)
                result["trace_file"] = args.trace_file
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
