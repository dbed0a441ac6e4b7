#!/usr/bin/env python
"""Telemetry smoke run: spans and live counters from one small serve.

Builds a spanner of G(400, 0.02), serves two payloads through a
concurrent front, writes every finished span to TRACE_PATH as JSON
lines, and prints the span count followed by the Prometheus page of
the front's service and store counters::

    PYTHONPATH=src REPRO_OBS=1 python tools/obs_smoke.py TRACE_PATH

CI's ``observability`` job greps the page for the two served requests
and the store's miss and read-failure counters, then checks the trace
with ``python -m repro.obs validate``, ``chrome`` and ``report``.
Spans are recorded only under ``REPRO_OBS=1``.
"""

from __future__ import annotations

import sys

from repro import obs
from repro.algorithms import MinIdAggregation
from repro.core import SamplerParams, build_spanner
from repro.graphs import erdos_renyi
from repro.service import ConcurrentSimulationService


def main(trace_path: str) -> None:
    net = erdos_renyi(400, 0.02, seed=7)
    params = SamplerParams(k=2, h=2, seed=1)
    build_spanner(net, params)
    front = ConcurrentSimulationService(net, params=params, seed=0)
    obs.registry().register("service", front.metrics)
    obs.registry().register("store", front.store.stats)
    with front:
        front.serve([MinIdAggregation(2), MinIdAggregation(3)])
    count = obs.write_jsonl(obs.collector().finished(), trace_path)
    print(f"exported {count} spans")
    print(obs.prometheus_text(obs.registry()), end="")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: obs_smoke.py TRACE_PATH")
    main(sys.argv[1])
