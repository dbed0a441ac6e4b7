"""What the pipelines produce, digested: the scheme golden cases.

``tests/data/golden_schemes.json`` pins one sha256 per case, written by
``tools/capture_golden_signatures.py --schemes`` and checked by
``tests/test_scheme_goldens.py``.  Each digest covers one report's
outputs, its sorted spanner edges, the construction and simulation
:class:`~repro.local.metrics.MessageStats` (``total``, ``by_tag``,
``per_round``; ``None`` when a repaired spanner metered nothing) and
the rounds of every stage.

Cases: every payload of :mod:`repro.algorithms` through
``run_one_stage`` on three graphs; ``run_two_stage`` on one graph; and
one graph served by :class:`~repro.service.SimulationService` before
and after each of two churn epochs, every payload each time, so the
repaired path is pinned as well.
"""

from __future__ import annotations

import hashlib

from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomizedColoring,
    RandomMatching,
)
from repro.dynamic import ChurnPlan
from repro.graphs import barabasi_albert, erdos_renyi, torus
from repro.service import SimulationRequest, SimulationService
from repro.simulate import run_one_stage, run_two_stage, theorem3_params

GRAPHS = {
    "er50": lambda: erdos_renyi(50, 0.2, seed=1),
    "torus": lambda: torus(7, 7),
    "ba70": lambda: barabasi_albert(70, 4, seed=0),
}

CHURN = ChurnPlan(
    seed=5,
    epochs=2,
    edge_removal=0.05,
    edge_addition=0.02,
    node_crash=0.01,
    node_recovery=0.5,
)


def payloads():
    return [
        BallCollect(2),
        BfsLayers(0, 2),
        LubyMis(1),
        MinIdAggregation(3),
        RandomMatching(1),
        RandomizedColoring(2),
    ]


def _canon(value):
    """A repr-stable form: dicts and sets sorted, sequences as tuples."""
    if isinstance(value, dict):
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((_canon(v) for v in value), key=repr)))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _stats(stats):
    if stats is None:
        return None
    by_tag = tuple(sorted((tag, n) for tag, n in stats.by_tag.items() if n))
    return (stats.total, by_tag, tuple(stats.per_round))


def _digest(document) -> str:
    return hashlib.sha256(repr(document).encode()).hexdigest()


def one_stage_digest(report) -> str:
    return _digest(
        (
            _canon(report.outputs),
            tuple(sorted(report.spanner.edges)),
            _stats(report.spanner.messages),
            _stats(report.simulation.messages),
            report.spanner.rounds,
            report.simulation.rounds,
        )
    )


def two_stage_digest(report) -> str:
    return _digest(
        (
            _canon(report.outputs),
            tuple(sorted(report.stage1.edges)),
            tuple(sorted(report.stage2_edges)),
            _stats(report.stage1.messages),
            _stats(report.stage2_sim.messages),
            _stats(report.payload_sim.messages),
            report.stage1.rounds,
            report.stage2_sim.rounds,
            report.payload_sim.rounds,
        )
    )


def scheme_digests() -> dict[str, str]:
    """Every case's digest."""
    digests: dict[str, str] = {}
    for name, build in GRAPHS.items():
        net = build()
        for algo in payloads():
            report = run_one_stage(net, algo, seed=3)
            digests[f"one_stage/{name}/{algo.name}"] = one_stage_digest(report)
    report = run_two_stage(
        GRAPHS["er50"](),
        BallCollect(1),
        stage1_params=theorem3_params(1, seed=3),
        stage2_k=2,
        seed=3,
    )
    digests["two_stage/er50/ball-collect"] = two_stage_digest(report)
    service = SimulationService(
        erdos_renyi(60, 0.12, seed=8), params=theorem3_params(1, seed=5), seed=5
    )
    for label in ("base", "epoch0", "epoch1"):
        if label != "base":
            service.apply_churn(CHURN, int(label[-1]))
        for algo in payloads():
            response = service.submit(SimulationRequest(algo=algo))
            digests[f"served/{label}/{algo.name}"] = one_stage_digest(
                response.report
            )
    return digests
