"""One ``Exec`` value for every engine choice (DESIGN.md §3.14).

Three contracts:

* **Pipeline equality** — all 8 combinations of the three choices give
  identical one-stage and two-stage reports and identical served
  responses on one graph;
* **Environment defaults** — ``round_engine`` comes from
  ``REPRO_ROUND_ENGINE`` when an ``Exec`` is built, never at import,
  and an explicit choice wins;
* **Validation** — an unknown name is refused when the value is built.
"""

from __future__ import annotations

import itertools

import pytest

from repro.algorithms import BallCollect
from repro.core import SamplerParams
from repro.execution import Exec
from repro.graphs import erdos_renyi
from repro.service import SimulationRequest, SimulationService
from repro.simulate import run_one_stage, run_two_stage

PARAMS = SamplerParams(k=1, h=2, seed=7, c_query=0.7, c_target=1.0)

EVERY_EXEC = [
    Exec(*choice)
    for choice in itertools.product(
        ("fast", "runtime"),
        ("active", "dense"),
        ("vector", "reference"),
    )
]


@pytest.fixture(scope="module")
def net():
    return erdos_renyi(60, 0.15, seed=2)


class TestPipelineEquality:
    def test_one_stage_identical_under_every_exec(self, net):
        baseline = run_one_stage(net, BallCollect(2), params=PARAMS, seed=3)
        for execution in EVERY_EXEC:
            report = run_one_stage(
                net, BallCollect(2), params=PARAMS, seed=3, execution=execution
            )
            assert report == baseline, execution

    def test_two_stage_identical_under_every_exec(self, net):
        def run(execution):
            return run_two_stage(
                net,
                BallCollect(1),
                stage1_params=PARAMS,
                stage2_k=2,
                seed=3,
                execution=execution,
            )

        baseline = run(None)
        for execution in EVERY_EXEC:
            assert run(execution) == baseline, execution

    def test_served_responses_identical_under_every_exec(self, net):
        def serve(execution):
            service = SimulationService(net, params=PARAMS, seed=3)
            return service.submit(
                SimulationRequest(algo=BallCollect(2), execution=execution)
            )

        baseline = serve(None)
        for execution in EVERY_EXEC:
            response = serve(execution)
            assert response.report == baseline.report, execution
            assert response.spanner_info == baseline.spanner_info
            assert (
                response.construction_messages_paid
                == baseline.construction_messages_paid
            )


class TestEnvironmentDefaults:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_ROUND_ENGINE", raising=False)
        assert Exec() == Exec("fast", "active", "vector")

    def test_round_engine_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ROUND_ENGINE", raising=False)
        assert Exec().round_engine == "vector"
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert Exec().round_engine == "reference"
        assert Exec(flood_engine="runtime").round_engine == "reference"
        assert Exec(round_engine="vector").round_engine == "vector"

    def test_environment_read_when_built(self, monkeypatch):
        monkeypatch.delenv("REPRO_ROUND_ENGINE", raising=False)
        before = Exec()
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert before.round_engine == "vector"
        assert Exec().round_engine == "reference"


class TestValidation:
    def test_unknown_round_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown round engine 'simd'"):
            Exec(round_engine="simd")

    def test_unknown_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "warp")
        with pytest.raises(ValueError, match="unknown round engine"):
            Exec()

    def test_frozen_and_hashable(self):
        execution = Exec(scheduler="dense")
        with pytest.raises(AttributeError):
            execution.scheduler = "active"  # type: ignore[misc]
        assert len({execution, Exec(scheduler="dense"), Exec()}) == 2
