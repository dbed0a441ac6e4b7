"""One ``Exec`` value for every engine choice (DESIGN.md §3.14).

Three contracts:

* **Pipeline equality** — both values of the one choice give identical
  one-stage and two-stage reports and identical served responses on
  one graph;
* **No environment** — an ``Exec`` reads no environment variable, and
  the round engine and scheduler it used to name are refused;
* **Validation** — an unknown name is refused when the value is built.
"""

from __future__ import annotations

import pytest

from repro.algorithms import BallCollect
from repro.core import SamplerParams
from repro.execution import Exec
from repro.graphs import erdos_renyi
from repro.service import SimulationRequest, SimulationService
from repro.simulate import run_one_stage, run_two_stage

PARAMS = SamplerParams(k=1, h=2, seed=7, c_query=0.7, c_target=1.0)

EVERY_EXEC = [Exec("fast"), Exec("runtime")]


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
        monkeypatch.setenv("REPRO_ROUND_ENGINE", "reference")
        assert Exec() == Exec("fast")


class TestValidation:
    def test_unknown_flood_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown flood engine 'warp'"):
            Exec(flood_engine="warp")

    def test_unknown_round_engine_rejected(self):
        # One round engine and one scheduler remain; naming either fails
        # loudly rather than being ignored.
        for field in ("round_engine", "scheduler"):
            with pytest.raises(TypeError, match=field):
                Exec(**{field: "reference"})

    def test_frozen_and_hashable(self):
        execution = Exec(flood_engine="runtime")
        with pytest.raises(AttributeError):
            execution.flood_engine = "fast"  # type: ignore[misc]
        assert len({execution, Exec(flood_engine="runtime"), Exec()}) == 2
