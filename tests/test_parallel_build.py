"""Parallel build engine: bit-identity with the serial path (DESIGN.md §3.11).

The contract is absolute: ``build_spanner(..., jobs=j)`` for any ``j``
returns a ``SpannerResult`` that compares equal — edges, full trace with
every per-node ``NodeLevelTrace``, finished-cluster certificates — to
the serial build.  These tests pin that across graph families, seeds,
shard counts, and both trial strategies, plus the operational contract:
shared-memory segments never outlive a build, even when a worker dies
mid-level.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SamplerParams, build_spanner
from repro.core import parallel
from repro.core.sampler import JOBS_ENV, resolve_jobs
from repro.dynamic import ChurnPlan, apply_churn, repair_spanner
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import barabasi_albert, erdos_renyi, torus

_PARAMS = SamplerParams(k=2, h=2, seed=1)

_FAMILIES = {
    "gnp": lambda: erdos_renyi(120, 0.08, seed=5),
    "torus": lambda: torus(8, 9),
    "ba": lambda: barabasi_albert(90, 3, seed=5),
}


def _no_leaked_segments() -> bool:
    return parallel._LIVE_SEGMENTS == set()


class TestBitIdentity:
    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_equals_serial(self, family, jobs):
        net = _FAMILIES[family]()
        serial = build_spanner(net, _PARAMS, jobs=1)
        par = build_spanner(net, _PARAMS, jobs=jobs)
        assert par == serial  # full equality: edges, trace, certificates
        assert _no_leaked_segments()

    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    def test_equals_serial_without_exhaustive_fast_path(self, family):
        """``exhaustive_small_pools=False`` forces every cluster through
        the real TrialMachine fallback inside the workers."""
        params = SamplerParams(k=2, h=2, seed=1, exhaustive_small_pools=False)
        net = _FAMILIES[family]()
        assert build_spanner(net, params, jobs=2) == build_spanner(
            net, params, jobs=1
        )
        assert _no_leaked_segments()

    @given(
        seed=st.integers(0, 200),
        n=st.integers(min_value=30, max_value=120),
        jobs=st.sampled_from([2, 3, 4]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_serial_property(self, seed, n, jobs):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        params = SamplerParams(k=2, h=2, seed=seed + 1)
        assert build_spanner(net, params, jobs=jobs) == build_spanner(
            net, params, jobs=1
        )
        assert _no_leaked_segments()

    def test_jobs_one_is_the_serial_path(self):
        """jobs=1 must not even construct an engine — it IS the old code."""
        net = _FAMILIES["gnp"]()
        from repro.core.sampler import SamplerRun

        run = SamplerRun(net, _PARAMS, jobs=1)
        result = run.run()
        assert run._engine is None
        assert result == build_spanner(net, _PARAMS)


class TestJobsResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(None) == 7

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs(None)

    def test_env_drives_build(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        net = erdos_renyi(80, 0.1, seed=2)
        assert build_spanner(net, _PARAMS) == build_spanner(net, _PARAMS, jobs=1)
        assert _no_leaked_segments()


class TestCrashCleanup:
    def test_worker_crash_raises_and_unlinks(self, monkeypatch):
        """A worker dying mid-shard (simulated via the crash hook, which
        makes every shard task ``os._exit(13)``) must surface as
        SimulationError — not hang, not leak the shm segment."""
        monkeypatch.setenv(parallel._CRASH_ENV, "1")
        net = erdos_renyi(100, 0.08, seed=4)
        with pytest.raises(SimulationError):
            build_spanner(net, _PARAMS, jobs=2)
        assert _no_leaked_segments()
        if os.path.isdir("/dev/shm"):
            leaked = [f for f in os.listdir("/dev/shm") if "repro" in f]
            assert leaked == []

    def test_build_usable_after_crash(self, monkeypatch):
        """The failed build must not poison the process: a fresh build
        (serial or parallel) right after still works and agrees."""
        net = erdos_renyi(100, 0.08, seed=4)
        monkeypatch.setenv(parallel._CRASH_ENV, "1")
        with pytest.raises(SimulationError):
            build_spanner(net, _PARAMS, jobs=2)
        monkeypatch.delenv(parallel._CRASH_ENV)
        assert build_spanner(net, _PARAMS, jobs=2) == build_spanner(net, _PARAMS)
        assert _no_leaked_segments()


class TestRepairParallel:
    def _churned(self, seed=7, rate=0.1):
        net = erdos_renyi(150, 0.08, seed=5)
        child, log = apply_churn(
            net,
            ChurnPlan(
                seed=seed,
                epochs=1,
                edge_removal=rate,
                edge_addition=rate / 2,
                node_crash=rate / 10,
                node_recovery=0.5,
            ),
            epoch=0,
        )
        return net, child, log

    def test_repair_of_parallel_parent(self):
        """Repairing a parallel-built parent replays its trace exactly
        as if it had been built serially — the traces are equal, so the
        repairs must be too."""
        net, child, log = self._churned()
        par_parent = build_spanner(net, _PARAMS, jobs=2)
        ser_parent = build_spanner(net, _PARAMS, jobs=1)
        assert par_parent == ser_parent
        repaired = repair_spanner(par_parent, child, log)
        assert repaired == repair_spanner(ser_parent, child, log)
        assert repaired == build_spanner(child, _PARAMS)

    @pytest.mark.parametrize("rate", [0.05, 0.4])
    def test_parallel_repair_equals_serial_repair(self, rate):
        """repair_spanner(jobs=2) shards the fresh (non-replayable)
        levels; replay-capable levels stay serial.  Either way the
        result is the fresh serial build."""
        net, child, log = self._churned(seed=11, rate=rate)
        parent = build_spanner(net, _PARAMS)
        par = repair_spanner(parent, child, log, jobs=2)
        ser = repair_spanner(parent, child, log)
        assert par == ser
        assert par == build_spanner(child, _PARAMS)
        assert _no_leaked_segments()
