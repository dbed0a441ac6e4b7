"""The level kernel: bit-identity with the serial reference (DESIGN.md §3.11).

The contract is absolute: ``build_spanner(..., jobs=j)`` for any ``j``
returns a ``SpannerResult`` that compares equal — edges, full trace with
every per-node ``NodeLevelTrace``, finished-cluster certificates — to
the serial reference in ``tests/reference_sampler.py``, which shares no
code with the kernel.  These tests pin that across graph families,
seeds, worker counts (1 = in-process), both trial strategies, stale
edges to finished clusters that never announced, and a level with no
active cluster, plus the operational contract: a
``jobs=1`` build touches no shared memory and starts no process, and
shared-memory segments never outlive a build, even when a worker dies
mid-level.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reference_sampler import reference_build
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
    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_equals_serial(self, family, jobs):
        net = _FAMILIES[family]()
        # full equality: edges, trace, certificates
        assert build_spanner(net, _PARAMS, jobs=jobs) == reference_build(net, _PARAMS)
        assert _no_leaked_segments()

    @pytest.mark.parametrize("family", sorted(_FAMILIES), ids=str)
    def test_equals_serial_without_exhaustive_fast_path(self, family):
        """``exhaustive_small_pools=False`` forces every cluster through
        the kernel's real TrialMachine fallback."""
        params = SamplerParams(k=2, h=2, seed=1, exhaustive_small_pools=False)
        net = _FAMILIES[family]()
        expected = reference_build(net, params)
        for jobs in (1, 2, 3, 4):
            assert build_spanner(net, params, jobs=jobs) == expected, jobs
        assert _no_leaked_segments()

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4])
    def test_level_with_no_active_cluster(self, jobs):
        """Every cluster can leave the hierarchy before the last level;
        the kernel then yields an empty level trace."""
        net = erdos_renyi(5, 0.4, seed=0)
        params = SamplerParams(k=2, h=1, seed=0)
        result = build_spanner(net, params, jobs=jobs)
        assert result.trace.populations == [5, 5, 0]
        assert result == reference_build(net, params)

    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_finished_neighbours_that_never_announced(self, exhaustive):
        """A small query budget lets clusters finish without finding
        every neighbour; their edges stay in the neighbours' pools as
        stale edges, whose queries are answered ``active=False``."""
        net = erdos_renyi(100, 0.2, seed=4)
        params = SamplerParams(
            k=2,
            h=2,
            seed=4,
            c_query=0.1,
            c_target=0.3,
            exhaustive_small_pools=exhaustive,
        )
        expected = reference_build(net, params)
        assert sum(level.stale_edges for level in expected.trace.levels) > 0
        for jobs in (1, 2, 3, 4):
            assert build_spanner(net, params, jobs=jobs) == expected, jobs
        assert _no_leaked_segments()

    @given(
        seed=st.integers(0, 200),
        n=st.integers(min_value=30, max_value=120),
        jobs=st.sampled_from([1, 2, 3, 4]),
        exhaustive=st.booleans(),
        small_budget=st.booleans(),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_serial_property(self, seed, n, jobs, exhaustive, small_budget):
        net = erdos_renyi(n, min(0.95, 8 / max(1, n - 1)), seed=seed)
        budget = dict(c_query=0.1, c_target=0.3) if small_budget else {}
        params = SamplerParams(
            k=2, h=2, seed=seed + 1, exhaustive_small_pools=exhaustive, **budget
        )
        assert build_spanner(net, params, jobs=jobs) == reference_build(net, params)
        assert _no_leaked_segments()

    def test_jobs_one_is_the_serial_path(self, monkeypatch):
        """jobs=1 runs the kernel in-process: it creates no
        shared-memory segment and starts no process."""
        import multiprocessing.process
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("a jobs=1 build used multiprocessing")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        net = _FAMILIES["gnp"]()
        assert build_spanner(net, _PARAMS, jobs=1) == reference_build(net, _PARAMS)
        assert _no_leaked_segments()


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
        """Repair reads nothing from the parent's trace, so a
        parallel-built parent repairs exactly like a serial one."""
        net, child, log = self._churned()
        par_parent = build_spanner(net, _PARAMS, jobs=2)
        ser_parent = build_spanner(net, _PARAMS, jobs=1)
        assert par_parent == ser_parent
        repaired = repair_spanner(par_parent, child, log)
        assert repaired == repair_spanner(ser_parent, child, log)
        assert repaired == build_spanner(child, _PARAMS)

    @pytest.mark.parametrize("rate", [0.05, 0.4])
    def test_parallel_repair_equals_serial_repair(self, rate):
        """repair_spanner(jobs=2) runs every level on the worker pool;
        either way the result is the serial reference's build."""
        net, child, log = self._churned(seed=11, rate=rate)
        parent = build_spanner(net, _PARAMS)
        par = repair_spanner(parent, child, log, jobs=2)
        ser = repair_spanner(parent, child, log)
        assert par == ser
        assert par == reference_build(child, _PARAMS)
        assert _no_leaked_segments()
