"""The concurrent serving front: the serve slot, merging, deadlines.

N concurrent cold requests on one artifact key perform exactly one
spanner build (``spanner_builds == 1``, ``spanner_hits == N-1``); every
response stays bit-identical to a fresh ``run_one_stage`` under chaos
and under a crashed-then-reclaimed lock holder; and two worker
processes share one store directory with identical results and zero
corrupt reads.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.service.concurrent as front_module
from repro.algorithms import BfsLayers, MinIdAggregation
from repro.core import SamplerParams
from repro.errors import ServiceTimeout
from repro.graphs import erdos_renyi
from repro.local import FaultPlan
from repro.service import (
    ConcurrentSimulationService,
    SimulationRequest,
    SimulationService,
)
from repro.simulate import run_one_stage
from repro.store import CHAOS_ENV_VAR, ArtifactStore, FileLock, spanner_key

PARAMS = SamplerParams(k=1, h=2, seed=13)


@pytest.fixture
def net():
    return erdos_renyi(50, 0.12, seed=8)


def _reference(net, algo):
    return run_one_stage(net, algo, params=PARAMS, seed=0)


def _gate_builds(monkeypatch):
    """Block the store's builds until the returned event is set; the
    second event reports that a build is waiting on the gate."""
    import repro.core.accounting as accounting

    real_build = accounting.build_spanner_priced
    release, building = threading.Event(), threading.Event()

    def gated_build(*args, **kwargs):
        building.set()
        release.wait(timeout=30.0)
        return real_build(*args, **kwargs)

    monkeypatch.setattr("repro.core.accounting.build_spanner_priced", gated_build)
    return release, building


class TestColdBuilds:
    """The serve slot is the in-process build gate: N threads on one
    cold key enter it one at a time, so the first builds and every
    later one finds the spanner cached, whatever the interleaving."""

    def _race(self, front, reference, n_threads):
        algos = [MinIdAggregation(2) for _ in range(n_threads)]
        with front:
            responses = front.serve(algos)
        assert all(
            response.report.outputs == reference.outputs
            for response in responses
        )
        assert sum(response.cold for response in responses) == 1
        snapshot = front.metrics.snapshot()
        assert snapshot["requests"] == n_threads
        assert snapshot["spanner_builds"] == 1
        assert snapshot["spanner_hits"] == n_threads - 1

    def test_n_threads_one_cold_key_builds_exactly_once(self, net, monkeypatch):
        """The headline: builds == 1 and hits == N-1, exactly."""
        n_threads = 6
        reference = _reference(net, MinIdAggregation(2))
        import repro.core.accounting as accounting

        real_build = accounting.build_spanner_priced
        calls = []

        def counted_build(*args, **kwargs):
            calls.append(threading.current_thread().name)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(
            "repro.core.accounting.build_spanner_priced", counted_build
        )
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=n_threads, merge_window=0.0
        )
        self._race(front, reference, n_threads)
        assert len(calls) == 1

    def test_one_build_under_chaos_stays_bit_identical(
        self, net, tmp_path, monkeypatch
    ):
        """Exactly-one-build + bit-identity on a disk store while
        ``REPRO_STORE_CHAOS`` injects transient faults, corrupt reads
        and stale locks."""
        reference = _reference(net, MinIdAggregation(2))  # no chaos here
        monkeypatch.setenv(
            CHAOS_ENV_VAR, "seed=7,transient=0.3,corrupt=0.2,stale_lock=0.5"
        )
        store = ArtifactStore(tmp_path)
        assert store.chaos is not None
        service = SimulationService(net, store=store, params=PARAMS, seed=0)
        front = ConcurrentSimulationService(
            service=service, max_workers=6, merge_window=0.0
        )
        self._race(front, reference, 6)

    def test_crashed_lock_holder_is_reclaimed_and_served(self, net, tmp_path):
        """Kill a lock-holding builder mid-build; a follower front on the
        same directory reclaims the lock and completes, bit-identically."""
        store = ArtifactStore(tmp_path)
        key = spanner_key(net.fingerprint(), PARAMS)
        lock_path = store._lock_path(key)
        ctx = multiprocessing.get_context("fork")
        held = ctx.Event()
        crasher = ctx.Process(
            target=_hold_build_lock, args=(str(lock_path), held)
        )
        crasher.start()
        try:
            assert held.wait(timeout=10.0), "builder never took the lock"
            os.kill(crasher.pid, signal.SIGKILL)
            crasher.join(timeout=10.0)
            front = ConcurrentSimulationService(
                service=SimulationService(
                    net, store=store, params=PARAMS, seed=0
                ),
                max_workers=2,
            )
            response = front.submit(MinIdAggregation(2))
        finally:
            if crasher.is_alive():  # pragma: no cover - cleanup on failure
                crasher.kill()
                crasher.join()
        assert response.report.outputs == _reference(
            net, MinIdAggregation(2)
        ).outputs
        assert store.stats.lock_reclaimed == 1


def _hold_build_lock(lock_path, held):
    """Child: pose as a builder that dies holding the key's lock."""
    FileLock(lock_path).acquire()
    held.set()
    time.sleep(120)  # killed long before this elapses


class TestBatchingWindow:
    def test_identical_requests_share_one_replay(self, net):
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=8, merge_window=0.5
        )
        payload = MinIdAggregation(2)
        with front:
            responses = front.serve([payload] * 8)
        snapshot = front.metrics.snapshot()
        assert snapshot["requests"] == 8
        assert snapshot["merged"] == 7
        assert snapshot["simulation_messages"] == (
            responses[0].simulation.total_messages
        )
        assert all(response is responses[0] for response in responses)
        # Construction was paid once, at the fresh run's price; the
        # merged repeats are cache traffic.
        assert snapshot["cold_serves"] == snapshot["spanner_builds"] == 1
        fresh = _reference(net, MinIdAggregation(2))
        assert snapshot["construction_messages_paid"] == fresh.construction_messages
        assert snapshot["spanner_hits"] == snapshot["schedule_hits"] == 7

    def test_distinct_payloads_are_not_merged(self, net):
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=4, merge_window=0.5
        )
        with front:
            front.serve([MinIdAggregation(2), BfsLayers(0, 2)])
        snapshot = front.metrics.snapshot()
        assert snapshot["merged"] == 0

    def test_requests_differing_only_in_faults_not_merged(self, net):
        payload = MinIdAggregation(2)
        requests = [
            SimulationRequest(algo=payload),
            SimulationRequest(algo=payload, faults=FaultPlan.none()),
        ]
        assert requests[0].identity() != requests[1].identity()
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=4, merge_window=0.5
        )
        with front:
            first, second = front.serve(requests)
        assert front.metrics.snapshot()["merged"] == 0
        assert first is not second
        assert first.report == second.report

    def test_corrupt_only_plan_is_metered(self, net):
        """A plan that only erases messages is served on the literal
        flood through the front: the erasures are metered, and the
        merged repeat shares the one faulty answer."""
        plan = FaultPlan(corrupt_probability=0.3, seed=2)
        request = SimulationRequest(algo=MinIdAggregation(2), faults=plan)
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=2, merge_window=0.5
        )
        with front:
            first, second = front.serve([request, request])
        assert first.schedule_info is None
        assert first.simulation.messages.corrupted > 0
        assert first.simulation.messages.dropped == 0
        assert second.report == first.report
        assert front.metrics.snapshot()["merged"] == 1

    def test_window_expires(self, net):
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, merge_window=0.01
        )
        payload = MinIdAggregation(2)
        first = front.submit(payload)
        time.sleep(0.03)  # past the window: a fresh replay
        second = front.submit(payload)
        assert front.metrics.snapshot()["merged"] == 0
        assert first.report.outputs == second.report.outputs

    def test_window_retains_bounded_outputs(self, net, monkeypatch):
        # Every response holds net.n outputs; the budget keeps three.
        budget = 3 * net.n
        monkeypatch.setattr(front_module, "_RECENT_OUTPUTS", budget)
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, merge_window=60.0
        )
        payloads = [MinIdAggregation(t) for t in range(1, 9)]
        for payload in payloads:
            last = front.submit(payload)
            retained = [response for response, _ in front._recent.values()]
            assert sum(len(r.outputs) for r in retained) <= budget
            assert front._recent_outputs == sum(len(r.outputs) for r in retained)
        assert len(front._recent) == 3
        # A duplicate arriving just after its leader completed merges.
        assert front.submit(payloads[-1]) is last
        assert front.metrics.snapshot()["merged"] == 1

    def test_oversized_response_is_not_retained(self, net, monkeypatch):
        monkeypatch.setattr(front_module, "_RECENT_OUTPUTS", net.n - 1)
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, merge_window=60.0
        )
        payload = MinIdAggregation(2)
        front.submit(payload)
        assert not front._recent and front._recent_outputs == 0
        front.submit(payload)
        assert front.metrics.snapshot()["merged"] == 0

    def test_merging_disabled_with_zero_window(self, net):
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, merge_window=0.0
        )
        payload = MinIdAggregation(2)
        front.submit(payload)
        front.submit(payload)
        assert front.metrics.snapshot()["merged"] == 0


class TestConstructor:
    @pytest.mark.parametrize(
        "argument", ["network", "store", "params", "gamma", "seed"]
    )
    def test_inner_arguments_next_to_service_are_refused(self, net, argument):
        """An inner-service argument beside ``service=`` would be dropped
        silently (the front serves with the given service's own), so it
        is refused instead."""
        values = {
            "network": net,
            "store": ArtifactStore(),
            "params": PARAMS,
            "gamma": 3,
            "seed": 7,
        }
        service = SimulationService(net, params=PARAMS, seed=0)
        with pytest.raises(ValueError, match="not both"):
            ConcurrentSimulationService(service=service, **{argument: values[argument]})


class TestDeadlines:
    def test_deadline_on_flight_wait_raises_and_counts(self, net, monkeypatch):
        """A leader holds the serve slot in a gated, in-flight build;
        another payload's request times out waiting for the slot and is
        counted."""
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=2, merge_window=0.0
        )
        release, building = _gate_builds(monkeypatch)
        leader = front._ensure_pool().submit(front.submit, MinIdAggregation(2))
        try:
            assert building.wait(timeout=10.0), "the leader never built"
            with pytest.raises(ServiceTimeout, match="serve slot"):
                front.submit(MinIdAggregation(2), deadline=0.05)
        finally:
            release.set()
            leader.result(timeout=60.0)
            front.shutdown()
        assert front.metrics.snapshot()["timeouts"] == 1
        assert [t.outcome for t in front.traces] == ["timeout", "served"]

    def test_deadline_on_merge_wait_raises_and_counts(self, net, monkeypatch):
        """A request for the payload a gated leader is serving times out
        in the batching window; once the leader publishes, a repeat
        within the window is merged."""
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=2, merge_window=60.0
        )
        payload = MinIdAggregation(2)
        release, building = _gate_builds(monkeypatch)
        leader = front._ensure_pool().submit(front.submit, payload)
        try:
            assert building.wait(timeout=10.0), "the leader never built"
            with pytest.raises(ServiceTimeout, match="merged in-flight serve"):
                front.submit(payload, deadline=0.05)
        finally:
            release.set()
            served = leader.result(timeout=60.0)
            front.shutdown()
        assert front.metrics.snapshot()["timeouts"] == 1
        repeat = front.submit(payload)
        assert repeat is served
        assert repeat.report.outputs == _reference(net, payload).outputs
        snapshot = front.metrics.snapshot()
        assert snapshot["merged"] == 1 and snapshot["spanner_builds"] == 1

    def test_generous_deadline_serves_normally(self, net):
        front = ConcurrentSimulationService(net, params=PARAMS, seed=0)
        response = front.submit(MinIdAggregation(2), deadline=60.0)
        assert response.report.outputs == _reference(
            net, MinIdAggregation(2)
        ).outputs
        assert front.metrics.snapshot()["timeouts"] == 0


class TestTraces:
    def test_every_request_leaves_a_span(self, net, tmp_path):
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=4, merge_window=0.5
        )
        payload = MinIdAggregation(2)
        with front:
            front.serve([payload, payload, BfsLayers(0, 2)])
        traces = front.traces
        assert len(traces) == 3
        assert {trace.request_id for trace in traces} == {1, 2, 3}
        outcomes = sorted(trace.outcome for trace in traces)
        assert outcomes.count("served") == 2
        assert outcomes.count("merged") == 1
        served = [t for t in traces if t.outcome == "served"]
        assert any(t.cold for t in served)
        assert all(t.total_seconds >= t.serve_seconds >= 0 for t in traces)
        path = tmp_path / "traces.jsonl"
        assert front.dump_traces(path) == 3
        import json

        lines = path.read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        # Traces ride the obs span schema: versioned records whose
        # request-level fields live in attrs.
        assert all(record["schema"] == 1 for record in records)
        assert all(record["kind"] == "span" for record in records)
        assert all(record["name"] == "service/request" for record in records)
        assert all(record["attrs"]["algo"] for record in records)
        from repro.obs import read_jsonl

        assert len(read_jsonl(path)) == 3  # schema-validating reader
        # append mode keeps earlier batches instead of clobbering them
        assert front.dump_traces(path, append=True) == 3
        assert len(path.read_text().splitlines()) == 6

    def test_front_keeps_the_newest_traces(self, net, tmp_path, monkeypatch):
        monkeypatch.setattr(front_module, "TRACE_CAPACITY", 8)
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, merge_window=60.0
        )
        payload = MinIdAggregation(2)
        for _ in range(20):
            front.submit(payload)
        newest = list(range(13, 21))
        assert [trace.request_id for trace in front.traces] == newest
        path = tmp_path / "traces.jsonl"
        assert front.dump_traces(path) == 8
        import json

        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["id"] for record in records] == newest


def _worker_outputs(store_dir, chaos_spec, queue):
    """Child-process body for the shared-store test: serve and report."""
    os.environ["REPRO_STORE_CHAOS"] = chaos_spec
    try:
        net = erdos_renyi(50, 0.12, seed=8)
        store = ArtifactStore(store_dir)
        front = ConcurrentSimulationService(
            service=SimulationService(net, store=store, params=PARAMS, seed=0),
            max_workers=2,
        )
        with front:
            responses = front.serve(
                [MinIdAggregation(2), BfsLayers(0, 2), MinIdAggregation(2)]
            )
        queue.put(
            (
                os.getpid(),
                [response.report.outputs for response in responses],
                store.stats.snapshot(),
            )
        )
    except BaseException as exc:  # surface child failures to the parent
        queue.put((os.getpid(), repr(exc), None))


class TestCrossProcess:
    def test_two_processes_share_one_store_under_chaos(self, net, tmp_path):
        """Two workers, one store directory, transient chaos:
        identical results in both, and the store never raised."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        spec = "transient=0.3,seed=5"
        workers = [
            ctx.Process(
                target=_worker_outputs, args=(str(tmp_path), spec, queue)
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=120.0) for _ in workers]
        for worker in workers:
            worker.join(timeout=30.0)
        reference = [
            _reference(net, MinIdAggregation(2)).outputs,
            _reference(net, BfsLayers(0, 2)).outputs,
            _reference(net, MinIdAggregation(2)).outputs,
        ]
        for pid, outputs, stats in results:
            assert stats is not None, f"worker {pid} failed: {outputs}"
            assert outputs == reference
            assert stats["corrupt"] == 0  # chaos was transient-only
        # exactly one of the two processes paid the build; with builds
        # racing ahead of lock acquisition both may build, but at least
        # one entry must have landed on disk either way
        assert list(tmp_path.glob("*.npz"))
