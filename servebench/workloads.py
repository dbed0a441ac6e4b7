"""The three closed-loop serving workloads.

Every input -- graphs, the churn plan, the payload order -- derives from
the workload seed; the program receives only the generated inputs and
runs with its default execution knobs.  Each workload measures whole
*cycles* of a fixed request plan until the run's seconds have passed and
at least ``min_requests`` requests completed, so the exact counts
(messages and rounds per request, merged share, replayed share, bytes
written) repeat exactly across runs of one seed however many cycles a
run fits.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import repro.graphs as graphs
from repro.algorithms import (
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomizedColoring,
    RandomMatching,
    run_direct,
)
from repro.dynamic import ChurnPlan
from repro.local.network import Network
from repro.service import (
    ConcurrentSimulationService,
    SimulationRequest,
    SimulationService,
)
from repro.store import ArtifactStore

# The payload families, in the round-robin order of the request plan.
FAMILIES = (
    lambda: MinIdAggregation(3),
    lambda: RandomMatching(1),
    lambda: RandomizedColoring(2),
    lambda: BfsLayers(0, 2),
    lambda: LubyMis(1),
)

# Workload sizes.  "small" is the self-test's: same code paths, tiny graphs.
SIZES = {
    "full": {
        "warm_mix": {"n": 2000},
        "cold_graphs": {"n": 200, "graphs": 60},
        "churn_repair": {"n": 2000, "epochs": 5},
    },
    "small": {
        "warm_mix": {"n": 150},
        "cold_graphs": {"n": 80, "graphs": 4},
        "churn_repair": {"n": 150, "epochs": 2},
    },
}

# The churn rates of examples/self_healing_demo.py.
CHURN_RATES = {
    "edge_removal": 0.02,
    "edge_addition": 0.01,
    "node_crash": 0.002,
    "node_recovery": 0.5,
}

SERVICE_COUNTERS = (
    "requests",
    "merged",
    "cold_serves",
    "construction_messages_paid",
    "construction_rounds_paid",
    "simulation_messages",
    "simulation_rounds",
)
STORE_COUNTERS = ("memory_hits", "disk_hits", "misses", "evictions")

# How long a client thread may take to reach a segment barrier.
CLIENT_TIMEOUT = 120.0


def gnp(n: int, seed: int) -> Network:
    return graphs.erdos_renyi(n, 8 / (n - 1), seed=seed)


def fresh_copy(network: Network) -> Network:
    """The same graph as a new object with cold caches (same fingerprint)."""
    pairs = [network.endpoints(eid) for eid in network.edge_ids]
    return Network.from_edge_pairs(network.n, pairs, name=network.name)


class Verifier:
    """Checks every response's outputs against ``run_direct``.

    During the measured phase each response is compared with the first
    response for the same (graph, payload family) pair; after it, each
    first response is compared with a direct run at the service seed.  A
    mismatch or an exception counts as a failed request.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.failed = 0
        self._first: dict[tuple[str, int], list] = {}
        self._lock = threading.Lock()

    def observe(self, network: Network, family: int, outputs: dict) -> None:
        key = (network.fingerprint(), family)
        with self._lock:
            entry = self._first.get(key)
            if entry is None:
                self._first[key] = [network, family, outputs, 1]
                return
        if outputs == entry[2]:
            with self._lock:
                entry[3] += 1
        else:
            self.count_failure()

    def count_failure(self) -> None:
        with self._lock:
            self.failed += 1

    @property
    def pairs(self) -> int:
        return len(self._first)

    def verify(self) -> None:
        for network, family, outputs, same in self._first.values():
            try:
                direct = run_direct(network, FAMILIES[family](), self.seed).outputs
            except Exception:
                direct = None
            if direct != outputs:
                self.failed += same


class Phase:
    """What one measured phase saw: latencies, wall time and counter deltas.

    ``wall`` is serving time only: the calibration samples taken between
    requests are left out.
    """

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.ends: list[float] = []  # when each latency was taken
        self.wall = 0.0
        self.attempted = 0
        self.service = dict.fromkeys(SERVICE_COUNTERS, 0)
        self.store = dict.fromkeys(STORE_COUNTERS, 0)
        self.front_waits: list[float] = []
        self.epochs = 0

    def add_counters(self, service_before, service_after, store_before, store_after):
        for name in SERVICE_COUNTERS:
            self.service[name] += service_after[name] - service_before[name]
        for name in STORE_COUNTERS:
            self.store[name] += store_after[name] - store_before[name]

    def done(self, seconds: float, min_requests: int) -> bool:
        return self.wall >= seconds and self.attempted >= min_requests


def serve_one(submit, request, tracer, request_id: int):
    """One timed request: ``(response, seconds)``, or ``(None, 0.0)`` if it raised."""
    context = tracer.request(request_id) if tracer is not None else nullcontext()
    started = time.perf_counter()
    try:
        with context:
            response = submit(request)
    except Exception:
        return None, 0.0
    return response, time.perf_counter() - started


class Workload:
    """One workload: a repeatable set-up and a measured phase."""

    name = ""
    # Set-ups timed before and after the measured phase; setup_s is the
    # median of all of them, so one slow stretch of the host moves it less.
    SETUPS_BEFORE = 3
    SETUPS_AFTER = 2

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.scratch = scratch
        self.__dict__.update(SIZES[size][self.name])
        rng = random.Random(f"servebench/{self.name}/{seed}")
        self.graph_seed = rng.randrange(2**31)
        self.service_seed = rng.randrange(2**31)
        self.offset = rng.randrange(len(FAMILIES))
        # Called between cycles, outside the timed phase.
        self.between = lambda: None

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds, min_requests, tracer, verifier, calibrator) -> Phase:
        """Serve whole cycles until ``seconds`` of serving and ``min_requests``."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the state of a set-up before the next one."""

    def _record(self, phase, verifier, response, seconds, network, family) -> None:
        if response is None:
            verifier.count_failure()
            return
        phase.latencies.append(seconds)
        phase.ends.append(time.perf_counter())
        verifier.observe(network, family, response.outputs)


class WarmMix(Workload):
    """Two client threads walk one payload sequence through the front.

    Both clients request every payload instance, so the front's batching
    window merges exactly one of each pair.  The clients run in segments
    of ``SEGMENT_CYCLES`` payload cycles and wait at a barrier between
    segments while the main thread samples the calibration kernel.
    """

    name = "warm_mix"
    clients = 2
    SEGMENT_CYCLES = 3

    def setup(self) -> None:
        network = gnp(self.n, self.graph_seed)
        front = ConcurrentSimulationService(
            network, seed=self.service_seed, merge_window=1.0
        )
        # Builds the spanner, measures the flood profile at the largest
        # radius, and memoizes each payload radius's schedule.
        for make in FAMILIES:
            front.submit(make())
        self.network, self.front = network, front

    def release(self) -> None:
        self.front.shutdown()
        del self.network, self.front

    def measure(self, seconds, min_requests, tracer, verifier, calibrator) -> Phase:
        phase = Phase()
        front = self.front
        segment: list[tuple[int, int, object]] = []
        per_client = [Phase() for _ in range(self.clients)]
        start = threading.Barrier(self.clients + 1, timeout=CLIENT_TIMEOUT)
        end = threading.Barrier(self.clients + 1, timeout=CLIENT_TIMEOUT)

        def client(number: int) -> None:
            mine = per_client[number]
            while True:
                start.wait()
                if not segment:
                    return
                for index, family, algo in segment:
                    request_id = index * self.clients + number + 1
                    response, took = serve_one(front.submit, algo, tracer, request_id)
                    self._record(mine, verifier, response, took, self.network, family)
                end.wait()

        threads = [
            threading.Thread(target=client, args=(number,), name=f"client-{number}")
            for number in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        service_before = front.metrics.snapshot()
        store_before = front.store.stats.snapshot()
        traces_before = len(front.traces)
        index = 0
        try:
            while not phase.done(seconds, min_requests):
                segment[:] = []
                for _ in range(self.SEGMENT_CYCLES * len(FAMILIES)):
                    family = (self.offset + index) % len(FAMILIES)
                    segment.append((index, family, FAMILIES[family]()))
                    index += 1
                start.wait()
                began = time.perf_counter()
                end.wait()
                phase.wall += time.perf_counter() - began
                phase.attempted += self.clients * len(segment)
                calibrator.sample()
        finally:
            segment.clear()
            start.wait()
            for thread in threads:
                thread.join()
        for mine in per_client:
            phase.latencies += mine.latencies
            phase.ends += mine.ends
        phase.add_counters(
            service_before,
            front.metrics.snapshot(),
            store_before,
            front.store.stats.snapshot(),
        )
        phase.front_waits = [t.wait_seconds for t in front.traces[traces_before:]]
        return phase


class ColdGraphs(Workload):
    """One client; every request is first contact with a new graph."""

    name = "cold_graphs"
    # Cold set-up is cheap and holds no serving state, so it is also timed
    # once between cycles (see ``between``), spreading its samples over
    # the whole run.
    SETUPS_BEFORE = 1
    SETUPS_AFTER = 0

    def setup(self) -> None:
        rng = random.Random(self.graph_seed)
        self.templates = []
        for index in range(self.graphs):
            seed = rng.randrange(2**31)
            if index % 2 == 0:
                network = gnp(self.n, seed)
            else:
                network = graphs.barabasi_albert(self.n, 4, seed=seed)
            self.templates.append(network)

    def release(self) -> None:
        del self.templates

    def measure(self, seconds, min_requests, tracer, verifier, calibrator) -> Phase:
        phase = Phase()
        cycle = 0
        while not phase.done(seconds, min_requests):
            # Untimed: fresh graph objects, a fresh store directory and
            # a fresh service, so each cycle is cold all over again.
            networks = [fresh_copy(network) for network in self.templates]
            directory = self.scratch / f"store-{cycle}"
            store = ArtifactStore(directory)
            service = SimulationService(store=store, seed=self.service_seed)
            service_before = service.metrics.snapshot()
            store_before = store.stats.snapshot()
            paused = 0.0
            started = time.perf_counter()
            for index, network in enumerate(networks):
                family = (self.offset + index) % len(FAMILIES)
                request = SimulationRequest(algo=FAMILIES[family](), network=network)
                phase.attempted += 1
                response, took = serve_one(
                    service.submit, request, tracer, phase.attempted
                )
                self._record(phase, verifier, response, took, network, family)
                paused += calibrator.maybe()
            phase.wall += time.perf_counter() - started - paused
            phase.add_counters(
                service_before,
                service.metrics.snapshot(),
                store_before,
                store.stats.snapshot(),
            )
            shutil.rmtree(directory, ignore_errors=True)
            cycle += 1
            self.between()
        return phase


class ChurnRepair(Workload):
    """One client on one graph; a churn epoch before every fifth request."""

    name = "churn_repair"

    def setup(self) -> None:
        network = gnp(self.n, self.graph_seed)
        service = SimulationService(network, seed=self.service_seed)
        for make in FAMILIES:
            response = service.submit(make())
        self.network = network
        self.spanner = response.spanner
        self.plan = ChurnPlan(
            seed=random.Random(self.graph_seed).randrange(2**31),
            epochs=self.epochs,
            **CHURN_RATES,
        )

    def release(self) -> None:
        del self.network, self.spanner

    def measure(self, seconds, min_requests, tracer, verifier, calibrator) -> Phase:
        phase = Phase()
        while not phase.done(seconds, min_requests):
            # Untimed: a fresh in-memory store holding only the base
            # graph's spanner, so each cycle replays the same epochs.
            store = ArtifactStore()
            store.put_spanner(self.spanner)
            service = SimulationService(
                self.network, store=store, seed=self.service_seed
            )
            service_before = service.metrics.snapshot()
            store_before = store.stats.snapshot()
            paused = 0.0
            started = time.perf_counter()
            for epoch in range(self.epochs):
                service.apply_churn(self.plan, epoch)
                phase.epochs += 1
                for slot in range(len(FAMILIES)):
                    # Rotating by epoch puts every family first after a
                    # churn once per cycle, whatever the seed's offset.
                    family = (self.offset + epoch + slot) % len(FAMILIES)
                    phase.attempted += 1
                    response, took = serve_one(
                        service.submit, FAMILIES[family](), tracer, phase.attempted
                    )
                    self._record(
                        phase, verifier, response, took, service.network, family
                    )
                    paused += calibrator.maybe()
            phase.wall += time.perf_counter() - started - paused
            phase.add_counters(
                service_before,
                service.metrics.snapshot(),
                store_before,
                store.stats.snapshot(),
            )
        return phase


WORKLOADS = {cls.name: cls for cls in (WarmMix, ColdGraphs, ChurnRepair)}

