"""Performance contracts for the flat-array core.

Two kinds of guards:

* **structural** — the CSR fast paths must not fall back to per-edge
  object churn (counted by instrumenting ``EdgeRef``), cached
  accessors must return the same object on repeated calls, and a warm
  serve must not recompute what its cached flood schedule already knows;
* **equivalence** — the sampler, and the serial reference of
  ``tests/reference_sampler.py`` that is its oracle, must stay
  *bit-identical* to the seed recount strategy, pinned against the
  sha256 digests of that strategy's full traces
  (``tests/data/golden_full_traces.json``, captured before it was
  deleted) and of the seed implementation's signatures
  (``tests/data/golden_signatures.json``); both are regenerated only
  deliberately via ``tools/capture_golden_signatures.py``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import reference_distance as oracle
import repro.graphs.distance as distance_plane
from reference_sampler import reference_build
from repro import obs
from repro.algorithms import (
    BallCollect,
    LubyMis,
    MinIdAggregation,
    RandomizedColoring,
    RandomMatching,
    run_direct,
    run_inprocess,
)
from repro.core import SamplerParams
from repro.core.sampler import SamplerRun
from repro.graphs import barabasi_albert, erdos_renyi, random_regular
from repro.graphs.distance import BallFamily
from repro.dynamic import ChurnPlan, apply_churn
from repro.local import EdgeRef, Knowledge, Network, engine
from repro.service import SimulationRequest, SimulationService
from repro.simulate import flood_schedule, runtime_simulation, simulate_over_spanner

DATA = pathlib.Path(__file__).parent / "data"


def _digest(trace) -> str:
    return hashlib.sha256(repr(trace.signature()).encode()).hexdigest()


def full_digest(result) -> str:
    """sha256 over the sorted spanner edges plus the full trace — the
    digest ``tools/capture_golden_signatures.py --full`` records."""
    document = (tuple(sorted(result.edges)), result.trace.full_signature())
    return hashlib.sha256(repr(document).encode()).hexdigest()


@pytest.fixture(scope="module")
def goldens() -> dict[str, str]:
    return json.loads((DATA / "golden_signatures.json").read_text())


@pytest.fixture(scope="module")
def full_goldens() -> dict[str, str]:
    return json.loads((DATA / "golden_full_traces.json").read_text())


@pytest.fixture()
def count_edgerefs(monkeypatch):
    """Patch EdgeRef.__post_init__ to count instantiations."""
    counter = {"count": 0}
    original = EdgeRef.__post_init__

    def counting(self):
        counter["count"] += 1
        original(self)

    monkeypatch.setattr(EdgeRef, "__post_init__", counting)
    return counter


class TestSubnetworkContracts:
    def test_subnetwork_creates_no_edge_objects(self, count_edgerefs):
        n = 50_000
        net = Network.from_edge_pairs(n, [(i, i + 1) for i in range(n - 1)])
        count_edgerefs["count"] = 0
        sub = net.subnetwork(range(0, n - 1, 2))
        assert count_edgerefs["count"] == 0
        assert sub.m == (n - 1 + 1) // 2
        assert sub.endpoints(0) == (0, 1)

    def test_from_edge_pairs_creates_no_edge_objects(self, count_edgerefs):
        Network.from_edge_pairs(1000, [(i, i + 1) for i in range(999)])
        assert count_edgerefs["count"] == 0

    def test_subnetwork_path_50k_is_fast(self):
        """Time-bounded sanity: views must be built in one linear pass.

        The seed implementation re-validated and re-built an EdgeRef map
        per subnetwork; on n=50k this guard allows ~20x headroom over
        the flat path's observed cost, but catches an accidental return
        to per-edge dict rebuilds (which would also trip the counter
        test above)."""
        n = 50_000
        net = Network.from_edge_pairs(n, [(i, i + 1) for i in range(n - 1)])
        started = time.perf_counter()
        for _ in range(3):
            net.subnetwork(range(0, n - 1, 2))
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"subnetwork of a 50k path took {elapsed:.2f}s"

    def test_star_hub_sweep_is_fast(self):
        """Time-bounded sanity: a hub's adjacency list is one segment.

        The level step folds each wide column of the degree-ordered CSR
        in with one gather-OR and the narrow rest with one ``reduceat``
        (DESIGN.md §3.7).  A star's hub has n - 1 columns of width one;
        on a 2-core host, folding each by its own NumPy op took about
        2.5 s, while the sweep takes 0.02-0.04 s (the reduceat-only level
        step it replaced, 0.02-0.03 s): the bound leaves over 10x
        headroom above both and still catches that loop."""
        n = 200_000
        star = Network.from_edge_pairs(n, [(0, w) for w in range(1, n)])
        indptr, indices = distance_plane.adjacency_csr(star)
        started = time.perf_counter()
        blocks = list(
            distance_plane.ball_matrix_blocks(indptr, indices, range(1, 65), 2)
        )
        elapsed = time.perf_counter() - started
        assert [offset for offset, _ in blocks] == [0]
        assert blocks[0][1].all()  # two hops from a leaf reach every node
        assert elapsed < 0.5, f"64-source sweep of a 200k star took {elapsed:.2f}s"

    def test_edge_view_is_lazy_but_correct(self):
        net = Network.from_edge_pairs(4, [(0, 1), (1, 2), (2, 3)])
        edge = net.edge(1)
        assert isinstance(edge, EdgeRef)
        assert (edge.eid, edge.u, edge.v) == (1, 1, 2)


class TestCachedAccessors:
    def test_neighbors_cached(self):
        net = erdos_renyi(60, 0.2, seed=3)
        assert net.neighbors(5) is net.neighbors(5)

    def test_adjacency_cached(self):
        net = erdos_renyi(60, 0.2, seed=3)
        assert net.adjacency() is net.adjacency()

    def test_incident_cached(self):
        net = erdos_renyi(60, 0.2, seed=3)
        assert net.incident(7) is net.incident(7)

    def test_neighbors_aligned_with_incident(self):
        net = erdos_renyi(40, 0.25, seed=4)
        for v in net.nodes():
            assert net.neighbors(v) == tuple(
                net.other_end(eid, v) for eid in net.incident(v)
            )

    def test_csr_views_consistent(self):
        net = erdos_renyi(40, 0.25, seed=5)
        indptr, inc = net.incidence_csr()
        eid_row, ep_u, ep_v = net.endpoints_flat()
        assert eid_row is None  # consecutive ids -> identity mapping
        for v in net.nodes():
            assert tuple(inc[indptr[v] : indptr[v + 1]]) == net.incident(v)
        for eid in net.edge_ids:
            assert (ep_u[eid], ep_v[eid]) == net.endpoints(eid)

    def test_sparse_id_subnetwork_keeps_lookups(self):
        net = erdos_renyi(30, 0.3, seed=6)
        keep = list(net.edge_ids)[1::2]  # non-consecutive -> dict mapping
        sub = net.subnetwork(keep)
        eid_row, _u, _v = sub.endpoints_flat()
        assert eid_row is not None
        for eid in keep:
            assert sub.endpoints(eid) == net.endpoints(eid)


class TestWarmServeContracts:
    """A cached flood schedule's ball sizes and ``B_t``-coverage verdict
    are computed once: a repeated ``(schedule, graph, t)`` runs no
    popcount, no component labelling and no ``B_t`` sweep (DESIGN.md
    §3.5, §3.7)."""

    # Two paths and five isolated nodes: no ball holds all 12 nodes, so
    # a cold verdict takes every step of the check.
    EDGES = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]

    @pytest.fixture
    def plane_calls(self, monkeypatch):
        """Counts calls to the plane's popcount, component labelling
        and ``B_t`` sweep."""
        calls: Counter = Counter()
        for name in ("_popcounts", "component_labels", "ball_matrix_blocks"):
            original = getattr(distance_plane, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(distance_plane, name, counting)
        return calls

    def test_sizes_are_one_read_only_array(self):
        packed = flood_schedule(erdos_renyi(40, 0.1, seed=2), 2).balls
        sets = BallFamily.from_sets(list(packed), packed.universe)
        for family in (packed, sets):
            sizes = family.sizes()
            assert family.sizes() is sizes
            with pytest.raises(ValueError):
                sizes[0] = 0
        assert np.array_equal(sets.sizes(), packed.sizes())
        with pytest.raises(ValueError):
            packed._packed[0, 0] = 0

    @pytest.mark.parametrize("spans", [False, True], ids=["obs_off", "obs_on"])
    def test_repeat_serves_run_no_coverage_work(self, spans, plane_calls):
        net = Network.from_edge_pairs(12, self.EDGES)
        service = SimulationService(net)
        previous = obs.set_enabled(spans)
        obs.collector().reset()
        try:
            responses, counts = [], []
            for _ in range(3):
                responses.append(
                    service.submit(SimulationRequest(BallCollect(2), radius=1))
                )
                counts.append(dict(plane_calls))
            coverage = [
                tuple(record["attrs"][key] for key in ("uncovered", "memoized"))
                for record in obs.collector().finished()
                if record["name"] == "simulate/coverage"
            ]
        finally:
            obs.collector().reset()
            obs.set_enabled(previous)
        assert set(counts[0]) == {
            "_popcounts",
            "component_labels",
            "ball_matrix_blocks",
        }
        assert counts[1] == counts[2] == counts[0]
        if spans:
            # 6 of the 12 centers stay uncovered at radius 1
            assert coverage == [(6, False), (6, True), (6, True)]
        spanner = responses[0].spanner
        reference = runtime_simulation(
            net, spanner.edges, spanner.stretch_bound, BallCollect(2), radius=1
        )
        assert all(r.simulation == reference for r in responses)

    def test_verdict_is_keyed_by_graph_and_t(self):
        # G: an 8-cycle with the chord (0, 4), plus the component {8, 9}.
        # The family floods radius 1 on G without the chord, which is
        # also G'.  Consecutive queries change the graph or t, and so
        # does the verdict, so a key missing either part fails.
        cycle = [(i, (i + 1) % 8) for i in range(8)] + [(8, 9)]
        g = Network.from_edge_pairs(10, cycle + [(0, 4)])
        g_minus = Network.from_edge_pairs(10, cycle)
        spanner = g.subnetwork(
            [eid for eid in g.edge_ids if g.endpoints(eid) != (0, 4)]
        )
        family = flood_schedule(spanner, 1).balls
        queries = [
            (g, 1, [0, 4]),
            (g_minus, 1, []),
            (g, 2, list(range(8))),
            (g_minus, 2, list(range(8))),
            (g, 1, [0, 4]),
        ]
        memoized = []
        for net, t, expected in queries:
            assert oracle.uncovered_centers(net, family, t) == expected
            uncovered, short, component_covered, known = family.coverage(net, t)
            assert list(uncovered) == expected, (t, expected)
            fresh = flood_schedule(spanner, 1).balls.coverage(net, t)
            assert (uncovered, short, component_covered) == fresh[:3]
            memoized.append(known)
        assert memoized == [False, False, False, False, True]

    def test_threads_sharing_one_schedule_get_the_serial_outcomes(self):
        net = erdos_renyi(60, 0.1, seed=5)
        edges = sorted(net.edge_ids)[::2]  # thinned: some centers stay uncovered
        spanner = net.subnetwork(edges)
        payloads = [MinIdAggregation(2), BallCollect(2), LubyMis(1), RandomMatching(1)]

        def run(algo, schedule=None):
            return simulate_over_spanner(
                net, edges, 3, algo, seed=4, radius=2, schedule=schedule
            )

        serial = [run(algo) for algo in payloads]
        assert any(
            flood_schedule(spanner, 2).balls.coverage(net, algo.rounds(net.n))[0]
            for algo in payloads
        )
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the first computations
        try:
            for _ in range(3):
                shared = flood_schedule(spanner, 2)
                start = threading.Barrier(len(payloads), timeout=30)
                results: list = [None] * len(payloads)

                def worker(i):
                    start.wait()
                    results[i] = run(payloads[i], shared)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(len(payloads))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == serial
        finally:
            sys.setswitchinterval(switch)


class TestDeliveryPlanContracts:
    """A network builds one delivery plan, shared by its
    ``with_knowledge`` clones, and an all-node round without drops takes
    the plan's inbox instead of sorting by receiver (DESIGN.md §3.10)."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """Counts the engine's plan builds and receiver sorts."""
        calls: Counter = Counter()
        for name in ("_build_plan", "_receiver_order"):
            original = getattr(engine, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, counting)
        return calls

    def test_repeat_coloring_builds_and_sorts_nothing(self, engine_calls):
        net = erdos_renyi(200, 0.04, seed=3)
        first = run_inprocess(net, RandomizedColoring(2), seed=1)
        # The build sorts the positions once; both rounds are all-node.
        assert engine_calls == {"_build_plan": 1, "_receiver_order": 1}
        engine_calls.clear()
        assert run_inprocess(net, RandomizedColoring(2), seed=1) == first
        assert engine_calls == {}

    def test_min_id_sorts_only_partial_rounds(self, engine_calls):
        net = erdos_renyi(200, 0.04, seed=3)
        engine.delivery_plan(net)
        engine_calls.clear()
        algo = MinIdAggregation(3)
        per_round = run_direct(net, algo, seed=1).messages.per_round
        sent = per_round[: algo.rounds(net.n)]  # the delivered rounds
        partial = sum(0 < count < 2 * net.m for count in sent)
        assert sent[0] == 2 * net.m and partial >= 1
        assert engine_calls == {"_receiver_order": partial}

    def test_with_knowledge_clone_builds_no_plan(self, engine_calls):
        net = erdos_renyi(200, 0.04, seed=3)
        outputs = run_inprocess(net, MinIdAggregation(3), seed=1)
        clone = net.with_knowledge(Knowledge.KT0)
        engine_calls.clear()
        assert run_inprocess(clone, MinIdAggregation(3), seed=1) == outputs
        assert engine_calls["_build_plan"] == 0
        assert engine.delivery_plan(clone) is engine.delivery_plan(net)

    def test_churned_network_builds_its_eid_table_once(self, engine_calls):
        base = erdos_renyi(200, 0.04, seed=3)
        net, _ = apply_churn(base, ChurnPlan(seed=5, edge_removal=0.1, edge_addition=0.05))
        table = engine.delivery_plan(net).eid_sorted
        assert table is not None  # ids have gaps
        for algo in (MinIdAggregation(3), RandomMatching(2), LubyMis(2)):
            for seed in (1, 2):
                run_direct(net, algo, seed=seed)
        assert engine_calls["_build_plan"] == 1
        assert engine.delivery_plan(net).eid_sorted is table


FAMILIES = {
    "er60": lambda s: (erdos_renyi(60, 0.15, seed=s), SamplerParams(k=2, h=2, seed=s)),
    "reg64": lambda s: (
        random_regular(64, 6, seed=s),
        SamplerParams(k=2, h=2, seed=s + 100),
    ),
    "ba70": lambda s: (
        barabasi_albert(70, 4, seed=s),
        SamplerParams(k=1, h=2, seed=s + 200),
    ),
}


class TestIncrementalBitIdentical:
    """5 seeds x 3 families: flat path == seed path, pinned to goldens."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identical(self, family, seed, goldens, full_goldens):
        net, params = FAMILIES[family](seed)
        result = SamplerRun(net, params).run()
        case = f"{family}-s{seed}"
        assert full_digest(result) == full_goldens[case], (
            f"{case}: full trace diverged from the frozen recount strategy"
        )
        assert _digest(result.trace) == goldens[case], (
            f"{case}: trace diverged from the frozen seed behaviour"
        )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", range(5))
    def test_serial_reference_identical(self, family, seed, goldens, full_goldens):
        net, params = FAMILIES[family](seed)
        result = reference_build(net, params)
        case = f"{family}-s{seed}"
        assert full_digest(result) == full_goldens[case]
        assert _digest(result.trace) == goldens[case]
