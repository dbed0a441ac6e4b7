"""The unified telemetry plane (DESIGN.md §3.13).

The two contracts under test: *determinism by construction* — every
instrumented result is bit-identical with ``REPRO_OBS`` on, off, or
flipped mid-process, and span trees are structurally stable across
repeated runs — and *schema round-trips* — the JSON-lines, Chrome
``trace_event``, and Prometheus exporters all render the same collector
state without loss, build and request lanes in one file.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.algorithms import MinIdAggregation
from repro.core import SamplerParams, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.graphs import erdos_renyi
from repro.local.metrics import MessageStats
from repro.simulate import run_one_stage

PARAMS = SamplerParams(k=2, h=2, seed=3)


@pytest.fixture
def net():
    return erdos_renyi(60, 0.1, seed=4)


@pytest.fixture
def obs_off():
    """Plane off, collector clean — restore whatever state we entered with."""
    previous = obs.set_enabled(False)
    obs.collector().reset()
    yield
    obs.collector().reset()
    obs.set_enabled(previous)


@pytest.fixture
def obs_on():
    previous = obs.set_enabled(True)
    obs.collector().reset()
    yield
    obs.collector().reset()
    obs.set_enabled(previous)


def _shape(records):
    """Structure of a span forest, timestamps and pids erased."""
    by_id = {record["id"]: record for record in records}

    def path(record):
        names = [record["name"]]
        while record["parent"] in by_id:
            record = by_id[record["parent"]]
            names.append(record["name"])
        return tuple(reversed(names))

    return sorted(
        (path(record), tuple(sorted(record["attrs"].items())))
        for record in records
    )


class TestGating:
    def test_disabled_span_is_the_noop_singleton(self, obs_off):
        assert obs.span("anything", x=1) is obs.NOOP_SPAN
        with obs.span("build/level", level=2) as span:
            span.set(population=5)
        obs.event("store/retry", attempt=1)
        assert obs.collector().finished() == []

    def test_enabled_spans_nest_and_record(self, obs_on):
        with obs.span("a") as outer:
            with obs.span("b", k=1):
                obs.event("c")
            outer.set(done=True)
        records = obs.collector().finished()
        assert [r["name"] for r in records] == ["c", "b", "a"]
        c, b, a = records
        assert b["parent"] == a["id"]
        assert c["parent"] == b["id"]
        assert a["parent"] == 0
        assert a["attrs"] == {"done": True}
        assert b["dur"] >= 0 and a["dur"] >= b["dur"]
        assert c["dur"] == 0.0

    def test_set_enabled_returns_previous(self, obs_off):
        assert obs.set_enabled(True) is False
        assert obs.set_enabled(False) is True
        assert not obs.enabled()


class TestDeterminism:
    def test_spanner_bit_identical_on_vs_off(self, net, obs_off):
        baseline = build_spanner(net, PARAMS)
        obs.set_enabled(True)
        traced = build_spanner(net, PARAMS)
        obs.set_enabled(False)
        assert traced == baseline  # full equality: edges, trace, certificates

    def test_scheme_report_bit_identical_on_vs_off(self, net, obs_off):
        baseline = run_one_stage(net, MinIdAggregation(2), params=PARAMS, seed=0)
        obs.set_enabled(True)
        traced = run_one_stage(net, MinIdAggregation(2), params=PARAMS, seed=0)
        obs.set_enabled(False)
        assert traced.outputs == baseline.outputs
        assert traced.simulation.messages == baseline.simulation.messages
        assert traced.spanner == baseline.spanner

    def test_span_tree_stable_across_runs(self, net, obs_on):
        build_spanner(net, PARAMS)
        first = obs.collector().finished()
        obs.collector().reset()
        build_spanner(net, PARAMS)
        second = obs.collector().finished()
        assert _shape(first) == _shape(second)

    def test_build_span_tree_shape(self, net, obs_on):
        result = build_spanner(net, PARAMS)
        records = obs.collector().finished()
        roots = [r for r in records if r["name"] == "build/spanner"]
        assert len(roots) == 1
        assert roots[0]["attrs"]["n"] == net.n
        assert roots[0]["attrs"]["edges"] == len(result.edges)
        levels = [r for r in records if r["name"] == "build/level"]
        assert [r["attrs"]["level"] for r in levels] == list(
            range(PARAMS.levels)
        )
        assert all(r["parent"] == roots[0]["id"] for r in levels)

    def test_runtime_span_carries_roll_ups(self, net, obs_on):
        metered = build_spanner_distributed(net, PARAMS)
        records = obs.collector().finished()
        (run,) = [r for r in records if r["name"] == "runtime/run"]
        assert run["attrs"]["messages"] == metered.messages.total
        assert run["attrs"]["rounds"] == metered.rounds
        (build,) = [r for r in records if r["name"] == "build/distributed"]
        assert run["parent"] == build["id"]

    def test_one_stage_prices_its_construction(self, net, obs_on):
        report = run_one_stage(net, MinIdAggregation(2), params=PARAMS, seed=0)
        records = obs.collector().finished()
        names = {r["name"] for r in records}
        assert not names & {"build/distributed", "runtime/run"}
        (price,) = [r for r in records if r["name"] == "build/price"]
        assert price["attrs"]["messages"] == report.spanner.messages.total
        assert price["attrs"]["rounds"] == report.spanner.rounds
        (scheme,) = [r for r in records if r["name"] == "scheme/one_stage"]
        assert price["parent"] == scheme["id"]
        assert scheme["attrs"]["messages"] == report.simulation.messages.total


class TestCoverageTelemetry:
    """``simulate/coverage`` counts what the component rule settled, and
    ``store/fetch_flood_schedule`` says whether its profile is exhausted."""

    # components {0..3} (a path), {4, 5, 6} (a path), five isolated nodes
    EDGES = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]

    def _simulate(self, radius, store=None):
        """Simulate over the whole graph; with a ``store``, fetch the
        flood schedule from it first, as the service does."""
        from repro.algorithms import BallCollect
        from repro.local.network import Network
        from repro.simulate import simulate_over_spanner

        net = Network.from_edge_pairs(12, self.EDGES)
        schedule = None
        if store is not None:
            schedule, _ = store.fetch_flood_schedule(
                net.subnetwork(net.edge_ids), radius
            )
        return simulate_over_spanner(
            net,
            net.edge_ids,
            3,
            BallCollect(2),
            seed=1,
            radius=radius,
            schedule=schedule,
        )

    def _attrs(self, name, *keys):
        return [
            tuple(record["attrs"][key] for key in keys)
            for record in obs.collector().finished()
            if record["name"] == name
        ]

    def test_coverage_span_counts(self, obs_on):
        from repro.store import ArtifactStore

        store = ArtifactStore()
        for radius in (1, 4, 6):
            self._simulate(radius, store=store)
        coverage = self._attrs(
            "simulate/coverage", "short", "component_covered", "uncovered"
        )
        # radius 1: the isolated nodes and node 5 hold their components;
        # 0, 1, 2, 3, 4 and 6 miss part of their B_2.
        assert coverage == [(12, 6, 6), (12, 12, 0), (12, 12, 0)]
        fetches = self._attrs("store/fetch_flood_schedule", "source", "exhausted")
        assert fetches == [("built", False), ("built", True), ("memory", True)]

    def test_profile_build_and_its_sweeps(self, obs_on):
        from repro.store import ArtifactStore

        store = ArtifactStore()
        for radius in (1, 4, 6):
            self._simulate(radius, store=store)
        builds = self._attrs("store/profile_build", "n", "radius", "levels", "exhausted")
        # radius 1 is cut short; the longest path has 3 hops, so the
        # radius-4 profile is exhausted and also serves radius 6
        assert builds == [(12, 1, 1, False), (12, 4, 3, True)]
        records = obs.collector().finished()
        parents = {record["id"]: record["name"] for record in records}
        sweeps = [
            tuple(record["attrs"][key] for key in ("rows", "levels", "track_dist"))
            for record in records
            if record["name"] == "distance/sweep"
            and parents.get(record["parent"]) == "store/profile_build"
        ]
        assert sweeps == [(12, 1, True), (12, 3, True)]

    def test_repeat_reports_the_memoized_verdict(self, obs_on):
        from repro.store import ArtifactStore

        store = ArtifactStore()
        for _ in range(2):
            self._simulate(1, store=store)
        coverage = self._attrs(
            "simulate/coverage", "short", "component_covered", "uncovered", "memoized"
        )
        # the second run replays the stored schedule: same verdict, memoized
        assert coverage == [(12, 6, 6, False), (12, 6, 6, True)]

    def test_off_path_records_nothing_and_agrees(self, obs_off):
        baseline = self._simulate(1)
        assert obs.collector().finished() == []
        obs.set_enabled(True)
        traced = self._simulate(1)
        obs.set_enabled(False)
        assert traced == baseline

    def test_replay_span_counts_the_fallbacks(self, obs_on):
        for radius in (1, 4):
            self._simulate(radius)
        replays = self._attrs("simulate/replay", "algo", "t", "fallbacks")
        # radius 1 leaves the six centers above to their own replays
        assert replays == [("ball-collect", 2, 6), ("ball-collect", 2, 0)]


class TestChurnTelemetry:
    """``dynamic/churn`` counts what an epoch did; ``dynamic/repair``
    wraps the checked rebuild of a churned spanner."""

    PLAN = dict(edge_removal=0.1, edge_addition=0.05, node_crash=0.05, node_recovery=1.0)

    def test_churn_and_repair_spans(self, net, obs_on):
        from repro.dynamic import ChurnPlan, churn_sequence, repair_spanner

        parent = build_spanner(net, PARAMS)
        steps = churn_sequence(net, ChurnPlan(seed=5, epochs=2, **self.PLAN))
        records = obs.collector().finished()
        churns = [r["attrs"] for r in records if r["name"] == "dynamic/churn"]
        expected = []
        before = net
        for child, log in steps:
            expected.append({
                "n": 60,
                "m": before.m,
                "epoch": log.epoch,
                "removed": len(log.removed_edges),
                "added": len(log.added_edges),
                "crashed": len(log.crashed),
                "recovered": len(log.recovered),
            })
            before = child
        assert churns == expected
        assert all(c["removed"] for c in churns)
        obs.collector().reset()
        final = steps[-1][0]
        repaired = repair_spanner(parent, final, [log for _, log in steps])
        records = obs.collector().finished()
        (repair,) = [r for r in records if r["name"] == "dynamic/repair"]
        assert repair["attrs"] == {
            "n": 60, "m": final.m, "chain": 2, "edges": len(repaired.edges)
        }
        (build,) = [r for r in records if r["name"] == "build/spanner"]
        assert build["parent"] == repair["id"]

    def test_off_path_records_nothing_and_agrees(self, net, obs_off):
        from repro.dynamic import ChurnPlan, apply_churn, repair_spanner

        plan = ChurnPlan(seed=5, **self.PLAN)
        parent = build_spanner(net, PARAMS)
        child, log = apply_churn(net, plan, 0)
        repaired = repair_spanner(parent, child, log)
        assert obs.collector().finished() == []
        obs.set_enabled(True)
        traced_child, traced_log = apply_churn(net, plan, 0)
        traced = repair_spanner(parent, traced_child, traced_log)
        obs.set_enabled(False)
        assert (traced_child, traced_log, traced) == (child, log, repaired)


class TestExporters:
    def test_jsonl_round_trip_and_append(self, tmp_path, obs_on):
        with obs.span("a", x=1):
            pass
        records = obs.collector().finished()
        path = tmp_path / "trace.jsonl"
        assert obs.write_jsonl(records, path) == 1
        assert obs.write_jsonl(records, path, append=True) == 1
        back = obs.read_jsonl(path)
        assert len(back) == 2
        assert all(r["schema"] == obs.SPAN_SCHEMA for r in back)
        assert back[0]["name"] == "a"
        assert back[0]["attrs"] == {"x": 1}

    def test_read_jsonl_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = obs.as_record(
            {"id": 1, "name": "a", "ts": 0.0, "dur": 0.1, "pid": 1}
        )
        record["schema"] = 99
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="schema"):
            obs.read_jsonl(path)

    def test_chrome_trace_structure(self, tmp_path, obs_on):
        with obs.span("build/spanner", n=10):
            with obs.span("build/level", level=0):
                pass
        path = tmp_path / "trace.json"
        assert obs.write_chrome_trace(obs.collector().finished(), path) == 2
        trace = json.loads(path.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"build/spanner", "build/level"}
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
        assert all(e["cat"] == "build" for e in events)
        assert obs.validate_chrome_trace(path) == 2

    def test_prometheus_text_absorbs_legacy_stats(self):
        from repro.store.store import StoreStats

        registry = obs.MetricsRegistry()
        stats = StoreStats()
        stats.bump(memory_hits=3, misses=1)
        registry.register("store", stats)
        messages = MessageStats()
        messages.record_uniform("query", 2)
        messages.record_uniform("bcast", 1)
        registry.register("simulation", messages)
        text = obs.prometheus_text(registry)
        assert "repro_store_memory_hits 3" in text
        assert "repro_store_misses 1" in text
        assert "repro_simulation_total 3" in text
        assert 'repro_simulation_by_tag{key="query"} 2' in text
        assert 'repro_simulation_by_tag{key="bcast"} 1' in text

    def test_registry_collect_includes_instruments(self):
        """The registry's instruments are the live counter objects
        registered with it; collect() reads them at call time."""
        from repro.service import ServiceMetrics

        registry = obs.MetricsRegistry()
        metrics = registry.register("service", ServiceMetrics())
        metrics.bump(requests=2, merged=1)
        collected = registry.collect()
        assert collected["service"] == metrics.snapshot()
        assert collected["service"]["requests"] == 2
        assert collected["service"]["merged"] == 1
        with pytest.raises(TypeError):
            registry.register("bad", object())


class TestMessageStatsSnapshot:
    def test_snapshot_contract(self):
        stats = MessageStats(dropped=1, corrupted=1)
        stats.record_batch([(0, 0, None, "query"), (1, 1, None, "bcast")])
        merged = stats.merge(stats)
        snap = merged.snapshot()
        assert snap == {
            "total": 4,
            "dropped": 2,
            "corrupted": 2,
            "by_tag": {"query": 2, "bcast": 2},
            "stage_offsets": [0, 1],
        }
        # the snapshot is detached from the live counters
        snap["by_tag"]["query"] = 99
        snap["stage_offsets"].append(7)
        assert merged.by_tag["query"] == 2
        assert merged.stage_offsets == [0, 1]


class TestReportCli:
    def _trace_file(self, tmp_path):
        with obs.span("build/spanner", n=10):
            with obs.span("build/level", level=0):
                pass
            with obs.span("build/level", level=1):
                pass
        path = tmp_path / "trace.jsonl"
        obs.write_jsonl(obs.collector().finished(), path)
        return path

    def test_summarize_groups_and_self_time(self, tmp_path, obs_on):
        path = self._trace_file(tmp_path)
        rows = obs.summarize(obs.read_jsonl(path))
        by_name = {row["name"]: row for row in rows}
        assert by_name["build/level"]["count"] == 2
        assert by_name["build/spanner"]["count"] == 1
        total = by_name["build/spanner"]
        assert total["self"] <= total["total"]

    def test_report_command(self, tmp_path, obs_on, capsys):
        from repro.obs.__main__ import main

        path = self._trace_file(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "build/spanner" in out
        assert "build/level" in out
        assert "3 spans" in out

    def test_validate_command(self, tmp_path, obs_on, capsys):
        from repro.obs.__main__ import main

        path = self._trace_file(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "schema ok" in capsys.readouterr().out
        chrome = tmp_path / "trace.json"
        assert main(["chrome", str(path), str(chrome)]) == 0
        assert main(["validate", "--chrome", str(chrome)]) == 0


class TestServiceIntegration:
    def test_concurrent_front_mirrors_requests_into_collector(
        self, net, obs_on
    ):
        from repro.service import ConcurrentSimulationService

        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=2, merge_window=0.0
        )
        with front:
            front.serve([MinIdAggregation(2), MinIdAggregation(2)])
        records = obs.collector().finished()
        requests = [r for r in records if r["name"] == "service/request"]
        assert len(requests) == 2
        assert {r["attrs"]["outcome"] for r in requests} == {"served"}
        answers = [r for r in records if r["name"] == "service/answer"]
        assert len(answers) == 2  # one cold build, one warm cache hit
        sources = [r["attrs"]["spanner_source"] for r in answers]
        assert sorted(sources) == ["built", "memory"]

    def test_cold_serve_records_the_priced_build(self, net, obs_on):
        from repro.service import SimulationService

        service = SimulationService(net, params=PARAMS, seed=0)
        response = service.submit(MinIdAggregation(2))
        assert response.cold
        records = obs.collector().finished()
        by_id = {r["id"]: r for r in records}
        (price,) = [r for r in records if r["name"] == "build/price"]
        assert price["attrs"]["messages"] == response.construction_messages_paid
        assert price["attrs"]["rounds"] == response.spanner.rounds
        (build,) = [r for r in records if r["name"] == "build/spanner"]
        for span in (price, build):
            assert by_id[span["parent"]]["name"] == "store/fetch_spanner"
        levels = [r for r in records if r["name"] == "build/level"]
        assert len(levels) == PARAMS.levels
        assert all(r["parent"] == build["id"] for r in levels)
        names = {r["name"] for r in records}
        assert not names & {"build/distributed", "runtime/run"}
        (answer,) = [r for r in records if r["name"] == "service/answer"]
        assert answer["attrs"]["construction_paid"] == price["attrs"]["messages"]
        assert answer["attrs"]["construction_priced"] == price["attrs"]["messages"]

    def test_warm_serve_times_its_replay(self, net, obs_off):
        from repro.algorithms import RandomizedColoring
        from repro.service import SimulationService

        service = SimulationService(net, params=PARAMS, seed=0)
        algo = RandomizedColoring(2)
        service.submit(algo)  # cold: builds the spanner and the schedule
        untraced = service.submit(algo)
        obs.set_enabled(True)
        traced = service.submit(algo)
        obs.set_enabled(False)
        assert traced.outputs == untraced.outputs
        records = obs.collector().finished()
        (answer,) = [r for r in records if r["name"] == "service/answer"]
        (coverage,) = [r for r in records if r["name"] == "simulate/coverage"]
        (replay,) = [r for r in records if r["name"] == "simulate/replay"]
        assert replay["parent"] == coverage["parent"] == answer["id"]
        assert replay["ts"] >= coverage["ts"] + coverage["dur"]
        assert replay["attrs"] == {"algo": algo.name, "t": 2, "fallbacks": 0}

    def test_trace_file_merges_with_build_spans(self, net, tmp_path, obs_on):
        """The acceptance flow in miniature: build + serve → one file
        report + chrome both load."""
        from repro.service import ConcurrentSimulationService

        build_spanner(net, PARAMS)
        front = ConcurrentSimulationService(
            net, params=PARAMS, seed=0, max_workers=2, merge_window=0.0
        )
        with front:
            front.serve([MinIdAggregation(2)])
        path = tmp_path / "merged.jsonl"
        count = obs.write_jsonl(obs.collector().finished(), path)
        records = obs.read_jsonl(path)
        assert len(records) == count
        names = {r["name"] for r in records}
        assert {"build/spanner", "build/level", "service/request"} <= names
        rows = {row["name"]: row for row in obs.summarize(records)}
        assert rows["build/level"]["count"] >= PARAMS.levels
        chrome = tmp_path / "merged.trace.json"
        assert obs.write_chrome_trace(records, chrome) == count
        assert obs.validate_chrome_trace(chrome) == count
