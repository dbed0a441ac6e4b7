"""The amortized simulation service: bit-identical serving + accounting.

The load-bearing claim (ISSUE/DESIGN.md §3.8): a served response equals
a fresh ``run_one_stage`` with the same inputs — cold, warm, truncated,
disk-backed, on the derivation or on the literal flood — and the
metrics make the amortization visible.
"""

from __future__ import annotations

import os

import networkx as nx
import pytest

from repro import obs
from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomMatching,
    RandomizedColoring,
    run_direct,
)
from repro.core import SamplerParams
from repro.core.distributed import build_spanner_distributed
from repro.dynamic import ChurnPlan, apply_churn
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import erdos_renyi, torus
from repro.local.faults import FaultPlan
from repro.local.network import Network
from repro.service import SimulationRequest, SimulationService
from repro.service.service import _LINEAGE_DEPTH_CAP
from repro.simulate import (
    run_one_stage,
    run_two_stage,
    simulate_over_spanner,
    theorem3_params,
)
from repro.simulate.global_tasks import compute_global, elect_leader
from repro.simulate.tlocal import flood_schedule
from repro.store import ArtifactStore
from reference_runtime import literal_simulation

PARAMS = SamplerParams(k=1, h=2, seed=13)


@pytest.fixture
def net():
    return erdos_renyi(60, 0.12, seed=8)


def payload_suite():
    return [
        BfsLayers(0, 2),
        RandomizedColoring(2),
        LubyMis(1),
        RandomMatching(1),
        MinIdAggregation(3),
    ]


class TestServedEqualsRunOneStage:
    def test_cold_then_warm_are_bit_identical(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        fresh = run_one_stage(net, BallCollect(2), params=PARAMS, seed=5)
        cold = service.submit(BallCollect(2))
        warm = service.submit(BallCollect(2))
        assert cold.report == fresh
        assert warm.report == fresh
        assert cold.cold and not warm.cold
        assert warm.construction_messages_paid == 0

    def test_every_payload_family_served_exactly(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        for algo_served, algo_fresh in zip(payload_suite(), payload_suite()):
            response = service.submit(algo_served)
            fresh = run_one_stage(net, algo_fresh, params=PARAMS, seed=5)
            assert response.report == fresh

    def test_runtime_engine_served_exactly(self, net):
        """Served on the literal flood with a replay per center, the
        response still equals a fresh run on the derivation."""
        service = SimulationService(net, params=PARAMS, seed=5)
        with literal_simulation():
            response = service.submit(BallCollect(2))
        fresh = run_one_stage(net, BallCollect(2), params=PARAMS, seed=5)
        assert response.report == fresh

    def test_disk_store_shared_across_services(self, net, tmp_path):
        first = SimulationService(net, store=ArtifactStore(tmp_path), params=PARAMS, seed=5)
        cold = first.submit(BallCollect(2))
        second = SimulationService(net, store=ArtifactStore(tmp_path), params=PARAMS, seed=5)
        warm = second.submit(BallCollect(2))
        assert warm.spanner_info.source == "disk"
        assert warm.report == cold.report


class TestRequestValidation:
    def test_declared_t_must_match_the_algorithm(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        ok = SimulationRequest(algo=BallCollect(2), t=2)
        assert service.submit(ok).report.outputs  # accepted
        with pytest.raises(ValueError, match="declares t=3"):
            service.submit(SimulationRequest(algo=BallCollect(2), t=3))

    def test_noop_plan_serves_like_no_plan(self, net):
        """A plan that injects nothing is no fault plan: the serve takes
        the derivation and fetches a flood schedule, as without one."""
        service = SimulationService(net, params=PARAMS, seed=5)
        plain = service.submit(SimulationRequest(algo=BallCollect(2)))
        noop = service.submit(
            SimulationRequest(algo=BallCollect(2), faults=FaultPlan.none())
        )
        assert noop.report == plain.report
        assert noop.schedule_info is not None
        assert noop.schedule_info.source == "memory"

    def test_faulty_runtime_serve_matches_direct_call(self, net, monkeypatch):
        """A plan that can drop a message is served on the literal
        flood: the response is the direct call's, and no flood schedule
        is fetched or reported."""
        service = SimulationService(net, params=PARAMS, seed=5)
        fetched = []
        monkeypatch.setattr(
            service.store,
            "fetch_flood_schedule",
            lambda *args, **kwargs: fetched.append(args),
        )
        plan = FaultPlan(drop_probability=0.2, seed=4)
        response = service.submit(SimulationRequest(algo=BallCollect(1), faults=plan))
        spanner = response.spanner
        direct = simulate_over_spanner(
            net,
            spanner.edges,
            alpha=spanner.stretch_bound,
            algo=BallCollect(1),
            seed=5,
            faults=plan,
        )
        assert response.simulation == direct
        assert response.schedule_info is None
        assert fetched == []
        assert direct.messages.dropped > 0  # the plan actually bit

    def test_no_network_anywhere_is_refused(self):
        service = SimulationService(params=PARAMS, seed=5)
        with pytest.raises(ValueError, match="no network"):
            service.submit(BallCollect(1))


class TestBatchServing:
    def test_metrics_accumulate_the_amortization(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        for algo in payload_suite() + payload_suite():
            service.submit(algo)
        metrics = service.metrics
        assert metrics.requests == 10
        assert metrics.cold_serves == 1
        assert metrics.spanner_builds == 1
        assert metrics.spanner_hits == 9
        assert metrics.schedule_hits + metrics.schedule_builds == 10
        fresh = run_one_stage(net, payload_suite()[0], params=PARAMS, seed=5)
        assert metrics.construction_messages_paid == fresh.construction_messages
        # amortized cost strictly between marginal and cold total
        marginal = metrics.simulation_messages / metrics.requests
        assert marginal < metrics.amortized_messages() < metrics.total_messages
        assert "amortized" in metrics.summary()

    def test_second_batch_is_all_warm(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        for algo in payload_suite():
            service.submit(algo)
        warm = [service.submit(algo) for algo in payload_suite()]
        assert all(not response.cold for response in warm)
        assert all(
            response.schedule_info is not None and response.schedule_info.hit
            for response in warm
        )


class TestStoreAwareConsumers:
    def test_two_stage_with_store_is_bit_identical(self):
        net = erdos_renyi(50, 0.15, seed=9)
        store = ArtifactStore()
        plain = run_two_stage(net, BallCollect(1), stage1_params=PARAMS, seed=3)
        cold = run_two_stage(net, BallCollect(1), stage1_params=PARAMS, seed=3, store=store)
        warm = run_two_stage(net, BallCollect(1), stage1_params=PARAMS, seed=3, store=store)
        assert plain == cold == warm
        # stage-1 spanner, H1 flood, H2 flood all cached on the warm run
        assert store.stats.hits >= 3

    def test_global_tasks_with_store_are_bit_identical(self):
        net = torus(5, 5)
        store = ArtifactStore()
        plain = elect_leader(net, seed=2)
        cold = elect_leader(net, seed=2, store=store)
        warm = elect_leader(net, seed=2, store=store)
        assert plain == cold == warm
        plain_sum = compute_global(net, lambda known: sum(known.values()), seed=2)
        warm_sum = compute_global(
            net, lambda known: sum(known.values()), seed=2, store=store
        )
        assert plain_sum.outputs == warm_sum.outputs
        assert plain_sum.flood_messages == warm_sum.flood_messages

    def test_precomputed_schedule_short_circuits(self, net):
        spanner = run_one_stage(net, BallCollect(2), params=PARAMS, seed=5).spanner
        sub = net.subnetwork(spanner.edges)
        radius = spanner.stretch_bound * 2
        schedule = flood_schedule(sub, radius)
        with_schedule = simulate_over_spanner(
            net,
            spanner.edges,
            alpha=spanner.stretch_bound,
            algo=BallCollect(2),
            seed=5,
            schedule=schedule,
        )
        without = simulate_over_spanner(
            net,
            spanner.edges,
            alpha=spanner.stretch_bound,
            algo=BallCollect(2),
            seed=5,
        )
        assert with_schedule == without

    def test_mismatched_precomputed_schedule_is_refused(self, net):
        spanner = run_one_stage(net, BallCollect(2), params=PARAMS, seed=5).spanner
        sub = net.subnetwork(spanner.edges)
        wrong = flood_schedule(sub, 1)
        with pytest.raises(ValueError, match="covers radius 1"):
            simulate_over_spanner(
                net,
                spanner.edges,
                alpha=spanner.stretch_bound,
                algo=BallCollect(2),
                seed=5,
                schedule=wrong,
            )


def churn_plan(seed: int = 21, epochs: int = 1) -> ChurnPlan:
    return ChurnPlan(
        seed=seed,
        epochs=epochs,
        edge_removal=0.05,
        edge_addition=0.02,
        node_crash=0.01,
        node_recovery=0.5,
    )


class TestConstructionPrice:
    """Every response carries the closed-form message cost of a
    distributed construction of the spanner it serves."""

    def test_built_response_is_priced_at_what_it_paid(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        cold = service.submit(BallCollect(2))
        warm = service.submit(BallCollect(2))
        metered = build_spanner_distributed(net, PARAMS).messages.total
        assert cold.construction_messages_paid == metered
        assert cold.construction_messages_priced == metered
        assert warm.construction_messages_paid == 0
        assert warm.construction_messages_priced == metered

    def test_a_graph_whose_run_halts_early_serves(self):
        """Atlas G29, a 5-node tree, at γ=2: level 2 is empty, so the
        distributed run halts at round 170 of the schedule's 348."""
        g29 = Network.from_graph(nx.graph_atlas(29))
        response = SimulationService(g29, gamma=2, seed=0).submit(BallCollect(2))
        assert response.outputs == run_direct(g29, BallCollect(2), 0).outputs
        metered = build_spanner_distributed(g29, theorem3_params(2, seed=0))
        assert response.spanner == metered
        assert response.construction_messages_paid == metered.messages.total == 72
        assert response.spanner.rounds == 170

    def test_repaired_response_is_priced_at_a_metered_rebuild(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        child, _ = service.apply_churn(churn_plan())
        response = service.submit(BallCollect(2))
        assert response.spanner_info.source == "repaired"
        assert response.spanner.messages is None
        assert response.construction_messages_paid == 0
        metered = build_spanner_distributed(child, PARAMS).messages.total
        assert response.construction_messages_priced == metered

    def test_stale_response_prices_the_ancestor_it_serves(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        plan = churn_plan(seed=41, epochs=2)
        child, _ = service.apply_churn(plan, 0)
        service.submit(BallCollect(2))  # repaired: child is now cached
        service.apply_churn(plan, 1)
        stale = service.submit(
            SimulationRequest(algo=BallCollect(2), allow_stale=True)
        )
        assert stale.spanner_info.source == "stale"
        metered = build_spanner_distributed(child, PARAMS).messages.total
        assert stale.construction_messages_priced == metered
        assert stale.construction_messages_paid == 0


class TestResilientServing:
    """Graceful degradation under churn and cache loss (DESIGN.md §3.9)."""

    def test_churned_default_graph_is_repaired_not_rebuilt(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))  # cold: caches the parent spanner
        child, log = service.apply_churn(churn_plan())
        assert not log.is_noop
        response = service.submit(BallCollect(2))
        assert response.spanner_info.source == "repaired"
        assert not response.cold
        assert response.construction_messages_paid == 0
        assert response.summary().startswith("repaired serve")
        # bit-identical to a fresh end-to-end run on the mutated graph
        fresh = run_one_stage(child, BallCollect(2), params=PARAMS, seed=5)
        assert response.outputs == fresh.outputs
        assert response.simulation == fresh.simulation
        assert response.spanner.edges == fresh.spanner.edges
        metrics = service.metrics
        assert metrics.repairs == 1 and metrics.rebuilds == 0
        # the repaired artifact is a first-class cache entry afterwards
        warm = service.submit(BallCollect(2))
        assert warm.spanner_info.hit
        assert metrics.repairs == 1

    def test_multi_epoch_gap_is_repaired_in_one_walk(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        plan = churn_plan(seed=31, epochs=3)
        for epoch in range(3):  # three unserved epochs pile up
            child, _ = service.apply_churn(plan, epoch)
        response = service.submit(BallCollect(2))
        assert response.spanner_info.source == "repaired"
        fresh = run_one_stage(child, BallCollect(2), params=PARAMS, seed=5)
        assert response.outputs == fresh.outputs
        assert response.simulation == fresh.simulation
        # one repair call, however many epochs it walked: one ancestor
        assert response.spanner.provenance == (net.fingerprint(),)
        assert service.metrics.repairs == 1

    def test_stale_request_is_served_from_the_ancestor(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        plan = churn_plan(seed=41, epochs=2)
        child, _ = service.apply_churn(plan, 0)
        service.submit(BallCollect(2))  # repaired: child is now cached
        service.apply_churn(plan, 1)  # grandchild — never served
        stale = service.submit(
            SimulationRequest(algo=BallCollect(2), allow_stale=True)
        )
        assert stale.spanner_info.source == "stale"
        assert stale.summary().startswith("stale serve")
        # the answer describes the cached ancestor's (pre-churn) graph
        fresh = run_one_stage(child, BallCollect(2), params=PARAMS, seed=5)
        assert stale.outputs == fresh.outputs
        assert stale.simulation == fresh.simulation
        metrics = service.metrics
        assert metrics.stale_served == 1 and metrics.repairs == 1
        # without the flag the same request repairs instead
        exact = service.submit(BallCollect(2))
        assert exact.spanner_info.source == "repaired"
        assert metrics.stale_served == 1 and metrics.repairs == 2

    def test_lineage_keeps_only_the_walkable_epochs(self, net):
        """Each lineage entry pins a whole parent graph, so the service
        keeps the newest ``_LINEAGE_DEPTH_CAP`` epochs, however long it
        churns; a request every few epochs still repairs."""
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        plan = churn_plan(seed=71, epochs=48)
        sources = []
        for epoch in range(48):
            child, _ = service.apply_churn(plan, epoch)
            if epoch % 5 == 4:
                response = service.submit(BallCollect(2))
                sources.append(response.spanner_info.source)
        assert len(service._lineage) == _LINEAGE_DEPTH_CAP == 16
        assert sources == ["repaired"] * 9
        fresh = run_one_stage(child, BallCollect(2), params=PARAMS, seed=5)
        assert service.submit(BallCollect(2)).outputs == fresh.outputs

    def test_record_churn_validates_the_parent(self, net):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        child, log = apply_churn(net, churn_plan(seed=51), 0)
        stranger = erdos_renyi(60, 0.12, seed=99)
        with pytest.raises(ValueError, match="does not describe"):
            service.record_churn(stranger, log)
        service.record_churn(net, log)  # externally applied churn
        response = service.submit(SimulationRequest(algo=BallCollect(2), network=child))
        assert response.spanner_info.source == "repaired"

    def test_repair_failure_degrades_to_a_counted_rebuild(self, net, monkeypatch):
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        child, _ = service.apply_churn(churn_plan(seed=61))

        def refused(*args, **kwargs):
            raise ConfigurationError("mutation chain does not connect")

        monkeypatch.setattr("repro.service.service.repair_spanner", refused)
        previous = obs.set_enabled(True)
        obs.collector().reset()
        try:
            response = service.submit(BallCollect(2))  # never crashes
            events = [
                r for r in obs.collector().finished()
                if r["name"] == "service/repair_failed"
            ]
        finally:
            obs.collector().reset()
            obs.set_enabled(previous)
        assert response.spanner_info.source == "built"
        assert service.metrics.rebuilds == 1
        assert [e["attrs"]["error"] for e in events] == ["ConfigurationError"]
        fresh = run_one_stage(child, BallCollect(2), params=PARAMS, seed=5)
        assert response.report == fresh

    @pytest.mark.parametrize("error", [RuntimeError, SimulationError])
    def test_a_bug_in_repair_propagates(self, net, monkeypatch, error):
        """Only a refused lineage (ConfigurationError) degrades to a
        rebuild; a bug inside repair must not become a silent, counted
        rebuild.  Repair runs the level kernel in-process, so a
        SimulationError there is a misuse of ``SamplerRun`` too."""
        service = SimulationService(net, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        service.apply_churn(churn_plan(seed=61))

        def boom(*args, **kwargs):
            raise error("repair machinery down")

        monkeypatch.setattr("repro.service.service.repair_spanner", boom)
        with pytest.raises(error, match="machinery down"):
            service.submit(BallCollect(2))
        assert service.metrics.rebuilds == 0

    def test_cache_loss_on_a_served_graph_counts_as_rebuild(self, net, tmp_path):
        store = ArtifactStore(tmp_path)
        service = SimulationService(net, store=store, params=PARAMS, seed=5)
        cold = service.submit(BallCollect(2))
        for name in os.listdir(tmp_path):  # disk rots under the service
            (tmp_path / name).write_bytes(b"\x00rot\x00")
        store.clear_memory()
        again = service.submit(BallCollect(2))
        assert again.report == cold.report  # served, not crashed
        assert again.spanner_info.source == "built"
        assert service.metrics.rebuilds == 1
        # first contact was a cold serve, not a rebuild
        assert service.metrics.cold_serves == 2

    def test_transient_disk_errors_are_retried_and_surfaced(self, net, tmp_path, monkeypatch):
        from repro.store import serialize

        store = ArtifactStore(tmp_path)
        service = SimulationService(net, store=store, params=PARAMS, seed=5)
        service.submit(BallCollect(2))
        store.clear_memory()
        real = serialize.load_spanner
        state = {"failures": 1}

        def flaky(path, network):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise OSError("transient I/O glitch")
            return real(path, network)

        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        warm = service.submit(BallCollect(2))
        assert warm.spanner_info.source == "disk"
        assert store.stats.retries == 1
