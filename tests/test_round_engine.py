"""The array-native round engine contract (DESIGN.md §3.10).

One pillar, checked from many directions: ``round_engine="vector"`` and
``round_engine="reference"`` produce identical
:class:`~repro.local.metrics.RunReport`s — outputs, rounds, ``halted``,
``total``/``by_tag``/``per_round``/``dropped``/``corrupted`` — for every
shipped population (flood, gossip, registered LOCAL algorithms, and the
hybrid-plane ``Sampler``), across graph families × seeds × fault plans
(drops *and* corruption) × ``fixed_rounds`` × both reference
schedulers.  Hypothesis drives the same assertions over random dense
multigraph-free networks so hand-picked cases are not the only
witnesses.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.algorithms import (
    BallCollect,
    BfsLayers,
    LubyMis,
    MinIdAggregation,
    RandomMatching,
    RandomizedColoring,
    run_direct,
    run_inprocess,
)
from repro.algorithms.vector import vector_population
from repro.baselines import BaswanaSenLocal
from repro.core import SamplerParams
from repro.core.distributed import build_spanner_distributed
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.dynamic import ChurnPlan, apply_churn
from repro.errors import ProtocolError
from repro.execution import Exec
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.local import FaultPlan, Network
from repro.local.engine import VectorRuntime
from repro.local.runtime import run_program
from repro.simulate import t_local_broadcast
from repro.simulate.gossip import PushPullGossip, _VectorGossip, run_push_pull

FAMILIES = {
    "gnp": lambda: erdos_renyi(60, 0.12, seed=5),
    "torus": lambda: torus(8, 8),
    "ba": lambda: barabasi_albert(64, 2, seed=7),
}
SEEDS = (0, 1, 2)
PLANS = {
    "none": None,
    "drops": FaultPlan(drop_probability=0.05, seed=13),
    "corrupt": FaultPlan(corrupt_probability=0.06, seed=13),
    "both": FaultPlan(drop_probability=0.04, corrupt_probability=0.05, seed=29),
}
ALGORITHMS = (
    BallCollect(2),
    BfsLayers(0, 3),
    LubyMis(2),
    MinIdAggregation(3),
    RandomMatching(1),
    RandomizedColoring(2),
    LubyMis(),
    RandomMatching(4),
)
ALGORITHM_IDS = (
    "ball-collect",
    "bfs-layers",
    "luby-mis",
    "min-id",
    "rand-matching",
    "rand-coloring",
    "luby-mis-default",
    "rand-matching-4",
)
# t = 0: step 0 runs, nothing is sent, every node halts in round 0.
ZERO_ROUND_ALGORITHMS = (
    BallCollect(0),
    BfsLayers(0, 0),
    LubyMis(0),
    MinIdAggregation(0),
    RandomMatching(0),
    RandomizedColoring(0),
)
DROP_PLANS = ("none", "drops")

_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_reports_equal(vec, ref):
    assert vec.halted == ref.halted
    assert_outcomes_equal(vec, ref)


def assert_outcomes_equal(vec, ref):
    """Equal outputs, rounds and message metering (RunReport or DirectOutcome)."""
    assert vec.outputs == ref.outputs
    assert vec.rounds == ref.rounds
    assert vec.messages.total == ref.messages.total
    assert vec.messages.by_tag == ref.messages.by_tag
    assert vec.messages.per_round == ref.messages.per_round
    assert vec.messages.dropped == ref.messages.dropped
    assert vec.messages.corrupted == ref.messages.corrupted


def assert_engines_agree(net, algo, seed=1, faults=None):
    vec = run_direct(
        net, algo, seed=seed, execution=Exec(round_engine="vector"), faults=faults
    )
    ref = run_direct(
        net, algo, seed=seed, execution=Exec(round_engine="reference"), faults=faults
    )
    assert_outcomes_equal(vec, ref)


def run_gossip(net: Network, rounds: int, seed: int, faults, engine: str):
    """Full-RunReport gossip run (run_push_pull only reports coverage)."""
    if engine == "vector":
        return VectorRuntime(
            net,
            _VectorGossip(net, seed),
            fixed_rounds=rounds,
            max_rounds=rounds + 1,
            faults=faults,
        ).run()
    return run_program(
        net,
        lambda node: PushPullGossip(node),
        seed=seed,
        fixed_rounds=rounds,
        max_rounds=rounds + 1,
        faults=faults,
    )


@st.composite
def small_network(draw) -> Network:
    n = draw(st.integers(min_value=4, max_value=36))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=max(0, n - 4), max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return dense_gnm(n, m, seed=seed)


# ---------------------------------------------------------------------------
# flood population
# ---------------------------------------------------------------------------
class TestFloodEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_runtime_flood_identical(self, family, plan):
        net = FAMILIES[family]()
        reports = {
            engine: t_local_broadcast(
                net,
                payload_of=lambda v: ("ball", v),
                radius=3,
                execution=Exec(flood_engine="runtime", round_engine=engine),
                faults=PLANS[plan],
            )
            for engine in ("vector", "reference")
        }
        vec, ref = reports["vector"], reports["reference"]
        assert vec.collected == ref.collected
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.by_tag == ref.messages.by_tag
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.dropped == ref.messages.dropped
        assert vec.messages.corrupted == ref.messages.corrupted

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    def test_against_both_reference_schedulers(self, scheduler):
        net = FAMILIES["gnp"]()
        vec = t_local_broadcast(
            net,
            lambda v: (v,),
            radius=2,
            execution=Exec(flood_engine="runtime", round_engine="vector"),
        )
        ref = t_local_broadcast(
            net,
            lambda v: (v,),
            radius=2,
            execution=Exec(
                flood_engine="runtime", round_engine="reference", scheduler=scheduler
            ),
        )
        assert vec.collected == ref.collected
        assert vec.messages.per_round == ref.messages.per_round

    def test_isolated_nodes(self):
        # Nodes 4..6 have no ports: the vector population must report
        # the same singleton balls and round count the reference does.
        net = Network.from_edge_pairs(7, [(0, 1), (1, 2), (2, 3)])
        reports = [
            t_local_broadcast(
                net,
                lambda v: v,
                radius=2,
                execution=Exec(flood_engine="runtime", round_engine=engine),
            )
            for engine in ("vector", "reference")
        ]
        assert reports[0].collected == reports[1].collected
        assert reports[0].rounds == reports[1].rounds

    @_SETTINGS
    @given(
        net=small_network(),
        radius=st.integers(min_value=0, max_value=4),
        plan=st.sampled_from(sorted(PLANS)),
    )
    def test_property_flood(self, net: Network, radius: int, plan: str):
        reports = [
            t_local_broadcast(
                net,
                payload_of=lambda v: (v, v * v),
                radius=radius,
                execution=Exec(flood_engine="runtime", round_engine=engine),
                faults=PLANS[plan],
            )
            for engine in ("vector", "reference")
        ]
        assert reports[0].collected == reports[1].collected
        assert reports[0].messages.per_round == reports[1].messages.per_round
        assert reports[0].messages.dropped == reports[1].messages.dropped
        assert reports[0].messages.corrupted == reports[1].messages.corrupted


# ---------------------------------------------------------------------------
# gossip population
# ---------------------------------------------------------------------------
class TestGossipEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_full_runreport_identical(self, family, plan):
        net = FAMILIES[family]()
        vec = run_gossip(net, rounds=5, seed=3, faults=PLANS[plan], engine="vector")
        ref = run_gossip(net, rounds=5, seed=3, faults=PLANS[plan], engine="reference")
        assert_reports_equal(vec, ref)

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coverage_report_identical(self, scheduler, seed):
        net = FAMILIES["ba"]()
        vec = run_push_pull(
            net, rounds=6, t=2, seed=seed, execution=Exec(round_engine="vector")
        )
        ref = run_push_pull(
            net,
            rounds=6,
            t=2,
            seed=seed,
            execution=Exec(round_engine="reference", scheduler=scheduler),
        )
        assert vec.coverage == ref.coverage
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.per_round == ref.messages.per_round

    def test_isolated_nodes(self):
        # An isolated node halts reactively on both engines (it can
        # neither push nor be pulled from) and outputs its own id.
        net = Network.from_edge_pairs(5, [(0, 1), (1, 2)])
        vec = run_gossip(net, rounds=4, seed=1, faults=None, engine="vector")
        ref = run_gossip(net, rounds=4, seed=1, faults=None, engine="reference")
        assert_reports_equal(vec, ref)
        assert vec.outputs[4] == frozenset({4})

    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=1000),
        rounds=st.integers(min_value=0, max_value=6),
        plan=st.sampled_from(sorted(PLANS)),
    )
    def test_property_gossip(self, net: Network, seed: int, rounds: int, plan: str):
        vec = run_gossip(net, rounds, seed, PLANS[plan], "vector")
        ref = run_gossip(net, rounds, seed, PLANS[plan], "reference")
        assert_reports_equal(vec, ref)


# ---------------------------------------------------------------------------
# registered LOCAL algorithm populations
# ---------------------------------------------------------------------------
class TestAlgorithmEngine:
    def test_every_algorithm_has_a_population(self):
        net = FAMILIES["gnp"]()
        for algo in ALGORITHMS + ZERO_ROUND_ALGORITHMS:
            assert vector_population(algo, net, 0) is not None, algo.name

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=ALGORITHM_IDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_run_direct_identical(self, algo, seed):
        net = FAMILIES["gnp"]()
        vec = run_direct(net, algo, seed=seed, execution=Exec(round_engine="vector"))
        ref = run_direct(net, algo, seed=seed, execution=Exec(round_engine="reference"))
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.by_tag == ref.messages.by_tag
        assert vec.messages.per_round == ref.messages.per_round

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=ALGORITHM_IDS)
    def test_run_direct_under_drops(self, algo):
        net = FAMILIES["torus"]()
        plan = PLANS["drops"]
        vec = run_direct(
            net, algo, seed=1, execution=Exec(round_engine="vector"), faults=plan
        )
        ref = run_direct(
            net, algo, seed=1, execution=Exec(round_engine="reference"), faults=plan
        )
        assert vec.outputs == ref.outputs
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.dropped == ref.messages.dropped

    def test_corrupt_plans_fall_back_identically(self):
        # Corrupt-capable plans route the vector engine to the reference
        # interpreter (tampered payloads are defined per node program).
        # Pure LOCAL algorithms define no corrupted-payload handling —
        # they fail — so the engine contract here is *identical
        # failure*: same exception type, same message.
        net = FAMILIES["gnp"]()
        plan = PLANS["both"]

        def run(engine):
            return run_direct(
                net,
                MinIdAggregation(3),
                seed=2,
                execution=Exec(round_engine=engine),
                faults=plan,
            )

        outcomes = {}
        for engine in ("vector", "reference"):
            try:
                outcomes[engine] = ("ok", run(engine))
            except Exception as exc:  # noqa: BLE001 - comparing verbatim
                outcomes[engine] = ("raised", type(exc), str(exc))
        if outcomes["vector"][0] == "ok":
            vec, ref = outcomes["vector"][1], outcomes["reference"][1]
            assert vec.outputs == ref.outputs
            assert vec.messages.per_round == ref.messages.per_round
            assert vec.messages.corrupted == ref.messages.corrupted
        else:
            assert outcomes["vector"] == outcomes["reference"]

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=ALGORITHM_IDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", DROP_PLANS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_matrix_identical(self, algo, family, plan, seed):
        assert_engines_agree(FAMILIES[family](), algo, seed, PLANS[plan])

    def test_isolated_nodes(self):
        # Nodes 2, 3 and 6 have no ports; a portless network closes the test.
        net = Network.from_edge_pairs(7, [(0, 1), (1, 5), (4, 5)])
        for algo in ALGORITHMS + ZERO_ROUND_ALGORITHMS:
            for seed in SEEDS:
                assert_engines_agree(net, algo, seed)
        assert_engines_agree(Network(3, []), LubyMis(2))

    @pytest.mark.parametrize("algo", ZERO_ROUND_ALGORITHMS, ids=lambda a: a.name)
    def test_zero_rounds(self, algo):
        net = FAMILIES["ba"]()
        vec = run_direct(net, algo, seed=2, execution=Exec(round_engine="vector"))
        ref = run_direct(net, algo, seed=2, execution=Exec(round_engine="reference"))
        assert_outcomes_equal(vec, ref)
        assert vec.rounds == 0 and vec.messages.total == 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_inprocess_identical(self, family):
        net = FAMILIES[family]()
        for algo in ALGORITHMS + ZERO_ROUND_ALGORITHMS:
            for seed in SEEDS:
                vec = run_inprocess(
                    net, algo, seed, execution=Exec(round_engine="vector")
                )
                ref = run_inprocess(
                    net, algo, seed, execution=Exec(round_engine="reference")
                )
                assert vec == ref, (algo.name, seed)

    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=1000),
        index=st.integers(min_value=0, max_value=len(ALGORITHMS) - 1),
    )
    def test_property_run_direct(self, net: Network, seed: int, index: int):
        algo = ALGORITHMS[index]
        vec = run_direct(net, algo, seed=seed, execution=Exec(round_engine="vector"))
        ref = run_direct(net, algo, seed=seed, execution=Exec(round_engine="reference"))
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.per_round == ref.messages.per_round


# ---------------------------------------------------------------------------
# announced fallbacks
# ---------------------------------------------------------------------------
@pytest.fixture
def obs_on():
    previous = obs.set_enabled(True)
    obs.collector().reset()
    yield
    obs.collector().reset()
    obs.set_enabled(previous)


def fallback_events():
    return [
        record["attrs"]
        for record in obs.collector().finished()
        if record["name"] == "algorithms/reference_fallback"
    ]


class TestReferenceFallback:
    def test_unregistered_algorithm_announced_once(self, obs_on):
        net = FAMILIES["gnp"]()
        run_inprocess(
            net, BaswanaSenLocal(2), seed=1, execution=Exec(round_engine="vector")
        )
        assert fallback_events() == [{"algo": "baswana-sen", "reason": "unregistered"}]

    def test_library_algorithms_announce_nothing(self, obs_on):
        net = FAMILIES["gnp"]()
        for algo in ALGORITHMS:
            run_direct(net, algo, seed=1, execution=Exec(round_engine="vector"))
            run_inprocess(net, algo, seed=1, execution=Exec(round_engine="vector"))
        assert fallback_events() == []

    def test_corrupt_plan_announced(self, obs_on):
        net = FAMILIES["torus"]()
        plan = FaultPlan(corrupt_probability=0.05, seed=3)
        out = run_direct(
            net,
            RandomMatching(2),
            seed=1,
            execution=Exec(round_engine="vector"),
            faults=plan,
        )
        assert out.messages.corrupted > 0
        assert fallback_events() == [
            {"algo": "rand-matching", "reason": "corrupt_plan"}
        ]

    def test_reference_engine_announces_nothing(self, obs_on):
        net = FAMILIES["gnp"]()
        run_inprocess(
            net, BaswanaSenLocal(2), seed=1, execution=Exec(round_engine="reference")
        )
        assert fallback_events() == []


# ---------------------------------------------------------------------------
# the two delivery paths
# ---------------------------------------------------------------------------
class TestDeliveryPaths:
    """Consecutive eids and n <= 2**16 take the fast delivery path; the
    inputs below keep the searchsorted lookup or the int64 sort."""

    def test_non_consecutive_eids(self):
        base = erdos_renyi(80, 0.1, seed=2)
        net, _ = apply_churn(
            base, ChurnPlan(seed=3, edge_removal=0.1, edge_addition=0.05)
        )
        assert net.endpoints_flat()[0] is not None  # ids have gaps
        population = vector_population(MinIdAggregation(2), net, 0)
        assert VectorRuntime(net, population)._eid_sorted is not None
        for algo in ALGORITHMS:
            for plan in DROP_PLANS:
                assert_engines_agree(net, algo, seed=4, faults=PLANS[plan])

    def test_more_nodes_than_uint16(self):
        n = (1 << 16) + 5
        rng = random.Random(11)
        pairs = {(rng.randrange(n // 2), rng.randrange(n // 2, n)) for _ in range(600)}
        # Receivers at or above 2**16 would wrap under a uint16 key.
        top = range(1 << 16, n)
        pairs |= {(v - 1, v) for v in top} | {(7, v) for v in top}
        net = Network.from_edge_pairs(n, sorted(pairs))
        population = vector_population(MinIdAggregation(2), net, 0)
        assert VectorRuntime(net, population)._receiver_dtype is np.int64
        assert_engines_agree(net, MinIdAggregation(2), seed=1)


# ---------------------------------------------------------------------------
# the Sampler's hybrid planes
# ---------------------------------------------------------------------------
class TestSamplerEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spanner_results_identical(self, family):
        net = FAMILIES[family]()
        params = SamplerParams(k=1, h=3, seed=11, c_query=0.7, c_target=1.0)
        vec = build_spanner_distributed(
            net, params, execution=Exec(round_engine="vector")
        )
        ref = build_spanner_distributed(
            net, params, execution=Exec(round_engine="reference")
        )
        assert vec.edges == ref.edges
        assert vec.rounds == ref.rounds
        assert vec.trace.signature() == ref.trace.signature()
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.by_tag == ref.messages.by_tag

    def test_vector_engine_vs_dense_scheduler(self):
        net = FAMILIES["gnp"]()
        params = SamplerParams(k=2, h=2, seed=7)
        vec = build_spanner_distributed(
            net, params, execution=Exec(round_engine="vector")
        )
        dense = build_spanner_distributed(
            net, params, execution=Exec(scheduler="dense")
        )
        assert vec.edges == dense.edges
        assert vec.trace.signature() == dense.trace.signature()
        assert vec.messages.per_round == dense.messages.per_round

    @pytest.mark.parametrize("drop_seed", (9, 17, 23))
    def test_stranded_faults_agree(self, drop_seed):
        # Dropped broadcasts can strand convergecasts mid-protocol; the
        # two engines must then fail identically (same ProtocolError
        # text) or succeed with identical reports.
        net = erdos_renyi(48, 0.1, seed=2)
        plan = FaultPlan(drop_probability=0.02, seed=drop_seed)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(engine):
            return run_program(
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
                execution=Exec(round_engine=engine),
            )

        try:
            ref = run("reference")
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as vec_exc:
                run("vector")
            assert str(vec_exc.value) == str(exc)
            return
        vec = run("vector")
        assert_reports_equal(vec, ref)

    def test_corruption_disables_planes_not_equality(self):
        # can_corrupt plans keep every message on the per-node dispatch
        # path (hybrid planes are delivery-time absorption and cannot
        # express tampered payloads), so the engine switch must stay
        # behaviour-invariant — here, identical reports or identical
        # failure, since the Sampler defines no corrupted-payload
        # handling and faults on a handshake tag blow up the protocol.
        net = FAMILIES["torus"]()
        plan = FaultPlan(corrupt_probability=0.03, seed=5)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(engine):
            return run_program(
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
                execution=Exec(round_engine=engine),
            )

        outcomes = {}
        for engine in ("vector", "reference"):
            try:
                outcomes[engine] = ("ok", run(engine))
            except Exception as exc:  # noqa: BLE001 - comparing verbatim
                outcomes[engine] = ("raised", type(exc), str(exc))
        if outcomes["vector"][0] == "ok":
            assert_reports_equal(outcomes["vector"][1], outcomes["reference"][1])
        else:
            assert outcomes["vector"] == outcomes["reference"]
