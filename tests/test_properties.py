"""Property-based tests (hypothesis) on the core invariants.

These cover the parts of the system where hand-picked cases are weakest:
random graphs x random seeds for the spanner guarantees and random
multigraph neighborhoods for the trial machine.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.stretch import adjacent_pair_stretch
from repro.core import SamplerParams, build_spanner
from repro.core.distributed.schedule import PhaseKind, Schedule
from repro.core.trials import NodeLabel, QueryResult, TrialMachine
from repro.graphs import dense_gnm
from repro.local import FaultPlan
from repro.local.network import Network
from repro.local.runtime import run_program
from repro.rng import RngFactory
from repro.simulate import runtime_flood
from reference_runtime import FloodProgram, dense_program

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------
@st.composite
def small_network(draw) -> Network:
    n = draw(st.integers(min_value=4, max_value=40))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=n - 1, max_value=max_m))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return dense_gnm(n, m, seed=seed)


@st.composite
def neighborhood(draw):
    """A multigraph neighborhood: neighbor id -> bundle of edge ids."""
    n_neighbors = draw(st.integers(min_value=0, max_value=12))
    bundles: dict[int, tuple[int, ...]] = {}
    next_eid = 0
    for i in range(n_neighbors):
        mult = draw(st.integers(min_value=1, max_value=30))
        bundles[i + 1] = tuple(range(next_eid, next_eid + mult))
        next_eid += mult
    return bundles


# ---------------------------------------------------------------------------
# spanner invariants
# ---------------------------------------------------------------------------
class TestSpannerProperties:
    @_SETTINGS
    @given(net=small_network(), seed=st.integers(min_value=0, max_value=1000))
    def test_spanner_invariants(self, net: Network, seed: int):
        params = SamplerParams(k=1, h=2, seed=seed)
        result = build_spanner(net, params)
        assert result.edges <= set(net.edge_ids)
        report = adjacent_pair_stretch(net, result.edges)
        assert report.unreachable_pairs == 0
        assert report.max_stretch <= result.stretch_bound

    @_SETTINGS
    @given(net=small_network(), seed=st.integers(min_value=0, max_value=1000))
    def test_k2_spanner_invariants(self, net: Network, seed: int):
        params = SamplerParams(k=2, h=1, seed=seed, c_query=0.6, c_target=0.8)
        result = build_spanner(net, params)
        report = adjacent_pair_stretch(net, result.edges)
        assert report.unreachable_pairs == 0
        assert report.max_stretch <= result.stretch_bound
        # populations never grow level over level
        pops = result.trace.populations
        assert all(a >= b for a, b in zip(pops, pops[1:]))


# ---------------------------------------------------------------------------
# trial machine invariants
# ---------------------------------------------------------------------------
class TestTrialMachineProperties:
    @_SETTINGS
    @given(bundles=neighborhood(), seed=st.integers(min_value=0, max_value=500))
    def test_machine_terminates_with_consistent_state(self, bundles, seed):
        edges = sorted(e for bundle in bundles.values() for e in bundle)
        neighbor_of = {e: nbr for nbr, bundle in bundles.items() for e in bundle}
        params = SamplerParams(k=1, h=2, c_query=0.15, c_target=0.5, seed=seed)
        machine = TrialMachine(
            vid=0,
            level=0,
            incident_edges=edges,
            params=params,
            n=256,
            rng=random.Random(seed),
        )
        pool_sizes = [machine.pool_size]
        while machine.wants_trial():
            queried = machine.begin_trial()
            assert queried == sorted(set(queried))
            assert set(queried) <= set(edges)
            machine.deliver(
                [
                    QueryResult(
                        eid=eid,
                        neighbor=neighbor_of[eid],
                        neighbor_edges=bundles[neighbor_of[eid]],
                    )
                    for eid in queried
                ]
            )
            pool_sizes.append(machine.pool_size)
        # pool shrinks monotonically
        assert all(a >= b for a, b in zip(pool_sizes, pool_sizes[1:]))
        # one F edge per discovered neighbor, each from the right bundle
        for nbr, eid in machine.f_active.items():
            assert eid in bundles[nbr]
        # terminal label is consistent with the machine state
        label = machine.label
        if label is NodeLabel.LIGHT:
            assert machine.pool_size == 0
            assert set(machine.f_active) == set(bundles)
        elif label is NodeLabel.HEAVY:
            assert len(machine.f_active) >= machine.target
        else:
            assert machine.trials_run == params.trials

    @_SETTINGS
    @given(bundles=neighborhood(), seed=st.integers(min_value=0, max_value=500))
    def test_machine_is_deterministic(self, bundles, seed):
        def run():
            edges = sorted(e for bundle in bundles.values() for e in bundle)
            neighbor_of = {e: n for n, b in bundles.items() for e in b}
            params = SamplerParams(k=1, h=1, c_query=0.2, c_target=0.5, seed=seed)
            machine = TrialMachine(
                vid=3, level=0, incident_edges=edges, params=params, n=128,
                rng=RngFactory(seed).stream("trials", 0, 3),
            )
            while machine.wants_trial():
                queried = machine.begin_trial()
                machine.deliver(
                    [
                        QueryResult(e, neighbor_of[e], bundles[neighbor_of[e]])
                        for e in queried
                    ]
                )
            return machine.f_active, machine.label

        assert run() == run()


# ---------------------------------------------------------------------------
# schedule lookup and wake-round helpers
# ---------------------------------------------------------------------------
@st.composite
def sampler_params(draw) -> SamplerParams:
    k = draw(st.integers(min_value=1, max_value=3))
    h = draw(st.integers(min_value=1, max_value=5))
    return SamplerParams(k=k, h=h, seed=draw(st.integers(0, 100)))


class TestScheduleProperties:
    @_SETTINGS
    @given(params=sampler_params())
    def test_phases_partition_the_round_range(self, params):
        schedule = Schedule.build(params)
        phases = schedule.phases
        assert phases[0].start == 1
        assert phases[-1].end == schedule.total_rounds
        for prev, nxt in zip(phases, phases[1:]):
            assert prev.end + 1 == nxt.start
        # the closed-form O(3^k h) bound
        assert schedule.total_rounds <= 30 * 3**params.k * (params.h + 1) + 30

    @_SETTINGS
    @given(params=sampler_params(), data=st.data())
    def test_phase_at_round_trip(self, params, data):
        schedule = Schedule.build(params)
        round_index = data.draw(
            st.integers(min_value=1, max_value=schedule.total_rounds)
        )
        phase, rel = schedule.phase_at(round_index)
        assert phase.start <= round_index <= phase.end
        assert rel == round_index - phase.start
        assert 0 <= rel < phase.length

    @_SETTINGS
    @given(params=sampler_params(), data=st.data())
    def test_phase_at_rejects_out_of_range(self, params, data):
        schedule = Schedule.build(params)
        bad = data.draw(
            st.one_of(
                st.integers(max_value=0),
                st.integers(min_value=schedule.total_rounds + 1,
                            max_value=schedule.total_rounds + 1000),
            )
        )
        try:
            schedule.phase_at(bad)
        except ValueError:
            pass
        else:  # pragma: no cover - property violation
            raise AssertionError("phase_at accepted an out-of-range round")

    @_SETTINGS
    @given(params=sampler_params())
    def test_start_of_agrees_with_phase_list(self, params):
        schedule = Schedule.build(params)
        for phase in schedule.phases:
            assert schedule.start_of(phase.kind, phase.level, phase.trial) == phase.start
        try:
            schedule.start_of(PhaseKind.STATUS, params.k)
        except ValueError:
            pass  # STATUS is skipped at the final level, as documented
        else:  # pragma: no cover - property violation
            raise AssertionError("start_of found a STATUS phase at level k")

    @_SETTINGS
    @given(params=sampler_params())
    def test_wake_helpers_are_consistent(self, params):
        schedule = Schedule.build(params)
        starts = {phase.start for phase in schedule.phases}
        skeleton = schedule.skeleton_wake_rounds()
        assert list(skeleton) == sorted(skeleton)
        assert set(skeleton) <= starts
        skeleton_kinds = {PhaseKind.GATHER, PhaseKind.CAND, PhaseKind.END}
        expected = sorted(
            p.start for p in schedule.phases if p.kind in skeleton_kinds
        )
        assert list(skeleton) == expected
        for level in range(params.levels):
            leader = schedule.leader_wake_rounds(level)
            assert list(leader) == sorted(leader)
            assert set(leader) <= starts
            leader_kinds = {PhaseKind.SCATTER, PhaseKind.STATUS, PhaseKind.JOIN}
            assert list(leader) == sorted(
                p.start
                for p in schedule.phases
                if p.level == level and p.kind in leader_kinds
            )


# ---------------------------------------------------------------------------
# the runtime and the dense loop under random faults and budgets
# ---------------------------------------------------------------------------
class TestSchedulerEquivalenceProperties:
    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=100),
        radius=st.integers(min_value=0, max_value=5),
        drop=st.floats(min_value=0.0, max_value=0.4),
        corrupt=st.floats(min_value=0.0, max_value=0.4),
        drop_seed=st.integers(min_value=0, max_value=50),
    )
    def test_flood_reports_identical_across_schedulers(
        self, net, seed, radius, drop, corrupt, drop_seed
    ):
        plan = FaultPlan(
            drop_probability=drop, corrupt_probability=corrupt, seed=drop_seed
        )

        def run(loop):
            return loop(
                net,
                lambda node: FloodProgram(node, node, radius),
                seed=seed,
                fixed_rounds=radius,
                max_rounds=radius + 1,
                faults=plan,
            )

        dense = run(dense_program)
        active = run(run_program)
        assert dense.outputs == active.outputs
        assert dense.rounds == active.rounds
        assert dense.halted == active.halted
        population = runtime_flood(net, lambda v: v, radius, faults=plan)
        assert population.collected == dense.outputs
        assert population.rounds == dense.rounds
        for side in (active.messages, population.messages):
            assert side.total == dense.messages.total
            assert side.dropped == dense.messages.dropped
            assert side.corrupted == dense.messages.corrupted
            assert side.per_round == dense.messages.per_round
            assert side.by_tag == dense.messages.by_tag
