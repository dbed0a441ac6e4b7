"""The array-native round engine contract (DESIGN.md §3.10).

One pillar, checked from many directions: the vector populations, and
the runtime's hybrid planes, produce the
:class:`~repro.local.metrics.RunReport`s of the per-node oracles in
``tests/reference_runtime.py`` — outputs, rounds, ``halted``,
``total``/``by_tag``/``per_round``/``dropped``/``corrupted`` — for every
shipped population (flood, gossip, registered LOCAL algorithms, and the
hybrid-plane ``Sampler``), across graph families × seeds × fault plans
(drops *and* corruption) × ``fixed_rounds``, the per-node programs run
on the dense loop and, where a parameter names the ``"active"``
scheduler, on the runtime.  Hypothesis drives the same assertions over
random dense multigraph-free networks so hand-picked cases are not the
only witnesses.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
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
from repro.algorithms.runner import _AlgorithmProgram
from repro.algorithms.vector import pick_free_colors, vector_population
from repro.baselines import BaswanaSenLocal
from repro.core import SamplerParams
from repro.core.distributed import build_spanner_distributed
from repro.core.distributed.program import SamplerProgram
from repro.core.distributed.schedule import Schedule
from repro.dynamic import ChurnPlan, apply_churn
from repro.errors import ProtocolError
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus
from repro.local import EdgeRef, FaultPlan, Network
from repro.local.engine import (
    VectorProgram,
    VectorRuntime,
    broadcast_outbox,
    delivery_plan,
    gather_segments,
)
from repro.local.runtime import Runtime, run_program
from repro.simulate import runtime_flood
from repro.simulate.gossip import _VectorGossip, run_push_pull
from reference_runtime import (
    dense_program,
    reference_direct,
    reference_engines,
    reference_flood,
    reference_gossip,
    reference_push_pull,
    unregistered,
)
from test_pricing import connected_atlas

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
RUN = {"active": run_program, "dense": dense_program}

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
    vec = run_direct(net, algo, seed=seed, faults=faults)
    ref = reference_direct(net, algo, seed=seed, faults=faults)
    assert_outcomes_equal(vec, ref)


def outcome(run):
    """``("ok", result)``, or ``("raised", type, text)`` when ``run`` raises."""
    try:
        return ("ok", run())
    except Exception as exc:  # noqa: BLE001 - comparing verbatim
        return ("raised", type(exc), str(exc))


def vector_gossip(net: Network, rounds: int, seed: int, faults):
    """Full-RunReport gossip run (run_push_pull only reports coverage)."""
    return VectorRuntime(
        net,
        _VectorGossip(net, seed),
        fixed_rounds=rounds,
        max_rounds=rounds + 1,
        faults=faults,
    ).run()



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
        vec = runtime_flood(
            net,
            payload_of=lambda v: ("ball", v),
            radius=3,
            faults=PLANS[plan],
        )
        ref = reference_flood(net, lambda v: ("ball", v), 3, faults=PLANS[plan])
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
        vec = runtime_flood(net, lambda v: (v,), radius=2)
        ref = reference_flood(net, lambda v: (v,), 2, run=RUN[scheduler])
        assert vec.collected == ref.collected
        assert vec.messages.per_round == ref.messages.per_round

    def test_isolated_nodes(self):
        # Nodes 4..6 have no ports: the vector population must report
        # the same singleton balls and round count the reference does.
        net = Network.from_edge_pairs(7, [(0, 1), (1, 2), (2, 3)])
        reports = [
            runtime_flood(net, lambda v: v, radius=2),
            reference_flood(net, lambda v: v, 2),
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
            runtime_flood(
                net,
                payload_of=lambda v: (v, v * v),
                radius=radius,
                faults=PLANS[plan],
            ),
            reference_flood(net, lambda v: (v, v * v), radius, faults=PLANS[plan]),
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
        vec = vector_gossip(net, rounds=5, seed=3, faults=PLANS[plan])
        ref = reference_gossip(net, rounds=5, seed=3, faults=PLANS[plan])
        assert_reports_equal(vec, ref)

    @pytest.mark.parametrize("scheduler", ("active", "dense"))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_coverage_report_identical(self, scheduler, seed):
        net = FAMILIES["ba"]()
        vec = run_push_pull(net, rounds=6, t=2, seed=seed)
        ref = reference_push_pull(net, rounds=6, t=2, seed=seed, run=RUN[scheduler])
        assert vec.coverage == ref.coverage
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.per_round == ref.messages.per_round

    def test_isolated_nodes(self):
        # An isolated node halts reactively on both engines (it can
        # neither push nor be pulled from) and outputs its own id.
        net = Network.from_edge_pairs(5, [(0, 1), (1, 2)])
        vec = vector_gossip(net, rounds=4, seed=1, faults=None)
        ref = reference_gossip(net, rounds=4, seed=1)
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
        vec = vector_gossip(net, rounds, seed, PLANS[plan])
        ref = reference_gossip(net, rounds, seed, PLANS[plan])
        assert_reports_equal(vec, ref)


# ---------------------------------------------------------------------------
# flood and gossip metering under corrupt plans
# ---------------------------------------------------------------------------
CORRUPT_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "corrupt_plan_metering.json").read_text()
)


def pinned(report, outputs) -> dict:
    """A report's counters, rounds and a digest of ``outputs`` (one
    sorted list per node), in the pin file's shape."""
    messages = report.messages
    rows = json.dumps(
        [sorted(outputs[v]) for v in range(len(outputs))], separators=(",", ":")
    )
    return {
        "by_tag": dict(messages.by_tag),
        "corrupted": messages.corrupted,
        "dropped": messages.dropped,
        "outputs_sha256": hashlib.sha256(rows.encode()).hexdigest(),
        "per_round": messages.per_round,
        "rounds": report.rounds,
        "total": messages.total,
    }


class TestCorruptPlanPins:
    """The runtime flood and push–pull gossip under corrupt plans report
    what they reported at commit a8e0f64, when a corrupted message was
    delivered as a sentinel that both populations skipped
    (``tests/data/corrupt_plan_metering.json``).  The equalities with
    the oracles cannot see a drift here: the engines and the oracles
    share the fault decision, so both sides would move together."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", ("corrupt", "both"))
    def test_runtime_flood(self, family, plan):
        net = FAMILIES[family]()
        for radius in (1, 2, 3):
            report = runtime_flood(net, lambda v: v, radius, faults=PLANS[plan])
            pin = CORRUPT_PINS[f"flood/{family}/{plan}/r{radius}"]
            assert pinned(report, report.collected) == pin, radius

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", ("corrupt", "both"))
    def test_push_pull_gossip(self, family, plan):
        net = FAMILIES[family]()
        report = vector_gossip(net, rounds=5, seed=3, faults=PLANS[plan])
        pin = CORRUPT_PINS[f"gossip/{family}/{plan}"]
        assert pinned(report, report.outputs) == pin
        assert report.messages.corrupted > 0


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
        vec = run_direct(net, algo, seed=seed)
        ref = reference_direct(net, algo, seed=seed)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.total == ref.messages.total
        assert vec.messages.by_tag == ref.messages.by_tag
        assert vec.messages.per_round == ref.messages.per_round

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=ALGORITHM_IDS)
    def test_run_direct_under_drops(self, algo):
        net = FAMILIES["torus"]()
        plan = PLANS["drops"]
        vec = run_direct(net, algo, seed=1, faults=plan)
        ref = reference_direct(net, algo, seed=1, faults=plan)
        assert vec.outputs == ref.outputs
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.dropped == ref.messages.dropped

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=ALGORITHM_IDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("plan", tuple(PLANS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_matrix_identical(self, algo, family, plan, seed):
        # Under corrupt plans too: an erased message reaches the
        # population no more than a dropped one does.
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
        vec = run_direct(net, algo, seed=2)
        ref = reference_direct(net, algo, seed=2)
        assert_outcomes_equal(vec, ref)
        assert vec.rounds == 0 and vec.messages.total == 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_run_inprocess_identical(self, family):
        net = FAMILIES[family]()
        for algo in ALGORITHMS + ZERO_ROUND_ALGORITHMS:
            for seed in SEEDS:
                vec = run_inprocess(net, algo, seed)
                assert vec == reference_direct(net, algo, seed).outputs, (
                    algo.name,
                    seed,
                )
                # The message-free loop that serves unregistered payloads.
                assert run_inprocess(net, unregistered(algo), seed) == vec

    @_SETTINGS
    @given(
        net=small_network(),
        seed=st.integers(min_value=0, max_value=1000),
        index=st.integers(min_value=0, max_value=len(ALGORITHMS) - 1),
    )
    def test_property_run_direct(self, net: Network, seed: int, index: int):
        algo = ALGORITHMS[index]
        vec = run_direct(net, algo, seed=seed)
        ref = reference_direct(net, algo, seed=seed)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages.per_round == ref.messages.per_round


# ---------------------------------------------------------------------------
# coloring palettes wider than one bitset word
# ---------------------------------------------------------------------------
def hub_on_a_path(degree: int) -> Network:
    """Node 0 joined to nodes ``1..degree``, which form a path."""
    pairs = [(0, v) for v in range(1, degree + 1)]
    pairs += [(v, v + 1) for v in range(1, degree)]
    return Network.from_edge_pairs(degree + 1, pairs)


# A node of degree d has d + 1 colors, so degree 63 fills one 64-bit
# word exactly and 64, 65, 127 and 128 need two or three.
PALETTE_FAMILIES = {
    **{f"hub{d}": (lambda d=d: hub_on_a_path(d)) for d in (63, 64, 65, 127, 128)},
    "dense": lambda: dense_gnm(100, 3000, seed=1),
}
COLORINGS = (RandomizedColoring(2), RandomizedColoring(5), RandomizedColoring())


def color_bitset(colors: set[int], words: int) -> np.ndarray:
    """``colors`` as ``words`` uint64 words, color ``c`` at bit ``c``."""
    value = sum(1 << c for c in colors)
    return np.array(
        [(value >> (64 * w)) & ((1 << 64) - 1) for w in range(words)], dtype=np.uint64
    )


def reference_color(palette: int, blocked: set[int], draw: int) -> int:
    """The rule of ``RandomizedColoring.step``, ``-1`` for no free color."""
    allowed = [c for c in range(palette) if c not in blocked]
    return allowed[draw % len(allowed)] if allowed else -1


class TestColoringPalettes:
    """The vector coloring keeps its color sets as bitsets of 64-bit
    words; these graphs have palettes of one, two and three words."""

    def test_families_reach_several_words(self):
        words = {}
        for name, make in PALETTE_FAMILIES.items():
            net = make()
            palette = max(len(net.incident(v)) for v in net.nodes()) + 1
            words[name] = (palette + 63) // 64
        assert words == {
            "hub63": 1, "hub64": 2, "hub65": 2, "hub127": 2, "hub128": 3, "dense": 2
        }

    @pytest.mark.parametrize("family", sorted(PALETTE_FAMILIES))
    @pytest.mark.parametrize("algo", COLORINGS, ids=("t2", "t5", "default"))
    @pytest.mark.parametrize("plan", tuple(PLANS))
    def test_full_runreport_identical(self, family, algo, plan):
        net = PALETTE_FAMILIES[family]()
        t = algo.rounds(net.n)
        for seed in SEEDS:
            vec = VectorRuntime(
                net,
                vector_population(algo, net, seed),
                max_rounds=t + 2,
                faults=PLANS[plan],
            ).run()
            ref = dense_program(
                net,
                lambda node: _AlgorithmProgram(node, algo, seed, t),
                seed=seed,
                max_rounds=t + 2,
                faults=PLANS[plan],
            )
            assert vec == ref, seed

    @pytest.mark.parametrize("family", sorted(PALETTE_FAMILIES))
    def test_run_inprocess_identical(self, family):
        net = PALETTE_FAMILIES[family]()
        for algo in COLORINGS:
            for seed in SEEDS:
                vec = run_inprocess(net, algo, seed)
                ref = reference_direct(net, algo, seed).outputs
                assert vec == ref, (algo.rounds(net.n), seed)

    def test_pick_follows_the_reference_rule(self):
        """Every palette size 1-130, every draw below it, and blocked sets
        that are empty, full, full but one, random, or hold colors at or
        above the palette (a neighbor's, whose palette is larger)."""
        rng = random.Random(3)
        words = 3  # colors 0..191: room above the largest palette
        for palette in range(1, 131):
            span = range(palette)
            above = set(range(palette, 64 * words))
            cases = [set(), set(span), above]
            for kept in {0, palette // 2, palette - 1, 63, 64, 127, 128}:
                if kept < palette:
                    cases.append(set(span) - {kept})
            for density in (0.2, 0.5, 0.9):
                below = {c for c in span if rng.random() < density}
                cases.append(below)
                cases.append(below | {c for c in above if rng.random() < density})
            # The population blocks every color at or above the palette.
            blocked = np.repeat(
                np.stack([color_bitset(case | above, words) for case in cases], axis=1),
                palette,
                axis=1,
            )
            draws = np.tile(np.arange(palette, dtype=np.int64), len(cases))
            expected = [reference_color(palette, case, d) for case in cases for d in span]
            assert pick_free_colors(blocked, draws).tolist() == expected, palette
            # The fewest words that hold the palette pick the same colors.
            narrow = (palette + 63) // 64
            fits = [
                index * palette + d
                for index, case in enumerate(cases)
                if max(case, default=0) < 64 * narrow
                for d in span
            ]
            picked = pick_free_colors(blocked[:narrow, fits], draws[fits])
            assert picked.tolist() == [expected[i] for i in fits], palette


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
        run_inprocess(net, BaswanaSenLocal(2), seed=1)
        assert fallback_events() == [{"algo": "baswana-sen", "reason": "unregistered"}]

    def test_library_algorithms_announce_nothing(self, obs_on):
        net = FAMILIES["gnp"]()
        for algo in ALGORITHMS:
            run_direct(net, algo, seed=1)
            run_inprocess(net, algo, seed=1)
        assert fallback_events() == []

    def test_corrupt_plan_announces_nothing(self, obs_on):
        # Corrupt plans run on the populations: nothing falls back.
        net = FAMILIES["torus"]()
        plan = FaultPlan(corrupt_probability=0.05, seed=3)
        out = run_direct(net, RandomMatching(2), seed=1, faults=plan)
        assert out.messages.corrupted > 0
        assert fallback_events() == []

    def test_unregistered_subclasses_take_the_per_node_paths(self, obs_on):
        # The per-node interpreter and the message-free loop serve what
        # no population does, with the populations' results.
        net = FAMILIES["torus"]()
        for algo in ALGORITHMS:
            twin = unregistered(algo)
            assert_outcomes_equal(
                run_direct(net, twin, seed=2), run_direct(net, algo, seed=2)
            )
            assert run_inprocess(net, twin, seed=2) == run_inprocess(net, algo, seed=2)
        assert fallback_events() == [
            {"algo": algo.name, "reason": "unregistered"}
            for algo in ALGORITHMS
            for _ in range(2)
        ]


# ---------------------------------------------------------------------------
# the delivery paths
# ---------------------------------------------------------------------------
class _AllNodeProbe(VectorProgram):
    """Every node broadcasts in round 0; round 1's inbox is kept."""

    tag = "probe"

    def __init__(self, net: Network) -> None:
        self._plan = delivery_plan(net)
        self._n = net.n
        self.inbox = None

    def on_start(self):
        return broadcast_outbox(self._plan, np.arange(self._n, dtype=np.int64))

    def step_population(self, round_index, inbox):
        self.inbox = inbox
        return None

    def outputs(self):
        return {}

    @property
    def live(self):
        return 0


def probe_inbox(net: Network, faults=None):
    probe = _AllNodeProbe(net)
    VectorRuntime(net, probe, fixed_rounds=1, faults=faults).run()
    return probe.inbox


def argsort_inbox(net: Network, faults=None) -> dict:
    """An all-node round's inbox, built one message at a time: the
    fault plan's coins drop or erase rows in outbox order, then a plain
    int64 stable argsort groups the delivered rows by receiver."""
    faults = faults or FaultPlan.none()
    indptr, inc = (np.frombuffer(a, dtype=np.int64) for a in net.incidence_csr())
    owners = np.repeat(np.arange(net.n, dtype=np.int64), np.diff(indptr))
    sends = list(zip(inc.tolist(), owners.tolist()))
    rows = np.asarray(
        [
            i
            for i, (eid, v) in enumerate(sends)
            if not (faults.drops(0, eid, v) or faults.corrupts(0, eid, v))
        ],
        dtype=np.int64,
    )
    receivers = np.asarray(
        [net.other_end(*sends[i]) for i in rows.tolist()], dtype=np.int64
    )
    order = np.argsort(receivers, kind="stable")
    return {
        "indptr": np.r_[0, np.cumsum(np.bincount(receivers, minlength=net.n))],
        "rows": rows[order],
        "senders": owners[rows][order],
        "eids": inc[rows][order],
    }


def assert_inbox_equal(inbox, expected: dict, case) -> None:
    for field, column in expected.items():
        assert np.array_equal(getattr(inbox, field), column), (case, field)


def beyond_uint16() -> Network:
    n = (1 << 16) + 5
    rng = random.Random(11)
    pairs = {(rng.randrange(n // 2), rng.randrange(n // 2, n)) for _ in range(600)}
    # Receivers at or above 2**16 would wrap under a uint16 key.
    top = range(1 << 16, n)
    pairs |= {(v - 1, v) for v in top} | {(7, v) for v in top}
    return Network.from_edge_pairs(n, sorted(pairs))


def churned() -> Network:
    base = erdos_renyi(80, 0.1, seed=2)
    net, _ = apply_churn(base, ChurnPlan(seed=3, edge_removal=0.1, edge_addition=0.05))
    return net


PLAN_GRAPHS = {
    "churned": churned,
    "beyond-uint16": beyond_uint16,
    "isolated-nodes": lambda: Network.from_edge_pairs(
        9, [(0, 1), (0, 2), (1, 2), (4, 7), (5, 7)]
    ),
    # Nodes 0 and 1 are joined by edges 3 and 8.
    "parallel-edges": lambda: Network(
        4,
        [EdgeRef(3, 0, 1), EdgeRef(8, 1, 0), EdgeRef(5, 1, 2), EdgeRef(9, 0, 3)],
    ),
}


class TestDeliveryPaths:
    """An all-node broadcast that loses nothing to a fault plan takes
    the network's delivery plan as its inbox; other broadcasts read their receivers from the
    plan, and other outboxes look their edges up by eid (searchsorted
    when ids have gaps), then sort stably by receiver (an int64 sort
    above 2**16 nodes)."""

    def test_non_consecutive_eids(self):
        net = churned()
        assert net.endpoints_flat()[0] is not None  # ids have gaps
        assert delivery_plan(net).eid_sorted is not None
        for algo in ALGORITHMS:
            for plan in PLANS:
                assert_engines_agree(net, algo, seed=4, faults=PLANS[plan])

    @pytest.mark.parametrize("plan", ["none", "corrupt", "both"])
    @pytest.mark.parametrize("graph", sorted(PLAN_GRAPHS))
    def test_plan_inbox_equals_the_sort(self, graph, plan):
        net = PLAN_GRAPHS[graph]()
        inbox = probe_inbox(net, PLANS[plan])
        expected = argsort_inbox(net, PLANS[plan])
        assert_inbox_equal(inbox, expected, (graph, plan))
        every_row = expected["rows"].size == 2 * net.m
        assert (inbox.rows is delivery_plan(net).perm) == every_row

    def test_drop_in_an_all_node_round_sorts(self):
        net = FAMILIES["gnp"]()
        faults = PLANS["drops"]
        inbox = probe_inbox(net, faults)
        assert inbox.rows.size < 2 * net.m
        assert_inbox_equal(inbox, argsort_inbox(net, faults), "gnp")
        for algo in (MinIdAggregation(1), RandomizedColoring(2), LubyMis(1)):
            assert_engines_agree(net, algo, seed=3, faults=faults)

    def test_corrupt_in_an_all_node_round_sorts(self):
        net = FAMILIES["ba"]()
        faults = PLANS["corrupt"]
        inbox = probe_inbox(net, faults)
        assert inbox.rows.size < 2 * net.m
        assert_inbox_equal(inbox, argsort_inbox(net, faults), "ba")
        for radius in (1, 2):
            vec = runtime_flood(net, lambda v: v, radius, faults=faults)
            ref = reference_flood(net, lambda v: v, radius, faults=faults)
            assert vec.messages.corrupted > 0
            assert vec == ref

    def test_plan_inbox_is_read_only(self):
        inbox = probe_inbox(FAMILIES["torus"]())
        for field in ("indptr", "rows", "senders", "eids"):
            with pytest.raises(ValueError):
                getattr(inbox, field)[0] = 0

    def test_all_node_broadcast_views_the_incidence(self):
        net = Network.from_edge_pairs(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        plan = delivery_plan(net)
        every = np.arange(net.n, dtype=np.int64)
        outbox = broadcast_outbox(plan, every)
        owners, positions = gather_segments(plan.indptr, every)
        assert outbox.senders.tolist() == owners.tolist() == [0, 0, 1, 1, 2, 2, 3, 4]
        assert outbox.positions.tolist() == positions.tolist() == list(range(8))
        assert outbox.eids.tolist() == plan.inc[positions].tolist()
        # The rows are the network's own incidence array, which no
        # consumer of the outbox may write.
        indptr, inc = (np.frombuffer(a, dtype=np.int64) for a in net.incidence_csr())
        assert np.shares_memory(outbox.eids, inc)
        assert not outbox.eids.flags.writeable
        assert not outbox.senders.flags.writeable
        # A partial broadcast records the CSR positions of its rows.
        partial = broadcast_outbox(plan, np.asarray([1, 4], dtype=np.int64))
        assert partial.positions.tolist() == [2, 3, 7]
        assert partial.eids.tolist() == inc[[2, 3, 7]].tolist()
        portless = Network(3, [])
        assert (
            broadcast_outbox(delivery_plan(portless), np.arange(3, dtype=np.int64))
            is None
        )

    def test_more_nodes_than_uint16(self):
        assert_engines_agree(beyond_uint16(), MinIdAggregation(2), seed=1)


# ---------------------------------------------------------------------------
# the Sampler's hybrid planes
# ---------------------------------------------------------------------------
class TestSamplerEngine:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_spanner_results_identical(self, family):
        # test_scheduler runs the same families at k=1; the planes also
        # carry the deeper levels' trials here.
        net = FAMILIES[family]()
        params = SamplerParams(k=2, h=3, seed=11)
        schedule = Schedule.build(params)
        runtime = Runtime(net, lambda node: SamplerProgram(node, params, schedule))
        assert runtime._planes  # the runtime services the Sampler's planes
        vec = build_spanner_distributed(net, params)
        with reference_engines():
            ref = build_spanner_distributed(net, params)
        assert vec.edges == ref.edges
        assert vec.rounds == ref.rounds
        assert vec.trace.signature() == ref.trace.signature()
        assert vec.messages.per_round == ref.messages.per_round
        assert vec.messages.by_tag == ref.messages.by_tag

    def test_vector_engine_vs_dense_scheduler(self):
        net = FAMILIES["gnp"]()
        params = SamplerParams(k=2, h=2, seed=7)
        vec = build_spanner_distributed(net, params)
        with reference_engines():
            dense = build_spanner_distributed(net, params)
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

        def run(scheduler):
            return RUN[scheduler](
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
            )

        try:
            ref = run("dense")
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as vec_exc:
                run("active")
            assert str(vec_exc.value) == str(exc)
            return
        vec = run("active")
        assert_reports_equal(vec, ref)

    def test_corruption_keeps_planes_and_equality(self):
        # An erased message reaches no receiver, so the runtime services
        # the planes under corrupt plans too.  Erasing a handshake
        # strands the protocol as a drop does: both loops raise the same
        # ProtocolError, or agree on the whole report.
        net = FAMILIES["torus"]()
        plan = FaultPlan(corrupt_probability=0.03, seed=5)
        params = SamplerParams(k=1, h=2, seed=3)
        schedule = Schedule.build(params)

        def run(scheduler):
            return RUN[scheduler](
                net,
                lambda node: SamplerProgram(node, params, schedule),
                seed=params.seed,
                max_rounds=schedule.total_rounds + 2,
                n_hint=net.n,
                faults=plan,
                fixed_rounds=schedule.total_rounds,
            )

        runtime = Runtime(
            net, lambda node: SamplerProgram(node, params, schedule), faults=plan
        )
        assert runtime._planes
        try:
            ref = run("dense")
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as vec_exc:
                run("active")
            assert str(vec_exc.value) == str(exc)
            return
        assert_reports_equal(run("active"), ref)


# ---------------------------------------------------------------------------
# every small graph
# ---------------------------------------------------------------------------
ATLAS_PAYLOADS = (
    BallCollect(2),
    BfsLayers(0, 3),
    LubyMis(2),
    MinIdAggregation(3),
    RandomMatching(1),
    RandomizedColoring(2),
)
ATLAS_PLANS = {
    "none": None,
    "drops": FaultPlan(drop_probability=0.2, seed=7),
    "corrupt": FaultPlan(corrupt_probability=0.2, seed=7),
    "both": FaultPlan(drop_probability=0.1, corrupt_probability=0.1, seed=7),
}


@pytest.fixture(scope="module")
def atlas():
    return [(graph.name, Network.from_graph(graph)) for graph in connected_atlas(6)]


class TestAtlas:
    """Every connected atlas graph on 2-6 nodes against the oracles:
    equal outcomes under every plan, and every run completes, the
    distributed Sampler's included (some of its schedules end on an
    empty level, where the run halts early).  A failure names the atlas
    graph, the payload, the seed and the plan."""

    def test_atlas_has_142_connected_graphs(self, atlas):
        assert len(atlas) == 142

    def test_registered_payloads(self, atlas):
        for name, net in atlas:
            for algo in ATLAS_PAYLOADS:
                for seed in (0, 1):
                    for plan, faults in ATLAS_PLANS.items():
                        vec = run_direct(net, algo, seed, faults=faults)
                        ref = reference_direct(net, algo, seed, faults=faults)
                        assert vec == ref, (name, algo.name, seed, plan)
                    assert (
                        run_inprocess(net, algo, seed)
                        == reference_direct(net, algo, seed).outputs
                    ), (name, algo.name, seed, "inprocess")

    def test_runtime_flood(self, atlas):
        for name, net in atlas:
            for radius in range(4):
                for plan, faults in ATLAS_PLANS.items():
                    vec = runtime_flood(net, lambda v: v, radius, faults=faults)
                    ref = reference_flood(net, lambda v: v, radius, faults=faults)
                    assert vec == ref, (name, radius, plan)

    def test_distributed_sampler(self, atlas):
        runs = 0
        for name, net in atlas:
            for k in (1, 2):
                for seed in (0, 1):
                    params = SamplerParams(k=k, h=2, seed=seed)
                    vec = outcome(lambda: build_spanner_distributed(net, params))
                    with reference_engines():
                        ref = outcome(lambda: build_spanner_distributed(net, params))
                    assert vec == ref, (name, k, seed)
                    assert vec[0] == "ok", (name, k, seed, vec)
                    runs += 1
        assert runs == 568
