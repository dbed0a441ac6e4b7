"""The reproduction's core integration tests: centralized == distributed.

For identical seeds, the two drivers must produce the same spanner, the
same cluster hierarchy (labels, centers, joins, finishes), and the
distributed run's metered message counts must equal the closed-form
accounting model tag for tag.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from reference_sampler import reference_build
from repro.core import SamplerParams, build_spanner
from repro.core.accounting import (
    expected_message_counts,
    expected_rounds,
    expected_total_messages,
)
from repro.core.distributed import Schedule, build_spanner_distributed
from repro.graphs import caveman, complete_graph, erdos_renyi, torus

CASES = [
    ("er50", lambda: erdos_renyi(50, 0.2, seed=1), SamplerParams(k=1, h=1, seed=3)),
    ("er50-k2", lambda: erdos_renyi(50, 0.2, seed=1), SamplerParams(k=2, h=2, seed=4)),
    ("er80", lambda: erdos_renyi(80, 0.12, seed=2), SamplerParams(k=2, h=2, seed=11)),
    ("torus", lambda: torus(7, 7), SamplerParams(k=2, h=3, seed=5)),
    ("caveman", lambda: caveman(6, 6), SamplerParams(k=1, h=2, seed=6)),
    (
        "dense",
        lambda: complete_graph(60),
        SamplerParams(k=2, h=2, seed=7, c_query=0.4, c_target=0.5),
    ),
    (
        "k3",
        lambda: erdos_renyi(70, 0.15, seed=8),
        SamplerParams(k=3, h=1, seed=9, c_query=0.7, c_target=1.0),
    ),
]


@pytest.fixture(params=CASES, ids=lambda c: c[0])
def case(request):
    name, build, params = request.param
    net = build()
    return net, params


class TestEquivalence:
    def test_same_spanner_edges(self, case):
        net, params = case
        cen = build_spanner(net, params)
        dist = build_spanner_distributed(net, params)
        assert cen.edges == dist.edges

    def test_same_signature(self, case):
        net, params = case
        cen = build_spanner(net, params)
        dist = build_spanner_distributed(net, params)
        assert cen.trace.signature() == dist.trace.signature()

    def test_accounting_matches_metered_counts(self, case):
        net, params = case
        cen = build_spanner(net, params)
        dist = build_spanner_distributed(net, params)
        metered = {tag: n for tag, n in dist.messages.by_tag.items() if n}
        assert metered == dict(expected_message_counts(cen.trace))
        assert dist.messages.total == expected_total_messages(cen.trace)

    def test_rounds_match_schedule(self, case):
        net, params = case
        dist = build_spanner_distributed(net, params)
        assert dist.rounds == expected_rounds(params)

    def test_distributed_cluster_sizes_match(self, case):
        net, params = case
        cen = build_spanner(net, params)
        dist = build_spanner_distributed(net, params)
        for c_level, d_level in zip(cen.trace.levels, dist.trace.levels):
            assert c_level.cluster_sizes == d_level.cluster_sizes


class TestSeedGoldens:
    """Optimized paths must stay bit-identical to the *seed* traces.

    ``tests/data/golden_signatures.json`` holds sha256 digests of
    ``SamplerTrace.signature()`` captured from the original (pre-flat-
    array) implementation for every CASES entry.  Both drivers — the
    optimized centralized run and the distributed run — must still hash
    to those digests.  ``tests/data/golden_full_traces.json`` pins the
    full traces (every field) of the seed recount strategy, captured
    before it was deleted.  The serial reference of
    ``tests/reference_sampler.py``, the oracle of the level kernel,
    hashes to both.  Regenerate only for deliberate semantic changes
    (``tools/capture_golden_signatures.py``, ``--full``).
    """

    GOLDENS = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_signatures.json").read_text()
    )
    FULL_GOLDENS = json.loads(
        (pathlib.Path(__file__).parent / "data" / "golden_full_traces.json").read_text()
    )

    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_centralized_matches_seed_trace(self, name):
        _name, build, params = next(c for c in CASES if c[0] == name)
        result = build_spanner(build(), params)
        digest = hashlib.sha256(repr(result.trace.signature()).encode()).hexdigest()
        assert digest == self.GOLDENS[name]

    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_distributed_matches_seed_trace(self, name):
        _name, build, params = next(c for c in CASES if c[0] == name)
        result = build_spanner_distributed(build(), params)
        digest = hashlib.sha256(repr(result.trace.signature()).encode()).hexdigest()
        assert digest == self.GOLDENS[name]

    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_reference_strategy_matches_seed_trace(self, name):
        """The full trace — every field, not just the signature — equals
        the one the seed recount strategy produced."""
        _name, build, params = next(c for c in CASES if c[0] == name)
        result = build_spanner(build(), params)
        document = (tuple(sorted(result.edges)), result.trace.full_signature())
        digest = hashlib.sha256(repr(document).encode()).hexdigest()
        assert digest == self.FULL_GOLDENS[name]

    @pytest.mark.parametrize("name", [c[0] for c in CASES])
    def test_serial_reference_matches_seed_traces(self, name):
        _name, build, params = next(c for c in CASES if c[0] == name)
        result = reference_build(build(), params)
        signature = repr(result.trace.signature()).encode()
        assert hashlib.sha256(signature).hexdigest() == self.GOLDENS[name]
        document = (tuple(sorted(result.edges)), result.trace.full_signature())
        digest = hashlib.sha256(repr(document).encode()).hexdigest()
        assert digest == self.FULL_GOLDENS[name]


class TestSeedVariation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_equivalence_across_seeds(self, seed):
        net = erdos_renyi(60, 0.15, seed=12)
        params = SamplerParams(k=2, h=2, seed=seed)
        cen = build_spanner(net, params)
        dist = build_spanner_distributed(net, params)
        assert cen.edges == dist.edges
        assert cen.trace.signature() == dist.trace.signature()


class TestSchedule:
    def test_phase_lookup_covers_every_round(self):
        params = SamplerParams(k=2, h=2, seed=0)
        schedule = Schedule.build(params)
        seen_kinds = set()
        for r in range(1, schedule.total_rounds + 1):
            phase, rel = schedule.phase_at(r)
            assert 0 <= rel < phase.length
            assert phase.start <= r <= phase.end
            seen_kinds.add(phase.kind)
        assert len(seen_kinds) == 15  # every PhaseKind appears

    def test_out_of_range_rejected(self):
        schedule = Schedule.build(SamplerParams(k=1, h=1))
        with pytest.raises(ValueError):
            schedule.phase_at(0)
        with pytest.raises(ValueError):
            schedule.phase_at(schedule.total_rounds + 1)

    def test_rounds_scale_as_3k_h(self):
        def total(k, h):
            return Schedule.build(SamplerParams(k=k, h=h)).total_rounds

        # doubling h roughly doubles the trial block
        assert total(2, 4) > 1.5 * total(2, 2) - 40
        # the schedule stays under the closed-form O(3^k h) bound
        for k in (1, 2, 3):
            for h in (1, 2, 4):
                assert total(k, h) <= 30 * 3**k * (h + 1) + 30

    def test_trial_phases_counted(self):
        params = SamplerParams(k=1, h=3)
        schedule = Schedule.build(params)
        from repro.core.distributed.schedule import PhaseKind

        plans = [p for p in schedule.phases if p.kind is PhaseKind.PLAN]
        # 2h trials per level, k+1 levels
        assert len(plans) == params.trials * params.levels
