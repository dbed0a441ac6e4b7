"""Coverage for result objects, metrics, traces, and model guards."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import SamplerParams, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.core.trace import SamplerTrace
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    ValidationError,
)
from repro.local import Knowledge, MessageStats
from repro.local.metrics import RunReport


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigurationError, ProtocolError, SimulationError, ValidationError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")


class TestMessageStats:
    def test_record_and_rounds(self):
        stats = MessageStats()
        stats.open_round()
        stats.record_uniform("a", 2)
        stats.open_round()
        stats.record_batch([(0, 0, None, "b")])
        assert stats.total == 3
        assert stats.by_tag == {"a": 2, "b": 1}
        assert stats.per_round == [2, 1]

    def test_record_before_open_round_keeps_invariant(self):
        # metering with no open round lands in an implicit round 0
        # rather than silently vanishing from per_round
        uniform, batched = MessageStats(), MessageStats()
        uniform.record_uniform("early", 1)
        batched.record_batch([(0, 0, None, "early")])
        for stats in (uniform, batched):
            assert stats.per_round == [1]
        uniform.open_round()
        uniform.record_uniform("late", 1)
        batched.open_round()
        batched.record_batch([(0, 0, None, "late")])
        for stats in (uniform, batched):
            assert stats.per_round == [1, 1]
            assert sum(stats.per_round) == stats.total == 2

    def test_merge(self):
        a = MessageStats(total=1, by_tag=Counter(x=1), per_round=[1])
        b = MessageStats(total=1, dropped=1, by_tag=Counter(y=1), per_round=[1])
        merged = a.merge(b)
        assert merged.total == 2
        assert merged.dropped == 1
        assert merged.by_tag == {"x": 1, "y": 1}

    def test_merge_records_stage_offsets(self):
        a, b, c = MessageStats(), MessageStats(), MessageStats()
        for _ in range(3):
            a.open_round()
        a.record_uniform("x", 1)
        b.open_round(); b.record_uniform("y", 2)
        c.open_round(); c.open_round(); c.record_uniform("z", 1)
        merged = a.merge(b).merge(c)
        # stage i's rounds start at stage_offsets[i] in per_round
        assert merged.stage_offsets == [0, 3, 4]
        assert merged.per_round == a.per_round + b.per_round + c.per_round
        slices = merged.stage_slices()
        assert slices == [a.per_round, b.per_round, c.per_round]
        assert sum(sum(s) for s in slices) == merged.total == 4

    def test_record_batch_equals_per_message_recording(self):
        msgs = [(0, 0, None, "x"), (1, 1, None, "y"), (2, 0, None, "x")]
        batched = MessageStats()
        batched.open_round()
        batched.record_batch(msgs)
        # The per-message reference, metered by hand: each message adds
        # one to the total, to its tag and to the open round.
        total, by_tag, open_round = 0, Counter(), 0
        for msg in msgs:
            total += 1
            by_tag[msg[3]] += 1
            open_round += 1
        assert batched.total == total
        assert batched.by_tag == by_tag
        assert batched.per_round == [open_round]

    def test_run_report_summary(self):
        stats = MessageStats()
        report = RunReport(rounds=3, messages=stats, outputs={}, halted=True)
        assert "rounds=3" in report.summary()
        assert report.total_messages == 0


class TestSpannerResultApi:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.graphs import erdos_renyi

        return build_spanner(erdos_renyi(50, 0.2, seed=2), SamplerParams(k=1, h=2, seed=1))

    def test_summary_mentions_sizes(self, result):
        text = result.summary()
        assert f"|S|={result.size}" in text
        assert "stretch bound=5" in text

    def test_subnetwork_roundtrip(self, result):
        sub = result.subnetwork()
        assert sub.m == result.size
        assert set(sub.edge_ids) == set(result.edges)

    def test_density_ratio(self, result):
        assert 0 < result.density_ratio() <= 1

    def test_distributed_summary_includes_messages(self):
        from repro.graphs import erdos_renyi

        dist = build_spanner_distributed(
            erdos_renyi(40, 0.2, seed=3), SamplerParams(k=1, h=1, seed=2)
        )
        assert "messages=" in dist.summary()


class TestTraceApi:
    @pytest.fixture(scope="class")
    def trace(self) -> SamplerTrace:
        from repro.graphs import erdos_renyi

        return build_spanner(
            erdos_renyi(60, 0.15, seed=4), SamplerParams(k=2, h=2, seed=5)
        ).trace

    def test_signature_is_stable(self, trace):
        assert trace.signature() == trace.signature()

    def test_total_queries_positive(self, trace):
        assert trace.total_queries > 0

    def test_level_accessor(self, trace):
        assert trace.level(0).level == 0
        assert trace.level(2).level == 2

    def test_node_trace_flags(self, trace):
        node = next(iter(trace.level(0).nodes.values()))
        assert node.is_heavy == (node.label.value == "heavy")


class TestModelGuards:
    def test_distributed_sampler_rejects_kt0(self):
        from repro.graphs import erdos_renyi

        net = erdos_renyi(20, 0.3, seed=1).with_knowledge(Knowledge.KT0)
        with pytest.raises(ProtocolError):
            build_spanner_distributed(net, SamplerParams(k=1, h=1, seed=1))

    def test_distributed_sampler_accepts_kt1(self):
        from repro.graphs import erdos_renyi

        base = erdos_renyi(30, 0.25, seed=1)
        net = base.with_knowledge(Knowledge.KT1)
        dist = build_spanner_distributed(net, SamplerParams(k=1, h=1, seed=1))
        cen = build_spanner(base, SamplerParams(k=1, h=1, seed=1))
        assert dist.edges == cen.edges  # extra knowledge changes nothing
