"""Tests for stretch measurement, validation, bounds, and stats."""

from __future__ import annotations

import pytest

from repro.analysis import (
    adjacent_pair_stretch,
    fit_loglog_slope,
    predicted_size_exponent,
    validate_spanner,
)
from repro.analysis.stats import mean
from repro.core import build_spanner
from repro.core.spanner import SpannerResult
from repro.errors import ValidationError
from repro.local.network import Network


@pytest.fixture
def cycle6() -> Network:
    return Network.from_edge_pairs(6, [(i, (i + 1) % 6) for i in range(6)], name="c6")


class TestAdjacentPairStretch:
    def test_full_graph_has_stretch_one(self, cycle6):
        report = adjacent_pair_stretch(cycle6, cycle6.edge_ids)
        assert report.max_stretch == 1.0
        assert report.mean_stretch == 1.0
        assert report.pairs_measured == 6

    def test_removed_edge_forces_detour(self, cycle6):
        spanner = [e for e in cycle6.edge_ids if e != 0]
        report = adjacent_pair_stretch(cycle6, spanner)
        assert report.max_stretch == 5.0  # the long way around the cycle

    def test_disconnection_detected(self, cycle6):
        spanner = list(cycle6.edge_ids)[:2]
        report = adjacent_pair_stretch(cycle6, spanner)
        assert report.unreachable_pairs > 0

    def test_sampling_mode(self, er_medium):
        report = adjacent_pair_stretch(er_medium, er_medium.edge_ids, sample=50, seed=1)
        assert report.pairs_measured == 50
        assert report.max_stretch == 1.0

    def test_cutoff_separates_far_pairs_from_unreachable(self, cycle6):
        # the detour pair sits at distance 5 > cutoff: truncated, not
        # disconnected — it must not flip the connectivity verdict
        spanner = [e for e in cycle6.edge_ids if e != 0]
        report = adjacent_pair_stretch(cycle6, spanner, cutoff=3)
        assert report.beyond_cutoff == 1
        assert report.unreachable_pairs == 0

    def test_cutoff_still_detects_true_disconnection(self, cycle6):
        # only edges 0 and 1 kept: most pairs are provably disconnected
        # even under a cutoff, because their BFS exhausts the component
        spanner = list(cycle6.edge_ids)[:2]
        report = adjacent_pair_stretch(cycle6, spanner, cutoff=4)
        assert report.unreachable_pairs > 0


class TestValidateSpanner:
    def test_accepts_valid(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        validation = validate_spanner(result)
        assert validation.size == result.size
        assert validation.stretch.max_stretch <= validation.stretch_bound

    def test_rejects_foreign_edges(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        tampered = SpannerResult(
            network=er_medium,
            params=result.params,
            edges=frozenset(result.edges | {10**9}),
            trace=result.trace,
        )
        with pytest.raises(ValidationError):
            validate_spanner(tampered)

    def test_rejects_disconnecting_spanner(self, er_medium, default_params):
        result = build_spanner(er_medium, default_params)
        # keep only a handful of edges: some adjacent pair must break
        tampered = SpannerResult(
            network=er_medium,
            params=result.params,
            edges=frozenset(list(result.edges)[:3]),
            trace=result.trace,
        )
        with pytest.raises(ValidationError):
            validate_spanner(tampered)


class TestBounds:
    def test_size_exponents(self):
        assert predicted_size_exponent(1) == pytest.approx(4 / 3)
        assert predicted_size_exponent(2) == pytest.approx(8 / 7)

    def test_slope_fit_exact_power_law(self):
        xs = [100, 200, 400, 800]
        ys = [3 * x**1.37 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.37, abs=1e-9)

    def test_slope_fit_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [2])
        with pytest.raises(ValueError):
            fit_loglog_slope([2, 2], [1, 3])


class TestStats:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        with pytest.raises(ValueError):
            mean([])
