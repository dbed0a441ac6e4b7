"""Chaos injection: every fault counted, every response still exact.

The degraded-but-correct contract (ISSUE 9): a :class:`ChaosPlan`
injects transient/persistent OSErrors, corrupt reads, slow loads and
stale locks into the store's read path; each injection surfaces as a
counted metric and the response — whenever one is produced — stays
bit-identical to a cold :func:`run_one_stage`.
"""

from __future__ import annotations

import pytest

from repro.algorithms import BfsLayers, MinIdAggregation
from repro.core import SamplerParams
from repro.errors import ConfigurationError
from repro.graphs import erdos_renyi
from repro.service import SimulationService
from repro.simulate import run_one_stage
from repro.store import CHAOS_ENV_VAR, ArtifactStore, ChaosPlan, chaos_from_env
from repro.store.store import DISK_READ_RETRIES

PARAMS = SamplerParams(k=1, h=2, seed=13)


@pytest.fixture
def net():
    return erdos_renyi(40, 0.15, seed=8)


class TestChaosPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(transient=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPlan(corrupt=-0.1)
        with pytest.raises(ConfigurationError):
            ChaosPlan(slow_seconds=-1.0)

    def test_noop_detection(self):
        assert ChaosPlan().is_noop
        assert ChaosPlan(seed=7, slow_seconds=3.0).is_noop
        assert not ChaosPlan(transient=0.1).is_noop

    def test_decisions_are_deterministic(self):
        a = ChaosPlan(seed=5, transient=0.5, corrupt=0.2, slow=0.3)
        b = ChaosPlan(seed=5, transient=0.5, corrupt=0.2, slow=0.3)
        for tick in range(50):
            assert a.load_fault("k1", tick) == b.load_fault("k1", tick)
            assert a.load_delay("k1", tick) == b.load_delay("k1", tick)

    def test_seed_changes_the_draw(self):
        a = ChaosPlan(seed=1, transient=0.5)
        b = ChaosPlan(seed=2, transient=0.5)
        draws_a = [a.load_fault("k", t) for t in range(64)]
        draws_b = [b.load_fault("k", t) for t in range(64)]
        assert draws_a != draws_b

    def test_persistent_curse_ignores_tick(self):
        """A persistently cursed key fails every retry, not a coin per
        attempt — that is what separates it from transient."""
        plan = ChaosPlan(seed=0, persistent=0.5)
        cursed = [k for k in ("a", "b", "c", "d", "e", "f")
                  if plan.load_fault(k, 0) == "oserror"]
        assert cursed  # at 0.5 over six keys, vanishing odds of none
        for key in cursed:
            assert all(
                plan.load_fault(key, tick) == "oserror" for tick in range(20)
            )

    def test_certain_rates(self):
        assert ChaosPlan(transient=1.0).load_fault("k", 3) == "oserror"
        assert ChaosPlan(corrupt=1.0).load_fault("k", 3) == "corrupt"
        assert ChaosPlan(slow=1.0, slow_seconds=0.5).load_delay("k", 3) == 0.5
        assert ChaosPlan(stale_lock=1.0).plant_stale_lock("k", 3)


class TestSpecParsing:
    def test_roundtrip(self):
        plan = ChaosPlan.parse("transient=0.3,corrupt=0.1,seed=7")
        assert plan == ChaosPlan(seed=7, transient=0.3, corrupt=0.1)

    def test_whitespace_and_empty_parts_tolerated(self):
        plan = ChaosPlan.parse(" slow = 0.2 , , slow_seconds = 0.005 ")
        assert plan == ChaosPlan(slow=0.2, slow_seconds=0.005)

    def test_unknown_field_refused(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan.parse("transientt=0.3")

    def test_bad_value_refused(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan.parse("transient=lots")

    def test_env_hook(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV_VAR, "")
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV_VAR, "seed=9")  # all rates zero
        assert chaos_from_env() is None
        monkeypatch.setenv(CHAOS_ENV_VAR, "transient=0.4,seed=9")
        assert chaos_from_env() == ChaosPlan(seed=9, transient=0.4)

    def test_store_picks_up_env_plan(self, net, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, "corrupt=1.0")
        store = ArtifactStore(tmp_path)
        assert store.chaos == ChaosPlan(corrupt=1.0)


class TestInjectedFaults:
    def _seeded(self, tmp_path, net):
        ArtifactStore(tmp_path).fetch_spanner(net, PARAMS)

    @staticmethod
    def _chaotic(tmp_path, monkeypatch, spec):
        """A store on ``tmp_path`` under the ``REPRO_STORE_CHAOS`` plan
        ``spec``."""
        monkeypatch.setenv(CHAOS_ENV_VAR, spec)
        return ArtifactStore(tmp_path)

    def test_transient_faults_counted_and_healed(self, net, tmp_path, monkeypatch):
        self._seeded(tmp_path, net)
        monkeypatch.setattr("repro.store.store.DISK_READ_RETRIES", 8)
        store = self._chaotic(tmp_path, monkeypatch, "seed=3,transient=0.5")
        result, info = store.fetch_spanner(net, PARAMS)
        snap = store.stats.snapshot()
        # At 0.5 over 9 attempts the read heals within the retry budget.
        assert info.source == "disk"
        assert snap["retries"] >= 1
        assert snap["chaos_injected"] == snap["retries"]

    def test_persistent_curse_degrades_to_rebuild(self, net, tmp_path, monkeypatch):
        self._seeded(tmp_path, net)
        store = self._chaotic(tmp_path, monkeypatch, "persistent=1.0")
        result, info = store.fetch_spanner(net, PARAMS)
        snap = store.stats.snapshot()
        assert info.source == "built"  # degraded, never raised
        assert snap["retries"] == DISK_READ_RETRIES
        assert snap["misses"] == 1
        assert snap["read_failures"] == 1

    def test_corrupt_reads_counted_as_corrupt(self, net, tmp_path, monkeypatch):
        self._seeded(tmp_path, net)
        store = self._chaotic(tmp_path, monkeypatch, "corrupt=1.0")
        result, info = store.fetch_spanner(net, PARAMS)
        assert info.source == "built"
        assert store.stats.corrupt == 1

    def test_slow_loads_counted(self, net, tmp_path, monkeypatch):
        self._seeded(tmp_path, net)
        store = self._chaotic(tmp_path, monkeypatch, "slow=1.0,slow_seconds=0.001")
        result, info = store.fetch_spanner(net, PARAMS)
        assert info.source == "disk"  # slow, but intact
        assert store.stats.chaos_injected >= 1

    def test_stale_lock_injection_exercises_reclamation(
        self, net, tmp_path, monkeypatch
    ):
        store = self._chaotic(tmp_path, monkeypatch, "stale_lock=1.0")
        result, info = store.fetch_spanner(net, PARAMS)
        assert info.source == "built"
        assert store.stats.lock_reclaimed == 1

    def test_responses_bit_identical_under_chaos(self, net, tmp_path, monkeypatch):
        """The whole point: chaos costs rebuilds, never changes answers."""
        reference = run_one_stage(
            net, MinIdAggregation(2), params=PARAMS, seed=0
        )
        bfs_reference = run_one_stage(net, BfsLayers(0, 2), params=PARAMS, seed=0)
        self._seeded(tmp_path, net)
        store = self._chaotic(
            tmp_path,
            monkeypatch,
            "seed=11,transient=0.4,corrupt=0.2,slow=0.2,slow_seconds=0.0,"
            "stale_lock=0.3",
        )
        service = SimulationService(net, store=store, params=PARAMS, seed=0)
        for _ in range(4):
            response = service.submit(MinIdAggregation(2))
            assert response.report.outputs == reference.outputs
        bfs = service.submit(BfsLayers(0, 2))
        assert bfs.report.outputs == bfs_reference.outputs
