"""The artifact store: keys, serialization round-trips, cache layers.

Covers the DESIGN.md §3.8 contracts: content-addressed keys, exact
``.npz`` round-trips (hypothesis-quantified across gnp/torus/ba),
``FloodProfile`` truncation equality with the live derivation, LRU and
disk behaviour, atomic writes, corruption tolerance, and the
``REPRO_STORE`` process default.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_distance as oracle
from repro import obs
from repro.core import SamplerParams, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.core.spanner import SpannerResult
from repro.graphs import barabasi_albert, complete_graph, erdos_renyi, torus
from repro.local.network import Network
from repro.simulate import flood_schedule, run_one_stage
from repro.simulate.tlocal import FloodSchedule
from repro.algorithms import BallCollect
from repro.service import ServiceMetrics
from repro.store import (
    STORE_SCHEMA,
    ArtifactError,
    ArtifactStore,
    FloodProfile,
    StoreStats,
    default_store,
    flood_key,
    resolve_store,
    spanner_key,
)
from repro.store.store import DISK_READ_RETRIES, PROFILE_CELL_LIMIT

_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_FAMILIES = {
    "gnp": lambda seed: erdos_renyi(36, 0.16, seed=seed),
    "torus": lambda seed: torus(5, 6),
    "ba": lambda seed: barabasi_albert(34, 3, seed=seed),
}


@st.composite
def family_network(draw) -> Network:
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    seed = draw(st.integers(min_value=0, max_value=50))
    return _FAMILIES[family](seed)


class TestKeys:
    def test_keys_are_pure_functions(self):
        net = erdos_renyi(20, 0.2, seed=1)
        params = SamplerParams(k=1, h=2, seed=3)
        assert spanner_key(net.fingerprint(), params) == spanner_key(
            net.fingerprint(), params
        )

    def test_any_param_field_changes_the_key(self):
        fp = erdos_renyi(20, 0.2, seed=1).fingerprint()
        base = SamplerParams(k=1, h=2, seed=3)
        variants = [
            SamplerParams(k=2, h=2, seed=3),
            SamplerParams(k=1, h=3, seed=3),
            SamplerParams(k=1, h=2, seed=4),
            SamplerParams(k=1, h=2, seed=3, c_query=0.5),
            SamplerParams(k=1, h=2, seed=3, exhaustive_small_pools=False),
        ]
        keys = {spanner_key(fp, p) for p in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_flood_key_separates_graphs(self):
        a = erdos_renyi(20, 0.2, seed=1).fingerprint()
        b = erdos_renyi(20, 0.2, seed=2).fingerprint()
        assert flood_key(a) == flood_key(a)
        assert flood_key(a) != flood_key(b)


class TestSpannerRoundTrip:
    @_SETTINGS
    @given(
        net=family_network(),
        seed=st.integers(min_value=0, max_value=40),
        builder=st.sampled_from([build_spanner, build_spanner_distributed]),
        k=st.sampled_from([1, 2, 3]),
        small_budget=st.booleans(),
    )
    # Finished clusters, cluster heights, HEAVY and STRANDED labels and
    # stale edges, all in one centralized trace.
    @example(
        net=erdos_renyi(36, 0.16, seed=3),
        seed=1,
        builder=build_spanner,
        k=2,
        small_budget=True,
    )
    def test_round_trip_is_exact(
        self, tmp_path_factory, net, seed, builder, k, small_budget
    ):
        # The centralized trace is the one repaired spanners write through
        # ``put_spanner``; the distributed view leaves finished records,
        # heights and the active/stale split empty.
        budget = {"c_query": 0.1, "c_target": 0.3} if small_budget else {}
        path = tmp_path_factory.mktemp("store") / "spanner.npz"
        result = builder(net, SamplerParams(k=k, h=2, seed=seed, **budget))
        result.to_npz(path)
        loaded = SpannerResult.from_npz(path, net)
        assert loaded == result  # edges, params, trace, messages, rounds
        assert loaded.trace.signature() == result.trace.signature()
        assert loaded.trace.full_signature() == result.trace.full_signature()

    def test_rebinding_to_a_different_graph_is_refused(self, tmp_path):
        net = erdos_renyi(24, 0.2, seed=2)
        other = erdos_renyi(24, 0.2, seed=3)
        result = build_spanner_distributed(net, SamplerParams(k=1, h=1, seed=1))
        path = tmp_path / "spanner.npz"
        result.to_npz(path)
        with pytest.raises(ArtifactError, match="different graph"):
            SpannerResult.from_npz(path, other)

    def test_garbage_file_raises_artifact_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a zip archive at all")
        with pytest.raises(ArtifactError):
            SpannerResult.from_npz(path, erdos_renyi(10, 0.3, seed=1))

    @pytest.mark.parametrize(
        "manifest, message",
        [
            (None, "'manifest' member is absent"),
            # the schema-1 layout: one numpy unicode scalar
            (np.asarray('{"schema": 1}'), "'manifest' member is a 0-D <U13 array"),
            (np.zeros((2, 4), dtype=np.uint8), "'manifest' member is a 2-D uint8 array"),
            (np.arange(3, dtype=np.int64), "'manifest' member is a 1-D int64 array"),
            (np.frombuffer(b"\xff{}", dtype=np.uint8), "no valid manifest"),
            (np.frombuffer(b'{"schema": ', dtype=np.uint8), "no valid manifest"),
            (np.frombuffer(b"[2]", dtype=np.uint8), "not a JSON object"),
        ],
    )
    def test_manifest_must_be_utf8_json_bytes(self, tmp_path, manifest, message):
        path = tmp_path / "odd.npz"
        members = {"edges": np.arange(3)}
        if manifest is not None:
            members["manifest"] = manifest
        np.savez(path, **members)
        with pytest.raises(ArtifactError, match=message):
            SpannerResult.from_npz(path, erdos_renyi(10, 0.3, seed=1))


class TestFloodProfile:
    @_SETTINGS
    @given(
        net=family_network(),
        radius=st.integers(min_value=0, max_value=8),
        keep=st.floats(min_value=0.3, max_value=1.0),
    )
    def test_truncation_equals_live_derivation(
        self, tmp_path_factory, net, radius, keep
    ):
        # A random (possibly disconnected) subnetwork stands in for a
        # spanner: the profile must serve every smaller radius exactly,
        # and every larger one exactly when it is exhausted.  Both the
        # live derivation and the oracle's BFS must agree with it.
        eids = [e for i, e in enumerate(net.edge_ids) if (i * 2654435761 % 100) / 100 < keep]
        sub = net.subnetwork(eids)
        profile = FloodProfile.build(sub, radius)
        path = tmp_path_factory.mktemp("profile") / "profile.npz"
        profile.to_npz(path)
        loaded = FloodProfile.from_npz(path)
        # exhausted: every BFS stopped before the cap
        complete = max(oracle.flood_schedule(sub, radius).ecc) < radius
        assert profile.exhausted == loaded.exhausted == complete
        for r in range(radius + 4):
            if r <= radius or complete:
                expected = flood_schedule(sub, r)
                assert expected == oracle.flood_schedule(sub, r)
                assert profile.schedule(r) == expected
                assert loaded.schedule(r) == expected
            else:
                for cut_short in (profile, loaded):
                    assert not cut_short.serves(r)
                    with pytest.raises(ValueError, match="cannot serve"):
                        cut_short.schedule(r)

    @pytest.mark.parametrize("radius", [2, 12])
    def test_every_radius_equals_the_live_derivation(self, tmp_path, radius):
        # A BA graph thinned into a few components, isolated nodes among
        # them: radius 2 caps its BFS, radius 12 outlasts every one of
        # them.  The stored row maxima capped at r are the eccentricities
        # of every radius the profile serves, read back from disk too.
        net = barabasi_albert(70, 2, seed=11)
        sub = net.subnetwork(sorted(net.edge_ids)[::3])
        profile = FloodProfile.build(sub, radius)
        assert profile.exhausted == (radius == 12)
        path = tmp_path / "profile.npz"
        profile.to_npz(path)
        loaded = FloodProfile.from_npz(path)
        for r in range(radius + 6):
            expected = flood_schedule(sub, r)
            for served in (profile, loaded):
                if r > radius and not served.exhausted:
                    assert not served.serves(r)
                    continue
                schedule = served.schedule(r)
                assert schedule.ecc == expected.ecc, r
                assert schedule.balls == expected.balls, r
                assert schedule == expected

    def test_profile_npz_round_trip(self, tmp_path):
        sub = torus(5, 5)
        profile = FloodProfile.build(sub, 5)
        path = tmp_path / "profile.npz"
        profile.to_npz(path)
        assert FloodProfile.from_npz(path) == profile

    def test_radius_beyond_profile_is_refused(self):
        profile = FloodProfile.build(torus(4, 4), 2)
        assert not profile.exhausted  # diameter 4: the cap cut it short
        with pytest.raises(ValueError, match="cannot serve"):
            profile.schedule(3)


class TestArtifactStore:
    def _net(self) -> Network:
        return erdos_renyi(40, 0.15, seed=6)

    def test_memory_layer_hits(self):
        store = ArtifactStore()
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        first, info1 = store.fetch_spanner(net, params)
        second, info2 = store.fetch_spanner(net, params)
        assert info1.source == "built" and info2.source == "memory"
        assert first is second  # shared immutable artifact
        assert store.stats.misses == 1 and store.stats.memory_hits == 1

    def test_disk_layer_survives_a_new_store(self, tmp_path):
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        cold = ArtifactStore(tmp_path)
        built, _ = cold.fetch_spanner(net, params)
        assert cold.stats.puts == 1
        warm = ArtifactStore(tmp_path)
        loaded, info = warm.fetch_spanner(net, params)
        assert info.source == "disk"
        assert loaded == built
        # atomic writes leave no temp droppings behind
        assert not [p for p in os.listdir(tmp_path) if ".tmp-" in p]

    def test_corrupt_entries_degrade_to_misses(self, tmp_path):
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        cold = ArtifactStore(tmp_path)
        built, _ = cold.fetch_spanner(net, params)
        for name in os.listdir(tmp_path):
            (tmp_path / name).write_bytes(b"\x00corrupt\x00")
        recovering = ArtifactStore(tmp_path)
        rebuilt, info = recovering.fetch_spanner(net, params)
        assert info.source == "built"
        assert recovering.stats.corrupt == 1
        assert rebuilt == built
        # ...and the rebuilt entry replaced the corrupt file
        fresh = ArtifactStore(tmp_path)
        assert fresh.fetch_spanner(net, params)[1].source == "disk"

    def test_failed_write_through_is_counted(self, tmp_path, monkeypatch):
        """A full disk degrades the entry to memory-only, counted."""

        def failing_save(path, result):
            path.write_bytes(b"partial")
            raise OSError("no space left on device")

        monkeypatch.setattr("repro.store.serialize.save_spanner", failing_save)
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        store = ArtifactStore(tmp_path)
        built, info = store.fetch_spanner(net, params)
        assert info.source == "built"
        assert built == build_spanner_distributed(net, params)
        again, info = store.fetch_spanner(net, params)
        assert info.source == "memory" and again is built
        assert store.stats.write_failures == 1
        assert store.stats.puts == 0
        assert not [p for p in os.listdir(tmp_path) if ".tmp-" in p]

    def test_concurrent_writes_of_one_key_both_land(self, tmp_path, monkeypatch):
        """Two threads writing one key at once each write their own temp
        file; sharing one made the second ``os.replace`` fail and count
        a write failure for a write that did not fail."""
        import threading

        from repro.store import serialize

        save = serialize.save_spanner
        both_written = threading.Barrier(2, timeout=30)

        def save_then_wait(path, result):
            save(path, result)
            both_written.wait()

        monkeypatch.setattr(serialize, "save_spanner", save_then_wait)
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        result = build_spanner_distributed(net, params)
        store = ArtifactStore(tmp_path)
        errors = []

        def put():
            try:
                store.put_spanner(result)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=put) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert store.stats.puts == 2
        assert store.stats.write_failures == 0
        assert not [p for p in os.listdir(tmp_path) if ".tmp-" in p]
        loaded, info = ArtifactStore(tmp_path).fetch_spanner(net, params)
        assert info.source == "disk"
        assert loaded == result

    def test_lru_evicts_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.store.store.LRU_CAPACITY", 1)
        store = ArtifactStore()
        net = self._net()
        store.fetch_spanner(net, SamplerParams(k=1, h=1, seed=1))
        store.fetch_spanner(net, SamplerParams(k=1, h=1, seed=2))
        assert store.stats.evictions == 1
        # The first artifact was evicted: fetching it again is a miss.
        store.fetch_spanner(net, SamplerParams(k=1, h=1, seed=1))
        assert store.stats.misses == 3

    def test_flood_schedule_truncation_and_extension(self):
        store = ArtifactStore()
        sub = torus(5, 5)
        _, built = store.fetch_flood_schedule(sub, 4)
        assert built.source == "built" and not built.extended
        assert not built.exhausted  # radius 4 = the diameter
        exact, hit = store.fetch_flood_schedule(sub, 4)
        assert hit.source == "memory" and not hit.truncated
        truncated, info = store.fetch_flood_schedule(sub, 2)
        assert info.source == "memory" and info.truncated
        assert truncated == flood_schedule(sub, 2)
        extended, info = store.fetch_flood_schedule(sub, 6)
        assert info.source == "built" and info.extended and info.exhausted
        assert extended == flood_schedule(sub, 6)
        # after the extension, the larger profile serves the old radius
        again, info = store.fetch_flood_schedule(sub, 4)
        assert info.source == "memory" and info.truncated
        assert again == exact

    def test_exhausted_profile_serves_a_larger_radius(self, tmp_path):
        sub = complete_graph(7)  # diameter 1: a radius-2 BFS ends early
        store = ArtifactStore(tmp_path)
        _, built = store.fetch_flood_schedule(sub, 2)
        assert built.source == "built" and built.exhausted
        misses = store.stats.misses
        larger, info = store.fetch_flood_schedule(sub, 6)
        assert info.source == "memory" and info.exhausted
        assert not info.extended and not info.truncated
        assert store.stats.misses == misses
        assert larger == flood_schedule(sub, 6)
        # a profile read back from disk is exhausted too
        warm = ArtifactStore(tmp_path)
        again, info = warm.fetch_flood_schedule(sub, 9)
        assert info.source == "disk" and info.exhausted
        assert warm.stats.misses == 0
        assert again == flood_schedule(sub, 9)

    def test_byte_budget_evicts_heavy_profiles(self, monkeypatch):
        # any profile overflows a one-byte budget
        monkeypatch.setattr("repro.store.store.MEMORY_BYTE_BUDGET", 1)
        store = ArtifactStore()
        a, b = torus(4, 4), torus(4, 5)
        store.fetch_flood_schedule(a, 2)
        store.fetch_flood_schedule(b, 2)  # evicts a's profile by weight
        assert store.stats.evictions == 1
        _, info = store.fetch_flood_schedule(b, 2)
        assert info.source == "memory"  # the newest entry is always kept
        _, info = store.fetch_flood_schedule(a, 2)
        assert info.source == "built"  # a was evicted, rebuilt on demand

    def test_disk_spanner_with_wrong_params_is_a_miss(self, tmp_path):
        # Same graph, different SamplerParams: a file moved under the
        # other key's path must not be served (the fingerprint alone
        # would pass; the store also pins the params).
        net = self._net()
        a = SamplerParams(k=1, h=1, seed=2)
        b = SamplerParams(k=1, h=2, seed=2)
        seeded = ArtifactStore(tmp_path)
        seeded.fetch_spanner(net, a)
        from repro.store.keys import spanner_key

        source = tmp_path / f"{spanner_key(net.fingerprint(), a)}.npz"
        target = tmp_path / f"{spanner_key(net.fingerprint(), b)}.npz"
        target.write_bytes(source.read_bytes())
        recovering = ArtifactStore(tmp_path)
        rebuilt, info = recovering.fetch_spanner(net, b)
        assert info.source == "built" and recovering.stats.corrupt == 1
        assert rebuilt.params == b

    def test_disk_profile_for_another_graph_is_a_miss(self, tmp_path):
        # A file renamed under another key's path (graph mismatch) must
        # degrade to a counted miss, never serve foreign distances.
        store = ArtifactStore(tmp_path)
        victim, impostor = torus(4, 4), torus(4, 5)
        store.fetch_flood_schedule(impostor, 2)
        from repro.store.keys import flood_key

        wrong = tmp_path / f"{flood_key(impostor.fingerprint())}.npz"
        right = tmp_path / f"{flood_key(victim.fingerprint())}.npz"
        right.write_bytes(wrong.read_bytes())
        recovering = ArtifactStore(tmp_path)
        schedule, info = recovering.fetch_flood_schedule(victim, 2)
        assert info.source == "built" and recovering.stats.corrupt == 1
        assert schedule == flood_schedule(victim, 2)

    def test_manifest_missing_graph_field_is_artifact_error(self, tmp_path):
        net = erdos_renyi(12, 0.3, seed=1)
        path = tmp_path / "holey.npz"
        manifest = {"schema": STORE_SCHEMA, "kind": "spanner"}  # no "graph"
        payload = json.dumps(manifest).encode("utf-8")
        with open(path, "wb") as handle:
            np.savez(handle, manifest=np.frombuffer(payload, dtype=np.uint8))
        with pytest.raises(ArtifactError, match="different graph"):
            SpannerResult.from_npz(path, net)

    def test_schema_1_file_under_a_current_key_is_a_counted_miss(self, tmp_path):
        # The upgrade path: a file in the schema-1 container (the manifest
        # a numpy unicode scalar, written by ``np.savez_compressed``) at a
        # current key's path is refused, rebuilt and overwritten.
        net = self._net()
        params = SamplerParams(k=1, h=1, seed=2)
        built, _ = ArtifactStore(tmp_path).fetch_spanner(net, params)
        path = tmp_path / f"{spanner_key(net.fingerprint(), params)}.npz"
        with np.load(path, allow_pickle=False) as data:
            manifest = json.loads(data["manifest"].tobytes())
            edges = data["edges"]
        manifest["schema"] = 1
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                manifest=np.asarray(json.dumps(manifest, sort_keys=True)),
                edges=edges,
            )
        recovering = ArtifactStore(tmp_path)
        rebuilt, info = recovering.fetch_spanner(net, params)
        assert info.source == "built"
        assert recovering.stats.corrupt == 1 and recovering.stats.misses == 1
        assert rebuilt == built
        loaded, info = ArtifactStore(tmp_path).fetch_spanner(net, params)
        assert info.source == "disk" and loaded == built

    def test_profile_cell_limit_bypasses_caching(self, monkeypatch):
        monkeypatch.setattr("repro.store.store.PROFILE_CELL_LIMIT", 10)
        store = ArtifactStore()
        sub = torus(4, 4)
        schedule, info = store.fetch_flood_schedule(sub, 3)
        assert info.source == "bypass"
        assert store.stats.bypasses == 1
        assert schedule == flood_schedule(sub, 3)
        assert PROFILE_CELL_LIMIT > 10  # the module constant is untouched

    def test_store_off_and_on_are_bit_identical(self):
        net = self._net()
        params = SamplerParams(k=1, h=2, seed=9)
        plain = run_one_stage(net, BallCollect(2), params=params, seed=5)
        store = ArtifactStore()
        cold = run_one_stage(net, BallCollect(2), params=params, seed=5, store=store)
        warm = run_one_stage(net, BallCollect(2), params=params, seed=5, store=store)
        assert plain == cold == warm

    def test_graph_diameter_memo(self):
        store = ArtifactStore()
        net = torus(4, 5)
        from repro.simulate.global_tasks import graph_diameter

        assert store.graph_diameter(net) == graph_diameter(net)
        assert store.graph_diameter(net) == graph_diameter(net)  # memo hit


class TestDefaultStore:
    def test_unset_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store() is None
        assert resolve_store(None) is None

    def test_env_enables_a_shared_disk_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        store = default_store()
        assert store is not None and store.directory == tmp_path
        assert default_store() is store  # one instance per configuration
        assert resolve_store(None) is store

    def test_explicit_store_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        mine = ArtifactStore()
        assert resolve_store(mine) is mine


class _FlakyLoader:
    """Wraps ``load_spanner``; raises ``exc`` for the first N calls."""

    def __init__(self, real, failures: int, exc=OSError):
        self.real = real
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self, path, network):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise self.exc("transient I/O glitch")
        return self.real(path, network)


class TestDiskRetries:
    """Transient I/O must cost at most a rebuild, never an exception."""

    def _seeded(self, tmp_path):
        net = erdos_renyi(30, 0.2, seed=4)
        params = SamplerParams(k=1, h=1, seed=2)
        cold = ArtifactStore(tmp_path)
        built, _ = cold.fetch_spanner(net, params)
        return net, params, built

    def test_one_transient_error_is_retried_to_a_hit(self, tmp_path, monkeypatch):
        net, params, built = self._seeded(tmp_path)
        from repro.store import serialize

        flaky = _FlakyLoader(serialize.load_spanner, failures=1)
        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        store = ArtifactStore(tmp_path)
        loaded, info = store.fetch_spanner(net, params)
        assert info.source == "disk"
        assert loaded == built
        assert store.stats.retries == 1
        assert store.stats.misses == 0 and store.stats.corrupt == 0
        assert store.stats.read_failures == 0  # the retry healed it
        assert flaky.calls == 2  # failed once, succeeded on the retry

    def test_persistent_errors_degrade_to_a_bounded_miss(self, tmp_path, monkeypatch):
        net, params, built = self._seeded(tmp_path)
        from repro.store import serialize

        flaky = _FlakyLoader(serialize.load_spanner, failures=10**9)
        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        store = ArtifactStore(tmp_path)
        rebuilt, info = store.fetch_spanner(net, params)
        assert info.source == "built"  # degraded, never raised
        assert rebuilt == built
        assert store.stats.retries == DISK_READ_RETRIES
        assert flaky.calls == DISK_READ_RETRIES + 1  # bounded, not forever
        assert store.stats.corrupt == 0  # transient ≠ corrupt
        assert store.stats.read_failures == 1  # the give-up is counted

    def test_read_that_gives_up_is_an_event(self, tmp_path, monkeypatch):
        """With no retry budget the first OSError gives up at once: one
        counted read failure and one ``store/read_failed`` event, unlike
        a plain miss on an empty directory."""
        net, params, built = self._seeded(tmp_path)
        from repro.store import serialize

        flaky = _FlakyLoader(serialize.load_spanner, failures=10**9)
        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        monkeypatch.setattr("repro.store.store.DISK_READ_RETRIES", 0)
        previous = obs.set_enabled(True)
        obs.collector().reset()
        try:
            store = ArtifactStore(tmp_path)
            rebuilt, info = store.fetch_spanner(net, params)
            records = obs.collector().finished()
        finally:
            obs.collector().reset()
            obs.set_enabled(previous)
        assert info.source == "built" and rebuilt == built
        assert flaky.calls == 1
        counted = {name: n for name, n in store.stats.snapshot().items() if n}
        assert counted == {"misses": 1, "puts": 1, "read_failures": 1}
        events = [r for r in records if r["name"] in ("store/read_failed", "store/retry")]
        key = spanner_key(net.fingerprint(), params)[:12]
        assert [(e["name"], e["attrs"]) for e in events] == [
            ("store/read_failed", {"key": key, "error": "OSError"})
        ]

    def test_deleted_underneath_is_a_plain_miss(self, tmp_path, monkeypatch):
        """A file raced away between exists() and open() burns no retries."""
        net, params, built = self._seeded(tmp_path)
        from repro.store import serialize

        flaky = _FlakyLoader(serialize.load_spanner, failures=1, exc=FileNotFoundError)
        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        store = ArtifactStore(tmp_path)
        rebuilt, info = store.fetch_spanner(net, params)
        assert info.source == "built"
        assert rebuilt == built
        assert store.stats.retries == 0 and store.stats.corrupt == 0
        assert store.stats.read_failures == 0  # a race, not a failed read


class TestRetryBudget:
    """``DISK_READ_RETRIES`` bounds the immediate re-reads of an entry."""

    def test_retry_budget_bounds_the_rereads(self, tmp_path, monkeypatch):
        net = erdos_renyi(30, 0.2, seed=4)
        params = SamplerParams(k=1, h=1, seed=2)
        ArtifactStore(tmp_path).fetch_spanner(net, params)
        from repro.store import serialize, store as store_module

        flaky = _FlakyLoader(serialize.load_spanner, failures=10**9)
        monkeypatch.setattr("repro.store.serialize.load_spanner", flaky)
        monkeypatch.setattr(store_module, "DISK_READ_RETRIES", 5)
        slept = []
        monkeypatch.setattr(store_module.time, "sleep", slept.append)
        store = ArtifactStore(tmp_path)
        _, info = store.fetch_spanner(net, params)
        assert info.source == "built"
        assert store.stats.retries == 5
        assert flaky.calls == 6
        assert slept == []  # no wait between re-reads


class TestStatsThreadSafety:
    """Counters.bump/snapshot hold one lock: concurrent counting is exact."""

    @pytest.mark.parametrize(
        "counters, names",
        [
            (StoreStats, ("misses", "retries")),
            (ServiceMetrics, ("requests", "simulation_messages")),
        ],
        ids=["StoreStats", "ServiceMetrics"],
    )
    def test_concurrent_bumps_are_not_lost(self, counters, names):
        import sys
        import threading
        import time

        stats = counters()
        first, second = names
        rounds = 2000

        def hammer():
            for _ in range(rounds):
                stats.bump(**{first: 1, second: 2})

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        torn = 0  # snapshots showing half of a bump
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
                snap = stats.snapshot()
                torn += snap[second] != 2 * snap[first]
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert torn == 0
        snap = stats.snapshot()
        assert snap[first] == 8 * rounds
        assert snap[second] == 16 * rounds
        # a misspelt name is refused before any counter moves
        typo = first[:-1]
        with pytest.raises(AttributeError, match=typo):
            stats.bump(**{first: 1, typo: 1})
        assert stats.snapshot() == snap

    def test_snapshot_carries_every_counter(self):
        snap = StoreStats().snapshot()
        for name in (
            "write_failures",
            "read_failures",
            "lock_contended",
            "lock_reclaimed",
            "chaos_injected",
        ):
            assert snap[name] == 0
