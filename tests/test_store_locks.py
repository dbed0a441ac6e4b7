"""Cross-process store locking: exclusion, reclamation, wedge-freedom.

The contract under test (ISSUE 9 / DESIGN.md §3.12): multiple workers
sharing one store directory coalesce builds through per-key ``fcntl``
locks, and a worker that crashes mid-build leaves a *reclaimable* lock
— detected via owner-pid liveness and counted — never a wedged store.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import SamplerParams
from repro.graphs import complete_graph, erdos_renyi
from repro.simulate import flood_schedule
from repro.store import (
    ArtifactStore,
    FileLock,
    FloodProfile,
    LockTimeout,
    flood_key,
    pid_alive,
    plant_stale_lock,
    spanner_key,
)

PARAMS = SamplerParams(k=1, h=2, seed=13)


@pytest.fixture
def net():
    return erdos_renyi(40, 0.15, seed=8)


class TestFileLock:
    def test_exclusion_between_threads(self, tmp_path):
        """Two FileLock instances on one path never overlap.

        ``flock`` is per open file description, so separate instances
        exclude each other even within one process — which is what lets
        the store use one mechanism for threads and processes alike.
        """
        path = tmp_path / "a.lock"
        state = {"active": 0, "peak": 0}
        guard = threading.Lock()

        def hold():
            with FileLock(path, timeout=5.0):
                with guard:
                    state["active"] += 1
                    state["peak"] = max(state["peak"], state["active"])
                time.sleep(0.01)
                with guard:
                    state["active"] -= 1

        threads = [threading.Thread(target=hold) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["active"] == 0
        assert state["peak"] == 1

    def test_contended_flag_and_timeout(self, tmp_path):
        path = tmp_path / "a.lock"
        first = FileLock(path).acquire()
        try:
            late = FileLock(path, timeout=0.05)
            with pytest.raises(LockTimeout):
                late.acquire()
            assert late.contended
        finally:
            first.release()

    def test_clean_release_is_not_a_reclaim(self, tmp_path):
        path = tmp_path / "a.lock"
        with FileLock(path) as first:
            assert not first.reclaimed
        with FileLock(path) as second:
            assert not second.reclaimed and not second.contended

    def test_lock_file_survives_release(self, tmp_path):
        """Never unlinked — the classic flock-unlink race is ruled out."""
        path = tmp_path / "a.lock"
        with FileLock(path):
            pass
        assert path.exists()
        assert path.read_bytes().strip() == b""  # owner record wiped

    def test_planted_stale_lock_is_reclaimed(self, tmp_path):
        path = tmp_path / "a.lock"
        plant_stale_lock(path)
        with FileLock(path, timeout=1.0) as lock:
            assert lock.reclaimed
        # the reclaim healed the file: next acquire is clean
        with FileLock(path, timeout=1.0) as lock:
            assert not lock.reclaimed

    def test_garbled_owner_record_degrades_to_reclaim(self, tmp_path):
        path = tmp_path / "a.lock"
        path.write_bytes(b"\x00not json\x00")
        with FileLock(path, timeout=1.0) as lock:
            assert lock.reclaimed

    def test_holder_records_its_pid(self, tmp_path):
        path = tmp_path / "a.lock"
        with FileLock(path):
            assert json.loads(path.read_bytes())["pid"] == os.getpid()

    def test_double_acquire_refused(self, tmp_path):
        lock = FileLock(tmp_path / "a.lock").acquire()
        try:
            with pytest.raises(Exception):
                lock.acquire()
        finally:
            lock.release()


class TestPidLiveness:
    def test_own_pid_is_alive(self):
        assert pid_alive(os.getpid())

    def test_impossible_pids_are_dead(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)
        assert not pid_alive(2**30 + 1)
        assert not pid_alive(2**80)  # OverflowError path


def _hold_lock_forever(path, held):
    """Child-process body: take the lock, report, never release."""
    FileLock(path).acquire()
    held.set()
    time.sleep(120)  # killed long before this elapses


class TestCrashedHolder:
    def test_killed_holder_is_reclaimed(self, tmp_path):
        """SIGKILL mid-hold leaves a reclaimable lock, not a wedge."""
        path = tmp_path / "a.lock"
        ctx = multiprocessing.get_context("fork")
        held = ctx.Event()
        child = ctx.Process(target=_hold_lock_forever, args=(path, held))
        child.start()
        try:
            assert held.wait(timeout=10.0), "child never took the lock"
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10.0)
            lock = FileLock(path, timeout=5.0).acquire()
            try:
                # The kernel freed the flock at the kill; the unclean
                # owner record identifies the acquisition as a reclaim.
                assert lock.reclaimed
            finally:
                lock.release()
        finally:
            if child.is_alive():  # pragma: no cover - cleanup on failure
                child.kill()
                child.join()


class TestStoreLocking:
    def test_build_takes_and_releases_the_key_lock(self, net, tmp_path):
        store = ArtifactStore(tmp_path)
        store.fetch_spanner(net, PARAMS)
        lock_path = store._lock_path(spanner_key(net.fingerprint(), PARAMS))
        assert lock_path.exists()
        # released cleanly: immediately re-acquirable, no reclaim
        with FileLock(lock_path, timeout=1.0) as lock:
            assert not lock.contended and not lock.reclaimed

    def test_stale_key_lock_is_reclaimed_and_counted(self, net, tmp_path):
        store = ArtifactStore(tmp_path)
        lock_path = store._lock_path(spanner_key(net.fingerprint(), PARAMS))
        plant_stale_lock(lock_path)
        result, info = store.fetch_spanner(net, PARAMS)
        assert info.source == "built"
        assert store.stats.lock_reclaimed == 1

    def test_live_holder_timeout_degrades_to_unlocked_build(
        self, net, tmp_path, monkeypatch
    ):
        """A wedged-looking (live) holder costs duplicate work, never a
        wedged store: the fetch still completes, contention is counted."""
        monkeypatch.setattr("repro.store.store.BUILD_LOCK_TIMEOUT", 0.05)
        store = ArtifactStore(tmp_path)
        lock_path = store._lock_path(spanner_key(net.fingerprint(), PARAMS))
        holder = FileLock(lock_path).acquire()
        try:
            result, info = store.fetch_spanner(net, PARAMS)
        finally:
            holder.release()
        assert info.source == "built"
        assert store.stats.lock_contended >= 1

    def test_contended_reread_serves_an_exhausted_profile(self, tmp_path, monkeypatch):
        """While this fetch waits on a live holder, the holder writes a
        smaller but exhausted profile; the re-read serves the larger
        radius from it instead of building."""
        sub = complete_graph(6)
        store = ArtifactStore(tmp_path)
        store.fetch_flood_schedule(sub, 0)  # cached, but cannot serve 5
        key = flood_key(sub.fingerprint())
        holder = FileLock(store._lock_path(key)).acquire()

        def hand_over(lock, attempt):
            FloodProfile.build(sub, 2).to_npz(store._entry_path(key))
            holder.release()
            return 0.0

        monkeypatch.setattr(FileLock, "_wait", hand_over)
        schedule, info = store.fetch_flood_schedule(sub, 5)
        assert info.source == "disk" and info.exhausted and not info.extended
        assert store.stats.lock_contended == 1
        assert store.stats.misses == 1  # the radius-0 build only
        assert schedule == flood_schedule(sub, 5)

    def test_memory_only_store_never_locks(self, net):
        store = ArtifactStore()
        result, info = store.fetch_spanner(net, PARAMS)
        assert info.source == "built"
        assert store.stats.lock_contended == 0
