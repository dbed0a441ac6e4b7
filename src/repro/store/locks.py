"""Cross-process file locks for the artifact store (DESIGN.md §3.12).

Multiple worker processes sharing one store directory must
not duplicate a spanner build N ways, and — harder — a worker that
crashes mid-build must never wedge the store for everyone else.
:class:`FileLock` provides the per-artifact-key exclusion both
properties rest on:

* the authoritative exclusion is ``fcntl.flock`` on a per-key
  ``<key>.lock`` file.  The kernel releases a flock when its holder
  dies *for any reason*, so a crashed builder can never leave the
  store permanently locked — wedge-freedom is by construction, not by
  timeout tuning;
* the lock file additionally records its owner's pid.  A holder that
  *releases cleanly* wipes the record first; a holder that crashed
  leaves it behind.  The next acquirer therefore knows it is
  *reclaiming* a dead owner's lock (``reclaimed`` flag, checked
  against pid liveness via ``os.kill(pid, 0)``) rather than taking a
  free one — the store counts these in ``StoreStats.lock_reclaimed``,
  making every crash visible in metrics;
* contention (a live holder) is waited out with jittered
  exponential backoff, bounded by ``timeout`` —
  :class:`LockTimeout` after that, never an unbounded block.

Lock files are never unlinked: unlink-while-held is the classic flock
race (two processes each holding "the" lock on different inodes), and
one empty ``<key>.lock`` per artifact is cheap.  On platforms without
``fcntl`` the same protocol runs on ``O_EXCL`` file creation with
pid-liveness reclamation — weaker (reclaim itself can race) but the
repo's platforms are POSIX; the fallback just keeps imports working.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

try:  # POSIX; the O_EXCL fallback below covers the rest
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.errors import ReproError
from repro.rng import stable_uniform

__all__ = ["FileLock", "LockTimeout", "pid_alive", "plant_stale_lock"]

DEFAULT_TIMEOUT = 60.0  # generous: a build is seconds, not minutes
_POLL_BASE = 0.01  # first backoff step while contended
_POLL_CAP = 0.25  # exponential backoff ceiling per wait


class LockTimeout(ReproError):
    """A lock's live holder outlasted the acquirer's patience."""


def pid_alive(pid: int) -> bool:
    """Owner-pid liveness: is any process with this pid running?

    ``PermissionError`` means the pid exists under another user —
    alive.  Out-of-range pids count as dead (they cannot be running).
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - container runs as root
        return True
    except OverflowError:
        return False
    return True


def plant_stale_lock(path: str | os.PathLike) -> None:
    """Write a lock file recording a dead owner — a faked crash.

    This is the chaos hook's lever: the file claims an owner whose pid
    can never be live (above any Linux ``pid_max``), with no flock held
    on it, exactly the state a builder killed mid-build leaves behind.
    The next :meth:`FileLock.acquire` must detect and reclaim it.
    """
    dead = {"pid": 2**30 + 1, "host": os.uname().nodename if hasattr(os, "uname") else ""}
    Path(path).write_text(json.dumps(dead), encoding="utf-8")


class FileLock:
    """One cross-process mutex on a lock-file path.

    Usage::

        with FileLock(path, timeout=5.0) as lock:
            ...  # exclusive among processes AND threads
        lock.contended  # a live holder made us wait
        lock.reclaimed  # the previous owner died holding the lock

    Reentrant acquisition is not supported (one acquire per instance);
    the store creates a fresh instance per critical section.
    """

    def __init__(
        self, path: str | os.PathLike, *, timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self._fd: int | None = None
        self.contended = False
        self.reclaimed = False

    # ------------------------------------------------------------------
    def acquire(self) -> "FileLock":
        if self._fd is not None:
            raise ReproError(f"lock {self.path} already held by this instance")
        started = time.monotonic()
        attempt = 0
        while True:
            if self._try_acquire():
                return self
            self.contended = True
            elapsed = time.monotonic() - started
            remaining = self.timeout - elapsed
            if remaining <= 0:
                raise LockTimeout(
                    f"lock {self.path} still held after {self.timeout:.1f}s"
                )
            time.sleep(min(self._wait(attempt), remaining))
            attempt += 1

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        try:
            if fcntl is not None:
                # Clean release: wipe the owner record *before* giving
                # up the flock, so the next acquirer never mistakes a
                # clean handover for a crash.
                os.ftruncate(fd, 0)
                fcntl.flock(fd, fcntl.LOCK_UN)
            else:  # pragma: no cover - non-POSIX
                self.path.unlink(missing_ok=True)
        except OSError:
            pass
        finally:
            os.close(fd)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _wait(self, attempt: int) -> float:
        """Jittered exponential backoff between acquisition polls.

        Deterministic per (path, attempt) so contention tests replay
        exactly; the jitter de-synchronizes a herd of followers that
        all saw the lock drop at once.
        """
        step = min(_POLL_BASE * (2**attempt), _POLL_CAP)
        jitter = stable_uniform(0, ("lock", self.path.name, attempt))
        return step * (0.5 + jitter)

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            return self._try_flock()
        return self._try_excl()  # pragma: no cover - non-POSIX

    def _try_flock(self) -> bool:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        # The flock is ours.  Any owner record still in the file means
        # the previous holder never released cleanly — it died holding
        # the lock (the kernel freed the flock for us).  Confirm with
        # pid liveness and surface it as a reclamation.
        owner = self._read_owner(fd)
        if owner is not None and not pid_alive(owner):
            self.reclaimed = True
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, json.dumps({"pid": os.getpid()}).encode("ascii"), 0)
        except OSError:  # metadata is best-effort; the flock is the lock
            pass
        self._fd = fd
        return True

    def _try_excl(self) -> bool:  # pragma: no cover - non-POSIX fallback
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o644)
        except FileExistsError:
            owner = self._read_owner_path()
            if owner is not None and pid_alive(owner):
                return False  # genuinely held
            # dead owner (or unreadable record): reclaim, then race for
            # the recreate — losers land back in FileExistsError above
            try:
                self.path.unlink()
            except OSError:
                return False
            self.reclaimed = True
            return self._try_excl()
        os.pwrite(fd, json.dumps({"pid": os.getpid()}).encode("ascii"), 0)
        self._fd = fd
        return True

    @staticmethod
    def _read_owner(fd: int) -> int | None:
        """The recorded owner pid, or None for a clean (empty) file.

        An unreadable/garbled record claims pid 0 — never alive, so it
        degrades to a reclaim rather than an error or a silent skip.
        """
        try:
            raw = os.pread(fd, 4096, 0)
        except OSError:
            return 0
        if not raw.strip():
            return None
        try:
            return int(json.loads(raw)["pid"])
        except (ValueError, KeyError, TypeError):
            return 0

    def _read_owner_path(self) -> int | None:  # pragma: no cover - non-POSIX
        try:
            raw = self.path.read_bytes()
        except OSError:
            return None
        if not raw.strip():
            return 0
        try:
            return int(json.loads(raw)["pid"])
        except (ValueError, KeyError, TypeError):
            return 0
