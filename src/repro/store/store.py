"""The content-addressed artifact store (DESIGN.md §3.8).

:class:`ArtifactStore` memoizes the message-expensive, payload-
independent artifacts of the paper's two-stage scheme — the distributed
``Sampler`` construction (:class:`~repro.core.spanner.SpannerResult`,
built on a miss by the level kernel and priced in messages and rounds,
DESIGN.md §3.15)
and the Lemma 12 flood schedule in its extendable
:class:`~repro.store.serialize.FloodProfile` form — keyed by
:meth:`Network.fingerprint` plus the parameters that determine each
artifact (:mod:`repro.store.keys`).  Two layers:

* an in-memory LRU (:data:`LRU_CAPACITY` entries and
  :data:`MEMORY_BYTE_BUDGET` weighed bytes);
* an optional on-disk directory, the one constructor argument.  Writes
  are atomic (temp file + ``os.replace``) so a crashed writer never
  leaves a half entry; reads are corruption-tolerant — any unreadable,
  schema-mismatched or wrong-graph entry counts as a miss and is
  rebuilt, never raised.

There is one get-or-build method per artifact,
:meth:`ArtifactStore.fetch_spanner` and
:meth:`ArtifactStore.fetch_flood_schedule`; each returns the artifact
plus a :class:`FetchInfo` provenance record, which the simulation
service (the store's one consumer) turns into hit/miss/amortization
metrics.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro import obs
from repro.core import accounting
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.local.network import Network
from repro.simulate.tlocal import FloodSchedule
from repro.store import serialize
from repro.store.chaos import chaos_from_env
from repro.store.keys import flood_key, spanner_key
from repro.store.locks import FileLock, LockTimeout
from repro.store.locks import plant_stale_lock as _plant_stale_lock
from repro.store.serialize import ArtifactError, FloodProfile

__all__ = ["ArtifactStore", "FetchInfo", "StoreStats"]

# A flood profile's distance matrix has n^2 cells; beyond this budget
# the store derives schedules directly instead of caching the profile
# (an int16 matrix at the limit is ~128 MB — fine once, not per entry).
PROFILE_CELL_LIMIT = 1 << 26
# Entries the in-memory LRU holds, whatever they weigh.
LRU_CAPACITY = 64
# Total weighed bytes the in-memory LRU may pin (flood profiles report
# their array footprint via FloodProfile.nbytes(); other artifacts are
# Python object graphs the store cannot meaningfully weigh and count as
# zero, so LRU_CAPACITY bounds those).
MEMORY_BYTE_BUDGET = 1 << 28

# How many times a disk read is retried after a transient OSError
# before the entry degrades to a miss.  Small and bounded: a flaky NFS
# mount gets a second chance, a dead disk cannot stall the service.
# The re-reads are immediate.
DISK_READ_RETRIES = 2

# How long one process waits on another's in-progress build of the same
# artifact before giving up on sharing and building its own copy.  The
# timeout degrades to duplicate *work*, never to corruption: writes stay
# atomic regardless, so the worst case is two identical entries raced
# through ``os.replace``.
BUILD_LOCK_TIMEOUT = 60.0


class FetchInfo(NamedTuple):
    """Where an artifact came from, for hit/miss accounting."""

    source: str  # "memory" | "disk" | "built" | "bypass"
    truncated: bool = False  # schedule served from a larger-radius profile
    extended: bool = False  # profile rebuilt because the radius grew
    exhausted: bool = False  # profile complete: it serves every radius


def _served(source: str, profile: FloodProfile, radius: int) -> FetchInfo:
    """Provenance of a schedule a cached profile served."""
    return FetchInfo(
        source, truncated=radius < profile.radius, exhausted=profile.exhausted
    )


class StoreStats(obs.Counters):
    """Cumulative counters over one store's lifetime (thread-safe, see
    :class:`repro.obs.Counters`): a snapshot taken while worker threads
    hammer the store never shows, say, a retry whose miss is missing."""

    NAMES = (
        "memory_hits",
        "disk_hits",
        "misses",
        "evictions",
        "corrupt",
        "puts",
        "write_failures",
        "read_failures",
        "bypasses",
        "retries",
        "lock_contended",
        "lock_reclaimed",
        "chaos_injected",
    )


@dataclass
class _Lru:
    """Insertion-ordered dict LRU over ``(value, weight)`` entries.

    Evicts past either bound: entry count (:data:`LRU_CAPACITY`) or
    total weighed bytes (:data:`MEMORY_BYTE_BUDGET`) — flood profiles
    carry real array footprints, so counting entries alone would let a
    sweep over many large spanners pin gigabytes.
    """

    entries: dict = field(default_factory=dict)
    weighed_bytes: int = 0

    def get(self, key: str):
        entry = self.entries.pop(key, None)
        if entry is None:
            return None
        self.entries[key] = entry  # re-insert as most recent
        return entry[0]

    def put(self, key: str, value, weight: int = 0) -> int:
        """Insert; returns how many entries were evicted."""
        stale = self.entries.pop(key, None)
        if stale is not None:
            self.weighed_bytes -= stale[1]
        self.entries[key] = (value, weight)
        self.weighed_bytes += weight
        evicted = 0
        # Keep at least the just-inserted entry: anything the cell
        # limit admitted is worth holding even over the byte budget.
        while len(self.entries) > 1 and (
            len(self.entries) > LRU_CAPACITY
            or self.weighed_bytes > MEMORY_BYTE_BUDGET
        ):
            oldest = next(iter(self.entries))
            _, dropped = self.entries.pop(oldest)
            self.weighed_bytes -= dropped
            evicted += 1
        return evicted


class ArtifactStore:
    """Memoizes payload-independent simulation artifacts.

    Artifacts handed out by the store are shared objects — the
    simulator's result types are immutable by convention (frozen
    dataclasses over frozensets/tuples/arrays no consumer writes to),
    so one cached :class:`SpannerResult` safely serves any number of
    concurrent payload simulations.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        """``path`` is the on-disk layer's directory (``None`` keeps the
        store in memory).  The ``REPRO_STORE_CHAOS`` plan, if any, is
        read here — see :mod:`repro.store.chaos`."""
        self._dir = Path(path) if path is not None else None
        self._lru = _Lru()
        self.stats = StoreStats()
        self.chaos = chaos_from_env()
        # Guards the in-memory layer (LRU order, chaos tick); disk
        # reads/writes run outside it — they are atomic on their own.
        self._mem_lock = threading.RLock()
        self._tick = 0

    # ------------------------------------------------------------------
    # spanners
    # ------------------------------------------------------------------
    def fetch_spanner(
        self, network: Network, params: SamplerParams
    ) -> tuple[SpannerResult, FetchInfo]:
        """Get-or-build the spanner of ``network`` under ``params``.

        A miss runs :func:`~repro.core.accounting.build_spanner_priced`:
        the level kernel, priced.  Its result equals what the metered
        distributed run returns, messages and rounds included
        (DESIGN.md §3.15), so an artifact serves every consumer of the
        distributed construction.
        """
        if not obs.enabled():
            return self._fetch_spanner_impl(network, params)
        with obs.span("store/fetch_spanner", n=network.n) as fetch_span:
            result, info = self._fetch_spanner_impl(network, params)
            fetch_span.set(source=info.source)
        return result, info

    def _fetch_spanner_impl(
        self, network: Network, params: SamplerParams
    ) -> tuple[SpannerResult, FetchInfo]:
        cached, info = self.peek_spanner(network, params)
        if cached is not None:
            return cached, info
        key = spanner_key(network.fingerprint(), params)
        with self._build_lock(key) as lock:
            # Re-check only after waiting out a *live* holder — it was
            # building exactly this entry, so the miss is now a disk
            # hit.  An uncontended (or reclaimed-from-a-dead-holder)
            # acquisition cannot have new disk state, and skipping the
            # probe keeps serial hit/miss/corrupt counts exact.
            if lock is not None and lock.contended:
                cached, info = self.peek_spanner(network, params)
                if cached is not None:
                    return cached, info
            self.stats.bump(misses=1)
            built = accounting.build_spanner_priced(network, params)
            self.put_spanner(built)
        return built, FetchInfo("built")

    def peek_spanner(
        self, network: Network, params: SamplerParams
    ) -> tuple[SpannerResult | None, FetchInfo | None]:
        """Cache-only spanner lookup: ``(None, None)`` instead of a build.

        Hits are counted; a miss is *not* (the caller decides what a
        failed peek becomes — the service's repair path, for example,
        peeks ancestors without charging a miss per probe).
        """
        key = spanner_key(network.fingerprint(), params)
        with self._mem_lock:
            cached = self._lru.get(key)
        if cached is not None:
            self.stats.bump(memory_hits=1)
            return cached, FetchInfo("memory")
        loaded = self._load(key, self._checked_spanner, network, params)
        if loaded is not None:
            self.stats.bump(disk_hits=1)
            self._remember(key, loaded)
            return loaded, FetchInfo("disk")
        return None, None

    def put_spanner(self, result: SpannerResult) -> None:
        """Insert an externally built (or repaired) spanner, write-through.

        Keyed under the result's *own* graph fingerprint — a repaired
        spanner lands under the post-churn fingerprint, exactly where a
        later :meth:`fetch_spanner` on the mutated graph looks.
        """
        key = spanner_key(result.network.fingerprint(), result.params)
        self._remember(key, result)
        self._persist(key, serialize.save_spanner, result)

    def note_miss(self) -> None:
        """Count a miss decided outside :meth:`fetch_spanner` (e.g. a
        failed peek the service answered by repair instead of build)."""
        self.stats.bump(misses=1)

    # ------------------------------------------------------------------
    # flood schedules
    # ------------------------------------------------------------------
    def fetch_flood_schedule(
        self, spanner: Network, radius: int
    ) -> tuple[FloodSchedule, FetchInfo]:
        """Get-or-build the Lemma 12 flood schedule for ``spanner``.

        One :class:`FloodProfile` entry per spanner holds the largest
        radius requested so far: a smaller radius is served by
        truncation, a larger one by the same profile when it is
        exhausted, and otherwise rebuilds (extends) the profile.
        Profiles whose ``n^2`` exceeds :data:`PROFILE_CELL_LIMIT` are
        never cached — the schedule is derived directly (a "bypass"),
        bounding the store's memory at large ``n``.
        """
        if not obs.enabled():
            return self._fetch_flood_impl(spanner, radius)
        with obs.span(
            "store/fetch_flood_schedule", radius=int(radius)
        ) as fetch_span:
            schedule, info = self._fetch_flood_impl(spanner, radius)
            fetch_span.set(source=info.source, exhausted=info.exhausted)
        return schedule, info

    def _fetch_flood_impl(
        self, spanner: Network, radius: int
    ) -> tuple[FloodSchedule, FetchInfo]:
        from repro.simulate.tlocal import flood_schedule as derive

        radius = max(0, radius)
        if spanner.n * spanner.n > PROFILE_CELL_LIMIT:
            self.stats.bump(bypasses=1)
            return derive(spanner, radius), FetchInfo("bypass")
        fingerprint = spanner.fingerprint()
        key = flood_key(fingerprint)
        with self._mem_lock:
            profile = self._lru.get(key)
        source = "memory"
        if profile is None:
            profile = self._load(key, self._checked_profile, fingerprint)
            source = "disk"
            if profile is not None:
                self._remember(key, profile)
        if profile is not None and profile.serves(radius):
            self.stats.bump(**{f"{source}_hits": 1})
            return profile.schedule(radius), _served(source, profile, radius)
        extended = profile is not None  # cached, but radius outgrew it
        with self._build_lock(key) as lock:
            # A waited-out live holder may have written a large-enough
            # profile; re-read before building (and only then — see the
            # matching note in fetch_spanner).
            if lock is not None and lock.contended:
                fresh = self._load(key, self._checked_profile, fingerprint)
                if fresh is not None and fresh.serves(radius):
                    self.stats.bump(disk_hits=1)
                    self._remember(key, fresh)
                    return fresh.schedule(radius), _served("disk", fresh, radius)
            self.stats.bump(misses=1)
            profile = FloodProfile.build(spanner, radius)
            self._remember(key, profile)
            self._persist(key, lambda path, p: p.to_npz(path), profile)
        return profile.schedule(radius), FetchInfo(
            "built", extended=extended, exhausted=profile.exhausted
        )

    @staticmethod
    def _checked_spanner(path, network: Network, params: SamplerParams) -> SpannerResult:
        """Load a spanner artifact and verify it matches its key.

        ``load_spanner`` itself pins the graph fingerprint; the store
        additionally pins the construction parameters, so an artifact
        file moved under another key's path (same graph, different
        params) degrades to a counted miss instead of serving a spanner
        built under the wrong configuration.
        """
        result = serialize.load_spanner(path, network)
        if result.params != params:
            raise ArtifactError(
                f"artifact {path} was built with {result.params}, "
                f"expected {params}"
            )
        return result

    @staticmethod
    def _checked_profile(path, fingerprint: str) -> FloodProfile:
        """Load a profile and verify it matches the requesting spanner.

        A file copied or renamed under another key's path must degrade
        to a counted miss, exactly like the spanner loader's
        fingerprint check — never serve another graph's distances.
        """
        profile = FloodProfile.from_npz(path)
        if profile.fingerprint != fingerprint:
            raise ArtifactError(
                f"artifact {path} holds a profile for graph "
                f"{profile.fingerprint[:12]}…, expected {fingerprint[:12]}…"
            )
        return profile

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def _remember(self, key: str, value) -> None:
        weight = value.nbytes() if isinstance(value, FloodProfile) else 0
        with self._mem_lock:
            evicted = self._lru.put(key, value, weight)
        if evicted:
            self.stats.bump(evictions=evicted)

    def _entry_path(self, key: str) -> Path:
        return self._dir / f"{key}.npz"

    def _lock_path(self, key: str) -> Path:
        return self._dir / f"{key}.lock"

    def _next_tick(self) -> int:
        """Monotone per-store counter feeding the chaos plan's coins."""
        with self._mem_lock:
            self._tick += 1
            return self._tick

    @contextmanager
    def _build_lock(self, key: str):
        """Cross-process exclusion around one artifact key's build.

        Yields with the per-key ``fcntl`` lock held (a memory-only store
        yields immediately: it has no other process to share with).
        Contention and dead-holder reclamation are counted; a holder
        that outlives :data:`BUILD_LOCK_TIMEOUT` degrades this caller to
        an *unlocked* build — duplicate work through the atomic write
        path, never a wedged store and never corruption.
        """
        if self._dir is None:
            yield None
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self._lock_path(key)
        if self.chaos is not None and self.chaos.plant_stale_lock(
            key, self._next_tick()
        ) and not path.exists():
            _plant_stale_lock(path)
            self.stats.bump(chaos_injected=1)
        lock = FileLock(path, timeout=BUILD_LOCK_TIMEOUT)
        try:
            lock.acquire()
        except LockTimeout:
            self.stats.bump(lock_contended=1)
            obs.event("store/lock_timeout", key=key[:12])
            yield None
            return
        try:
            self.stats.bump(
                lock_contended=int(lock.contended),
                lock_reclaimed=int(lock.reclaimed),
            )
            if lock.contended:
                obs.event("store/lock_contended", key=key[:12])
            if lock.reclaimed:
                obs.event("store/lock_reclaimed", key=key[:12])
            yield lock
        finally:
            lock.release()

    def _load(self, key: str, loader, *args):
        """Disk lookup; any damage is a miss, never an exception.

        Corruption (``ArtifactError``) is a permanent counted miss.  A
        transient ``OSError`` earns up to :data:`DISK_READ_RETRIES`
        immediate re-reads (counted in ``stats.retries``) before the
        entry likewise degrades to a miss, counted in
        ``stats.read_failures`` — flaky I/O may cost a rebuild, but it
        can never raise out of the store.  An active
        :class:`ChaosPlan` injects its faults here, upstream of the same
        handling paths real damage takes.
        """
        if self._dir is None:
            return None
        path = self._entry_path(key)
        if not path.exists():
            return None
        retries = DISK_READ_RETRIES
        for attempt in range(retries + 1):
            try:
                if self.chaos is not None:
                    self._inject_load_chaos(key)
                return loader(path, *args)
            except ArtifactError:
                self.stats.bump(corrupt=1)
                obs.event("store/corrupt", key=key[:12])
                return None
            except FileNotFoundError:
                return None  # raced away since exists(): a plain miss
            except OSError as exc:
                if attempt >= retries:
                    self.stats.bump(read_failures=1)
                    obs.event(
                        "store/read_failed", key=key[:12], error=type(exc).__name__
                    )
                    return None
                self.stats.bump(retries=1)
                obs.event("store/retry", key=key[:12], attempt=attempt)
        return None

    def _inject_load_chaos(self, key: str) -> None:
        """Apply the chaos plan to one disk-read attempt.

        Faults are raised *as* the exceptions real damage produces —
        ``OSError`` for flaky/cursed I/O, ``ArtifactError`` for a
        corrupt entry — so they exercise exactly the retry/degrade
        machinery above, and each injection is counted.
        """
        tick = self._next_tick()
        delay = self.chaos.load_delay(key, tick)
        if delay > 0:
            self.stats.bump(chaos_injected=1)
            time.sleep(delay)
        fault = self.chaos.load_fault(key, tick)
        if fault == "oserror":
            self.stats.bump(chaos_injected=1)
            obs.event("store/chaos", fault="oserror", key=key[:12])
            raise OSError(f"chaos: injected I/O failure for {key[:12]}…")
        if fault == "corrupt":
            self.stats.bump(chaos_injected=1)
            obs.event("store/chaos", fault="corrupt", key=key[:12])
            raise ArtifactError(f"chaos: injected corrupt read for {key[:12]}…")

    def _persist(self, key: str, saver, artifact) -> None:
        """Atomic write-through; I/O failure degrades to memory-only,
        counted in ``stats.write_failures``."""
        if self._dir is None:
            return
        path = self._entry_path(key)
        # One temp file per writer: two threads writing one key at once
        # must not truncate each other's file or race one os.replace.
        tmp = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        )
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            saver(tmp, artifact)
            os.replace(tmp, path)
            self.stats.bump(puts=1)
        except OSError as exc:
            # A full or read-only disk must not take the service down;
            # the entry stays in memory and the failure is counted.
            self.stats.bump(write_failures=1)
            obs.event("store/write_failed", key=key[:12], error=type(exc).__name__)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

