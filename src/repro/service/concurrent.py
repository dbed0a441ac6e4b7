"""The hardened concurrent serving front (DESIGN.md §3.12).

:class:`ConcurrentSimulationService` puts the amortization story of
:class:`~repro.service.service.SimulationService` under concurrent
load: thousands of in-flight :class:`SimulationRequest`\\ s from many
threads (and, through the store's file locks, many processes) share
one artifact build instead of trampling each other.  Two layers,
outermost first:

* a **batching window** (``merge_window`` seconds) merges *identical*
  requests — equal :meth:`SimulationRequest.identity` — across callers
  into one shared replay; it is the serving stack's only dedupe layer.
  Followers wait on the in-flight serve, repeats within the window
  reuse the completed response; both are counted ``merged``;
* the **serve slot**: the inner service's replay machinery is
  single-threaded by design, so actual serves serialize through one
  lock.  It is also the in-process build gate: N requests racing one
  *cold* graph enter the slot one at a time, the first pays the
  spanner construction and every later one finds the spanner cached —
  exactly one build.  Throughput under concurrency comes from the
  window doing fewer serves, not from racing the interpreter.

Every wait honours a per-call **deadline** (``deadline=`` on
:meth:`~ConcurrentSimulationService.submit`): waiting on a merge or the
serve slot past the deadline raises :class:`~repro.errors.ServiceTimeout`
and counts ``timeouts`` — a bounded, counted refusal, never an unbounded
block, and never a half-served response.

Each request leaves a :class:`RequestTrace` span record (outcome,
phase timings, fetch provenance) — the structured complement to the
cumulative :class:`ServiceMetrics` counters.  The front keeps the
newest :data:`TRACE_CAPACITY` of them in
:attr:`ConcurrentSimulationService.traces`; ``obs.write_jsonl((t.to_record()
for t in front.traces), path)`` exports them as JSON lines.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.algorithms.base import LocalAlgorithm
from repro.core.params import SamplerParams
from repro.errors import ServiceTimeout
from repro.local.network import Network
from repro.service.service import (
    ServiceMetrics,
    SimulationRequest,
    SimulationResponse,
    SimulationService,
)
from repro.store.store import ArtifactStore

__all__ = [
    "ConcurrentSimulationService",
    "RequestTrace",
    "ServiceTimeout",
]

# The recently-completed side of the batching window is pruned by age
# (merge_window seconds) on every registration.  On every publish it is
# also held, oldest first, to the caps below, against a caller that
# floods distinct tokens faster than they age out: an entry count, and
# the node outputs the retained responses hold (2**16 is about 32
# responses at n = 2000), so large graphs cannot pin gigabytes.
_RECENT_CAP = 256
_RECENT_OUTPUTS = 1 << 16

# The front keeps the request traces of its newest TRACE_CAPACITY
# requests (read when a front is constructed); older ones are dropped, so
# a long-lived front holds a bounded trace list (about 24 MiB at 1 << 16).
TRACE_CAPACITY = 1 << 16


@dataclass
class RequestTrace:
    """One request's span record for the JSON-lines trace export.

    Serialized on the ``repro.obs`` span schema (DESIGN.md §3.13): the
    request-level fields ride in ``attrs`` and the record carries the
    schema-version field, so a front's trace file is directly readable
    by ``python -m repro.obs report`` and mergeable with build/runtime
    span logs.  The flat attribute access the older API offered
    (``trace.outcome`` etc.) is unchanged.
    """

    request_id: int
    algo: str
    fingerprint: str  # graph fingerprint prefix ("" = service default)
    outcome: str  # "served" | "merged" | "timeout" | "error"
    cold: bool = False
    spanner_source: str = ""
    schedule_source: str = ""
    wait_seconds: float = 0.0  # queueing: merge + slot waits
    serve_seconds: float = 0.0  # actual replay time inside the slot
    total_seconds: float = 0.0
    thread: str = ""
    started: float = 0.0  # monotonic-clock start, comparable to spans
    pid: int = 0

    def to_record(self) -> dict:
        """This trace as one obs span-schema record."""
        return obs.as_record(
            {
                "id": self.request_id,
                "parent": 0,
                "name": "service/request",
                "ts": self.started,
                "dur": self.total_seconds,
                "pid": self.pid or os.getpid(),
                "thread": self.thread,
                "attrs": {
                    "algo": self.algo,
                    "fingerprint": self.fingerprint,
                    "outcome": self.outcome,
                    "cold": self.cold,
                    "spanner_source": self.spanner_source,
                    "schedule_source": self.schedule_source,
                    "wait_seconds": self.wait_seconds,
                    "serve_seconds": self.serve_seconds,
                },
            }
        )


class _Pending:
    """One in-progress serve that batching-window followers wait on."""

    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: SimulationResponse | None = None


class ConcurrentSimulationService:
    """Thread-safe serving front over one :class:`SimulationService`.

    It builds its inner service from that service's own constructor
    arguments (``network``, ``store``, ``params``, ``seed``).
    ``submit`` is safe to call from any number of threads; ``serve``
    fans a batch out over an internal pool of ``max_workers`` threads.
    Responses are bit-identical to the inner service's — and therefore
    to a fresh ``run_one_stage`` — whatever the interleaving; the concurrency
    layers only decide *who pays* for shared work, never what a
    response contains.
    """

    def __init__(
        self,
        network: Network | None = None,
        *,
        store: ArtifactStore | None = None,
        params: SamplerParams | None = None,
        seed: int = 0,
        max_workers: int = 4,
        merge_window: float = 0.05,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if merge_window < 0:
            raise ValueError("merge_window must be >= 0")
        self.service = SimulationService(network, store=store, params=params, seed=seed)
        self.max_workers = max_workers
        self.merge_window = merge_window
        self._traces: deque[RequestTrace] = deque(maxlen=TRACE_CAPACITY)
        self._next_id = 0
        self._trace_lock = threading.Lock()
        # The inner service's replay path (subnet memo, lineage walk)
        # is single-threaded by design; every actual serve holds this,
        # so it is also what admits one build per cold key.
        self._serve_lock = threading.Lock()
        self._merge_lock = threading.Lock()
        self._pending: dict[tuple, _Pending] = {}
        self._recent: dict[tuple, tuple[SimulationResponse, float]] = {}
        self._recent_outputs = 0  # sum(len(outputs)) over _recent
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ServiceMetrics:
        return self.service.metrics

    @property
    def store(self) -> ArtifactStore:
        return self.service.store

    def __enter__(self) -> "ConcurrentSimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Drain and release the internal worker pool (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # the serving surface
    # ------------------------------------------------------------------
    def submit(
        self,
        request: SimulationRequest | LocalAlgorithm,
        *,
        deadline: float | None = None,
    ) -> SimulationResponse:
        """Serve one request from the calling thread.

        ``deadline`` (seconds; ``None`` waits as long as it takes)
        bounds every wait — merge, serve slot — not the replay itself
        once started; expiry raises :class:`ServiceTimeout`.
        """
        if isinstance(request, LocalAlgorithm):
            request = SimulationRequest(algo=request)
        started = time.monotonic()
        expires = None if deadline is None else started + deadline
        spans = {"serve": 0.0}
        token = request.identity()
        pending: _Pending | None = None
        try:
            if self.merge_window > 0:
                shared, pending = self._join_or_lead(token, expires)
                if shared is not None:
                    self.metrics.observe_shared(shared)
                    self._record(request, started, spans, "merged", shared)
                    return shared
            response = self._serve(request, expires, spans)
        except BaseException as exc:
            if pending is not None:
                self._abandon(token, pending)
            outcome = "timeout" if isinstance(exc, ServiceTimeout) else "error"
            self._record(request, started, spans, outcome, None)
            raise
        if pending is not None:
            self._publish(token, pending, response)
        self._record(request, started, spans, "served", response)
        return response

    def serve(
        self, requests: Iterable[SimulationRequest | LocalAlgorithm]
    ) -> list[SimulationResponse]:
        """Serve a batch concurrently; responses come back in order.

        The batch fans out over the internal ``max_workers`` pool, so
        identical requests merge through the batching window and cold
        keys pass the serve slot exactly as independent callers would.
        """
        items = [
            item
            if isinstance(item, SimulationRequest)
            else SimulationRequest(algo=item)
            for item in requests
        ]
        if not items:
            return []
        pool = self._ensure_pool()
        futures = [pool.submit(self.submit, item) for item in items]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # trace export
    # ------------------------------------------------------------------
    @property
    def traces(self) -> tuple[RequestTrace, ...]:
        """The newest :data:`TRACE_CAPACITY` request traces, oldest first."""
        with self._trace_lock:
            return tuple(self._traces)

    # ------------------------------------------------------------------
    # the batching window
    # ------------------------------------------------------------------
    def _join_or_lead(
        self, token: tuple, expires: float | None
    ) -> tuple[SimulationResponse | None, _Pending | None]:
        """Enter the batching window for ``token``.

        Returns ``(response, None)`` when the window supplied a shared
        response, ``(None, pending)`` when this caller leads the token
        and must publish, and ``(None, None)`` when a failed leader
        leaves this caller to serve solo.
        """
        with self._merge_lock:
            pending = self._pending.get(token)
            if pending is None:
                now = time.monotonic()
                entry = self._recent.get(token)
                if entry is not None and now - entry[1] <= self.merge_window:
                    return entry[0], None
                self._prune_recent(now)
                pending = self._pending[token] = _Pending()
                return None, pending
        if not pending.event.wait(self._remaining(expires)):
            self.metrics.bump(timeouts=1)
            raise ServiceTimeout(
                "deadline expired waiting on a merged in-flight serve"
            )
        if pending.response is not None:
            return pending.response, None
        return None, None  # leader failed: degrade to a solo serve

    def _publish(
        self, token: tuple, pending: _Pending, response: SimulationResponse
    ) -> None:
        with self._merge_lock:
            self._pending.pop(token, None)
            self._recent[token] = (response, time.monotonic())
            self._recent_outputs += len(response.outputs)
            while (
                len(self._recent) > _RECENT_CAP
                or self._recent_outputs > _RECENT_OUTPUTS
            ):
                self._forget(next(iter(self._recent)))
        pending.response = response
        pending.event.set()

    def _abandon(self, token: tuple, pending: _Pending) -> None:
        with self._merge_lock:
            self._pending.pop(token, None)
        pending.event.set()  # response stays None: followers serve solo

    def _prune_recent(self, now: float) -> None:
        expired = [
            key
            for key, (_, stamp) in self._recent.items()
            if now - stamp > self.merge_window
        ]
        for key in expired:
            self._forget(key)

    def _forget(self, token: tuple) -> None:
        entry = self._recent.pop(token, None)
        if entry is not None:
            self._recent_outputs -= len(entry[0].outputs)

    # ------------------------------------------------------------------
    # the serve slot
    # ------------------------------------------------------------------
    def _serve(
        self,
        request: SimulationRequest,
        expires: float | None,
        spans: dict,
    ) -> SimulationResponse:
        remaining = self._remaining(expires)
        if remaining is None:
            self._serve_lock.acquire()
        elif not self._serve_lock.acquire(timeout=remaining):
            self.metrics.bump(timeouts=1)
            raise ServiceTimeout("deadline expired waiting for the serve slot")
        started = time.monotonic()
        try:
            return self.service.submit(request)
        finally:
            self._serve_lock.release()
            spans["serve"] += time.monotonic() - started

    # ------------------------------------------------------------------
    @staticmethod
    def _remaining(expires: float | None) -> float | None:
        if expires is None:
            return None
        return max(0.0, expires - time.monotonic())

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-serve",
                )
            return self._pool

    def _record(
        self,
        request: SimulationRequest,
        started: float,
        spans: dict,
        outcome: str,
        response: SimulationResponse | None,
    ) -> None:
        total = time.monotonic() - started
        serve_seconds = spans.get("serve", 0.0)
        network = (
            request.network
            if request.network is not None
            else self.service.network
        )
        trace = RequestTrace(
            request_id=0,  # assigned under the lock below
            algo=getattr(request.algo, "name", type(request.algo).__name__),
            fingerprint="" if network is None else network.fingerprint()[:12],
            outcome=outcome,
            cold=response.cold if response is not None else False,
            spanner_source=(
                response.spanner_info.source if response is not None else ""
            ),
            schedule_source=(
                response.schedule_info.source
                if response is not None and response.schedule_info is not None
                else ""
            ),
            wait_seconds=max(0.0, total - serve_seconds),
            serve_seconds=serve_seconds,
            total_seconds=total,
            thread=threading.current_thread().name,
            started=started,
            pid=os.getpid(),
        )
        with self._trace_lock:
            self._next_id += 1
            trace.request_id = self._next_id
            self._traces.append(trace)
        if obs.enabled():
            # Mirror the request into the process-wide collector so one
            # trace file can hold build, store, runtime, and serve spans
            # together.  The front measured its own timestamps (it did
            # before the obs plane existed); record() adopts them as-is.
            record = trace.to_record()
            obs.collector().record(
                "service/request",
                record["ts"],
                record["ts"] + record["dur"],
                **record["attrs"],
            )
