"""Hierarchical spans: the timing half of the telemetry plane.

A *span* is a named interval of monotonic wall-time with a parent id, a
process id, a thread name, and free-form attrs.  Spans nest through a
thread-local stack: entering a span pushes it, exiting pops it, and any
span opened in between records the enclosing span as its parent.  The
result is a forest of per-thread trees that the exporters
(:mod:`repro.obs.export`) flatten into JSON-lines, Chrome
``trace_event`` JSON, or a report table.

Everything is gated by the ``REPRO_OBS`` environment variable.  With it
unset (the default), :func:`span` returns a shared no-op singleton and
:func:`event` returns immediately -- no allocation, no lock, no clock
read -- so instrumented hot paths cost one truthiness check.  The gate
is deliberately process-wide rather than per-collector: determinism of
the instrumented code must never depend on whether anyone is watching,
and the determinism suite asserts exactly that.

Timestamps come from :func:`time.perf_counter`, which on Linux is the
system-wide ``CLOCK_MONOTONIC``, so spans recorded by different
processes share one clock.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List

ENV_VAR = "REPRO_OBS"

_FALSEY = {"", "0", "false", "off", "no"}


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSEY


_enabled = _env_enabled()


def enabled() -> bool:
    """Is the telemetry plane collecting?"""

    return _enabled


def set_enabled(value: bool) -> bool:
    """Flip collection on or off; returns the previous state.

    Used by tests, the perf harness (the ``obs/overhead`` kernel times
    both sides of the gate in one process), and ``tools/profile_kernel``.
    """

    global _enabled
    previous = _enabled
    _enabled = bool(value)
    return previous


class Span:
    """One timed interval.  Context manager; reentrant it is not."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "attrs",
        "pid",
        "thread",
        "_collector",
    )

    def __init__(self, collector: "Collector", name: str, attrs: Dict[str, Any]):
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self.start = 0.0
        self.end = 0.0
        self.pid = os.getpid()
        self.thread = threading.current_thread().name

    def set(self, **attrs: Any) -> "Span":
        """Attach attrs after entry (e.g. results known only at close)."""

        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        collector = self._collector
        self.span_id = collector._next_id()
        stack = collector._stack()
        self.parent_id = stack[-1] if stack else 0
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end = time.perf_counter()
        collector = self._collector
        stack = collector._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        collector._finish(self)


class _NoopSpan:
    """The disabled-path singleton: every method is a cheap no-op."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Collector:
    """Accumulates finished spans for one process.

    Thread-safe: the id counter and the finished list are guarded by one
    lock, and the open-span stack is thread-local so concurrent request
    threads in the serving front build independent trees.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counter = 0
        self._finished: List[Dict[str, Any]] = []
        self._local = threading.local()

    # -- internals ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def _finish(self, span: Span) -> None:
        record = {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "ts": span.start,
            "dur": span.end - span.start,
            "pid": span.pid,
            "thread": span.thread,
            "attrs": span.attrs,
        }
        with self._lock:
            self._finished.append(record)

    # -- producing spans ---------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """A zero-duration marker under the current span."""

        now = time.perf_counter()
        stack = self._stack()
        record = {
            "id": self._next_id(),
            "parent": stack[-1] if stack else 0,
            "name": name,
            "ts": now,
            "dur": 0.0,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": attrs,
        }
        with self._lock:
            self._finished.append(record)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int = 0,
        **attrs: Any,
    ) -> int:
        """Append a pre-timed span (timestamps measured by the caller).

        The concurrent serving front times requests itself (it already
        did before the obs plane existed); this lets those measurements
        join the same tree without double bookkeeping.  Returns the
        assigned span id.
        """

        span_id = self._next_id()
        stack = self._stack()
        record = {
            "id": span_id,
            "parent": parent if parent else (stack[-1] if stack else 0),
            "name": name,
            "ts": start,
            "dur": end - start,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "attrs": attrs,
        }
        with self._lock:
            self._finished.append(record)
        return span_id

    # -- reading -----------------------------------------------------

    def finished(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            self._counter = 0
        self._local = threading.local()


_collector = Collector()


def collector() -> Collector:
    """The process-wide collector."""

    return _collector


def span(name: str, **attrs: Any):
    """Open a span under the current thread's tree, or a no-op when off.

    Usage::

        with obs.span("build/level", level=j) as sp:
            ...
            sp.set(population=len(alive))
    """

    if not _enabled:
        return NOOP_SPAN
    return _collector.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a zero-duration marker, or nothing when off."""

    if not _enabled:
        return
    _collector.event(name, **attrs)
