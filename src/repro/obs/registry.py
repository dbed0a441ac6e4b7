"""The metrics half of the telemetry plane: one counter type, one registry.

:class:`Counters` is the one counter type of the serving stack: a
subclass lists its names once in ``NAMES`` and gets one lock, an atomic
:meth:`~Counters.bump`, a consistent :meth:`~Counters.snapshot` and a
read-only attribute per name.  ``StoreStats`` and ``ServiceMetrics``
are such subclasses, and each counter has exactly one owner: the
service does not copy the store's counters, a reader asks the store.

The registry absorbs anything with a ``snapshot() -> dict`` method --
``Counters`` subclasses and ``MessageStats`` alike -- under a source
name.  ``collect()`` returns ``{source_name: snapshot_dict}``; the
Prometheus exporter in :mod:`repro.obs.export` renders that as a text
exposition page.  Counters stay owned by the store or service that
bumps them rather than by the registry: those objects are created and
dropped freely (a fresh store per benchmark cycle, per test), and
registration is how a long-lived process chooses which to expose.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Protocol, Tuple, runtime_checkable


@runtime_checkable
class SnapshotSource(Protocol):
    """Anything exposing a point-in-time ``snapshot() -> dict``."""

    def snapshot(self) -> Dict[str, Any]:  # pragma: no cover - protocol
        ...


class Counters:
    """Named integer counters behind one lock.

    Subclasses set ``NAMES``; each name reads as an attribute.  Every
    mutation goes through :meth:`bump` and :meth:`snapshot` reads under
    the same lock, so worker threads can hammer one object and any
    snapshot is internally consistent (it never shows half of a bump).
    """

    NAMES: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.NAMES:
            setattr(cls, name, property(lambda self, name=name: self._values[name]))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values = dict.fromkeys(self.NAMES, 0)

    def bump(self, **deltas: int) -> None:
        """Atomically add to any subset of counters.

        A name not in ``NAMES`` raises ``AttributeError`` before any
        counter moves: a misspelt counter must fail, not vanish.
        """
        if not deltas.keys() <= self._values.keys():
            unknown = sorted(deltas.keys() - self._values.keys())
            raise AttributeError(f"{type(self).__name__} has no counter {unknown}")
        with self._lock:
            for name, delta in deltas.items():
                self._values[name] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.snapshot()})"


class MetricsRegistry:
    """Named snapshot sources, collected together."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sources: Dict[str, SnapshotSource] = {}

    def register(self, name: str, source: SnapshotSource) -> SnapshotSource:
        """Attach a snapshot()-bearing source under ``name``.

        Re-registering a name replaces the old source: services and
        stores are rebuilt freely in tests, and the registry should
        follow the live object, not pin a dead one.
        """

        if not callable(getattr(source, "snapshot", None)):
            raise TypeError(
                f"source {name!r} has no snapshot() method: {source!r}"
            )
        with self._lock:
            self._sources[name] = source
        return source

    def sources(self) -> Dict[str, SnapshotSource]:
        with self._lock:
            return dict(self._sources)

    def collect(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot every source, keyed by source name.

        Sources snapshot outside the registry lock -- their own locks
        order the reads, and a slow source must not stall register().
        """

        with self._lock:
            sources = dict(self._sources)
        return {
            name: dict(source.snapshot()) for name, source in sorted(sources.items())
        }

    def reset(self) -> None:
        with self._lock:
            self._sources.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""

    return _registry
