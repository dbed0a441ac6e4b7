"""Outside-in layer tracing for the serving benchmark.

:class:`Tracer` patches the public entry points of the ``repro`` modules
on the serving path with timing wrappers, from outside the program:
nothing under ``src/`` knows it is being traced, and ``REPRO_OBS`` stays
off, so the program's own spans never run.  Each wrapped call becomes
one span record (id, parent, name, start, duration, thread, request id),
kept in memory and written at the end in the ``repro.obs`` span schema,
so ``python -m repro.obs report FILE`` renders the self-time table.

A layer's self time is its spans' durations minus the durations of the
wrapped calls nested directly inside them.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

# Span name -> the per-layer metric its self time feeds.  The order is
# the order of the table in servebench/README.md.
LAYERS = {
    "service/submit": "service.self",
    "store/lookup": "store.lookup",
    "store/schedule": "store.schedule",
    "store/write": "store.write",
    "core/build": "core.build",
    "graphs/profile_build": "graphs.profile_build",
    "graphs/generate": "graphs.generate",
    "simulate/over_spanner": "simulate.coverage",
    "algorithms/replay": "algorithms.replay",
    "local/subnetwork": "local.subnetwork",
    "dynamic/repair": "dynamic.repair",
    "dynamic/churn": "dynamic.churn",
}

# Root span the benchmark's client opens around each request; its self
# time is client and front overhead, not a layer.
REQUEST = "bench/request"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    ``phase`` tags every span ("setup", "measure") so metrics can be
    taken over the measured phase alone; while ``recording`` is false
    (the correctness check) wrapped calls run untimed.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.phase = "setup"
        self.recording = True
        self.replayed_clusters = 0
        self.fresh_clusters = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        # (owner, attribute, original); original None = inherited.
        self._patches: list[tuple[Any, str, Any]] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
        return local

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Time the enclosed block as one span nested in the open one."""
        if not self.recording:
            yield attrs
            return
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        started = time.perf_counter()
        try:
            yield attrs
        finally:
            ended = time.perf_counter()
            state.stack.pop()
            attrs["request"] = state.request
            attrs["phase"] = self.phase
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "ts": started,
                    "dur": ended - started,
                    "pid": self._pid,
                    "thread": threading.current_thread().name,
                    "attrs": attrs,
                }
            )

    @contextmanager
    def request(self, request_id: int):
        """Open the client's root span; nested spans carry its id."""
        state = self._state()
        state.request = request_id
        try:
            with self.span(REQUEST):
                yield
        finally:
            state.request = 0

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | None,
        on_result: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper.

        ``name=None`` records no span and only calls ``on_result(attrs,
        result, *args)`` -- a probe reading counts off a call.  Class
        and static methods are re-wrapped as such.
        """
        if isinstance(owner, type):
            # Look through the MRO, so an inherited method is wrapped on
            # the subclass alone and removed again by uninstall().
            raw = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
            own = attr in owner.__dict__
        else:
            raw, own = getattr(owner, attr), True
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if name is None or not tracer.recording:
                result = func(*args, **kwargs)
                if on_result is not None and tracer.recording:
                    on_result({}, result, *args)
                return result
            with tracer.span(name) as attrs:
                result = func(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, result, *args)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw if own else None))

    def install(self) -> None:
        """Wrap every serving-path entry point named in ``LAYERS``."""
        import repro.core.distributed as distributed
        import repro.graphs as graphs
        import repro.service.service as service_module
        import repro.simulate.transformer as transformer
        import repro.store.serialize as serialize
        from repro.dynamic.repair import RepairRun
        from repro.local.network import Network
        from repro.service.service import SimulationService
        from repro.store.serialize import FloodProfile
        from repro.store.store import ArtifactStore

        def built(attrs, result, *args):
            attrs["messages"] = result.messages.total
            attrs["rounds"] = result.rounds
            attrs["edges"] = result.size

        def written(attrs, result, *args):
            path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
            attrs["bytes"] = os.path.getsize(path)

        def simulated(attrs, result, *args):
            attrs["mean_reports"] = result.mean_reports

        def repaired(attrs, result, run):
            self.replayed_clusters += run.replayed_clusters
            self.fresh_clusters += run.fresh_clusters

        self.wrap(SimulationService, "submit", "service/submit")
        self.wrap(SimulationService, "apply_churn", "dynamic/churn")
        self.wrap(ArtifactStore, "peek_spanner", "store/lookup")
        self.wrap(ArtifactStore, "fetch_spanner", "store/lookup")
        self.wrap(ArtifactStore, "fetch_flood_schedule", "store/schedule")
        self.wrap(serialize, "save_spanner", "store/write", written)
        self.wrap(FloodProfile, "to_npz", "store/write", written)
        self.wrap(distributed, "build_spanner_distributed", "core/build", built)
        self.wrap(FloodProfile, "build", "graphs/profile_build")
        self.wrap(graphs, "erdos_renyi", "graphs/generate")
        self.wrap(graphs, "barabasi_albert", "graphs/generate")
        self.wrap(
            service_module, "simulate_over_spanner", "simulate/over_spanner", simulated
        )
        self.wrap(transformer, "run_inprocess", "algorithms/replay")
        self.wrap(Network, "subnetwork", "local/subnetwork")
        self.wrap(service_module, "repair_spanner", "dynamic/repair")
        self.wrap(RepairRun, "run", None, repaired)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def self_times(self, phase: str) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over one phase."""
        from repro.obs import summarize

        rows = summarize(span for span in self.spans if span["attrs"]["phase"] == phase)
        return {row["name"]: (row["self"], row["count"]) for row in rows}

    def attr_values(self, name: str, key: str, phase: str | None = None) -> list:
        return [
            span["attrs"][key]
            for span in self.spans
            if span["name"] == name
            and key in span["attrs"]
            and (phase is None or span["attrs"]["phase"] == phase)
        ]

    def write(self, path: str) -> int:
        """Write every span as ``repro.obs`` JSON-lines records."""
        from repro import obs

        return obs.write_jsonl(self.spans, path)
