"""Exporters: JSON-lines spans, Chrome trace_event, Prometheus text.

One span record schema feeds all three::

    {"schema": 1, "kind": "span", "id": 7, "parent": 3,
     "name": "build/level", "ts": 1.234567, "dur": 0.0421,
     "pid": 4242, "thread": "MainThread", "attrs": {"level": 2}}

``ts`` is seconds on the process-shared monotonic clock, ``dur`` is
seconds.  ``parent == 0`` marks a root.  The same shape is what
``ConcurrentSimulationService.dump_traces`` emits, what
``python -m repro.obs report`` reads back, and what
:func:`chrome_trace` converts to ``trace_event`` JSON for
chrome://tracing / Perfetto (microsecond units there, per the format).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .registry import MetricsRegistry

SPAN_SCHEMA = 1

_REQUIRED_FIELDS = ("schema", "kind", "id", "name", "ts", "dur", "pid")


def as_record(span: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp a collector span dict into the versioned export schema."""

    record = {"schema": SPAN_SCHEMA, "kind": "span"}
    record.update(span)
    record.setdefault("parent", 0)
    record.setdefault("thread", "MainThread")
    record.setdefault("attrs", {})
    return record


def validate_record(record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` on a record the schema does not admit."""

    for field in _REQUIRED_FIELDS:
        if field not in record:
            raise ValueError(f"span record missing {field!r}: {record!r}")
    if record["schema"] != SPAN_SCHEMA:
        raise ValueError(
            f"unsupported span schema {record['schema']!r} "
            f"(this build reads schema {SPAN_SCHEMA})"
        )
    if record["kind"] != "span":
        raise ValueError(f"unsupported record kind {record['kind']!r}")
    if not isinstance(record["name"], str) or not record["name"]:
        raise ValueError(f"span name must be a non-empty string: {record!r}")
    if record["dur"] < 0:
        raise ValueError(f"span duration is negative: {record!r}")
    attrs = record.get("attrs", {})
    if not isinstance(attrs, dict):
        raise ValueError(f"span attrs must be a dict: {record!r}")


def write_jsonl(
    spans: Iterable[Dict[str, Any]],
    path: Union[str, Path],
    *,
    append: bool = False,
) -> int:
    """Write span records as JSON lines; returns the number written."""

    path = Path(path)
    mode = "a" if append else "w"
    count = 0
    with path.open(mode, encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(as_record(span), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read and validate a JSON-lines span file."""

    records = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            validate_record(record)
            records.append(record)
    return records


def chrome_trace(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert span records to Chrome ``trace_event`` JSON (dict form).

    Every span becomes a complete ("X") event with microsecond
    timestamps; ``pid``/``thread`` map onto the trace's process/thread
    lanes so every process and thread shows up as its own row in the
    viewer.
    """

    events = []
    threads: Dict[tuple, int] = {}
    for span in spans:
        record = as_record(span)
        key = (record["pid"], record["thread"])
        tid = threads.setdefault(key, len(threads) + 1)
        events.append(
            {
                "ph": "X",
                "name": record["name"],
                "cat": record["name"].split("/", 1)[0],
                "ts": record["ts"] * 1e6,
                "dur": record["dur"] * 1e6,
                "pid": record["pid"],
                "tid": tid,
                "args": dict(record["attrs"], span_id=record["id"]),
            }
        )
    events.extend(
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"{thread} (pid {pid})"},
        }
        for (pid, thread), tid in threads.items()
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[Dict[str, Any]], path: Union[str, Path]
) -> int:
    """Write ``trace_event`` JSON; returns the number of span events."""

    trace = chrome_trace(spans)
    Path(path).write_text(json.dumps(trace, sort_keys=True), encoding="utf-8")
    return sum(1 for event in trace["traceEvents"] if event["ph"] == "X")


def validate_chrome_trace(path: Union[str, Path]) -> int:
    """Check a trace_event file parses and is structurally sound."""

    trace = json.loads(Path(path).read_text(encoding="utf-8"))
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(f"{path}: traceEvents must be a list")
    count = 0
    for event in events:
        if event.get("ph") not in {"X", "M", "B", "E", "i"}:
            raise ValueError(f"{path}: unknown event phase {event!r}")
        if event["ph"] == "X":
            if "ts" not in event or "dur" not in event or "pid" not in event:
                raise ValueError(f"{path}: malformed X event {event!r}")
            count += 1
    return count


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry collect() as Prometheus text exposition.

    Scalar values become ``repro_<source>_<key>``; dict values (e.g.
    ``MessageStats.by_tag``) become one labeled series per entry; list
    values (per-round traces, stage offsets) are not meaningful as
    scrape-time metrics and are skipped.
    """

    lines = []
    for source, snapshot in registry.collect().items():
        for key, value in sorted(snapshot.items()):
            metric = f"repro_{source}_{key}".replace("-", "_")
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {value}")
            elif isinstance(value, dict):
                lines.append(f"# TYPE {metric} counter")
                for label, labeled in sorted(value.items()):
                    if isinstance(labeled, bool):
                        labeled = int(labeled)
                    if isinstance(labeled, (int, float)):
                        lines.append(f'{metric}{{key="{label}"}} {labeled}')
    return "\n".join(lines) + "\n" if lines else ""
