"""Summarize a span trace into a per-phase time/cost table.

``python -m repro.obs report trace.jsonl`` groups spans by name and
prints count, total/mean/self wall-time (self = duration minus direct
children, the number that actually attributes cost to a phase rather
than to everything beneath it), and roll-ups of the numeric attrs the
instrumentation attaches (messages, rounds, edges, ...).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .export import read_jsonl

_SUMMED_ATTRS = (
    "messages",
    "rounds",
    "dropped",
    "corrupted",
    "edges",
    "population",
)


def summarize(records: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Group span records by name; returns rows sorted by total time."""

    records = list(records)
    child_time: Dict[int, float] = {}
    for record in records:
        parent = record.get("parent", 0)
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + record["dur"]
    rows: Dict[str, Dict[str, Any]] = {}
    for record in records:
        row = rows.get(record["name"])
        if row is None:
            row = rows[record["name"]] = {
                "name": record["name"],
                "count": 0,
                "total": 0.0,
                "self": 0.0,
                "pids": set(),
                "attrs": {},
            }
        row["count"] += 1
        row["total"] += record["dur"]
        row["self"] += max(
            0.0, record["dur"] - child_time.get(record["id"], 0.0)
        )
        row["pids"].add(record["pid"])
        for key in _SUMMED_ATTRS:
            value = record.get("attrs", {}).get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row["attrs"][key] = row["attrs"].get(key, 0) + value
    out = sorted(rows.values(), key=lambda row: -row["total"])
    for row in out:
        row["mean"] = row["total"] / row["count"]
        row["pids"] = len(row.pop("pids"))
    return out


def format_report(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "no spans.\n"
    header = f"{'phase':<28} {'count':>6} {'total_s':>9} {'mean_s':>9} {'self_s':>9} {'pids':>5}  attrs"
    lines = [header, "-" * len(header)]
    for row in rows:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(row["attrs"].items())
        )
        lines.append(
            f"{row['name']:<28} {row['count']:>6} {row['total']:>9.4f} "
            f"{row['mean']:>9.4f} {row['self']:>9.4f} {row['pids']:>5}  {attrs}"
        )
    total = sum(row["self"] for row in rows)
    spans = sum(row["count"] for row in rows)
    lines.append("-" * len(header))
    lines.append(f"{spans} spans, {total:.4f}s attributed self-time")
    return "\n".join(lines) + "\n"


def report_file(path: Union[str, Path]) -> str:
    """Read a JSON-lines trace and render the table."""

    return format_report(summarize(read_jsonl(path)))
