"""ASCII table rendering for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TableResult", "format_table"]


@dataclass
class TableResult:
    """One experiment's regenerated table."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list, init=False)
    notes: list[str] = field(default_factory=list, init=False)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(table: TableResult) -> str:
    """Render with padded columns, a header rule, and trailing notes."""
    header = [table.columns]
    body = [[_fmt(cell) for cell in row] for row in table.rows]
    widths = [
        max(len(row[i]) for row in header + body) if body else len(table.columns[i])
        for i in range(len(table.columns))
    ]
    lines = [f"== {table.experiment}: {table.title} =="]
    lines.append("  ".join(col.ljust(w) for col, w in zip(table.columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    for note in table.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
