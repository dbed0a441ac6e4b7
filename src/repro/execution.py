"""One frozen value for every interchangeable-implementation choice.

Each field of :class:`Exec` picks one of two implementations that give
identical results (DESIGN.md §3.14); every layer that can run either
takes one ``execution: Exec | None`` argument, where ``None`` means
``Exec()``:

* ``flood_engine`` — ``"fast"`` derives the flood from distance sweeps;
  ``"runtime"`` runs the literal flood program, the only engine that
  runs under a fault plan (§3.5);
* ``scheduler`` — ``"active"`` or ``"dense"``, the oracle for the
  ``Context`` sleep contract (§3.6);
* ``round_engine`` — ``"vector"`` populations or the ``"reference"``
  per-node interpreter (§3.10).

The distance plane (§3.7) has one implementation; its oracle lives
under ``tests/``.  ``round_engine`` defaults to ``$REPRO_ROUND_ENGINE``,
read when an ``Exec`` is built (never at import); this module is the
only reader of that variable.  Every field is validated on
construction, so a misspelt name fails before any work is done.
Artifact caches (``store``) stay a separate argument: they are not an
interchangeable implementation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = ["Exec"]

_CHOICES = {
    "flood_engine": ("fast", "runtime"),
    "scheduler": ("active", "dense"),
    "round_engine": ("vector", "reference"),
}


@dataclass(frozen=True)
class Exec:
    """Which implementation runs each interchangeable stage."""

    flood_engine: str = "fast"
    scheduler: str = "active"
    round_engine: str = field(
        default_factory=lambda: os.environ.get("REPRO_ROUND_ENGINE", "vector")
    )

    def __post_init__(self) -> None:
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name.replace('_', ' ')} {value!r}; "
                    f"expected one of {choices}"
                )
