"""One frozen value for every interchangeable-implementation choice.

Each field of :class:`Exec` picks one of two implementations that give
identical results (DESIGN.md §3.14); every layer that can run either
takes one ``execution: Exec | None`` argument, where ``None`` means
``Exec()``:

* ``flood_engine`` — ``"fast"`` derives the flood from distance sweeps;
  ``"runtime"`` runs the literal flood, the only engine that runs under
  a fault plan (§3.5).

The round engine (§3.6, §3.10) and the distance plane (§3.7) have one
implementation each; their per-node oracles live under ``tests/``.
Every field is validated on construction, so a misspelt name fails
before any work is done.  Artifact caches (``store``) stay a separate
argument: they are not an interchangeable implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Exec"]

_CHOICES = {
    "flood_engine": ("fast", "runtime"),
}


@dataclass(frozen=True)
class Exec:
    """Which implementation runs each interchangeable stage."""

    flood_engine: str = "fast"

    def __post_init__(self) -> None:
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name.replace('_', ' ')} {value!r}; "
                    f"expected one of {choices}"
                )

    def check_faults(self, faults) -> None:
        """Refuse a fault plan that ``flood_engine="fast"`` cannot run:
        it derives the failure-free flood analytically (§3.5)."""
        if self.flood_engine == "fast" and faults is not None and not faults.is_noop:
            raise ValueError(
                "fault plans require flood_engine='runtime': the fast engine "
                "derives the failure-free flood analytically"
            )
