"""Small statistics helpers shared by experiments and tests."""

from __future__ import annotations

from typing import Sequence

__all__ = ["mean"]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)
