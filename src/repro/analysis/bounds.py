"""The paper's predicted asymptotics, in checkable form.

The benchmark tables report measured quantities next to the values these
functions predict; shape agreement (log–log slope within tolerance, who
wins by what factor) is the reproduction's success criterion.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["predicted_size_exponent", "fit_loglog_slope"]


def predicted_size_exponent(k: int) -> float:
    """Theorem 2: ``|S| = O~(n^{1 + 1/(2^{k+1}-1)})``."""
    return 1.0 + 1.0 / (2 ** (k + 1) - 1)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Implemented directly (two-pass means) so it has no numpy dependency
    in the hot path and is exact for the small tables we fit.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    if sxx == 0:
        raise ValueError("x values are all equal")
    return sxy / sxx
