"""Parameters of algorithm ``Sampler``.

The paper fixes two integer knobs (Theorem 2):

* ``k`` — number of clustering levels (``1 <= k <= log log n``); the
  stretch is ``O(3^k)`` and the size exponent is
  ``delta = 1/(2^{k+1} - 1)``;
* ``h`` — trial granularity (``0 <= h <= log n``); each level runs at
  most ``2h`` trials and the message exponent gains ``eps = 1/h``.

and two budget formulas used inside ``Cluster_j``:

* target neighbors per node: ``c * n^{2^j * delta} * log n``;
* query edges per trial:     ``c^2 * n^{2^j * delta + eps} * log^3 n``.

The formulas here are the paper's with the constant prefactors and the
logarithm exponents exposed, because the literal constants exceed ``n``
for any laptop-scale ``n`` (see DESIGN.md, substitution note 1).
:meth:`SamplerParams.paper_exact` restores the published form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

__all__ = ["SamplerParams"]


@dataclass(frozen=True)
class SamplerParams:
    """Immutable configuration for one ``Sampler`` run.

    Attributes
    ----------
    k, h:
        The paper's level and trial parameters.
    c_target:
        Prefactor ``c`` of the per-node neighbor target
        ``c * n^{2^j delta} * (log2 n)^target_log_exp``.
    c_query:
        Prefactor ``c`` of the per-trial query budget
        ``c^2 * n^{2^j delta + eps} * (log2 n)^query_log_exp``.
    target_log_exp, query_log_exp:
        Logarithm exponents of the two budgets (paper: 1 and 3).
    exhaustive_small_pools:
        When the unexplored pool ``X_v`` is no larger than the trial's
        query budget, query all of it instead of sampling with
        replacement.  Matches the ``min{..., |N_j(v)|}`` phrasing of
        Section 3 and removes coupon-collector noise at small ``n``.
    seed:
        Root seed for all randomness (center coins and edge sampling).
    """

    k: int = 2
    h: int = 2
    c_target: float = 2.0
    c_query: float = 1.0
    target_log_exp: int = 1
    query_log_exp: int = 1
    exhaustive_small_pools: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if self.h < 1:
            raise ConfigurationError("h must be >= 1")
        if self.c_target <= 0 or self.c_query <= 0:
            raise ConfigurationError("constants must be positive")
        if self.target_log_exp < 0 or self.query_log_exp < 0:
            raise ConfigurationError("log exponents must be >= 0")

    # ------------------------------------------------------------------
    # derived exponents (Section 3: delta = 1/(2^{k+1}-1), eps = 1/h)
    # ------------------------------------------------------------------
    @property
    def delta(self) -> float:
        return 1.0 / (2 ** (self.k + 1) - 1)

    @property
    def eps(self) -> float:
        return 1.0 / self.h

    @property
    def trials(self) -> int:
        """Trials per level: ``2/eps = 2h``."""
        return 2 * self.h

    @property
    def levels(self) -> int:
        """Number of ``Cluster_j`` invocations (``j = 0..k``)."""
        return self.k + 1

    @property
    def stretch_bound(self) -> int:
        """Theorem 9: the output is a ``(2 * 3^k - 1)``-spanner whp."""
        return 2 * 3**self.k - 1

    # ------------------------------------------------------------------
    # budget formulas
    # ------------------------------------------------------------------
    @staticmethod
    def _log_n(n: int) -> float:
        return max(1.0, math.log2(max(2, n)))

    def center_probability(self, j: int, n: int) -> float:
        """``p_j = n^{-2^j * delta}`` (Pseudocode 2, second step)."""
        self._check_level(j)
        return float(max(2, n)) ** -(2**j * self.delta)

    def target(self, j: int, n: int) -> int:
        """Per-node neighbor target ``c * n^{2^j delta} * log n``."""
        self._check_level(j)
        raw = (
            self.c_target
            * float(max(2, n)) ** (2**j * self.delta)
            * self._log_n(n) ** self.target_log_exp
        )
        return max(1, math.ceil(raw))

    def queries_per_trial(self, j: int, n: int) -> int:
        """Per-trial query budget ``c^2 * n^{2^j delta + eps} * log^q n``."""
        self._check_level(j)
        raw = (
            self.c_query**2
            * float(max(2, n)) ** (2**j * self.delta + self.eps)
            * self._log_n(n) ** self.query_log_exp
        )
        return max(1, math.ceil(raw))

    def expected_level_population(self, j: int, n: int) -> float:
        """Lemma 4 center value: ``n * p-hat_{j-1} = n^{1 - (2^j - 1) delta}``."""
        self._check_level(j)
        if j == 0:
            return float(n)
        return float(max(2, n)) ** (1.0 - (2**j - 1) * self.delta)

    def size_envelope(self, n: int) -> float:
        """Lemma 10 envelope ``O(k h n^{1+delta} log^q n)`` with this run's constants.

        Used by tests as a loose upper bound on ``|S|``; the benchmark
        suite checks the sharper statement (the log–log slope).
        """
        log_term = self._log_n(n) ** max(self.target_log_exp, self.query_log_exp)
        return (
            8.0
            * max(self.c_target, self.c_query**2)
            * self.levels
            * self.h
            * float(n) ** (1.0 + self.delta)
            * log_term
        )

    # ------------------------------------------------------------------
    @classmethod
    def paper_exact(cls, k: int, h: int, c: float = 4.0, seed: int = 0) -> "SamplerParams":
        """The published budget formulas, constants included."""
        return cls(
            k=k,
            h=h,
            c_target=c,
            c_query=c,
            target_log_exp=1,
            query_log_exp=3,
            exhaustive_small_pools=False,
            seed=seed,
        )

    def with_seed(self, seed: int) -> "SamplerParams":
        return replace(self, seed=seed)

    def _check_level(self, j: int) -> None:
        if not 0 <= j <= self.k:
            raise ConfigurationError(f"level {j} outside 0..{self.k}")
