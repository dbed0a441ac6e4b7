"""Deterministic fault injection for the artifact store (DESIGN.md §3.12).

The robustness contract of the serving stack is *tested*, not assumed:
every failure mode the store and the lock layer claim to degrade
through can be switched on deliberately — transient I/O errors that a
retry heals, persistent errors that cost a rebuild, corrupt reads,
slow loads that eat a request's deadline, and stale lock files left by
a crashed holder — and the contract is that each injected fault
surfaces as a *counted* metric (``StoreStats.retries`` / ``corrupt`` /
``lock_reclaimed`` / ``chaos_injected``, ``ServiceMetrics.timeouts``)
and a degraded-but-correct response: bit-identical to a cold
:func:`~repro.simulate.scheme.run_one_stage` whenever a response is
produced at all.

A :class:`ChaosPlan` is a frozen, seeded description of the fault mix.
Every decision is a deterministic coin from
:func:`repro.rng.stable_uniform` over ``(kind, key, tick)`` — the same
plan against the same call sequence injects the same faults, which is
what makes chaos tests reproducible.  The ``tick`` is a per-store
monotone counter, so repeated loads of one key draw fresh coins.

Activation: set the ``REPRO_STORE_CHAOS`` environment variable to a
spec string like ``"transient=0.3,corrupt=0.1,seed=7"`` (see
:meth:`ChaosPlan.parse`); each :class:`~repro.store.store.ArtifactStore`
reads it once, when it is constructed.  Unset, it injects nothing and
adds no work to any hot path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.rng import stable_uniform

__all__ = ["CHAOS_ENV_VAR", "ChaosPlan", "chaos_from_env"]

CHAOS_ENV_VAR = "REPRO_STORE_CHAOS"

_RATE_FIELDS = ("transient", "persistent", "corrupt", "slow", "stale_lock")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded description of which store faults to inject, how often.

    Rates are independent probabilities in ``[0, 1]``:

    * ``transient`` — a disk-read attempt raises ``OSError`` (a retry
      draws a fresh coin, so the read usually heals);
    * ``persistent`` — the *key* is cursed: every read attempt raises
      ``OSError`` until the entry is rewritten (degrades to a counted
      miss and a rebuild);
    * ``corrupt`` — a disk read returns damage
      (:class:`~repro.store.serialize.ArtifactError` path: counted
      ``corrupt``, treated as a miss, rebuilt);
    * ``slow`` — a disk read sleeps ``slow_seconds`` first (exercises
      deadlines);
    * ``stale_lock`` — a build-lock acquisition finds a lock file
      owned by a dead pid, as a crashed holder would leave behind
      (exercises reclamation).
    """

    seed: int = 0
    transient: float = 0.0
    persistent: float = 0.0
    corrupt: float = 0.0
    slow: float = 0.0
    slow_seconds: float = 0.01
    stale_lock: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"chaos rate {name}={rate} outside [0, 1]"
                )
        if self.slow_seconds < 0:
            raise ConfigurationError("slow_seconds must be >= 0")

    @property
    def is_noop(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def _coin(self, kind: str, key: str, tick: int) -> float:
        return stable_uniform(self.seed, ("chaos", kind, key, tick))

    def load_fault(self, key: str, tick: int) -> str | None:
        """The fault (if any) to inject into one disk-read attempt.

        Returns ``"oserror"`` (transient or persistent I/O failure),
        ``"corrupt"``, or ``None``.  The persistent coin ignores
        ``tick`` on purpose — a cursed key stays cursed across the
        whole retry loop, which is what separates it from transient.
        """
        if self.persistent and self._coin("persistent", key, 0) < self.persistent:
            return "oserror"
        if self.transient and self._coin("transient", key, tick) < self.transient:
            return "oserror"
        if self.corrupt and self._coin("corrupt", key, tick) < self.corrupt:
            return "corrupt"
        return None

    def load_delay(self, key: str, tick: int) -> float:
        """Seconds one disk-read attempt must sleep before proceeding."""
        if self.slow and self._coin("slow", key, tick) < self.slow:
            return self.slow_seconds
        return 0.0

    def plant_stale_lock(self, key: str, tick: int) -> bool:
        """Whether to fake a crashed lock holder before this acquire."""
        return bool(
            self.stale_lock
            and self._coin("stale-lock", key, tick) < self.stale_lock
        )

    # ------------------------------------------------------------------
    # the env spec
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse a ``REPRO_STORE_CHAOS`` spec string.

        Comma-separated ``name=value`` pairs over the dataclass fields:
        ``"transient=0.3,corrupt=0.1,seed=7"``.  Unknown names and
        unparseable values raise :class:`ConfigurationError` — a typo'd
        chaos spec silently injecting nothing would defeat the point.
        """
        known = {f.name: f.type for f in fields(cls)}
        values: dict = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in known:
                raise ConfigurationError(
                    f"unknown chaos field {name!r} in {spec!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
            try:
                values[name] = int(raw) if name == "seed" else float(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos value {part!r} in {spec!r}"
                ) from exc
        return cls(**values)


def chaos_from_env() -> ChaosPlan | None:
    """The process-wide plan from ``REPRO_STORE_CHAOS``, or ``None``.

    Read at store construction (not import) so tests can flip the
    variable per store.  An empty/unset variable means no injection.
    """
    spec = os.environ.get(CHAOS_ENV_VAR)
    if not spec:
        return None
    plan = ChaosPlan.parse(spec)
    return None if plan.is_noop else plan
