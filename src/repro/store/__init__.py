"""Content-addressed artifact store for payload-independent work.

The paper's central economics: the message-expensive preprocessing (the
``Sampler`` spanner of Theorem 2, the Lemma 12 flood schedule) does not
depend on the payload algorithm, so once built it can serve *any*
number of ``t``-round simulations.  This package makes that operational
(DESIGN.md §3.8):

* :mod:`repro.store.keys` — the content-addressed key schema
  (``Network.fingerprint()`` + artifact parameters + schema version);
* :mod:`repro.store.serialize` — exact ``.npz``/JSON codecs for
  :class:`~repro.core.spanner.SpannerResult` and :class:`FloodProfile`,
  the truncatable cached form of a flood schedule;
* :mod:`repro.store.store` — :class:`ArtifactStore` (in-memory LRU +
  optional on-disk layer with atomic writes, corruption-tolerant
  reads with bounded immediate retries, and per-key cross-process
  build locks) and the ``REPRO_STORE``-driven process default;
* :mod:`repro.store.locks` — :class:`FileLock`, the ``fcntl``-based
  per-artifact mutex with dead-holder reclamation that lets multiple
  worker processes share one store directory safely;
* :mod:`repro.store.chaos` — :class:`ChaosPlan`, the seeded faults the
  ``REPRO_STORE_CHAOS`` variable injects into the store's read path.

The serving layer on top lives in :mod:`repro.service`.
"""

from repro.store.chaos import CHAOS_ENV_VAR, ChaosPlan, chaos_from_env
from repro.store.keys import STORE_SCHEMA, flood_key, spanner_key, store_key
from repro.store.locks import FileLock, LockTimeout, pid_alive, plant_stale_lock
from repro.store.serialize import (
    ArtifactError,
    FloodProfile,
    load_spanner,
    save_spanner,
)
from repro.store.store import (
    ArtifactStore,
    FetchInfo,
    StoreStats,
    default_store,
    resolve_store,
)

__all__ = [
    "ArtifactError",
    "ArtifactStore",
    "CHAOS_ENV_VAR",
    "ChaosPlan",
    "FetchInfo",
    "FileLock",
    "FloodProfile",
    "LockTimeout",
    "STORE_SCHEMA",
    "StoreStats",
    "chaos_from_env",
    "default_store",
    "flood_key",
    "load_spanner",
    "pid_alive",
    "plant_stale_lock",
    "resolve_store",
    "save_spanner",
    "spanner_key",
    "store_key",
]
