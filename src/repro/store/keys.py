"""Content-addressed key schema of the artifact store (DESIGN.md §3.8).

Every artifact key is the SHA-256 of a canonical JSON document:

``{"schema": STORE_SCHEMA, "kind": <artifact kind>, "graph": <Network
fingerprint>, ...kind-specific fields}``

serialized with sorted keys and no whitespace, so a key is a pure
function of the *content* that determines the artifact:

* ``spanner`` — graph fingerprint + every :class:`SamplerParams` field
  (the construction is a deterministic function of exactly those; the
  round engine has one implementation, so no engine name enters the
  key);
* ``flood`` — the *spanner* fingerprint alone.  The distance plane has
  one implementation, so no engine name enters the key.  The radius is
  **not** part of the key either: one
  :class:`~repro.store.serialize.FloodProfile` entry per spanner holds
  the largest radius ever requested and serves any smaller radius by
  truncation, so keying on radius would defeat the sharing the paper's
  payload-independence enables.

Bumping :data:`STORE_SCHEMA` invalidates every existing entry at once
(old keys simply never match), which is the upgrade story: no migration
code, stale entries are garbage, reads of them are misses.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.core.params import SamplerParams

__all__ = ["STORE_SCHEMA", "flood_key", "spanner_key", "store_key"]

# 2: the manifest is a UTF-8 ``uint8`` member and the trace is row-encoded
# (DESIGN.md §3.8); schema-1 files are misses.
# 3: flood keys and profile manifests name no distance engine.
STORE_SCHEMA = 3


def store_key(kind: str, graph_fingerprint: str, **fields) -> str:
    """SHA-256 over the canonical JSON of one artifact's identity."""
    document = {
        "schema": STORE_SCHEMA,
        "kind": kind,
        "graph": graph_fingerprint,
        **fields,
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def spanner_key(graph_fingerprint: str, params: SamplerParams) -> str:
    """Key of a distributed ``Sampler`` construction artifact."""
    return store_key("spanner", graph_fingerprint, params=asdict(params))


def flood_key(spanner_fingerprint: str) -> str:
    """Key of a flood profile over one spanner (radius-independent)."""
    return store_key("flood", spanner_fingerprint)
