"""Artifact codecs: ``.npz`` + JSON-manifest forms of the cached objects.

Layout conventions (DESIGN.md §3.8):

* every artifact file is a single ``.npz``, deflated at one fixed level
  (:data:`_DEFLATE_LEVEL`), whose arrays carry the bulky numeric
  payload (spanner edges, distance matrices, degrees) and whose ``manifest`` entry is UTF-8 JSON bytes (a 1-D ``uint8``
  array) carrying the structured remainder (params, the row-encoded
  trace, counters, fingerprints);
* loaders validate the embedded ``schema``/``kind`` and, where a
  ``Network`` is required to rebind the artifact, its fingerprint —
  a mismatch raises :class:`ArtifactError`, which the store treats as
  a cache miss (corruption can degrade service, never crash it);
* round-trips are exact: ``load(save(x)) == x`` under each artifact's
  equality, including the full :class:`~repro.core.trace.SamplerTrace`
  (tests/test_store.py).

The module also owns :class:`FloodProfile`, the *extendable* form of a
flood schedule: instead of one schedule per radius it persists the
radius-capped distance matrix of the spanner, from which the exact
:class:`~repro.simulate.tlocal.FloodSchedule` of **any** smaller radius
(and of any radius at all once every BFS ended below the cap) is
re-derived by truncation — balls are ``dist <= r`` rows, capped
eccentricities are the stored row maxima capped at ``r``, and the
message counters come from the
same suffix-sum code path the live derivation uses
(:func:`~repro.simulate.tlocal.flood_stats`).
"""

from __future__ import annotations

import json
import zipfile
from collections import Counter

import numpy as np

from repro import obs
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.core.trace import (
    FinishedCluster,
    LevelTrace,
    NodeLevelTrace,
    SamplerTrace,
)
from repro.core.trials import NodeLabel, TrialStats
from repro.graphs.distance import BallFamily, adjacency_csr, distance_matrix
from repro.local.metrics import MessageStats
from repro.local.network import Network
from repro.simulate.tlocal import FloodSchedule, flood_stats
from repro.store.keys import STORE_SCHEMA

__all__ = [
    "ArtifactError",
    "FloodProfile",
    "load_spanner",
    "save_spanner",
]


class ArtifactError(ValueError):
    """A serialized artifact is unreadable or does not match its key."""


# ----------------------------------------------------------------------
# low-level npz helpers
# ----------------------------------------------------------------------
# Deflate level of every member.  Level 1 deflates a distance matrix in a
# tenth of the time ``np.savez_compressed``'s level 6 takes, for about a
# third more bytes; storing uncompressed is cheaper still but about five
# times larger than level 1 (measurements in DESIGN.md §3.8).
_DEFLATE_LEVEL = 1


def _write_npz(path, manifest: dict, **arrays: np.ndarray) -> None:
    """What ``np.savez_compressed`` writes, at :data:`_DEFLATE_LEVEL`.

    The manifest is UTF-8 JSON bytes stored as a 1-D ``uint8`` member.
    """
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    members = {"manifest": np.frombuffer(payload, dtype=np.uint8), **arrays}
    with open(path, "wb") as handle, zipfile.ZipFile(
        handle, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as archive:
        for name, array in members.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _read_npz(path) -> tuple[dict, dict]:
    """``(manifest, arrays)`` of one artifact file; raises ArtifactError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except OSError:
        # Transient I/O (EIO, EAGAIN, a vanished file) is *not* artifact
        # damage: it propagates so the store's bounded-retry layer can
        # re-read instead of permanently counting a corrupt miss.
        raise
    except Exception as exc:  # zip/format damage of any shape
        raise ArtifactError(f"unreadable artifact {path}: {exc}") from exc
    raw = arrays.pop("manifest", None)
    if raw is None or raw.dtype != np.uint8 or raw.ndim != 1:
        found = "absent" if raw is None else f"a {raw.ndim}-D {raw.dtype} array"
        raise ArtifactError(
            f"artifact {path} has no valid manifest: the 'manifest' member "
            f"is {found}, not a 1-D uint8 array"
        )
    try:
        manifest = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ArtifactError(f"artifact {path} has no valid manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"artifact {path} has no valid manifest: not a JSON object")
    if manifest.get("schema") != STORE_SCHEMA:
        raise ArtifactError(
            f"artifact {path} has schema {manifest.get('schema')!r}, "
            f"store speaks {STORE_SCHEMA}"
        )
    return manifest, arrays


def _expect_kind(manifest: dict, kind: str, path) -> None:
    if manifest.get("kind") != kind:
        raise ArtifactError(
            f"artifact {path} is a {manifest.get('kind')!r}, expected {kind!r}"
        )


def _int_list(values) -> list[int]:
    return [int(v) for v in values]


# ----------------------------------------------------------------------
# MessageStats
# ----------------------------------------------------------------------
def _encode_stats(stats: MessageStats | None) -> dict | None:
    if stats is None:
        return None
    return {
        "total": stats.total,
        "dropped": stats.dropped,
        "corrupted": stats.corrupted,
        "by_tag": dict(stats.by_tag),
        "per_round": list(stats.per_round),
        "stage_offsets": list(stats.stage_offsets),
    }


def _decode_stats(doc: dict | None) -> MessageStats | None:
    if doc is None:
        return None
    return MessageStats(
        total=int(doc["total"]),
        dropped=int(doc["dropped"]),
        corrupted=int(doc["corrupted"]),
        by_tag=Counter({str(tag): int(c) for tag, c in doc["by_tag"].items()}),
        per_round=_int_list(doc["per_round"]),
        stage_offsets=_int_list(doc["stage_offsets"]),
    )


# ----------------------------------------------------------------------
# SamplerTrace (exact round-trip: dataclass equality with the original)
# ----------------------------------------------------------------------
def _encode_trace(trace: SamplerTrace) -> dict:
    """The trace as positional rows (DESIGN.md §3.8).

    A :class:`NodeLevelTrace` is one array in field order (the label by
    value, each trial stat an array in :class:`TrialStats` field order);
    cluster sizes and heights are ``[cid, value]`` pairs and finished
    clusters ``[cid, level, label, live_edges]`` rows.  Tuples encode
    as JSON arrays, so the node fields go out as they are.
    """

    def node(entry: NodeLevelTrace) -> list:
        # entry[2:14] runs from ``trials`` through ``f_inactive``.
        return [
            entry.vid,
            entry.label.value,
            *entry[2:14],
            [
                (t.trial_index, t.pool_before, t.draws, t.queried_eids,
                 t.new_neighbors, t.peeled_edges)
                for t in entry.trial_stats
            ],
        ]

    return {
        "n": trace.n,
        "m": trace.m,
        "levels": [
            {
                "level": lvl.level,
                "population": lvl.population,
                "active_edges": lvl.active_edges,
                "stale_edges": lvl.stale_edges,
                "cluster_sizes": list(lvl.cluster_sizes.items()),
                "cluster_heights": list(lvl.cluster_heights.items()),
                "nodes": [node(entry) for entry in lvl.nodes.values()],
                "centers": lvl.centers,
                "joins": lvl.joins,
                "unclustered": lvl.unclustered,
                "f_edges": sorted(lvl.f_edges),
            }
            for lvl in trace.levels
        ],
        "finished": [
            (fin.cid, fin.level, fin.label.value, sorted(fin.live_edges))
            for fin in trace.finished.values()
        ],
    }


def _decode_trace(doc: dict, params: SamplerParams) -> SamplerTrace:
    def pairs(rows) -> tuple[tuple[int, int], ...]:
        return tuple((int(a), int(b)) for a, b in rows)

    def node(row: list) -> NodeLevelTrace:
        (vid, label, *counts, f_active, f_inactive, trial_stats) = row
        return NodeLevelTrace(
            int(vid),
            NodeLabel(label),
            *_int_list(counts),
            f_active=pairs(f_active),
            f_inactive=pairs(f_inactive),
            trial_stats=tuple(
                TrialStats(
                    trial_index=int(index),
                    pool_before=int(pool),
                    draws=int(draws),
                    queried_eids=tuple(_int_list(queried)),
                    new_neighbors=int(found),
                    peeled_edges=int(peeled),
                )
                for index, pool, draws, queried, found, peeled in trial_stats
            ),
        )

    levels = [
        LevelTrace(
            level=int(lvl["level"]),
            population=int(lvl["population"]),
            active_edges=int(lvl["active_edges"]),
            stale_edges=int(lvl["stale_edges"]),
            cluster_sizes=dict(pairs(lvl["cluster_sizes"])),
            cluster_heights=dict(pairs(lvl["cluster_heights"])),
            nodes={entry.vid: entry for entry in map(node, lvl["nodes"])},
            centers=tuple(_int_list(lvl["centers"])),
            joins=tuple((int(a), int(b), int(e)) for a, b, e in lvl["joins"]),
            unclustered=tuple(_int_list(lvl["unclustered"])),
            f_edges=frozenset(_int_list(lvl["f_edges"])),
        )
        for lvl in doc["levels"]
    ]
    finished = {
        int(cid): FinishedCluster(
            cid=int(cid),
            level=int(level),
            label=NodeLabel(label),
            live_edges=frozenset(_int_list(live)),
        )
        for cid, level, label, live in doc["finished"]
    }
    return SamplerTrace(
        n=int(doc["n"]), m=int(doc["m"]), params=params, levels=levels, finished=finished
    )


# ----------------------------------------------------------------------
# SpannerResult
# ----------------------------------------------------------------------
def save_spanner(path, result: SpannerResult) -> None:
    """Persist a :class:`SpannerResult` (everything but the network)."""
    from dataclasses import asdict

    manifest = {
        "schema": STORE_SCHEMA,
        "kind": "spanner",
        "graph": result.network.fingerprint(),
        "params": asdict(result.params),
        "rounds": result.rounds,
        "messages": _encode_stats(result.messages),
        "trace": _encode_trace(result.trace),
        "provenance": list(result.provenance),
    }
    _write_npz(path, manifest, edges=np.asarray(sorted(result.edges), dtype=np.int64))


def load_spanner(path, network: Network) -> SpannerResult:
    """Rebind a persisted spanner to ``network`` (fingerprint-checked)."""
    manifest, arrays = _read_npz(path)
    _expect_kind(manifest, "spanner", path)
    saved_for = manifest.get("graph")
    if saved_for != network.fingerprint():
        raise ArtifactError(
            f"artifact {path} was built for a different graph "
            f"({str(saved_for)[:12]}… != {network.fingerprint()[:12]}…)"
        )
    try:
        params = SamplerParams(**manifest["params"])
        edges = frozenset(_int_list(arrays["edges"]))
        trace = _decode_trace(manifest["trace"], params)
        messages = _decode_stats(manifest["messages"])
        rounds = manifest["rounds"]
        provenance = tuple(str(fp) for fp in manifest["provenance"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"artifact {path} is structurally damaged: {exc}") from exc
    return SpannerResult(
        network=network,
        params=params,
        edges=edges,
        trace=trace,
        messages=messages,
        rounds=None if rounds is None else int(rounds),
        provenance=provenance,
    )


# ----------------------------------------------------------------------
# FloodProfile — the extendable cached form of a flood schedule
# ----------------------------------------------------------------------
_UNREACHED = -1


class FloodProfile:
    """Radius-capped distances of one spanner, truncatable to schedules.

    ``dist[v, w]`` is the hop distance from ``v`` to ``w`` when it is at
    most :attr:`radius`, else ``-1`` — exactly the information a flood
    of any radius ``r' <= radius`` depends on.  :meth:`schedule`
    re-derives the precise :class:`FloodSchedule` for such an ``r'``:
    the balls are the ``0 <= dist <= r'`` rows (bit-packed, no Python
    sets), the capped eccentricities ``min(rowmax, r')`` over the row
    maxima stored once per profile, and the message counters come from
    :func:`~repro.simulate.tlocal.flood_stats` — the very code path the
    live derivation uses, so equality with ``flood_schedule(spanner,
    r')`` is structural.

    A profile is :attr:`exhausted` when every stored distance is below
    its radius: each BFS then died before the cap, so the matrix holds
    every finite distance and serves any radius, larger ones included.
    """

    __slots__ = (
        "fingerprint",
        "radius",
        "exhausted",
        "_dist",
        "_degs",
        "_rowmax",
        "_schedules",
    )

    def __init__(
        self,
        fingerprint: str,
        radius: int,
        dist: np.ndarray,
        degs: np.ndarray,
    ) -> None:
        self.fingerprint = fingerprint
        self.radius = radius
        self._dist = dist
        self._degs = degs
        # Each row's largest stored distance is its eccentricity capped
        # at the radius.  BFS levels are contiguous (a node with a member
        # at distance d has members at every smaller distance), so
        # min(rowmax, r') is the r'-capped eccentricity for every radius
        # the profile serves.
        self._rowmax = dist.max(axis=1, initial=0).astype(np.int64)
        self.exhausted = bool(self._rowmax.max(initial=_UNREACHED) < radius)
        # Truncated schedules memoized per requested radius.  Schedules
        # are immutable by the simulator's result conventions, so one
        # object safely serves every request at that radius; distinct
        # radii per profile are few (one per payload round budget).
        self._schedules: dict[int, FloodSchedule] = {}

    @property
    def n(self) -> int:
        return len(self._degs)

    def nbytes(self) -> int:
        """Array footprint; the store's LRU weighs profile entries by
        this against its byte budget (``MEMORY_BYTE_BUDGET``)."""
        return int(self._dist.nbytes + self._degs.nbytes + self._rowmax.nbytes)

    @classmethod
    def build(cls, spanner: Network, radius: int) -> "FloodProfile":
        """Measure the spanner's truncated distances once, up front."""
        radius = max(0, radius)
        if not obs.enabled():
            return cls._build(spanner, radius)
        with obs.span(
            "store/profile_build", n=spanner.n, radius=radius
        ) as build_span:
            profile = cls._build(spanner, radius)
            build_span.set(
                levels=int(profile._rowmax.max(initial=0)),
                exhausted=profile.exhausted,
            )
        return profile

    @classmethod
    def _build(cls, spanner: Network, radius: int) -> "FloodProfile":
        dtype = np.int16 if radius < 2**15 - 1 else np.int32
        indptr, indices = adjacency_csr(spanner)
        dist = distance_matrix(indptr, indices, radius, dtype)
        return cls(spanner.fingerprint(), radius, dist, np.diff(indptr))

    def serves(self, radius: int) -> bool:
        """Whether :meth:`schedule` can derive ``radius`` exactly."""
        return radius <= self.radius or self.exhausted

    def schedule(self, radius: int) -> FloodSchedule:
        """The exact :class:`FloodSchedule` for any radius it :meth:`serves`."""
        radius = max(0, radius)
        if not self.serves(radius):
            raise ValueError(
                f"profile holds radius {self.radius}, cannot serve {radius}"
            )
        cached = self._schedules.get(radius)
        if cached is not None:
            return cached
        # One unsigned comparison: -1 (unreached) reads as the largest
        # value, and no stored distance exceeds self.radius.
        member = self._dist.view(f"u{self._dist.itemsize}") <= min(
            radius, self.radius
        )
        balls = BallFamily.from_packed(
            np.packbits(member, axis=1, bitorder="little"), self.n
        )
        ecc_list = np.minimum(self._rowmax, radius).tolist()
        degs = self._degs.tolist()
        built = FloodSchedule(
            balls=balls,
            ecc=tuple(ecc_list),
            messages=flood_stats(ecc_list, degs, radius),
            rounds=radius,
        )
        self._schedules[radius] = built
        return built

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloodProfile):
            return NotImplemented
        return (
            self.fingerprint == other.fingerprint
            and self.radius == other.radius
            and np.array_equal(self._dist, other._dist)
            and np.array_equal(self._degs, other._degs)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FloodProfile(n={self.n}, radius={self.radius}, "
            f"graph={self.fingerprint[:12]}…)"
        )

    def to_npz(self, path) -> None:
        manifest = {
            "schema": STORE_SCHEMA,
            "kind": "flood_profile",
            "graph": self.fingerprint,
            "radius": self.radius,
        }
        _write_npz(path, manifest, dist=self._dist, degs=self._degs)

    @classmethod
    def from_npz(cls, path) -> "FloodProfile":
        manifest, arrays = _read_npz(path)
        _expect_kind(manifest, "flood_profile", path)
        try:
            dist = arrays["dist"]
            degs = np.ascontiguousarray(arrays["degs"], dtype=np.int64)
            if (
                dist.ndim != 2
                or dist.shape[0] != dist.shape[1]
                or dist.shape[0] != len(degs)
            ):
                raise ValueError(f"distance matrix shape {dist.shape} inconsistent")
            if dist.dtype.kind != "i":
                raise ValueError(f"distance matrix dtype {dist.dtype} is not signed")
            profile = cls(
                str(manifest["graph"]),
                int(manifest["radius"]),
                dist,
                degs,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"artifact {path} is structurally damaged: {exc}") from exc
        return profile
