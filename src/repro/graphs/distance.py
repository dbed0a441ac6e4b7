"""The distance plane: batched truncated BFS over CSR arrays (DESIGN.md §3.7).

Every truncated-BFS consumer in the codebase — the Lemma 12 flood
schedule, the footnote-1 stretch measurement, the shared replay's
``B_t``-coverage check (:meth:`BallFamily.coverage`),
diameter/eccentricity precomputes — is,
computationally, the same kernel: level sets of an unweighted BFS,
capped at a radius, from one or many sources.  This module owns that
kernel once, as NumPy bitset frontier sweeps.  The graph lives as a
flat neighbor CSR (``indptr``/``indices``); a block of sources is
packed along a uint64 bit dimension, and each sweep renumbers the
nodes by descending degree, so column ``j`` of the adjacency lists
covers a prefix of the rows.  One BFS level ORs each wide column's
gathered frontier rows into that prefix, folds the narrow columns in
with one segmented ``bitwise_or.reduceat``, then takes
``newly = expanded & ~visited`` — all 64 sources of a word advance per
machine word.  No per-node Python loop ever runs; memory is bounded by
processing sources in blocks sized so the *unpacked* ``(rows, n)``
stages stay under a fixed cell budget.

The seed's pure-Python BFS is the plane's oracle.  It lives in
``tests/reference_distance.py`` with the flood schedule,
eccentricities and stretch reports written on it, and the test suite
holds every consumer here equal to it, on every connected graph of up
to 7 nodes among others (DESIGN.md §3.4 step 1).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Iterator

import numpy as np

from repro import obs

__all__ = [
    "BallFamily",
    "adjacency_csr",
    "component_labels",
    "balls_and_eccentricities",
    "distance_blocks",
    "distance_matrix",
    "ball_matrix_blocks",
    "eccentricities",
]

_UNREACHABLE = math.inf

# Cap on unpacked-matrix cells (rows x n) per source block; the packed
# bitset state is 64x smaller, so this bounds the unpack/extract stage.
_BLOCK_CELLS = 1 << 25
# Distance-tracking sweeps end in an int32 (rows, n) matrix; cap it lower.
_BLOCK_CELLS_DIST = 1 << 23
# A uint8 distance counter holds up to L + 1 after L levels, so a sweep
# widens it when it reaches this level.
_COUNTER_LEVELS = np.iinfo(np.uint8).max
# A column of the degree-ordered CSR is folded into a level by its own
# gather-OR when it spans at least this many uint64 words (width x
# words); the narrower columns share one reduceat (DESIGN.md §3.7).
_COLUMN_WORDS = 1024


# ----------------------------------------------------------------------
# CSR construction
# ----------------------------------------------------------------------
def adjacency_csr(network) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor CSR ``(indptr, indices)`` of a :class:`Network`.

    Derived in O(m) vector ops straight from the network's endpoint
    arrays — node ``v``'s neighbors are
    ``indices[indptr[v]:indptr[v + 1]]``.  Neighbor order within a row
    is unspecified (BFS level sets do not depend on it).
    """
    n = network.n
    _, ep_u, ep_v = network.endpoints_flat()
    us = np.frombuffer(ep_u, dtype=np.int64)
    vs = np.frombuffer(ep_v, dtype=np.int64)
    heads = np.concatenate((us, vs))
    tails = np.concatenate((vs, us))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    indices = tails[np.argsort(heads, kind="stable")]
    return indptr, indices


def component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected-component label of every node: its component's minimum.

    ``u``/``v`` are the edge endpoint arrays (any int64 buffer, such as
    :meth:`Network.endpoints_flat`'s, is read without a copy).
    Vectorized hook-and-jump in O(m) per round: every root adjacent to a
    smaller root hooks onto the smallest such root, then pointer jumping
    flattens the forest so each node points at its root again.  Labels
    only ever decrease, so the forest stays acyclic and the fixed point
    is the minimum.
    """
    labels = np.arange(n, dtype=np.int64)
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    while True:
        lu, lv = labels[u], labels[v]
        differ = lu != lv
        if not differ.any():
            return labels
        lu, lv = lu[differ], lv[differ]
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _block_rows(n: int, n_sources: int, *, track_dist: bool = False) -> int:
    cells = _BLOCK_CELLS_DIST if track_dist else _BLOCK_CELLS
    return max(1, min(n_sources, cells // max(1, n)))


# ----------------------------------------------------------------------
# the batched sweep
# ----------------------------------------------------------------------
class _LevelStep:
    """One BFS level over a CSR renumbered by descending degree.

    Node ``v`` becomes row ``rank[v]``, so the nodes with more than
    ``j`` neighbors are a prefix of the rows, and column ``j`` of the
    adjacency lists (each such node's ``j``-th neighbor) is one index
    array over that prefix.  :meth:`expand` ORs each wide column in
    with one gather; the narrow columns, which are a suffix, share one
    segmented ``reduceat`` over the high-degree rows' remaining
    neighbors, so a star's hub or a heavy-tailed graph's hubs cost one
    ``reduceat`` segment each rather than one Python op per column.
    """

    __slots__ = ("rank", "width", "columns", "tail", "tail_starts")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, words: int) -> None:
        deg = indptr[1:] - indptr[:-1]
        order = np.argsort(-deg, kind="stable")
        rank = np.empty(len(deg), dtype=np.int64)
        rank[order] = np.arange(len(deg))
        deg = deg[order]
        starts = indptr[order]
        neighbors = rank[indices]
        # widths[j]: how many rows have more than j neighbors.
        widths = np.searchsorted(-deg, -np.arange(deg.max(initial=0)))
        head = int(np.count_nonzero(widths * words >= _COLUMN_WORDS))
        self.rank = rank
        self.width = int(widths[0]) if len(widths) else 0
        self.columns = [
            neighbors[starts[:width] + j]
            for j, width in enumerate(widths[:head].tolist())
        ]
        self.tail = self.tail_starts = None
        if head < len(widths):
            lengths = deg[: widths[head]] - head
            self.tail_starts = np.zeros(len(lengths), dtype=np.int64)
            np.cumsum(lengths[:-1], out=self.tail_starts[1:])
            slots = np.arange(int(lengths.sum())) + np.repeat(
                starts[: len(lengths)] + head - self.tail_starts, lengths
            )
            self.tail = neighbors[slots]

    def expand(self, frontier: np.ndarray) -> np.ndarray:
        """Every row's OR over its neighbors' ``frontier`` rows."""
        expanded = np.empty_like(frontier)
        columns = self.columns
        if columns:
            expanded[: self.width] = frontier[columns[0]]
            for column in columns[1:]:
                expanded[: len(column)] |= frontier[column]
        if self.tail is not None:
            folded = np.bitwise_or.reduceat(
                frontier[self.tail], self.tail_starts, axis=0
            )
            if columns:
                expanded[: len(folded)] |= folded
            else:
                expanded[: len(folded)] = folded
        expanded[self.width :] = 0
        return expanded


def _sweep(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    n: int,
    levels: int | None,
    *,
    track_dist: bool,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One frontier sweep for a block of *distinct* sources.

    The block's sources are packed along a uint64 bit dimension:
    ``visited[v, w]`` holds, in bit ``i % 64`` of word ``w == i // 64``,
    whether source ``i`` has reached node ``v``.  A level is then one
    :class:`_LevelStep` expansion of the packed frontier (one gather-OR
    per wide column of the degree-ordered CSR, one ``reduceat`` for the
    narrow rest) and ``newly = expanded & ~visited`` — all 64 sources
    of a word advance per machine word, which is what makes the sweep
    memory-bound rather than interpreter-bound.

    Returns ``(visited, count, ecc)``: ``visited`` is the packed
    ``(n, words)`` uint64 bitset, ``count`` is the ``(n, rows)``
    distance counter (``None`` unless tracked; :func:`_distances` turns
    it into distances), and ``ecc[i]`` is the last level at which
    source ``i``'s frontier was non-empty — its ``levels``-capped
    eccentricity.  ``levels=None`` sweeps until every frontier dies.
    """
    if not obs.enabled():
        return _sweep_block(indptr, indices, sources, n, levels, track_dist)
    with obs.span(
        "distance/sweep", rows=len(sources), track_dist=track_dist
    ) as sweep_span:
        swept = _sweep_block(indptr, indices, sources, n, levels, track_dist)
        sweep_span.set(levels=int(swept[2].max(initial=0)))
    return swept


def _sweep_block(indptr, indices, sources, n, levels, track_dist):
    rows = len(sources)
    words = (rows + 63) >> 6
    bits = np.uint64(1) << (np.arange(rows, dtype=np.uint64) & np.uint64(63))
    word_of = np.arange(rows) >> 6
    step = _LevelStep(indptr, indices, words)
    rank = step.rank
    # The sweep runs on the renumbered rows; results go back through rank.
    visited = np.zeros((n, words), dtype=np.uint64)
    visited[rank[sources], word_of] = bits
    # Distances are tracked as per-cell counters: every level adds the
    # unpacked ``visited`` rows, so after the last level L a cell first
    # reached at level d has counted L - d + 1 (never reached: 0).
    count = None
    if track_dist:
        count = np.zeros((n, rows), dtype=np.uint8)
        count[sources, np.arange(rows)] = 1
    ecc = np.zeros(rows, dtype=np.int64)
    frontier = visited.copy()
    level = 0
    while step.width and (levels is None or level < levels):
        newly = step.expand(frontier)
        newly &= ~visited
        alive = np.bitwise_or.reduce(newly, axis=0)
        if not alive.any():
            break
        level += 1
        visited |= newly
        alive_sources = np.nonzero(
            np.unpackbits(alive.view(np.uint8), bitorder="little")[:rows]
        )[0]
        ecc[alive_sources] = level
        if count is not None:
            if level == _COUNTER_LEVELS:
                # From here on a uint8 counter would wrap: widen it once
                # to the int32 the distances end in.
                count = count.astype(np.int32)
            count += np.unpackbits(
                visited[rank].view(np.uint8), axis=1, count=rows, bitorder="little"
            )
        frontier = newly
    return visited[rank], count, ecc


def _distances(count: np.ndarray, ecc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the distances a sweep's counters hold into ``out``.

    ``dist = L + 1 - count`` for the sweep's last level ``L`` (its
    largest ``ecc``), cast straight into ``out``'s dtype; cells never
    reached (count 0) come out as ``L + 1`` and are marked ``-1``.
    ``out`` may be ``count`` itself (in place) or any view of its shape.
    """
    top = int(ecc.max(initial=0)) + 1
    np.subtract(top, count, out=out, dtype=out.dtype)
    out[out == top] = -1
    return out


def _unpack_bool(packed: np.ndarray, columns: int) -> np.ndarray:
    """``(n, words)`` uint64 bitset -> ``(n, columns)`` bool matrix."""
    return np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")[
        :, :columns
    ].view(bool)


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Bool/0-1 ``(rows, n)`` matrix -> per-row little-endian uint8 bitset."""
    return np.packbits(matrix, axis=1, bitorder="little")


def _popcounts(packed_u8: np.ndarray) -> np.ndarray:
    """Per-row set-bit counts of a ``(rows, bytes)`` uint8 bitset."""
    return np.bitwise_count(packed_u8).sum(axis=1, dtype=np.int64)


class BallFamily(Sequence):
    """Immutable per-source node sets, bit-matrix-backed when vectorized.

    Behaves as a sequence of ``frozenset[int]`` — ``family[i]`` is the
    i-th source's set, materialized lazily and cached — while exposing
    the array forms the hot paths consume: :meth:`sizes` (popcounts,
    no materialization) and :meth:`membership_rows` (boolean indicator
    rows for vectorized subset tests).  The distance plane builds it
    packed; the test oracle and hand-built schedules build it from plain
    frozensets.  Equality compares element sets, so mixed
    representations compare correctly.

    The packed matrix is read-only, so what the family derives from its
    members is computed once and kept: :meth:`sizes`, and the
    :meth:`coverage` verdict per graph and round budget.
    """

    __slots__ = ("_n", "_packed", "_sets", "_cache", "_sizes", "_verdicts")

    def __init__(
        self,
        n: int,
        *,
        packed: np.ndarray | None = None,
        sets: Sequence[frozenset[int]] | None = None,
    ) -> None:
        if (packed is None) == (sets is None):
            raise ValueError("exactly one of packed= or sets= is required")
        if packed is not None:
            packed.setflags(write=False)
        self._n = n
        self._packed = packed
        self._sets = tuple(sets) if sets is not None else None
        self._cache: dict[int, frozenset[int]] = {}
        self._sizes: np.ndarray | None = None
        # (graph fingerprint, t) -> coverage verdict, memoized=True.
        self._verdicts: dict[tuple[str, int], tuple] = {}

    @classmethod
    def from_packed(cls, packed: np.ndarray, n: int) -> "BallFamily":
        return cls(n, packed=packed)

    @classmethod
    def from_sets(cls, sets: Sequence[frozenset[int]], n: int) -> "BallFamily":
        return cls(n, sets=sets)

    def __len__(self) -> int:
        if self._sets is not None:
            return len(self._sets)
        return len(self._packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if self._sets is not None:
            return self._sets[index]
        cached = self._cache.get(index)
        if cached is None:
            row = np.unpackbits(
                self._packed[index], bitorder="little", count=self._n
            )
            cached = frozenset(np.nonzero(row)[0].tolist())
            self._cache[index] = cached
        return cached

    def sizes(self) -> np.ndarray:
        """Per-source member counts (popcounts; nothing materialized).

        Computed on the first call; every call returns that one
        read-only array.
        """
        sizes = self._sizes
        if sizes is None:
            if self._sets is not None:
                sizes = np.fromiter(
                    (len(s) for s in self._sets), dtype=np.int64, count=len(self._sets)
                )
            else:
                sizes = _popcounts(self._packed)
            sizes.setflags(write=False)
            self._sizes = sizes
        return sizes

    def coverage(self, network, t: int) -> tuple[tuple[int, ...], int, int, bool]:
        """``(uncovered, short, component_covered, memoized)`` on ``network``.

        Source ``c`` stands for node ``c``, as in a flood schedule.
        ``uncovered`` lists the centers whose set misses part of their
        ``B_t`` in ``network``.  A set holding all ``n`` nodes covers any
        ``B_t``; only the ``short`` remainder is checked.  The component
        rule comes first — ``B_t(c) ⊆ comp(c)``, so a set holding the
        center's whole connected component covers it
        (``component_covered`` counts those) — and the batched ``B_t``
        sweep runs for the rest only, checking ``B_t & ~set`` over
        boolean rows.  The test suite holds the verdict equal to a
        brute-force ``B_t ⊆ ball`` check on the seed's BFS.

        The verdict is memoized per ``(network.fingerprint(), t)``: the
        family never changes and the fingerprint pins the graph, so a
        repeat runs no popcount, no component labelling and no sweep,
        and says so with ``memoized=True``.
        """
        key = (network.fingerprint(), t)
        known = self._verdicts.get(key)
        if known is not None:
            return known
        n = network.n
        candidates = np.flatnonzero(self.sizes() != n).tolist()
        short = len(candidates)
        uncovered: list[int] = []
        if candidates:
            _, ep_u, ep_v = network.endpoints_flat()
            held = self.holds_components(candidates, component_labels(n, ep_u, ep_v))
            candidates = [
                c for c, whole in zip(candidates, held.tolist()) if not whole
            ]
        if candidates:
            indptr, indices = adjacency_csr(network)
            for offset, b_t in ball_matrix_blocks(indptr, indices, candidates, t):
                chunk = candidates[offset : offset + b_t.shape[0]]
                bad = (b_t & ~self.membership_rows(chunk)).any(axis=1)
                uncovered.extend(
                    center for center, is_bad in zip(chunk, bad.tolist()) if is_bad
                )
        verdict = (tuple(uncovered), short, short - len(candidates))
        # No lock: threads racing a first computation store equal values.
        self._verdicts[key] = verdict + (True,)
        return verdict + (False,)

    def holds_components(self, sources: Sequence[int], labels: np.ndarray) -> np.ndarray:
        """Per source ``i``: does set ``i`` hold node ``i``'s whole component?

        ``labels`` gives every node's component label
        (:func:`component_labels`); source ``i`` stands for node ``i``,
        as in a flood schedule.  Each row is tested on packed bits as
        ``popcount(row & component mask) == component size``, in row
        blocks, so no member set is unpacked and a set's size alone
        never decides the answer.
        """
        idx = np.asarray(sources, dtype=np.int64)
        n = self._n
        _, comp = np.unique(labels, return_inverse=True)
        nodes = np.arange(n, dtype=np.int64)
        masks = np.zeros((int(comp.max(initial=-1)) + 1, (n + 7) >> 3), dtype=np.uint8)
        np.bitwise_or.at(
            masks, (comp, nodes >> 3), (1 << (nodes & 7)).astype(np.uint8)
        )
        need = np.bincount(comp, minlength=len(masks))
        held = np.empty(len(idx), dtype=bool)
        block = _block_rows(n, len(idx))
        for start in range(0, len(idx), block):
            chunk = idx[start : start + block]
            rows = (
                self._packed[chunk]
                if self._packed is not None
                else _pack_rows(self.membership_rows(chunk))
            )
            rows &= masks[comp[chunk]]
            held[start : start + block] = _popcounts(rows) == need[comp[chunk]]
        return held

    def membership_rows(self, sources: Sequence[int]) -> np.ndarray:
        """Boolean ``(len(sources), n)`` indicator rows for those sources."""
        idx = np.asarray(sources, dtype=np.int64)
        if self._sets is not None:
            out = np.zeros((len(idx), self._n), dtype=bool)
            for i, source in enumerate(idx.tolist()):
                members = self._sets[source]
                out[i, np.fromiter(members, dtype=np.int64, count=len(members))] = True
            return out
        return np.unpackbits(
            self._packed[idx], axis=1, bitorder="little", count=self._n
        ).view(bool)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, BallFamily):
            if self._packed is not None and other._packed is not None:
                return self._n == other._n and np.array_equal(
                    self._packed, other._packed
                )
        if not isinstance(other, Sequence):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(self[i] == other[i] for i in range(len(self)))

    def __hash__(self):  # pragma: no cover - sets are unhashable anyway
        raise TypeError("BallFamily is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "packed" if self._packed is not None else "sets"
        return f"BallFamily({len(self)} sources over {self._n} nodes, {kind})"


# ----------------------------------------------------------------------
# public batched APIs
# ----------------------------------------------------------------------
def balls_and_eccentricities(network, radius: int) -> tuple[BallFamily, list[int]]:
    """Radius-balls and capped eccentricities for *every* node.

    ``balls[v]`` is the radius-ball around ``v`` (itself included);
    ``ecc[v]`` is the last level at which ``v``'s BFS found anything
    new, capped at ``radius`` — exactly the flood schedule's two
    ingredients.  The balls stay packed (:class:`BallFamily`);
    consumers that only need sizes or membership never pay for Python
    set materialization.
    """
    n = network.n
    indptr, indices = adjacency_csr(network)
    packed_rows: list[np.ndarray] = []
    ecc_out: list[int] = []
    block = _block_rows(n, n)
    for start in range(0, n, block):
        src = np.arange(start, min(start + block, n), dtype=np.int64)
        visited, _, block_ecc = _sweep(
            indptr, indices, src, n, max(0, radius), track_dist=False
        )
        # node-major bitset -> per-source packed membership rows
        unpacked = _unpack_bool(visited, len(src))
        packed_rows.append(_pack_rows(unpacked.T))
        ecc_out.extend(int(e) for e in block_ecc)
    packed = (
        np.concatenate(packed_rows)
        if len(packed_rows) > 1
        else packed_rows[0]
    )
    return BallFamily.from_packed(packed, n), ecc_out


def distance_blocks(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int],
    *,
    cutoff: float = _UNREACHABLE,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(offset, dist, exhausted)`` blocks of multi-source distances.

    ``dist`` is ``(rows, n)`` int32 — ``dist[i, w]`` is the distance
    from ``sources[offset + i]`` to ``w``, ``-1`` when ``w`` was not
    reached.  ``exhausted[i]`` is True when the truncated search
    provably explored its whole component, i.e. unreached nodes are
    disconnected rather than beyond the cutoff: the frontier died before
    the cutoff could bite.

    A node at distance ``d`` expands while ``d < cutoff``, so distances
    up to ``ceil(cutoff)`` are recorded.
    """
    n = len(indptr) - 1
    levels = None if math.isinf(cutoff) else int(math.ceil(cutoff))
    src = np.asarray(sources, dtype=np.int64)
    block = _block_rows(n, len(src), track_dist=True)
    for start in range(0, len(src), block):
        chunk = src[start : start + block]
        _, count, ecc = _sweep(indptr, indices, chunk, n, levels, track_dist=True)
        # A counter the sweep widened to int32 converts in place.
        dist = _distances(
            count,
            ecc,
            count if count.dtype == np.int32 else np.empty(count.shape, np.int32),
        )
        exhausted = (
            np.ones(len(chunk), dtype=bool)
            if levels is None
            else ecc < cutoff
        )
        yield start, dist.T, exhausted


def distance_matrix(
    indptr: np.ndarray, indices: np.ndarray, radius: int, dtype=np.int16
) -> np.ndarray:
    """All-pairs hop distances up to ``radius`` as one ``(n, n)`` matrix.

    ``dist[v, w]`` is the distance between ``v`` and ``w`` when it is at
    most ``radius``, else ``-1``; ``dtype`` must hold ``radius + 1``.
    Hop distances are symmetric, so a block of sources lands as
    columns, written straight from the sweep's node-major counters in
    ``dtype``: no int32 block, no transpose and no second full-matrix
    pass.
    """
    n = len(indptr) - 1
    dist = np.empty((n, n), dtype=dtype)
    block = _block_rows(n, n, track_dist=True)
    for start in range(0, n, block):
        src = np.arange(start, min(start + block, n), dtype=np.int64)
        _, count, ecc = _sweep(
            indptr, indices, src, n, max(0, radius), track_dist=True
        )
        _distances(count, ecc, dist[:, start : start + len(src)])
    return dist


def ball_matrix_blocks(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int],
    radius: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(offset, membership)`` blocks of radius-ball indicator rows.

    ``membership[i, w]`` is True iff ``w`` lies within ``radius`` hops
    of ``sources[offset + i]`` — the boolean form of the ball, for
    consumers that only test membership (the ``B_t``-coverage check).
    """
    n = len(indptr) - 1
    src = np.asarray(sources, dtype=np.int64)
    block = _block_rows(n, len(src))
    for start in range(0, len(src), block):
        chunk = src[start : start + block]
        visited, _, _ = _sweep(
            indptr, indices, chunk, n, max(0, radius), track_dist=False
        )
        yield start, _unpack_bool(visited, len(chunk)).T


def eccentricities(network) -> tuple[list[int], list[int]]:
    """Uncapped eccentricity and reached-component size for every node.

    Returns ``(ecc, reached)`` lists: ``ecc[v]`` is the greatest
    distance from ``v`` to any node it can reach, ``reached[v]`` the
    size of ``v``'s connected component — enough to derive diameters
    and detect disconnection without a per-node Python BFS.
    """
    n = network.n
    indptr, indices = adjacency_csr(network)
    ecc_out: list[int] = []
    reached_out: list[int] = []
    block = _block_rows(n, n)
    for start in range(0, n, block):
        src = np.arange(start, min(start + block, n), dtype=np.int64)
        visited, _, block_ecc = _sweep(indptr, indices, src, n, None, track_dist=False)
        ecc_out.extend(int(e) for e in block_ecc)
        counts = _unpack_bool(visited, len(src)).sum(axis=0, dtype=np.int64)
        reached_out.extend(int(c) for c in counts.tolist())
    return ecc_out, reached_out
