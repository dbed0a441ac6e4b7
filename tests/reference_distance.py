"""The distance plane's oracle: the seed's pure-Python BFS and the
per-consumer loops built on it.

:mod:`repro.graphs.distance` computes every truncated BFS of the package
as batched bitset sweeps (DESIGN.md §3.7).  This module is that plane's
second implementation, kept under ``tests/`` as
:mod:`reference_sampler` is for the level kernel: the deque and
frontier-list BFS the repo shipped with, plus the flood schedule,
eccentricities, stretch reports and coverage verdict written on it.  It
calls no sweep of the plane (``_sweep``, ``distance_blocks``,
``ball_matrix_blocks`` or ``adjacency_csr``).  It shares only the value
types (``BallFamily``, ``FloodSchedule``, ``StretchReport``) and
``flood_stats``, the suffix sum that turns eccentricities into message
counters.
"""

from __future__ import annotations

import math
import random
from collections import deque

from repro.analysis.stretch import StretchReport
from repro.graphs.distance import BallFamily
from repro.simulate.tlocal import FloodSchedule, flood_stats

UNREACHABLE = math.inf


def adjacency(network, edge_ids=None) -> list[list[int]]:
    """Neighbor lists of ``network``, or of its subgraph on ``edge_ids``."""
    adj: list[list[int]] = [[] for _ in range(network.n)]
    for eid in network.edge_ids if edge_ids is None else edge_ids:
        u, v = network.endpoints(eid)
        adj[u].append(v)
        adj[v].append(u)
    return adj


def single_source_distances(adj, source: int, cutoff: float = UNREACHABLE) -> dict[int, int]:
    """Unweighted single-source distances, optionally truncated at ``cutoff``.

    A node at distance ``d`` expands while ``d < cutoff``.
    """
    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        d = dist[node]
        if d >= cutoff:
            continue
        for nxt in adj[node]:
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


def bfs_exhausted(dist: dict[int, int], cutoff: float) -> bool:
    """Whether a truncated BFS provably explored its whole component.

    When no node sits at distance ``cutoff`` the frontier died before
    the truncation could bite, so any node missing from ``dist`` is
    genuinely disconnected; otherwise a missing node may merely lie
    beyond the cutoff.
    """
    return cutoff == UNREACHABLE or all(d < cutoff for d in dist.values())


def balls(adj, radius: int, sources) -> tuple[list[frozenset[int]], list[int]]:
    """Frontier-list truncated BFS per source (the seed flood kernel):
    each source's radius-ball and its radius-capped eccentricity."""
    out: list[frozenset[int]] = []
    ecc: list[int] = []
    for source in sources:
        ball = {source}
        frontier = [source]
        reached = 0
        for r in range(1, radius + 1):
            layer: list[int] = []
            for u in frontier:
                for w in adj[u]:
                    if w not in ball:
                        ball.add(w)
                        layer.append(w)
            if not layer:
                break
            reached = r
            frontier = layer
        ecc.append(reached)
        out.append(frozenset(ball))
    return out, ecc


def flood_schedule(spanner, radius: int) -> FloodSchedule:
    """``repro.simulate.flood_schedule`` on the frontier-list BFS."""
    n = spanner.n
    sets, ecc = balls(adjacency(spanner), radius, range(n))
    degs = [spanner.degree(v) for v in range(n)]
    return FloodSchedule(
        balls=BallFamily.from_sets(sets, n),
        ecc=tuple(ecc),
        messages=flood_stats(ecc, degs, radius),
        rounds=max(0, radius),
    )


def uncovered_centers(network, balls, t: int) -> list[int]:
    """The coverage verdict by brute force: the centers whose ball misses
    part of their exact ``B_t`` in ``network``."""
    adj = adjacency(network)
    return [
        center
        for center in range(network.n)
        if not set(single_source_distances(adj, center, t)) <= set(balls[center])
    ]


def eccentricities(network) -> tuple[list[int], list[int]]:
    """``repro.graphs.distance.eccentricities`` by one BFS per node."""
    adj = adjacency(network)
    ecc: list[int] = []
    reached: list[int] = []
    for v in range(network.n):
        dist = single_source_distances(adj, v)
        ecc.append(max(dist.values()))
        reached.append(len(dist))
    return ecc, reached


def adjacent_pair_stretch(
    network, spanner_edges, *, sample=None, seed: int = 0, cutoff: float = UNREACHABLE
) -> StretchReport:
    """``repro.analysis.adjacent_pair_stretch`` by one BFS per source."""
    spanner_adj = adjacency(network, sorted(set(spanner_edges)))
    eids = list(network.edge_ids)
    if sample is not None and sample < len(eids):
        eids = random.Random(seed).sample(eids, sample)
    by_source: dict[int, list[int]] = {}
    for eid in eids:
        u, v = network.endpoints(eid)
        by_source.setdefault(u, []).append(v)
    worst = total = 0.0
    unreachable = beyond = measured = 0
    for source, targets in by_source.items():
        dist = single_source_distances(spanner_adj, source, cutoff)
        exhausted = bfs_exhausted(dist, cutoff)
        for target in targets:
            measured += 1
            d = dist.get(target)
            if d is None:
                if exhausted:
                    unreachable += 1
                else:
                    beyond += 1
            else:
                worst = max(worst, float(d))
                total += d
    return StretchReport(
        max_stretch=worst,
        mean_stretch=total / max(1, measured - unreachable - beyond),
        pairs_measured=measured,
        unreachable_pairs=unreachable,
        beyond_cutoff=beyond,
    )
