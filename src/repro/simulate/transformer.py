"""The generic LOCAL-algorithm transformer.

Any ``t``-round LOCAL algorithm is simulated in two moves (Section 6):

1. **Collect**: every node's initial knowledge ``M_v = (id, incident
   edge ids)`` is ``t``-locally broadcast by flooding ``alpha * t``
   rounds over the spanner;
2. **Replay**: each node reconstructs the graph induced by the reports
   it received (two reports sharing an edge id are adjacent — the
   unique-edge-ID model at work), computes its exact ``t``-ball with a
   BFS, and replays the algorithm locally.  The standard locality
   argument makes this exact: the round-``r`` state of a node at
   distance ``d`` is computable whenever ``r <= t - d``, and every
   message such a node receives comes from inside the ball.

Node randomness is re-derived from ``(seed, "tape", node)``, identical
to the direct runner's derivation, so the simulated outputs equal the
direct outputs *bit for bit* — the property the test suite asserts for
every payload algorithm.

Two paths (DESIGN.md §3.5), and the input picks one.
:func:`runtime_simulation` is the literal reference: a simulated flood,
then one independent replay per center, each rebuilding its own
``owners``/``endpoint_of`` maps from the collected reports; it is what
runs under a fault plan that drops or erases messages.  Otherwise
:func:`simulate_over_spanner` exploits that the replays are all
prefixes of one deterministic execution: the flood's first-learn
schedule (:func:`~repro.simulate.tlocal.flood_schedule`) gives every
center's collected ball, the reconstruction every center would perform
is the network's own adjacency restricted to that ball, and whenever
the ball covers ``B_t(center)`` the center's replayed output equals
the shared global replay's.  So it runs *one* ``t``-round replay over
the shared adjacency and hands every covered center its output; only
centers whose collected ball fails to cover ``B_t`` (an under-flooded
radius) fall back to the literal per-center replay, keeping the two
paths output-identical in every failure-free case.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro import obs
from repro.algorithms.base import LocalAlgorithm, NodeInit
from repro.algorithms.runner import node_tape, run_inprocess
from repro.graphs.distance import BallFamily
from repro.local.metrics import MessageStats
from repro.local.network import Network
from repro.simulate.tlocal import (
    FloodReport,
    FloodSchedule,
    flood_schedule,
    runtime_flood,
)

__all__ = [
    "SimulationOutcome",
    "replay_ball",
    "runtime_simulation",
    "simulate_over_spanner",
]


@dataclass(frozen=True)
class SimulationOutcome:
    """Result of one transformed execution."""

    outputs: dict[int, Any]
    messages: MessageStats
    rounds: int
    radius: int
    mean_reports: float

    @property
    def total_messages(self) -> int:
        return self.messages.total


def simulate_over_spanner(
    network: Network,
    spanner_edges: Iterable[int],
    alpha: int,
    algo: LocalAlgorithm,
    seed: int = 0,
    *,
    radius: int | None = None,
    schedule: FloodSchedule | None = None,
    faults=None,
) -> SimulationOutcome:
    """Run ``algo`` via ``t``-local broadcast over the given spanner.

    ``schedule`` lets a caller that already holds this spanner's
    :class:`FloodSchedule` at exactly the flood radius (the simulation
    service, which fetches it from its artifact store) skip the
    derivation; omitted, the schedule is derived afresh.  A ``faults``
    plan that can drop or erase a message runs
    :func:`runtime_simulation` instead, which reads no schedule: the
    derivation describes the failure-free flood only.
    """
    if faults is not None and not faults.is_noop:
        return runtime_simulation(
            network, spanner_edges, alpha, algo, seed, radius=radius, faults=faults
        )
    t = algo.rounds(network.n)
    flood_radius = radius if radius is not None else alpha * t
    if schedule is None:
        # The spanner subnetwork exists only to derive the schedule, so
        # a caller who supplies one saves the whole construction.
        schedule = flood_schedule(network.subnetwork(spanner_edges), flood_radius)
    elif schedule.rounds != max(0, flood_radius):
        raise ValueError(
            f"precomputed schedule covers radius {schedule.rounds}, "
            f"this simulation floods radius {flood_radius}"
        )
    outputs = _replay_shared(network, algo, t, seed, schedule)
    return SimulationOutcome(
        outputs=outputs,
        messages=schedule.messages,
        rounds=schedule.rounds,
        radius=flood_radius,
        mean_reports=schedule.mean_ball_size(),
    )


def runtime_simulation(
    network: Network,
    spanner_edges: Iterable[int],
    alpha: int,
    algo: LocalAlgorithm,
    seed: int = 0,
    *,
    radius: int | None = None,
    faults=None,
) -> SimulationOutcome:
    """Run ``algo`` via the literal flood and one replay per center.

    The paper's simulation as written: :func:`runtime_flood` over the
    spanner subnetwork (under ``faults``, if given), then each center
    replays ``algo`` on the reports it collected (:func:`replay_ball`).
    Without faults its outcome equals :func:`simulate_over_spanner`'s.
    """
    t = algo.rounds(network.n)
    flood_radius = radius if radius is not None else alpha * t
    flood: FloodReport = runtime_flood(
        network.subnetwork(spanner_edges),
        payload_of=lambda node: tuple(network.incident(node)),
        radius=flood_radius,
        faults=faults,
    )
    outputs = {
        node: replay_ball(algo, node, flood.collected[node], t, seed, network.n)
        for node in network.nodes()
    }
    mean_reports = sum(len(r) for r in flood.collected.values()) / max(1, network.n)
    return SimulationOutcome(
        outputs=outputs,
        messages=flood.messages,
        rounds=flood.rounds,
        radius=flood_radius,
        mean_reports=mean_reports,
    )


def _replay_shared(
    network: Network,
    algo: LocalAlgorithm,
    t: int,
    seed: int,
    schedule: FloodSchedule,
) -> dict[int, Any]:
    """One global replay serving every center whose ball is covered.

    A center whose collected ball contains its exact ``B_t`` in ``G``
    reconstructs precisely the network's adjacency restricted to that
    ball, and by the locality argument its per-center replay equals the
    global one — so those centers share a single ``t``-round execution.
    Centers left uncovered by the flood (radius below ``alpha * t``, or
    a non-spanner edge set) replay literally on their partial ball, which
    keeps this path output-identical to :func:`runtime_simulation`
    always.

    The coverage verdict ``B_t(center) ⊆ ball(center)`` is
    :meth:`BallFamily.coverage`, memoized on the schedule's family per
    graph and ``t``: a repeated ``(schedule, graph, t)`` costs only the
    replay, which the ``simulate/replay`` span times.
    """
    n = network.n
    balls = schedule.balls
    family = (
        balls
        if isinstance(balls, BallFamily)
        else BallFamily.from_sets([frozenset(b) for b in balls], n)
    )
    if not obs.enabled():
        uncovered = family.coverage(network, t)[0]
        return _replay_centers(network, algo, t, seed, family, uncovered)
    with obs.span("simulate/coverage", t=t) as coverage_span:
        uncovered, short, component_covered, memoized = family.coverage(network, t)
        coverage_span.set(
            short=short,
            component_covered=component_covered,
            uncovered=len(uncovered),
            memoized=memoized,
        )
    with obs.span("simulate/replay", algo=algo.name, t=t, fallbacks=len(uncovered)):
        return _replay_centers(network, algo, t, seed, family, uncovered)


def _replay_centers(
    network: Network,
    algo: LocalAlgorithm,
    t: int,
    seed: int,
    family: BallFamily,
    uncovered: tuple[int, ...],
) -> dict[int, Any]:
    """Every center's output: the shared replay for the covered ones,
    a literal replay on its collected ball for each uncovered one."""
    n = network.n
    # The global replay serves the covered centers; skip it when the
    # flood covered nobody (every output would be overwritten below).
    outputs = {} if len(uncovered) == n else run_inprocess(network, algo, seed)
    for center in uncovered:
        reports = {x: network.incident(x) for x in family[center]}
        outputs[center] = replay_ball(algo, center, reports, t, seed, n)
    return outputs


def replay_ball(
    algo: LocalAlgorithm,
    center: int,
    reports: Mapping[int, tuple[int, ...]],
    t: int,
    seed: int,
    n: int,
) -> Any:
    """Locally replay ``algo`` on ``center``'s collected ball.

    ``reports`` maps node ids to their incident edge-id tuples; it must
    cover at least ``B_t(center)`` (guaranteed by flooding an
    ``alpha``-spanner for ``alpha * t`` rounds).  This is the literal
    per-center reconstruction the paper describes; the shared replay
    calls it only for centers the flood failed to cover.
    """
    # Reconstruct adjacency: an edge id reported twice joins its reporters.
    owners: dict[int, list[int]] = {}
    for node, ports in reports.items():
        for eid in ports:
            owners.setdefault(eid, []).append(node)
    adjacency: dict[int, list[tuple[int, int]]] = {node: [] for node in reports}
    for eid, ends in owners.items():
        if len(ends) == 2:
            a, b = ends
            adjacency[a].append((b, eid))
            adjacency[b].append((a, eid))

    # Exact t-ball distances from the center.
    dist = {center: 0}
    queue = deque([center])
    while queue:
        node = queue.popleft()
        if dist[node] >= t:
            continue
        for neighbor, _eid in adjacency[node]:
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    ball = set(dist)

    # Replay: node u is stepped at round r while r <= t - dist[u].
    states: dict[int, Any] = {}
    for node in ball:
        info = NodeInit(node=node, ports=tuple(reports[node]), n=n)
        states[node] = algo.init(info, node_tape(seed, node))
    endpoint_of: dict[tuple[int, int], int] = {}
    for eid, ends in owners.items():
        if len(ends) == 2:
            a, b = ends
            endpoint_of[(eid, a)] = b
            endpoint_of[(eid, b)] = a

    inboxes: dict[int, dict[int, Any]] = {node: {} for node in ball}
    for r in range(t + 1):
        next_inboxes: dict[int, dict[int, Any]] = {node: {} for node in ball}
        for node in ball:
            if r > t - dist[node]:
                continue
            states[node], outbox = algo.step(states[node], r, inboxes[node])
            if r == t:
                continue
            for eid, payload in outbox.items():
                receiver = endpoint_of.get((eid, node))
                if receiver is not None and receiver in ball:
                    next_inboxes[receiver][eid] = payload
        inboxes = next_inboxes
    return algo.output(states[center])
