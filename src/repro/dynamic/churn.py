"""Deterministic network churn: seeded epochs of edge/node dynamics.

The paper's guarantees are proven on a static graph; this module is the
repo's dynamic-network counterpart (ROADMAP: "churn, recovery, and
self-healing spanners").  A :class:`ChurnPlan` describes a seeded
sequence of *epochs*; :func:`apply_churn` applies one epoch to a CSR
:class:`~repro.local.network.Network` and returns the mutated network
together with a :class:`MutationLog` — the provenance record the repair
layer (:mod:`repro.dynamic.repair`) and the artifact store's lineage
keys consume.

Model choices, all in service of determinism and CSR stability:

* the node universe ``0..n-1`` is fixed.  A node "crash" removes every
  incident edge (the node survives as an isolated vertex); a "recovery"
  re-attaches an isolated node to a few live neighbors.  ``n`` never
  changes, so :class:`~repro.core.params.SamplerParams` budgets — all
  functions of ``n`` — stay comparable across epochs;
* surviving edges keep their ids; new edges draw fresh ids above the
  current maximum, so an id is never reused and the fingerprint chain
  is collision-free by construction;
* every decision is a pure function of ``(plan.seed, epoch)`` plus the
  *parent* graph: per-edge and per-node coins come from
  :class:`~repro.rng.RngFactory` streams keyed by purpose and epoch,
  exactly the public-coin discipline the sampler itself uses.

An epoch is decided in whole-array passes over the parent's CSR
(DESIGN.md §3.9): degrees from ``indptr``, one batched
:meth:`~repro.rng.RngPrefix.uniforms` call per coin purpose (crash,
drop-edge, recovery), removals as one endpoint mask, and pair occupancy
as a set of ``u * n + v`` keys.  Only the recovery picks and the edge
additions stay loops, because each consumes a ``random.Random`` stream
in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["ChurnPlan", "MutationLog", "apply_churn", "churn_sequence"]


@dataclass(frozen=True)
class MutationLog:
    """Everything one churn epoch did, with full provenance.

    ``removed_edges``/``added_edges`` are ``(eid, u, v)`` rows (sorted
    by eid), so the parent graph can be reconstructed from the child and
    the log alone.  ``parent_fingerprint``/``child_fingerprint`` chain
    the artifacts: the repair layer refuses a log whose parent does not
    match the spanner it is asked to repair.
    """

    epoch: int
    parent_fingerprint: str
    child_fingerprint: str
    removed_edges: tuple[tuple[int, int, int], ...]
    added_edges: tuple[tuple[int, int, int], ...]
    crashed: tuple[int, ...]
    recovered: tuple[int, ...]

    @property
    def is_noop(self) -> bool:
        """True when the epoch changed nothing (fingerprint preserved)."""
        return not self.removed_edges and not self.added_edges


@dataclass(frozen=True)
class ChurnPlan:
    """A seeded description of network dynamics.

    Per epoch: every node with edges crashes with probability
    ``node_crash`` (dropping all incident edges); every isolated node
    recovers with probability ``node_recovery`` (gaining up to
    ``recovery_degree`` edges to sampled live nodes); every surviving
    edge is independently removed with probability ``edge_removal``; and
    ``round(edge_addition * m)`` fresh random edges are added between
    non-crashed nodes.
    """

    seed: int = 0
    epochs: int = 1
    edge_removal: float = 0.05
    edge_addition: float = 0.0
    node_crash: float = 0.0
    node_recovery: float = 0.0
    recovery_degree: int = 2

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError("a churn plan needs at least one epoch")
        for label, p in (
            ("edge_removal", self.edge_removal),
            ("edge_addition", self.edge_addition),
            ("node_crash", self.node_crash),
            ("node_recovery", self.node_recovery),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{label} must be in [0, 1], got {p}")
        if self.recovery_degree < 1:
            raise ConfigurationError("recovery_degree must be >= 1")


def apply_churn(
    network: Network, plan: ChurnPlan, epoch: int = 0
) -> tuple[Network, MutationLog]:
    """Apply one epoch of ``plan`` to ``network``.

    Deterministic: the same ``(network, plan, epoch)`` triple always
    yields the same mutated network and log.  Edge ids of survivors are
    preserved; additions allocate fresh ids above the parent's maximum.
    """
    if epoch < 0:
        raise ConfigurationError("epoch must be >= 0")
    if not obs.enabled():
        return _apply_churn(network, plan, epoch)
    with obs.span(
        "dynamic/churn", n=network.n, m=network.m, epoch=epoch
    ) as churn_span:
        mutated, log = _apply_churn(network, plan, epoch)
        churn_span.set(
            removed=len(log.removed_edges),
            added=len(log.added_edges),
            crashed=len(log.crashed),
            recovered=len(log.recovered),
        )
    return mutated, log


def _apply_churn(
    network: Network, plan: ChurnPlan, epoch: int
) -> tuple[Network, MutationLog]:
    rngf = RngFactory(plan.seed)
    n = network.n
    eids = network.edge_ids
    _, ep_u, ep_v = network.endpoints_flat()
    us = np.frombuffer(ep_u, dtype=np.int64)
    vs = np.frombuffer(ep_v, dtype=np.int64)
    degree = np.diff(np.frombuffer(network.incidence_csr()[0], dtype=np.int64))

    # Crash coins for every node with edges; a crash drops them all.
    down = np.zeros(n, dtype=bool)
    if plan.node_crash > 0.0:
        live = np.flatnonzero(degree)
        coins = rngf.prefix("crash", epoch).uniforms(live.tolist())
        down[live[coins < plan.node_crash]] = True
    crashed = np.flatnonzero(down).tolist()

    # A row goes with a crashed endpoint, or on its drop-edge coin.
    gone = down[us] | down[vs]
    if plan.edge_removal > 0.0:
        rest = np.flatnonzero(~gone)
        coins = rngf.prefix("drop-edge", epoch).uniforms(
            compress(eids, (~gone).tolist())
        )
        gone[rest[coins < plan.edge_removal]] = True
    removed_ids = list(compress(eids, gone.tolist()))
    removed = list(zip(removed_ids, us[gone].tolist(), vs[gone].tolist()))

    # Pair occupancy of the post-removal graph, as u * n + v keys, so
    # additions never create a parallel edge (the simple-graph families
    # stay simple).
    pairs = set((us[~gone] * n + vs[~gone]).tolist())
    next_eid = eids[-1] + 1 if eids else 0
    added: list[tuple[int, int, int]] = []

    if plan.node_recovery > 0.0:
        # Recovery targets: every node that has edges in the parent
        # graph and is not crashing now, including one whose edges were
        # all dropped this epoch.  A recovering node has degree 0, so it
        # is never among them.
        alive = np.flatnonzero(degree.astype(bool) & ~down).tolist()
        isolated = np.flatnonzero(degree == 0)
        coins = rngf.prefix("recover", epoch).uniforms(isolated.tolist())
        for v in isolated[coins < plan.node_recovery].tolist():
            if not alive:
                break
            pick_rng = rngf.stream("recover-edges", epoch, v)
            want = min(plan.recovery_degree, len(alive))
            for w in sorted(pick_rng.sample(alive, want)):
                a, b = (v, w) if v <= w else (w, v)
                if a * n + b not in pairs:
                    pairs.add(a * n + b)
                    added.append((next_eid, a, b))
                    next_eid += 1

    if plan.edge_addition > 0.0:
        is_down = down.tolist()
        want = round(plan.edge_addition * network.m)
        add_rng = rngf.stream("add-edge", epoch)
        attempts = 0
        limit = 20 * (want + 1)
        while want > 0 and attempts < limit:
            attempts += 1
            a = add_rng.randrange(n)
            b = add_rng.randrange(n)
            if a == b or is_down[a] or is_down[b]:
                continue
            if a > b:
                a, b = b, a
            if a * n + b in pairs:
                continue
            pairs.add(a * n + b)
            added.append((next_eid, a, b))
            next_eid += 1
            want -= 1

    if not removed and not added:
        mutated = network
    else:
        mutated = network.mutated(
            remove=removed_ids,
            add=added,
            name=f"{network.name}|epoch{epoch}",
        )
    # Recovered = previously isolated nodes that gained an edge this epoch.
    regained = {u for _e, u, v in added} | {v for _e, u, v in added}
    recovered = tuple(sorted(v for v in regained if degree[v] == 0))
    log = MutationLog(
        epoch=epoch,
        parent_fingerprint=network.fingerprint(),
        child_fingerprint=mutated.fingerprint(),
        removed_edges=tuple(removed),
        added_edges=tuple(added),
        crashed=tuple(crashed),
        recovered=recovered,
    )
    return mutated, log


def churn_sequence(
    network: Network, plan: ChurnPlan
) -> list[tuple[Network, MutationLog]]:
    """Run every epoch of ``plan`` in order from ``network``.

    Returns one ``(network_after, log)`` pair per epoch; the logs chain
    (``logs[i].child_fingerprint == logs[i+1].parent_fingerprint``), the
    exact shape :func:`repro.dynamic.repair.repair_spanner` accepts.
    """
    out: list[tuple[Network, MutationLog]] = []
    current = network
    for epoch in range(plan.epochs):
        current, log = apply_churn(current, plan, epoch)
        out.append((current, log))
    return out
