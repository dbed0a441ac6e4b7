"""Baswana–Sen ``(2k-1)``-spanner, public-coin variant.

The classic randomized clustering construction [5], specialized to
unweighted graphs:

* ``R_0`` = singleton clusters.
* Phase ``i = 1..k-1``: every phase-``(i-1)`` cluster survives with
  probability ``n^{-1/k}``.  A node whose cluster did not survive joins
  an adjacent surviving cluster through one edge (added to the spanner)
  if any neighbor belongs to one; otherwise it adds one edge to *each*
  adjacent cluster and retires.
* Phase ``k``: every still-active node adds one edge per adjacent
  cluster.

**Public coins**: the survival coin of cluster ``c`` at phase ``i`` is
``stable_uniform(seed, ("bs", i, c)) < n^{-1/k}``, so every node
evaluates it locally — this removes the intra-cluster coordination
round of the textbook version without changing the analysis, and it
makes the node program a clean ``(k+1)``-round LOCAL algorithm whose
direct execution costs ``Theta(m)`` messages per round (the baseline
behaviour experiment E3 measures).

:class:`BaswanaSenLocal` is a :class:`~repro.algorithms.base.LocalAlgorithm`;
each node outputs the edge ids it added, and the spanner is their union.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algorithms.base import Inbox, LocalAlgorithm, NodeInit, Outbox
from repro.errors import ConfigurationError
from repro.local.network import Network
from repro.rng import stable_uniform

__all__ = ["BaswanaSenLocal", "baswana_sen_messages_estimate"]


@dataclass
class _BsState:
    ports: tuple[int, ...]
    n: int
    cluster: int
    active: bool = True
    added: set[int] = field(default_factory=set)
    # neighbor view from the previous round: eid -> (cluster, active)
    view: dict[int, tuple[int, bool]] = field(default_factory=dict)


class BaswanaSenLocal(LocalAlgorithm):
    """``(2k-1)``-spanner construction as a ``(k+1)``-round LOCAL payload.

    Output per node: sorted tuple of spanner edge ids the node added.
    The spanner is the union of all outputs.
    """

    name = "baswana-sen"

    def __init__(self, k: int, coin_seed: int = 0) -> None:
        if k < 1:
            raise ConfigurationError("Baswana-Sen needs k >= 1")
        self.k = k
        self.coin_seed = coin_seed

    def rounds(self, n: int) -> int:
        return self.k

    @property
    def stretch_bound(self) -> int:
        return 2 * self.k - 1

    def sampled(self, phase: int, cluster: int, n: int) -> bool:
        """The public survival coin of ``cluster`` at ``phase``."""
        p = float(max(2, n)) ** (-1.0 / self.k)
        return stable_uniform(self.coin_seed, ("bs", phase, cluster)) < p

    def init(self, info: NodeInit, tape: random.Random) -> _BsState:
        return _BsState(ports=info.ports, n=info.n, cluster=info.node)

    def step(self, state: _BsState, r: int, inbox: Inbox) -> tuple[_BsState, Outbox]:
        if r > 0:
            state.view = {eid: tuple(payload) for eid, payload in inbox.items()}
            if 1 <= r <= self.k - 1:
                self._clustering_phase(state, r)
            elif r == self.k:
                self._final_phase(state)
        outbox: Outbox = {}
        if r < self.k:
            announce = (state.cluster, state.active)
            for eid in state.ports:
                outbox[eid] = announce
        return state, outbox

    def output(self, state: _BsState) -> tuple[int, ...]:
        return tuple(sorted(state.added))

    # ------------------------------------------------------------------
    def _clustering_phase(self, state: _BsState, phase: int) -> None:
        if not state.active:
            return
        if self.sampled(phase, state.cluster, state.n):
            return  # our cluster survives; nothing to do
        survivors: dict[int, list[int]] = {}
        others: dict[int, list[int]] = {}
        for eid, (cluster, active) in state.view.items():
            if not active:
                continue
            bucket = survivors if self.sampled(phase, cluster, state.n) else others
            bucket.setdefault(cluster, []).append(eid)
        if survivors:
            chosen = min(survivors)
            edge = min(survivors[chosen])
            state.added.add(edge)
            state.cluster = chosen
        else:
            for _cluster, eids in sorted(others.items()):
                state.added.add(min(eids))
            state.active = False

    def _final_phase(self, state: _BsState) -> None:
        if not state.active:
            return
        by_cluster: dict[int, list[int]] = {}
        for eid, (cluster, active) in state.view.items():
            if not active or cluster == state.cluster:
                continue
            by_cluster.setdefault(cluster, []).append(eid)
        for _cluster, eids in sorted(by_cluster.items()):
            state.added.add(min(eids))


def baswana_sen_messages_estimate(network: Network, k: int) -> int:
    """Messages of the direct distributed execution: ``2m`` per round.

    Every node announces ``(cluster, active)`` over every incident edge
    in rounds ``0..k-1`` — the ``Omega(m)`` cost common to classic
    distributed spanner constructions (Section 1.2 of the paper).
    """
    return 2 * network.m * k
