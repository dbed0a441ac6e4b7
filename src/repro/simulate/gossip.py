"""Gossip-based message-reduction baseline (Censor-Hillel et al. [8], Haeupler [22]).

The paper's introduction compares against gossip schemes that transform
any ``t``-round LOCAL algorithm into an ``O(t log n + log^2 n)``-round
algorithm sending ``n`` messages per round.  Reproducing the full
conductance-free rumor-spreading machinery is out of scope (DESIGN.md,
substitution note 3); this module provides:

* :func:`gossip_estimate` — the cited complexity envelope, used in the
  comparison tables (it is the *round blow-up*, not the message count,
  that the paper's scheme improves on);
* :func:`run_push_pull` — a concrete classic push–pull protocol, run
  as a bitset population on the vector round engine, whose measured
  coverage illustrates why plain gossip needs those extra
  machinery/rounds on poorly connected graphs.  Its per-node program
  is the population's oracle in ``tests/reference_runtime.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.local.engine import (
    PopulationInbox,
    PopulationOutbox,
    VectorProgram,
    VectorRuntime,
)
from repro.local.faults import FaultPlan
from repro.local.metrics import MessageStats
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = ["GossipEstimate", "gossip_estimate", "run_push_pull"]


@dataclass(frozen=True)
class GossipEstimate:
    """The [22] envelope for simulating a ``t``-round LOCAL algorithm."""

    rounds: int
    messages: int


def gossip_estimate(n: int, t: int, c1: float = 1.0) -> GossipEstimate:
    """``O(t log n + log^2 n)`` rounds at ``n`` messages per round."""
    log_n = max(1.0, math.log2(max(2, n)))
    rounds = math.ceil(c1 * (t * log_n + log_n**2))
    return GossipEstimate(rounds=rounds, messages=rounds * n)


class _VectorGossip(VectorProgram):
    """Classic push–pull: one partner per round, exchange known sets.

    Every node with a port pushes its known set to one uniformly drawn
    port per round (round 0 included); a node answers each push it
    receives with a reply holding its known set as of that message,
    and learns from pushes and replies alike.  Portless nodes halt
    reactively at once.

    Known sets are Python big-int bitsets: one ``|`` is a single C-level
    word-wise union, and because ints are immutable the mid-inbox reply
    snapshot the reference builds through mutation is just the running
    value — no per-message copies.  Partner draws replay the reference
    coin stream exactly (one ``randrange(deg)`` on the node's
    ``"node"``-prefixed stream per live node per round), and each
    receiver's inbox segment is digested *sequentially* in delivery
    order, so replies carry exactly the reference's prefix unions.
    """

    tag = "gossip"

    def __init__(self, network: Network, seed: int) -> None:
        n = network.n
        self._n = n
        indptr, inc = network.incidence_csr()
        indptr_list = np.frombuffer(indptr, dtype=np.int64).tolist()
        inc_list = np.frombuffer(inc, dtype=np.int64).tolist()
        self._known: list[int] = [1 << v for v in range(n)]
        self._ports: list[list[int]] = [
            inc_list[indptr_list[v] : indptr_list[v + 1]] for v in range(n)
        ]
        self._live_nodes = [v for v in range(n) if self._ports[v]]
        node_rng = RngFactory(seed).prefix("node")
        self._rngs = {v: node_rng.stream(v) for v in self._live_nodes}

    def _push_of(self, node: int) -> int:
        ports = self._ports[node]
        return ports[self._rngs[node].randrange(len(ports))]

    def on_start(self) -> PopulationOutbox | None:
        if not self._live_nodes:
            return None
        known = self._known
        eids = [self._push_of(v) for v in self._live_nodes]
        payloads = [known[v] for v in self._live_nodes]
        return PopulationOutbox(
            eids=np.asarray(eids, dtype=np.int64),
            senders=np.asarray(self._live_nodes, dtype=np.int64),
            data=(payloads, [True] * len(eids)),
        )

    def step_population(
        self, round_index: int, inbox: PopulationInbox
    ) -> PopulationOutbox | None:
        if not self._live_nodes:
            return None
        in_payloads, in_push = (
            inbox.data if inbox.data is not None else ([], [])
        )
        known = self._known
        indptr = inbox.indptr.tolist()
        rows = inbox.rows.tolist()
        eids = inbox.eids.tolist()
        out_eids: list[int] = []
        out_senders: list[int] = []
        out_payloads: list[int] = []
        out_push: list[bool] = []
        for v in self._live_nodes:
            row_v = known[v]
            for i in range(indptr[v], indptr[v + 1]):
                row = rows[i]
                row_v |= in_payloads[row]
                if in_push[row]:
                    # Reply with the known set *as of this message* —
                    # the reference sends mid-inbox-loop snapshots.
                    out_eids.append(eids[i])
                    out_senders.append(v)
                    out_payloads.append(row_v)
                    out_push.append(False)
            known[v] = row_v
            out_eids.append(self._push_of(v))
            out_senders.append(v)
            out_payloads.append(row_v)
            out_push.append(True)
        return PopulationOutbox(
            eids=np.asarray(out_eids, dtype=np.int64),
            senders=np.asarray(out_senders, dtype=np.int64),
            data=(out_payloads, out_push),
        )

    def outputs(self) -> dict[int, frozenset[int]]:
        n = self._n
        nbytes = (n + 7) // 8
        # One frozenset per *distinct* known set: after a few rounds
        # most nodes converge to the same (often full) set, and boxing
        # members per node would dominate the whole run.
        cache: dict[int, frozenset[int]] = {}
        out: dict[int, frozenset[int]] = {}
        for v in range(n):
            k = self._known[v]
            fs = cache.get(k)
            if fs is None:
                packed = np.frombuffer(
                    k.to_bytes(nbytes, "little"), dtype=np.uint8
                )
                bits = np.unpackbits(packed, bitorder="little")[:n]
                fs = cache[k] = frozenset(np.flatnonzero(bits).tolist())
            out[v] = fs
        return out

    @property
    def live(self) -> int:
        return len(self._live_nodes)


@dataclass(frozen=True)
class PushPullReport:
    coverage: float  # fraction of (node, t-ball member) pairs delivered
    messages: MessageStats
    rounds: int


def run_push_pull(
    network: Network,
    rounds: int,
    t: int,
    seed: int = 0,
    *,
    faults: FaultPlan | None = None,
) -> PushPullReport:
    """Run push–pull for ``rounds`` rounds; measure ``t``-ball coverage."""
    from repro.graphs.distance import balls_and_eccentricities

    report = VectorRuntime(
        network,
        _VectorGossip(network, seed),
        fixed_rounds=rounds,
        max_rounds=rounds + 1,
        faults=faults,
    ).run()
    balls, _ = balls_and_eccentricities(network, t)
    delivered = 0
    required = 0
    for node in network.nodes():
        ball = balls[node]
        known = report.outputs[node]
        required += len(ball)
        delivered += len(ball & known)
    return PushPullReport(
        coverage=delivered / max(1, required),
        messages=report.messages,
        rounds=report.rounds,
    )
