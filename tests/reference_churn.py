"""The churn engine's and the CSR fill's oracle: the per-edge and per-row
Python they replaced.

:func:`repro.dynamic.churn.apply_churn` decides an epoch with whole-array
passes and batched coins, and every :class:`~repro.local.network.Network`
is filled by one NumPy pass (DESIGN.md §3.1, §3.9).  This module keeps
the loops they replaced, as :mod:`reference_distance` keeps the seed BFS:
the per-row CSR fill (``assemble``), the row-by-row ``subnetwork`` and
``mutated``, the four constructors written on that fill, and the
per-edge ``apply_churn`` that draws one coin per ``uniform`` call.  It
calls none of ``Network``'s construction internals, so an oracle network
and a package network agree only if both fills do.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

from repro.dynamic.churn import ChurnPlan, MutationLog
from repro.errors import ConfigurationError
from repro.local.edges import EdgeRef
from repro.local.knowledge import Knowledge
from repro.local.network import Network
from repro.rng import RngFactory

__all__ = [
    "CSR_SLOTS",
    "apply_churn",
    "assemble",
    "assert_same_network",
    "from_arrays",
    "from_edge_pairs",
    "from_graph",
    "mutated",
    "network",
    "subnetwork",
    "trusted",
]

# The slots a construction sets; two builds of one graph agree on all.
CSR_SLOTS = (
    "_n", "_knowledge", "_name", "_eids", "_eid_row", "_ep_u", "_ep_v", "_indptr", "_inc_eids"
)


def assert_same_network(new: Network, oracle: Network) -> None:
    """Every slot a construction sets, type and value, plus the hash."""
    for slot in CSR_SLOTS:
        got, want = getattr(new, slot), getattr(oracle, slot)
        assert type(got) is type(want), slot
        assert got == want, slot
    assert new.fingerprint() == oracle.fingerprint()


def assemble(
    self: Network,
    n: int,
    eids: Sequence[int],
    us: Sequence[int],
    vs: Sequence[int],
    knowledge: Knowledge,
    name: str,
) -> None:
    """Set every slot from pre-validated rows sorted by ascending eid."""
    if n <= 0:
        raise ConfigurationError("a network needs at least one node")
    m = len(eids)
    self._n = n
    self._knowledge = knowledge
    self._name = name or f"network(n={n},m={m})"
    self._eids = tuple(eids)
    identity = m == 0 or (eids[0] == 0 and eids[m - 1] == m - 1)
    self._eid_row = None if identity else {eid: row for row, eid in enumerate(eids)}
    self._ep_u = array("q", us)
    self._ep_v = array("q", vs)
    indptr = array("q", bytes(8 * (n + 1)))
    for u in us:
        indptr[u + 1] += 1
    for v in vs:
        indptr[v + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    inc = array("q", bytes(8 * 2 * m))
    cursor = array("q", indptr)
    for row in range(m):
        eid = eids[row]
        u = us[row]
        v = vs[row]
        inc[cursor[u]] = eid
        cursor[u] += 1
        inc[cursor[v]] = eid
        cursor[v] += 1
    self._indptr = indptr
    self._inc_eids = inc
    self._incident = None
    self._neighbors = None
    self._adjacency = None
    self._fingerprint = None
    self._delivery = None


def trusted(
    n: int,
    eids: Sequence[int],
    us: Sequence[int],
    vs: Sequence[int],
    knowledge: Knowledge,
    name: str,
) -> Network:
    """Build from rows already known valid and sorted by eid."""
    self = object.__new__(Network)
    assemble(self, n, eids, us, vs, knowledge, name)
    return self


def network(
    n: int,
    edges: Iterable[EdgeRef],
    *,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
    name: str = "",
) -> Network:
    """``Network(n, edges)``."""
    rows: list[tuple[int, int, int]] = []
    seen: set[int] = set()
    for edge in edges:
        if edge.eid in seen:
            raise ConfigurationError(f"duplicate edge id {edge.eid}")
        if edge.is_loop():
            raise ConfigurationError(f"self-loop on node {edge.u} not allowed")
        if not (0 <= edge.u and edge.v < n):  # EdgeRef guarantees u <= v
            raise ConfigurationError(f"edge {edge} has endpoint outside 0..{n - 1}")
        seen.add(edge.eid)
        rows.append((edge.eid, edge.u, edge.v))
    rows.sort()
    return trusted(
        n,
        [r[0] for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        knowledge,
        name,
    )


def from_graph(graph, *, knowledge: Knowledge = Knowledge.EDGE_IDS, name: str = "") -> Network:
    """``Network.from_graph(graph)``."""
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    pairs = sorted(
        (min(index[a], index[b]), max(index[a], index[b])) for a, b in graph.edges()
    )
    for u, v in pairs:
        if u == v:
            raise ConfigurationError(f"self-loop on node {u} not allowed")
    return trusted(
        len(nodes),
        range(len(pairs)),
        [p[0] for p in pairs],
        [p[1] for p in pairs],
        knowledge,
        name or str(graph),
    )


def from_edge_pairs(
    n: int,
    pairs: Sequence[tuple[int, int]],
    *,
    knowledge: Knowledge = Knowledge.EDGE_IDS,
    name: str = "",
) -> Network:
    """``Network.from_edge_pairs(n, pairs)``."""
    us: list[int] = []
    vs: list[int] = []
    for a, b in pairs:
        u, v = (a, b) if a <= b else (b, a)
        if u == v:
            raise ConfigurationError(f"self-loop on node {u} not allowed")
        if not (0 <= u and v < n):
            raise ConfigurationError(
                f"edge ({a}, {b}) has endpoint outside 0..{n - 1}"
            )
        us.append(u)
        vs.append(v)
    return trusted(n, range(len(pairs)), us, vs, knowledge, name)


def from_arrays(n: int, us, vs, *, knowledge: Knowledge = Knowledge.EDGE_IDS, name: str = "") -> Network:
    """``Network.from_arrays(n, us, vs)``: canonical rows, consecutive ids,
    the per-row fill (validation is ``from_edge_pairs``')."""
    pairs = list(zip((int(a) for a in us), (int(b) for b in vs)))
    return from_edge_pairs(n, pairs, knowledge=knowledge, name=name)


def subnetwork(self: Network, eids: Iterable[int], *, name: str = "") -> Network:
    """Same node set, subset of edges, **same edge IDs**.

    Builds the child's arrays straight from the parent's rows — no
    per-edge ``EdgeRef`` construction and no re-validation.
    """
    keep = sorted(set(eids))
    ep_u = self._ep_u
    ep_v = self._ep_v
    us: list[int] = []
    vs: list[int] = []
    eid_row = self._eid_row
    m = len(self._eids)
    for eid in keep:
        if eid_row is None:
            if not 0 <= eid < m:
                raise ConfigurationError(f"edge id {eid} not in network")
            row = eid
        else:
            row = eid_row.get(eid)
            if row is None:
                raise ConfigurationError(f"edge id {eid} not in network")
        us.append(ep_u[row])
        vs.append(ep_v[row])
    return trusted(
        self._n, keep, us, vs, self._knowledge, name or f"{self._name}|sub"
    )


def mutated(
    self: Network,
    *,
    remove: Iterable[int] = (),
    add: Iterable[tuple[int, int, int]] = (),
    name: str = "",
) -> Network:
    """A copy with ``remove``-d edge ids gone and ``add``-ed rows in."""
    drop = set(remove)
    for eid in drop:
        if not self.has_edge_id(eid):
            raise ConfigurationError(f"cannot remove unknown edge id {eid}")
    rows: list[tuple[int, int, int]] = []
    added_ids: set[int] = set()
    for eid, a, b in add:
        u, v = (a, b) if a <= b else (b, a)
        if u == v:
            raise ConfigurationError(f"self-loop on node {u} not allowed")
        if not (0 <= u and v < self._n):
            raise ConfigurationError(
                f"edge ({a}, {b}) has endpoint outside 0..{self._n - 1}"
            )
        if eid in added_ids or (self.has_edge_id(eid) and eid not in drop):
            raise ConfigurationError(f"duplicate edge id {eid}")
        added_ids.add(eid)
        rows.append((eid, u, v))
    ep_u = self._ep_u
    ep_v = self._ep_v
    for row, eid in enumerate(self._eids):
        if eid not in drop:
            rows.append((eid, ep_u[row], ep_v[row]))
    rows.sort()
    return trusted(
        self._n,
        [r[0] for r in rows],
        [r[1] for r in rows],
        [r[2] for r in rows],
        self._knowledge,
        name or f"{self._name}|mut",
    )


def apply_churn(
    network: Network, plan: ChurnPlan, epoch: int = 0
) -> tuple[Network, MutationLog]:
    """Apply one epoch of ``plan`` to ``network``, one edge at a time."""
    if epoch < 0:
        raise ConfigurationError("epoch must be >= 0")
    rngf = RngFactory(plan.seed)
    n = network.n
    eid_row, ep_u, ep_v = network.endpoints_flat()

    crashed: list[int] = []
    if plan.node_crash > 0.0:
        crash_rng = rngf.prefix("crash", epoch)
        crashed = [
            v
            for v in range(n)
            if network.degree(v) > 0 and crash_rng.uniform(v) < plan.node_crash
        ]
    down = set(crashed)

    removed: list[tuple[int, int, int]] = []
    removal_rng = rngf.prefix("drop-edge", epoch) if plan.edge_removal > 0.0 else None
    for row, eid in enumerate(network.edge_ids):
        u = ep_u[row]
        v = ep_v[row]
        if u in down or v in down:
            removed.append((eid, u, v))
        elif removal_rng is not None and removal_rng.uniform(eid) < plan.edge_removal:
            removed.append((eid, u, v))

    # Pair occupancy of the post-removal graph, so additions never
    # create a parallel edge (the simple-graph families stay simple).
    removed_ids = {r[0] for r in removed}
    pairs = {
        (ep_u[row], ep_v[row])
        for row, eid in enumerate(network.edge_ids)
        if eid not in removed_ids
    }
    next_eid = max(network.edge_ids, default=-1) + 1
    added: list[tuple[int, int, int]] = []

    if plan.node_recovery > 0.0:
        recover_rng = rngf.prefix("recover", epoch)
        # Nodes with edges in the parent graph that are not crashing now.
        alive = [
            v
            for v in range(n)
            if v not in down and network.degree(v) > 0
        ]
        for v in range(n):
            if network.degree(v) > 0 or v in down:
                continue
            if recover_rng.uniform(v) >= plan.node_recovery:
                continue
            candidates = [w for w in alive if w != v]
            if not candidates:
                continue
            pick_rng = rngf.stream("recover-edges", epoch, v)
            want = min(plan.recovery_degree, len(candidates))
            for w in sorted(pick_rng.sample(candidates, want)):
                pair = (v, w) if v <= w else (w, v)
                if pair in pairs:
                    continue
                pairs.add(pair)
                added.append((next_eid, pair[0], pair[1]))
                next_eid += 1

    if plan.edge_addition > 0.0:
        want = round(plan.edge_addition * network.m)
        add_rng = rngf.stream("add-edge", epoch)
        attempts = 0
        limit = 20 * (want + 1)
        while want > 0 and attempts < limit:
            attempts += 1
            a = add_rng.randrange(n)
            b = add_rng.randrange(n)
            if a == b or a in down or b in down:
                continue
            pair = (a, b) if a <= b else (b, a)
            if pair in pairs:
                continue
            pairs.add(pair)
            added.append((next_eid, pair[0], pair[1]))
            next_eid += 1
            want -= 1

    if not removed and not added:
        child = network
    else:
        child = mutated(
            network,
            remove=removed_ids,
            add=added,
            name=f"{network.name}|epoch{epoch}",
        )
    # Recovered = previously isolated nodes that gained an edge this epoch.
    regained = {u for _e, u, v in added} | {v for _e, u, v in added}
    recovered = tuple(
        sorted(v for v in regained if network.degree(v) == 0)
    )
    log = MutationLog(
        epoch=epoch,
        parent_fingerprint=network.fingerprint(),
        child_fingerprint=child.fingerprint(),
        removed_edges=tuple(sorted(removed)),
        added_edges=tuple(sorted(added)),
        crashed=tuple(sorted(crashed)),
        recovered=recovered,
    )
    return child, log
