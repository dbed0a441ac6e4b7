"""Immutable communication networks with unique edge identifiers.

Storage is CSR-style flat arrays (see DESIGN.md §3): endpoint arrays
``_ep_u``/``_ep_v`` indexed by *row* (the rank of an edge id in sorted
order) and an incidence index ``(_indptr, _inc_eids)`` over nodes.
:class:`~repro.local.edges.EdgeRef` remains the public edge view, built
on demand by :meth:`Network.edge`; no per-edge objects are stored.

Every constructor and derivation ends in one NumPy fill
(``Network._assemble``, DESIGN.md §3.1): a stable sort of the
interleaved endpoints gives the incidence index.  :meth:`Network.subnetwork`
and :meth:`Network.mutated` pick the parent's rows with a mask, so a
derived network costs whole-array passes, not one Python step per row.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.errors import ConfigurationError
from repro.local.edges import EdgeRef
from repro.local.knowledge import Knowledge

__all__ = ["Network"]


class Network:
    """An undirected communication graph with unique edge IDs.

    Instances are immutable: the distributed runtime, the spanner
    algorithms, and the analysis code all share one ``Network`` safely.
    Node identifiers are ``0..n-1``.  Edge identifiers are arbitrary
    unique non-negative integers (by default consecutive), preserved by
    :meth:`subnetwork` so a spanner inherits the edge IDs of its parent
    graph — exactly the property the paper's model relies on.

    Invariants the flat representation maintains (DESIGN.md §3):

    * rows are ordered by ascending edge id, so ``_eids[row]`` is sorted
      and, when ids are consecutive ``0..m-1``, ``row == eid`` and the
      ``_eid_row`` dict is elided entirely (``None``);
    * ``_ep_u[row] <= _ep_v[row]`` (the canonical ``EdgeRef`` orientation);
    * each node's slice of ``_inc_eids`` is ascending, because the CSR
      fill's stable sort keeps row order within each node.
    """

    __slots__ = (
        "_n",
        "_knowledge",
        "_name",
        "_eids",
        "_eid_row",
        "_ep_u",
        "_ep_v",
        "_indptr",
        "_inc_eids",
        "_incident",
        "_neighbors",
        "_adjacency",
        "_fingerprint",
        # The round engine's DeliveryPlan (repro.local.engine), built
        # there on first use and shared by with_knowledge clones.
        "_delivery",
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[EdgeRef],
        *,
        knowledge: Knowledge = Knowledge.EDGE_IDS,
        name: str = "",
    ) -> None:
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
        self._assemble(
            n,
            tuple(r[0] for r in rows),
            np.array([r[1] for r in rows], dtype=np.int64),
            np.array([r[2] for r in rows], dtype=np.int64),
            knowledge,
            name,
        )

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _assemble(
        self,
        n: int,
        eids: Sequence[int],
        us: np.ndarray,
        vs: np.ndarray,
        knowledge: Knowledge,
        name: str,
        eid_values: np.ndarray | None = None,
    ) -> None:
        """Set every slot from pre-validated rows sorted by ascending eid.

        ``us``/``vs`` are int64 endpoint arrays with ``us <= vs``.
        ``eids`` becomes the ``_eids`` tuple as given, so a derived
        network holds its parent's int objects; ``eid_values`` is the
        same ids as an int64 array, when the caller already has one.
        """
        if n <= 0:
            raise ConfigurationError("a network needs at least one node")
        m = len(eids)
        self._n = n
        self._knowledge = knowledge
        self._name = name or f"network(n={n},m={m})"
        self._eids = tuple(eids)
        identity = m == 0 or (eids[0] == 0 and eids[m - 1] == m - 1)
        self._eid_row = None if identity else dict(zip(self._eids, range(m)))
        self._ep_u = array("q", us.tobytes())
        self._ep_v = array("q", vs.tobytes())
        # The CSR fill: one stable sort of the interleaved endpoints
        # (u_0, v_0, u_1, v_1, ...) by node.  Position // 2 is the row,
        # so every node's slice lists its rows in ascending order, as
        # §3.1 invariant 1 requires; sorting concat(us, vs) instead would
        # put a node's u-rows before its v-rows.  Node ids below 2**16
        # sort as uint16, which NumPy's stable sort radix-sorts.
        ends = np.empty(2 * m, dtype=np.int64)
        ends[0::2] = us
        ends[1::2] = vs
        keys = ends.astype(np.uint16) if n <= 1 << 16 else ends
        rows = np.argsort(keys, kind="stable") >> 1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        if not identity:
            if eid_values is None:
                eid_values = np.array(self._eids, dtype=np.int64)
            rows = eid_values[rows]
        self._indptr = array("q", indptr.tobytes())
        self._inc_eids = array("q", rows.tobytes())
        self._incident = None
        self._neighbors = None
        self._adjacency = None
        self._fingerprint = None
        self._delivery = None

    @classmethod
    def _trusted(
        cls,
        n: int,
        eids: Sequence[int],
        us: np.ndarray,
        vs: np.ndarray,
        knowledge: Knowledge,
        name: str,
        eid_values: np.ndarray | None = None,
    ) -> "Network":
        """Build from rows already known valid and sorted by eid."""
        self = object.__new__(cls)
        self._assemble(n, eids, us, vs, knowledge, name, eid_values)
        return self

    def _eid_values(self) -> np.ndarray:
        """The sorted edge ids as an int64 array."""
        m = len(self._eids)
        if self._eid_row is None:
            return np.arange(m, dtype=np.int64)
        return np.fromiter(self._eids, dtype=np.int64, count=m)

    def _rows_of(
        self, eids: Iterable[int], values: np.ndarray, unknown: str
    ) -> np.ndarray:
        """The rows of ``eids`` (any order, repeats allowed).

        ``values`` is :meth:`_eid_values`.  An id that is not an edge of
        this network raises :class:`ConfigurationError` with ``unknown``
        formatted on the smallest such id.
        """
        ids = list(eids)
        try:
            wanted = np.fromiter(ids, dtype=np.int64, count=len(ids))
        except OverflowError:  # beyond int64, so no edge id of ours
            wanted = None
        if wanted is not None:
            m = len(values)
            if self._eid_row is None:
                rows = wanted
                found = (wanted >= 0) & (wanted < m)
            else:
                rows = np.searchsorted(values, wanted)
                found = rows < m
                found[found] = values[rows[found]] == wanted[found]
            if found.all():
                return rows
        raise ConfigurationError(
            unknown.format(min(e for e in ids if not self.has_edge_id(e)))
        )

    def _select(
        self,
        keep: np.ndarray,
        values: np.ndarray,
        added: Sequence[tuple[int, int, int]],
        name: str,
    ) -> "Network":
        """The rows ``keep`` marks plus the validated ``added`` rows
        (sorted by eid), as a new network of the same node universe."""
        eids = list(compress(self._eids, keep.tolist()))
        us = np.frombuffer(self._ep_u, dtype=np.int64)[keep]
        vs = np.frombuffer(self._ep_v, dtype=np.int64)[keep]
        kept = values[keep]
        if added:
            extra = np.array(added, dtype=np.int64)
            merge = len(kept) and extra[0, 0] < kept[-1]
            eids += [row[0] for row in added]
            kept = np.concatenate([kept, extra[:, 0]])
            us = np.concatenate([us, extra[:, 1]])
            vs = np.concatenate([vs, extra[:, 2]])
            if merge:
                order = np.argsort(kept)
                eids = [eids[i] for i in order.tolist()]
                kept, us, vs = kept[order], us[order], vs[order]
        return Network._trusted(
            self._n, eids, us, vs, self._knowledge, name, kept
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: nx.Graph,
        *,
        knowledge: Knowledge = Knowledge.EDGE_IDS,
        name: str = "",
    ) -> "Network":
        """Build a network from a simple ``networkx`` graph.

        Nodes are relabelled to ``0..n-1`` in sorted order; edges receive
        consecutive IDs in lexicographic endpoint order, which makes edge
        IDs a pure function of the graph (stable across runs).
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        pairs = sorted(
            (min(index[a], index[b]), max(index[a], index[b])) for a, b in graph.edges()
        )
        for u, v in pairs:
            if u == v:
                raise ConfigurationError(f"self-loop on node {u} not allowed")
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        return cls._trusted(
            len(nodes),
            range(len(pairs)),
            ends[:, 0],
            ends[:, 1],
            knowledge,
            name or str(graph),
        )

    @classmethod
    def from_arrays(
        cls,
        n: int,
        us,
        vs,
        *,
        knowledge: Knowledge = Knowledge.EDGE_IDS,
        name: str = "",
    ) -> "Network":
        """Vectorized :meth:`from_edge_pairs`: endpoint arrays in, CSR out.

        ``us``/``vs`` are equal-length integer sequences (any orientation;
        rows are canonicalized to ``u <= v``).  Edge ids are consecutive
        ``0..m-1`` in the given row order, exactly like
        :meth:`from_edge_pairs` — but validation runs as whole-array
        NumPy passes before the shared CSR fill, which is what makes
        ``n >= 10^5`` generator outputs (DESIGN.md §3.11) constructible
        in tenths of a second instead of minutes of per-edge Python.
        """
        if n <= 0:
            raise ConfigurationError("a network needs at least one node")
        au = np.ascontiguousarray(us, dtype=np.int64)
        av = np.ascontiguousarray(vs, dtype=np.int64)
        if au.shape != av.shape or au.ndim != 1:
            raise ConfigurationError("endpoint arrays must be equal-length 1-D")
        m = int(au.shape[0])
        if m:
            loops = au == av
            if loops.any():
                node = int(au[np.argmax(loops)])
                raise ConfigurationError(f"self-loop on node {node} not allowed")
            if int(au.min()) < 0 or int(av.min()) < 0 or max(
                int(au.max()), int(av.max())
            ) >= n:
                raise ConfigurationError(
                    f"edge endpoint outside 0..{n - 1}"
                )
        return cls._trusted(
            n, range(m), np.minimum(au, av), np.maximum(au, av), knowledge, name
        )

    @classmethod
    def from_edge_pairs(
        cls,
        n: int,
        pairs: Sequence[tuple[int, int]],
        *,
        knowledge: Knowledge = Knowledge.EDGE_IDS,
        name: str = "",
    ) -> "Network":
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
        return cls._trusted(
            n,
            range(len(pairs)),
            np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64),
            knowledge,
            name,
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._eids)

    @property
    def name(self) -> str:
        return self._name

    @property
    def knowledge(self) -> Knowledge:
        return self._knowledge

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return self._eids

    def nodes(self) -> range:
        return range(self._n)

    def _row(self, eid: int) -> int:
        if self._eid_row is None:
            if 0 <= eid < len(self._eids):
                return eid
            raise KeyError(eid)
        return self._eid_row[eid]

    def edge(self, eid: int) -> EdgeRef:
        """The :class:`EdgeRef` view of one edge (built on demand)."""
        row = self._row(eid)
        return EdgeRef(eid, self._ep_u[row], self._ep_v[row])

    def has_edge_id(self, eid: int) -> bool:
        if self._eid_row is None:
            return 0 <= eid < len(self._eids)
        return eid in self._eid_row

    def fingerprint(self) -> str:
        """A stable content hash of the graph (cached).

        SHA-256 over the node count, the knowledge model, and the
        row-ordered ``(eid, u, v)`` CSR endpoint arrays serialized as
        little-endian int64 — i.e. a pure function of the *content* the
        simulator semantics depend on.  The hash is invariant to lazy
        view materialization (``EdgeRef`` construction, cached
        neighbor/adjacency tuples) and to the edge iteration order a
        constructor received, because rows are canonically sorted by
        edge id before assembly.  Two networks share a fingerprint iff
        they have the same ``n``, the same knowledge tag, and the exact
        same ``eid -> (u, v)`` mapping — the key property the artifact
        store relies on (DESIGN.md §3.8).
        """
        cached = self._fingerprint
        if cached is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(b"repro.network.v1\x00")
            digest.update(self._n.to_bytes(8, "little"))
            digest.update(self._knowledge.value.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(np.asarray(self._eids, dtype="<i8").tobytes())
            digest.update(np.frombuffer(self._ep_u, dtype=np.int64).astype("<i8").tobytes())
            digest.update(np.frombuffer(self._ep_v, dtype=np.int64).astype("<i8").tobytes())
            cached = self._fingerprint = digest.hexdigest()
        return cached

    def incident(self, node: int) -> tuple[int, ...]:
        """Sorted edge ids incident to ``node``."""
        incident = self._incident
        if incident is None:
            incident = self._build_incident()
        return incident[node]

    def degree(self, node: int) -> int:
        if not 0 <= node < self._n:
            raise IndexError(node)
        return self._indptr[node + 1] - self._indptr[node]

    def endpoints(self, eid: int) -> tuple[int, int]:
        row = self._row(eid)
        return self._ep_u[row], self._ep_v[row]

    def other_end(self, eid: int, node: int) -> int:
        """Runtime-side lookup; *not* exposed to node programs."""
        row = self._row(eid)
        u = self._ep_u[row]
        v = self._ep_v[row]
        if node == u:
            return v
        if node == v:
            return u
        raise ValueError(f"node {node} is not an endpoint of edge {eid}")

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Neighbor ids of ``node``, aligned with :meth:`incident` (cached)."""
        neighbors = self._neighbors
        if neighbors is None:
            neighbors = self._build_neighbors()
        return neighbors[node]

    # ------------------------------------------------------------------
    # flat views (runtime-side; not part of the node-program API)
    # ------------------------------------------------------------------
    def endpoints_flat(self) -> tuple[dict[int, int] | None, array, array]:
        """``(eid_to_row, ep_u, ep_v)`` — row-indexed endpoint arrays.

        ``eid_to_row`` is ``None`` when edge ids are consecutive
        ``0..m-1`` (then ``row == eid``).  Hot paths index the arrays
        directly instead of materializing per-edge tuples.
        """
        return self._eid_row, self._ep_u, self._ep_v

    def incidence_csr(self) -> tuple[array, array]:
        """``(indptr, eid_data)``: node ``v``'s incident edge ids are
        ``eid_data[indptr[v]:indptr[v + 1]]`` in ascending order."""
        return self._indptr, self._inc_eids

    # ------------------------------------------------------------------
    # derived networks and exports
    # ------------------------------------------------------------------
    def subnetwork(self, eids: Iterable[int], *, name: str = "") -> "Network":
        """Same node set, subset of edges, **same edge IDs**.

        Picks the child's rows out of the parent's arrays with one mask —
        no per-edge ``EdgeRef`` construction and no re-validation.  An id
        that is not an edge here raises :class:`ConfigurationError`.
        """
        values = self._eid_values()
        keep = np.zeros(len(values), dtype=bool)
        keep[self._rows_of(eids, values, "edge id {} not in network")] = True
        return self._select(keep, values, (), name or f"{self._name}|sub")

    def mutated(
        self,
        *,
        remove: Iterable[int] = (),
        add: Iterable[tuple[int, int, int]] = (),
        name: str = "",
    ) -> "Network":
        """A copy with ``remove``-d edge ids gone and ``add``-ed rows in.

        ``add`` rows are ``(eid, u, v)`` triples; surviving edges keep
        their ids (the property :meth:`subnetwork` guarantees, extended
        to additions), so a churned graph stays fingerprint-comparable
        and artifact-addressable.  The node universe is fixed: churn
        never renumbers nodes, a "removed" node is simply one that lost
        all its edges.  Validation matches ``__init__``: unknown removed
        ids, duplicate/colliding added ids, self-loops, and out-of-range
        endpoints all raise :class:`ConfigurationError`.
        """
        values = self._eid_values()
        keep = np.ones(len(values), dtype=bool)
        keep[self._rows_of(remove, values, "cannot remove unknown edge id {}")] = False
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
            if eid in added_ids or (self.has_edge_id(eid) and keep[self._row(eid)]):
                raise ConfigurationError(f"duplicate edge id {eid}")
            added_ids.add(eid)
            rows.append((eid, u, v))
        rows.sort()
        return self._select(keep, values, rows, name or f"{self._name}|mut")

    def with_knowledge(self, knowledge: Knowledge) -> "Network":
        """A view of the same graph under a different knowledge model.

        Shares every flat array (and any already-built caches) with the
        parent; only the knowledge tag differs.
        """
        clone = object.__new__(Network)
        clone._n = self._n
        clone._knowledge = knowledge
        clone._name = self._name
        clone._eids = self._eids
        clone._eid_row = self._eid_row
        clone._ep_u = self._ep_u
        clone._ep_v = self._ep_v
        clone._indptr = self._indptr
        clone._inc_eids = self._inc_eids
        clone._incident = self._incident
        clone._neighbors = self._neighbors
        clone._adjacency = self._adjacency
        clone._delivery = self._delivery
        # The knowledge tag participates in the fingerprint, so the
        # clone re-derives its own hash instead of sharing the parent's.
        clone._fingerprint = None
        return clone

    def to_networkx(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(range(self._n))
        for eid, u, v in zip(self._eids, self._ep_u, self._ep_v):
            graph.add_edge(u, v, eid=eid)
        return graph

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        adjacency = self._adjacency
        if adjacency is None:
            neighbors = self._neighbors
            if neighbors is None:
                neighbors = self._build_neighbors()
            adjacency = self._adjacency = {
                v: neighbors[v] for v in range(self._n)
            }
        return adjacency

    # ------------------------------------------------------------------
    # lazy cache builders
    # ------------------------------------------------------------------
    def _build_incident(self) -> tuple[tuple[int, ...], ...]:
        indptr = self._indptr
        inc = self._inc_eids
        built = tuple(
            tuple(inc[indptr[v] : indptr[v + 1]]) for v in range(self._n)
        )
        self._incident = built
        return built

    def _build_neighbors(self) -> tuple[tuple[int, ...], ...]:
        indptr = self._indptr
        inc = self._inc_eids
        ep_u = self._ep_u
        ep_v = self._ep_v
        eid_row = self._eid_row
        out: list[tuple[int, ...]] = []
        for v in range(self._n):
            mine: list[int] = []
            for i in range(indptr[v], indptr[v + 1]):
                eid = inc[i]
                row = eid if eid_row is None else eid_row[eid]
                a = ep_u[row]
                mine.append(ep_v[row] if a == v else a)
            out.append(tuple(mine))
        built = tuple(out)
        self._neighbors = built
        return built

    def __eq__(self, other: object) -> bool:
        """Value equality by content fingerprint.

        Two networks are equal iff they agree on ``n``, the knowledge
        model, and the exact ``eid -> (u, v)`` mapping — the same
        relation :meth:`fingerprint` hashes, so results loaded from the
        artifact store compare equal to results built live on a
        content-identical graph (names stay cosmetic).
        """
        if self is other:
            return True
        if not isinstance(other, Network):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(n={self._n}, m={self.m}, knowledge={self._knowledge.value})"
