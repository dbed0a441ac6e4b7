"""Self-healing spanner repair: rebuild only what churn invalidated.

:func:`repair_spanner` takes a cached :class:`SpannerResult` (typically
the distributed construction the artifact store holds), the post-churn
:class:`Network`, and the :class:`~repro.dynamic.churn.MutationLog`
chain connecting the two, and produces the spanner of the *new* graph —
**bit-identical** to a fresh centralized ``build_spanner(new_network,
params)`` (and therefore trace-signature-identical to a fresh
distributed rebuild, by the repo's headline equivalence) — while
re-running trials only for the clusters the churn could have affected.

How: :class:`RepairRun` drives the same level loop as
:class:`~repro.core.sampler.SamplerRun` but *replays* any cluster whose
trial inputs are provably unchanged from the parent run, straight from
the parent's :class:`~repro.core.trace.NodeLevelTrace`.  A cluster is
replayable at level ``j`` when

* its merge history is identical to the parent run (same join sets with
  replay-clean joiners all the way down), so its member set — and with
  it the dedup'd pool — is unchanged;
* no member is *touched* (an endpoint of a removed or added edge);
* its finish-announcement ``dead`` set is unchanged: whenever either
  run performs an announcement the other does not mirror exactly, every
  receiving cluster is conservatively marked dirty;
* its pool edges see the same environment: each edge leads to the same
  neighbor cluster with the same active/finished status in both runs.

Everything the checks cannot prove unchanged re-runs the real
:class:`~repro.core.trials.TrialMachine` under the exact per-cluster
RNG streams of a fresh run (``("trials", j, cid)`` keyed off
``params.seed``), so fresh and replayed clusters compose into precisely
the fresh run's outcome.  Wrong conservatism costs speed, never
correctness — at churn rate 1 the repair degrades into a plain
centralized rebuild.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.params import SamplerParams
from repro.core.sampler import SamplerRun
from repro.core.spanner import SpannerResult
from repro.core.trace import LevelTrace, NodeLevelTrace
from repro.core.trials import TrialMachine
from repro.errors import ConfigurationError
from repro.local.network import Network

from repro.dynamic.churn import MutationLog

__all__ = ["RepairRun", "repair_spanner"]


class _ReplayedMachine:
    """A finished :class:`TrialMachine` stand-in built from the parent
    run's :class:`NodeLevelTrace` — every attribute the sampler's level
    loop reads off a machine, without running a single trial."""

    __slots__ = (
        "label",
        "trials_run",
        "pool_size",
        "target",
        "query_budget",
        "stats",
        "_f_active",
        "_f_inactive",
    )

    def __init__(self, entry: NodeLevelTrace) -> None:
        self.label = entry.label
        self.trials_run = entry.trials
        self.pool_size = entry.pool_final
        self.target = entry.target
        self.query_budget = entry.query_budget
        self.stats = entry.trial_stats
        self._f_active = dict(entry.f_active)
        self._f_inactive = dict(entry.f_inactive)

    @property
    def f_active(self) -> dict[int, int]:
        return dict(self._f_active)


class RepairRun(SamplerRun):
    """One incremental repair execution over the post-churn graph.

    ``parent`` is the spanner of the pre-churn graph (its trace is the
    replay source); ``touched`` the set of physical nodes incident to
    any removed or added edge.
    """

    def __init__(
        self,
        network: Network,
        params: SamplerParams,
        *,
        parent: SpannerResult,
        touched: frozenset[int],
        jobs: int | None = None,
    ) -> None:
        super().__init__(network, params, jobs=jobs)
        if parent.params != params:
            raise ConfigurationError(
                "repair requires the parent's construction parameters"
            )
        if parent.network.n != network.n:
            raise ConfigurationError(
                f"node universe changed ({parent.network.n} -> {network.n}); "
                "churn keeps n fixed, so this is not a churn descendant"
            )
        self._parent = parent
        self._old_levels = parent.trace.levels
        if len(self._old_levels) != params.levels:
            raise ConfigurationError(
                f"parent trace has {len(self._old_levels)} levels, "
                f"params specify {params.levels}"
            )
        # Parent-run cluster state, advanced level by level in
        # _after_level: assignment of each phys node and member lists.
        self._old_root: list[int] = list(range(network.n))
        self._old_members: dict[int, list[int]] = {v: [v] for v in network.nodes()}
        # Clusters whose membership, pool, and dead set are provably
        # identical to the parent run's same-id cluster.
        self._clean: set[int] = set(network.nodes()) - set(touched)
        # Mid-level dirty marks from announcement divergence.
        self._marked: set[int] = set()
        # The parent run's view of the current level, set per level.
        self._old_nodes: dict[int, NodeLevelTrace] = {}
        self._old_active: set[int] = set()
        self._replayed_now: set[int] = set()
        self._old_unclustered_now: set[int] = set()
        self.replayed_clusters = 0
        self.fresh_clusters = 0

    # ------------------------------------------------------------------
    def result(self) -> SpannerResult:
        base = super().result()
        parent = self._parent
        return SpannerResult(
            network=base.network,
            params=base.params,
            edges=base.edges,
            trace=base.trace,
            provenance=parent.provenance + (parent.network.fingerprint(),),
        )

    # ------------------------------------------------------------------
    def _parallel_level_ok(self, j: int) -> bool:
        """Shard a level only once replay is off the table: with no
        clean cluster left, every machine runs fresh — exactly the
        population the parallel engine executes.  ``_clean`` never
        refills (``_after_level`` only intersects it down), so a repair
        that goes parallel stays parallel."""
        return super()._parallel_level_ok(j) and not self._clean

    def _note_parallel_trials(self, j, part) -> None:
        """Mirror ``_run_trials``'s per-level bookkeeping for a sharded
        level: nothing replays, every active cluster runs fresh."""
        self._old_unclustered_now = set(self._old_levels[j].unclustered)
        self._replayed_now = set()
        self.fresh_clusters += len(part.cids)

    def _finish_clusters_parallel(self, j, unclustered, part, nodes):
        """Parallel levels never replay, so every announcement is
        un-mirrored: mark every receiver dirty, exactly as the serial
        ``_finish_cluster`` override does fresh-finisher by finisher."""
        recv = super()._finish_clusters_parallel(j, unclustered, part, nodes)
        if recv is not None:
            self._marked.update(recv.tolist())
        return recv

    # ------------------------------------------------------------------
    def _run_trials(
        self,
        j: int,
        live: dict[int, list[int]],
        by_neighbor: dict[int, dict[int, list[int]]],
    ) -> dict[int, TrialMachine]:
        old_level = self._old_levels[j]
        self._old_nodes = old_level.nodes
        self._old_active = set(old_level.nodes)
        self._old_unclustered_now = set(old_level.unclustered)
        replayed = self._replayed_now = set()
        machines = super()._run_trials(j, live, by_neighbor)
        self.replayed_clusters += len(replayed)
        self.fresh_clusters += len(machines) - len(replayed)
        return machines

    def _replay(self, cid: int, live: list[int]) -> TrialMachine | None:
        if cid not in self._clean:
            return None
        entry = self._old_nodes.get(cid)
        if (
            entry is None
            or entry.pool_initial != len(live)
            or not self._environment_clean(cid, live, self._old_active)
        ):
            return None
        # Same pool, same RNG stream, same query responses: a fresh
        # machine would retrace the parent's exact trajectory, so hand
        # back its recorded outcome.
        self._replayed_now.add(cid)
        return _ReplayedMachine(entry)  # type: ignore[return-value]

    def _environment_clean(
        self, cid: int, edges: list[int], old_active: set[int]
    ) -> bool:
        """Every pool edge leads to the same cluster with the same
        active/finished status as in the parent run, so each query
        response — ``(eid, other, bundle, active)`` — is unchanged."""
        eid_row = self._eid_row
        ep_u = self._ep_u
        ep_v = self._ep_v
        root = self.forest.root_of
        old_root = self._old_root
        active = self._active
        for eid in edges:
            row = eid if eid_row is None else eid_row[eid]
            u = ep_u[row]
            other_phys = ep_v[row] if root[u] == cid else u
            new_other = root[other_phys]
            if old_root[other_phys] != new_other:
                return False
            if (new_other in active) != (new_other in old_active):
                return False
        return True

    # ------------------------------------------------------------------
    def _finish_cluster(
        self, cid: int, level: int, machine, live: list[int]
    ) -> None:
        super()._finish_cluster(cid, level, machine, live)
        if level >= self.params.k:
            return  # no announcements at the final level
        if cid in self._replayed_now and cid in self._old_unclustered_now:
            # The parent run made the very same announcement (same
            # payload, same F edges, same receiver endpoints), so the
            # receivers' dead sets evolve identically — no new dirt.
            return
        members = set(self.forest.members(cid))
        for _neighbor, eid in machine.f_active.items():
            a, b = self.network.endpoints(eid)
            receiver = b if a in members else a
            self._marked.add(self.forest.cluster_of(receiver))

    # ------------------------------------------------------------------
    def _after_level(self, j: int, level_trace: LevelTrace) -> None:
        old_level = self._old_levels[j]
        # (1) Parent-run announcements the new run did not mirror: their
        # receivers' dead sets silently differ from the parent run, so
        # the receivers' *new* clusters must not be replayed.
        if j < self.params.k:
            new_unclustered = set(level_trace.unclustered)
            parent_net = self._parent.network
            cluster_of = self.forest.cluster_of
            for ocid in old_level.unclustered:
                if ocid in self._replayed_now and ocid in new_unclustered:
                    continue  # mirrored exactly (see _finish_cluster)
                entry = old_level.nodes[ocid]
                if not entry.f_active:
                    continue
                omembers = set(self._old_members.get(ocid, (ocid,)))
                for _neighbor, eid in entry.f_active:
                    # Parent-graph edge: may be gone from the new graph.
                    a, b = parent_net.endpoints(eid)
                    receiver = b if a in omembers else a
                    self._marked.add(cluster_of(receiver))

        # (2) Propagate cleanliness to the next level's active set: a
        # center stays clean iff it was a parent-run center with the
        # identical joiner set, every joiner clean, and nothing marked
        # it dirty this level.
        old_join_sets: dict[int, set[int]] = {}
        for joiner, center, _eid in old_level.joins:
            old_join_sets.setdefault(center, set()).add(joiner)
        new_join_sets: dict[int, set[int]] = {}
        for joiner, center, _eid in level_trace.joins:
            new_join_sets.setdefault(center, set()).add(joiner)
        old_centers = set(old_level.centers)
        clean = self._clean
        next_clean: set[int] = set()
        for center in level_trace.centers:
            if center not in clean or center not in old_centers:
                continue
            joiners = new_join_sets.get(center, set())
            if joiners != old_join_sets.get(center, set()):
                continue
            if any(v not in clean for v in joiners):
                continue
            next_clean.add(center)
        next_clean -= self._marked
        self._clean = next_clean
        self._marked = set()

        # (3) Advance the parent run's cluster assignment by its joins.
        members = self._old_members
        old_root = self._old_root
        for joiner, center, _eid in old_level.joins:
            moved = members.pop(joiner, None)
            if moved is None:
                moved = [joiner]
            dest = members.get(center)
            if dest is None:
                dest = members[center] = [center]
            dest.extend(moved)
            for phys in moved:
                old_root[phys] = center


def repair_spanner(
    parent: SpannerResult,
    network: Network,
    logs: MutationLog | Sequence[MutationLog],
    *,
    jobs: int | None = None,
) -> SpannerResult:
    """Repair ``parent``'s spanner onto the post-churn ``network``.

    ``logs`` is the mutation chain from the parent's graph to
    ``network`` (a single log or a fingerprint-chained sequence, oldest
    first); a chain that does not connect the two graphs is refused.
    The result is bit-identical to ``build_spanner(network,
    parent.params)`` — same edges, same full trace — with
    ``provenance`` extended by the parent graph's fingerprint, and
    ``messages``/``rounds`` of ``None`` (repair is centralized work; it
    meters no distributed messages).

    ``jobs`` follows :func:`~repro.core.sampler.build_spanner`: > 1
    shards any level on which no cluster remains replayable across
    worker processes (default ``REPRO_BUILD_JOBS``, else serial).
    Levels that can still replay stay serial — replay skips work the
    parallel engine would redo.
    """
    chain = (logs,) if isinstance(logs, MutationLog) else tuple(logs)
    if not chain:
        raise ConfigurationError("repair needs at least one mutation log")
    expected = parent.network.fingerprint()
    for log in chain:
        if log.parent_fingerprint != expected:
            raise ConfigurationError(
                f"mutation log for epoch {log.epoch} chains from "
                f"{log.parent_fingerprint[:12]}…, expected {expected[:12]}…"
            )
        expected = log.child_fingerprint
    if expected != network.fingerprint():
        raise ConfigurationError(
            f"mutation chain ends at {expected[:12]}…, but the target "
            f"network is {network.fingerprint()[:12]}…"
        )
    touched: set[int] = set()
    for log in chain:
        touched |= log.touched_nodes()
    run = RepairRun(
        network, parent.params, parent=parent, touched=frozenset(touched),
        jobs=jobs,
    )
    return run.run()
