"""Structured execution traces of a ``Sampler`` run.

The trace is the single source of truth for:

* the Figure-1 style walk-through (examples/cluster_trace_figure1.py);
* the Lemma 4/5/6 population and label statistics (experiments E5, E6);
* the closed-form message accounting cross-validated against the real
  distributed execution (:mod:`repro.core.accounting`);
* the centralized-vs-distributed equality tests.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import NamedTuple

from repro.core.params import SamplerParams
from repro.core.trials import NodeLabel, TrialStats

__all__ = [
    "FinishedCluster",
    "LevelTrace",
    "NodeLevelTrace",
    "SamplerTrace",
]


class NodeLevelTrace(NamedTuple):
    """What one virtual node did during one level.

    A ``NamedTuple`` (not a dataclass): one is built per virtual node
    per level, so construction cost is on the sampler's hot path.
    """

    vid: int
    label: NodeLabel
    trials: int
    draws: int
    queries_sent: int
    neighbors_found: int
    inactive_found: int
    pool_initial: int
    pool_final: int
    degree: int
    target: int
    query_budget: int
    f_active: tuple[tuple[int, int], ...]  # (neighbor cid, eid), sorted
    f_inactive: tuple[tuple[int, int], ...]
    trial_stats: tuple[TrialStats, ...] = ()

    @property
    def is_light(self) -> bool:
        return self.label is NodeLabel.LIGHT

    @property
    def is_heavy(self) -> bool:
        return self.label is NodeLabel.HEAVY


@dataclass(frozen=True)
class FinishedCluster:
    """A cluster that left the hierarchy (unclustered at its level)."""

    cid: int
    level: int
    label: NodeLabel
    live_edges: frozenset[int]


@dataclass(frozen=True)
class LevelTrace:
    """One invocation of ``Cluster_j``."""

    level: int
    population: int                  # n_j
    active_edges: int                # edges of G_j (alive on both sides)
    stale_edges: int                 # alive on one side only (to finished clusters)
    cluster_sizes: dict[int, int]    # active cid -> physical member count
    cluster_heights: dict[int, int]  # active cid -> tree height at level start
    nodes: dict[int, NodeLevelTrace]
    centers: tuple[int, ...]
    joins: tuple[tuple[int, int, int], ...]  # (joiner, center, eid)
    unclustered: tuple[int, ...]
    f_edges: frozenset[int]          # spanner edges contributed by this level

    @property
    def labels(self) -> dict[int, NodeLabel]:
        return {vid: node.label for vid, node in self.nodes.items()}

    def count_label(self, label: NodeLabel) -> int:
        return sum(1 for node in self.nodes.values() if node.label is label)

    @property
    def total_queries(self) -> int:
        return sum(node.queries_sent for node in self.nodes.values())


@dataclass
class SamplerTrace:
    """Full record of one ``Sampler`` run."""

    n: int
    m: int
    params: SamplerParams
    levels: list[LevelTrace] = field(default_factory=list)
    finished: dict[int, FinishedCluster] = field(default_factory=dict)

    @property
    def populations(self) -> list[int]:
        """``n_j`` for ``j = 0..k`` (Lemma 4's subject)."""
        return [level.population for level in self.levels]

    @property
    def total_queries(self) -> int:
        return sum(level.total_queries for level in self.levels)

    def level(self, j: int) -> LevelTrace:
        return self.levels[j]

    def signature(self) -> tuple:
        """A comparable digest used by centralized-vs-distributed tests."""
        return tuple(
            (
                lvl.level,
                lvl.population,
                tuple(sorted(lvl.labels.items())),
                lvl.centers,
                lvl.joins,
                lvl.unclustered,
                tuple(sorted(lvl.f_edges)),
            )
            for lvl in self.levels
        )

    def full_signature(self) -> tuple:
        """Every field of the trace as one canonical, comparable tuple.

        :meth:`signature` covers only what the distributed run can
        observe; this also covers per-node degrees, draws, pool sizes
        and trial stats, the active/stale edge split, cluster heights
        and the finished records.  Sets and dicts are sorted, and
        labels appear by name, so ``repr`` of the result is stable
        across processes (the full-trace goldens hash it).
        """

        def node(t: NodeLevelTrace) -> tuple:
            stats = tuple(astuple(s) for s in t.trial_stats)
            return tuple(t._replace(label=t.label.name, trial_stats=stats))

        levels = tuple(
            (
                lvl.level,
                lvl.population,
                lvl.active_edges,
                lvl.stale_edges,
                tuple(sorted(lvl.cluster_sizes.items())),
                tuple(sorted(lvl.cluster_heights.items())),
                tuple(node(lvl.nodes[vid]) for vid in sorted(lvl.nodes)),
                lvl.centers,
                lvl.joins,
                lvl.unclustered,
                tuple(sorted(lvl.f_edges)),
            )
            for lvl in self.levels
        )
        finished = tuple(
            (f.cid, f.level, f.label.name, tuple(sorted(f.live_edges)))
            for f in (self.finished[cid] for cid in sorted(self.finished))
        )
        return (self.n, self.m, repr(self.params), levels, finished)
