"""The two-stage message-reduction scheme (Theorem 3, second bullet).

The paper's improvement: use the ``Sampler`` spanner ``H1`` only as a
*bootstrap* to message-efficiently simulate an off-the-shelf spanner
construction with a better size/stretch trade-off, then run the payload
over that second spanner ``H2``:

1. build ``H1`` with the ``Sampler``, its distributed run priced in
   closed form (messages independent of ``m``);
2. simulate the stage-2 construction — a ``t2``-round LOCAL algorithm —
   via ``t2``-local broadcast over ``H1``; its outputs assemble ``H2``;
3. simulate the payload via ``t``-local broadcast over ``H2``.

The paper instantiates stage 2 with Derbel et al. [11]; this
reproduction substitutes Baswana–Sen (DESIGN.md note 2), which is
likewise a constant-round LOCAL construction with a strictly better
trade-off than ``H1`` — the only property the argument uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.algorithms.base import LocalAlgorithm
from repro.baselines.baswana_sen import BaswanaSenLocal
from repro.core.accounting import build_spanner_priced
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.local.network import Network
from repro.simulate.transformer import SimulationOutcome, simulate_over_spanner

__all__ = ["TwoStageReport", "run_two_stage"]


@dataclass(frozen=True)
class TwoStageReport:
    """Cost breakdown of the two-stage pipeline."""

    outputs: dict[int, Any]
    stage1: SpannerResult
    stage2_sim: SimulationOutcome
    stage2_edges: frozenset[int]
    stage2_stretch: int
    payload_sim: SimulationOutcome

    @property
    def total_messages(self) -> int:
        assert self.stage1.messages is not None
        return (
            self.stage1.messages.total
            + self.stage2_sim.total_messages
            + self.payload_sim.total_messages
        )

    @property
    def combined_messages(self):
        """One :class:`~repro.local.metrics.MessageStats` over all three
        stages; ``stage_offsets`` keeps the per-round series of stage-1
        construction, stage-2 simulation, and payload simulation
        separable after concatenation."""
        assert self.stage1.messages is not None
        return self.stage1.messages.merge(self.stage2_sim.messages).merge(
            self.payload_sim.messages
        )

    @property
    def total_rounds(self) -> int:
        assert self.stage1.rounds is not None
        return self.stage1.rounds + self.stage2_sim.rounds + self.payload_sim.rounds

    def summary(self) -> str:
        assert self.stage1.messages is not None and self.stage1.rounds is not None
        return (
            f"two-stage scheme: stage1 |S1|={self.stage1.size} "
            f"({self.stage1.messages.total} msgs, {self.stage1.rounds} rounds); "
            f"stage2 |S2|={len(self.stage2_edges)} "
            f"({self.stage2_sim.total_messages} msgs, {self.stage2_sim.rounds} rounds); "
            f"payload {self.payload_sim.total_messages} msgs, "
            f"{self.payload_sim.rounds} rounds"
        )


def run_two_stage(
    network: Network,
    algo: LocalAlgorithm,
    *,
    stage1_params: SamplerParams,
    stage2_k: int = 3,
    seed: int = 0,
) -> TwoStageReport:
    """Run the full two-stage pipeline, metering every stage; the ``H1``
    construction is priced (``build_spanner_priced``, DESIGN.md §3.15),
    and both flood schedules are derived afresh on every call.
    """
    stage1 = build_spanner_priced(network, stage1_params)

    stage2_algo = BaswanaSenLocal(k=stage2_k, coin_seed=seed)
    stage2_sim = simulate_over_spanner(
        network,
        stage1.edges,
        alpha=stage1.stretch_bound,
        algo=stage2_algo,
        seed=seed,
    )
    stage2_edges: set[int] = set()
    for added in stage2_sim.outputs.values():
        stage2_edges.update(added)

    payload_sim = simulate_over_spanner(
        network,
        stage2_edges,
        alpha=stage2_algo.stretch_bound,
        algo=algo,
        seed=seed,
    )
    return TwoStageReport(
        outputs=payload_sim.outputs,
        stage1=stage1,
        stage2_sim=stage2_sim,
        stage2_edges=frozenset(stage2_edges),
        stage2_stretch=stage2_algo.stretch_bound,
        payload_sim=payload_sim,
    )
