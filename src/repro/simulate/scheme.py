"""The one-stage message-reduction scheme (Theorem 3, first bullet).

For a parameter ``1 <= gamma <= log log n`` the scheme sets
``k = gamma`` and ``h = 2^{gamma+1} - 1`` so that the spanner's size
exponent and the message exponent coincide, yielding

* message complexity ``O~(t * n^{1 + 2/(2^{gamma+1}-1)})`` and
* round complexity ``O(3^gamma * t + 6^gamma)``

for any ``t``-round payload.  The construction stage builds the
``Sampler`` spanner on the level kernel and prices the distributed run
in closed form (:func:`~repro.core.accounting.build_spanner_priced`,
equal to the metered run), and the simulation stage floods the
payload's initial knowledge ``alpha * t`` rounds over the constructed
spanner and replays locally (:mod:`repro.simulate.transformer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.algorithms.base import LocalAlgorithm
from repro.core.accounting import build_spanner_priced
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.local.network import Network
from repro.simulate.transformer import SimulationOutcome, simulate_over_spanner

__all__ = ["SchemeReport", "run_one_stage", "theorem3_params"]


def theorem3_params(gamma: int, seed: int = 0, **overrides: Any) -> SamplerParams:
    """Theorem 3's parameter choice: ``k = gamma``, ``h = 2^{gamma+1}-1``."""
    defaults: dict[str, Any] = dict(k=gamma, h=2 ** (gamma + 1) - 1, seed=seed)
    defaults.update(overrides)
    return SamplerParams(**defaults)


@dataclass(frozen=True)
class SchemeReport:
    """End-to-end cost breakdown of one scheme execution."""

    outputs: dict[int, Any]
    spanner: SpannerResult
    simulation: SimulationOutcome

    @property
    def construction_messages(self) -> int:
        assert self.spanner.messages is not None
        return self.spanner.messages.total

    @property
    def simulation_messages(self) -> int:
        return self.simulation.total_messages

    @property
    def total_messages(self) -> int:
        return self.construction_messages + self.simulation_messages

    @property
    def combined_messages(self):
        """One :class:`~repro.local.metrics.MessageStats` over both
        stages; ``stage_offsets`` separates construction from simulation
        in the concatenated ``per_round`` series."""
        assert self.spanner.messages is not None
        return self.spanner.messages.merge(self.simulation.messages)

    @property
    def construction_rounds(self) -> int:
        assert self.spanner.rounds is not None
        return self.spanner.rounds

    @property
    def simulation_rounds(self) -> int:
        return self.simulation.rounds

    @property
    def total_rounds(self) -> int:
        return self.construction_rounds + self.simulation_rounds

    def summary(self) -> str:
        return (
            f"one-stage scheme: construction {self.construction_messages} msgs / "
            f"{self.construction_rounds} rounds; simulation "
            f"{self.simulation_messages} msgs / {self.simulation_rounds} rounds; "
            f"spanner |S|={self.spanner.size} (stretch <= {self.spanner.stretch_bound})"
        )


def run_one_stage(
    network: Network,
    algo: LocalAlgorithm,
    *,
    gamma: int = 1,
    params: SamplerParams | None = None,
    seed: int = 0,
) -> SchemeReport:
    """Simulate ``algo`` with the spanner-based scheme, metering both stages.

    ``params`` overrides the Theorem 3 parameter choice when supplied
    (used by experiments that tune the practical constants).

    The construction is priced (``build_spanner_priced``), equal to the
    metered distributed run (DESIGN.md §3.15), and the flood schedule is
    derived afresh on every call.  A caller that serves many payloads on
    one graph reuses both through
    :class:`~repro.service.SimulationService`, whose responses carry
    this function's report bit for bit (DESIGN.md §3.8).
    """
    sampler_params = params if params is not None else theorem3_params(gamma, seed=seed)
    with obs.span(
        "scheme/one_stage", algo=algo.name, n=network.n
    ) as scheme_span:
        spanner = build_spanner_priced(network, sampler_params)
        simulation = simulate_over_spanner(
            network,
            spanner.edges,
            alpha=spanner.stretch_bound,
            algo=algo,
            seed=seed,
        )
        scheme_span.set(messages=simulation.messages.total)
    return SchemeReport(outputs=simulation.outputs, spanner=spanner, simulation=simulation)
