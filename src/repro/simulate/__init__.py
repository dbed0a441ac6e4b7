"""Message-efficient simulation of LOCAL algorithms (Section 6).

The pipeline realizes the paper's scheme end to end:

1. build a spanner ``H`` with ``Sampler`` (messages independent of
   ``|E|``);
2. run a ``t``-local broadcast by flooding ``alpha * t`` rounds in ``H``
   (:mod:`repro.simulate.tlocal`), delivering every node its ``B_t``
   initial knowledge;
3. each node *locally replays* the payload algorithm on its collected
   ball (:mod:`repro.simulate.transformer`) — outputs are bit-identical
   to a direct execution, which the tests assert.

:mod:`repro.simulate.scheme` packages 1–3 with Theorem 3's first-bullet
parameters; :mod:`repro.simulate.two_stage` adds the second bullet
(simulate a better spanner construction over the first spanner, then
use it); :mod:`repro.simulate.direct` and :mod:`repro.simulate.gossip`
provide the baselines the paper compares against.
"""

from repro.simulate.tlocal import (
    FloodReport,
    FloodSchedule,
    flood_schedule,
    runtime_flood,
    t_local_broadcast,
)
from repro.simulate.transformer import (
    SimulationOutcome,
    runtime_simulation,
    simulate_over_spanner,
)
from repro.simulate.scheme import SchemeReport, run_one_stage, theorem3_params
from repro.simulate.two_stage import TwoStageReport, run_two_stage
from repro.simulate.direct import run_direct_baseline
from repro.simulate.gossip import GossipEstimate, gossip_estimate

__all__ = [
    "FloodReport",
    "FloodSchedule",
    "GossipEstimate",
    "SchemeReport",
    "SimulationOutcome",
    "TwoStageReport",
    "flood_schedule",
    "gossip_estimate",
    "run_direct_baseline",
    "run_one_stage",
    "run_two_stage",
    "runtime_flood",
    "runtime_simulation",
    "simulate_over_spanner",
    "t_local_broadcast",
]
