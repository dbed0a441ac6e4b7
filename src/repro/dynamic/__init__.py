"""Dynamic-network robustness layer: churn, provenance, spanner repair.

The static pipeline builds a spanner once and serves payloads forever;
this package is what happens when the graph refuses to sit still.
:mod:`repro.dynamic.churn` mutates networks deterministically and logs
provenance; :mod:`repro.dynamic.repair` heals a cached spanner onto the
mutated graph by a checked rebuild, bit-identical to a fresh build.  The simulation service composes both into graceful degradation
(DESIGN.md §3.9).
"""

from repro.dynamic.churn import ChurnPlan, MutationLog, apply_churn, churn_sequence
from repro.dynamic.repair import RepairRun, repair_spanner

__all__ = [
    "ChurnPlan",
    "MutationLog",
    "RepairRun",
    "apply_churn",
    "churn_sequence",
    "repair_spanner",
]
