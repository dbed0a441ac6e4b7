"""Measurement and validation utilities.

* :mod:`repro.analysis.stretch` — exact and sampled stretch of a
  subgraph (the quantity Theorem 9 bounds).
* :mod:`repro.analysis.validation` — end-to-end spanner checks used by
  tests and examples.
* :mod:`repro.analysis.bounds` — the paper's predicted size exponent
  and log–log slope fitting for the benchmark tables.
* :mod:`repro.analysis.stats` — tiny statistics helpers.
"""

from repro.analysis.stretch import StretchReport, adjacent_pair_stretch
from repro.analysis.validation import validate_spanner
from repro.analysis.bounds import fit_loglog_slope, predicted_size_exponent

__all__ = [
    "StretchReport",
    "adjacent_pair_stretch",
    "fit_loglog_slope",
    "predicted_size_exponent",
    "validate_spanner",
]
