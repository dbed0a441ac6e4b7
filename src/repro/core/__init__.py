"""Algorithm ``Sampler`` — the paper's primary contribution.

Layout:

* :mod:`repro.core.params` — :class:`SamplerParams` (``k``, ``h``, the
  constants, and the derived exponents ``delta = 1/(2^{k+1}-1)``,
  ``eps = 1/h``).
* :mod:`repro.core.trials` — :class:`TrialMachine`, the per-virtual-node
  random-edge-sampling/peeling state machine of Pseudocode 2.  The
  distributed driver runs it at every node; the centralized level kernel
  runs it for pools above the query budget and computes the exhaustive
  trials it would run as one group-by, so both drivers produce
  identical spanners for a given seed.
* :mod:`repro.core.forest` — physical spanning trees ``T_j(v)`` of the
  clusters (Lemma 8).
* :mod:`repro.core.sampler` — the centralized driver (Pseudocode 1),
  every level on the columnar level kernel of :mod:`repro.core.parallel`.
* :mod:`repro.core.distributed` — the LOCAL-model implementation
  (Section 5), executed on :mod:`repro.local`.
* :mod:`repro.core.accounting` — closed-form message accounting,
  cross-validated against the distributed run, and
  ``build_spanner_priced``: a level-kernel build priced in the
  distributed run's messages and rounds.
"""

from repro.core.params import SamplerParams
from repro.core.sampler import build_spanner
from repro.core.spanner import SpannerResult
from repro.core.trials import NodeLabel, QueryResult, TrialMachine

__all__ = [
    "NodeLabel",
    "QueryResult",
    "SamplerParams",
    "SpannerResult",
    "TrialMachine",
    "build_spanner",
]
