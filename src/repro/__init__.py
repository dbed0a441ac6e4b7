"""repro — reproduction of *Message Reduction in the LOCAL Model Is a Free Lunch*.

Bitton, Emek, Izumi, Kutten — DISC 2019 (LIPIcs 146, article 7).

Quickstart::

    from repro.graphs import dense_gnm
    from repro.core import SamplerParams, build_spanner
    from repro.analysis import validate_spanner

    net = dense_gnm(400, 20_000, seed=1)
    result = build_spanner(net, SamplerParams(k=2, h=3, seed=7))
    validate_spanner(result)          # raises unless a valid spanner
    print(result.summary())

See :mod:`repro.core` for the ``Sampler`` algorithm (centralized and
distributed), :mod:`repro.simulate` for the message-reduction schemes
of Theorem 3, and :mod:`repro.bench` for the experiment harness.
"""

from repro._version import __version__
from repro.core import SamplerParams, SpannerResult, build_spanner
from repro.core.distributed import build_spanner_distributed
from repro.local import Knowledge, Network

__all__ = [
    "Knowledge",
    "Network",
    "SamplerParams",
    "SpannerResult",
    "__version__",
    "build_spanner",
    "build_spanner_distributed",
]
