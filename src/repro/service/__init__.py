"""Amortized simulation serving over the artifact store.

See :mod:`repro.service.service` for the request/response types and
:class:`SimulationService`; :mod:`repro.service.concurrent` for the
thread-safe front with batching-window merging, one serve slot and
per-call deadlines.  The underlying cache, its cross-process build
locks and the ``REPRO_STORE_CHAOS`` fault-injection hook live in
:mod:`repro.store`.
"""

from repro.errors import ServiceTimeout
from repro.service.concurrent import ConcurrentSimulationService, RequestTrace
from repro.service.service import (
    ServiceMetrics,
    SimulationRequest,
    SimulationResponse,
    SimulationService,
)

__all__ = [
    "ConcurrentSimulationService",
    "RequestTrace",
    "ServiceMetrics",
    "ServiceTimeout",
    "SimulationRequest",
    "SimulationResponse",
    "SimulationService",
]
