"""The amortized simulation service (DESIGN.md §3.8).

Build once, serve many: the preprocessing that makes simulation
message-cheap where the spanner drops edges (the ``Sampler`` spanner,
the Lemma 12 flood schedule) is payload-independent, so a service that
holds those artifacts answers *any* stream of ``t``-round payload
requests on a graph while paying construction exactly once —
"Invitation to Local Algorithms" (Rozhoň 2023) frames precisely this
preprocess-then-query view of LOCAL simulation.

:class:`SimulationService` wraps an :class:`~repro.store.ArtifactStore`
and answers :class:`SimulationRequest`\\ s:

* the first request on a graph pays the spanner construction and the
  flood-profile measurement (a *cold* serve).  The store builds the
  spanner on the level kernel and prices it: its messages and rounds
  are the counts the metered distributed run sends, equal by contract
  (DESIGN.md §3.15);
* every later request — any payload algorithm, any round budget ``t``
  whose flood radius fits the cached profile — reuses the spanner and
  truncates the schedule (a *warm* serve); a larger radius extends the
  profile once and warms everything after it;
* responses are **bit-identical** to a fresh
  :func:`~repro.simulate.scheme.run_one_stage` with the same inputs —
  every response carries the equivalent :class:`SchemeReport`, and the
  test suite asserts equality cold, warm, and store-off.

:class:`ServiceMetrics` records hit/miss/truncation/extension counters
and the amortized per-request message and round accounting, which
shows how construction cost spreads over served traffic.  Where the
spanner keeps every edge (H = G), that is amortization, not the paper's
message saving (DESIGN.md §3.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.algorithms.base import LocalAlgorithm
from repro.core.accounting import expected_total_messages
from repro.core.params import SamplerParams
from repro.core.spanner import SpannerResult
from repro.dynamic.churn import ChurnPlan, MutationLog
from repro.dynamic.churn import apply_churn as _apply_churn
from repro.dynamic.repair import repair_spanner
from repro.errors import ConfigurationError
from repro.local.faults import FaultPlan
from repro.local.network import Network
from repro.simulate.scheme import SchemeReport, theorem3_params
from repro.simulate.transformer import SimulationOutcome, simulate_over_spanner
from repro.store.store import ArtifactStore, FetchInfo

__all__ = [
    "ServiceMetrics",
    "SimulationRequest",
    "SimulationResponse",
    "SimulationService",
]

# Oldest-dropped cap on the service's spanner-subnetwork memo; a few
# graphs cover any realistic serving mix, and the artifact store (not
# this side memo) is the layer with real capacity accounting.
_SUBNET_MEMO_CAP = 16

# How far back the service walks a churn lineage looking for a cached
# ancestor to repair from; past it the miss falls through to the
# store's cold build.  It also caps the lineage itself, oldest dropped:
# a walk from the newest graph never reads an older entry.
_LINEAGE_DEPTH_CAP = 16


@dataclass(frozen=True)
class SimulationRequest:
    """One payload simulation to serve.

    Only ``algo`` is required; ``network`` defaults to the service's
    own, and the construction parameters and payload seed are always
    the service's.  ``t`` is declarative — when given it must
    equal ``algo.rounds(n)`` (the replay's correctness depends on the
    algorithm's real round budget, so a mismatch is refused rather than
    silently honoured).  ``radius`` overrides the flood radius
    ``alpha * t`` the same way it does on
    :func:`~repro.simulate.transformer.simulate_over_spanner`.
    ``faults`` is served as it is there: a plan that can drop or erase a
    message runs the literal flood, and the serve fetches no flood
    schedule.  ``allow_stale`` opts the request into degraded answers:
    when the requested graph's spanner is not cached but a cached churn
    *ancestor* is, the service serves the ancestor's graph outright
    (marked ``"stale"`` in the response) — the outputs describe the
    pre-churn topology, which is the explicit trade the flag buys.
    """

    algo: LocalAlgorithm
    network: Network | None = None
    t: int | None = None
    radius: int | None = None
    faults: FaultPlan | None = None
    allow_stale: bool = False

    def identity(self) -> tuple:
        """The dedupe token: the concurrent front's batching window
        gives requests with equal identities one answer (DESIGN.md
        §3.12).  It holds the payload object itself (identity hash),
        which keeps it alive while the token is held, so a recycled
        ``id`` can never alias two algorithms; every other field
        compares by value."""
        return (
            self.algo,
            None if self.network is None else self.network.fingerprint(),
            self.t,
            self.radius,
            self.faults,
            self.allow_stale,
        )


@dataclass(frozen=True)
class SimulationResponse:
    """One served simulation plus its cache provenance."""

    report: SchemeReport
    spanner_info: FetchInfo
    schedule_info: FetchInfo | None  # None under a fault plan
    construction_messages_paid: int  # 0 on a warm serve

    @property
    def outputs(self) -> dict[int, Any]:
        return self.report.outputs

    @property
    def spanner(self) -> SpannerResult:
        return self.report.spanner

    @property
    def simulation(self) -> SimulationOutcome:
        return self.report.simulation

    @property
    def cold(self) -> bool:
        """Whether this serve paid the spanner construction."""
        return self.spanner_info.source == "built"

    @property
    def construction_messages_priced(self) -> int:
        """The closed-form message cost of a distributed construction of
        the served spanner, whether or not this serve paid it.

        A store build carries its priced stats; a repaired spanner (a
        level-kernel rebuild, not priced) is priced from its trace, and
        a stale serve prices the ancestor it serves.  Computed on read,
        so serves that never ask pay nothing for it.
        """
        spanner = self.spanner
        if spanner.messages is not None:
            return spanner.messages.total
        return expected_total_messages(spanner.trace)

    def summary(self) -> str:
        source = self.spanner_info.source
        if self.cold:
            kind = "cold"
        elif source in ("repaired", "stale"):
            kind = source
        else:
            kind = "warm"
        schedule = (
            self.schedule_info.source if self.schedule_info is not None else "runtime"
        )
        return (
            f"{kind} serve: spanner {self.spanner_info.source}, schedule {schedule}; "
            f"paid {self.construction_messages_paid} construction msgs, "
            f"{self.simulation.total_messages} simulation msgs"
        )


class ServiceMetrics(obs.Counters):
    """Cumulative served-traffic accounting (thread-safe, see
    :class:`repro.obs.Counters`): the concurrent front's worker threads
    share one object, and a snapshot never shows a request without the
    hit or build it implied.  The store's own counters (retries, locks,
    corruption) live in ``service.store.stats``."""

    NAMES = (
        "requests",
        "cold_serves",
        "spanner_hits",
        "spanner_builds",
        "repairs",
        "rebuilds",
        "stale_served",
        "merged",  # batching-window repeats sharing one replay
        "timeouts",  # requests that hit their deadline
        "schedule_hits",
        "schedule_builds",
        "schedule_truncations",
        "schedule_extensions",
        "schedule_bypasses",
        "construction_messages_paid",
        "construction_rounds_paid",
        "simulation_messages",
        "simulation_rounds",
    )

    def observe(self, response: SimulationResponse) -> None:
        source = response.spanner_info.source
        deltas = {
            "requests": 1,
            "simulation_messages": response.simulation.total_messages,
            "simulation_rounds": response.simulation.rounds,
        }
        if response.cold:
            deltas.update(
                cold_serves=1,
                spanner_builds=1,
                construction_messages_paid=response.construction_messages_paid,
                construction_rounds_paid=response.spanner.rounds or 0,
            )
        elif source == "repaired":
            # Neither a hit nor a cold build: construction was healed
            # from a cached ancestor at no metered message cost.
            deltas["repairs"] = 1
        elif source == "stale":
            # Served entirely from cache — an ancestor's entry, which is
            # exactly what the flag allows.
            deltas.update(stale_served=1, spanner_hits=1)
        else:
            deltas["spanner_hits"] = 1
        info = response.schedule_info
        if info is not None:
            kinds = {"built": "schedule_builds", "bypass": "schedule_bypasses"}
            deltas[kinds.get(info.source, "schedule_hits")] = 1
            deltas["schedule_truncations"] = int(info.truncated)
            deltas["schedule_extensions"] = int(info.extended)
        self.bump(**deltas)

    def observe_shared(self, response: SimulationResponse) -> None:
        """Record a merged repeat of an already-served response.

        The repeat is real traffic (``requests``) answered entirely from
        caches — it paid no construction and sent no new simulation
        messages, so only ``merged`` and the hit counters move.
        """
        self.bump(
            requests=1,
            merged=1,
            spanner_hits=1,
            schedule_hits=int(response.schedule_info is not None),
        )

    # ------------------------------------------------------------------
    # the amortization story
    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Messages actually sent: construction paid once + per-request floods."""
        return self.construction_messages_paid + self.simulation_messages

    @property
    def total_rounds(self) -> int:
        return self.construction_rounds_paid + self.simulation_rounds

    def amortized_messages(self) -> float:
        """Mean messages per served request, construction amortized in."""
        return self.total_messages / max(1, self.requests)

    def amortized_rounds(self) -> float:
        return self.total_rounds / max(1, self.requests)

    def summary(self) -> str:
        return (
            f"{self.requests} requests ({self.cold_serves} cold): "
            f"construction {self.construction_messages_paid} msgs paid once, "
            f"simulation {self.simulation_messages} msgs; amortized "
            f"{self.amortized_messages():.1f} msgs/request, "
            f"{self.amortized_rounds():.1f} rounds/request; schedule "
            f"{self.schedule_hits} hits / {self.schedule_builds} builds "
            f"({self.schedule_truncations} truncations, "
            f"{self.schedule_extensions} extensions)"
        )


class SimulationService:
    """Serves payload simulations over shared cached artifacts.

    ``network`` is the service's default graph, which a request may
    override; ``params`` (or ``gamma``) and ``seed`` are the
    construction parameters and payload seed of every request.  ``store``
    defaults to a fresh in-memory :class:`ArtifactStore` — pass a
    disk-backed one to share artifacts across processes and runs.
    """

    def __init__(
        self,
        network: Network | None = None,
        *,
        store: ArtifactStore | None = None,
        params: SamplerParams | None = None,
        gamma: int = 1,
        seed: int = 0,
    ) -> None:
        self._network = network
        self._params = params if params is not None else theorem3_params(gamma, seed=seed)
        self._seed = seed
        self.store = store if store is not None else ArtifactStore()
        self.metrics = ServiceMetrics()
        # Spanner subnetworks memoized per (graph, edge set): building
        # one is O(|S|) Python work per request otherwise, and every
        # serve without a fault plan needs it to address the
        # flood-schedule cache.  Insertion-ordered with a small cap so a
        # long-lived service streaming distinct graphs cannot pin memory
        # unboundedly.
        self._subnets: dict[tuple[str, frozenset[int]], Network] = {}
        # Churn lineage: child fingerprint -> (parent network, mutation
        # log), the last _LINEAGE_DEPTH_CAP epochs.  This is what lets a
        # cache miss on a post-churn graph degrade to a repair (or a
        # stale serve) instead of a cold rebuild.
        self._lineage: dict[str, tuple[Network, MutationLog]] = {}
        # Fingerprints this service has already answered — a forced full
        # build on one of these is a *re*build (cache loss), not a
        # first-contact cold serve, and is counted separately.
        self._served: set[str] = set()

    @property
    def network(self) -> Network | None:
        """The service's default graph (``None`` = per-request only)."""
        return self._network

    @property
    def params(self) -> SamplerParams:
        """The service's default construction parameters."""
        return self._params

    @property
    def seed(self) -> int:
        """The service's default payload seed."""
        return self._seed

    # ------------------------------------------------------------------
    # churn lineage
    # ------------------------------------------------------------------
    def apply_churn(
        self, plan: ChurnPlan, epoch: int = 0
    ) -> tuple[Network, MutationLog]:
        """Run one churn epoch on the service's default graph and record
        its lineage for later repair.

        The default is advanced to the mutated graph, so subsequent
        default-graph requests hit the repair path instead of failing.
        """
        base = self._network
        if base is None:
            raise ValueError("the service has no default network to churn")
        child, log = _apply_churn(base, plan, epoch)
        self._remember_epoch(base, log)
        self._network = child
        return child, log

    def _remember_epoch(self, parent: Network, log: MutationLog) -> None:
        """Record one churn epoch as the newest lineage entry.

        Each entry pins a whole parent graph, so only the
        :data:`_LINEAGE_DEPTH_CAP` newest stay: a walk from the newest
        graph never reads further back than that."""
        if log.is_noop:
            return
        self._lineage.pop(log.child_fingerprint, None)
        self._lineage[log.child_fingerprint] = (parent, log)
        while len(self._lineage) > _LINEAGE_DEPTH_CAP:
            self._lineage.pop(next(iter(self._lineage)))

    def _lineage_base(
        self, network: Network, params: SamplerParams
    ) -> tuple[SpannerResult | None, tuple[MutationLog, ...]]:
        """Walk the churn lineage up from ``network`` to a cached spanner.

        Returns the nearest cached ancestor artifact plus the mutation
        logs from that ancestor down to ``network`` (replay order), or
        ``(None, ())`` when no recorded ancestor is cached within
        :data:`_LINEAGE_DEPTH_CAP` epochs.
        """
        logs: list[MutationLog] = []
        fingerprint = network.fingerprint()
        for _ in range(_LINEAGE_DEPTH_CAP):
            entry = self._lineage.get(fingerprint)
            if entry is None:
                return None, ()
            parent, log = entry
            logs.append(log)
            cached, _ = self.store.peek_spanner(parent, params)
            if cached is not None:
                return cached, tuple(reversed(logs))
            fingerprint = log.parent_fingerprint
        return None, ()

    # ------------------------------------------------------------------
    def submit(self, request: SimulationRequest | LocalAlgorithm) -> SimulationResponse:
        """Serve one request (a bare algorithm means all-defaults)."""
        if isinstance(request, LocalAlgorithm):
            request = SimulationRequest(algo=request)
        response = self._answer(request)
        self.metrics.observe(response)
        return response

    # ------------------------------------------------------------------
    def _answer(self, request: SimulationRequest) -> SimulationResponse:
        if not obs.enabled():
            return self._answer_impl(request)
        with obs.span(
            "service/answer", algo=request.algo.name
        ) as answer_span:
            response = self._answer_impl(request)
            answer_span.set(
                spanner_source=response.spanner_info.source,
                cold=response.cold,
                messages=response.simulation.total_messages,
                construction_paid=response.construction_messages_paid,
                construction_priced=response.construction_messages_priced,
            )
        return response

    def _answer_impl(self, request: SimulationRequest) -> SimulationResponse:
        network = request.network if request.network is not None else self._network
        if network is None:
            raise ValueError("request has no network and the service has no default")
        params = self._params
        seed = self._seed
        faults = request.faults
        algo = request.algo
        t = algo.rounds(network.n)
        if request.t is not None and request.t != t:
            raise ValueError(
                f"request declares t={request.t} but {algo.name} runs "
                f"{t} rounds on n={network.n}"
            )
        spanner, spanner_info = self._fetch_spanner_resilient(
            network, params, request.allow_stale
        )
        if spanner_info.source == "stale":
            # Degraded serve: answer over the cached ancestor's graph.
            # Churn preserves the node universe, so the payload's round
            # budget t is unchanged.
            network = spanner.network
        radius = request.radius if request.radius is not None else spanner.stretch_bound * t
        schedule = None
        schedule_info = None
        if faults is None or faults.is_noop:
            sub_key = (network.fingerprint(), spanner.edges)
            spanner_net = self._subnets.get(sub_key)
            if spanner_net is None:
                spanner_net = self._subnets[sub_key] = network.subnetwork(spanner.edges)
                while len(self._subnets) > _SUBNET_MEMO_CAP:
                    self._subnets.pop(next(iter(self._subnets)))
            schedule, schedule_info = self.store.fetch_flood_schedule(
                spanner_net, radius
            )
        simulation = simulate_over_spanner(
            network,
            spanner.edges,
            alpha=spanner.stretch_bound,
            algo=algo,
            seed=seed,
            radius=radius,
            schedule=schedule,
            faults=faults,
        )
        report = SchemeReport(
            outputs=simulation.outputs, spanner=spanner, simulation=simulation
        )
        return SimulationResponse(
            report=report,
            spanner_info=spanner_info,
            schedule_info=schedule_info,
            # Only a cold serve pays the construction, at its price
            # (construction_messages_priced).  A repair rebuilds on the
            # level kernel and a warm or stale serve reuses a cached
            # spanner: none of them sends a construction message.
            construction_messages_paid=(
                spanner.messages.total if spanner_info.source == "built" else 0
            ),
        )

    def _fetch_spanner_resilient(
        self,
        network: Network,
        params: SamplerParams,
        allow_stale: bool,
    ) -> tuple[SpannerResult, FetchInfo]:
        """Fetch with graceful degradation instead of failure.

        Order of preference on a cache miss: serve a cached churn
        ancestor outright (only if the request opted in via
        ``allow_stale``), repair the nearest cached ancestor onto the
        requested graph (bit-identical to a fresh build, stored under
        the post-churn key), and finally a full rebuild — which is
        counted as such when the miss is a loss (previously served
        graph, or known churn descendant) rather than first contact.
        """
        fingerprint = network.fingerprint()
        spanner, info = self.store.peek_spanner(network, params)
        if spanner is None:
            ancestor, logs = self._lineage_base(network, params)
            if ancestor is not None:
                if allow_stale:
                    return ancestor, FetchInfo("stale")
                repaired = self._try_repair(ancestor, network, logs)
                if repaired is not None:
                    self.store.note_miss()  # the peek itself charged none
                    self.store.put_spanner(repaired)
                    self._served.add(fingerprint)
                    return repaired, FetchInfo("repaired")
            known = fingerprint in self._served or fingerprint in self._lineage
            spanner, info = self.store.fetch_spanner(network, params)
            if info.source == "built" and known:
                self.metrics.bump(rebuilds=1)
        self._served.add(fingerprint)
        return spanner, info

    def _try_repair(
        self,
        ancestor: SpannerResult,
        network: Network,
        logs: tuple[MutationLog, ...],
    ) -> SpannerResult | None:
        """Attempt repair.  A refused lineage (broken chain, other
        params, changed node universe) degrades to the rebuild the
        caller counts; anything else is a bug and propagates."""
        try:
            return repair_spanner(ancestor, network, logs)
        except ConfigurationError as exc:
            obs.event("service/repair_failed", error=type(exc).__name__)
            return None
