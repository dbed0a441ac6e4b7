"""The round engine's oracles: the seed's dense loop and the per-node
flood and gossip programs.

The package runs each plane on one engine (DESIGN.md §3.6, §3.10):
:class:`~repro.local.runtime.Runtime` steps only the active set and
services declared hybrid planes during delivery, and the registered
payloads, the runtime flood and push–pull gossip run as vector
populations.  This module keeps the implementations those engines
replaced, as :mod:`reference_sampler` and :mod:`reference_distance` do
for the level kernel and the distance plane:

* :func:`run_dense` — the seed's dense loop over a built ``Runtime``:
  every non-halted node every round, every message through its
  receiver's own dispatch, so no hybrid plane is ever serviced;
* :class:`FloodProgram` and :class:`PushPullGossip` — the flood and
  push–pull gossip, one program per node;
* :func:`reference_direct`, :func:`reference_flood`,
  :func:`reference_gossip` and :func:`reference_push_pull` — the
  package's entry points on those;
* :func:`unregistered` — a payload the package must run on its own
  per-node paths;
* :func:`literal_simulation` — routes the scheme entry points and the
  service through ``runtime_simulation``, the literal flood and one
  replay per center;
* :func:`reference_engines` — swaps the oracles into the package, so a
  whole pipeline runs on them, its construction metered.

It shares with the package the per-node plumbing a built ``Runtime``
holds (contexts, routing table, and the fault-aware collection that
meters a round and holds back what the plan drops or erases), the payload
adapter ``_AlgorithmProgram`` that the per-node interpreter runs, and
the report value types; ``reference_push_pull`` measures coverage on
the seed BFS of :mod:`reference_distance`.
"""

from __future__ import annotations

import copy
from collections import Counter
from contextlib import ExitStack, contextmanager
from typing import Any, Sequence
from unittest import mock

import repro.algorithms.vector as vector_module
import repro.service.service as service_module
import repro.simulate.global_tasks as global_tasks_module
import repro.simulate.scheme as scheme_module
import repro.simulate.transformer as transformer_module
import repro.simulate.two_stage as two_stage_module
import reference_distance
from repro.algorithms.runner import DirectOutcome, _AlgorithmProgram
from repro.core.distributed import build_spanner_distributed
from repro.errors import SimulationError
from repro.local.message import Inbound, Outbound
from repro.local.metrics import MessageStats, RunReport
from repro.local.node import Context, NodeProgram
from repro.local.runtime import Runtime
from repro.simulate.gossip import PushPullReport
from repro.simulate.tlocal import FloodReport


def run_dense(runtime: Runtime) -> RunReport:
    """Run a built ``Runtime`` on the seed's dense loop."""
    stats = MessageStats()
    network = runtime._network
    programs = runtime._programs
    contexts = runtime._contexts
    fixed = runtime._fixed_rounds
    in_flight: list[Outbound] = []

    # Round 0: on_start at every node.
    stats.open_round()
    for node in network.nodes():
        programs[node].on_start(contexts[node])
    if fixed == 0:
        # No delivery round will ever run: round-0 sends cannot be
        # delivered, so they are discarded unmetered.
        runtime._discard_undelivered()
    else:
        in_flight = runtime._collect(stats, round_index=0)

    rounds = 0
    while True:
        if fixed is not None:
            if rounds >= fixed:
                break
        elif not in_flight and all(ctx.halted for ctx in contexts):
            break
        if rounds >= runtime._max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={runtime._max_rounds} "
                f"({stats.total} messages so far)"
            )
        rounds += 1
        stats.open_round()
        inboxes: list[list[Inbound] | None] = [None] * network.n
        route = runtime._route
        for eid, sender, payload, tag in in_flight:
            u, v, port_u, port_v = route[eid]
            if sender == u:
                receiver, port = v, port_v
            else:
                receiver, port = u, port_u
            box = inboxes[receiver]
            if box is None:
                box = inboxes[receiver] = []
            box.append(Inbound(port, payload, tag))
        for node in network.nodes():
            ctx = contexts[node]
            inbox = inboxes[node] or ()
            if ctx.halted and not (ctx.reactive and inbox):
                continue
            ctx._round = rounds
            programs[node].on_round(ctx, inbox)
        if fixed is not None and rounds >= fixed:
            # Final fixed round: anything queued now can never be
            # delivered, so it is discarded unmetered.
            runtime._discard_undelivered()
            break
        in_flight = runtime._collect(stats, round_index=rounds)

    return RunReport(
        rounds=rounds,
        messages=stats,
        outputs={node: programs[node].output() for node in network.nodes()},
        halted=all(ctx.halted for ctx in contexts),
    )


def unregistered(algo):
    """``algo`` as an instance of an unregistered subclass, which no
    vector population serves (``vector_population`` keys on the exact
    type), so the package runs it on its per-node paths: the runtime
    for ``run_direct``, the message-free loop for ``run_inprocess``."""
    twin = copy.copy(algo)
    twin.__class__ = type(f"Unregistered{type(algo).__name__}", (type(algo),), {})
    return twin


def dense_program(network, program_factory, **kwargs) -> RunReport:
    """``run_program`` on the dense loop."""
    return run_dense(Runtime(network, program_factory, **kwargs))


def reference_direct(network, algo, seed: int = 0, *, faults=None) -> DirectOutcome:
    """``run_direct`` with one ``_AlgorithmProgram`` per node on the dense loop."""
    t = algo.rounds(network.n)
    report = dense_program(
        network,
        lambda node: _AlgorithmProgram(node, algo, seed, t),
        seed=seed,
        max_rounds=t + 2,
        faults=faults,
    )
    return DirectOutcome(
        outputs=report.outputs, messages=report.messages, rounds=report.rounds
    )


class FloodProgram(NodeProgram):
    """Forward-new-items flooding with per-edge aggregation.

    Purely message-driven after round 0: a round with an empty inbox
    changes nothing, so the program declares quiescence
    (``ctx.sleep_until(None)``) and the active-set runtime steps it
    only when new items actually arrive.
    """

    def __init__(self, node: int, payload: Any, rounds: int) -> None:
        self._node = node
        self._payload = payload
        self._rounds = rounds
        self._known: dict[int, Any] = {node: payload}

    def on_start(self, ctx: Context) -> None:
        if self._rounds <= 0:
            ctx.halt()
            return
        item = (self._node, self._payload)
        for eid in ctx.ports:
            ctx.send(eid, (item,), tag="flood")
        ctx.sleep_until(None)

    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        fresh: list[tuple[int, Any]] = []
        for msg in inbox:
            for origin, payload in msg.payload:
                if origin not in self._known:
                    self._known[origin] = payload
                    fresh.append((origin, payload))
        if fresh:
            bundle = tuple(fresh)
            for eid in ctx.ports:
                ctx.send(eid, bundle, tag="flood")

    def output(self) -> dict[int, Any]:
        return dict(self._known)


def reference_flood(
    spanner, payload_of, radius: int, *, faults=None, run=dense_program
) -> FloodReport:
    """``runtime_flood``, one :class:`FloodProgram` per node on the
    dense loop (or on ``run``)."""
    report = run(
        spanner,
        lambda node: FloodProgram(node, payload_of(node), radius),
        fixed_rounds=radius,
        max_rounds=radius + 1,
        faults=faults,
    )
    return FloodReport(
        collected=report.outputs, messages=report.messages, rounds=report.rounds
    )


class PushPullGossip(NodeProgram):
    """Classic push–pull: one partner per round, exchange known sets."""

    def __init__(self, node: int) -> None:
        self._node = node
        self._known: set[int] = {node}

    def on_start(self, ctx: Context) -> None:
        if not ctx.ports:
            # An isolated node can neither push nor be pulled from:
            # declare it reactively done so it is never stepped.
            ctx.halt(reactive=True)
            return
        self._push(ctx)

    def on_round(self, ctx: Context, inbox: Sequence[Inbound]) -> None:
        for msg in inbox:
            kind, items = msg.payload
            self._known.update(items)
            if kind == "push-pull":
                ctx.send(msg.port, ("reply", tuple(self._known)), tag="gossip")
        self._push(ctx)

    def output(self) -> frozenset[int]:
        return frozenset(self._known)

    def _push(self, ctx: Context) -> None:
        if not ctx.ports:
            return
        partner = ctx.ports[ctx.rng.randrange(len(ctx.ports))]
        ctx.send(partner, ("push-pull", tuple(self._known)), tag="gossip")


def reference_gossip(
    network, rounds: int, seed: int, faults=None, *, run=dense_program
) -> RunReport:
    """``rounds`` rounds of :class:`PushPullGossip` on the dense loop (or
    on ``run``)."""
    return run(
        network,
        lambda node: PushPullGossip(node),
        seed=seed,
        fixed_rounds=rounds,
        max_rounds=rounds + 1,
        faults=faults,
    )


def reference_push_pull(
    network, rounds: int, t: int, seed: int = 0, *, faults=None, run=dense_program
) -> PushPullReport:
    """``run_push_pull`` on :func:`reference_gossip`, its coverage
    measured on the seed BFS."""
    report = reference_gossip(network, rounds, seed, faults, run=run)
    balls, _ = reference_distance.balls(
        reference_distance.adjacency(network), t, network.nodes()
    )
    required = sum(len(ball) for ball in balls)
    delivered = sum(
        len(ball & report.outputs[node]) for node, ball in enumerate(balls)
    )
    return PushPullReport(
        coverage=delivered / max(1, required),
        messages=report.messages,
        rounds=report.rounds,
    )


def _literal(
    network, spanner_edges, alpha, algo, seed=0, *, radius=None, faults=None, **_
):
    """``simulate_over_spanner`` on the literal path; the schedule or
    store a caller passes is ignored."""
    return transformer_module.runtime_simulation(
        network, spanner_edges, alpha, algo, seed, radius=radius, faults=faults
    )


@contextmanager
def literal_simulation():
    """Run every ``simulate_over_spanner`` call of ``run_one_stage``,
    ``run_two_stage`` and ``SimulationService`` as ``runtime_simulation``
    while the block is open, fault plan or not."""
    with ExitStack() as stack:
        for module in (scheme_module, two_stage_module, service_module):
            stack.enter_context(
                mock.patch.object(module, "simulate_over_spanner", _literal)
            )
        yield


@contextmanager
def reference_engines():
    """Run the package on the oracles while the block is open.

    ``Runtime.run`` becomes :func:`run_dense`; no payload gets a vector
    population, so ``run_direct`` runs the per-node interpreter and
    ``run_inprocess`` its message-free loop; ``run_one_stage``,
    ``run_two_stage`` and ``compute_global`` meter their construction
    with ``build_spanner_distributed`` (on the dense loop) instead of
    pricing it, so the pipeline goldens check priced ≡ metered too (a
    store still prices); and the pipelines simulate on the literal path
    (:func:`literal_simulation`), whose flood becomes
    :func:`reference_flood`.  Yields a counter of the
    oracle runs (``"dense"``, ``"flood"``, ``"payload"``), so a caller
    can check that the swap reached the code it meant to test.
    """
    calls: Counter[str] = Counter()

    def dense(runtime: Runtime) -> RunReport:
        calls["dense"] += 1
        return run_dense(runtime)

    def no_population(algo, network, seed):
        calls["payload"] += 1
        return None

    def flood(spanner, payload_of, radius, *, faults=None):
        calls["flood"] += 1
        return reference_flood(spanner, payload_of, radius, faults=faults)

    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(Runtime, "run", dense))
        stack.enter_context(
            mock.patch.object(vector_module, "vector_population", no_population)
        )
        stack.enter_context(
            mock.patch.object(transformer_module, "runtime_flood", flood)
        )
        for module in (scheme_module, two_stage_module, global_tasks_module):
            stack.enter_context(
                mock.patch.object(
                    module, "build_spanner_priced", build_spanner_distributed
                )
            )
        stack.enter_context(literal_simulation())
        yield calls
