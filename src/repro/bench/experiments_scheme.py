"""Experiments E8–E10: the message-reduction schemes (Theorem 3, Lemma 12)
and the Figure-1 / Section-1.3 peeling ablation."""

from __future__ import annotations

from repro.algorithms import BallCollect, LubyMis, MinIdAggregation
from repro.algorithms.runner import run_direct
from repro.bench.tables import TableResult
from repro.core import SamplerParams
from repro.core.trials import TrialMachine
from repro.graphs import erdos_renyi, torus
from repro.rng import RngFactory
from repro.simulate import gossip_estimate, run_one_stage, run_two_stage

__all__ = ["run_e8", "run_e9", "run_e10"]


def run_e8(scale: str) -> TableResult:
    """E8 — one-stage scheme (Theorem 3, first bullet) vs baselines.

    For each payload: direct execution cost, scheme cost split into
    construction + simulation, and the gossip-scheme envelope of [8, 22].
    The assertions check the paper's two headline comparisons: outputs
    are *identical* to direct execution, and the scheme's round count
    stays ``O(t)`` while gossip pays the ``log n`` blow-up.
    """
    cases = [
        ("er(150,0.18)", erdos_renyi(150, 0.18, seed=21), MinIdAggregation(2)),
        ("torus(12x12)", torus(12, 12), BallCollect(2)),
        ("er(110,0.22)", erdos_renyi(110, 0.22, seed=22), LubyMis(phases=4)),
    ]
    if scale == "full":
        cases.append(("er(260,0.12)", erdos_renyi(260, 0.12, seed=23), MinIdAggregation(3)))
    params = SamplerParams(k=1, h=3, seed=17, c_query=0.7, c_target=1.0)
    table = TableResult(
        experiment="E8",
        title="one-stage scheme vs direct vs gossip  (Theorem 3, bullet 1)",
        columns=[
            "case",
            "payload",
            "t",
            "direct msgs",
            "scheme msgs (build+sim)",
            "direct rounds",
            "scheme rounds",
            "gossip rounds",
        ],
    )
    for name, net, algo in cases:
        t = algo.rounds(net.n)
        direct = run_direct(net, algo, seed=31)
        scheme = run_one_stage(net, algo, params=params, seed=31)
        assert scheme.outputs == direct.outputs, (
            f"E8: scheme outputs differ from direct execution on {name}"
        )
        gossip = gossip_estimate(net.n, t)
        assert scheme.simulation_rounds <= scheme.spanner.stretch_bound * t, (
            "E8: simulation must run exactly alpha*t rounds"
        )
        assert gossip.rounds > scheme.simulation_rounds, (
            "E8: gossip's round blow-up should exceed the scheme's O(t) rounds"
        )
        table.add_row(
            name,
            algo.name,
            t,
            direct.total_messages,
            f"{scheme.total_messages:,} ({scheme.construction_messages:,}+{scheme.simulation_messages:,})",
            direct.rounds,
            f"{scheme.total_rounds} ({scheme.construction_rounds}+{scheme.simulation_rounds})",
            gossip.rounds,
        )
    table.add_note(
        "outputs of the scheme are bit-identical to direct execution on every case"
    )
    table.add_note(
        "construction cost is a one-off; it amortizes over every payload run "
        "on the same graph (the paper's free-lunch reading)"
    )
    # Per-round traffic of the last case, read per stage through the
    # merged stats' stage_offsets (a flat read of the concatenated
    # per_round would misattribute simulation rounds to construction).
    table.add_note(
        f"per-round peaks ({name}): "
        + _stage_peaks_note(("construction", "simulation"), scheme.combined_messages)
    )
    return table


def _stage_peaks_note(labels, combined) -> str:
    """Render each merged stage's peak round traffic via stage_offsets."""
    peaks = []
    for label, series in zip(labels, combined.stage_slices()):
        peak = max(series, default=0)
        at = series.index(peak) if series else 0
        peaks.append(f"{label} {peak:,} msgs @ round {at}")
    return ", ".join(peaks) + f" (stage offsets {combined.stage_offsets})"


def run_e9(scale: str) -> TableResult:
    """E9 — two-stage scheme (Theorem 3, second bullet).

    Stage 2 is Baswana–Sen simulated *over* the stage-1 spanner
    (DESIGN.md substitution: the paper uses Derbel et al. there).  The
    interesting shape: |S2| < |S1| edges with a better stretch/size
    trade-off, making the payload flooding cheaper per run.
    """
    net = erdos_renyi(150, 0.18, seed=27)
    if scale == "full":
        net = erdos_renyi(300, 0.10, seed=27)
    payload = BallCollect(2)
    stage1_params = SamplerParams(k=1, h=3, seed=19, c_query=0.7, c_target=1.0)
    direct = run_direct(net, payload, seed=33)
    one = run_one_stage(net, payload, params=stage1_params, seed=33)
    two = run_two_stage(net, payload, stage1_params=stage1_params, stage2_k=3, seed=33)
    assert two.outputs == direct.outputs, "E9: two-stage outputs differ from direct"
    assert one.outputs == direct.outputs, "E9: one-stage outputs differ from direct"
    assert len(two.stage2_edges) <= two.stage1.size, (
        "E9: stage-2 spanner should not be larger than stage-1"
    )
    assert two.payload_sim.total_messages < one.simulation_messages, (
        "E9: the payload flood over the stage-2 spanner should cost less "
        "than over the stage-1 spanner"
    )
    table = TableResult(
        experiment="E9",
        title="two-stage scheme  (Theorem 3, bullet 2; stage 2 = Baswana-Sen)",
        columns=["pipeline", "spanner edges", "stretch", "payload msgs", "payload rounds", "total msgs"],
    )
    table.add_row("direct (no spanner)", net.m, 1, direct.total_messages, direct.rounds, direct.total_messages)
    table.add_row(
        "one-stage",
        one.spanner.size,
        one.spanner.stretch_bound,
        one.simulation_messages,
        one.simulation_rounds,
        one.total_messages,
    )
    table.add_row(
        "two-stage",
        len(two.stage2_edges),
        two.stage2_stretch,
        two.payload_sim.total_messages,
        two.payload_sim.rounds,
        two.total_messages,
    )
    table.add_note(
        f"stage-2 simulation itself: {two.stage2_sim.total_messages:,} msgs, "
        f"{two.stage2_sim.rounds} rounds over the stage-1 spanner"
    )
    table.add_note("per-payload flooding cost drops with the sparser stage-2 spanner")
    table.add_note(
        "per-round peaks: "
        + _stage_peaks_note(
            ("stage1", "stage2-sim", "payload-sim"), two.combined_messages
        )
    )
    return table


def run_e10(scale: str) -> TableResult:
    """E10 — iterative peeling ablation (Section 1.3, Figure 1's mechanism).

    A virtual node with one massively parallel neighbor (multiplicity
    ``M``) and ``N`` unit neighbors: naive repeated sampling keeps
    hitting the heavy neighbor, while the peeling machine removes it
    after the first trial and discovers everyone.
    """
    heavy_multiplicity = 4_000 if scale == "quick" else 20_000
    unit_neighbors = 40
    # Budgets: n/k/h/c chosen so each trial samples ~32 edges with target 41.
    params = SamplerParams(
        k=1, h=2, c_query=0.1, c_target=0.4, seed=23, exhaustive_small_pools=False
    )
    n_for_budgets = 1024
    edges = list(range(heavy_multiplicity + unit_neighbors))

    def neighbor_of(eid: int) -> int:
        return 1 if eid < heavy_multiplicity else eid - heavy_multiplicity + 2

    bundles: dict[int, tuple[int, ...]] = {}
    for eid in edges:
        bundles.setdefault(neighbor_of(eid), tuple())
    bundles[1] = tuple(range(heavy_multiplicity))
    for eid in range(heavy_multiplicity, heavy_multiplicity + unit_neighbors):
        bundles[neighbor_of(eid)] = (eid,)

    from repro.core.trials import QueryResult

    machine = TrialMachine(
        vid=0,
        level=0,
        incident_edges=edges,
        params=params,
        n=n_for_budgets,
        rng=RngFactory(params.seed).stream("trials", 0, 0),
    )
    draws_used = 0
    while machine.wants_trial():
        queried = machine.begin_trial()
        draws_used += machine.stats[-1].draws
        machine.deliver(
            [
                QueryResult(eid=eid, neighbor=neighbor_of(eid), neighbor_edges=bundles[neighbor_of(eid)])
                for eid in queried
            ]
        )
    peel_found = len(machine.f_active)

    # Naive comparator: the same number of uniform draws, no peeling.
    rng = RngFactory(params.seed).stream("naive", 0, 0)
    naive_found = {neighbor_of(rng.choice(edges)) for _ in range(draws_used)}

    table = TableResult(
        experiment="E10",
        title="iterative peeling ablation  (Section 1.3: multiplicity bias)",
        columns=["strategy", "draws", "neighbors found", f"of {unit_neighbors + 1}"],
    )
    table.add_row("peeling (Sampler)", draws_used, peel_found, "")
    table.add_row("naive sampling", draws_used, len(naive_found), "")
    assert peel_found >= 3 * len(naive_found), (
        f"E10: peeling found {peel_found}, naive {len(naive_found)} — "
        "expected a dramatic gap"
    )
    assert peel_found == unit_neighbors + 1, "E10: peeling should discover every neighbor"
    table.add_note(
        f"heavy neighbor carries {heavy_multiplicity} parallel edges; "
        "peeling removes them all after its first discovery"
    )
    return table
