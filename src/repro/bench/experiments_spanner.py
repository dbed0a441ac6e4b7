"""Experiments E1–E7: the ``Sampler`` spanner claims (Theorems 2, 9, 11;
Lemmas 4, 5, 6, 8, 10).

Every experiment returns a :class:`~repro.bench.tables.TableResult` and
*asserts its own shape criteria* — a failing claim fails the benchmark,
not just a table footnote.
"""

from __future__ import annotations

from repro.analysis.bounds import fit_loglog_slope, predicted_size_exponent
from repro.analysis.stretch import adjacent_pair_stretch
from repro.bench.tables import TableResult
from repro.bench.workloads import dense_graph, density_sweep, size_sweep
from repro.baselines import baswana_sen_messages_estimate
from repro.core import SamplerParams, build_spanner
from repro.core.accounting import expected_rounds, expected_total_messages
from repro.core.distributed import build_spanner_distributed
from repro.core.trials import NodeLabel
from repro.graphs import dense_gnm, erdos_renyi

__all__ = ["run_e1", "run_e2", "run_e3", "run_e4", "run_e5", "run_e6", "run_e7"]

# Practical constants for the dense-regime experiments (DESIGN.md note 1):
# the paper's formulas with smaller prefactors so budgets sit below the
# degrees of laptop-scale dense graphs.
_DENSE = dict(c_query=0.7, c_target=1.0)


def _dense_params(k: int, h: int, seed: int = 2) -> SamplerParams:
    return SamplerParams(k=k, h=h, seed=seed, **_DENSE)


def run_e1(scale: str = "quick") -> TableResult:
    """E1 — spanner size growth (Theorem 2 / Lemma 10).

    ``|S|`` against ``n`` on quarter-complete graphs; the log–log slope
    must sit at or below the ``1 + delta + eps`` envelope (the literal
    Pseudocode 2 adds up to one edge per query in the crossing trial;
    with the paper's Theorem 3 parameterization ``eps = O(delta)`` this
    matches the headline ``O~(n^{1+eps'})``), and must decrease as ``k``
    grows while ``m`` grows quadratically.
    """
    table = TableResult(
        experiment="E1",
        title="spanner size |S| vs n  (m = n(n-1)/4)",
        columns=["k", "h", "n", "m", "|S|", "|S|/m", "fit slope", "envelope 1+d+e"],
    )
    # Constants tuned per k so budgets stay below the sweep's degrees.
    ks = [(1, 3, 0.4, 0.5), (2, 3, 0.4, 0.5)]
    if scale == "full":
        ks.append((3, 6, 0.4, 0.5))
    slopes: list[float] = []
    for k, h, c_q, c_t in ks:
        sizes: list[int] = []
        ns = size_sweep(scale)
        for n in ns:
            net = dense_graph(n)
            params = SamplerParams(k=k, h=h, seed=2, c_query=c_q, c_target=c_t)
            result = build_spanner(net, params)
            sizes.append(result.size)
            table.add_row(k, h, n, net.m, result.size, result.size / net.m, "", "")
        slope = fit_loglog_slope(ns, sizes)
        envelope = predicted_size_exponent(k) + 1.0 / h
        table.rows[-1][-2] = slope
        table.rows[-1][-1] = envelope
        slopes.append(slope)
        assert slope < envelope + 0.3, (
            f"E1: size slope {slope:.2f} far above envelope {envelope:.2f} (k={k})"
        )
        assert slope < 1.95, f"E1: |S| must grow subquadratically (m grows ~n^2), got {slope:.2f}"
    for earlier, later in zip(slopes, slopes[1:]):
        assert later < earlier + 0.05, "E1: slope must decrease with k"
    densest = table.column("|S|/m")[-1]
    assert densest < 0.5, (
        f"E1: the densest graph keeps {densest:.2f} of its edges, not well under half"
    )
    table.add_note(
        "slope decreases with k and sits below the 1+delta+eps envelope while "
        "m grows ~ n^2 (paper: |S| = O~(n^{1+1/(2^{k+1}-1)}), Theorem 2)"
    )
    return table


def run_e2(scale: str = "quick") -> TableResult:
    """E2 — stretch bound (Theorem 9): measured stretch <= 2*3^k - 1.

    Dense workloads with small budget constants so the spanner actually
    drops edges (``|S| < m``) — otherwise stretch is trivially 1.
    """
    from repro.graphs import complete_graph

    cases = [
        ("complete(120)", complete_graph(120)),
        ("gnm(220,16k)", dense_gnm(220, 16_000, seed=5)),
        ("gnm(300,26k)", dense_gnm(300, 26_000, seed=6)),
    ]
    if scale == "full":
        cases.append(("complete(300)", complete_graph(300)))
        cases.append(("gnm(600,80k)", dense_gnm(600, 80_000, seed=7)))
    table = TableResult(
        experiment="E2",
        title="stretch of H = (V, S)  (Theorem 9: <= 2*3^k - 1 whp)",
        columns=["graph", "k", "|E|", "|S|", "|S|/m", "bound", "max stretch", "mean stretch"],
    )
    sparsified = 0
    for name, net in cases:
        for k in (1, 2):
            params = SamplerParams(k=k, h=2, seed=13, c_query=0.4, c_target=0.5)
            result = build_spanner(net, params)
            report = adjacent_pair_stretch(net, result.edges)
            assert report.unreachable_pairs == 0, f"E2: H disconnected on {name}"
            assert report.max_stretch <= result.stretch_bound, (
                f"E2: stretch {report.max_stretch} > bound {result.stretch_bound} "
                f"on {name}"
            )
            if result.size < 0.7 * net.m:
                sparsified += 1
            table.add_row(
                name,
                k,
                net.m,
                result.size,
                result.size / net.m,
                result.stretch_bound,
                report.max_stretch,
                report.mean_stretch,
            )
    assert sparsified >= len(cases), (
        "E2: too few cases actually dropped edges; stretch check is vacuous"
    )
    table.add_note("adjacent-pair stretch is exact (footnote 1 of the paper)")
    return table


def run_e3(scale: str = "quick") -> TableResult:
    """E3 — the free-lunch headline (Theorem 11): messages independent of m.

    Fixed ``n``, growing ``m``.  ``Sampler`` message counts flatten once
    the query budgets drop below the degrees, while Baswana–Sen (and any
    flooding scheme) keeps paying ``Theta(m)`` per round.
    """
    n, ms = density_sweep(scale)
    params = _dense_params(k=2, h=4)
    table = TableResult(
        experiment="E3",
        title=f"messages vs density at n={n}  (free lunch: o(m) messages)",
        columns=["m", "sampler msgs", "sampler |S|", "BS msgs (2mk)", "flood msgs (t=3)", "sampler/BS"],
    )
    sampler_msgs: list[int] = []
    for m in ms:
        net = dense_gnm(n, m, seed=1)
        result = build_spanner(net, params)
        msgs = expected_total_messages(result.trace)
        sampler_msgs.append(msgs)
        bs = baswana_sen_messages_estimate(net, k=3)
        flood = 2 * net.m * 3
        table.add_row(net.m, msgs, result.size, bs, flood, msgs / bs)
    # Shape: the last density step grows m by >= 1.8x; sampler messages
    # must grow by well under that (they are flattening), by under 0.3x
    # of the whole sweep's density growth, and the sampler must beat BS
    # at the dense end.
    m_growth = ms[-1] / ms[-2]
    sampler_growth = sampler_msgs[-1] / sampler_msgs[-2]
    assert sampler_growth < 0.6 * m_growth, (
        f"E3: sampler messages grew {sampler_growth:.2f}x over a {m_growth:.2f}x "
        "density step — not flattening"
    )
    edges = table.column("m")
    sweep_growth = sampler_msgs[-1] / sampler_msgs[0]
    assert sweep_growth < 0.3 * (edges[-1] / edges[0]), (
        f"E3: sampler messages grew {sweep_growth:.2f}x over the sweep's "
        f"{edges[-1] / edges[0]:.1f}x density growth — above 0.3x of it"
    )
    assert sampler_msgs[-1] < baswana_sen_messages_estimate(
        dense_gnm(n, ms[-1], seed=1), k=3
    ), "E3: sampler did not beat the Omega(m) baseline at the dense end"
    table.add_note(
        "sampler counts come from the accounting model, which tests prove "
        "exactly equal to the metered distributed run"
    )
    return table


def run_e4(scale: str = "quick") -> TableResult:
    """E4 — round complexity (Theorem 11): rounds = O(3^k h), measured."""
    net = erdos_renyi(120, 0.12, seed=7)
    table = TableResult(
        experiment="E4",
        title="distributed rounds vs (k, h)  (Theorem 11: O(3^k h))",
        columns=["k", "h", "rounds (measured)", "schedule", "rounds / (3^k h)"],
    )
    hs = (1, 2, 4) if scale == "quick" else (1, 2, 4, 8)
    ratios: list[float] = []
    for k in (1, 2):
        for h in hs:
            params = SamplerParams(k=k, h=h, seed=3)
            result = build_spanner_distributed(net, params)
            assert result.rounds == expected_rounds(params), "E4: schedule mismatch"
            ratio = result.rounds / (3**k * h)
            ratios.append(ratio)
            table.add_row(k, h, result.rounds, expected_rounds(params), ratio)
    assert max(ratios) / min(ratios) < 8, (
        "E4: rounds/(3^k h) should be bounded by a constant"
    )
    table.add_note("measured rounds equal the deterministic schedule exactly")
    return table


def run_e5(scale: str = "quick") -> TableResult:
    """E5 — level populations (Lemma 4): n_j concentrates at n^(1-(2^j-1)d)."""
    n = 1500 if scale == "quick" else 4000
    seeds = (1, 2, 3, 4, 5)
    params_base = SamplerParams(k=3, h=1, c_query=0.7, c_target=1.0)
    net = erdos_renyi(n, min(0.95, 12.0 / n) * 2, seed=9)
    table = TableResult(
        experiment="E5",
        title=f"level populations n_j at n={net.n}  (Lemma 4: n*phat_{{j-1}})",
        columns=["level j", "predicted n_j", "measured mean", "measured min", "measured max", "ratio"],
    )
    measured: dict[int, list[int]] = {}
    for seed in seeds:
        result = build_spanner(net, params_base.with_seed(seed))
        for j, population in enumerate(result.trace.populations):
            measured.setdefault(j, []).append(population)
    for j in sorted(measured):
        predicted = params_base.expected_level_population(j, net.n)
        values = measured[j]
        mean_v = sum(values) / len(values)
        ratio = mean_v / predicted
        table.add_row(j, predicted, mean_v, min(values), max(values), ratio)
        assert 0.3 < ratio < 3.0, (
            f"E5: level {j} population {mean_v:.0f} vs predicted {predicted:.0f}"
        )
    table.add_note("Lemma 4 whp window is [1/2, 3/2] * n*phat; small-n noise allowed 0.3..3")
    return table


def run_e6(scale: str = "quick") -> TableResult:
    """E6 — the light/heavy dichotomy (Lemmas 5 and 6)."""
    seeds = (1, 2, 3) if scale == "quick" else (1, 2, 3, 4, 5, 6)
    net = dense_gnm(400, 24_000, seed=4)
    params = SamplerParams(k=2, h=3, c_query=0.7, c_target=1.0)
    table = TableResult(
        experiment="E6",
        title="node labels per level  (Lemma 6: every node light or heavy whp)",
        columns=["seed", "level", "light", "heavy", "stranded", "heavy clustered %"],
    )
    for seed in seeds:
        result = build_spanner(net, params.with_seed(seed))
        for level in result.trace.levels:
            light = level.count_label(NodeLabel.LIGHT)
            heavy = level.count_label(NodeLabel.HEAVY)
            stranded = level.count_label(NodeLabel.STRANDED)
            assert stranded == 0, f"E6: stranded node at seed {seed} level {level.level}"
            clustered = set(level.centers) | {v for v, _c, _e in level.joins}
            heavies = [v for v, node in level.nodes.items() if node.is_heavy]
            if heavies and level.level < params.k:
                rate = 100.0 * sum(1 for v in heavies if v in clustered) / len(heavies)
                assert rate == 100.0, "E6: a heavy node failed to cluster (Lemma 5)"
            else:
                rate = float("nan")
            table.add_row(seed, level.level, light, heavy, stranded, rate)
    table.add_note("Lemma 5: every heavy node finds a center among its queried neighbors")
    return table


def run_e7(scale: str = "quick") -> TableResult:
    """E7 — cluster-tree geometry (Lemma 8): height <= (3^j - 1)/2."""
    net = erdos_renyi(300, 0.12, seed=8) if scale == "quick" else erdos_renyi(800, 0.05, seed=8)
    params = SamplerParams(k=3, h=2, seed=5, c_query=0.7, c_target=1.0)
    result = build_spanner(net, params)
    table = TableResult(
        experiment="E7",
        title="cluster tree heights per level  (Lemma 8: <= (3^j - 1)/2)",
        columns=["level j", "clusters", "max height", "bound", "mean size"],
    )
    for level in result.trace.levels:
        heights = list(level.cluster_heights.values())
        sizes = list(level.cluster_sizes.values())
        bound = (3**level.level - 1) // 2
        max_h = max(heights) if heights else 0
        assert max_h <= bound, f"E7: tree height {max_h} > bound {bound} at level {level.level}"
        table.add_row(
            level.level,
            level.population,
            max_h,
            bound,
            sum(sizes) / max(1, len(sizes)),
        )
    table.add_note("heights measured on the physical spanning trees T_j(v) inside S")
    return table
