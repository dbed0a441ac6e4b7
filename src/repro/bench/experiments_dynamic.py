"""Experiment E11: the free lunch on a dynamic network (DESIGN.md §3.9).

Churn a graph through deterministic epochs, repair the cached spanner
onto each mutated graph, and check that (a) the repaired spanner is
bit-identical to a fresh rebuild and (b) the Theorem 9 stretch bound and
the Lemma 10 size envelope survive every churn rate.
"""

from __future__ import annotations

from repro.analysis.validation import validate_spanner
from repro.bench.tables import TableResult
from repro.core import SamplerParams, build_spanner
from repro.dynamic.churn import ChurnPlan, churn_sequence
from repro.dynamic.repair import repair_spanner
from repro.graphs import barabasi_albert, dense_gnm, erdos_renyi, torus

__all__ = ["run_e11", "render_robustness_section", "update_readme_robustness"]

ROBUSTNESS_BEGIN = "<!-- E11_robustness:begin -->"
ROBUSTNESS_END = "<!-- E11_robustness:end -->"


def _families(scale: str):
    # The dense case is where the spanner actually drops edges (small
    # budget constants, E2's regime), so stretch under churn is
    # non-trivial there; the sparse families exercise crash/recovery
    # topology churn where |S| stays close to m.
    if scale == "full":
        return [
            ("gnp", erdos_renyi(600, 8 / 599, seed=11)),
            ("torus", torus(24, 24)),
            ("ba", barabasi_albert(600, 4, seed=11)),
            ("gnm-dense", dense_gnm(260, 18_000, seed=11)),
        ]
    return [
        ("gnp", erdos_renyi(240, 8 / 239, seed=11)),
        ("torus", torus(15, 15)),
        ("ba", barabasi_albert(240, 4, seed=11)),
        ("gnm-dense", dense_gnm(200, 12_000, seed=11)),
    ]


def run_e11(scale: str) -> TableResult:
    """E11 — spanner bounds under churn; repair vs rebuild equivalence.

    For each family × churn rate: build the spanner once, run a
    multi-epoch churn sequence (edge removal + addition, node crash +
    recovery), repair across the whole mutation chain, and compare
    against a cold rebuild of the final graph.  The assertions pin the
    repo's headline repair contract: identical edges, identical full
    trace, valid stretch/size on the post-churn graph.
    """
    rates = (0.02, 0.1, 0.3) if scale == "quick" else (0.02, 0.05, 0.1, 0.3, 0.5)
    epochs = 2 if scale == "quick" else 3
    params = SamplerParams(k=2, h=2, seed=7, c_query=0.4, c_target=0.5)
    table = TableResult(
        experiment="E11",
        title="self-healing repair under churn  (repair == rebuild, bounds hold)",
        columns=[
            "family",
            "churn",
            "m base->final",
            "|S|",
            "max stretch (bound)",
            "size/envelope",
        ],
    )
    for family, base in _families(scale):
        for rate in rates:
            plan = ChurnPlan(
                seed=100 + int(rate * 1000),
                epochs=epochs,
                edge_removal=rate,
                edge_addition=rate / 2,
                node_crash=rate / 10,
                node_recovery=0.5,
            )
            steps = churn_sequence(base, plan)
            final = steps[-1][0]
            logs = [log for _, log in steps if not log.is_noop]
            parent = build_spanner(base, params)
            # A rate so low that every epoch was a no-op leaves the
            # parent standing.
            repaired = repair_spanner(parent, final, logs) if logs else parent
            assert repaired == build_spanner(final, params), (
                f"E11: repaired spanner differs from rebuild on {family}@{rate}"
            )
            checked = validate_spanner(repaired)
            table.add_row(
                family,
                f"{rate:.0%}",
                f"{base.m}->{final.m}",
                repaired.size,
                f"{checked.stretch.max_stretch} ({repaired.stretch_bound})",
                f"{repaired.size / checked.size_envelope:.3f}",
            )
    table.add_note(
        "repaired spanners are bit-identical to cold rebuilds of the "
        "post-churn graph (same edges, same full trace) on every cell"
    )
    return table


# ----------------------------------------------------------------------
# README integration (the Robustness section)
# ----------------------------------------------------------------------
def _cell(value) -> str:
    return str(value).replace("|", "\\|")  # `|S|` must not split the row


def render_robustness_section(table: TableResult) -> str:
    """The README's Robustness table, from a measured E11 run."""
    lines = [
        ROBUSTNESS_BEGIN,
        "",
        "| " + " | ".join(_cell(c) for c in table.columns) + " |",
        "|" + "|".join("---:" if i else "---" for i in range(len(table.columns))) + "|",
    ]
    for row in table.rows:
        lines.append("| " + " | ".join(_cell(value) for value in row) + " |")
    lines.append("")
    for note in table.notes:
        lines.append(f"*{note}*")
        lines.append("")
    lines.append(
        "Regenerate with `PYTHONPATH=src python -m repro.bench "
        "--experiment E11 --update-readme`."
    )
    lines.append(ROBUSTNESS_END)
    return "\n".join(lines)


def update_readme_robustness(table: TableResult, readme_path: str = "README.md") -> bool:
    """Swap the README's marked Robustness block; returns True on success."""
    try:
        with open(readme_path, encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        return False
    start = text.find(ROBUSTNESS_BEGIN)
    stop = text.find(ROBUSTNESS_END)
    if start == -1 or stop == -1:
        return False
    rebuilt = (
        text[:start]
        + render_robustness_section(table)
        + text[stop + len(ROBUSTNESS_END):]
    )
    with open(readme_path, "w", encoding="utf-8") as handle:
        handle.write(rebuilt)
    return True
