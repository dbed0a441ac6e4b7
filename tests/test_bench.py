"""Tests for the benchmark harness plumbing and the fast experiments."""

from __future__ import annotations

import pytest

from repro.bench import EXPERIMENTS, TableResult, format_table, run_experiment
from repro.bench.harness import main


class TestTableResult:
    def test_add_row_checks_arity(self):
        table = TableResult("EX", "t", ["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_extraction(self):
        table = TableResult("EX", "t", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]

    def test_format_contains_everything(self):
        table = TableResult("EX", "demo", ["name", "value"])
        table.add_row("alpha", 12345)
        table.add_note("a note")
        rendered = format_table(table)
        assert "EX: demo" in rendered
        assert "alpha" in rendered
        assert "12,345" in rendered
        assert "note: a note" in rendered


class TestRegistry:
    def test_all_eleven_registered(self):
        assert len(EXPERIMENTS) == 11
        assert all(f"E{i}" in EXPERIMENTS for i in range(1, 12))

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            run_experiment("E10", scale="huge")


class TestFastExperiments:
    """E4, E7, E10 are cheap enough to run inside the unit suite."""

    def test_e4_rounds(self):
        table = run_experiment("E4")
        assert table.rows
        assert all(row[2] == row[3] for row in table.rows)  # measured == schedule

    def test_e7_tree_heights(self):
        table = run_experiment("E7")
        assert all(row[2] <= row[3] for row in table.rows)

    def test_e10_peeling(self):
        table = run_experiment("E10")
        peel_row, naive_row = table.rows
        assert peel_row[2] > 3 * naive_row[2]


class TestHarnessCli:
    def test_single_experiment(self, capsys, tmp_path):
        out = tmp_path / "results.txt"
        code = main(["--experiment", "E10", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "E10" in captured
        assert out.read_text().strip()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["--experiment", "E42"])


class TestPerfHarness:
    def test_parse_filter(self):
        from repro.bench.perf import parse_filter

        assert parse_filter(None) is None
        assert parse_filter("") is None
        assert parse_filter("spanner/*") == ["spanner/*"]
        assert parse_filter("spanner/*, flood/*") == ["spanner/*", "flood/*"]

    def test_check_against_respects_filter(self):
        from repro.bench.perf import check_against

        committed = {
            "kernels": {
                "spanner/gnp/n500": {"seconds": 0.1},
                "flood/gnp/n2000": {"seconds": 1.0},
            }
        }
        fresh = {"kernels": {"spanner/gnp/n500": {"seconds": 0.1}}}
        # unfiltered: the flood kernel is missing from the fresh run
        assert any("missing" in p for p in check_against(committed, fresh))
        # filtered: only spanner kernels are compared
        assert check_against(committed, fresh, ["spanner/*"]) == []
        slow = {"kernels": {"spanner/gnp/n500": {"seconds": 0.2}}}
        problems = check_against(committed, slow, ["spanner/*"])
        assert len(problems) == 1 and "spanner/gnp/n500" in problems[0]

    def test_format_report_empty_kernels(self):
        from repro.bench.perf import format_report

        # used to crash with max() on an empty dict
        rendered = format_report({"kernels": {}})
        assert "no kernels matched" in rendered

    def test_nonpositive_repeats_rejected(self):
        # --repeats 0 would time nothing and record infinite seconds
        for bad in ("0", "-3"):
            with pytest.raises(SystemExit):
                main(["--perf", "--repeats", bad])

    def test_nonpositive_jobs_rejected(self):
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                main(["--perf", "--jobs", bad])

    def test_filtered_run_times_subset(self):
        from repro.bench.perf import run_perf_suite

        doc = run_perf_suite(
            filter_patterns=["spanner/torus/16x16"], repeats=1
        )
        assert list(doc["kernels"]) == ["spanner/torus/16x16"]
        entry = doc["kernels"]["spanner/torus/16x16"]
        assert entry["repeats"] == 1
        # min/median both recorded; dependency versions in the metadata
        # make cross-machine comparisons interpretable
        assert entry["median_seconds"] >= entry["seconds"]
        assert {
            "python",
            "platform",
            "machine",
            "numpy",
            "networkx",
        } <= set(doc["environment"])
        # POSIX hosts also record the memory ceiling inputs
        import resource  # noqa: F401  (POSIX-only; import failure = skip)

        assert entry["peak_rss_mb"] > 0
        assert doc["environment"]["ram_total_mb"] > 0

    def test_parallel_run_produces_same_kernel_set(self):
        from repro.bench.perf import run_perf_suite

        patterns = ["spanner/torus/*", "flood/torus/*"]
        serial = run_perf_suite(filter_patterns=patterns, repeats=1)
        parallel = run_perf_suite(filter_patterns=patterns, repeats=1, jobs=2)
        assert list(serial["kernels"]) == list(parallel["kernels"])
        for name, entry in serial["kernels"].items():
            twin = parallel["kernels"][name]
            assert (entry["n"], entry["m"]) == (twin["n"], twin["m"])

    def test_matches_negative_globs(self):
        from repro.bench.perf import _matches

        assert _matches("spanner/gnp/n500", None)
        assert _matches("spanner/gnp/n500", ["spanner/*"])
        assert not _matches("flood/gnp/n2000", ["spanner/*"])
        # !glob excludes even when a positive glob matches
        pats = ["spanner*", "!*n100000"]
        assert _matches("spanner/gnp/n20000", pats)
        assert not _matches("spanner/gnp/n100000", pats)
        # a pure-negative list means "everything except"
        assert _matches("flood/gnp/n2000", ["!service/*"])
        assert not _matches("service/cold", ["!service/*"])

    def test_parse_filter_keeps_negative_globs(self):
        from repro.bench.perf import parse_filter

        assert parse_filter("spanner*, !*n100000") == ["spanner*", "!*n100000"]

    def test_memory_budget_gate(self, capsys):
        # An absurdly small budget must fail (exit 1) before the
        # filter-without-check refusal (exit 2); a huge budget passes
        # the memory gate and then hits that refusal.
        args = ["--perf", "--filter", "spanner/torus/16x16", "--repeats", "1"]
        assert main(args + ["--memory-budget", "0.001"]) == 1
        assert "memory budget exceeded" in capsys.readouterr().err
        assert main(args + ["--memory-budget", "1000000"]) == 2
        assert "memory check OK" in capsys.readouterr().out

    def test_readme_blocks_are_what_the_renderers_emit(self, tmp_path):
        """The README's generated blocks equal ``update_readme`` over the
        committed ``BENCH_core.json``, so a regeneration can neither
        reorder nor drop a row unnoticed."""
        import json
        import pathlib

        from repro.bench.perf import update_readme

        root = pathlib.Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_bytes()
        copy = tmp_path / "README.md"
        copy.write_bytes(readme)
        doc = json.loads((root / "BENCH_core.json").read_text(encoding="utf-8"))
        assert update_readme(doc, str(copy))
        assert copy.read_bytes() == readme

    def test_spread_warning(self):
        from repro.bench.perf import _progress_line, _spread

        assert _spread([1.0, 1.0, 1.0]) == 0
        assert _spread([1.0, 1.3]) == pytest.approx(0.3)
        noisy = {"seconds": 1.0, "n": 5, "m": 5, "spread": 0.3}
        assert "warning" in _progress_line("k", noisy)
        quiet = {"seconds": 1.0, "n": 5, "m": 5}
        assert "warning" not in _progress_line("k", quiet)
