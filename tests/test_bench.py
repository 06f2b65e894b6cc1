"""Tests for the experiment harness (runners, report formatting, CLI)."""

import json
import math

import numpy as np
import pytest

from repro.bench import report, runner

N = 2_000  # tiny scale: these tests exercise plumbing, not performance


class TestFig3Runner:
    def test_cells_cover_grid(self):
        cells = runner.run_fig3(n=N, densities=(4,), procs=(1, 4), seed=1)
        algos = {c.algorithm for c in cells}
        assert algos == {"sequential", "tv-smp", "tv-opt", "tv-filter"}
        parallel = [c for c in cells if c.algorithm != "sequential"]
        assert len(parallel) == 3 * 2
        assert all(c.sim_time_s > 0 and c.wall_time_s >= 0 for c in cells)

    def test_speedup_definition(self):
        cells = runner.run_fig3(n=N, densities=(4,), procs=(4,), seed=1)
        seq = next(c for c in cells if c.algorithm == "sequential")
        for c in cells:
            assert c.speedup == pytest.approx(seq.sim_time_s / c.sim_time_s)

    def test_verification_on_by_default(self):
        # verify=True cross-checks parallel results against Tarjan; just
        # confirm it runs without raising
        runner.run_fig3(n=N, densities=(4,), procs=(2,), seed=2, verify=True)

    def test_format_fig3(self):
        cells = runner.run_fig3(n=N, densities=(4,), procs=(1, 4), seed=1)
        text = report.format_fig3(cells)
        assert "Fig. 3" in text
        assert "tv-filter speedup" in text
        assert "m/n=4" in text


class TestFig4Runner:
    def test_rows_and_steps(self):
        rows = runner.run_fig4(n=N, densities=(4,), p=4, seed=1)
        assert len(rows) == 3
        for r in rows:
            assert r.total_s > 0
            assert sum(r.steps.values()) <= r.total_s * (1 + 1e-9)
        smp = next(r for r in rows if r.algorithm == "tv-smp")
        assert smp.steps["Root-tree"] > 0
        opt = next(r for r in rows if r.algorithm == "tv-opt")
        assert opt.steps["Root-tree"] == 0.0

    def test_format_fig4(self):
        rows = runner.run_fig4(n=N, densities=(4,), p=4, seed=1)
        text = report.format_fig4(rows)
        assert "Fig. 4" in text and "TOTAL" in text
        assert "Spanning-tree" in text


class TestFig1Runner:
    def test_paper_numbers(self):
        out = runner.run_fig1()
        assert out["G1"]["condition_counts"] == (4, 4, 3)
        assert out["G1"]["aux_vertices_used"] == 10
        assert out["G1"]["aux_edges"] == 11
        assert out["G2"]["condition_counts"] == (2, 2, 3)
        assert out["G2"]["aux_vertices_used"] == 8
        assert out["G2"]["aux_edges"] == 7
        assert "G1" in report.format_fig1(out)


class TestClaimRunners:
    def test_filter_claims(self):
        rows = runner.run_filter_claims(n=N, densities=(4, 8), seed=1)
        assert len(rows) == 2
        for r in rows:
            assert r.filtered_edges >= r.guaranteed_minimum
            assert r.tree_edges + r.forest_edges + r.filtered_edges == r.m
        assert "filtered" in report.format_filter_claims(rows)

    def test_ablation_euler(self):
        rows = runner.run_ablation_euler(n=N, p=4, seed=1)
        labels = [r.label for r in rows]
        assert any("wyllie" in l for l in labels)
        assert any("prefix" in l for l in labels)
        text = report.format_ablation(rows, "t")
        assert "sim [s]" in text

    def test_ablation_spanning(self):
        # sv[textbook], sv[engineered], hcs, traversal, bfs — one full
        # pipeline per registered spanning strategy (and knob combo)
        rows = runner.run_ablation_spanning(n=N, p=4, seed=1)
        assert len(rows) == 5

    def test_ablation_auxcc(self):
        rows = runner.run_ablation_auxcc(n=N, p=4, seed=1)
        by_label = {r.label: r.sim_time_s for r in rows}
        assert by_label["tv-opt cc=pruned"] < by_label["tv-opt cc=full"]

    def test_ablation_lowhigh(self):
        assert len(runner.run_ablation_lowhigh(n=N, p=4, seed=1)) == 3

    def test_ablation_registry_generic(self):
        rows = runner.run_ablation("filter", n=N, p=4, seed=1)
        assert [r.label for r in rows] == [
            "tv-filter filter=none",
            "tv-filter filter=forest",
        ]
        for r in rows:
            assert r.extra["stage"] == "filter"
            assert r.extra["strategies"]["spanning"] == "bfs"
            assert r.sim_time_s > 0

    def test_ablation_unknown_stage(self):
        with pytest.raises(ValueError, match="unknown pipeline stage"):
            runner.run_ablation("turbo", n=N)

    def test_ablation_repair_unrooted_spanning(self):
        # ablating spanning=sv on tv-opt must repair euler to the
        # list-ranked tour (prefix numbering requires a rooted tree)
        rows = runner.run_ablation("spanning", n=N, p=4, seed=1)
        sv = next(r for r in rows if r.label == "tv-opt spanning=sv[textbook]")
        assert sv.extra["strategies"]["euler"] == "tour"
        trav = next(r for r in rows if r.label == "tv-opt spanning=traversal")
        assert trav.extra["strategies"]["euler"] == "prefix"

    def test_fallback_sweep(self):
        rows = runner.run_fallback_sweep(n=N, p=4, seed=1)
        assert len(rows) == 12  # 6 densities x 2 algorithms

    def test_pathological(self):
        rows = runner.run_pathological(n=2_000, p=4, seed=1)
        chain_filter = next(r for r in rows if "filter" in r.label and "chain" in r.label)
        chain_seq = next(r for r in rows if "sequential" in r.label and "chain" in r.label)
        assert chain_filter.sim_time_s > chain_seq.sim_time_s  # §4's warning

    def test_dense(self):
        rows = runner.run_dense(p=4, seed=1, n=300)
        assert len(rows) == 6


class TestCLI:
    def test_fig1_command(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "G1" in out

    def test_json_output(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = tmp_path / "out.json"
        assert main(["abl-lowhigh", "--n", str(N), "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert len(data) == 3
        assert "sim_time_s" in data[0]

    def test_default_n_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "1234")
        assert runner.default_n() == 1234
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert runner.default_n() == 1_000_000


class TestReplayMode:
    def test_replay_matches_direct(self):
        direct = runner.run_fig3(n=N, densities=(4,), procs=(1, 4, 12), seed=9)
        replayed = runner.run_fig3(
            n=N, densities=(4,), procs=(1, 4, 12), seed=9, replay=True
        )
        assert len(direct) == len(replayed)
        for a, b in zip(direct, replayed):
            assert (a.algorithm, a.p) == (b.algorithm, b.p)
            assert b.sim_time_s == pytest.approx(a.sim_time_s, rel=0.08)


class TestAsciiBars:
    def test_bars_scale_to_max(self):
        text = report.ascii_bars(["a", "bb"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10
        assert "2.000s" in lines[1]

    def test_zero_values(self):
        text = report.ascii_bars(["x"], [0.0])
        assert "#" not in text

    def test_empty(self):
        assert report.ascii_bars([], []) == ""

    def test_fig4_bars_render(self):
        rows = runner.run_fig4(n=N, densities=(4,), p=4, seed=1)
        text = report.format_fig4_bars(rows)
        assert "tv-smp" in text and "#" in text
        assert "Root-tree" in text


class TestServiceBench:
    def test_run_service_tail_bench(self):
        tail = runner.run_service_tail_bench(n=300, ops=120, seed=1)
        assert tail["graph_n"] == 300
        assert tail["sync"]["rebuild_mode"] == "sync"
        assert tail["async"]["rebuild_mode"] == "async"
        assert tail["fresh_verify"]["verified"] is True
        assert tail["fresh_verify"]["mismatches"] == 0
        assert tail["tail_collapse_p99"] > 0
        inc = tail["incremental_maintenance"]
        assert inc["graph_family"] == "watts-strogatz"
        assert inc["full"]["maintenance"] == "full"
        assert inc["full"]["rebuilds_incremental"] == 0
        assert inc["auto"]["maintenance"] == "auto"
        assert inc["auto_verify"]["verified"] is True
        assert inc["auto_verify"]["mismatches"] == 0
        text = report.format_service_tail(tail)
        assert "Service tail latency" in text
        assert "Incremental maintenance" in text

    def test_respects_bench_n_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "200")
        tail = runner.run_service_tail_bench(ops=40, seed=1)
        assert tail["graph_n"] == 200

    def test_cli_service_json(self, tmp_path, capsys, monkeypatch):
        from repro.bench.__main__ import main

        # the subcommand writes only the --json path, never under results/
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results").mkdir()
        path = tmp_path / "svc.json"
        assert main(["service", "--n", "300", "--json", str(path)]) == 0
        assert "Service tail latency" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["graph_n"] == 300
        assert data["fresh_verify"]["verified"] is True
        assert list((tmp_path / "results").iterdir()) == []


class TestGuard:
    def test_exits_nonzero_on_any_drift(self, tmp_path, capsys):
        from repro.bench.__main__ import _save_json, main

        # the guard takes n from the baseline; tiny n keeps this fast
        baseline = {"fig3": runner.run_fig3(n=200), "fig4": runner.run_fig4(n=200)}
        path = tmp_path / "baseline.json"
        _save_json(baseline, str(path))
        assert main(["guard", "--baseline", str(path)]) == 0
        assert "272 simulated numbers" in capsys.readouterr().out

        # one ulp is drift: the comparison is ==, not a tolerance
        data = json.loads(path.read_text())
        cell, row = data["fig3"][5], data["fig4"][2]
        cell["sim_time_s"] = math.nextafter(cell["sim_time_s"], math.inf)
        row["steps"]["Low-high"] = math.nextafter(row["steps"]["Low-high"], math.inf)
        path.write_text(json.dumps(data))
        assert main(["guard", "--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        mismatches = [line for line in err.splitlines() if line.startswith("MISMATCH")]
        assert len(mismatches) == 2
        assert "sim_time_s" in mismatches[0] and "'Low-high'" in mismatches[1]
        assert "figures guard FAILED: 2" in err
