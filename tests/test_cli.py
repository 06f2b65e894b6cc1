"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import Graph, generators as gen
from repro.graph.io import read_edgelist, write_edgelist, write_metis


@pytest.fixture()
def graph_file(tmp_path):
    g = gen.random_connected_gnm(60, 200, seed=1)
    path = tmp_path / "g.edges"
    write_edgelist(g, path)
    return str(path), g


class TestBcc:
    def test_basic(self, graph_file, capsys):
        path, g = graph_file
        assert main(["bcc", path]) == 0
        out = capsys.readouterr().out
        assert f"n={g.n} m={g.m}" in out
        assert "biconnected components: 1" in out

    def test_with_machine(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bcc", path, "--p", "12", "--algorithm", "tv-opt"]) == 0
        out = capsys.readouterr().out
        assert "simulated E4500 time at p=12" in out
        assert "Connected-components" in out

    def test_labels_out(self, graph_file, tmp_path):
        path, g = graph_file
        labels_path = tmp_path / "labels.txt"
        assert main(["bcc", path, "--labels-out", str(labels_path)]) == 0
        labels = np.loadtxt(labels_path, dtype=np.int64)
        assert labels.shape == (g.m,)

    def test_all_algorithms(self, graph_file, capsys):
        path, _ = graph_file
        for algo in ("sequential", "tv-smp", "tv-opt", "tv-filter",
                     "fastbcc", "auto", "custom"):
            assert main(["bcc", path, "--algorithm", algo]) == 0

    def test_strategy_overrides(self, graph_file, capsys):
        path, g = graph_file
        assert main(["bcc", path, "--algorithm", "custom",
                     "--strategy", "lowhigh=rmq", "--strategy", "cc=pruned"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=custom" in out
        assert "biconnected components: 1" in out

    def test_strategy_bad_format(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="STAGE=NAME"):
            main(["bcc", path, "--strategy", "lowhigh"])

    def test_strategy_unknown_name(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="unknown lowhigh strategy"):
            main(["bcc", path, "--strategy", "lowhigh=turbo"])

    def test_explain_no_graph_needed(self, capsys):
        assert main(["bcc", "--algorithm", "tv-filter", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "fallback: tv-opt" in out
        assert "Filtering" in out and "prefix" in out

    def test_explain_with_overrides(self, capsys):
        assert main(["bcc", "--algorithm", "custom", "--explain",
                     "--strategy", "lowhigh=rmq"]) == 0
        out = capsys.readouterr().out
        assert "rmq" in out

    def test_explain_auto_no_graph_prints_policy(self, capsys):
        assert main(["bcc", "--algorithm", "auto", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "adaptive per-graph selection" in out

    def test_explain_auto_with_graph_prints_decision(self, graph_file, capsys):
        from repro.core import select

        path, g = graph_file
        assert main(["bcc", path, "--algorithm", "auto", "--explain"]) == 0
        out = capsys.readouterr().out
        # the per-graph decision table, then the chosen pipeline description
        assert f"auto: n={g.n} m={g.m}" in out
        assert "<- chosen" in out
        assert select.choose_algorithm(g.n, g.m, 1) in out

    def test_auto_verify_runs_chosen_algorithm(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bcc", path, "--algorithm", "auto", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified against sequential Tarjan" in out

    def test_bcc_without_graph_errors(self):
        with pytest.raises(SystemExit, match="graph file is required"):
            main(["bcc", "--algorithm", "tv-opt"])


class TestGenerate:
    @pytest.mark.parametrize("family,needs_m", [
        ("gnm", True), ("connected-gnm", True), ("tree", False),
        ("path", False), ("cycle", False), ("star", False), ("complete", False),
    ])
    def test_families(self, tmp_path, family, needs_m):
        out = tmp_path / f"{family}.edges"
        argv = ["generate", family, str(out), "--n", "20"]
        if needs_m:
            argv += ["--m", "30"]
        assert main(argv) == 0
        g = read_edgelist(out)
        assert g.n == 20

    def test_rmat(self, tmp_path):
        out = tmp_path / "r.edges"
        assert main(["generate", "rmat", str(out), "--n", "64", "--m", "256"]) == 0
        g = read_edgelist(out)
        assert g.n == 64

    @pytest.mark.parametrize("family", ["gnm", "connected-gnm", "rmat"])
    def test_edge_count_families_require_m(self, tmp_path, family):
        out = tmp_path / "x.edges"
        with pytest.raises(SystemExit, match="--m .* required"):
            main(["generate", family, str(out), "--n", "50"])
        assert not out.exists()


class TestConvertInfoAugment:
    def test_convert_roundtrip(self, graph_file, tmp_path):
        path, g = graph_file
        metis = tmp_path / "g.metis"
        dimacs = tmp_path / "g.dimacs"
        assert main(["convert", path, str(metis)]) == 0
        assert main(["convert", str(metis), str(dimacs)]) == 0
        back = tmp_path / "back.edges"
        assert main(["convert", str(dimacs), str(back)]) == 0
        assert read_edgelist(back) == g

    def test_info(self, graph_file, capsys):
        path, g = graph_file
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert f"vertices        : {g.n}" in out
        assert "connected       : True" in out

    def test_augment(self, tmp_path, capsys):
        g = gen.path_graph(12)
        src = tmp_path / "p.edges"
        dst = tmp_path / "p2.edges"
        write_edgelist(g, src)
        assert main(["augment", str(src), str(dst)]) == 0
        g2 = read_edgelist(dst)
        from repro.core import tarjan_bcc

        res = tarjan_bcc(g2)
        assert res.num_components == 1
        assert res.articulation_points().size == 0

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["info", str(tmp_path / "g.xyz")])


class TestJsonOutput:
    def test_bcc_json_schema(self, graph_file, capsys):
        import json

        path, g = graph_file
        assert main(["bcc", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "bcc"
        assert doc["n"] == g.n and doc["m"] == g.m
        assert doc["algorithm"] == "tv-filter"
        assert doc["num_components"] >= 1
        assert isinstance(doc["num_articulation_points"], int)
        assert isinstance(doc["num_bridges"], int)
        assert doc["largest_block_edges"] >= 1
        assert doc["simulated"] is None

    def test_bcc_json_with_machine(self, graph_file, capsys):
        import json

        path, _ = graph_file
        assert main(["bcc", path, "--json", "--p", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        sim = doc["simulated"]
        assert sim["p"] == 4 and sim["time_s"] > 0
        assert "Connected-components" in sim["regions"]

    def test_info_json_schema(self, graph_file, capsys):
        import json

        path, g = graph_file
        assert main(["info", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "info"
        assert doc["n"] == g.n and doc["m"] == g.m
        for key in ("connected", "blocks", "articulation_points", "bridges",
                    "leaf_blocks", "largest_block_edges", "biconnected"):
            assert key in doc, key
        assert doc["connected"] is True

    def test_info_index_facts(self, tmp_path, capsys):
        # path graph: every edge is its own block/bridge, interior = cuts
        g = gen.path_graph(6)
        p = tmp_path / "p.edges"
        write_edgelist(g, p)
        assert main(["info", str(p)]) == 0
        out = capsys.readouterr().out
        assert "blocks          : 5" in out
        assert "articulation pts: 4" in out
        assert "bridges         : 5" in out
        assert "leaf blocks     : 2" in out
        assert "largest block   : 1 edges" in out
        assert "biconnected     : False" in out

    def test_info_biconnected_graph(self, tmp_path, capsys):
        import json

        p = tmp_path / "c.edges"
        write_edgelist(gen.cycle_graph(8), p)
        assert main(["info", str(p), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["biconnected"] is True
        assert doc["blocks"] == 1 and doc["bridges"] == 0


class TestWorkloadCLI:
    def _gen(self, tmp_path, *extra):
        out = tmp_path / "w.jsonl"
        args = ["workload", "gen", str(out), "--ops", "200", "--seed", "7",
                "--n", "150", "--m", "450", *extra]
        assert main(args) == 0
        return out

    def test_gen_writes_jsonl(self, tmp_path, capsys):
        import json

        out = self._gen(tmp_path)
        text = capsys.readouterr().out
        assert "wrote 200 ops" in text
        lines = out.read_text().splitlines()
        assert len(lines) == 201
        header = json.loads(lines[0])
        assert header["workload"] == 1
        assert header["spec"]["graph"]["n"] == 150

    def test_gen_defaults_m_to_n_log_n(self, tmp_path, capsys):
        import json

        out = tmp_path / "w.jsonl"
        assert main(["workload", "gen", str(out), "--ops", "10", "--n", "64"]) == 0
        capsys.readouterr()
        header = json.loads(out.read_text().splitlines()[0])
        assert header["spec"]["graph"]["m"] == 64 * 6

    def test_gen_requires_graph_or_n(self, tmp_path):
        with pytest.raises(SystemExit, match="--n .*or --graph"):
            main(["workload", "gen", str(tmp_path / "w.jsonl")])

    def test_gen_unknown_family(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown family"):
            main(["workload", "gen", str(tmp_path / "w.jsonl"),
                  "--n", "10", "--family", "hypercube"])

    def test_gen_from_graph_file(self, tmp_path, graph_file, capsys):
        path, g = graph_file
        out = tmp_path / "w.jsonl"
        assert main(["workload", "gen", str(out), "--ops", "50", "--graph", path]) == 0
        assert "wrote 50 ops" in capsys.readouterr().out

    def test_run_human_output(self, tmp_path, capsys):
        out = self._gen(tmp_path)
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--verify"]) == 0
        text = capsys.readouterr().out
        assert "ops/s" in text
        assert "p99=" in text
        assert "hit rate" in text
        assert "verified against recompute-from-scratch: True (0 mismatches)" in text

    def test_run_json_report(self, tmp_path, capsys):
        import json

        out = self._gen(tmp_path)
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--json", "--verify",
                     "--p", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_ops"] == 200
        assert doc["throughput_ops_s"] > 0
        assert doc["query_p99_us"] > 0
        assert doc["cache_hit_rate"] > 0
        assert doc["verified"] is True and doc["mismatches"] == 0
        assert doc["p"] == 4 and doc["sim_time_s"] > 0

    def test_run_skewed_and_options(self, tmp_path, capsys):
        out = self._gen(tmp_path, "--dist", "skewed", "--skew", "2.5",
                        "--update-frac", "0.3", "--edge-bias", "0.5")
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--algorithm", "tv-opt",
                     "--cache-size", "2"]) == 0
        assert "algorithm=tv-opt" in capsys.readouterr().out

    def test_run_graph_override(self, tmp_path, graph_file, capsys):
        # workload over 50 vertices runs fine on a larger (n=60) graph
        path, _ = graph_file
        out = tmp_path / "w.jsonl"
        assert main(["workload", "gen", str(out), "--ops", "100", "--seed", "7",
                     "--n", "50", "--m", "150"]) == 0
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--graph", path]) == 0
        assert "n=60" in capsys.readouterr().out

    def test_run_incompatible_override_exits(self, tmp_path, graph_file):
        # workload over 150 vertices cannot run on the 60-vertex graph
        path, _ = graph_file
        out = self._gen(tmp_path)
        with pytest.raises(SystemExit, match="workload run"):
            main(["workload", "run", str(out), "--graph", path])

    def test_run_rejects_non_workload_file(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="workload run"):
            main(["workload", "run", path])


class TestBatchedWorkloadCLI:
    def _gen(self, tmp_path, *extra):
        out = tmp_path / "wb.jsonl"
        args = ["workload", "gen", str(out), "--ops", "150", "--seed", "7",
                "--n", "150", "--m", "450", "--batch", "8", *extra]
        assert main(args) == 0
        return out

    def test_gen_emits_many_ops(self, tmp_path, capsys):
        import json

        from repro.service.workload import BATCH_OP_NAMES

        out = self._gen(tmp_path)
        text = capsys.readouterr().out
        assert "query items, batch=8" in text
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["spec"]["query_batch"] == 8
        kinds = {json.loads(l)["op"] for l in lines[1:]}
        assert kinds & set(BATCH_OP_NAMES)
        assert "same_bcc" not in kinds  # promoted to same_bcc_many

    def test_update_batch_flag(self, tmp_path, capsys):
        import json

        out = self._gen(tmp_path, "--update-batch", "2", "--update-frac", "0.5")
        capsys.readouterr()
        updates = [json.loads(l) for l in out.read_text().splitlines()[1:]
                   if json.loads(l)["op"] in ("add_edges", "remove_edges")]
        assert updates
        assert all(1 <= len(op["edges"]) <= 2 for op in updates)

    def test_run_batched_verified(self, tmp_path, capsys):
        out = self._gen(tmp_path)
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--verify"]) == 0
        text = capsys.readouterr().out
        assert "batched:" in text and "items/s amortized" in text
        assert "per-item latency us:" in text
        assert "item-p50=" in text
        assert "verified against recompute-from-scratch: True (0 mismatches)" in text

    def test_run_batched_json(self, tmp_path, capsys):
        import json

        out = self._gen(tmp_path)
        capsys.readouterr()
        assert main(["workload", "run", str(out), "--json", "--verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True and doc["mismatches"] == 0
        assert doc["num_query_items"] > doc["num_queries"]
        assert doc["throughput_items_s"] > doc["throughput_ops_s"]
        assert doc["query_item_p99_us"] > 0


class TestVerifyFlag:
    def test_verify_human_output(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bcc", path, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "verified against sequential Tarjan: True" in out

    def test_verify_json_field(self, graph_file, capsys):
        import json

        path, _ = graph_file
        assert main(["bcc", path, "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verified"] is True

    def test_verify_on_real_backend(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["bcc", path, "--verify", "--backend", "serial",
                     "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified against sequential Tarjan: True" in out
        assert "measured wall-clock (serial)" in out

    def test_verify_failure_exits(self, tmp_path, monkeypatch, capsys):
        # plant a wrong answer for the parallel algorithm while leaving the
        # sequential reference intact: --verify must notice and exit nonzero
        from repro.api import biconnected_components as real
        from repro.core.result import BCCResult

        def forged(g, algorithm="tv-filter", **kwargs):
            if algorithm == "sequential":
                return real(g, algorithm="sequential")
            return BCCResult(g, np.zeros(g.m, dtype=np.int64), algorithm)

        monkeypatch.setattr("repro.cli.biconnected_components", forged)
        # a path has one block per edge; the forged single-block answer is wrong
        path = tmp_path / "p.edges"
        write_edgelist(gen.path_graph(6), path)
        with pytest.raises(SystemExit, match="labels disagree"):
            main(["bcc", str(path), "--verify"])
        assert "verified against sequential Tarjan: False" in capsys.readouterr().out


class TestBadOptions:
    def test_unknown_backend_exits_2(self, graph_file, capsys):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(["bcc", path, "--backend", "gpu"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'gpu'" in capsys.readouterr().err

    def test_removed_threads_backend_exits_2(self, graph_file, capsys):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(["bcc", path, "--backend", "threads"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'threads'" in capsys.readouterr().err

    def test_removed_fastsv_algorithm_exits_2(self, graph_file, capsys):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(["bcc", path, "--algorithm", "fastsv"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fastsv'" in capsys.readouterr().err

    def test_unknown_algorithm_exits_2(self, graph_file, capsys):
        path, _ = graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(["bcc", path, "--algorithm", "magic"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'magic'" in capsys.readouterr().err

    def test_unknown_workload_strategy_stage(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit, match="unknown pipeline stage"):
            main(["bcc", path, "--algorithm", "custom", "--strategy", "zz=rmq"])


class TestInfoRoundTrip:
    def test_info_json_matches_recomputation(self, graph_file, capsys):
        import json

        from repro.core import tarjan_bcc

        path, g = graph_file
        assert main(["info", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        res = tarjan_bcc(g)
        assert doc["n"] == g.n and doc["m"] == g.m
        assert doc["blocks"] == res.num_components
        assert doc["articulation_points"] == int(res.articulation_points().size)
        assert doc["bridges"] == int(res.bridges().size)
        assert doc["biconnected"] is (res.num_components == 1
                                      and res.articulation_points().size == 0)


class TestWorkloadVerifyExit:
    """``workload run --verify`` must exit non-zero on oracle mismatch."""

    def _gen(self, tmp_path):
        out = tmp_path / "w.jsonl"
        assert main(["workload", "gen", str(out), "--ops", "60", "--seed", "11",
                     "--n", "80", "--m", "240"]) == 0
        return out

    def test_mismatch_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        # forge the recompute oracle so every query's expected answer is
        # garbage: the run must report mismatches AND exit non-zero
        import repro.service.driver as drv

        real = drv.oracle_answer

        def forged(result, op):
            answer = real(result, op)
            if isinstance(answer, bool):
                return not answer
            if isinstance(answer, int):
                return answer + 1
            return answer

        monkeypatch.setattr(drv, "oracle_answer", forged)
        out = self._gen(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "run", str(out), "--verify"])
        assert excinfo.value.code not in (0, None)
        assert "disagreed with recompute" in str(excinfo.value)
        assert "verified against recompute-from-scratch: False" in (
            capsys.readouterr().out)

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        out = self._gen(tmp_path)
        assert main(["workload", "run", str(out), "--verify"]) == 0


class TestGenerateBarabasiAlbert:
    def test_generate(self, tmp_path):
        out = tmp_path / "ba.edges"
        assert main(["generate", "barabasi-albert", str(out),
                     "--n", "50", "--m", "100"]) == 0
        g = read_edgelist(out)
        assert g.n == 50 and g.m == 2 * 48  # k = round(100/50) = 2

    def test_requires_m(self, tmp_path):
        out = tmp_path / "ba.edges"
        with pytest.raises(SystemExit, match="--m .* required"):
            main(["generate", "barabasi-albert", str(out), "--n", "50"])


class TestClusterCLI:
    def test_run_human_output(self, capsys):
        assert main(["cluster", "run", "--shards", "2", "--clients", "2",
                     "--ops", "60", "--n", "80", "--frame", "8",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s) [serial] x 2 client(s)" in out
        assert "verified against single-engine replay: True (0 mismatches)" in out
        assert "shutdown: clean=True leaked_segments=0" in out

    def test_run_json_report(self, capsys):
        import json

        assert main(["cluster", "run", "--shards", "3", "--clients", "2",
                     "--ops", "40", "--n", "60", "--batch", "4",
                     "--verify", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_shards"] == 3 and doc["num_clients"] == 2
        assert doc["verified"] is True and doc["mismatches"] == 0
        assert doc["clean_shutdown"] is True and doc["leaked_segments"] == 0
        assert len(doc["per_shard"]) == 3
        assert set(doc["tenants"]) == {"t0", "t1"}

    def test_run_verify_failure_exits(self, monkeypatch):
        # forge the single-engine oracle comparison to always disagree
        monkeypatch.setattr(
            "repro.cluster.driver.answers_identical",
            lambda kind, routed, reference: 1,
        )
        with pytest.raises(SystemExit, match="disagreed with single-engine"):
            main(["cluster", "run", "--shards", "2", "--clients", "1",
                  "--ops", "20", "--n", "40", "--verify"])

    def test_run_trace(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["cluster", "run", "--shards", "2", "--clients", "1",
                     "--ops", "30", "--n", "50", "--trace", str(trace)]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e.get("name") for e in events}
        assert {"Cluster-route", "Cluster-scatter", "Cluster-gather"} <= names

    def test_serve_from_file(self, tmp_path, capsys):
        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text("\n".join([
            '{"op": "put_graph", "name": "g0", "n": 30, "m": 60, "seed": 1}',
            '{"op": "num_components", "graph": "g0"}',
            '{"op": "shutdown"}',
        ]) + "\n")
        assert main(["cluster", "serve", "--shards", "2",
                     "--input", str(reqs)]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.strip()]
        import json

        docs = [json.loads(l) for l in lines]
        assert docs[0]["ok"] is True and "shard" in docs[0]
        assert isinstance(docs[1]["answer"], int)
        assert docs[2]["shutdown"] is True
        assert "served 3 request(s)" in captured.err


class TestSharedEngineFlags:
    FLAGS = ("maintenance", "rebuild_mode", "coalesce_ms", "staleness_budget_ms")

    def _parsed(self, monkeypatch, argv):
        import repro.cli as cli

        seen = []
        for name in ("cmd_workload_run", "cmd_cluster_run", "cmd_cluster_serve"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
        assert main(argv) == 0
        return seen[0]

    def test_same_defaults(self, monkeypatch):
        wl = self._parsed(monkeypatch, ["workload", "run", "w.jsonl"])
        serve = self._parsed(monkeypatch, ["cluster", "serve"])
        defaults = {"maintenance": "auto", "rebuild_mode": "sync",
                    "coalesce_ms": 0.0, "staleness_budget_ms": 250.0}
        assert {f: getattr(wl, f) for f in self.FLAGS} == defaults
        assert {f: getattr(serve, f) for f in self.FLAGS} == defaults

    def test_same_choices(self, monkeypatch):
        flags = ["--maintenance", "full", "--rebuild-mode", "async",
                 "--coalesce-ms", "5", "--staleness-budget-ms", "-1"]
        wl = self._parsed(monkeypatch, ["workload", "run", "w.jsonl", *flags])
        serve = self._parsed(monkeypatch, ["cluster", "serve", *flags])
        assert ({f: getattr(wl, f) for f in self.FLAGS}
                == {f: getattr(serve, f) for f in self.FLAGS})

    def test_cluster_run_takes_only_maintenance(self, monkeypatch, capsys):
        run = self._parsed(monkeypatch, ["cluster", "run", "--maintenance", "full"])
        assert run.maintenance == "full"
        assert not hasattr(run, "rebuild_mode")
        with pytest.raises(SystemExit):
            main(["cluster", "run", "--rebuild-mode", "async"])

    @pytest.mark.parametrize("mode", ["incremental-extend", "incremental-shrink"])
    def test_forced_strategy_modes_rejected(self, mode, capsys):
        with pytest.raises(SystemExit):
            main(["workload", "run", "w.jsonl", "--maintenance", mode])
