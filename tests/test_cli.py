"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_figure_choices(self):
        args = build_parser().parse_args(["run", "fig1"])
        assert args.figure == "fig1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_schedule_defaults(self):
        args = build_parser().parse_args(["schedule"])
        assert args.model == "inception_v3"
        assert args.algorithm == "hios-lp"
        assert args.gpus == 2

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.model == "inception_v3"
        assert args.gpus == 4
        assert args.fault == []
        assert args.seed == 0
        assert args.watchdog == 0.0
        assert not args.no_repair
        assert args.max_repairs is None

    def test_faults_repeatable_spec(self):
        args = build_parser().parse_args(
            ["faults", "--fault", "fail:1@2.0", "--fault", "loss:0.1"]
        )
        assert args.fault == ["fail:1@2.0", "loss:0.1"]

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "steady-state"
        assert args.config is None
        assert args.seed is None
        assert args.horizon is None
        assert not args.json

    def test_serve_scenario_and_config_are_exclusive(self):
        args = build_parser().parse_args(["serve", "--scenario", "gpu-loss"])
        assert args.scenario == "gpu-loss"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--scenario", "nope"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--scenario", "gpu-loss", "--config", "c.json"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "hios-lp" in out
        assert "nasnet" in out

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "ratio" in out

    def test_run_instances_override(self, capsys):
        assert main(["run", "fig11", "--instances", "1"]) == 0
        assert "latency" in capsys.readouterr().out

    def test_schedule_inception(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "--model",
                    "inception_v3",
                    "--size",
                    "299",
                    "--algorithm",
                    "sequential",
                    "--stages",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out
        assert "GPU 0" in out

    def test_schedule_json_output(self, capsys):
        assert (
            main(
                [
                    "schedule",
                    "--model",
                    "inception_v3",
                    "--size",
                    "299",
                    "--algorithm",
                    "hios-mr",
                    "--json",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert '"num_gpus": 2' in out

    def test_schedule_passes_window_to_every_windowed_algorithm(self, capsys):
        from repro.core import schedule_graph
        from repro.experiments.realmodels import MODEL_BUILDERS, default_profiler

        profile = default_profiler(num_gpus=2).profile(MODEL_BUILDERS["inception_v3"](299))
        want = schedule_graph(profile, "hios-lp-ls", window=1).latency
        assert f"{want:.3f}" != f"{schedule_graph(profile, 'hios-lp-ls').latency:.3f}"
        argv = ["schedule", "--model", "inception_v3", "--size", "299"]
        assert main([*argv, "--algorithm", "hios-lp-ls", "--window", "1"]) == 0
        assert f"predicted {want:.3f} ms" in capsys.readouterr().out

    def test_schedule_profile_sched_prints_every_counter(self, capsys):
        from repro.core import EvalCounters

        assert main(["schedule", "--algorithm", "hios-lp", "--profile-sched"]) == 0
        out = capsys.readouterr().out
        assert "scheduling time breakdown:" in out
        counters = out.split("evaluation counters:", 1)[1].splitlines()
        printed = {line.split()[0] for line in counters if line.startswith("  ")}
        assert printed == set(EvalCounters().to_stats())


class TestValidateCommand:
    @pytest.fixture
    def artifacts(self, tmp_path):
        from repro.core import OpGraph, Schedule, save_graph

        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
        gpath = tmp_path / "g.json"
        save_graph(g, gpath)
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        spath = tmp_path / "s.json"
        spath.write_text(s.to_json())
        return str(gpath), str(spath), tmp_path

    def test_valid_schedule(self, artifacts, capsys):
        gpath, spath, _ = artifacts
        assert main(["validate", gpath, spath]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")
        assert "latency" in out

    def test_invalid_schedule(self, artifacts, capsys):
        from repro.core import Schedule

        gpath, _, tmp = artifacts
        bad = Schedule(1)
        bad.append_op(0, "b")
        bad.append_op(0, "a")
        bpath = tmp / "bad.json"
        bpath.write_text(bad.to_json())
        assert main(["validate", gpath, str(bpath)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_gpu_mismatch(self, artifacts, capsys):
        gpath, spath, _ = artifacts
        assert main(["validate", gpath, spath, "--gpus", "4"]) == 2


class TestFaultsCommand:
    ARGS = ["faults", "--model", "inception_v3", "--size", "299", "--gpus", "4"]

    def test_failure_is_repaired(self, capsys):
        assert (
            main(
                self.ARGS
                + ["--algorithms", "sequential", "hios-lp", "--fault", "fail:1@1.0"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fail@1.000" in out
        assert "repaired ms" in out
        assert "rounds" in out
        assert "fail:1@1.0" in out

    def test_cascade_reports_rounds(self, capsys):
        assert (
            main(
                self.ARGS
                + [
                    "--algorithms",
                    "hios-lp",
                    "--fault",
                    "fail:1@0.5",
                    "--fault",
                    "fail:2@0.9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fail@0.500" in out
        # both failures struck, so two repair rounds ran
        assert any("2" in line for line in out.splitlines() if "hios-lp" in line)

    def test_fault_free_when_no_spec(self, capsys):
        assert main(self.ARGS + ["--algorithms", "sequential"]) == 0
        out = capsys.readouterr().out
        assert "none (fault-free)" in out
        assert "fail@" not in out

    def test_no_repair_reports_failure_and_exits_1(self, capsys):
        assert (
            main(
                self.ARGS
                + ["--algorithms", "sequential", "--fault", "fail:1@1.0", "--no-repair"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "fail@1.000" in out
        assert "unrecovered" in out

    def test_exhausted_budget_exits_1(self, capsys):
        # two failures but a budget of one repair: unrecovered, exit 1
        assert (
            main(
                self.ARGS
                + [
                    "--algorithms",
                    "hios-lp",
                    "--fault",
                    "fail:1@0.5",
                    "--fault",
                    "fail:2@0.9",
                    "--max-repairs",
                    "1",
                ]
            )
            == 1
        )
        assert "unrecovered" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, capsys):
        assert main(["faults", "--fault", "bogus:1@2"]) == 2
        assert "error" in capsys.readouterr().out


class TestServeCommand:
    def test_steady_state_text_report(self, capsys):
        assert main(["serve", "--scenario", "steady-state"]) == 0
        out = capsys.readouterr().out
        assert "goodput" in out
        assert "tenant search" in out and "tenant feed" in out

    def test_json_report_carries_format_marker(self, capsys):
        import json

        assert main(["serve", "--scenario", "gpu-loss", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro.servereport/v1"
        assert doc["failed"] == 0
        assert doc["repairs"] >= 1
        assert "requests" not in doc

    def test_json_requests_included_on_demand(self, capsys):
        import json

        assert main(["serve", "--scenario", "steady-state", "--json", "--requests"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["requests"]) == doc["arrivals"]

    def test_config_file_round_trip(self, tmp_path, capsys):
        import json

        from repro.serve import scenario_config

        path = tmp_path / "serve.json"
        path.write_text(json.dumps(scenario_config("steady-state").to_dict()))
        assert main(["serve", "--config", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] == 26

    def test_bad_config_exits_2(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro.serve/v1", "tenants": []}))
        assert main(["serve", "--config", str(path)]) == 2
        assert "V00" in capsys.readouterr().out

    def test_seed_override_changes_arrivals(self, capsys):
        import json

        assert main(["serve", "--scenario", "steady-state", "--json"]) == 0
        base = json.loads(capsys.readouterr().out)
        assert main(["serve", "--scenario", "steady-state", "--seed", "99", "--json"]) == 0
        reseeded = json.loads(capsys.readouterr().out)
        # reseeding redraws the Poisson streams, so the report shifts
        assert base != reseeded
        assert base["makespan_ms"] != reseeded["makespan_ms"]

    def test_artifacts_written_and_lint_clean(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "chrome.json"
        decisions = tmp_path / "decisions.jsonl"
        assert (
            main(
                [
                    "serve",
                    "--scenario",
                    "gpu-loss",
                    "--trace-out",
                    str(chrome),
                    "--decisions-out",
                    str(decisions),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decision record(s)" in out
        doc = json.loads(chrome.read_text())
        assert doc["otherData"]["format"] == "repro.chrometrace/v1"
        events = {
            json.loads(line)["event"] for line in decisions.read_text().splitlines()
        }
        assert {"serve-admit", "serve-dispatch", "serve-gpu-fail"} <= events
        assert main(["lint", str(chrome)]) == 0

    def test_serve_config_lints_from_file(self, tmp_path, capsys):
        import json

        from repro.serve import scenario_config

        path = tmp_path / "serve.json"
        path.write_text(json.dumps(scenario_config("burst-overload").to_dict()))
        assert main(["lint", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_table(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--model",
                    "inception_v3",
                    "--size",
                    "299",
                    "--algorithms",
                    "sequential",
                    "hios-lp",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "sequential" in out and "hios-lp" in out
        assert "gap" in out


class TestLintCommand:
    @pytest.fixture
    def artifacts(self, tmp_path):
        import json

        from repro.core import OpGraph, Schedule, save_graph

        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
        gpath = tmp_path / "g.json"
        save_graph(g, gpath)
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        spath = tmp_path / "s.json"
        spath.write_text(s.to_json())
        bad = {
            "num_gpus": 2,
            "gpus": [
                {"gpu": 0, "stages": [["a"]]},
                {"gpu": 1, "stages": [["a"]]},
            ],
        }
        bpath = tmp_path / "bad.json"
        bpath.write_text(json.dumps(bad))
        return str(gpath), str(spath), str(bpath), tmp_path

    def test_clean_pair_exits_0(self, artifacts, capsys):
        gpath, spath, _, _ = artifacts
        assert main(["lint", gpath, spath]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_duplicate_placement_exits_1(self, artifacts, capsys):
        gpath, _, bpath, _ = artifacts
        assert main(["lint", gpath, bpath]) == 1
        out = capsys.readouterr().out
        assert "S003" in out and "placed twice" in out

    def test_json_output_carries_catalog(self, artifacts, capsys):
        import json

        gpath, spath, _, _ = artifacts
        assert main(["lint", gpath, spath, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert len(doc["rules"]) >= 18

    def test_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "G001" in out and "S001" in out and "T001" in out and "F001" in out

    def test_fault_specs_only(self, capsys):
        assert (
            main(
                [
                    "lint",
                    "--fault",
                    "fail:7@1",
                    "--gpus",
                    "2",
                ]
            )
            == 1
        )
        assert "F001" in capsys.readouterr().out

    def test_trace_lints_clean(self, artifacts, capsys):
        import json

        from repro.core import Schedule, load_graph
        from repro.substrate.engine import MultiGpuEngine

        gpath, spath, _, tmp = artifacts
        g = load_graph(gpath)
        s = Schedule.from_json((tmp / "s.json").read_text())
        trace = MultiGpuEngine().run(g, s)
        tpath = tmp / "t.json"
        tpath.write_text(json.dumps(trace.to_dict()))
        assert main(["lint", gpath, spath, str(tpath)]) == 0

    def test_nothing_to_lint_exits_2(self, capsys):
        assert main(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().out

    def test_unreadable_file_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_unclassifiable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text('{"hello": "world"}')
        assert main(["lint", str(path)]) == 2
        assert "cannot classify" in capsys.readouterr().out

    def test_every_file_is_checked(self, artifacts, capsys):
        import json
        from pathlib import Path

        gpath, _, _, tmp = artifacts
        lint_dir = Path(__file__).resolve().parents[1] / "benchmarks/results/lint"
        entry = json.loads((lint_dir / "cache_entry.json").read_text())
        good, bad = tmp / "good_cache.json", tmp / "bad_cache.json"
        good.write_text(json.dumps(entry))
        bad.write_text(json.dumps(dict(entry, format="repro.bogus/v1")))
        dep = tmp / "dep_schedule.json"  # a -> b share one stage
        dep.write_text(json.dumps({"num_gpus": 1, "gpus": [{"gpu": 0, "stages": [["a", "b"]]}]}))
        assert main(["lint", str(bad), str(good)]) == 1
        assert f"error[C001] {bad}:format" in capsys.readouterr().out
        assert main(["lint", str(good), gpath, str(dep), str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"error[S006] {dep}:gpu:0/op:a" in out
        assert f"error[C001] {bad}:format" in out
        assert "2 error(s)" in out

    @pytest.mark.parametrize("command", ["lint", "sanitize"])
    def test_second_schedule_exits_2(self, artifacts, capsys, command):
        gpath, spath, _, tmp = artifacts
        other = tmp / "other.json"
        other.write_text((tmp / "s.json").read_text())
        assert main([command, gpath, spath, str(other)]) == 2
        assert capsys.readouterr().out.splitlines() == [
            f"error: two schedule documents: {spath} and {other}; pass one"
        ]

    def test_help_and_docs_list_every_format(self):
        from pathlib import Path

        from repro.formats import FORMATS

        lint = build_parser()._subparsers._group_actions[0].choices["lint"]
        (files,) = [action.help for action in lint._actions if action.dest == "files"]
        docs = (Path(__file__).resolve().parents[1] / "docs/linting.md").read_text()
        for fmt in FORMATS:
            assert fmt.label in files
            assert fmt.marker is None or f"`{fmt.marker}`" in docs


class TestTraceCommands:
    @pytest.fixture
    def artifacts(self, tmp_path):
        import json

        from repro.core import OpGraph, Schedule
        from repro.substrate import EngineConfig, MultiGpuEngine

        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        cfg = EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.0,
        )
        trace = MultiGpuEngine(cfg).run(g, s)
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(trace.to_dict()))
        spath = tmp_path / "s.json"
        spath.write_text(s.to_json())
        return str(tpath), str(spath), tmp_path

    def test_parser_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "export", "t.json", "--schedule", "s.json"]
        )
        assert args.trace_command == "export"
        assert args.process_name == "hios"
        args = build_parser().parse_args(
            ["trace", "diff", "a.json", "b.json", "--json"]
        )
        assert args.trace_command == "diff"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])  # subcommand required
        with pytest.raises(SystemExit):
            # export without --schedule
            build_parser().parse_args(["trace", "export", "t.json"])

    def test_schedule_flags_parse(self):
        args = build_parser().parse_args(
            ["schedule", "--trace-out", "x.json", "--decisions-out", "d.jsonl"]
        )
        assert args.trace_out == "x.json"
        assert args.decisions_out == "d.jsonl"
        args = build_parser().parse_args(["run", "fig12_inception", "--trace-out", "traces"])
        assert args.trace_out == "traces"

    def test_export_to_file_lints_clean(self, artifacts, capsys):
        import json

        tpath, spath, tmp = artifacts
        out = tmp / "chrome.json"
        assert (
            main(
                ["trace", "export", tpath, "--schedule", spath, "-o", str(out)]
            )
            == 0
        )
        assert "wrote" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["otherData"]["format"] == "repro.chrometrace/v1"
        assert main(["lint", str(out)]) == 0

    def test_export_to_stdout(self, artifacts, capsys):
        import json

        tpath, spath, _ = artifacts
        assert main(["trace", "export", tpath, "--schedule", spath]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(e.get("cat") == "kernel" for e in doc["traceEvents"])

    def test_report_text_and_json(self, artifacts, capsys):
        import json

        tpath, spath, _ = artifacts
        assert main(["trace", "report", tpath, "--schedule", spath]) == 0
        text = capsys.readouterr().out
        assert "end-to-end latency" in text
        assert "realized critical path" in text
        assert main(["trace", "report", tpath, "--schedule", spath, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["completed"] is True
        total = sum(
            doc["per_gpu"][0][k]
            for k in ("compute_ms", "transfer_ms", "overhead_ms", "idle_ms")
        )
        assert total == pytest.approx(doc["latency_ms"])

    def test_self_diff_is_identical(self, artifacts, capsys):
        tpath, _, _ = artifacts
        assert main(["trace", "diff", tpath, tpath]) == 0
        assert "traces are identical" in capsys.readouterr().out

    def test_diff_json(self, artifacts, capsys):
        import json

        tpath, _, _ = artifacts
        assert main(["trace", "diff", tpath, tpath, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latency_delta_ms"] == 0.0
        assert doc["shifted"] == []

    def test_missing_trace_exits_2(self, artifacts, capsys):
        _, spath, tmp = artifacts
        code = main(
            ["trace", "report", str(tmp / "nope.json"), "--schedule", spath]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().out

    def test_malformed_trace_exits_2(self, artifacts, capsys):
        _, spath, tmp = artifacts
        bad = tmp / "bad.json"
        bad.write_text('{"format": "repro.trace/v1", "latency": "soon"}')
        assert main(["trace", "report", str(bad), "--schedule", spath]) == 2
        assert "malformed trace document" in capsys.readouterr().out

    def test_mismatched_schedule_exits_2(self, artifacts, capsys):
        from repro.core import Schedule

        tpath, _, tmp = artifacts
        other = Schedule(2)
        other.append_op(0, "x")
        opath = tmp / "other.json"
        opath.write_text(other.to_json())
        assert main(["trace", "report", tpath, "--schedule", str(opath)]) == 2
        assert "does not place" in capsys.readouterr().out

    def test_schedule_command_writes_both_artifacts(self, tmp_path, capsys):
        import json

        chrome = tmp_path / "chrome.json"
        decisions = tmp_path / "decisions.jsonl"
        assert (
            main(
                [
                    "schedule",
                    "--trace-out",
                    str(chrome),
                    "--decisions-out",
                    str(decisions),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "decision record(s)" in out
        doc = json.loads(chrome.read_text())
        assert doc["otherData"]["format"] == "repro.chrometrace/v1"
        records = [
            json.loads(line) for line in decisions.read_text().splitlines()
        ]
        assert records
        assert {"lp-path", "window-merge"} <= {r["event"] for r in records}


class TestSanitizeCommand:
    @pytest.fixture
    def artifacts(self, tmp_path):
        import json

        from repro.core import OpGraph, Schedule, save_graph
        from repro.substrate import EngineConfig, MultiGpuEngine

        g = OpGraph.from_edges({"a": 1.0, "b": 2.0}, [("a", "b", 0.5)])
        gpath = tmp_path / "g.json"
        save_graph(g, gpath)
        s = Schedule(2)
        s.append_op(0, "a")
        s.append_op(1, "b")
        spath = tmp_path / "s.json"
        spath.write_text(s.to_json())
        cfg = EngineConfig(
            launch_overhead_ms=0.0,
            launch_included_in_cost=False,
            contention_penalty=0.0,
        )
        trace = MultiGpuEngine(cfg).run(g, s)
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(trace.to_dict()))
        return str(gpath), str(spath), str(tpath), tmp_path

    @pytest.fixture
    def deadlock_artifacts(self, tmp_path):
        from repro.core import OpGraph, Schedule, save_graph

        g = OpGraph.from_edges(
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
            [("a", "b"), ("c", "d")],
        )
        gpath = tmp_path / "dg.json"
        save_graph(g, gpath)
        s = Schedule(2)
        for gpu, op in [(0, "d"), (0, "a"), (1, "b"), (1, "c")]:
            s.append_op(gpu, op)
        spath = tmp_path / "ds.json"
        spath.write_text(s.to_json())
        return str(gpath), str(spath)

    def test_clean_triple_exits_0(self, artifacts, capsys):
        gpath, spath, tpath, _ = artifacts
        assert main(["sanitize", gpath, spath, tpath]) == 0
        out = capsys.readouterr().out
        assert "clean: no hazards found" in out

    def test_deadlock_exits_1_with_witness(self, deadlock_artifacts, capsys):
        gpath, spath = deadlock_artifacts
        assert main(["sanitize", gpath, spath]) == 1
        out = capsys.readouterr().out
        assert "ERROR [deadlock]" in out
        assert "--[" in out  # the witness cycle renders its edges

    def test_deadlock_detected_without_running_the_engine(
        self, deadlock_artifacts, monkeypatch
    ):
        """The acceptance criterion: the verdict is static — no engine,
        no watchdog, no event loop is ever involved."""
        from repro.substrate import MultiGpuEngine

        def boom(self, *args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("sanitize must never invoke the engine")

        monkeypatch.setattr(MultiGpuEngine, "run", boom)
        gpath, spath = deadlock_artifacts
        assert main(["sanitize", gpath, spath]) == 1

    def test_json_report_lints_clean(self, artifacts, capsys, tmp_path):
        import json

        gpath, spath, tpath, _ = artifacts
        assert main(["sanitize", gpath, spath, tpath, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro.hbreport/v1"
        rpath = tmp_path / "hb.json"
        rpath.write_text(json.dumps(doc))
        # the emitted report is itself a lintable artifact (H0xx pack)
        assert main(["lint", str(rpath)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_model_flags_change_the_analysis(self, artifacts, capsys):
        gpath, spath, _, _ = artifacts
        assert main(["sanitize", gpath, spath, "--no-data-wait"]) == 1
        out = capsys.readouterr().out
        assert "race" in out and "unsynchronized" in out

    def test_scenario_timelines(self, capsys):
        assert main(["sanitize", "--scenario", "steady-state"]) == 0
        out = capsys.readouterr().out
        assert "serve timeline(s) linearizable: steady-state" in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["sanitize", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_schedule_without_graph_exits_2(self, artifacts, capsys):
        _, spath, _, _ = artifacts
        assert main(["sanitize", spath]) == 2
        assert "graph and the schedule together" in capsys.readouterr().out

    def test_trace_without_pair_exits_2(self, artifacts, capsys):
        _, _, tpath, _ = artifacts
        assert main(["sanitize", tpath]) == 2

    def test_nothing_to_analyze_exits_2(self, capsys):
        assert main(["sanitize"]) == 2
