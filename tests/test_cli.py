"""The command-line interface."""

import json
import os
import re

import pytest

from repro.cli import build_parser, main
from repro.resilience import DirectoryLock


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.db == "tpch"
        assert args.queries == 100
        assert args.shape == "uniform"

    def test_unknown_db_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schema", "--db", "oracle"])


class TestCommands:
    def test_benchmarks_lists_table1(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "Redset_Cost_Hard" in out
        assert "Snowset_Card_1_Medium" in out

    def test_schema(self, capsys):
        assert main(["schema", "--db", "tpch", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out
        assert "Foreign keys" in out

    def test_generate_writes_jsonl(self, capsys, tmp_path):
        output = tmp_path / "w.jsonl"
        code = main([
            "generate", "--db", "tpch", "--scale", "0.002",
            "--queries", "12", "--intervals", "3", "--cost-max", "800",
            "--spec", "one join and two predicate values",
            "--time-budget", "60", "-o", str(output),
        ])
        assert code == 0
        lines = output.read_text().splitlines()
        assert len(lines) == 12
        record = json.loads(lines[0])
        assert "sql" in record and "cost" in record
        # Stdout is machine-clean: exactly one JSON summary object.
        summary = json.loads(capsys.readouterr().out)
        assert summary["wasserstein_distance"] == 0.0
        assert summary["generated"] == 12
        assert set(summary["stage_seconds"]) == {
            "templates", "profile", "refine", "search"
        }

    def test_generate_diagnostics_go_to_stderr(self, capsys):
        code = main([
            "generate", "--db", "tpch", "--scale", "0.002",
            "--queries", "8", "--intervals", "2", "--cost-max", "600",
            "--spec", "one join and two predicate values",
            "--time-budget", "60",
        ])
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout parses as pure JSON
        assert "target distribution" in captured.err
        assert "Wasserstein distance" in captured.err

    def test_generate_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main([
            "generate", "--db", "tpch", "--scale", "0.002",
            "--queries", "8", "--intervals", "2", "--cost-max", "600",
            "--spec", "one join and two predicate values",
            "--time-budget", "60", "--trace-out", str(trace),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {e.get("name") for e in events if e["type"] == "span"}
        assert "generate_workload" in names
        assert {"stage:templates", "stage:search"} <= names
        assert events[-1]["type"] == "metrics"

    def test_generate_with_specs_file(self, capsys, tmp_path):
        specs_file = tmp_path / "specs.json"
        specs_file.write_text(json.dumps([
            {"num_joins": 1, "num_aggregations": 1, "group_by": True},
        ]))
        code = main([
            "generate", "--db", "tpch", "--scale", "0.002",
            "--queries", "8", "--intervals", "2", "--cost-max", "600",
            "--specs-file", str(specs_file), "--time-budget", "60",
        ])
        assert code == 0

    def test_generate_fleet_shape(self, capsys):
        code = main([
            "generate", "--db", "tpch", "--scale", "0.002",
            "--queries", "10", "--intervals", "2", "--cost-max", "800",
            "--shape", "redset_cost", "--time-budget", "60",
        ])
        assert code == 0

    @pytest.mark.parametrize(
        "bad",
        [
            ["--intervals", "0"],
            ["--shape", "redset_cost", "--intervals", "0"],
            ["--queries", "-3"],
            ["--cost-min", "100", "--cost-max", "10"],
            ["--shape", "bogus"],
            ["--quarantine-after", "0"],
            ["--row-budget", "0"],
            ["--max-tokens", "-5"],
            ["--query-timeout", "0"],
            ["--workload-mix", "1,2"],
        ],
        ids=[
            "zero-intervals", "fleet-zero-intervals", "negative-queries",
            "inverted-cost-range", "unknown-shape", "zero-quarantine-after",
            "zero-row-budget", "negative-max-tokens", "zero-query-timeout",
            "malformed-workload-mix",
        ],
    )
    def test_generate_rejects_invalid_inputs(self, capsys, bad):
        try:
            code = main(["generate", *bad])
        except SystemExit as exc:  # argparse rejects an unknown --shape
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        # argparse names the subcommand: "repro generate: error: ...".
        errors = [
            line for line in captured.err.splitlines()
            if re.match(r"repro( generate)?: error:", line)
        ]
        assert len(errors) == 1, captured.err

    def test_run_benchmark_json_output(self, capsys):
        code = main([
            "run-benchmark", "--name", "uniform", "--db", "tpch",
            "--method", "sqlbarber", "--queries", "15",
            "--time-budget", "60",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "sqlbarber"
        assert payload["complete"] is True

    def test_run_benchmark_unknown_name(self, capsys):
        assert main(["run-benchmark", "--name", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro: error:")
        ]
        assert len(errors) == 1, captured.err
        assert "unknown benchmark 'nope'" in errors[0]
        assert "Redset_Cost_Hard" in errors[0]  # the valid names are listed

    @pytest.mark.parametrize(
        "content",
        [None, "not json", '{"num_joins": 1}', "[1, 2]"],
        ids=["missing-file", "not-json", "object-not-list", "list-of-numbers"],
    )
    def test_generate_rejects_bad_specs_file(self, capsys, tmp_path, content):
        path = tmp_path / "specs.json"
        if content is not None:
            path.write_text(content)
        assert main(["generate", "--specs-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro: error:")
        ]
        assert len(errors) == 1, captured.err
        assert "--specs-file" in errors[0]

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (None, "cannot read"),
            ("not json", "is not JSON"),
            ('{"num_joins": 1}', "must hold a JSON list of spec objects"),
            ("[1, 2]", "must hold a JSON list of spec objects"),
        ],
        ids=["missing-file", "not-json", "object-not-list", "list-of-numbers"],
    )
    def test_submit_rejects_bad_specs_file(
        self, capsys, tmp_path, monkeypatch, content, message
    ):
        import repro.serve

        class NoClient:
            def __init__(self, url):
                raise AssertionError("a request was about to be sent")

        monkeypatch.setattr(repro.serve, "ServeClient", NoClient)
        path = tmp_path / "specs.json"
        if content is not None:
            path.write_text(content)
        assert main(["submit", "--specs-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro: error:")
        ]
        assert len(errors) == 1, captured.err
        assert errors[0].startswith("repro: error: --specs-file:")
        assert message in errors[0]


class TestHeldDirectories:
    """A directory another holder has locked is a usage error: one
    ``repro: error:`` line naming the holder, exit 2, no traceback."""

    @staticmethod
    def assert_held_error(captured, directory, owner):
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro: error:")
        ]
        assert errors == [
            f"repro: error: {directory / DirectoryLock.LOCK_NAME} is held "
            f"by owner={owner!r} pid={os.getpid()}"
        ], captured.err

    def test_generate_checkpoint_dir_held(self, capsys, tmp_path):
        held = tmp_path / "ckpt"
        with DirectoryLock(held, owner="other-run"):
            code = main([
                "generate", "--db", "tpch", "--scale", "0.002",
                "--queries", "12", "--intervals", "3",
                "--checkpoint-dir", str(held),
            ])
        assert code == 2
        self.assert_held_error(capsys.readouterr(), held, "other-run")
        assert not (held / "checkpoint.jsonl").exists()

    def test_serve_state_dir_held(self, capsys, tmp_path, monkeypatch):
        import repro.serve

        class NoServer:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a port was about to be bound")

        monkeypatch.setattr(repro.serve, "ServeServer", NoServer)
        held = tmp_path / "state"
        with DirectoryLock(held, owner="service-1"):
            code = main([
                "serve", "--port", "0", "--state-dir", str(held),
                "--journal-fsync", "off",
            ])
        assert code == 2
        self.assert_held_error(capsys.readouterr(), held, "service-1")
        assert not any(p.name.startswith("journal-") for p in held.iterdir())


class TestFuzz:
    def test_fuzz_reports_json_and_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "7", "--budget", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["statements"] == 25
        assert payload["disagreements"] == []
        assert set(payload["oracles"]) >= {"round_trip", "explain_cache"}

    def test_fuzz_report_is_reproducible(self, capsys):
        assert main(["fuzz", "--seed", "11", "--budget", "15"]) == 0
        first = capsys.readouterr().out
        assert main(["fuzz", "--seed", "11", "--budget", "15"]) == 0
        assert capsys.readouterr().out == first

    def test_fuzz_writes_corpus_dir(self, capsys, tmp_path):
        corpus_dir = tmp_path / "corpus"
        code = main([
            "fuzz", "--seed", "7", "--budget", "5",
            "--corpus", str(corpus_dir), "--no-shrink",
        ])
        assert code == 0
        # Clean run: no entries written, directory untouched or empty.
        assert not list(corpus_dir.glob("*.json")) if corpus_dir.exists() else True


class TestObservabilityCli:
    GENERATE_BASE = [
        "generate", "--db", "tpch", "--scale", "0.002",
        "--queries", "8", "--intervals", "2", "--cost-max", "600",
        "--spec", "one join and two predicate values",
        "--time-budget", "60",
    ]

    def test_generate_profile_adds_operator_summary(self, capsys):
        code = main([
            *self.GENERATE_BASE, "--cost-type", "actual_rows", "--profile",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert "operator_profiles" in summary
        operators = summary["operator_profiles"]
        assert operators  # actual_rows executes, so plans were profiled
        for agg in operators.values():
            assert {"calls", "rows", "p95"} <= set(agg)

    def test_generate_without_profile_has_no_operator_summary(self, capsys):
        assert main(list(self.GENERATE_BASE)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "operator_profiles" not in summary

    def test_generate_progress_renders_stages_to_stderr(self, capsys):
        code = main([*self.GENERATE_BASE, "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays machine-clean
        assert "[templates] started" in captured.err
        assert "[search] finished" in captured.err
        assert "profiled" in captured.err

    def test_profile_events_in_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            *self.GENERATE_BASE, "--cost-type", "actual_rows",
            "--profile", "--trace-out", str(trace),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        types = [e["type"] for e in events]
        assert "event" in types and "profile" in types
        profile = next(e for e in events if e["type"] == "profile")
        assert profile["profile"]["queries"] > 0

    def test_perf_report_renders_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main([
            *self.GENERATE_BASE, "--cost-type", "actual_rows",
            "--profile", "--trace-out", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["perf-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Stage timings" in out
        assert "Operator profile" in out
        assert "p95" in out

    def test_perf_report_missing_file_errors(self, capsys):
        assert main(["perf-report", "/nonexistent/trace.jsonl"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_fuzz_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.jsonl"
        code = main([
            "fuzz", "--seed", "7", "--budget", "30",
            "--trace-out", str(trace),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert any(e["type"] == "metrics" for e in events)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "7", "--runs", "2", "--intensity", "0.3"],
            ["--seed", "10", "--runs", "1", "--scenario", "serve"],
            ["--seed", "6", "--runs", "1", "--scenario", "restart"],
        ],
        ids=["default", "serve", "restart"],
    )
    def test_chaos_trace_out(self, tmp_path, capsys, argv):
        trace = tmp_path / "chaos.jsonl"
        code = main(["chaos", *argv, "--trace-out", str(trace)])
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events, "chaos trace empty"
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert spans.count("chaos.run") == 1
        if "--scenario" not in argv:
            # Pipeline campaigns forward each run's progress events.
            names = [e.get("event") for e in events if e["type"] == "event"]
            assert "stage_started" in names

    @pytest.mark.parametrize(
        "scenario", [None, "serve", "restart"],
        ids=["default", "serve", "restart"],
    )
    @pytest.mark.parametrize(
        "bad",
        [
            ["--runs", "0"],
            ["--runs", "-3", "--intensity", "-1"],
            ["--intensity", "1.5"],
        ],
        ids=["zero-runs", "negative", "intensity-above-one"],
    )
    def test_chaos_rejects_invalid_inputs(self, capsys, scenario, bad):
        argv = ["chaos", *bad]
        if scenario is not None:
            argv += ["--scenario", scenario]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro: error:")
        ]
        assert len(errors) == 1, captured.err
