"""Tests for the CLI (repro.cli)."""

import json

import pytest

from repro.cli import main

PROJECT_RECORD = {
    "name": "cli-test-project",
    "partners": [
        {
            "partner_id": "coop",
            "name": "Coop",
            "kind": "community",
            "relationship_origin": "met at a community meeting",
        }
    ],
    "engagements": [
        {
            "month": 0,
            "stage": "problem_formation",
            "partner_id": "coop",
            "kind": "led",
            "description": "coop named the problem",
        },
        {
            "month": 5,
            "stage": "evaluation",
            "partner_id": "coop",
            "kind": "collaborated",
        },
    ],
    "conversations": [
        {
            "conv_id": "c1",
            "partner_id": "coop",
            "month": 1,
            "how_it_informed": "reframed the problem",
            "quotes": ["a quote"],
        }
    ],
    "positionality": [
        {
            "identity": "engineers",
            "location": "the Global North",
            "relevance": "shaped what we counted",
        }
    ],
    "ethics_plan": {
        "consent_process": "written consent",
        "consent_withdrawal_supported": True,
        "data_anonymized": True,
        "power_risk_band": "low",
        "power_mitigations_planned": False,
        "community_in_problem_formation": True,
        "partnerships_documented": True,
        "positionality_statement": "present",
        "works_with_indigenous_communities": False,
        "data_sovereignty_plan": "",
    },
}


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "E1 " in out
        assert "E12" in out

    def test_run_one(self, capsys):
        assert main(["experiments", "E11"]) == 0
        out = capsys.readouterr().out
        assert "E11:" in out
        assert "PASS" in out

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            main(["experiments", "E99"])


class TestCorpusCommand:
    def test_writes_jsonl(self, tmp_path, capsys):
        code = main(
            [
                "corpus", "generate", str(tmp_path), "--start-year", "2024",
                "--end-year", "2024", "--seed", "1",
            ]
        )
        assert code == 0
        for name in ("venues", "authors", "papers", "ground_truth"):
            assert (tmp_path / f"{name}.jsonl").exists()
        first = json.loads(
            (tmp_path / "papers.jsonl").read_text().splitlines()[0]
        )
        assert "abstract" in first


class TestDetectCommand:
    def test_detects(self, tmp_path, capsys):
        path = tmp_path / "abstract.txt"
        path.write_text(
            "We conducted semi-structured interviews on our testbed."
        )
        assert main(["detect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "interviews" in out
        assert "testbed" in out

    def test_no_mentions(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        path.write_text("Nothing methodological here.")
        assert main(["detect", str(path)]) == 0
        assert "no method mentions" in capsys.readouterr().out


class TestAuditCommand:
    def test_audit_passes(self, tmp_path, capsys):
        path = tmp_path / "project.json"
        path.write_text(json.dumps(PROJECT_RECORD))
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "overall" in out
        assert "APPROVED" in out

    def test_threshold_gates_exit_code(self, tmp_path):
        record = dict(PROJECT_RECORD, positionality=[], conversations=[])
        path = tmp_path / "project.json"
        path.write_text(json.dumps(record))
        assert main(["audit", str(path), "--threshold", "0.9"]) == 1

    def test_missing_ethics_plan_skipped(self, tmp_path, capsys):
        record = {k: v for k, v in PROJECT_RECORD.items() if k != "ethics_plan"}
        path = tmp_path / "project.json"
        path.write_text(json.dumps(record))
        assert main(["audit", str(path)]) == 0
        assert "skipped" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


class TestExperimentsRuntimeFlags:
    def test_keep_going_records_error_and_runs_rest(self, capsys):
        # E99 cannot run; with --keep-going the rest of the ids still do
        # and the exit code is non-zero.
        code = main(["experiments", "E99", "E11", "--keep-going"])
        assert code == 1
        out = capsys.readouterr().out
        assert "E99: ERROR" in out
        assert "UnknownExperimentError" in out
        assert "E11:" in out
        assert "PASS" in out

    def test_without_keep_going_unknown_id_raises(self):
        with pytest.raises(KeyError):
            main(["experiments", "E99", "E11"])

    def test_checkpoint_resume_skips_completed(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.jsonl")
        assert main(["experiments", "E11", "--checkpoint", ckpt]) == 0
        capsys.readouterr()
        assert main(["experiments", "E11", "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "replayed from checkpoint" in out

    def test_json_summary_to_file(self, tmp_path):
        summary_path = tmp_path / "summary.json"
        code = main(
            ["experiments", "E11", "--json-summary", str(summary_path)]
        )
        assert code == 0
        payload = json.loads(summary_path.read_text())
        assert payload["total"] == 1
        assert payload["all_ok"] is True
        assert payload["records"][0]["experiment_id"] == "E11"

    def test_json_summary_to_stdout(self, capsys):
        assert main(["experiments", "E11", "--json-summary", "-"]) == 0
        out = capsys.readouterr().out
        start = out.index("{\n")
        payload = json.loads(out[start:])
        assert payload["ok"] == 1

    def test_retries_and_timeout_flags_accepted(self, capsys):
        code = main(
            ["experiments", "E11", "--retries", "2", "--timeout", "60"]
        )
        assert code == 0
        assert "E11:" in capsys.readouterr().out

    def test_keep_going_all_ok_exits_zero(self, capsys):
        assert main(["experiments", "E11", "--keep-going"]) == 0


class TestObservabilityFlags:
    def test_run_alias_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.io.jsonl import read_jsonl

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main(
            [
                "run", "E11", "E4",
                "--trace-out", str(trace),
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        spans = list(read_jsonl(trace))
        names = [s["name"] for s in spans]
        assert names.count("experiment") == 2
        assert "suite" in names
        assert "e11.run" in names
        assert "e04.run" in names
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["runner.status.ok"] == 2
        assert "runner.attempt_seconds" in payload["histograms"]

    def test_all_flag_runs_whole_suite(self, tmp_path):
        from repro.io.jsonl import read_jsonl

        trace = tmp_path / "t.jsonl"
        assert main(["run", "--all", "--trace-out", str(trace)]) == 0
        spans = list(read_jsonl(trace))
        experiment_ids = {
            s["attributes"]["experiment_id"]
            for s in spans
            if s["name"] == "experiment"
        }
        from repro.experiments.registry import all_experiments

        assert len(experiment_ids) == len(all_experiments())

    def test_trace_durations_sum_to_suite_wall_clock(self, tmp_path):
        """Acceptance: experiment spans tile the suite span (±5%)."""
        from repro.io.jsonl import read_jsonl

        trace = tmp_path / "t.jsonl"
        assert main(["run", "--all", "--trace-out", str(trace)]) == 0
        spans = list(read_jsonl(trace))
        suite = next(s for s in spans if s["name"] == "suite")
        total = sum(
            s["duration"] for s in spans if s["name"] == "experiment"
        )
        assert total == pytest.approx(suite["duration"], rel=0.05)

    def test_metrics_count_checkpoint_io_rows(self, tmp_path):
        ckpt = str(tmp_path / "ckpt.jsonl")
        metrics = tmp_path / "m.json"
        assert main(["run", "E11", "--checkpoint", ckpt]) == 0
        code = main(
            [
                "run", "E11", "--checkpoint", ckpt,
                "--metrics-out", str(metrics),
            ]
        )
        assert code == 0
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["runner.checkpoint_hits"] == 1
        assert counters["io.jsonl.rows_read"] >= 1

    def test_profile_out_writes_pstats(self, tmp_path):
        out = tmp_path / "prof"
        assert main(["run", "E11", "--profile-out", str(out)]) == 0
        assert (out / "E11.pstats").exists()


class TestObsReportCommand:
    def trace_path(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", "E11", "E4", "--trace-out", str(trace)]) == 0
        return trace

    def test_report_renders_breakdown(self, tmp_path, capsys):
        trace = self.trace_path(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-experiment stage-time breakdown" in out
        assert "critical path" in out
        assert "retry histogram" in out
        assert "E11" in out
        assert "E4" in out

    def test_report_json_mode(self, tmp_path, capsys):
        trace = self.trace_path(tmp_path)
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["experiments"]) == 2
        assert payload["span_count"] >= 7

    def test_report_rejects_non_trace_file(self, tmp_path):
        from repro.errors import DataFormatError
        from repro.io.jsonl import write_jsonl

        path = tmp_path / "not_a_trace.jsonl"
        write_jsonl(path, [{"foo": "bar"}])
        with pytest.raises(DataFormatError):
            main(["obs", "report", str(path)])

    def test_list_uses_shared_table_renderer(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        # The registry table has the shared renderer's header/rule rows.
        assert "id" in out.splitlines()[0]
        assert set(out.splitlines()[1]) <= {"-", " "}
        assert "E13" in out


class TestSetOverrides:
    """``--set key=value`` on experiments/run: typed spec overrides."""

    def test_unknown_key_is_one_line_actionable_error(self, capsys):
        code = main(["run", "E7", "--set", "bogus=1"])
        captured = capsys.readouterr()
        assert code == 2
        message = captured.err.strip()
        assert message.count("\n") == 0  # one line, no traceback
        assert "E7Spec" in message
        assert "n_eyeballs" in message  # names the valid fields

    def test_type_mismatch_is_one_line_actionable_error(self, capsys):
        code = main(["run", "E7", "--set", "seed=banana"])
        captured = capsys.readouterr()
        assert code == 2
        message = captured.err.strip()
        assert message.count("\n") == 0
        assert "E7Spec.seed" in message and "int" in message

    def test_out_of_range_value_is_one_line_error(self, capsys):
        code = main(["run", "E7", "--set", "n_eyeballs=1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "n_eyeballs" in captured.err
        assert ">=" in captured.err

    def test_nested_override_reaches_the_corpus_block(self, capsys):
        code = main(
            ["run", "E1", "--set", "corpus.start_year=2010",
             "--json-summary", "-"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        record = payload["records"][0]
        assert record["status"] == "ok"
        assert record["spec"]["corpus"]["start_year"] == 2010
        assert record["config_hash"]

    def test_choice_field_override_accepts_valid_subset(self, capsys):
        code = main(["run", "E13", "--set", "protocols=tahoe,reno"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tahoe_holds_goodput: PASS" in out
        # The open-loop protocol was not simulated, so its checks are
        # keyed out rather than failing.
        assert "open_loop_collapses_under_overload" not in out

    def test_choice_field_override_rejects_invalid_choice(self, capsys):
        code = main(["run", "E13", "--set", "protocols=cubic"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cubic" in captured.err and "tahoe" in captured.err

    def test_set_records_distinct_config_hash(self, capsys):
        assert main(["run", "E7", "--set", "n_eyeballs=10",
                     "--json-summary", "-"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "E7", "--set", "n_eyeballs=12",
                     "--json-summary", "-"]) == 0
        second = capsys.readouterr().out
        hash_a = json.loads(first[first.index("{"):])["records"][0]["config_hash"]
        hash_b = json.loads(second[second.index("{"):])["records"][0]["config_hash"]
        assert hash_a != hash_b


class TestGracefulInterrupt:
    """Ctrl-C / SIGTERM mid-suite: one resume hint, exit 130, no traceback."""

    def test_interrupted_run_exits_130_with_checkpoint_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        def interrupted_run_all(self, *args, **kwargs):
            raise KeyboardInterrupt

        from repro.runtime.runner import SuiteRunner

        monkeypatch.setattr(SuiteRunner, "run_all", interrupted_run_all)
        ckpt = str(tmp_path / "suite.ckpt")
        code = main(["experiments", "E11", "--checkpoint", ckpt])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"--checkpoint {ckpt}" in err

    def test_interrupted_run_without_checkpoint_suggests_one(
        self, capsys, monkeypatch
    ):
        def interrupted_run_all(self, *args, **kwargs):
            raise KeyboardInterrupt

        from repro.runtime.runner import SuiteRunner

        monkeypatch.setattr(SuiteRunner, "run_all", interrupted_run_all)
        assert main(["experiments", "E11"]) == 130
        assert "--checkpoint" in capsys.readouterr().err

    def test_interrupted_sweep_exits_130_with_cache_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        def interrupted_sweep(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.experiments.sweep.run_sweep", interrupted_sweep)
        cache = str(tmp_path / "cache")
        code = main(
            ["sweep", "E7", "--grid", "seed=0,1", "--cache-dir", cache]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert f"--cache-dir {cache}" in err

    def test_sigterm_is_mapped_to_keyboard_interrupt(self):
        import os
        import signal

        from repro.cli import _graceful_signals

        with pytest.raises(KeyboardInterrupt):
            with _graceful_signals():
                os.kill(os.getpid(), signal.SIGTERM)
                signal.sigtimedwait([], 1)  # give delivery a beat
        # handler restored after the block
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestServeCommand:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--cache-dir", "/tmp/c"])
        assert args.host == "127.0.0.1"
        assert args.port == 8737
        assert args.workers == 1
        assert args.max_inflight == 64
        assert args.deadline == 30.0
        assert args.breaker_threshold == 3
        assert args.func.__name__ == "_cmd_serve"

    def test_serve_flags_round_trip_into_config(self, tmp_path, monkeypatch):
        captured = {}

        def fake_run_server(service):
            captured["config"] = service.config
            return 0

        monkeypatch.setattr("repro.serve.service.run_server", fake_run_server)
        code = main([
            "serve", "--cache-dir", str(tmp_path), "--port", "0",
            "--workers", "2", "--max-inflight", "5", "--deadline", "3.5",
            "--breaker-threshold", "7", "--drain-timeout", "1.5",
        ])
        assert code == 0
        config = captured["config"]
        assert config.cache_dir == str(tmp_path)
        assert config.workers == 2
        assert config.max_inflight == 5
        assert config.deadline == 3.5
        assert config.breaker_threshold == 7
        assert config.drain_timeout == 1.5
