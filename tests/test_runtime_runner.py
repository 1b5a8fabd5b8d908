"""Tests for repro.runtime.runner.

Synthetic experiments (via a patched ``get_experiment``) cover timing
and failure paths on a fake clock; the real E1–E13 suite covers the
acceptance scenario: crash E6 twice, retry, checkpoint, replay without
re-execution.
"""

import pytest

from repro.errors import CheckFailure
from repro.experiments import registry
from repro.experiments.registry import ExperimentResult
from repro.runtime.faultinject import FaultInjector, InjectedFault
from repro.runtime.runner import (
    RetryPolicy,
    RunRecord,
    SuiteReport,
    SuiteRunner,
)


class FakeClock:
    """A manually-advanced monotonic clock with a matching sleep."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def ok_result(experiment_id="EX", checks=None):
    return ExperimentResult(
        experiment_id=experiment_id,
        title="synthetic",
        claim="synthetic",
        checks={"always": True} if checks is None else checks,
    )


def patch_experiment(monkeypatch, fn):
    """Route the runner's registry lookup to a synthetic experiment."""
    monkeypatch.setattr("repro.runtime.runner.get_experiment", lambda eid: fn)


class TestRetryTiming:
    def test_backoff_sequence_without_jitter(self, monkeypatch):
        clock = FakeClock()
        failures = iter([True, True, False])

        def flaky(seed=0, fast=True):
            if next(failures):
                raise RuntimeError("transient")
            return ok_result()

        patch_experiment(monkeypatch, flaky)
        runner = SuiteRunner(
            policy=RetryPolicy(
                retries=3, backoff_base=1.0, backoff_factor=2.0, jitter=0.0
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        record = runner.run_one("E1")
        assert record.status == "ok"
        assert record.attempts == 3
        assert clock.sleeps == [1.0, 2.0]

    def test_backoff_respects_max(self, monkeypatch):
        clock = FakeClock()
        patch_experiment(
            monkeypatch, lambda seed=0, fast=True: (_ for _ in ()).throw(OSError())
        )
        runner = SuiteRunner(
            policy=RetryPolicy(
                retries=4, backoff_base=1.0, backoff_factor=10.0,
                max_backoff=5.0, jitter=0.0,
            ),
            clock=clock,
            sleep=clock.sleep,
        )
        record = runner.run_one("E1")
        assert record.status == "error"
        assert record.attempts == 5
        assert clock.sleeps == [1.0, 5.0, 5.0, 5.0]

    def test_jitter_is_seed_deterministic(self, monkeypatch):
        def boom(seed=0, fast=True):
            raise RuntimeError("always")

        def sleeps_for(seed):
            clock = FakeClock()
            patch_experiment(monkeypatch, boom)
            runner = SuiteRunner(
                policy=RetryPolicy(retries=3, backoff_base=1.0, jitter=0.5),
                seed=seed,
                clock=clock,
                sleep=clock.sleep,
            )
            runner.run_one("E1")
            return clock.sleeps

        assert sleeps_for(0) == sleeps_for(0)
        assert sleeps_for(0) != sleeps_for(1)

    def test_no_sleep_on_success(self, monkeypatch):
        clock = FakeClock()
        patch_experiment(monkeypatch, lambda seed=0, fast=True: ok_result())
        runner = SuiteRunner(retries=3, clock=clock, sleep=clock.sleep)
        record = runner.run_one("E1")
        assert record.attempts == 1
        assert clock.sleeps == []


class TestIsolation:
    def test_crash_recorded_and_suite_continues(self):
        injector = FaultInjector()
        injector.register("experiment:E4", times=1)
        runner = SuiteRunner(fault_injector=injector)
        report = runner.run_all(["E4", "E11"])
        assert [r.status for r in report] == ["error", "ok"]
        assert report.errors[0].error_type == "InjectedFault"
        assert not report.ok

    def test_keep_going_false_reraises(self):
        injector = FaultInjector()
        injector.register("experiment:E4", times=1)
        runner = SuiteRunner(keep_going=False, fault_injector=injector)
        with pytest.raises(InjectedFault):
            runner.run_all(["E4"])

    def test_unknown_id_recorded_with_keep_going(self):
        record = SuiteRunner().run_one("E99")
        assert record.status == "error"
        assert record.error_type == "UnknownExperimentError"
        assert record.attempts == 0

    def test_unknown_id_raises_without_keep_going(self):
        with pytest.raises(KeyError):
            SuiteRunner(keep_going=False).run_one("E99")

    def test_corrupted_result_is_an_error(self):
        injector = FaultInjector()
        injector.register("experiment:E4", mode="corrupt", times=1)
        record = SuiteRunner(fault_injector=injector).run_one("E4")
        assert record.status == "error"
        assert record.error_type == "ExperimentError"
        assert "NoneType" in record.error

    def test_strict_checks_turns_shape_failure_into_error(self, monkeypatch):
        patch_experiment(
            monkeypatch,
            lambda seed=0, fast=True: ok_result(checks={"bad": False}),
        )
        record = SuiteRunner(strict_checks=True).run_one("E1")
        assert record.status == "error"
        assert record.error_type == "CheckFailure"
        assert "bad" in record.error


class TestDeadline:
    def test_hang_hits_deadline(self):
        injector = FaultInjector()
        injector.register(
            "experiment:E11", mode="hang", hang_seconds=0.5, times=1
        )
        runner = SuiteRunner(timeout=0.05, fault_injector=injector)
        record = runner.run_one("E11")
        assert record.status == "timeout"
        assert record.error_type == "BudgetExceeded"
        assert record.attempts == 1  # the budget spans attempts: no retry

    def test_timeout_does_not_retry(self):
        injector = FaultInjector()
        injector.register(
            "experiment:E11", mode="hang", hang_seconds=0.5, times=5
        )
        runner = SuiteRunner(
            retries=3, timeout=0.05, fault_injector=injector,
        )
        record = runner.run_one("E11")
        assert record.status == "timeout"
        assert record.attempts == 1

    def test_fast_experiment_beats_deadline(self):
        record = SuiteRunner(timeout=60.0).run_one("E11")
        assert record.status == "ok"


class TestCheckpoint:
    def test_resume_skips_completed(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        first = SuiteRunner(checkpoint=path).run_all(["E4", "E11"])
        assert first.ok

        probe = FaultInjector()
        probe.register("experiment:E4", times=0)
        probe.register("experiment:E11", times=0)
        probe.register("experiment:E12", times=0)
        second = SuiteRunner(checkpoint=path, fault_injector=probe).run_all(
            ["E4", "E11", "E12"]
        )
        assert [r.from_checkpoint for r in second] == [True, True, False]
        stats = probe.stats()
        assert stats["experiment:E4"]["calls"] == 0
        assert stats["experiment:E11"]["calls"] == 0
        assert stats["experiment:E12"]["calls"] == 1

    def test_checkpoint_keyed_by_seed_and_fast(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        SuiteRunner(checkpoint=path).run_all(["E11"], seed=0)
        probe = FaultInjector()
        probe.register("experiment:E11", times=0)
        report = SuiteRunner(checkpoint=path, fault_injector=probe).run_all(
            ["E11"], seed=1
        )
        assert not report.records[0].from_checkpoint
        assert probe.stats()["experiment:E11"]["calls"] == 1

    def test_failed_runs_are_retried_on_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        injector = FaultInjector()
        injector.register("experiment:E11", times=1)
        first = SuiteRunner(checkpoint=path, fault_injector=injector).run_all(
            ["E11"]
        )
        assert first.records[0].status == "error"
        second = SuiteRunner(checkpoint=path).run_all(["E11"])
        assert second.records[0].status == "ok"
        assert not second.records[0].from_checkpoint

    def test_missing_checkpoint_file_is_fine(self, tmp_path):
        runner = SuiteRunner(checkpoint=str(tmp_path / "absent.jsonl"))
        assert runner.run_all(["E11"]).ok


class TestAcceptance:
    def test_crash_e6_twice_then_succeed_with_replay(self, tmp_path):
        """The ISSUE acceptance scenario, execution-count probe included."""
        path = str(tmp_path / "ckpt.jsonl")
        calls = {}
        real_get = registry.get_experiment

        def counting_get(experiment_id):
            run_fn = real_get(experiment_id)

            def counted(seed=0, fast=True):
                calls[experiment_id] = calls.get(experiment_id, 0) + 1
                return run_fn(seed=seed, fast=fast)

            return counted

        import repro.runtime.runner as runner_module

        original = runner_module.get_experiment
        runner_module.get_experiment = counting_get
        try:
            injector = FaultInjector()
            injector.register("experiment:E6", times=2)
            runner = SuiteRunner(
                retries=2,
                checkpoint=path,
                fault_injector=injector,
                sleep=lambda seconds: None,
            )
            report = runner.run_all(seed=0, fast=True)
            assert len(report) == len(registry.all_experiments())
            assert all(r.shape_holds for r in report)
            e6 = next(r for r in report if r.experiment_id == "E6")
            assert e6.attempts == 3
            # Injection point saw 3 attempts, injected 2 crashes; the
            # real experiment body therefore executed exactly once.
            assert injector.stats()["experiment:E6"] == {"calls": 3, "fired": 2}
            assert calls["E6"] == 1
            assert all(calls[r.experiment_id] == 1
                       for r in report if r.experiment_id != "E6")

            calls.clear()
            replay = SuiteRunner(checkpoint=path).run_all(seed=0, fast=True)
            assert calls == {}  # nothing re-executed
            assert all(r.from_checkpoint for r in replay)
            assert replay.summary()["records"] == report.summary()["records"]
        finally:
            runner_module.get_experiment = original


class TestRecordsAndReport:
    def test_run_record_roundtrip(self):
        record = RunRecord(
            experiment_id="E2",
            status="error",
            seed=4,
            fast=False,
            attempts=2,
            duration=1.25,
            error="boom",
            error_type="RuntimeError",
        )
        replayed = RunRecord.from_record(record.to_record())
        assert replayed.from_checkpoint
        assert replayed.to_record() == record.to_record()

    def test_shape_holds_only_when_ok(self):
        bad = RunRecord("E1", "error", 0, True, checks={})
        assert not bad.shape_holds
        good = RunRecord("E1", "ok", 0, True, checks={"c": True})
        assert good.shape_holds

    def test_report_summary_counts(self):
        report = SuiteReport(
            records=[
                RunRecord("E1", "ok", 0, True, checks={"c": True}),
                RunRecord("E2", "error", 0, True, error="x", error_type="X"),
                RunRecord("E3", "timeout", 0, True),
            ]
        )
        summary = report.summary()
        assert summary["total"] == 3
        assert summary["ok"] == 1
        assert summary["error"] == 1
        assert summary["timeout"] == 1
        assert not summary["all_ok"]
        assert len(report) == 3
        assert [r.experiment_id for r in report] == ["E1", "E2", "E3"]


def test_registry_run_all_still_returns_results():
    results = registry.run_all(seed=0, fast=True)
    assert len(results) == len(registry.all_experiments())
    assert all(isinstance(r, ExperimentResult) for r in results)
    assert all(r.shape_holds for r in results)


def test_experiment_result_require_raises_check_failure():
    result = ExperimentResult(
        experiment_id="E1", title="t", claim="c", checks={"x": False, "y": True}
    )
    with pytest.raises(CheckFailure) as excinfo:
        result.require()
    assert excinfo.value.failed_checks == ("x",)
    ok = ExperimentResult(experiment_id="E1", title="t", claim="c")
    ok.require()  # no checks -> no failure


class TestObservability:
    def test_span_tree_per_experiment_and_attempt(self, monkeypatch):
        from repro.obs.tracing import Tracer, use_tracer

        failures = iter([True, False])

        def flaky(seed=0, fast=True):
            if next(failures):
                raise RuntimeError("transient")
            return ok_result()

        patch_experiment(monkeypatch, flaky)
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        runner = SuiteRunner(retries=1, clock=clock, sleep=clock.sleep)
        with use_tracer(tracer):
            report = runner.run_all(["E1"])
        assert report.ok

        by_name = {}
        for span in tracer.finished:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["suite"]) == 1
        assert len(by_name["experiment"]) == 1
        assert len(by_name["attempt"]) == 2
        experiment = by_name["experiment"][0]
        assert experiment.parent_id == by_name["suite"][0].span_id
        assert all(
            a.parent_id == experiment.span_id for a in by_name["attempt"]
        )
        assert by_name["attempt"][0].status == "error"
        assert by_name["attempt"][1].status == "ok"
        assert experiment.attributes["status"] == "ok"
        assert experiment.attributes["attempts"] == 2

    def test_registry_stage_span_nests_under_attempt(self):
        """The one-decorator stage span wraps the real experiment body."""
        from repro.obs.tracing import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            report = SuiteRunner().run_all(["E11"])
        assert report.ok
        stage = next(s for s in tracer.finished if s.name == "e11.run")
        attempt = next(s for s in tracer.finished if s.name == "attempt")
        assert stage.parent_id == attempt.span_id
        assert stage.attributes["experiment_id"] == "E11"
        assert stage.attributes["stage"] == "run"

    def test_retry_and_status_counters(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        failures = iter([True, True, False])

        def flaky(seed=0, fast=True):
            if next(failures):
                raise RuntimeError("transient")
            return ok_result()

        patch_experiment(monkeypatch, flaky)
        clock = FakeClock()
        metrics = MetricsRegistry()
        runner = SuiteRunner(retries=3, clock=clock, sleep=clock.sleep)
        with use_metrics(metrics):
            assert runner.run_one("E1").status == "ok"
        counters = metrics.snapshot()["counters"]
        assert counters["runner.retries"] == 2
        assert counters["runner.status.ok"] == 1

    def test_checkpoint_hit_counter(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        path = str(tmp_path / "ckpt.jsonl")
        SuiteRunner(checkpoint=path).run_all(["E11"])
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            SuiteRunner(checkpoint=path).run_all(["E11"])
        assert metrics.snapshot()["counters"]["runner.checkpoint_hits"] == 1

    def test_timeout_marks_leak_and_worker_is_daemon(self):
        import threading

        from repro.obs.metrics import MetricsRegistry, use_metrics

        injector = FaultInjector()
        injector.register(
            "experiment:E11", mode="hang", hang_seconds=0.5, times=1
        )
        metrics = MetricsRegistry()
        runner = SuiteRunner(timeout=0.05, fault_injector=injector)
        with use_metrics(metrics):
            record = runner.run_one("E11")
        assert record.status == "timeout"
        counters = metrics.snapshot()["counters"]
        assert counters["runner.leaked_threads"] == 1
        assert counters["runner.timeouts"] == 1
        # The abandoned worker must not keep the interpreter alive.
        workers = [
            t for t in threading.enumerate() if t.name == "repro-E11"
        ]
        assert all(t.daemon for t in workers)

    def test_profile_out_dumps_pstats(self, tmp_path):
        import pstats

        runner = SuiteRunner(profile_dir=str(tmp_path))
        assert runner.run_one("E11").status == "ok"
        dump = tmp_path / "E11.pstats"
        assert dump.exists()
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0

    def test_untraced_run_allocates_no_spans(self):
        """Default runner (null tracer/metrics) must record nothing."""
        from repro.obs.metrics import NullMetrics
        from repro.obs.tracing import NullTracer

        runner = SuiteRunner()
        assert isinstance(runner.tracer, NullTracer)
        assert isinstance(runner.metrics, NullMetrics)
        assert runner.run_one("E11").status == "ok"
        assert not hasattr(runner.tracer, "finished")


def test_negative_retries_treated_as_zero(monkeypatch):
    monkeypatch.setattr(
        "repro.runtime.runner.get_experiment",
        lambda eid: (lambda seed=0, fast=True: ok_result()),
    )
    record = SuiteRunner(retries=-1).run_one("E1")
    assert record.status == "ok"
    assert record.attempts == 1
