"""Tests for repro.obs.tracing.

Span timing and nesting run on a fake clock so durations are exact;
the no-op path is checked for its zero-allocation contract.
"""

import threading

import pytest

from repro.io.jsonl import read_jsonl
from repro.obs.tracing import (
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestSpanTiming:
    def test_duration_from_fake_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.advance(2.5)
        (span,) = tracer.finished
        assert span.duration == pytest.approx(2.5)
        assert span.start == pytest.approx(0.0)
        assert span.end == pytest.approx(2.5)

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id

    def test_span_ids_sequential_and_deterministic(self):
        def structure():
            tracer = Tracer(clock=FakeClock())
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return [(s.span_id, s.parent_id, s.name) for s in tracer.finished]

        assert structure() == structure()
        ids = [record[0] for record in structure()]
        assert sorted(ids) == [1, 2, 3]

    def test_finished_in_completion_order(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.finished] == ["inner", "outer"]

    def test_attributes_and_set_attribute(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", experiment_id="E7") as span:
            span.set_attribute("rows", 42)
        record = tracer.finished[0].to_record()
        assert record["attributes"] == {"experiment_id": "E7", "rows": 42}


class TestErrorCapture:
    def test_exception_recorded_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.finished
        assert span.status == "error"
        assert span.error == "boom"
        assert span.error_type == "ValueError"

    def test_success_status_ok(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("good"):
            pass
        assert tracer.finished[0].status == "ok"


class TestCrossThreadParentage:
    def test_worker_span_nests_under_coordinator_span(self):
        """The deadline worker's spans keep the coordinator as parent."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("experiment") as outer:
            def work():
                with tracer.span("stage"):
                    pass

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        stage = next(s for s in tracer.finished if s.name == "stage")
        assert stage.parent_id == outer.span_id

    def test_abandoned_child_does_not_parent_later_spans(self):
        """A span left open by a hung worker must not adopt later spans."""
        tracer = Tracer(clock=FakeClock())
        with tracer.span("experiment"):
            abandoned = tracer.span("hung")
            abandoned.__enter__()  # never exited, as if its thread hung
        with tracer.span("next") as later:
            pass
        assert later.parent_id is None  # not a child of the hung span


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", seed=3):
            clock.advance(1.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.export(path) == 1
        (record,) = list(read_jsonl(path))
        assert record["name"] == "outer"
        assert record["duration"] == pytest.approx(1.0)
        assert record["attributes"] == {"seed": 3}


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert isinstance(current_tracer(), NullTracer)
        assert current_tracer().enabled is False

    def test_null_span_is_shared_singleton(self):
        """The no-op path allocates no span objects."""
        tracer = NullTracer()
        span = tracer.span("a", key="value")
        assert tracer.span("b") is span  # one shared inert object
        with span as entered:
            entered.set_attribute("ignored", 1)
        assert not hasattr(span, "attributes")

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NullTracer().span("x"):
                raise RuntimeError("boom")


class TestInstallation:
    def test_use_tracer_restores_previous(self):
        tracer = Tracer(clock=FakeClock())
        before = current_tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_use_tracer_restores_on_exception(self):
        before = current_tracer()
        with pytest.raises(ValueError):
            with use_tracer(Tracer(clock=FakeClock())):
                raise ValueError("boom")
        assert current_tracer() is before

    def test_use_null_tracer_masks_the_outer_one(self):
        outer = Tracer(clock=FakeClock())
        with use_tracer(outer):
            with use_tracer(NullTracer()):
                assert isinstance(current_tracer(), NullTracer)
            assert current_tracer() is outer
