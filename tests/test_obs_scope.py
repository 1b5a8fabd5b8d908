"""The tracer, metrics registry and fault injector are scoped settings.

Each is entered with its ``use_*`` context manager and holds for the
thread (and context) that entered it.  The suite runner and the result
service carry the scope into the threads they start, so a run records
the same spans and counters at any worker count, and two runs side by
side in one process never see each other's sinks or faults.
"""

import errno
import threading
from collections import Counter
from contextlib import contextmanager
from functools import partial

import pytest

from repro.experiments.e12_scale_vs_depth import E12Spec
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracing import Tracer, current_tracer, use_tracer
from repro.runtime.faultinject import FaultInjector, use_fault_injector
from repro.runtime.runner import SuiteRunner
from repro.serve.client import fetch
from repro.serve.service import ResultService, ServeConfig, ServerThread

HOST = "127.0.0.1"


def counters(metrics):
    return metrics.snapshot()["counters"]


@contextmanager
def scoped(metrics, tracer=None, injector=None):
    """``metrics``, ``tracer`` (default: the outer one) and ``injector``."""
    if tracer is None:
        tracer = current_tracer()
    with use_tracer(tracer), use_metrics(metrics), use_fault_injector(injector):
        yield


def run_overlapping(first, second):
    """Run two ``(scope, body)`` pairs on two threads, scopes overlapping.

    Thread one enters ``scope()``, thread two enters its own, thread
    one runs its body and leaves, then thread two runs its body.  A
    process-global setting would let the second scope overwrite the
    first while the first body runs.  Returns ``({"one": result,
    "two": result}, {thread: exception})``.
    """
    one_in, two_in = threading.Event(), threading.Event()
    outcomes, errors = {}, {}

    def thread_one():
        scope, body = first
        try:
            with scope():
                one_in.set()
                assert two_in.wait(30)
                outcomes["one"] = body()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors["one"] = exc
        finally:
            one_in.set()

    def thread_two():
        scope, body = second
        try:
            assert one_in.wait(30)
            with scope():
                two_in.set()
                threads[0].join(120)
                outcomes["two"] = body()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors["two"] = exc
        finally:
            two_in.set()

    threads = [threading.Thread(target=thread_one, name="scope-one"),
               threading.Thread(target=thread_two, name="scope-two")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(240)
        assert not thread.is_alive()
    return outcomes, errors


class TestWorkerCountInvariance:
    def test_workers_1_and_2_record_the_same_spans_and_counters(self, tmp_path):
        specs = [E12Spec(), E12Spec(seed=1)]
        tracers = {w: Tracer() for w in (1, 2)}
        registries = {w: MetricsRegistry() for w in (1, 2)}

        def run(workers):
            cache_dir = str(tmp_path / f"w{workers}")
            return lambda: SuiteRunner(
                workers=workers, cache_dir=cache_dir
            ).run_points(specs)

        outcomes, errors = run_overlapping(
            (partial(scoped, registries[1], tracers[1]), run(1)),
            (partial(scoped, registries[2], tracers[2]), run(2)),
        )
        assert errors == {}
        assert outcomes["one"].fingerprint() == outcomes["two"].fingerprint()
        spans = {
            w: Counter(span.name for span in tracer.finished)
            for w, tracer in tracers.items()
        }
        assert spans[1] == spans[2]
        assert spans[1]["e12.run"] == 2
        names = {
            w: sorted(
                name for name in counters(registry)
                if not name.startswith("runner.")
            )
            for w, registry in registries.items()
        }
        assert names[1] == names[2]
        assert "artifacts.writes" in names[1]
        assert any(name.startswith("shardgen.") for name in names[1])


class TestThreadIsolation:
    def test_each_thread_keeps_its_metrics_and_fault_injector(self, tmp_path):
        armed = FaultInjector()
        armed.register("io:append_jsonl", mode="enospc")
        registries = {"armed": MetricsRegistry(), "calm": MetricsRegistry()}
        faults = {}

        def run(name):
            def body():
                runner = SuiteRunner(checkpoint=str(tmp_path / f"{name}.jsonl"))
                try:
                    return runner.run_all(["E11"])
                except OSError as exc:
                    faults[name] = exc.errno
                    return None

            return body

        # The armed thread's scope is live while the calm one runs, and
        # the calm one's while the armed one runs.
        outcomes, errors = run_overlapping(
            (partial(scoped, registries["armed"], injector=armed), run("armed")),
            (partial(scoped, registries["calm"]), run("calm")),
        )
        assert errors == {}
        assert faults == {"armed": errno.ENOSPC}
        assert outcomes["two"].ok
        assert (tmp_path / "calm.jsonl").read_text().count("\n") == 1
        assert (tmp_path / "armed.jsonl").read_text() == ""
        for name, registry in registries.items():
            assert counters(registry)["runner.status.ok"] == 1, name
        # Only the calm run wrote its checkpoint row.
        assert counters(registries["calm"])["io.jsonl.rows_written"] == 1
        assert "io.jsonl.rows_written" not in counters(registries["armed"])


class TestDeadlineThread:
    def test_deadline_thread_records_into_the_callers_sinks(self, tmp_path):
        """The deadline thread runs the experiment in the caller's scope."""
        tracer, metrics = Tracer(), MetricsRegistry()
        runner = SuiteRunner(timeout=30, cache_dir=str(tmp_path))
        with use_tracer(tracer), use_metrics(metrics):
            report = runner.run_all(["E11", "E12"])
        assert report.ok
        stage = next(s for s in tracer.finished if s.name == "e11.run")
        attempt = next(
            s for s in tracer.finished
            if s.name == "attempt" and s.attributes["experiment_id"] == "E11"
        )
        assert stage.parent_id == attempt.span_id
        stats = counters(metrics)
        assert stats["artifacts.writes"] > 0
        assert stats["shardgen.manifest_rebuilds"] == 1


class TestServiceScope:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_library_counters_reach_service_metrics(self, tmp_path, workers):
        service = ResultService(
            ServeConfig(
                cache_dir=str(tmp_path / "cache"), deadline=120.0,
                workers=workers,
            ),
            metrics=MetricsRegistry(),
        )
        with ServerThread(service) as server:
            cold = fetch(HOST, server.port, "/v1/result/E12?seed=0", timeout=120)
            assert cold.status == 200
            assert cold.json()["source"] == "computed"
            after_cold = counters(service.metrics)
            hot = fetch(HOST, server.port, "/v1/result/E12?seed=0", timeout=120)
            assert hot.status == 200
            assert hot.json()["source"] == "cache"
        after_hot = counters(service.metrics)
        assert after_cold["artifacts.writes"] > 0
        assert any(name.startswith("shardgen.") for name in after_cold)
        assert after_hot["artifacts.hits"] == after_cold.get("artifacts.hits", 0) + 1
