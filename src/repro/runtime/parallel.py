"""Worker-process side of parallel suite execution.

:meth:`repro.runtime.runner.SuiteRunner.run_all` with ``workers > 1``
builds one task per experiment (:func:`make_task`) and hands them, with
:func:`run_experiment_task` as the entry point, to the generic
:class:`repro.runtime.supervisor.WorkerSupervisor`.  This module is
what runs inside the pool: a picklable task description goes in, and an
*observation shard* comes out — the experiment's checkpoint-shaped
record, its live :class:`~repro.experiments.registry.ExperimentResult`,
the span records of a worker-local tracer, and a worker-local metrics
snapshot.  The parent merges the shards deterministically (metrics via
the associative :meth:`~repro.obs.metrics.MetricsRegistry.merge`, spans
via :meth:`~repro.obs.tracing.Tracer.adopt`) in suite order, so the
combined observability output does not depend on completion order.
A task that raised or was quarantined instead of returning a shard
becomes one through :func:`failure_payload`.

Workers always run with ``keep_going=True`` and no checkpoint: failure
handling and checkpoint appends are the parent's job (single writer).
Injectable clocks and sleeps do not cross the process boundary — a
worker uses real time — and a :class:`FaultInjector` travels as its
:meth:`~repro.runtime.faultinject.FaultInjector.to_task` form, so
custom exception/corrupt callables are replaced by the defaults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runner import RunRecord, SuiteRunner


def make_task(runner: "SuiteRunner", point, cache_dir: str | None) -> dict:
    """The picklable task for running one suite point in a worker.

    ``point`` is the runner's resolved ``_Point``: the spec (when the
    experiment has one) travels as its ``to_dict()`` payload plus
    ``config_hash`` and is reconstructed in the worker, so a sweep
    point's exact configuration survives pickling, crash-requeue, and
    pool rebuilds; legacy/synthetic points carry only ``(seed, fast)``.
    """
    policy = runner.policy
    injector = runner.fault_injector
    return {
        "experiment_id": point.experiment_id,
        "seed": point.seed,
        "fast": point.fast,
        "spec": point.spec_dict(),
        "config_hash": point.config_hash,
        "timeout": runner.timeout,
        "strict_checks": runner.strict_checks,
        "profile_dir": runner.profile_dir,
        "jitter_seed": runner._jitter_seed,
        "policy": {
            "retries": policy.retries,
            "backoff_base": policy.backoff_base,
            "backoff_factor": policy.backoff_factor,
            "max_backoff": policy.max_backoff,
            "jitter": policy.jitter,
        },
        "fault": injector.to_task() if injector is not None else None,
        "cache_dir": cache_dir,
        # Bumped by the supervisor on requeue: how many workers this
        # task has already crashed.
        "worker_crashes": 0,
    }


def run_experiment_task(task: dict) -> dict:
    """Run one experiment in a pool worker; returns its shard.

    The shard is ``{"record", "result", "spans", "metrics"}`` where
    ``record`` is the :meth:`RunRecord.to_record` dict, ``result`` is
    the live (picklable) ExperimentResult or None, ``spans`` are the
    worker tracer's finished span records (the ``experiment`` span is
    the shard's root), and ``metrics`` is the worker registry snapshot.
    """
    # Imported here, not at module top: the pool pickles this function
    # by reference, and keeping the import local means a spawn-context
    # worker pays it once per process, after interpreter startup.
    from repro.obs.metrics import MetricsRegistry, use_metrics
    from repro.obs.tracing import Tracer, use_tracer
    from repro.runtime.faultinject import FaultInjector, use_fault_injector
    from repro.runtime.runner import RetryPolicy, SuiteRunner

    fault_injector = FaultInjector.from_task(
        task["fault"], task["worker_crashes"]
    )
    runner = SuiteRunner(
        policy=RetryPolicy(**task["policy"]),
        timeout=task["timeout"],
        keep_going=True,
        checkpoint=None,
        strict_checks=task["strict_checks"],
        seed=task["jitter_seed"],
        fault_injector=fault_injector,
        profile_dir=task["profile_dir"],
        cache_dir=task["cache_dir"],
    )
    spec = None
    if task.get("spec") is not None:
        from repro.experiments.registry import spec_class

        spec = spec_class(task["experiment_id"]).from_dict(task["spec"])
    tracer = Tracer()
    metrics = MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics), \
            use_fault_injector(fault_injector):
        record = runner.run_one(
            task["experiment_id"], seed=task["seed"], fast=task["fast"],
            spec=spec,
        )
    return {
        "record": record.to_record(),
        "result": record.result,
        "spans": [span.to_record() for span in tracer.finished],
        "metrics": metrics.snapshot(),
    }


def record_from_payload(payload: dict) -> "RunRecord":
    """Rebuild the parent-side :class:`RunRecord` from a worker shard."""
    from repro.runtime.runner import RunRecord

    record = RunRecord.from_record(payload["record"])
    record.from_checkpoint = False
    record.result = payload.get("result")
    return record


def failure_payload(exc: BaseException, task: dict) -> dict:
    """A shard for a task that raised or died instead of returning one.

    A hard crash (e.g. a worker killed by a segfault or OOM) never
    produces a record, so the parent synthesizes an error record for
    ``task`` to keep the suite's isolation guarantee.  When ``exc`` is
    a :class:`repro.errors.WorkerCrashError` (the supervisor's
    quarantine verdict) the record keeps the process-level evidence —
    exit signal/code, crash count, quarantine verdict — in its
    ``crash`` field instead of flattening everything to a generic
    message, so ``repro obs report`` (and anyone reading the
    checkpoint) can break down crash causes.
    """
    from repro.errors import WorkerCrashError

    crash = None
    if isinstance(exc, WorkerCrashError):
        crash = exc.crash_info()
        error = str(exc)
    else:
        error = f"worker process failed: {exc}"
    return {
        "record": {
            "experiment_id": task["experiment_id"],
            "status": "error",
            "seed": task["seed"],
            "fast": task["fast"],
            "attempts": 0,
            "duration": 0.0,
            "checks": {},
            "error": error,
            "error_type": type(exc).__name__,
            "crash": crash,
            "config_hash": task["config_hash"],
            "spec": task["spec"],
        },
        "result": None,
        "spans": [],
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }
