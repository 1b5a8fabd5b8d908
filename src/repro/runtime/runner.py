"""Fault-tolerant suite runner.

``registry.run_all`` executes 13 experiments back-to-back; before this
module existed, one crash aborted the whole suite and an interrupted
run restarted from zero.  :class:`SuiteRunner` adds the three
properties a long campaign needs:

- **Isolation** — an experiment that raises becomes a recorded
  ``status="error"`` :class:`RunRecord`; the rest of the suite runs.
- **Retries** — a configurable :class:`RetryPolicy` with exponential
  backoff, deterministic jitter, and a per-experiment wall-clock
  deadline (enforced with a worker thread, surfaced as
  :class:`repro.errors.BudgetExceeded`).
- **Checkpoint/resume** — each completed experiment appends one JSONL
  record; pointing a new runner at the same checkpoint file skips
  experiments that already succeeded with the same ``(seed, fast)``.
- **Parallelism** — ``workers=N`` fans the suite out over a process
  pool, one task per experiment (see :mod:`repro.runtime.parallel`).
  Workers stream back their record plus an observability shard; the
  parent merges metrics associatively, re-parents worker spans under
  the suite span, and funnels every checkpoint append through itself —
  all in suite order, so a parallel run's records, checkpoint file,
  trace and metrics are deterministic and semantically identical to a
  sequential run of the same ``(seed, fast)``
  (:meth:`SuiteReport.fingerprint` is the equality tests use).
  Workers share expensive inputs through a
  :class:`repro.io.artifacts.ArtifactCache` (``cache_dir=``; a
  throwaway directory is used when none is configured).
- **Supervision** — the pool runs under a
  :class:`repro.runtime.supervisor.WorkerSupervisor`: a worker killed
  by the OS (OOM, segfault, SIGKILL) rebuilds the pool and requeues
  the in-flight experiments under a per-experiment crash budget
  (``max_worker_crashes``); poison tasks are quarantined with a
  structured :class:`repro.errors.WorkerCrashError` record, and
  repeated pool breakage degrades the remainder to sequential
  in-process execution, so ``keep_going`` runs always finish with a
  complete report.

The clock and sleep functions are injectable so retry timing is
testable with a fake clock, and a
:class:`repro.runtime.faultinject.FaultInjector` can be attached to
exercise every failure path deterministically.

The runner is fully instrumented against :mod:`repro.obs`: it opens a
span per suite / experiment / attempt, counts retries, timeouts,
checkpoint hits, and leaked deadline-worker threads, and can dump a
``cProfile`` capture per experiment (``profile_dir=``).  Everything
goes to the tracer and registry in effect (``use_tracer`` /
``use_metrics``): directly at ``workers=1``, through the merged worker
shards at ``workers>1``.  With the default null tracer and null
metrics installed all of that costs a few attribute lookups per
experiment.
"""

from __future__ import annotations

import contextvars
import hashlib
import json
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro.errors import (
    BudgetExceeded,
    CheckFailure,
    ExperimentError,
    UnknownExperimentError,
)
from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    get_experiment,
)
from repro.io.jsonl import append_jsonl, read_jsonl, salvage_jsonl_tail
from repro.runtime.faultinject import use_fault_injector
from repro.obs.metrics import current_metrics
from repro.obs.tracing import current_tracer

__all__ = ["RetryPolicy", "RunRecord", "SuiteReport", "SuiteRunner"]


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) a failed experiment is retried.

    Attributes:
        retries: Extra attempts after the first (0 = fail fast).
        backoff_base: Delay before the first retry, in seconds.
        backoff_factor: Multiplier applied per subsequent retry.
        max_backoff: Ceiling on any single delay.
        jitter: Fraction of the delay drawn uniformly at random and
            added, from a seeded stream (0.1 = up to +10%).
    """

    retries: int = 0
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.1

    def delay(self, retry_index: int, rng: random.Random) -> float:
        """Backoff before retry ``retry_index`` (0-based), jitter included."""
        base = min(
            self.backoff_base * self.backoff_factor**retry_index,
            self.max_backoff,
        )
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class RunRecord:
    """Outcome of one experiment under the runner.

    Attributes:
        experiment_id: "E1".."E13".
        status: ``"ok"``, ``"error"``, or ``"timeout"``.
        seed: Seed the experiment ran with.
        fast: Whether fast problem sizes were used.
        attempts: Attempts consumed (1 = no retry needed).
        duration: Wall-clock seconds across all attempts.
        checks: Shape-check outcomes (empty unless status is "ok").
        error: Stringified exception for failed runs.
        error_type: Exception class name for failed runs.
        crash: Process-level evidence for runs that died with their
            worker (exit code/signal, crash count, quarantine verdict —
            see :meth:`repro.errors.WorkerCrashError.crash_info`); None
            for runs that failed, or succeeded, in Python.
        from_checkpoint: True when replayed from a checkpoint file
            rather than executed.
        result: The live :class:`ExperimentResult` (None when replayed).
        config_hash: The spec's ``config_hash()`` — the run's full
            configuration identity (None for experiments without a
            registered spec class, e.g. synthetic test ids).
        spec: The spec's ``to_dict()`` payload, for post-hoc inspection
            of exactly what ran (None when no spec was resolved).
    """

    experiment_id: str
    status: str
    seed: int
    fast: bool
    attempts: int = 1
    duration: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    error: str | None = None
    error_type: str | None = None
    crash: dict | None = None
    from_checkpoint: bool = False
    result: ExperimentResult | None = None
    config_hash: str | None = None
    spec: dict | None = None

    @property
    def shape_holds(self) -> bool:
        """True when the run succeeded and every shape-check passed."""
        return self.status == "ok" and all(self.checks.values())

    def to_record(self) -> dict:
        """The JSONL checkpoint representation (no live result)."""
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "seed": self.seed,
            "fast": self.fast,
            "attempts": self.attempts,
            "duration": round(self.duration, 6),
            "checks": self.checks,
            "shape_holds": self.shape_holds,
            "error": self.error,
            "error_type": self.error_type,
            "crash": self.crash,
            "config_hash": self.config_hash,
            "spec": self.spec,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunRecord":
        """Rebuild a (checkpoint-flagged) record from its JSONL form."""
        return cls(
            experiment_id=record["experiment_id"],
            status=record["status"],
            seed=record["seed"],
            fast=record["fast"],
            attempts=record.get("attempts", 1),
            duration=record.get("duration", 0.0),
            checks=record.get("checks", {}),
            error=record.get("error"),
            error_type=record.get("error_type"),
            crash=record.get("crash"),
            from_checkpoint=True,
            config_hash=record.get("config_hash"),
            spec=record.get("spec"),
        )


@dataclass(frozen=True)
class _Point:
    """One schedulable unit: an experiment id plus its resolved config.

    Registered experiments always carry a spec (resolved from the
    legacy ``(seed, fast)`` arguments when necessary), so their
    checkpoint and cache identity is the spec's ``config_hash()``.
    Unknown ids — synthetic experiments that tests monkeypatch in —
    have no spec class and fall back to legacy ``(seed, fast)``
    calling and keying.
    """

    experiment_id: str
    seed: int
    fast: bool
    spec: object | None = None

    @property
    def config_hash(self) -> str | None:
        return self.spec.config_hash() if self.spec is not None else None

    def spec_dict(self) -> dict | None:
        return self.spec.to_dict() if self.spec is not None else None

    def key(self) -> tuple:
        """The checkpoint/resume identity of this point."""
        if self.spec is not None:
            return ("spec", self.experiment_id, self.spec.config_hash())
        return ("legacy", self.experiment_id, self.seed, self.fast)


@dataclass
class SuiteReport:
    """All records from one :meth:`SuiteRunner.run_all` invocation."""

    records: list[RunRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def ok(self) -> bool:
        """True when every record succeeded and every shape held."""
        return all(r.shape_holds for r in self.records)

    @property
    def errors(self) -> list[RunRecord]:
        """Records that did not reach ``status="ok"``."""
        return [r for r in self.records if r.status != "ok"]

    def fingerprint(self) -> str:
        """A digest of the report's semantic content.

        Durations are zeroed first — wall-clock can never byte-match
        across runs — so two runs of the same suite with the same
        ``(seed, fast)`` fingerprint identically regardless of worker
        count.  This is the equality the parallel determinism tests
        assert.
        """
        payload = []
        for record in self.records:
            row = record.to_record()
            row["duration"] = 0.0
            payload.append(row)
        canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> dict:
        """A machine-readable summary (the ``--json-summary`` payload)."""
        return {
            "total": len(self.records),
            "ok": sum(r.status == "ok" for r in self.records),
            "error": sum(r.status == "error" for r in self.records),
            "timeout": sum(r.status == "timeout" for r in self.records),
            "shapes_hold": sum(r.shape_holds for r in self.records),
            "from_checkpoint": sum(r.from_checkpoint for r in self.records),
            "all_ok": self.ok,
            "records": [r.to_record() for r in self.records],
        }


class SuiteRunner:
    """Run experiments with isolation, retries, deadlines, checkpoints.

    Args:
        retries: Extra attempts per experiment (shorthand for
            ``policy=RetryPolicy(retries=...)``).
        policy: Full retry policy; overrides ``retries`` when given.
        timeout: Per-experiment wall-clock deadline in seconds,
            spanning all of its attempts (None = no deadline).
        keep_going: When True, a failed experiment is recorded and the
            suite continues; when False the failure re-raises after
            its retries are exhausted.
        checkpoint: JSONL path for checkpoint/resume (None = off).
        strict_checks: Treat failing shape-checks as a
            :class:`repro.errors.CheckFailure` (retryable) instead of
            a successful run with failing checks.
        seed: Seed for the deterministic retry jitter stream.
        fault_injector: Optional
            :class:`repro.runtime.faultinject.FaultInjector`; each
            experiment call is routed through the injection point
            ``"experiment:<id>"``.
        clock: Monotonic clock (injectable for tests).
        sleep: Sleep function used for backoff (injectable for tests).
        profile_dir: When set, each experiment attempt runs under
            ``cProfile`` and dumps ``<dir>/<id>.pstats`` (later
            attempts overwrite earlier ones).
        workers: Default worker count for :meth:`run_all`.  1 runs the
            suite in-process; N > 1 fans experiments out over a process
            pool.  Injectable ``clock``/``sleep`` and custom fault
            callables do not cross the process boundary — parallel
            workers use real time and the default fault behaviors.
        cache_dir: Directory for the cross-process
            :class:`repro.io.artifacts.ArtifactCache` that shares the
            experiment corpus between workers and across runs.  None
            uses a throwaway temp directory when ``workers > 1`` (and
            no disk cache at all sequentially).
        max_worker_crashes: Per-experiment crash budget for parallel
            runs: a task that kills this many consecutive pool workers
            is quarantined with a :class:`repro.errors.WorkerCrashError`
            record instead of being requeued again (see
            :class:`repro.runtime.supervisor.WorkerSupervisor`).
        max_pool_rebuilds: After this many worker-crash events the
            supervisor degrades the remaining experiments to
            sequential in-process execution (when ``degrade`` allows).
        degrade: Allow the degradation ladder.  False keeps rebuilding
            pools until every experiment completes or is quarantined.
        heartbeat_timeout: Optional supervisor liveness bound: with no
            task completion for this many seconds, pool workers are
            presumed wedged and killed (None disables; in-worker
            ``timeout`` deadlines already cover ordinary hangs).
    """

    def __init__(
        self,
        *,
        retries: int = 0,
        policy: RetryPolicy | None = None,
        timeout: float | None = None,
        keep_going: bool = True,
        checkpoint: str | None = None,
        strict_checks: bool = False,
        seed: int = 0,
        fault_injector=None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        profile_dir: str | None = None,
        workers: int = 1,
        cache_dir: str | None = None,
        max_worker_crashes: int = 2,
        max_pool_rebuilds: int = 3,
        degrade: bool = True,
        heartbeat_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.policy = policy if policy is not None else RetryPolicy(retries=retries)
        self.timeout = timeout
        self.keep_going = keep_going
        self.checkpoint = checkpoint
        self.strict_checks = strict_checks
        self.fault_injector = fault_injector
        self.profile_dir = profile_dir
        self.workers = workers
        self.cache_dir = cache_dir
        self.max_worker_crashes = max_worker_crashes
        self.max_pool_rebuilds = max_pool_rebuilds
        self.degrade = degrade
        self.heartbeat_timeout = heartbeat_timeout
        self._clock = clock
        self._sleep = sleep
        self._jitter_seed = seed

    @property
    def tracer(self):
        """The tracer in effect (:func:`repro.obs.tracing.current_tracer`)."""
        return current_tracer()

    @property
    def metrics(self):
        """The registry in effect (:func:`repro.obs.metrics.current_metrics`)."""
        return current_metrics()

    # -- point resolution ----------------------------------------------

    def _make_point(
        self, experiment_id: str, seed: int, fast: bool, spec=None
    ) -> _Point:
        """Resolve the spec for a legacy ``(id, seed, fast)`` request.

        Unknown ids (synthetic experiments injected by tests through a
        patched ``get_experiment``) have no spec class; they keep the
        legacy calling convention and keying.
        """
        if spec is None:
            from repro.experiments.registry import make_spec

            try:
                spec = make_spec(
                    experiment_id, "fast" if fast else "full", seed=seed
                )
            except UnknownExperimentError:
                spec = None
        return _Point(experiment_id, seed, fast, spec)

    @staticmethod
    def _point_from_spec(spec) -> _Point:
        """The point for an explicit spec (sweep engine entry path)."""
        experiment_id = type(spec).EXPERIMENT_ID
        if not experiment_id:
            raise UnknownExperimentError(
                f"{type(spec).__name__} declares no EXPERIMENT_ID"
            )
        fast = spec.origin_preset != "full"
        return _Point(experiment_id, spec.seed, fast, spec)

    # -- checkpointing -------------------------------------------------

    def _load_checkpoint(self) -> dict[tuple, RunRecord]:
        """Completed records keyed by point identity.

        Each ``ok`` row is stored under its legacy
        ``(experiment_id, seed, fast)`` key and — when the row carries
        a ``config_hash`` — under the spec-hash key as well, so both
        spec-driven points and legacy synthetic ids resume.

        A checkpoint whose final line was torn by a killed writer is
        salvaged first (:func:`repro.io.jsonl.salvage_jsonl_tail`):
        the torn tail is dropped — or, when the record survived and
        only its newline is missing, closed — so resume keeps every
        complete record *and* subsequent appends cannot concatenate
        onto the damage.  Salvage events are counted as
        ``runner.checkpoint_salvaged``.
        """
        if self.checkpoint is None:
            return {}
        if salvage_jsonl_tail(self.checkpoint) is not None:
            self.metrics.count("runner.checkpoint_salvaged")
        completed: dict[tuple, RunRecord] = {}
        try:
            rows = list(read_jsonl(self.checkpoint, on_error="skip"))
        except FileNotFoundError:
            return {}
        for row in rows:
            if row.get("status") != "ok":
                continue  # failed runs are retried on resume
            record = RunRecord.from_record(row)
            completed[
                ("legacy", record.experiment_id, record.seed, record.fast)
            ] = record
            if record.config_hash:
                completed[
                    ("spec", record.experiment_id, record.config_hash)
                ] = record
        return completed

    def _append_checkpoint(self, record: RunRecord) -> None:
        if self.checkpoint is not None:
            append_jsonl(self.checkpoint, [record.to_record()])

    # -- execution -----------------------------------------------------

    def _call_experiment(
        self,
        run_fn: Callable[..., ExperimentResult],
        point: _Point,
    ) -> ExperimentResult:
        if self.profile_dir is not None:
            # Imported lazily: profiling is opt-in and cProfile should
            # not load for ordinary runs.
            from repro.obs.profiler import profile_call

            return profile_call(
                self._call_experiment_inner,
                Path(self.profile_dir) / f"{point.experiment_id}.pstats",
                run_fn,
                point,
            )
        return self._call_experiment_inner(run_fn, point)

    def _call_experiment_inner(
        self,
        run_fn: Callable[..., ExperimentResult],
        point: _Point,
    ) -> ExperimentResult:
        from repro.experiments._corpus import use_corpus_cache

        # Entered here, in the thread that runs the experiment (the
        # deadline thread included), so the corpus root is this run's
        # even when other runs share the process.
        if point.spec is not None:
            args, kwargs = (point.spec,), {}
        else:
            args, kwargs = (), {"seed": point.seed, "fast": point.fast}
        with use_corpus_cache(self.cache_dir):
            if self.fault_injector is not None:
                return self.fault_injector.call(
                    f"experiment:{point.experiment_id}", run_fn, *args, **kwargs
                )
            return run_fn(*args, **kwargs)

    def _attempt(
        self,
        run_fn: Callable[..., ExperimentResult],
        point: _Point,
        deadline: float | None,
    ) -> ExperimentResult:
        """One attempt, deadline-enforced when a timeout is set."""
        if deadline is None:
            return self._call_experiment(run_fn, point)
        remaining = deadline - self._clock()
        if remaining <= 0:
            raise BudgetExceeded(
                "deadline exhausted before attempt started",
                budget=self.timeout,
                experiment_id=point.experiment_id,
                seed=point.seed,
                stage="run",
            )
        outcome: dict[str, object] = {}

        def worker() -> None:
            try:
                outcome["result"] = self._call_experiment(run_fn, point)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                outcome["error"] = exc

        # A daemon thread, not a ThreadPoolExecutor: pool threads are
        # non-daemon, so a hung experiment would keep the interpreter
        # alive at exit even though the suite long since timed out.  A
        # new thread starts with an empty context, so it runs in a copy
        # of this one: the run's tracer, metrics and injector go along.
        thread = threading.Thread(
            target=contextvars.copy_context().run,
            args=(worker,),
            name=f"repro-{point.experiment_id}",
            daemon=True,
        )
        thread.start()
        thread.join(timeout=remaining)
        if thread.is_alive():
            # The worker is stuck inside the experiment; it dies with
            # the process (daemon), but surface the leak so a campaign
            # can see how many zombies it is carrying.
            self.metrics.count("runner.leaked_threads")
            from repro.runtime.faultinject import in_worker_process

            if in_worker_process():
                # In a pool worker there is no debugger to attach:
                # dump every thread's traceback now, so the campaign
                # log shows *where* the experiment was stuck.
                import faulthandler
                import sys

                faulthandler.dump_traceback(file=sys.stderr)
            raise BudgetExceeded(
                f"experiment exceeded its {self.timeout}s deadline",
                budget=self.timeout,
                spent=self.timeout,
                experiment_id=point.experiment_id,
                seed=point.seed,
                stage="run",
            )
        if "error" in outcome:
            raise outcome["error"]
        return outcome["result"]

    def run_one(
        self,
        experiment_id: str,
        seed: int = 0,
        fast: bool = True,
        spec=None,
    ) -> RunRecord:
        """Run one experiment under the full retry/deadline policy.

        ``spec`` — an :class:`repro.experiments.spec.ExperimentSpec` —
        pins the exact configuration; without it, the matching
        ``fast``/``full`` preset at ``seed`` is resolved from the
        registry (ids without a spec class keep the legacy calling
        convention).  Never raises when ``keep_going`` is True; the
        failure is captured in the returned record.  The run is
        wrapped in an ``experiment`` span with one ``attempt`` span
        per attempt, and the outcome lands in the ``runner.*``
        counters.
        """
        point = self._make_point(experiment_id, seed, fast, spec)
        return self._run_point(point)

    def _run_point(self, point: _Point) -> RunRecord:
        with self.tracer.span(
            "experiment",
            experiment_id=point.experiment_id,
            seed=point.seed,
            fast=point.fast,
            config_hash=point.config_hash,
        ) as span:
            record = self._run_one_instrumented(point)
            span.set_attribute("status", record.status)
            span.set_attribute("attempts", record.attempts)
            self.metrics.count(f"runner.status.{record.status}")
            if record.status == "timeout":
                self.metrics.count("runner.timeouts")
            return record

    def _run_one_instrumented(self, point: _Point) -> RunRecord:
        experiment_id, seed, fast = point.experiment_id, point.seed, point.fast
        started = self._clock()
        try:
            run_fn = get_experiment(experiment_id)
        except UnknownExperimentError as exc:
            record = RunRecord(
                experiment_id=experiment_id,
                status="error",
                seed=seed,
                fast=fast,
                attempts=0,
                duration=self._clock() - started,
                error=str(exc),
                error_type=type(exc).__name__,
                config_hash=point.config_hash,
                spec=point.spec_dict(),
            )
            if not self.keep_going:
                raise
            return record

        deadline = None if self.timeout is None else started + self.timeout
        rng = random.Random(f"{self._jitter_seed}:retry:{experiment_id}")
        last_exc: BaseException | None = None
        attempts = 0
        retries = max(0, self.policy.retries)  # a negative count means "none"
        for attempt in range(retries + 1):
            attempts = attempt + 1
            try:
                attempt_started = self._clock()
                with self.tracer.span(
                    "attempt", experiment_id=experiment_id, attempt=attempts
                ):
                    result = self._attempt(run_fn, point, deadline)
                self.metrics.observe(
                    "runner.attempt_seconds", self._clock() - attempt_started
                )
                if not isinstance(result, ExperimentResult):
                    raise ExperimentError(
                        f"experiment returned {type(result).__name__}, "
                        "expected ExperimentResult",
                        experiment_id=experiment_id,
                        seed=seed,
                        stage="run",
                    )
                if self.strict_checks and not result.shape_holds:
                    failed = tuple(
                        name for name, ok in sorted(result.checks.items()) if not ok
                    )
                    raise CheckFailure(
                        f"shape checks failed: {', '.join(failed)}",
                        failed_checks=failed,
                        experiment_id=experiment_id,
                        seed=seed,
                        stage="check",
                    )
                return RunRecord(
                    experiment_id=experiment_id,
                    status="ok",
                    seed=seed,
                    fast=fast,
                    attempts=attempts,
                    duration=self._clock() - started,
                    checks=dict(result.checks),
                    result=result,
                    config_hash=point.config_hash,
                    spec=point.spec_dict(),
                )
            except BudgetExceeded as exc:
                # The wall-clock budget spans attempts: no retry helps.
                last_exc = exc
                break
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                last_exc = exc
                if attempt < retries:
                    self.metrics.count("runner.retries")
                    self._sleep(self.policy.delay(attempt, rng))

        status = "timeout" if isinstance(last_exc, BudgetExceeded) else "error"
        record = RunRecord(
            experiment_id=experiment_id,
            status=status,
            seed=seed,
            fast=fast,
            attempts=attempts,
            duration=self._clock() - started,
            error=str(last_exc),
            error_type=type(last_exc).__name__,
            config_hash=point.config_hash,
            spec=point.spec_dict(),
        )
        if not self.keep_going:
            assert last_exc is not None
            raise last_exc
        return record

    def run_all(
        self,
        ids: Iterable[str] | None = None,
        seed: int = 0,
        fast: bool = True,
        workers: int | None = None,
    ) -> SuiteReport:
        """Run the suite (or ``ids``) under isolation; returns a report.

        With a checkpoint configured, experiments that already
        completed with the same configuration (``config_hash`` for
        spec-bearing experiments, ``(seed, fast)`` otherwise) are
        replayed from the file instead of re-executed, and every fresh
        outcome is appended as soon as it is known — a killed run
        resumes from the last completed experiment.  Resume filtering
        happens *before* dispatch, so a parallel resume never
        re-executes (or even schedules) completed experiments.

        ``workers`` overrides the runner's configured worker count for
        this call.  Parallel runs produce the same records, checkpoint
        contents, merged metrics, and (re-parented) trace structure as
        sequential ones — completions are buffered and flushed strictly
        in suite order.
        """
        experiment_ids = list(ids) if ids is not None else all_experiments()
        points = [
            self._make_point(experiment_id, seed, fast)
            for experiment_id in experiment_ids
        ]
        return self._execute_points(points, workers, {"seed": seed, "fast": fast})

    def run_points(self, specs: Iterable, workers: int | None = None) -> SuiteReport:
        """Run explicit spec instances (the sweep engine's entry point).

        Each spec becomes one schedulable point with checkpoint/cache
        identity ``config_hash()`` — the same experiment id may appear
        any number of times with different configurations.  Everything
        else (isolation, retries, checkpointing, parallel fan-out,
        supervision) behaves exactly as in :meth:`run_all`.
        """
        points = [self._point_from_spec(spec) for spec in specs]
        return self._execute_points(points, workers, {"sweep": True})

    def _execute_points(
        self,
        points: list[_Point],
        workers: int | None,
        span_attrs: dict,
    ) -> SuiteReport:
        workers = self.workers if workers is None else workers
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        cache_dir = self.cache_dir
        temp_cache = None
        if workers > 1 and cache_dir is None:
            # Workers still need a rendezvous to build shared inputs
            # once; give them a throwaway cache for this run.
            temp_cache = tempfile.TemporaryDirectory(prefix="repro-cache-")
            cache_dir = temp_cache.name
        try:
            # Installing the injector as the scoped one lets disk faults
            # (enospc at the io/artifact write points) fire in the
            # sequential path too, not just inside pool workers.
            with use_fault_injector(self.fault_injector), self.tracer.span(
                "suite",
                **span_attrs,
                experiments=len(points),
                workers=workers,
            ) as span:
                completed = self._load_checkpoint()
                if workers == 1:
                    report = self._run_all_sequential(points, completed)
                else:
                    report = self._run_all_parallel(
                        points, completed, workers, cache_dir, span
                    )
                span.set_attribute("ok", report.ok)
            return report
        finally:
            if temp_cache is not None:
                temp_cache.cleanup()

    def _run_all_sequential(
        self,
        points: list[_Point],
        completed: dict[tuple, RunRecord],
    ) -> SuiteReport:
        report = SuiteReport()
        for point in points:
            key = point.key()
            if key in completed:
                self.metrics.count("runner.checkpoint_hits")
                report.records.append(completed[key])
                continue
            record = self._run_point(point)
            self._append_checkpoint(record)
            report.records.append(record)
        return report

    def _run_all_parallel(
        self,
        points: list[_Point],
        completed: dict[tuple, RunRecord],
        workers: int,
        cache_dir: str | None,
        suite_span,
    ) -> SuiteReport:
        """Fan experiments out to a supervised process pool; merge in order.

        Every completion is buffered and flushed in suite position
        order: checkpoint appends (single writer — this process),
        metrics merges, and span adoption all happen at flush time, so
        their outcome is independent of which worker finished first.
        The pool itself runs under a
        :class:`repro.runtime.supervisor.WorkerSupervisor`: worker
        death rebuilds the pool and requeues the in-flight
        experiments, poison tasks are quarantined under the crash
        budget, and repeated breakage degrades to in-process execution
        — so a ``keep_going`` run always flushes a complete report.
        """
        from repro.errors import ExperimentError as SuiteExperimentError
        from repro.errors import WorkerCrashError
        from repro.runtime.parallel import (
            failure_payload,
            make_task,
            record_from_payload,
            run_experiment_task,
        )
        from repro.runtime.supervisor import WorkerSupervisor

        report = SuiteReport()
        replayed: dict[int, RunRecord] = {}
        pending: list[int] = []
        for index, point in enumerate(points):
            if point.key() in completed:
                self.metrics.count("runner.checkpoint_hits")
                replayed[index] = completed[point.key()]
            else:
                pending.append(index)
        suite_span_id = getattr(suite_span, "span_id", None)
        payloads: dict[int, dict] = {}
        flushed = 0

        def flush_ready() -> None:
            """Emit records for every suite position that is ready."""
            nonlocal flushed
            while flushed < len(points):
                index = flushed
                if index in replayed:
                    report.records.append(replayed[index])
                elif index in payloads:
                    payload = payloads.pop(index)
                    record = record_from_payload(payload)
                    self.metrics.merge(payload["metrics"])
                    self.tracer.adopt(payload["spans"], parent_id=suite_span_id)
                    if not self.keep_going and record.status != "ok":
                        # Mirror sequential keep_going=False: the
                        # failing experiment is not checkpointed and
                        # the suite aborts.  The original exception
                        # object stayed in the worker; raise its
                        # recorded identity — with the process-level
                        # evidence intact when the worker died.
                        if record.crash is not None:
                            raise WorkerCrashError(
                                record.error or "worker process crashed",
                                exit_code=record.crash.get("exit_code"),
                                exit_signal=record.crash.get("exit_signal"),
                                attempt=record.crash.get("attempt"),
                                quarantined=record.crash.get(
                                    "quarantined", False
                                ),
                                reason=record.crash.get("reason"),
                                experiment_id=record.experiment_id,
                                seed=record.seed,
                                stage="run",
                            )
                        raise SuiteExperimentError(
                            f"{record.error_type}: {record.error}",
                            experiment_id=record.experiment_id,
                            seed=record.seed,
                            stage="run",
                        )
                    self._append_checkpoint(record)
                    report.records.append(record)
                else:
                    return
                flushed += 1

        supervisor = WorkerSupervisor(
            workers=workers,
            max_worker_crashes=self.max_worker_crashes,
            max_pool_rebuilds=self.max_pool_rebuilds,
            degrade=self.degrade,
            heartbeat_timeout=self.heartbeat_timeout,
            cache_dir=cache_dir,
        )
        tasks = {
            index: make_task(self, points[index], cache_dir)
            for index in pending
        }
        outcomes = supervisor.run(run_experiment_task, [
            (index, task, {"experiment_id": task["experiment_id"]})
            for index, task in tasks.items()
        ])
        for index, payload, error in outcomes:
            if error is not None:
                payload = failure_payload(error, tasks[index])
            payloads[index] = payload
            flush_ready()
        flush_ready()
        return report
