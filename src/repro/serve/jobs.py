"""Background compute behind the result service.

A cache miss in :mod:`repro.serve.service` does not run the experiment
on the event loop — it dispatches a *job*: a synchronous compute
callable pushed onto a small thread pool, where it runs a fully
supervised :class:`repro.runtime.runner.SuiteRunner` (worker processes,
crash requeue, quarantine — the whole PR-4 ladder).  This module owns
the three robustness mechanisms around those jobs:

- **Coalescing.**  Jobs are keyed (by ``config_hash``); N concurrent
  requests for the same uncomputed key share one
  :class:`asyncio.Task` and therefore one compute job.  The extra
  N - 1 requests are counted as ``serve.coalesced``.
- **Detachment.**  A request that hits its deadline abandons the job,
  never cancels it: the job keeps running, writes its result to the
  :class:`~repro.io.artifacts.ArtifactCache` on success, and the
  client's *retry* becomes a cache hit.  ``503 + Retry-After`` is a
  promise, not an apology.
- **Circuit breaking.**  A key whose compute keeps failing (crashed
  workers, poison configs) trips a per-key :class:`CircuitBreaker`
  after ``threshold`` consecutive failures; while the breaker is open,
  requests for that key are rejected with :class:`CircuitOpen` — a
  ``503`` *without* dispatching yet another doomed job.  After the
  cooldown one probe request is let through (half-open); its outcome
  closes or re-opens the circuit.

All bookkeeping (the job table, the breaker) is touched only from the
event-loop thread, so none of it needs locks; only the compute
callable itself runs on the pool.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.obs.metrics import NullMetrics

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "ComputeFailed",
    "ComputeJobManager",
    "compute_experiment_rows",
]


class ComputeFailed(ReproError):
    """A background compute job finished without a usable result.

    Raised inside the job (and therefore re-raised to every coalesced
    awaiter) when the supervised runner reports anything but a clean
    ``status="ok"`` record — an experiment error, a deadline, or a
    crashed/quarantined worker.  The process-level evidence rides
    along so the ``503`` body can say *why*.

    Attributes:
        crash: :meth:`repro.errors.WorkerCrashError.crash_info` payload
            when the compute worker died, else None.
        detail: The runner's recorded error string.
    """

    def __init__(
        self,
        message: str,
        *,
        crash: dict | None = None,
        detail: str | None = None,
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.crash = crash
        self.detail = detail


class CircuitOpen(ReproError):
    """The circuit breaker for a key is open; no job was dispatched.

    Attributes:
        retry_after: Seconds until the breaker half-opens — the value
            the service puts in the ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float, **context) -> None:
        super().__init__(message, **context)
        self.retry_after = retry_after


@dataclass
class _BreakerState:
    failures: int = 0
    opened_until: float = 0.0


class CircuitBreaker:
    """Per-key consecutive-failure breaker with a half-open probe.

    Args:
        threshold: Consecutive failures that open a key's circuit.
        cooldown: Seconds the circuit stays open before one probe
            request is allowed through.
        clock: Monotonic clock (injectable for tests).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._states: dict[str, _BreakerState] = {}

    def seconds_until_half_open(self, key: str) -> float | None:
        """Remaining open time for ``key``, or None when requests may pass.

        An expired cooldown flips the circuit to half-open: the next
        request is allowed as a probe, but the failure count is left
        one below the threshold so a failing probe re-opens immediately.
        """
        state = self._states.get(key)
        if state is None or not state.opened_until:
            return None
        remaining = state.opened_until - self._clock()
        if remaining > 0:
            return remaining
        state.opened_until = 0.0
        state.failures = self.threshold - 1
        return None

    def record_success(self, key: str) -> None:
        """A compute for ``key`` succeeded; the circuit closes fully."""
        self._states.pop(key, None)

    def record_failure(self, key: str) -> bool:
        """A compute for ``key`` failed; returns True when this trips it."""
        state = self._states.setdefault(key, _BreakerState())
        state.failures += 1
        if state.failures >= self.threshold and not state.opened_until:
            state.opened_until = self._clock() + self.cooldown
            return True
        return False

    def open_keys(self) -> list[str]:
        """Keys whose circuit is currently open (for the metrics view)."""
        now = self._clock()
        return sorted(
            key
            for key, state in self._states.items()
            if state.opened_until > now
        )


class ComputeJobManager:
    """Keyed, coalesced, breaker-guarded background compute.

    Args:
        executor_workers: Threads in the compute pool.  Each thread
            runs one supervised :class:`SuiteRunner` job at a time;
            the runner's own ``workers`` setting controls process-level
            fan-out *inside* a job.
        breaker: The :class:`CircuitBreaker` guarding dispatch.
        metrics: ``serve.*`` counter sink (NullMetrics by default).
    """

    def __init__(
        self,
        *,
        executor_workers: int = 2,
        breaker: CircuitBreaker | None = None,
        metrics=None,
    ) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers,
            thread_name_prefix="repro-serve-compute",
        )
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.metrics = metrics if metrics is not None else NullMetrics()
        self._jobs: dict[str, asyncio.Task] = {}

    def submit(self, key: str, compute: Callable[[], list[dict]]) -> asyncio.Task:
        """The (possibly shared) job computing ``key``.

        Must be called from the event-loop thread.  Raises
        :class:`CircuitOpen` without dispatching when the key's
        breaker is open; otherwise returns the in-flight job for the
        key (coalescing) or starts a fresh one.
        """
        remaining = self.breaker.seconds_until_half_open(key)
        if remaining is not None:
            self.metrics.count("serve.breaker_rejects")
            raise CircuitOpen(
                f"circuit open for {key[:12]}: recent computes kept failing",
                retry_after=remaining,
            )
        existing = self._jobs.get(key)
        if existing is not None:
            self.metrics.count("serve.coalesced")
            return existing
        self.metrics.count("serve.compute_jobs")
        task = asyncio.ensure_future(self._run(key, compute))
        # A job every awaiter abandoned (deadline 503s all around) must
        # not log "exception was never retrieved" noise at teardown.
        task.add_done_callback(
            lambda t: t.exception() if not t.cancelled() else None
        )
        self._jobs[key] = task
        return task

    async def _run(self, key: str, compute: Callable[[], list[dict]]) -> list[dict]:
        loop = asyncio.get_running_loop()
        try:
            # Executor threads start with an empty context: the job runs
            # in a copy of the submitter's (the service's request scope).
            rows = await loop.run_in_executor(
                self._executor, contextvars.copy_context().run, compute
            )
        except Exception:
            self.metrics.count("serve.compute_failed")
            if self.breaker.record_failure(key):
                self.metrics.count("serve.breaker_trips")
            raise
        else:
            self.breaker.record_success(key)
            self.metrics.count("serve.compute_ok")
            return rows
        finally:
            self._jobs.pop(key, None)

    @property
    def inflight(self) -> int:
        """How many compute jobs are currently running or queued."""
        return len(self._jobs)

    def pending(self, key: str) -> bool:
        """True when a job for ``key`` is already in flight.

        A :meth:`submit` while this holds will coalesce onto that job;
        the service uses this to stamp ``coalesced`` on request spans
        without changing dispatch.
        """
        return key in self._jobs

    async def drain(self, timeout: float) -> int:
        """Let in-flight jobs checkpoint; returns how many were abandoned.

        Waits up to ``timeout`` for running jobs to finish (each
        finished job has already written its result to the artifact
        cache — that write *is* the checkpoint), then shuts the pool
        down without blocking on stragglers.
        """
        pending = [task for task in self._jobs.values() if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)
        abandoned = sum(1 for task in pending if not task.done())
        self._executor.shutdown(wait=False, cancel_futures=True)
        if abandoned:
            self.metrics.count("serve.jobs_abandoned", abandoned)
        return abandoned


# ---------------------------------------------------------------------------
# The compute callables the service dispatches


def compute_experiment_rows(
    spec,
    *,
    cache,
    cache_dir: str | None,
    workers: int = 1,
    fault_injector=None,
    runner_kwargs: dict | None = None,
) -> list[dict]:
    """Run one experiment spec under supervision; cache and return its rows.

    This is the miss path of the service's read-through: the spec runs
    through :meth:`SuiteRunner.run_points` — process workers, crash
    requeue, quarantine — and a clean result is written to the
    artifact cache under the *same* ``(experiment-result, config_hash)``
    key the sweep engine memoizes into, so ``repro sweep`` warms the
    server and the server warms future sweeps.  Anything but a clean
    result raises :class:`ComputeFailed` with the crash evidence
    attached.
    """
    from repro.experiments.sweep import SWEEP_RESULT_KIND, result_cache_config
    from repro.runtime.runner import SuiteRunner

    experiment_id = type(spec).EXPERIMENT_ID
    runner = SuiteRunner(
        workers=workers,
        cache_dir=cache_dir,
        keep_going=True,
        fault_injector=fault_injector,
        **(runner_kwargs or {}),
    )
    report = runner.run_points([spec])
    record = report.records[0]
    if record.status != "ok" or record.result is None:
        raise ComputeFailed(
            f"compute for {experiment_id} ended {record.status}: {record.error}",
            crash=record.crash,
            detail=record.error,
            experiment_id=experiment_id,
            seed=record.seed,
            stage="run",
        )
    rows = [{"record": record.to_record(), "result": record.result.to_payload()}]
    cache.put(
        SWEEP_RESULT_KIND,
        result_cache_config(experiment_id, spec.config_hash()),
        rows,
    )
    return rows
