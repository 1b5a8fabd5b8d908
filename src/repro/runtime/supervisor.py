"""Process-level supervision for process-pool work.

Three kinds of work fan out over a process pool: suite experiments
(:class:`repro.runtime.runner.SuiteRunner` with ``workers > 1``),
corpus shard generation
(:func:`repro.bibliometrics.shardgen.generate_columnar_corpus`) and
the per-shard corpus scan
(:func:`repro.bibliometrics.shardscan.scan_corpus`).
An ordinary exception in a worker comes back through its future, but a
worker that dies outright (OOM killer, a segfault in a C extension, an
injected ``kill`` fault) breaks the pool: every in-flight future raises
``BrokenProcessPool``.  :class:`WorkerSupervisor` is the one place that
turns worker death into a survivable, *recorded* event:

- **Detection.**  A broken pool, a worker with a nonzero exit code, or
  (optionally) a missed heartbeat — no task completing within
  ``heartbeat_timeout`` — all register as a crash event.  Exit codes
  are harvested from the dying pool before it is torn down, so the
  record says *how* the worker died (``SIGKILL``, ``SIGSEGV``, ...).
- **Requeue under a crash budget.**  In-flight tasks are requeued onto
  a rebuilt pool.  Tasks that have crashed a worker before are run one
  at a time, so subsequent blame is precise; a task that kills
  ``max_worker_crashes`` consecutive workers is *quarantined* — it
  comes back as a :class:`repro.errors.WorkerCrashError` instead of
  being retried forever, and the other tasks proceed.  The
  budget-exhausting crash must be *solo-proven* (exactly one task in
  flight), so an innocent task that merely shared a pool with a poison
  one is never quarantined for it.
- **Degradation ladder.**  When the pool itself keeps breaking
  (``max_pool_rebuilds`` crash events), the supervisor stops trusting
  process isolation and finishes the remaining tasks sequentially
  in-process.
- **Disk hygiene.**  With a ``cache_dir``, every crash event is
  followed by a zero-grace orphan sweep of that artifact cache: every
  pool writer is dead by then, so any temp file is a stranded one.

Everything is observable: crash events, rebuilds, quarantines, and
degradation are counted (``runner.worker_crashes``,
``runner.pool_rebuilds``, ``runner.quarantined``, ``runner.degraded``)
and emitted as ``worker_crash`` / ``pool_rebuild`` / ``quarantine`` /
``degrade`` spans carrying the exit evidence plus each task's tags,
which is what ``repro obs report`` renders as the crash-cause
breakdown.

The supervisor knows nothing about *what* runs: a task is a picklable
dict handed to the worker entry point ``fn``, and each task's outcome
streams back as its result or the exception it raised.  The one key
the supervisor writes is ``task["worker_crashes"]`` — how many workers
the task has crashed so far — which a worker hands to
:meth:`repro.runtime.faultinject.FaultInjector.from_task` so ``kill``
budgets survive requeues.  With ``workers=1`` the same ``fn`` runs
in-process, in task order.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import signal as signal_module
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    TimeoutError,
    wait,
)
from concurrent.futures.process import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import WorkerCrashError
from repro.obs.metrics import current_metrics
from repro.obs.tracing import current_tracer
from repro.runtime.faultinject import mark_worker_process

__all__ = ["POLL_INTERVAL", "WorkerSupervisor"]

#: How often (seconds) the future-wait loop wakes to check worker
#: liveness and harvest exit codes.
POLL_INTERVAL = 0.25

#: One task outcome: ``(index, result, error)`` — ``error`` is None on
#: success, else the exception the task raised (a quarantine verdict is
#: a :class:`~repro.errors.WorkerCrashError`) and ``result`` is None.
Outcome = tuple[int, object, "BaseException | None"]


def _worker_init() -> None:
    """Pool-worker initializer (runs once per worker process).

    Marks the process as a worker — arming worker-only fault modes
    like ``kill`` — and enables :mod:`faulthandler`, so a worker that
    genuinely hangs or dies on a fatal signal dumps the tracebacks of
    every thread to stderr instead of vanishing silently.
    """
    mark_worker_process()
    try:
        faulthandler.enable()
    except (ValueError, RuntimeError):  # pragma: no cover - odd stderr
        pass


def _pool_context():
    """The fork context where the platform has one, else the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def _signal_name(exit_code: int | None) -> str | None:
    """The signal name behind a negative exit code, when it maps to one."""
    if exit_code is None or exit_code >= 0:
        return None
    try:
        return signal_module.Signals(-exit_code).name
    except ValueError:  # pragma: no cover - unnamed signal number
        return f"signal {-exit_code}"


@dataclass
class _TaskState:
    """Supervision bookkeeping for one dispatched task."""

    index: int
    task: dict
    tags: dict
    crashes: int = 0
    exit_code: int | None = None
    exit_signal: str | None = None
    reason: str | None = None

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.tags.items()) or "task"


class WorkerSupervisor:
    """Run pool tasks under crash detection, requeue, and quarantine.

    Args:
        workers: Pool size ceiling (actual pools are also capped by the
            number of tasks in the current batch).  1 runs every task
            in-process, with no pool.
        max_worker_crashes: Crash budget per task: a task that kills
            this many consecutive workers is quarantined as a poison
            task instead of requeued again.  The final crash must have
            happened with the task alone in flight (suspects run solo,
            so this is at most one extra requeue), keeping quarantine
            verdicts precise even at budget 1.
        max_pool_rebuilds: After this many crash events the supervisor
            walks down the degradation ladder (see ``degrade``).
        degrade: When True (default), repeated pool breakage degrades
            the remaining tasks to sequential in-process execution;
            when False the supervisor keeps rebuilding pools until
            every task completes or is quarantined.
        heartbeat_timeout: Optional liveness bound in seconds: when no
            task completes for this long, the workers are presumed
            wedged, killed, and the in-flight tasks treated as a crash
            event.  None (default) disables the heartbeat.
        cache_dir: Artifact-cache directory the tasks write through;
            swept of orphaned temp files (zero grace) after every crash
            event.

    Crash, rebuild, quarantine and degrade events go to the tracer and
    the ``runner.*`` counters in effect when the supervisor is built.
    """

    def __init__(
        self,
        *,
        workers: int,
        max_worker_crashes: int = 2,
        max_pool_rebuilds: int = 3,
        degrade: bool = True,
        heartbeat_timeout: float | None = None,
        cache_dir: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_worker_crashes < 1:
            raise ValueError(
                f"max_worker_crashes must be >= 1, got {max_worker_crashes}"
            )
        self.workers = workers
        self.max_worker_crashes = max_worker_crashes
        self.max_pool_rebuilds = max_pool_rebuilds
        self.degrade = degrade
        self.heartbeat_timeout = heartbeat_timeout
        self.cache_dir = cache_dir
        self._tracer = current_tracer()
        self._metrics = current_metrics()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_rebuilds = 0
        self._degraded = False
        # Exit codes observed from dying workers, accumulated every
        # poll tick: by the time a crash is handled, the executor's own
        # management thread may already have reaped the corpses out of
        # its process table, so evidence is collected while it exists.
        self._exit_codes: list[int] = []
        self._seen_pids: set[int] = set()

    # -- public API ----------------------------------------------------

    def run(
        self,
        fn: Callable[[dict], object],
        tasks: Iterable[tuple[int, dict, dict]],
    ) -> Iterator[Outcome]:
        """Run ``fn(task)`` for every task; yields outcomes as they finish.

        ``tasks`` are ``(index, task, tags)`` triples: ``task`` is the
        picklable dict ``fn`` receives, and ``tags`` are span
        attributes naming it (``{"experiment_id": "E5"}``).  Every task
        yields exactly one ``(index, result, error)`` outcome — its
        return value, the exception it raised, or a quarantine
        :class:`~repro.errors.WorkerCrashError` carrying the crash
        evidence.  Completion order is arbitrary under a pool; with
        ``workers=1`` tasks run in-process in the order given.
        """
        queue = [
            _TaskState(index=index, task=task, tags=tags)
            for index, task, tags in tasks
        ]
        if self.workers == 1:
            yield from self._run_in_process(fn, queue)
            return
        try:
            while queue:
                if self._degraded:
                    queue.sort(key=lambda state: state.index)
                    yield from self._run_in_process(fn, queue)
                    return
                batch = self._select_batch(queue)
                finished, crashed, reason = self._run_batch(fn, batch)
                for state, result, error in finished:
                    queue.remove(state)
                    yield state.index, result, error
                if crashed:
                    for state, error in self._handle_crash(crashed, reason):
                        if error is not None:  # quarantined
                            queue.remove(state)
                            yield state.index, None, error
        finally:
            self._shutdown_pool(wait_for_workers=False)

    # -- batching ------------------------------------------------------

    def _select_batch(self, queue: list[_TaskState]) -> list[_TaskState]:
        """Tasks to dispatch next.

        Clean tasks (never crashed a worker) run together.  Once only
        suspects remain they run one at a time: a solo crash blames
        exactly one task, so quarantine verdicts rest on precise
        evidence rather than on whoever shared the pool with the
        poison task.
        """
        clean = [state for state in queue if state.crashes == 0]
        if clean:
            return clean
        return [queue[0]]

    def _run_batch(
        self, fn: Callable[[dict], object], batch: list[_TaskState]
    ) -> tuple[list[tuple[_TaskState, object, BaseException | None]],
               list[_TaskState], str]:
        """Dispatch one batch; returns (finished, crash-blamed, reason)."""
        finished: list[tuple[_TaskState, object, BaseException | None]] = []
        try:
            executor = self._ensure_pool(len(batch))
            futures = {
                executor.submit(fn, state.task): state for state in batch
            }
        except BrokenExecutor:
            # The pool broke at submit time (a worker died between
            # batches).  Nothing from this batch ran; rebuild and blame
            # no one — the causing task was already handled.
            self._note_rebuild("pool broke at submit")
            return finished, [], ""
        pending = set(futures)
        completed: set = set()
        reason = "worker process died"
        pool_broken = False
        last_progress = time.monotonic()
        while pending:
            self._observe_exit_codes()
            done, pending = wait(
                pending, timeout=POLL_INTERVAL, return_when=FIRST_COMPLETED,
            )
            if done:
                last_progress = time.monotonic()
            for future in done:
                state = futures[future]
                try:
                    result = future.result()
                except BrokenExecutor:
                    pool_broken = True
                except Exception as exc:  # noqa: BLE001 - worker raised
                    # The worker survived; the task itself (or its
                    # round-trip) failed: an ordinary error, not a crash.
                    self._metrics.count("runner.worker_failures")
                    finished.append((state, None, exc))
                    completed.add(future)
                else:
                    finished.append((state, result, None))
                    completed.add(future)
            if pool_broken:
                break
            if (
                pending
                and self.heartbeat_timeout is not None
                and time.monotonic() - last_progress > self.heartbeat_timeout
            ):
                # Nothing has completed for a full heartbeat window:
                # the workers are presumed wedged.  Kill them; the
                # futures then surface as a broken pool below.
                reason = (
                    f"missed heartbeat ({self.heartbeat_timeout}s without "
                    "progress)"
                )
                self._terminate_workers()
                last_progress = time.monotonic()
        if not pool_broken:
            return finished, [], ""
        # Drain the siblings: a task that finished just before the pool
        # broke keeps its real result; everything unfinished joins the
        # blame set.  Blame is deliberately coarse here — the parent
        # cannot reliably tell which unfinished future was on the dying
        # worker (the future state machine races the crash) — but a
        # coarse blame only marks tasks as suspects; suspects run solo,
        # and only a solo-proven crash can quarantine (see
        # :meth:`_handle_crash`).  The one case a size-1 blame set
        # arises from a shared batch is when every sibling finished —
        # and then the survivor *is* the task the dead worker was
        # running, so the precision rule stays sound.
        self._observe_exit_codes()
        blamed: list[_TaskState] = []
        for future, state in futures.items():
            if future in completed:
                continue
            try:
                result = future.result(timeout=30.0)
            except (BrokenExecutor, CancelledError, TimeoutError):
                blamed.append(state)
            except Exception as exc:  # noqa: BLE001 - worker raised
                self._metrics.count("runner.worker_failures")
                finished.append((state, None, exc))
            else:
                finished.append((state, result, None))
        return finished, blamed, reason

    # -- crash handling ------------------------------------------------

    def _handle_crash(
        self, blamed: list[_TaskState], reason: str
    ) -> list[tuple[_TaskState, WorkerCrashError | None]]:
        """Process one crash event; returns (state, quarantine-or-None)."""
        exit_code = self._harvest_exit_code()
        exit_signal = _signal_name(exit_code)
        self._note_rebuild(reason)
        if self.cache_dir is not None:
            from repro.io.artifacts import ArtifactCache

            ArtifactCache(self.cache_dir, sweep=False).sweep_orphans(
                max_age_seconds=0.0
            )
        verdicts: list[tuple[_TaskState, WorkerCrashError | None]] = []
        # A quarantine verdict needs *precise* blame: only when exactly
        # one task was in flight is the killer identified beyond doubt.
        # A batch blame just marks everyone involved as a suspect (and
        # suspects run solo from then on), so an innocent task that
        # shared a pool with a poison one is never quarantined for it.
        precise = len(blamed) == 1
        for state in blamed:
            state.crashes += 1
            state.task["worker_crashes"] = state.crashes
            state.exit_code = exit_code
            state.exit_signal = exit_signal
            state.reason = reason
            self._metrics.count("runner.worker_crashes")
            with self._tracer.span(
                "worker_crash",
                **state.tags,
                exit_code=exit_code,
                exit_signal=exit_signal,
                crashes=state.crashes,
                reason=reason,
            ):
                pass
            if precise and state.crashes >= self.max_worker_crashes:
                verdicts.append((state, self._quarantine(state)))
            else:
                verdicts.append((state, None))  # requeued
        if (
            self.degrade
            and not self._degraded
            and self._pool_rebuilds >= self.max_pool_rebuilds
        ):
            self._degraded = True
            self._metrics.count("runner.degraded")
            with self._tracer.span("degrade", pool_rebuilds=self._pool_rebuilds):
                pass
        return verdicts

    def _quarantine(self, state: _TaskState) -> WorkerCrashError:
        """The poison-task verdict: a structured crash error, no requeue."""
        self._metrics.count("runner.quarantined")
        with self._tracer.span(
            "quarantine",
            **state.tags,
            exit_code=state.exit_code,
            exit_signal=state.exit_signal,
            crashes=state.crashes,
        ):
            pass
        return WorkerCrashError(
            f"worker crashed running {state.label()}; "
            f"task quarantined after {state.crashes} worker death(s)",
            exit_code=state.exit_code,
            exit_signal=state.exit_signal,
            attempt=state.crashes,
            quarantined=True,
            reason=(
                f"crash budget exhausted: killed {state.crashes} consecutive "
                f"worker(s) (last: {state.reason})"
            ),
            stage="run",
        )

    # -- in-process execution ------------------------------------------

    def _run_in_process(
        self, fn: Callable[[dict], object], queue: list[_TaskState]
    ) -> Iterator[Outcome]:
        """Run tasks in this process, in queue order.

        The sequential path at ``workers=1`` and the bottom rung of the
        degradation ladder.  Worker-only fault modes (``kill``) do not
        fire here, which is exactly the point of the ladder: a task
        that only dies under process isolation still gets its one
        honest in-process run.
        """
        for state in queue:
            try:
                result = fn(state.task)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                yield state.index, None, exc
            else:
                yield state.index, result, None

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, batch_size: int) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, max(batch_size, 1)),
                mp_context=_pool_context(),
                initializer=_worker_init,
            )
        return self._pool

    def _note_rebuild(self, reason: str) -> None:
        """Tear down the broken pool and account for the rebuild."""
        self._shutdown_pool(wait_for_workers=False)
        self._pool_rebuilds += 1
        self._metrics.count("runner.pool_rebuilds")
        with self._tracer.span("pool_rebuild", rebuilds=self._pool_rebuilds,
                               reason=reason):
            pass

    def _observe_exit_codes(self) -> None:
        """Record exit codes of pool workers that have died so far.

        Called every poll tick and again when a break is detected: the
        executor's management thread reaps dead workers out of its
        process table on its own schedule, so waiting until crash
        handling to look would often find the evidence already gone.
        """
        processes = getattr(self._pool, "_processes", None) or {}
        for pid, process in list(processes.items()):
            if pid in self._seen_pids:
                continue
            code = process.exitcode
            if code not in (None, 0):
                self._seen_pids.add(pid)
                self._exit_codes.append(code)

    def _harvest_exit_code(self) -> int | None:
        """The most telling exit code among this crash event's corpses.

        Signal deaths (negative codes) outrank plain nonzero exits,
        and among those SIGTERM ranks last: when the pool breaks, the
        executor's own cleanup reaps innocent siblings with SIGTERM,
        so any *other* signal is the one that felled the worker.  The
        observed codes are consumed — the next crash event starts its
        evidence fresh.

        A freshly dead worker's exit code can lag its future's
        ``BrokenProcessPool`` by a few milliseconds (the executor's own
        join races this thread's ``waitpid``), so when nothing has been
        observed yet the harvest waits briefly — the pool is already
        broken, so the wait delays only the crash bookkeeping.
        """
        deadline = time.monotonic() + 1.0
        self._observe_exit_codes()
        while not self._exit_codes and time.monotonic() < deadline:
            time.sleep(0.05)
            self._observe_exit_codes()
        codes, self._exit_codes = self._exit_codes, []
        signals = [code for code in codes if code < 0]
        for code in signals:
            if code != -signal_module.SIGTERM:
                return code
        if signals:
            return signals[0]
        return codes[0] if codes else None

    def _terminate_workers(self) -> None:
        """Kill every pool worker (the missed-heartbeat escalation)."""
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            if process.exitcode is None:
                process.terminate()

    def _shutdown_pool(self, *, wait_for_workers: bool) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait_for_workers, cancel_futures=True)
            self._pool = None
