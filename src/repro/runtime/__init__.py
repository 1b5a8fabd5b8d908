"""Fault-tolerant experiment runtime.

- :mod:`repro.runtime.runner` -- :class:`SuiteRunner`: per-experiment
  isolation, retries with exponential backoff, wall-clock deadlines,
  and JSONL checkpoint/resume for the E1-E13 suite.
- :mod:`repro.runtime.faultinject` -- :class:`FaultInjector`: a
  deterministic, seeded harness that makes registered call sites raise,
  hang, corrupt their return value, or inject process/disk faults
  (``kill``/``oom``/``enospc``) — used to test the runner and
  available for netsim resilience studies.
- :mod:`repro.runtime.parallel` -- the experiment task behind
  ``SuiteRunner(workers=N)``: runs one experiment per task and streams
  back its record plus an observability shard.
- :mod:`repro.runtime.supervisor` -- :class:`WorkerSupervisor`: the
  one process-pool supervisor (suite experiments and corpus shards) —
  crash detection, requeue under a per-task crash budget, poison-task
  quarantine, and a degradation ladder down to in-process execution.
"""

from repro.runtime.faultinject import (
    FaultInjector,
    FaultSpec,
    use_fault_injector,
)
from repro.runtime.runner import (
    RetryPolicy,
    RunRecord,
    SuiteReport,
    SuiteRunner,
)
from repro.runtime.supervisor import WorkerSupervisor

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "RunRecord",
    "SuiteReport",
    "SuiteRunner",
    "WorkerSupervisor",
    "use_fault_injector",
]
