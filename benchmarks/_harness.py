"""Shared helpers for the benchmarks.

- :data:`RESULTS_DIR` / :data:`LEDGER_PATH` — where benchmarks persist
  their JSON artifacts and the bench ledger
  (``benchmarks/results/BENCH_history.json``) that ``repro bench
  report``/``gate`` read; :data:`BUILD_DIR` — the untracked directory
  for results of a quick (``REPRO_BENCH_FAST=1``) run, which must not
  replace a committed one;
- :func:`peak_rss_bytes` / :func:`measure_peak_rss` — peak-RSS probes.

The experiments themselves are timed end to end by
``benchmarks/e2e/`` and run with ``python -m repro experiments EN``.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path
from typing import Any, Callable

RESULTS_DIR = Path(__file__).parent / "results"
LEDGER_PATH = RESULTS_DIR / "BENCH_history.json"
BUILD_DIR = Path(__file__).resolve().parent.parent / ".bench_build"

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_UNIT = 1 if sys.platform == "darwin" else 1024


def peak_rss_bytes() -> int:
    """This process's peak RSS high-water mark, child-inclusive, in bytes.

    ``RUSAGE_SELF`` plus ``RUSAGE_CHILDREN`` (waited-for descendants —
    pool workers included), so a measurement over a shard-parallel run
    charges the workers' memory too.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) * _RU_MAXRSS_UNIT


def measure_peak_rss(fn: Callable[[], Any]) -> tuple[Any, int]:
    """Run ``fn`` and return ``(result, peak-RSS delta in bytes)``.

    The delta is against the pre-call high-water mark.  ``ru_maxrss``
    is monotone for a process's lifetime, so the delta is only
    meaningful when ``fn`` is the largest thing the process has run —
    back-to-back measurements of *descending* size read as zero.  For
    honest curves, run each point in a fresh subprocess (what
    ``bench_corpus_scale.py`` does) and treat the delta as a floor.
    """
    before = peak_rss_bytes()
    result = fn()
    return result, max(0, peak_rss_bytes() - before)
