"""Suite wall-clock scaling across worker counts.

Runs the experiment suite at 1, 2, and 4 workers against a shared,
pre-warmed artifact cache and persists one JSON artifact
(``results/suite_parallel.json``) with per-worker-count wall clock and
speedup over the sequential run.  Parallel speedup is bounded by
physical cores, so the machine's ``cpu_count`` is recorded as part of
the result, not incidental metadata: on a single-core box the expected
speedup is ~1x and the artifact says so.

Every run must also produce the *same* report fingerprint — this bench
doubles as an end-to-end determinism check on the real suite.

Full (non-fast) mode by default, matching the acceptance criterion;
set ``REPRO_BENCH_FAST=1`` to iterate on the harness quickly.  A fast
run writes ``.bench_build/suite_parallel.json`` instead, so it never
replaces the committed full-preset result.
"""

import json
import os
import time

from _harness import BUILD_DIR, RESULTS_DIR

from repro.experiments._corpus import (
    clear_corpus_cache,
    corpus_config,
    shared_aggregates_from_config,
    use_corpus_cache,
)
from repro.runtime.runner import SuiteRunner

WORKER_COUNTS = (1, 2, 4)


def test_suite_wall_clock_scaling(tmp_path):
    fast = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")
    cache_dir = str(tmp_path / "artifacts")

    # Prime the corpus shards and scanned aggregates so every timed run
    # — sequential included — sees the same warm on-disk cache.
    with use_corpus_cache(cache_dir):
        shared_aggregates_from_config(corpus_config(seed=0, fast=fast))

    runs = []
    fingerprints = set()
    for workers in WORKER_COUNTS:
        clear_corpus_cache()  # every run loads the corpus from disk
        runner = SuiteRunner(workers=workers, cache_dir=cache_dir)
        start = time.perf_counter()
        report = runner.run_all(seed=0, fast=fast)
        wall = time.perf_counter() - start
        assert report.ok, [r.experiment_id for r in report.errors]
        fingerprints.add(report.fingerprint())
        runs.append({"workers": workers, "wall_seconds": wall})
    assert len(fingerprints) == 1, "worker counts disagreed on the report"

    sequential = runs[0]["wall_seconds"]
    payload = {
        "benchmark": "suite_parallel",
        "seed": 0,
        "fast": fast,
        "cpu_count": os.cpu_count(),
        "fingerprint": fingerprints.pop(),
        "runs": [
            {
                **run,
                "speedup_vs_sequential": (
                    sequential / run["wall_seconds"]
                    if run["wall_seconds"] else None
                ),
            }
            for run in runs
        ],
    }
    out_dir = BUILD_DIR if fast else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "suite_parallel.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
