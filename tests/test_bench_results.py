"""Where the suite-scaling benchmark lands its result.

A full-preset run replaces the committed
``benchmarks/results/suite_parallel.json``; a quick
``REPRO_BENCH_FAST=1`` run writes under the untracked ``.bench_build/``
and leaves the committed result alone.  The suite itself is stubbed:
only the routing of the result file is under test.
"""

import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


class _Report:
    ok = True
    errors: list = []

    def fingerprint(self) -> str:
        return "stub"


class _Runner:
    def __init__(self, workers, cache_dir):
        pass

    def run_all(self, seed, fast):
        return _Report()


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import bench_suite_parallel

    results, build = tmp_path / "results", tmp_path / "build"
    results.mkdir()
    (results / "suite_parallel.json").write_text("committed\n")
    monkeypatch.setattr(bench_suite_parallel, "RESULTS_DIR", results)
    monkeypatch.setattr(bench_suite_parallel, "BUILD_DIR", build)
    monkeypatch.setattr(bench_suite_parallel, "SuiteRunner", _Runner)
    monkeypatch.setattr(
        bench_suite_parallel, "shared_aggregates_from_config", lambda config: None
    )
    return bench_suite_parallel, results, build


def test_fast_run_leaves_the_committed_result_untouched(bench, monkeypatch, tmp_path):
    module, results, build = bench
    monkeypatch.setenv("REPRO_BENCH_FAST", "1")
    module.test_suite_wall_clock_scaling(tmp_path / "run")
    assert (results / "suite_parallel.json").read_text() == "committed\n"
    assert json.loads((build / "suite_parallel.json").read_text())["fast"] is True


def test_full_run_replaces_the_committed_result(bench, monkeypatch, tmp_path):
    module, results, build = bench
    monkeypatch.delenv("REPRO_BENCH_FAST", raising=False)
    module.test_suite_wall_clock_scaling(tmp_path / "run")
    assert json.loads((results / "suite_parallel.json").read_text())["fast"] is False
    assert not build.exists()
