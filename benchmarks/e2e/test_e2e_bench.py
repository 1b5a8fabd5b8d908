"""Tests for the end-to-end benchmark harness (``pytest benchmarks/e2e``).

The harness must report only names ``BENCHMARK.json`` declares, split
wall time into layers exactly, leave the program untouched once its
wrappers come off, and time open-loop requests from their due time.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layertrace  # noqa: E402
import loadgen  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "1",
         *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def test_printed_names_are_declared(tmp_path):
    declared = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    done = _run("--workload", "all", "--trace", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    printed = [line.split() for line in lines if line.startswith("metric ")]
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert len(printed) == len(workloads) * len(declared)
    for _, name, _value, unit, *_ in printed:
        assert NAME.match(name) and name in declared, name
        assert unit == declared[name]["unit"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads for n in per_layer}
    for workload in workloads:
        assert (tmp_path / workload / "spans.jsonl").exists()
        assert "(sum)" in (tmp_path / workload / "layers.txt").read_text()


def test_single_workload_prints_every_end_to_end_metric():
    done = _run("--workload", "suite_cold", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] >= 1


def _span(span_id, parent_id, start, end, name="layer.work"):
    return {"span_id": span_id, "parent_id": parent_id, "name": name,
            "start": start, "end": end, "attributes": {}}


def test_exclusive_time_on_synthetic_trees():
    records = [
        _span(1, None, 0.0, 10.0, layertrace.UNIT_SPAN),
        _span(2, 1, 1.0, 4.0),    # A
        _span(3, 2, 2.0, 3.0),    # B, inside A
        _span(4, 1, 5.0, 9.0),    # C
        _span(5, 1, 6.0, 8.0),    # D, runs beside C (a second worker)
        _span(6, 1, 9.5, 12.0),   # outlives the unit: clamped at 10
        _span(7, None, 0.0, 50.0),  # outside every unit: ignored
    ]
    exclusive = layertrace.exclusive_times(records)
    assert exclusive == {
        1: 2.5,        # 0-1, 4-5 and 9-9.5: no child running
        2: 2.0,
        3: 1.0,
        4: 3.0,        # 5-6 alone, 6-8 shared with D, 8-9 alone
        5: 1.0,
        6: 0.5,
    }
    assert sum(exclusive.values()) == 10.0


def test_layer_table_sums_to_the_unit_wall():
    records = [
        _span(1, None, 0.0, 4.0, layertrace.UNIT_SPAN),
        _span(2, 1, 0.0, 3.0, "methods_detect.classify_text"),
        _span(3, 2, 1.0, 2.0, "artifacts.get"),
    ]
    table = layertrace.layer_table(records)
    assert table == {
        "unattributed": {"self_s": 1.0, "calls": 1},
        "methods_detect": {"self_s": 2.0, "calls": 1},
        "artifacts": {"self_s": 1.0, "calls": 1},
    }


def test_wrappers_come_off_cleanly(tmp_path, capsys):
    from repro.bibliometrics import methods_detect, shardscan
    from repro.bibliometrics.corpus import Corpus
    from repro.io.artifacts import ArtifactCache
    from repro.obs import Tracer, use_tracer

    classify = methods_detect.classify_text
    from_records = vars(Corpus)["from_records"]
    get = vars(ArtifactCache)["get"]
    targets = [
        ("repro.bibliometrics.methods_detect", "classify_text", "methods_detect.classify", None),
        ("repro.bibliometrics.corpus", "Corpus.from_records", "corpus.from_records", None),
        ("repro.io.artifacts", "ArtifactCache.get", "artifacts.get", layertrace._hit),
        ("repro.io.artifacts", "no_such_function", "artifacts.gone", None),
    ]
    tracer = Tracer()
    with layertrace.LayerTracer(tracer, tmp_path, targets) as layers:
        # Both the defining module and a `from x import f` site are wrapped.
        assert methods_detect.classify_text is not classify
        assert shardscan.classify_text is methods_detect.classify_text
        assert vars(Corpus)["from_records"] is not from_records
        with use_tracer(tracer):
            assert methods_detect.classify_text("we ran a survey") == classify(
                "we ran a survey")
            assert ArtifactCache(tmp_path / "cache").get("kind", {}) is None
            # A span closed in another process (here: a pretend fork)
            # while the ambient tracer is still ours is spilled.
            layers.pid = -1
            shardscan.classify_text("interviews")
            layers.pid = os.getpid()
        assert list(tmp_path.glob("spans-*.jsonl"))
        assert layers.adopt_spills() == 1
    assert "skipping missing repro.io.artifacts.no_such_function" in capsys.readouterr().err
    assert methods_detect.classify_text is classify
    assert shardscan.classify_text is classify
    assert vars(Corpus)["from_records"] is from_records
    assert vars(ArtifactCache)["get"] is get
    names = [span.name for span in tracer.finished]
    # Two calls, plus the spilled span adopted back as a copy (a real
    # fork would have recorded it only in the child).
    assert names.count("methods_detect.classify") == 3
    gets = [s for s in tracer.finished if s.name == "artifacts.get"]
    assert len(gets) == 1 and gets[0].attributes == {"hit": False}


async def _slow_server(delay: float):
    async def handle(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        await asyncio.sleep(delay)
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
        await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_counts_from_the_due_time():
    delay, rate, count = 0.05, 100.0, 8

    async def scenario():
        server = await _slow_server(delay)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.run_step(
                "127.0.0.1", port, [("/x", "hit")] * count, rate, max_inflight=1
            )
        finally:
            server.close()
            await server.wait_closed()

    report = asyncio.run(scenario())
    assert all(outcome.status == 200 for outcome in report.outcomes)
    spacing = 1.0 / rate
    start = report.outcomes[0].due
    for index, outcome in enumerate(report.outcomes):
        assert abs(outcome.due - (start + index * spacing)) < 1e-9
        assert outcome.latency == outcome.done - outcome.due
        # One connection, 50 ms per request, due every 10 ms: request i
        # queues behind i earlier ones, so its latency grows by 40 ms a step.
        assert outcome.latency >= delay + index * (delay - spacing) - 0.005
        # Waiting for the connection is backlog, not generator lateness.
        assert outcome.late < 0.010
    assert report.backlog_max >= count - 2
