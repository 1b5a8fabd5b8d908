"""End-to-end benchmark: every workload, every metric, one command.

    PYTHONPATH=src python benchmarks/e2e/run.py [--workload NAME|all] \\
        --seed S [--seconds T] [--repeat N] [--trace 0|1|DIR] [--json OUT] \\
        [--scale full|smoke]

Each repeat of each workload runs in a fresh process
(``workloads.py``), between fresh-process set-up probes whose median is
``setup_s``.  The program under test only ever receives
inputs generated from ``--seed``.  Every end-to-end metric is printed
by name with its unit, as the median and quartiles over the repeats,
together with host facts.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--workload all`` its metric names are prefixed ``<workload>.``.

``--trace 1`` (spans under ``.bench_build/e2e/trace``) or
``--trace DIR`` runs every workload a second time with the layer
functions wrapped, writes ``<DIR>/<workload>/spans.jsonl`` and
``layers.txt``, and prints the per-layer metrics too; the last line
then carries the per-layer metrics.  End-to-end metrics always come
from the untraced runs.

Exits 1 when any correctness check fails, 2 on a usage or environment
error (for instance when the program's source tree is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"

#: On each side of a run, fresh-process set-up probes go on until this
#: many seconds have passed and at least ``PROBES_MIN`` have ended; the
#: median of all of them is ``setup_s``.  A quick set-up (the server's)
#: thus gets many probes, a slow one a few.
PROBE_SECONDS = 1.5
PROBES_MIN = 2
#: Wall-clock ceiling for one workload process.
CHILD_TIMEOUT = 150.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def probe_setup(workload: str, scale: str, scratch: Path, env: dict) -> float:
    """Seconds from spawning a fresh process until it can do the work.

    That is the ``ready`` line the process prints: for the batch
    workloads once it has imported the program and built its inputs,
    for the server once its listener accepts connections.
    """
    serving = workload == "serve_mixed"
    cache = tempfile.mkdtemp(prefix="probe-", dir=scratch) if serving else None
    if serving:
        command = [sys.executable, str(HERE / "serve_proc.py"), "--cache-dir", cache]
    else:
        command = [sys.executable, str(HERE / "workloads.py"),
                   "--probe", workload, "--scale", scale]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = process.stdout.readline().split()
        elapsed = time.perf_counter() - started
        if line[:1] != ["ready"]:
            raise RuntimeError(f"{workload} set-up probe failed")
    finally:
        process.terminate()
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
    return elapsed


def probe_setups(workload: str, scale: str, scratch: Path, env: dict) -> list[float]:
    """One side's set-up probes (a single one at the smoke scale)."""
    times: list[float] = []
    started = time.perf_counter()
    while not times or scale == "full" and (
        len(times) < PROBES_MIN or time.perf_counter() - started < PROBE_SECONDS
    ):
        times.append(probe_setup(workload, scale, scratch, env))
    return times


def run_child(workload: str, args, scratch: Path, env: dict,
              trace_dir: Path | None) -> dict | None:
    """One workload run in a fresh process; None when it crashed."""
    out = scratch / f"{workload}.json"
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--scratch", str(scratch / workload),
        "--out", str(out),
    ]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace", str(trace_dir)]
    # Its own session, so a timeout can stop the server and pool workers
    # it started along with it.
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        process.wait(timeout=CHILD_TIMEOUT)
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"error: {workload} exceeded {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        return None
    if process.returncode != 0 or not out.exists():
        print(f"error: {workload} exited {process.returncode}", file=sys.stderr)
        return None
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    shutil.rmtree(scratch / workload, ignore_errors=True)
    return result


def summarize(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) with the count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def host_facts() -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
    }


def layer_report(workload: str, table: dict, wall: float, overhead: float) -> str:
    """The per-workload layer table: self time, share, calls."""
    lines = [f"layer table: {workload} (traced wall {wall:.3f} s, "
             f"tracing overhead {overhead:+.3f} s per unit)",
             f"{'layer':<28}{'self_s':>12}{'share':>9}{'calls':>10}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = row["self_s"] / wall if wall else 0.0
        lines.append(f"{layer:<28}{row['self_s']:>12.4f}{share:>9.1%}{row['calls']:>10}")
    accounted = sum(row["self_s"] for row in table.values())
    lines.append(f"{'(sum)':<28}{accounted:>12.4f}{(accounted / wall if wall else 0):>9.1%}")
    return "\n".join(lines)


def run_workload(workload: str, args, spec: dict, trace_root: Path | None,
                 scratch: Path, env: dict) -> dict:
    """Every repeat of one workload; returns its summarized block."""
    e2e = {m["name"]: [] for m in spec["end_to_end"]}
    layers = {m["name"]: [] for m in spec["per_layer"]}
    checks: dict[str, bool] = {}
    attempted = failed = 0
    info: list[dict] = []
    for _ in range(args.repeat):
        # Probes on both sides of the run, so one slow stretch of the
        # host cannot cover most of them.
        setups = probe_setups(workload, args.scale, scratch, env)
        plain = run_child(workload, args, scratch, env, None)
        if plain is None:
            checks["completed"] = False
            failed += 1
            attempted += 1
            continue
        setups += probe_setups(workload, args.scale, scratch, env)
        e2e["setup_s"].append(statistics.median(setups))
        e2e["wall_s"].append(plain["wall_s"])
        e2e["peak_rss_mb"].append(plain["peak_rss_mb"])
        attempted += plain["attempted"]
        failed += plain["failed"]
        for name, ok in plain["checks"].items():
            checks[name] = checks.get(name, True) and ok
        info.append(plain["info"])
        if trace_root is None:
            continue
        traced = run_child(workload, args, scratch, env, trace_root / workload)
        if traced is None:
            checks["traced_completed"] = False
            continue
        overhead = statistics.median(traced["units"]) - statistics.median(plain["units"])
        traced["layers"]["trace.overhead_s"] = overhead
        for name in layers:
            layers[name].append(traced["layers"].get(name, 0.0))
        report = layer_report(workload, traced["layer_table"],
                              traced["layers"]["trace.wall_s"], overhead)
        (trace_root / workload / "layers.txt").write_text(report + "\n", encoding="utf-8")
        print(report)
    return {
        "e2e": {name: summarize(values) for name, values in e2e.items() if values},
        "layers": {name: summarize(values) for name, values in layers.items() if values},
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "info": info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, each in a fresh process")
    parser.add_argument("--trace", default="0",
                        help="0 = off; 1 = on, spans under .bench_build/e2e/trace; "
                             "or a directory for the spans")
    parser.add_argument("--json", default=None, help="write the full report here")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the workload process group is
    # stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro").is_dir():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads) or args.repeat < 1:
        print(f"error: --workload must be one of {names} or all", file=sys.stderr)
        return 2
    trace_root = None
    if args.trace != "0":
        trace_root = BUILD / "trace" if args.trace == "1" else Path(args.trace).resolve()
        trace_root.mkdir(parents=True, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    scratch = BUILD / f"run-{os.getpid()}"
    env = child_env(scratch)
    blocks = {}
    try:
        for workload in workloads:
            blocks[workload] = run_workload(workload, args, spec, trace_root, scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if "suite_cold" in blocks and "suite_warm" in blocks:
        cold = {i.get("fingerprint") for i in blocks["suite_cold"]["info"]}
        warm = {i.get("fingerprint") for i in blocks["suite_warm"]["info"]}
        blocks["suite_warm"]["checks"]["warm_equals_suite_cold"] = cold == warm

    host = host_facts()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    final: dict[str, dict] = {}
    for workload, block in blocks.items():
        print(f"== {workload} (seed {args.seed}, {args.repeat} run(s) of "
              f"{args.seconds:g} s, scale {args.scale}) ==")
        reported = block["layers"] if trace_root is not None else block["e2e"]
        for name, stats in {**block["e2e"], **block["layers"]}.items():
            print(f"metric {name} {stats['median']:.6g} {units[name]} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} n={stats['n']}")
            if name in reported:
                key = name if len(blocks) == 1 else f"{workload}.{name}"
                final[key] = {"value": stats["median"], "unit": units[name]}
        for index, info in enumerate(block["info"]):
            print(f"info {workload} run {index}: {json.dumps(info, sort_keys=True)}")
        for name, ok in sorted(block["checks"].items()):
            print(f"check {workload} {name}: {'PASS' if ok else 'FAIL'}")

    correct = all(
        block["failed"] == 0 and all(block["checks"].values())
        for block in blocks.values()
    )
    result = {
        "correct": correct,
        "attempted": max(1, sum(block["attempted"] for block in blocks.values())),
        "failed": sum(block["failed"] for block in blocks.values()),
        "metrics": final,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"host": host, "seed": args.seed, "seconds": args.seconds,
             "repeat": args.repeat, "scale": args.scale, "workloads": blocks,
             "result": result}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
