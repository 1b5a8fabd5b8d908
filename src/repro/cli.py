"""Command-line interface.

The subcommands cover the workflows a downstream user reaches for
first:

- ``experiments`` (alias: ``run``): list the E1-E13 suite or run
  selected experiments and print their result tables; ``--set
  key=value`` overrides individual typed spec fields, and
  ``--trace-out``, ``--metrics-out``, and ``--profile-out`` switch on
  the :mod:`repro.obs` observability layer for the run.
- ``sweep``: expand a parameter grid (``--grid seed=0,1,2`` or a JSON
  grid file) over one experiment's spec and run every point through
  the parallel runtime, memoizing results in the artifact cache and
  printing a per-point summary table.
- ``obs``: observability reports — ``obs report TRACE`` renders the
  per-experiment stage-time breakdown (and, when the trace came from a
  server, the per-route serve request breakdown) from an exported
  trace.
- ``serve``: run the fault-tolerant HTTP result service
  (:mod:`repro.serve`) over an artifact cache — cache hits served from
  disk, misses computed in the background, SIGTERM drains gracefully;
  ``--access-log`` adds a structured JSONL row per request.
- ``bench``: the perf-regression ledger — ``bench run`` measures named
  hot paths and appends normalized records to ``BENCH_history.json``,
  ``bench report`` renders the trajectory, and ``bench gate`` exits
  non-zero when the newest entry regressed >20% against the rolling
  baseline.
- ``corpus generate``: generate the synthetic venue corpus (the
  shard-parallel columnar generator) to JSONL files — or, with
  ``--papers``, at scale as cached shards plus a manifest (``repro
  corpus generate OUT --papers 1000000 --workers 4``).
- ``corpus export`` / ``corpus import``: versioned, content-addressed
  corpus snapshots — export writes a tagged directory of checksummed
  shard objects plus a self-digested manifest, import verifies every
  byte of it (manifest self-digest, config hash, object digests, shard
  fingerprints, merged fingerprint) before anything is used.
- ``integrity``: the data-plane immune system — ``integrity scrub
  CACHE_DIR`` walks an artifact cache verifying every entry end-to-end
  and classifies damage (truncated, bit_flipped, bad_header, garbled,
  orphaned_tmp); ``--repair`` regenerates exactly the damaged shards
  byte-identically and deletes what cannot be regenerated down to a
  clean miss.
- ``cache``: ``cache ls`` / ``cache stats`` list an artifact cache's
  entries (kind, key, size, age) and orphaned-temp-file count without
  reading entry bodies.
- ``detect``: run method-mention detection over a text file.
- ``audit``: evaluate a research-project record (JSON) against the
  Section-5 recommendations and the default ethics checklist.

Spec-level mistakes (unknown ``--set``/``--grid`` keys, out-of-range
or mistyped values) exit with code 2 and a one-line message naming the
spec class and its valid fields — never a traceback.  SIGINT/SIGTERM
during ``run``/``sweep`` exit 130 with a one-line resume hint instead
of a traceback: completed work is already in the checkpoint/cache, so
interruption is a pause, not a loss.

Run ``python -m repro --help`` for usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from repro import __version__

#: Conventional exit code for "terminated by SIGINT" (128 + 2).
EXIT_INTERRUPTED = 130


@contextmanager
def _graceful_signals():
    """Deliver SIGTERM as :class:`KeyboardInterrupt` for a long command.

    SIGINT already raises KeyboardInterrupt; mapping SIGTERM onto the
    same path means one ``except`` clause covers both Ctrl-C and a
    supervisor's polite kill, and the runner's incremental checkpoint
    writes (flushed per record) are the resume state.  Only installed
    on the main thread — signal handlers cannot be set elsewhere, and
    tests drive these commands from worker threads.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_experiments(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.experiments.registry import describe_table
    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
    from repro.runtime.runner import SuiteRunner

    if args.list:
        print(describe_table().render())
        return 0

    # --trace-out / --metrics-out install real collectors for the run;
    # the runner carries them into its threads and merges its workers'
    # shards into them, so one trace/snapshot holds it at any --workers.
    tracer = Tracer() if args.trace_out else None
    metrics = MetricsRegistry() if args.metrics_out else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if metrics is not None:
            stack.enter_context(use_metrics(metrics))
        runner = SuiteRunner(
            retries=args.retries,
            timeout=args.timeout,
            keep_going=args.keep_going,
            checkpoint=args.checkpoint,
            seed=args.seed,
            profile_dir=args.profile_out,
            workers=args.workers,
            cache_dir=args.cache_dir,
            max_worker_crashes=args.max_worker_crashes,
            degrade=not args.no_degrade,
        )
        ids = None if args.all else (args.ids or None)
        try:
            with _graceful_signals():
                if args.set:
                    # Explicit field overrides need a concrete spec per
                    # experiment; build them and take the spec-native path.
                    from repro.experiments.registry import (
                        all_experiments,
                        make_spec,
                        spec_class,
                    )
                    from repro.experiments.spec import parse_set_overrides

                    preset = "full" if args.full else "fast"
                    specs = [
                        make_spec(
                            experiment_id,
                            preset,
                            seed=args.seed,
                            overrides=parse_set_overrides(
                                spec_class(experiment_id), args.set
                            ),
                        )
                        for experiment_id in (ids or all_experiments())
                    ]
                    report = runner.run_points(specs)
                else:
                    report = runner.run_all(
                        ids, seed=args.seed, fast=not args.full
                    )
        except KeyboardInterrupt:
            # Completed experiments are already flushed to the
            # checkpoint (the runner appends per record), so nothing is
            # lost: the same command picks up where this one stopped.
            if args.checkpoint:
                hint = f"resume with: repro run --checkpoint {args.checkpoint}"
            else:
                hint = "re-run with --checkpoint PATH to make interrupts resumable"
            print(f"interrupted; {hint}", file=sys.stderr)
            return EXIT_INTERRUPTED
    if tracer is not None:
        count = tracer.export(args.trace_out)
        print(f"wrote {count} spans -> {args.trace_out}", file=sys.stderr)
    if metrics is not None:
        metrics.write(args.metrics_out)
        print(f"wrote metrics -> {args.metrics_out}", file=sys.stderr)
    for record in report:
        if record.result is not None:
            print(record.result.render())
        elif record.from_checkpoint:
            shape = "shapes hold" if record.shape_holds else "shape FAIL"
            print(
                f"{record.experiment_id}: replayed from checkpoint "
                f"({record.status}, {shape})"
            )
        else:
            print(
                f"{record.experiment_id}: {record.status.upper()} "
                f"({record.error_type}) after {record.attempts} attempt(s): "
                f"{record.error}"
            )
        print()

    if args.json_summary:
        payload = json.dumps(report.summary(), indent=2, sort_keys=True)
        if args.json_summary == "-":
            print(payload)
        else:
            Path(args.json_summary).write_text(payload + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.errors import UnknownExperimentError
    from repro.experiments.registry import spec_class
    from repro.experiments.spec import parse_set_overrides
    from repro.experiments.sweep import (
        load_grid_file,
        parse_grid_args,
        run_sweep,
    )

    experiment_id = args.experiment
    preset = args.preset
    grid: dict[str, list] = {}
    base: dict = {}
    if args.grid_file:
        data = load_grid_file(args.grid_file)
        experiment_id = experiment_id or data["experiment"]
        preset = preset or data["preset"]
        grid.update(data["grid"])
        base.update(data["base"])
    if experiment_id is None:
        print(
            "error: no experiment named (pass an id or put 'experiment' "
            "in the grid file)",
            file=sys.stderr,
        )
        return 2
    try:
        cls = spec_class(experiment_id)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    grid.update(parse_grid_args(cls, args.grid or []))
    base.update(parse_set_overrides(cls, args.set or []))

    try:
        with _graceful_signals():
            report = run_sweep(
                experiment_id,
                grid,
                preset=preset or "fast",
                base_overrides=base,
                workers=args.workers,
                results_dir=args.results_dir,
                cache_dir=args.cache_dir,
                retries=args.retries,
                timeout=args.timeout,
                keep_going=True,
            )
    except KeyboardInterrupt:
        # Finished points are memoized in the artifact cache by config
        # hash, so a re-run replays them instead of recomputing.
        if args.cache_dir:
            hint = (
                f"finished points are cached; resume with: repro sweep ... "
                f"--cache-dir {args.cache_dir}"
            )
        else:
            hint = "re-run with --cache-dir DIR to make interrupts resumable"
        print(f"interrupted; {hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(report.summary_table().render())
    if args.results_dir:
        print(f"\npoint artifacts -> {args.results_dir}", file=sys.stderr)
    if args.json_summary:
        payload = json.dumps(report.summary(), indent=2, sort_keys=True)
        if args.json_summary == "-":
            print(payload)
        else:
            Path(args.json_summary).write_text(payload + "\n", encoding="utf-8")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    from repro.serve.service import ResultService, ServeConfig, run_server

    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-serve-")
        print(
            f"no --cache-dir given; serving a throwaway cache at {cache_dir}",
            file=sys.stderr,
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=cache_dir,
        max_inflight=args.max_inflight,
        deadline=args.deadline,
        retry_after=args.retry_after,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        drain_timeout=args.drain_timeout,
        access_log=args.access_log,
    )
    return run_server(ResultService(config))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.gate import evaluate_gate, render_trajectory
    from repro.bench.hotpaths import hot_path_names, run_hot_path
    from repro.bench.ledger import append_entries, load_ledger

    if args.bench_command == "run":
        names = args.names or hot_path_names()
        unknown = [n for n in names if n not in hot_path_names()]
        if unknown:
            print(
                f"error: unknown hot path(s) {', '.join(unknown)}; "
                f"known: {', '.join(hot_path_names())}",
                file=sys.stderr,
            )
            return 2
        entries = []
        for name in names:
            measured = run_hot_path(name, repeats=args.repeats)
            for entry in measured:
                print(
                    f"{entry['bench']}.{entry['metric']}: "
                    f"{entry['value']:.6f} {entry['unit']}"
                )
            entries.extend(measured)
        count = append_entries(args.ledger, entries)
        print(f"appended {count} entr{'y' if count == 1 else 'ies'} -> "
              f"{args.ledger}", file=sys.stderr)
        return 0

    entries = load_ledger(args.ledger)
    if args.bench_command == "report":
        print(render_trajectory(entries, args.names or None))
        return 0

    # gate
    names = args.names or sorted({e["bench"] for e in entries})
    if not names:
        print(
            f"error: ledger {args.ledger} is empty and no hot paths were "
            "named; run `repro bench run` first",
            file=sys.stderr,
        )
        return 2
    report = evaluate_gate(
        entries, names, threshold=args.threshold, window=args.window
    )
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import build_report, load_trace, render_report

    spans = load_trace(args.trace)
    if args.json:
        print(json.dumps(build_report(spans, top=args.top), indent=2,
                         sort_keys=True))
    else:
        print(render_report(spans, top=args.top))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.bibliometrics.shardgen import (
        ShardedCorpusConfig,
        generate_columnar_corpus,
    )
    from repro.experiments._corpus import SHARD_SIZE, stock_corpus_papers
    from repro.io.jsonl import write_jsonl

    if args.papers is not None:
        return _cmd_corpus_sharded(args)
    if args.output is None:
        print("error: output directory required (or use --papers for the "
              "sharded columnar generator)", file=sys.stderr)
        return 2
    config = ShardedCorpusConfig(
        start_year=args.start_year,
        end_year=args.end_year,
        seed=args.seed,
        total_papers=stock_corpus_papers(args.start_year, args.end_year),
        shard_size=SHARD_SIZE,
    )
    columnar = generate_columnar_corpus(config)
    corpus, truth = columnar.to_corpus(), columnar.truth()
    out = Path(args.output)
    records = corpus.to_records()
    for name in ("venues", "authors", "papers"):
        count = write_jsonl(out / f"{name}.jsonl", records[name])
        print(f"wrote {count} {name} -> {out / (name + '.jsonl')}")
    truth_records = [
        {
            "paper_id": paper_id,
            "human_methods": list(families),
            "positionality": paper_id in truth.positionality,
        }
        for paper_id, families in sorted(truth.human_methods.items())
    ]
    count = write_jsonl(out / "ground_truth.jsonl", truth_records)
    print(f"wrote {count} ground-truth labels -> {out / 'ground_truth.jsonl'}")
    return 0


def _cmd_corpus_sharded(args: argparse.Namespace) -> int:
    """``repro corpus generate --papers N``: the columnar shard-parallel path.

    Shards stream through the artifact cache (``--cache-dir``, default
    ``<output>/shards`` when an output directory is given); the corpus
    fingerprint printed at the end is identical at any ``--workers``
    and on warm-cache replays.
    """
    import time as _time

    from repro.bibliometrics.shardgen import generate_columnar_corpus
    from repro.io.jsonl import write_text_atomic

    config = _sharded_config(args)
    cache_dir = args.cache_dir
    if cache_dir is None and args.output is not None:
        cache_dir = str(Path(args.output) / "shards")
    if args.stream and cache_dir is None:
        print("error: --stream needs --cache-dir (or an output directory) "
              "to stream shards through", file=sys.stderr)
        return 2
    rows: list[dict] = []

    def progress(row: dict) -> None:
        rows.append(row)
        print(f"  shard {row['index']:4d}  {row['n_papers']:7d} papers  "
              f"[{len(rows)} done]", flush=True)

    start = _time.perf_counter()
    corpus = generate_columnar_corpus(
        config,
        workers=max(1, args.workers),
        cache_dir=cache_dir,
        stream=args.stream,
        on_shard=progress,
    )
    elapsed = _time.perf_counter() - start
    fingerprint = corpus.fingerprint()
    rate = len(corpus) / elapsed if elapsed > 0 else float("inf")
    print(f"generated {len(corpus)} papers in {corpus.n_shards} shards "
          f"({args.workers} worker(s)) in {elapsed:.2f}s — {rate:,.0f} papers/s")
    print(f"fingerprint: {fingerprint}")
    if args.output is not None:
        out = Path(args.output)
        manifest = {
            "config": config.to_dict(),
            "n_papers": len(corpus),
            "shards": sorted(rows, key=lambda row: row["index"]),
            "fingerprint": fingerprint,
            "cache_dir": cache_dir,
        }
        write_text_atomic(
            out / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote manifest -> {out / 'manifest.json'}")
    return 0


def _sharded_config(args: argparse.Namespace):
    """Build a ShardedCorpusConfig from the shared corpus flags."""
    from repro.bibliometrics.shardgen import ShardedCorpusConfig

    return ShardedCorpusConfig(
        start_year=args.start_year,
        end_year=args.end_year,
        seed=args.seed,
        total_papers=args.papers,
        shard_size=args.shard_size,
    )


def _cmd_corpus_export(args: argparse.Namespace) -> int:
    from repro.integrity.snapshot import export_snapshot

    manifest = export_snapshot(
        args.directory,
        _sharded_config(args),
        tag=args.tag,
        workers=max(1, args.workers),
        cache_dir=args.cache_dir,
        force=args.force,
    )
    print(f"snapshot {manifest['tag']!r} -> {args.directory}")
    print(f"  papers:      {manifest['n_papers']:,} "
          f"in {len(manifest['shards'])} shard(s)")
    print(f"  fingerprint: {manifest['fingerprint']}")
    print(f"  config_hash: {manifest['config_hash']}")
    return 0


def _cmd_corpus_import(args: argparse.Namespace) -> int:
    from repro.integrity.snapshot import import_snapshot, load_manifest

    corpus = import_snapshot(args.directory, cache_dir=args.cache_dir)
    # import_snapshot verified the manifest already; re-reading it here
    # is a cheap way to get the tag and fingerprint for the summary.
    manifest = load_manifest(args.directory)
    print(f"verified snapshot {manifest['tag']!r}: {len(corpus):,} papers "
          f"in {corpus.n_shards} shard(s)")
    print(f"  fingerprint: {manifest['fingerprint']}")
    if args.cache_dir is not None:
        print(f"  hydrated cache -> {args.cache_dir}")
    return 0


def _cmd_integrity_scrub(args: argparse.Namespace) -> int:
    from repro.integrity.scrub import repair_cache, scrub_cache

    report = scrub_cache(args.cache_dir)
    if args.repair and report.damaged:
        report = repair_cache(args.cache_dir, report)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"scrubbed {report.entries} entr"
              f"{'y' if report.entries == 1 else 'ies'} "
              f"({report.bytes_scanned:,} bytes): "
              f"{report.intact} intact, {report.damaged} damaged")
        for finding in report.findings:
            line = (f"  {finding.damage:<12s} "
                    f"{Path(finding.path).name}: {finding.detail}")
            if finding.repair is not None:
                line += f" [{finding.repair}]"
            print(line)
        if report.damaged and not args.repair:
            print("re-run with --repair to regenerate or clear the damage",
                  file=sys.stderr)
    if not report.damaged:
        return 0
    # After --repair every finding was regenerated byte-identically or
    # deleted down to a clean miss — the cache is healthy again.
    return 0 if args.repair else 1


def _format_age(seconds: float) -> str:
    """Compact one-unit age: ``42s``, ``13m``, ``7h``, ``3d``."""
    if seconds < 60:
        return f"{int(seconds)}s"
    if seconds < 3600:
        return f"{int(seconds / 60)}m"
    if seconds < 86400:
        return f"{int(seconds / 3600)}h"
    return f"{int(seconds / 86400)}d"


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.integrity.scrub import iter_entries

    root = Path(args.cache_dir)
    entries = list(iter_entries(root))
    orphans = sum(1 for _ in root.rglob("*.tmp")) if root.exists() else 0

    if args.cache_command == "ls":
        if not entries and not orphans:
            print(f"cache {root}: empty")
            return 0
        print(f"{'KIND':<16} {'KEY':<16} {'SIZE':>12} {'AGE':>6}")
        for entry in entries:
            key = entry.key if len(entry.key) <= 15 else entry.key[:12] + "..."
            print(f"{entry.kind:<16} {key:<16} {entry.size:>12,} "
                  f"{_format_age(entry.age_seconds):>6}")
        if orphans:
            print(f"+ {orphans} orphaned temp file(s) — "
                  "`repro integrity scrub --repair` clears them",
                  file=sys.stderr)
        return 0

    # stats: per-kind rollup — entries, bytes, share of the cache, and
    # age span, so operators can see which kind (corpus shards, scanned
    # aggregates, memoized results) fills the cache and how stale each
    # kind is.
    by_kind: dict[str, dict] = {}
    for entry in entries:
        bucket = by_kind.setdefault(
            entry.kind,
            {"entries": 0, "bytes": 0, "newest_age": None, "oldest_age": None},
        )
        bucket["entries"] += 1
        bucket["bytes"] += entry.size
        age = entry.age_seconds
        if bucket["newest_age"] is None or age < bucket["newest_age"]:
            bucket["newest_age"] = age
        if bucket["oldest_age"] is None or age > bucket["oldest_age"]:
            bucket["oldest_age"] = age
    total_bytes = sum(bucket["bytes"] for bucket in by_kind.values())
    for bucket in by_kind.values():
        bucket["bytes_share"] = (
            bucket["bytes"] / total_bytes if total_bytes else 0.0
        )
    if args.json:
        payload = {
            "root": str(root),
            "entries": len(entries),
            "bytes": total_bytes,
            "orphaned_tmp": orphans,
            "kinds": {
                kind: dict(bucket) for kind, bucket in sorted(by_kind.items())
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"cache {root}: {len(entries)} entr"
          f"{'y' if len(entries) == 1 else 'ies'}, {total_bytes:,} bytes, "
          f"{orphans} orphaned temp file(s)")
    for kind, bucket in sorted(by_kind.items()):
        ages = (f"{_format_age(bucket['newest_age'])}-"
                f"{_format_age(bucket['oldest_age'])}")
        print(f"  {kind:<16} {bucket['entries']:>6} entries  "
              f"{bucket['bytes']:>12,} bytes  "
              f"{bucket['bytes_share']:>5.1%}  age {ages}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.bibliometrics.methods_detect import detect_methods

    text = Path(args.file).read_text(encoding="utf-8")
    mentions = detect_methods(text)
    if not mentions:
        print("no method mentions detected")
        return 0
    for mention in mentions:
        tag = "human" if mention.is_human_method else "quant"
        print(f"{mention.start:8d}  {tag:5s}  {mention.family:15s}  {mention.phrase}")
    families = sorted({m.family for m in mentions})
    print(f"\nfamilies: {', '.join(families)}")
    return 0


def _project_from_json(payload: dict):
    """Build a ResearchProject from the plain-JSON record format."""
    from repro.core.par import (
        EngagementEvent,
        EngagementKind,
        EngagementLedger,
    )
    from repro.core.positionality import PositionalityStatement
    from repro.core.project import (
        ConversationRecord,
        Partner,
        ResearchProject,
    )
    from repro.core.stages import ResearchStage

    project = ResearchProject(
        name=payload["name"], description=payload.get("description", "")
    )
    for partner in payload.get("partners", []):
        project.add_partner(Partner(**partner))
    ledger = EngagementLedger()
    for event in payload.get("engagements", []):
        ledger.record(
            EngagementEvent(
                month=event["month"],
                stage=ResearchStage(event["stage"]),
                partner_id=event["partner_id"],
                kind=EngagementKind(event["kind"]),
                description=event.get("description", ""),
                fed_back_into_design=event.get("fed_back_into_design", False),
            )
        )
    project.ledger = ledger
    for conversation in payload.get("conversations", []):
        record = ConversationRecord(
            conv_id=conversation["conv_id"],
            partner_id=conversation["partner_id"],
            month=conversation["month"],
            summary=conversation.get("summary", ""),
            how_it_informed=conversation.get("how_it_informed", ""),
            quotes=tuple(conversation.get("quotes", ())),
            open_questions=tuple(conversation.get("open_questions", ())),
        )
        project.record_conversation(record)
    for statement in payload.get("positionality", []):
        project.positionality.append(PositionalityStatement(**statement))
    project.ethics_plan = payload.get("ethics_plan", {})
    return project


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.recommendations import audit_project
    from repro.ethics.irb import default_checklist

    payload = json.loads(Path(args.file).read_text(encoding="utf-8"))
    project = _project_from_json(payload)
    audit = audit_project(project)
    print(f"project: {project.name}")
    print(f"  partnerships:  {audit.partnerships.score:.2f}")
    print(f"  conversations: {audit.conversations.score:.2f}")
    print(f"  positionality: {audit.positionality.score:.2f}")
    print(f"  overall:       {audit.overall:.2f}")
    for finding in audit.all_findings():
        print(f"  finding: {finding}")

    if project.ethics_plan:
        result = default_checklist().evaluate(project.ethics_plan)
        status = "APPROVED" if result.approved else "NOT APPROVED"
        print(f"\nethics checklist: {status}")
        for item_id in result.failed:
            print(f"  failed:      {item_id}")
        for item_id in result.unaddressed:
            print(f"  unaddressed: {item_id}")
    else:
        print("\nethics checklist: no ethics_plan in record (skipped)")
    return 0 if audit.overall >= args.threshold else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Human-centered networking research toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments",
        aliases=["run"],
        help="list or run the E1-E13 experiment suite",
    )
    experiments.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    experiments.add_argument("--list", action="store_true", help="list and exit")
    experiments.add_argument(
        "--all", action="store_true",
        help="run the whole suite (explicit form of passing no ids)",
    )
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--full", action="store_true", help="full problem sizes (slower)"
    )
    experiments.add_argument(
        "--keep-going", action="store_true",
        help="record a crashing experiment and run the rest (exit non-zero)",
    )
    experiments.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed experiment up to N times with backoff",
    )
    experiments.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-experiment wall-clock deadline across its attempts",
    )
    experiments.add_argument(
        "--checkpoint", metavar="PATH",
        help="JSONL checkpoint file; completed experiments are skipped on rerun",
    )
    experiments.add_argument(
        "--json-summary", metavar="PATH",
        help="write a machine-readable run summary ('-' for stdout)",
    )
    experiments.add_argument(
        "--trace-out", metavar="PATH",
        help="export a JSONL trace of suite/experiment/attempt/stage spans",
    )
    experiments.add_argument(
        "--metrics-out", metavar="PATH",
        help="write runner and I/O metrics (counters/gauges/histograms) as JSON",
    )
    experiments.add_argument(
        "--profile-out", metavar="DIR",
        help="dump a cProfile capture per experiment into DIR (<id>.pstats)",
    )
    experiments.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run experiments on N worker processes (1 = in-process); "
        "output is deterministic and identical to a sequential run",
    )
    experiments.add_argument(
        "--cache-dir", metavar="DIR",
        help="on-disk artifact cache shared by workers and across runs "
        "(default: a throwaway directory when --workers > 1)",
    )
    experiments.add_argument(
        "--max-worker-crashes", type=int, default=2, metavar="N",
        help="quarantine an experiment after it kills N consecutive pool "
        "workers instead of requeueing it again (parallel runs)",
    )
    experiments.add_argument(
        "--no-degrade", action="store_true",
        help="never fall back to sequential in-process execution when the "
        "worker pool keeps breaking; keep rebuilding pools instead",
    )
    experiments.add_argument(
        "--set", action="append", metavar="KEY=VALUE", default=[],
        help="override a typed spec field (repeatable; dotted paths reach "
        "nested blocks, e.g. corpus.start_year=2010)",
    )
    experiments.set_defaults(func=_cmd_experiments)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a parameter grid over one experiment's typed spec",
    )
    sweep.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment id (optional when the grid file names one)",
    )
    sweep.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2,...", default=[],
        help="one sweep axis (repeatable); the run is the cross product",
    )
    sweep.add_argument(
        "--grid-file", metavar="PATH",
        help="JSON grid file: {experiment, grid, preset, base}",
    )
    sweep.add_argument(
        "--preset", choices=["fast", "full"], default=None,
        help="base preset the grid perturbs (default: fast)",
    )
    sweep.add_argument(
        "--set", action="append", metavar="KEY=VALUE", default=[],
        help="fixed override applied to every point (repeatable)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run points on N worker processes (1 = in-process)",
    )
    sweep.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a failed point up to N times with backoff",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock deadline across its attempts",
    )
    sweep.add_argument(
        "--results-dir", metavar="DIR",
        help="write <experiment>-<hash>/ result.txt + record.json per point",
    )
    sweep.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact cache; finished points are memoized by config hash "
        "and replayed on re-run",
    )
    sweep.add_argument(
        "--json-summary", metavar="PATH",
        help="write a machine-readable sweep summary ('-' for stdout)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = subparsers.add_parser(
        "serve",
        help="run the fault-tolerant HTTP result service over a cache",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8737,
        help="bind port (0 picks a free one)",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes per background compute job",
    )
    serve.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact cache to serve (shared with repro sweep; "
        "default: a throwaway directory)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="admission-control bound; extra requests are shed with 429",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="per-request budget; cold requests still computing get 503",
    )
    serve.add_argument(
        "--retry-after", type=float, default=2.0, metavar="SECONDS",
        help="Retry-After suggested on 429/503 responses",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive compute failures that trip a key's circuit",
    )
    serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="how long a tripped circuit rejects before a probe retry",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="graceful-drain budget for in-flight requests and jobs",
    )
    serve.add_argument(
        "--access-log", metavar="PATH",
        help="append one structured JSONL row per request (request id, "
        "route, status, duration, config hash, cache source)",
    )
    serve.set_defaults(func=_cmd_serve)

    bench = subparsers.add_parser(
        "bench",
        help="measure named hot paths and gate them against the ledger",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    default_ledger = "benchmarks/results/BENCH_history.json"
    bench_run = bench_sub.add_parser(
        "run",
        help="measure hot paths (scanner, tfidf, suite, serve_p95, "
        "synthgen, corpus_scan, scrub) and append normalized records "
        "to the ledger",
    )
    bench_run.add_argument(
        "names", nargs="*",
        help="hot paths to measure (default: all of them)",
    )
    bench_run.add_argument(
        "--ledger", metavar="PATH", default=default_ledger,
        help=f"ledger file to append to (default: {default_ledger})",
    )
    bench_run.add_argument(
        "--repeats", type=int, default=5, metavar="N",
        help="micro hot paths record the minimum over N runs",
    )
    bench_run.set_defaults(func=_cmd_bench)
    bench_report = bench_sub.add_parser(
        "report", help="render the ledger's per-hot-path trajectory"
    )
    bench_report.add_argument("names", nargs="*", help="filter to these benches")
    bench_report.add_argument(
        "--ledger", metavar="PATH", default=default_ledger,
        help=f"ledger file to read (default: {default_ledger})",
    )
    bench_report.set_defaults(func=_cmd_bench)
    bench_gate = bench_sub.add_parser(
        "gate",
        help="fail (exit 1) when a named hot path's newest ledger entry "
        "regressed beyond the threshold",
    )
    bench_gate.add_argument(
        "names", nargs="*",
        help="hot paths to gate (default: every bench in the ledger)",
    )
    bench_gate.add_argument(
        "--ledger", metavar="PATH", default=default_ledger,
        help=f"ledger file to read (default: {default_ledger})",
    )
    bench_gate.add_argument(
        "--threshold", type=float, default=0.20, metavar="FRACTION",
        help="fail when latest > (1 + FRACTION) x baseline (default 0.20)",
    )
    bench_gate.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="baseline = median of the last N prior entries",
    )
    bench_gate.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable gate report",
    )
    bench_gate.set_defaults(func=_cmd_bench)

    obs = subparsers.add_parser(
        "obs", help="observability reports over exported traces"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="per-experiment stage-time breakdown from a --trace-out file",
    )
    obs_report.add_argument("trace", help="trace file written by --trace-out")
    obs_report.add_argument(
        "--top", type=int, default=5, metavar="N",
        help="how many slowest stages to show",
    )
    obs_report.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report instead of tables",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    corpus = subparsers.add_parser(
        "corpus", help="generate the synthetic venue corpus, or export/"
        "import tagged verified snapshots of it"
    )
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)

    corpus_gen = corpus_sub.add_parser(
        "generate",
        help="generate the corpus (JSONL dump, or sharded columnar at "
        "scale with --papers)",
    )
    corpus_gen.add_argument(
        "output", nargs="?", default=None,
        help="output directory (JSONL dump; optional with --papers)",
    )
    corpus_gen.add_argument("--start-year", type=int, default=2000)
    corpus_gen.add_argument("--end-year", type=int, default=2025)
    corpus_gen.add_argument("--seed", type=int, default=0)
    corpus_gen.add_argument(
        "--papers", type=int, default=None,
        help="total papers: write cached shards and a manifest instead "
        "of the JSONL dump",
    )
    corpus_gen.add_argument(
        "--workers", type=int, default=1,
        help="shard-generation worker processes (never changes the output)",
    )
    corpus_gen.add_argument(
        "--shard-size", type=int, default=25000,
        help="papers per shard (part of corpus identity)",
    )
    corpus_gen.add_argument(
        "--stream", action="store_true",
        help="keep at most one shard in RAM (needs a cache dir)",
    )
    corpus_gen.add_argument(
        "--cache-dir", default=None,
        help="artifact cache shards stream through "
        "(default: <output>/shards when output is given)",
    )
    corpus_gen.set_defaults(func=_cmd_corpus)

    corpus_export = corpus_sub.add_parser(
        "export",
        help="write a tagged, content-addressed, self-verifying corpus "
        "snapshot directory",
    )
    corpus_export.add_argument("directory", help="snapshot directory to create")
    corpus_export.add_argument(
        "--tag", required=True,
        help="snapshot tag recorded (and digest-protected) in the manifest",
    )
    corpus_export.add_argument("--start-year", type=int, default=2000)
    corpus_export.add_argument("--end-year", type=int, default=2025)
    corpus_export.add_argument("--seed", type=int, default=0)
    corpus_export.add_argument(
        "--papers", type=int, default=100_000,
        help="total papers in the snapshotted corpus",
    )
    corpus_export.add_argument(
        "--shard-size", type=int, default=25000,
        help="papers per shard (part of corpus identity)",
    )
    corpus_export.add_argument(
        "--workers", type=int, default=1,
        help="shard-generation worker processes (never changes the bytes)",
    )
    corpus_export.add_argument(
        "--cache-dir", default=None,
        help="warm artifact cache to replay shards from instead of "
        "regenerating",
    )
    corpus_export.add_argument(
        "--force", action="store_true",
        help="overwrite an existing snapshot manifest",
    )
    corpus_export.set_defaults(func=_cmd_corpus_export)

    corpus_import = corpus_sub.add_parser(
        "import",
        help="verify a snapshot end-to-end (manifest self-digest, object "
        "digests, shard fingerprints) and optionally hydrate a cache",
    )
    corpus_import.add_argument("directory", help="snapshot directory to verify")
    corpus_import.add_argument(
        "--cache-dir", default=None,
        help="also land every verified shard in this artifact cache so "
        "generators replay the snapshot warm",
    )
    corpus_import.set_defaults(func=_cmd_corpus_import)

    integrity = subparsers.add_parser(
        "integrity",
        help="verify and repair the on-disk data plane (artifact caches)",
    )
    integrity_sub = integrity.add_subparsers(
        dest="integrity_command", required=True
    )
    integrity_scrub = integrity_sub.add_parser(
        "scrub",
        help="walk a cache verifying every entry end-to-end; classify "
        "damage, optionally repair it (exit 1 on unrepaired damage)",
    )
    integrity_scrub.add_argument(
        "cache_dir", help="artifact cache directory to scrub"
    )
    integrity_scrub.add_argument(
        "--repair", action="store_true",
        help="heal findings: regenerate damaged corpus shards "
        "byte-identically from their header config, delete the rest "
        "down to a clean miss",
    )
    integrity_scrub.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable scrub report",
    )
    integrity_scrub.set_defaults(func=_cmd_integrity_scrub)

    cache = subparsers.add_parser(
        "cache", help="inspect an artifact cache without reading bodies"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_ls = cache_sub.add_parser(
        "ls", help="list entries (kind, key, size, age)"
    )
    cache_ls.add_argument("cache_dir", help="artifact cache directory")
    cache_ls.set_defaults(func=_cmd_cache)
    cache_stats = cache_sub.add_parser(
        "stats", help="per-kind entry/byte rollup plus orphaned-tmp count"
    )
    cache_stats.add_argument("cache_dir", help="artifact cache directory")
    cache_stats.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable rollup",
    )
    cache_stats.set_defaults(func=_cmd_cache)

    detect = subparsers.add_parser(
        "detect", help="detect method mentions in a text file"
    )
    detect.add_argument("file", help="plain-text file to scan")
    detect.set_defaults(func=_cmd_detect)

    audit = subparsers.add_parser(
        "audit", help="audit a research-project JSON record (Section 5)"
    )
    audit.add_argument("file", help="project record (JSON)")
    audit.add_argument(
        "--threshold", type=float, default=0.0,
        help="exit non-zero when the overall score is below this",
    )
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.errors import IntegrityError, SpecError

    try:
        return args.func(args)
    except SpecError as exc:
        # Bad --set/--grid input is a usage error: one actionable line
        # (the message names the spec class and its valid fields), no
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        # Damaged or tampered data (a failed snapshot import, a strict
        # verify) is a data error, not a usage error: the typed one-line
        # message says exactly what failed to hold, no traceback.
        print(f"integrity error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped to a consumer (head, less) that closed early.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
