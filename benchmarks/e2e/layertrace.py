"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark never edits the program to time it.  Instead,
:class:`LayerTracer` wraps a fixed list of *public* functions — one or
more per layer — for the duration of a traced run:

- every ``repro.*`` module attribute bound to a listed function object
  is replaced by a wrapper, so ``from x import f`` call sites are
  covered as well as ``x.f`` ones; class attributes are replaced on
  the defining class.  :meth:`LayerTracer.uninstall` puts every
  original back.  A name that no longer exists is skipped with a
  warning on stderr, so a later refactor degrades the trace instead of
  breaking the benchmark.
- each wrapper opens a span through :func:`repro.obs.current_tracer`.
  The suite runner's pool workers install their own tracer and ship
  their spans back through the runner's existing adopt path.  A span
  closed in a *forked* process whose ambient tracer is still this
  process's (the corpus generator's shard pool) is spilled to
  ``<spill_dir>/spans-<pid>.jsonl`` and adopted afterwards by
  :meth:`LayerTracer.adopt_spills`.

:func:`exclusive_times` turns a span forest into per-span exclusive
time, and :func:`layer_metrics` folds those into the benchmark's
per-layer metric names.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable

#: Span name of one measured unit of a workload (a suite pass, a corpus
#: pass, a serve window); the root every layer share is computed under.
UNIT_SPAN = "bench.unit"


def _papers(args, kwargs, result) -> dict:
    return {"papers": len(result[0])}


def _hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _truthy(args, kwargs, result) -> dict:
    return {"hit": bool(result)}


#: ``(module, attribute, span name, attribute hook)`` for every wrapped
#: public function.  ``attribute`` may be ``Class.method``.  The span
#: name's first dotted component is the layer.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.bibliometrics.synthgen", "generate_corpus",
     "synthgen.generate_corpus", _papers),
    ("repro.bibliometrics.shardgen", "generate_columnar_corpus",
     "shardgen.generate_columnar_corpus", None),
    ("repro.bibliometrics.shardgen", "generate_shard",
     "shardgen.generate_shard", None),
    ("repro.bibliometrics.columnar", "encode_shard",
     "columnar.encode_shard", None),
    ("repro.bibliometrics.columnar", "decode_shard",
     "columnar.decode_shard", None),
    ("repro.bibliometrics.columnarize", "columnarize_corpus",
     "columnarize.columnarize_corpus", None),
    ("repro.bibliometrics.corpus", "Corpus.from_records",
     "corpus.from_records", None),
    ("repro.io.artifacts", "ArtifactCache.get", "artifacts.get", _hit),
    ("repro.io.artifacts", "ArtifactCache.put", "artifacts.put", None),
    ("repro.experiments._corpus", "shared_corpus_from_config",
     "corpus_cache.shared_corpus", None),
    ("repro.experiments._corpus", "shared_columnar_corpus_from_config",
     "corpus_cache.shared_columnar", None),
    ("repro.experiments._corpus", "shared_aggregates_from_config",
     "corpus_cache.shared_aggregates", None),
    ("repro.bibliometrics.methods_detect", "classify_text",
     "methods_detect.classify_text", None),
    ("repro.core.positionality", "has_positionality_statement",
     "positionality.has_statement", _truthy),
    ("repro.bibliometrics.shardscan", "scan_shard", "shardscan.scan_shard", None),
    ("repro.bibliometrics.shardscan", "CorpusAggregates.merge",
     "shardscan.merge", None),
    ("repro.runtime.runner", "SuiteRunner.run_points",
     "runtime.run_points", None),
    ("repro.experiments.registry", "make_spec", "serve.make_spec", None),
    ("repro.serve.http", "json_response", "serve.json_response", None),
    ("repro.serve.http", "Response.encode", "serve.encode", None),
    ("repro.serve.jobs", "compute_experiment_rows", "serve.compute", None),
)

#: Spans the program emits itself, mapped onto the benchmark's layers.
_PROGRAM_LAYERS = {
    "suite": "runtime",
    "experiment": "runtime",
    "attempt": "runtime",
    "pool_rebuild": "runtime",
    "worker_crash": "runtime",
    "quarantine": "runtime",
    "degrade": "runtime",
    "serve.request": "serve",
}
_STAGE_SPAN = re.compile(r"^e(\d+)\.run$")


def experiment_targets() -> list[tuple[str, str, str, None]]:
    """One target per registered experiment: its module's ``run``."""
    from repro.experiments.registry import all_experiments, spec_class

    return [
        (spec_class(experiment_id).__module__, "run",
         f"experiments.{experiment_id}", None)
        for experiment_id in all_experiments()
    ]


def layer_of(name: str) -> str:
    """The layer a span name belongs to (``unattributed`` for unit roots)."""
    if name == UNIT_SPAN:
        return "unattributed"
    if name in _PROGRAM_LAYERS:
        return _PROGRAM_LAYERS[name]
    stage = _STAGE_SPAN.match(name)
    if stage:
        return f"experiments.E{int(stage.group(1))}"
    if name.startswith("experiments."):
        return name
    return name.split(".", 1)[0]


def _resolve(module_name: str, attribute: str):
    """``(owner, name, raw)`` for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if raw is None:
        return None
    return owner, name, raw


class LayerTracer:
    """Wrap the layer functions; spill spans closed in forked children.

    Args:
        tracer: The :class:`repro.obs.Tracer` this process installs.
        spill_dir: Where forked children spill their spans.
        targets: Functions to wrap (default: :data:`TARGETS` plus every
            experiment's ``run``).
    """

    def __init__(self, tracer, spill_dir, targets=None) -> None:
        self.tracer = tracer
        self.spill_dir = Path(spill_dir)
        self.targets = list(targets) if targets is not None else (
            list(TARGETS) + experiment_targets()
        )
        self.pid = os.getpid()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def install(self) -> "LayerTracer":
        import repro

        # Every repro module must be imported before patching, or a
        # module imported later would bind the unwrapped function.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        modules = [
            module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro.")) and module is not None
        ]
        for module_name, attribute, span_name, hook in self.targets:
            resolved = _resolve(module_name, attribute)
            if resolved is None:
                print(f"trace: skipping missing {module_name}.{attribute}",
                      file=sys.stderr)
                continue
            owner, name, raw = resolved
            if isinstance(owner, type):
                self._patch_class(owner, name, raw, span_name, hook)
            else:
                wrapper = self._wrap(raw, span_name, hook)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._restore.append((module, key, raw))
                            setattr(module, key, wrapper)
        return self

    def _patch_class(self, owner, name, raw, span_name, hook) -> None:
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrap(raw.__func__, span_name, hook))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self._wrap(raw.__func__, span_name, hook))
        else:
            patched = self._wrap(raw, span_name, hook)
        self._restore.append((owner, name, raw))
        setattr(owner, name, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, span_name: str, hook):
        from repro.obs import current_tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer = current_tracer()
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.span(span_name)
            try:
                with span:
                    result = fn(*args, **kwargs)
                if hook is not None:
                    span.attributes.update(hook(args, kwargs, result))
                return result
            finally:
                if tracer is self.tracer and os.getpid() != self.pid:
                    self._spill(span)

        return wrapper

    def _spill(self, span) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(span.to_record(), default=str) + "\n")

    def adopt_spills(self) -> int:
        """Graft every spilled span back under the span open at fork time."""
        adopted = 0
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            records = [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
            path.unlink()
            adopted += adopt_forest(self.tracer, records)
        return adopted


def adopt_forest(tracer, records: list[dict], parent_id: int | None = None) -> int:
    """Adopt exported spans, keeping each root's parent when it is known.

    Records from one process carry that process's ids.  A root whose
    parent lies outside the batch keeps that parent (a forked child
    inherits the span open at fork time) unless ``parent_id`` overrides
    it; :meth:`repro.obs.Tracer.adopt` remaps everything else.
    """
    by_id = {record["span_id"]: record for record in records}

    def anchor(record: dict) -> int | None:
        while record["parent_id"] in by_id:
            record = by_id[record["parent_id"]]
        return record["parent_id"]

    # One adopt call per external parent: a span and its in-batch
    # parent always share an anchor, so in-batch links stay intact.
    groups: dict[int | None, list[dict]] = defaultdict(list)
    for record in records:
        groups[anchor(record) if parent_id is None else parent_id].append(record)
    return sum(
        tracer.adopt(batch, parent_id=external) for external, batch in groups.items()
    )


def adopt_into_units(tracer, records: list[dict], units) -> int:
    """Adopt another process's spans under the unit spans they overlap.

    The server runs in its own process, so its span trees have no
    parent here; each tree goes under the unit whose interval holds
    the tree root's start (one monotonic clock serves every process).
    Trees outside every unit — warm-up requests, metric scrapes — are
    dropped.
    """
    by_id = {record["span_id"]: record for record in records}

    def root(record: dict) -> dict:
        while record["parent_id"] in by_id:
            record = by_id[record["parent_id"]]
        return record

    adopted = 0
    for unit in units:
        batch = [
            record for record in records
            if unit.start <= root(record)["start"] <= unit.end
        ]
        adopted += adopt_forest(tracer, batch, parent_id=unit.span_id)
    return adopted


def exclusive_times(records: list[dict], root_name: str = UNIT_SPAN) -> dict[int, float]:
    """Exclusive seconds of every span inside the ``root_name`` subtrees.

    A span's exclusive time is its duration minus the part of that
    interval its child spans cover.  Where children overlap — pool
    workers running side by side — each instant is split evenly among
    the innermost spans active at that instant, so the exclusive times
    of one root's subtree always sum to exactly that root's duration.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for record in records:
        if record["parent_id"] is not None:
            children[record["parent_id"]].append(record)
    result: dict[int, float] = {}
    for root in records:
        if root["name"] != root_name:
            continue
        subtree = [root]
        parent_of = {root["span_id"]: None}
        stack = [root]
        while stack:
            node = stack.pop()
            for child in children.get(node["span_id"], ()):
                if child["span_id"] not in parent_of:
                    parent_of[child["span_id"]] = node["span_id"]
                    subtree.append(child)
                    stack.append(child)
        lo, hi = root["start"], root["end"]
        events = []
        for span in subtree:
            start = min(max(span["start"], lo), hi)
            end = min(max(span["end"], start), hi)
            # Ends sort before starts at the same instant; parents open
            # before their children and close after them.
            events.append((start, 1, span["span_id"]))
            events.append((end, 0, span["span_id"]))
        events.sort(key=lambda e: (e[0], e[1]))
        active_children: dict[int, int] = defaultdict(int)
        active: set[int] = set()
        frontier: set[int] = set()
        now = lo
        for time_point, kind, span_id in events:
            if frontier and time_point > now:
                share = (time_point - now) / len(frontier)
                for member in frontier:
                    result[member] = result.get(member, 0.0) + share
            now = max(now, time_point)
            parent = parent_of[span_id]
            if kind == 1:
                active.add(span_id)
                frontier.add(span_id)
                if parent in active:
                    active_children[parent] += 1
                    frontier.discard(parent)
            else:
                active.discard(span_id)
                frontier.discard(span_id)
                if parent in active:
                    active_children[parent] -= 1
                    if active_children[parent] == 0:
                        frontier.add(parent)
        for span in subtree:
            result.setdefault(span["span_id"], 0.0)
    return result


def layer_table(records: list[dict]) -> dict[str, dict]:
    """``{layer: {"self_s", "calls"}}`` over all measured units."""
    exclusive = exclusive_times(records)
    table: dict[str, dict] = {}
    for record in records:
        if record["span_id"] not in exclusive:
            continue
        row = table.setdefault(layer_of(record["name"]), {"self_s": 0.0, "calls": 0})
        row["self_s"] += exclusive[record["span_id"]]
        row["calls"] += 1
    return table


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(records: list[dict], counters: dict[str, float],
                  experiment_ids: list[str]) -> dict[str, float]:
    """The benchmark's per-layer metric values from one traced run.

    ``records`` are the run's finished spans (server spans carry
    ``proc="serve"``); ``counters`` are the run's metric counters
    (``artifacts.*``, ``runner.*``) and scraped ``serve.*`` deltas.
    """
    exclusive = exclusive_times(records)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for record in records:
        if record["span_id"] in exclusive:
            by_name[record["name"]].append(record)

    def self_s(*names: str) -> float:
        return sum(exclusive[r["span_id"]] for n in names for r in by_name[n])

    def calls(name: str) -> int:
        return len(by_name[name])

    def hits(name: str) -> int:
        return sum(bool(r["attributes"].get("hit")) for r in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def served(name: str) -> list[dict]:
        return [r for r in by_name[name] if r["attributes"].get("proc") == "serve"]

    corpus_loads = [
        r for name in ("corpus_cache.shared_corpus", "corpus_cache.shared_columnar",
                       "corpus_cache.shared_aggregates")
        for r in by_name[name]
    ]
    parents = {r["parent_id"] for r in records}
    memory_hits = sum(r["span_id"] not in parents for r in corpus_loads)
    units = by_name[UNIT_SPAN]
    wall = sum(r["end"] - r["start"] for r in units)
    metrics = {
        "synthgen.self_s": self_s("synthgen.generate_corpus"),
        "synthgen.papers": sum(
            r["attributes"].get("papers", 0) for r in by_name["synthgen.generate_corpus"]
        ),
        "shardgen.self_s": self_s("shardgen.generate_columnar_corpus",
                                  "shardgen.generate_shard"),
        "shardgen.shards": calls("shardgen.generate_shard"),
        "shardgen.shard_p50_s": _median(
            [r["end"] - r["start"] for r in by_name["shardgen.generate_shard"]]
        ),
        "columnar.encode_s": self_s("columnar.encode_shard"),
        "artifacts.get_s": self_s("artifacts.get"),
        "artifacts.put_s": self_s("artifacts.put"),
        "artifacts.gets": calls("artifacts.get"),
        "artifacts.puts": calls("artifacts.put"),
        "artifacts.hit_ratio": ratio(hits("artifacts.get"), calls("artifacts.get")),
        "artifacts.integrity_failures": counters.get("artifacts.integrity_failures", 0),
        "artifacts.lock_timeouts": counters.get("artifacts.lock_timeouts", 0),
        "columnar.decode_s": self_s("columnar.decode_shard"),
        "columnar.decoded_shards": calls("columnar.decode_shard"),
        "corpus.from_records_s": self_s("corpus.from_records"),
        "corpus_cache.load_s": self_s("corpus_cache.shared_corpus",
                                      "corpus_cache.shared_columnar",
                                      "corpus_cache.shared_aggregates"),
        "corpus_cache.memory_hit_ratio": ratio(memory_hits, len(corpus_loads)),
        "columnarize.self_s": self_s("columnarize.columnarize_corpus"),
        "methods_detect.classify_s": self_s("methods_detect.classify_text"),
        "methods_detect.classify_calls": calls("methods_detect.classify_text"),
        "positionality.detect_s": self_s("positionality.has_statement"),
        "positionality.detect_calls": calls("positionality.has_statement"),
        "positionality.hit_ratio": ratio(hits("positionality.has_statement"),
                                         calls("positionality.has_statement")),
        "shardscan.scan_s": self_s("shardscan.scan_shard"),
        "shardscan.merge_s": self_s("shardscan.merge"),
    }
    for experiment_id in experiment_ids:
        stage = f"e{int(experiment_id[1:]):02d}.run"
        metrics[f"experiments.{experiment_id}.self_s"] = self_s(
            f"experiments.{experiment_id}", stage
        )
    metrics.update({
        "runtime.overhead_s": self_s("runtime.run_points", *[
            name for name, layer in _PROGRAM_LAYERS.items() if layer == "runtime"
        ]),
        "runtime.retries": counters.get("runner.retries", 0),
        "runtime.worker_crashes": counters.get("runner.worker_crashes", 0),
        "serve.request_p50_ms": 1000.0 * _median(
            [r["end"] - r["start"] for r in served("serve.request")]
        ),
        "serve.spec_s": sum(exclusive[r["span_id"]] for r in served("serve.make_spec")),
        "serve.lookup_s": sum(exclusive[r["span_id"]] for r in served("artifacts.get")),
        "serve.encode_s": sum(
            exclusive[r["span_id"]]
            for name in ("serve.json_response", "serve.encode")
            for r in served(name)
        ),
        # Inclusive: a miss's whole compute job, which is what competes
        # with hits for the interpreter.
        "serve.compute_s": sum(r["end"] - r["start"] for r in served("serve.compute")),
        "serve.hit_ratio": ratio(counters.get("serve.hits", 0),
                                 counters.get("serve.hits", 0) + counters.get("serve.misses", 0)),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.shed": counters.get("serve.shed", 0),
        "serve.deadline_503": counters.get("serve.deadline_timeouts", 0),
        "trace.wall_s": wall,
        "trace.unattributed_s": self_s(UNIT_SPAN),
    })
    return metrics
