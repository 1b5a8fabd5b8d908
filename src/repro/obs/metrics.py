"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` holds named instruments, snapshots to a
plain dict, and merges snapshots associatively — so per-shard (or
per-process) registries can be combined in any grouping and produce the
same totals.  Rendering goes through :mod:`repro.io.tables`, the same
renderer every other report in the toolkit uses, plus
:func:`render_prometheus` for the ``/metrics`` text exposition.

Instrument names are opaque strings to the registry.  By convention a
name may carry Prometheus-style labels — ``serve.request_seconds
{route="/v1/result/{id}",status="200"}`` — built with :func:`labeled`;
the JSON snapshot keeps the full key, and :func:`render_prometheus`
splits it back into a metric family plus a label set.

The default registry is a :class:`NullMetrics` whose every method
is a no-op, so instrumented hot paths (``read_jsonl`` row counting, the
suite runner's retry accounting) cost one lookup and one call until a
real registry is installed with :func:`use_metrics`.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

from repro.io.tables import render_table

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "current_metrics",
    "labeled",
    "merge_snapshots",
    "parse_metric_key",
    "percentile",
    "render_prometheus",
    "sanitize_metric_name",
    "use_metrics",
]

#: Default histogram bucket upper edges, in seconds — spans the
#: microbenchmark-to-suite range the experiment runtime produces.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increase the counter; negative amounts are rejected."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A named last-written value (None until first set)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value


class Histogram:
    """Fixed-bucket histogram with ``value <= edge`` bucket semantics.

    A value lands in the first bucket whose upper edge is >= the value
    (so a value exactly on an edge belongs to that edge's bucket), or
    in the overflow bucket past the last edge.  ``counts`` therefore
    has ``len(buckets) + 1`` cells.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        edges = tuple(buckets)
        if not edges:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket edge")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} bucket edges must be strictly increasing: "
                f"{edges}"
            )
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Estimate the ``fraction``-quantile from the bucket counts.

        Standard fixed-bucket estimator (what a Prometheus
        ``histogram_quantile`` does): find the bucket the target rank
        falls in, then interpolate linearly inside it, treating the
        first bucket's lower edge as 0.0.  Observations past the last
        edge cannot be located inside the overflow bucket, so the last
        edge is returned for ranks landing there — a deliberate
        underestimate rather than a guess.  Returns 0.0 when empty.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        cumulative = 0
        for index, cell in enumerate(self.counts):
            previous = cumulative
            cumulative += cell
            if cumulative >= rank and cell:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[index - 1] if index else 0.0
                hi = self.buckets[index]
                return lo + (hi - lo) * (max(0.0, rank - previous) / cell)
        return self.buckets[-1]


class MetricsRegistry:
    """Named instruments with a snapshot/merge API and two renderers.

    Thread-safe for the suite runner's worker threads: instrument
    creation is locked, and instrument updates are single bytecode-level
    mutations on plain ints/floats.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``, created on first use.

        The bucket edges are fixed at creation; a later caller passing
        different edges gets the original instrument unchanged.
        """
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, buckets)
            return self._histograms[name]

    # -- one-shot conveniences (the instrumentation-site API) ----------

    def count(self, name: str, amount: int = 1) -> None:
        """Shorthand: increment counter ``name``."""
        self.counter(name).add(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Shorthand: set gauge ``name``."""
        self.gauge(name).set(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Shorthand: record ``value`` into histogram ``name``."""
        self.histogram(name, buckets).observe(value)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, JSON-serializable copy of every instrument."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.sum,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histogram cells add; gauges take the incoming
        value when it is set (last-write-wins, which is associative).
        Histograms with the same name must share bucket edges.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for name, value in snapshot.get("gauges", {}).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, data["buckets"])
            if list(histogram.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket edges differ "
                    f"({list(histogram.buckets)} vs {list(data['buckets'])})"
                )
            for i, cell in enumerate(data["counts"]):
                histogram.counts[i] += cell
            histogram.count += data["count"]
            histogram.sum += data["sum"]

    # -- rendering -----------------------------------------------------

    def render_text(self) -> str:
        """All instruments as aligned plain-text tables."""
        snapshot = self.snapshot()
        parts = []
        if snapshot["counters"]:
            parts.append(render_table(
                ["counter", "value"],
                sorted(snapshot["counters"].items()),
                title="counters",
            ))
        if snapshot["gauges"]:
            parts.append(render_table(
                ["gauge", "value"],
                sorted(snapshot["gauges"].items()),
                title="gauges",
            ))
        if snapshot["histograms"]:
            rows = [
                [name, data["count"], data["sum"],
                 data["sum"] / data["count"] if data["count"] else 0.0]
                for name, data in sorted(snapshot["histograms"].items())
            ]
            parts.append(render_table(
                ["histogram", "count", "sum", "mean"], rows, title="histograms",
            ))
        if not parts:
            return "(no metrics recorded)"
        return "\n\n".join(parts)

    def render_json(self) -> str:
        """The snapshot as a stable, indented JSON document."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def write(self, path) -> None:
        """Write :meth:`render_json` to ``path`` (parents created)."""
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.render_json() + "\n", encoding="utf-8")


def merge_snapshots(*snapshots: dict) -> dict:
    """Merge snapshot dicts left-to-right; associative by construction."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge(snapshot)
    return merged.snapshot()


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (nearest-rank; 0 if empty).

    The one quantile definition the toolkit uses: the serve client's
    load reports, the benchmark harness, and ``repro obs report`` all
    call this, so a "p95" means the same thing everywhere.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


# ---------------------------------------------------------------------------
# Prometheus text exposition

#: Characters legal in an exposition metric name (labels have no colon).
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
#: One ``key="value"`` pair inside a labeled instrument key.
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def labeled(name: str, **labels: object) -> str:
    """An instrument key carrying Prometheus-style labels.

    ``labeled("serve.request_seconds", route="/v1/corpus", status=200)``
    → ``serve.request_seconds{route="/v1/corpus",status="200"}``.  The
    registry treats the whole string as an opaque key (so snapshot and
    merge just work); :func:`render_prometheus` splits it back apart.
    Labels are sorted so the same label set always produces the same
    key.
    """
    pairs = ",".join(
        f'{key}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{pairs}}}"


def parse_metric_key(key: str) -> tuple[str, list[tuple[str, str]]]:
    """Split an instrument key into (base name, label pairs).

    The inverse of :func:`labeled` (label values stay escaped, ready to
    re-emit); a key without a label block comes back with no labels.
    """
    if key.endswith("}") and "{" in key:
        base, _, rest = key.partition("{")
        return base, _LABEL_PAIR.findall(rest[:-1])
    return key, []


def sanitize_metric_name(name: str) -> str:
    """Map an instrument name onto the exposition grammar.

    Dots (and anything else outside ``[a-zA-Z0-9_:]``) become
    underscores — ``serve.request`` → ``serve_request`` — and a name
    that would start with a digit gains a leading underscore.
    """
    cleaned = _NAME_OK.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned or "_"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_block(pairs: list[tuple[str, str]], extra: str | None = None) -> str:
    rendered = [
        f'{_LABEL_NAME_OK.sub("_", key)}="{value}"' for key, value in pairs
    ]
    if extra is not None:
        rendered.append(extra)
    return "{" + ",".join(rendered) + "}" if rendered else ""


def render_prometheus(snapshot: dict) -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text exposition.

    Emits one ``# TYPE`` line per metric family (labeled variants of
    the same base name share it), sanitized names, and histograms in
    the exposition's cumulative form: ``_bucket`` series with ``le``
    upper-bound labels (including the ``+Inf`` overflow), plus ``_sum``
    and ``_count``.  Gauges that were never set are omitted — "no
    value" has no exposition representation.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def emit_type(family: str, kind: str) -> None:
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        base, pairs = parse_metric_key(key)
        family = sanitize_metric_name(base)
        emit_type(family, "counter")
        lines.append(f"{family}{_label_block(pairs)} {_format_value(value)}")

    for key, value in snapshot.get("gauges", {}).items():
        if value is None:
            continue
        base, pairs = parse_metric_key(key)
        family = sanitize_metric_name(base)
        emit_type(family, "gauge")
        lines.append(f"{family}{_label_block(pairs)} {_format_value(value)}")

    for key, data in snapshot.get("histograms", {}).items():
        base, pairs = parse_metric_key(key)
        family = sanitize_metric_name(base)
        emit_type(family, "histogram")
        cumulative = 0
        for edge, cell in zip(data["buckets"], data["counts"]):
            cumulative += cell
            block = _label_block(pairs, f'le="{edge:g}"')
            lines.append(f"{family}_bucket{block} {cumulative}")
        block = _label_block(pairs, 'le="+Inf"')
        lines.append(f"{family}_bucket{block} {data['count']}")
        labels = _label_block(pairs)
        lines.append(f"{family}_sum{labels} {_format_value(data['sum'])}")
        lines.append(f"{family}_count{labels} {data['count']}")

    return "\n".join(lines) + "\n" if lines else ""


class NullMetrics:
    """The do-nothing default registry.

    Instrumented call sites hit these no-ops until a real registry is
    installed, so always-on counting in hot paths stays free.
    """

    enabled = False

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        pass

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: dict) -> None:
        """Discard ``snapshot`` — worker shards merge into nothing when
        metrics were never requested."""


#: The registry instrumented call sites consult: scoped like every
#: other ambient setting (see :func:`use_metrics`).
_metrics: ContextVar[MetricsRegistry | NullMetrics] = ContextVar(
    "metrics", default=NullMetrics()
)


def current_metrics() -> MetricsRegistry | NullMetrics:
    """The registry in effect (:class:`NullMetrics` by default)."""
    return _metrics.get()


@contextmanager
def use_metrics(
    metrics: MetricsRegistry | NullMetrics,
) -> Iterator[MetricsRegistry | NullMetrics]:
    """Install ``metrics`` for the duration of the ``with`` block.

    The setting is scoped to the current thread (and context); the
    previous registry is back on exit.
    """
    token = _metrics.set(metrics)
    try:
        yield metrics
    finally:
        _metrics.reset(token)
