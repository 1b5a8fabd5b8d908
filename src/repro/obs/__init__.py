"""Observability: tracing, metrics, profiling, and trace reports.

The perf spine of the toolkit — every future "make it faster" claim is
measured through this package:

- :mod:`repro.obs.tracing` -- hierarchical :class:`Span` trees with
  monotonic timings, attributes, and error capture; JSONL export via
  the atomic-write path.  Off by default through a shared
  :class:`NullTracer` (one attribute lookup, zero allocation).
- :mod:`repro.obs.metrics` -- named counters, gauges, and fixed-bucket
  histograms with an associative snapshot/merge API and plain-text /
  JSON renderers.  Off by default through :class:`NullMetrics`.
- :mod:`repro.obs.profiler` -- opt-in per-experiment ``cProfile``
  capture (``--profile-out``).
- :mod:`repro.obs.report` -- the ``repro obs report`` backend: stage
  time breakdowns, the critical path, slowest stages, and retry
  histograms from an exported trace.

Instrumented call sites (the suite runner, the experiment registry's
stage decorator, JSONL I/O) consult :func:`current_tracer` /
:func:`current_metrics`; install real collectors with
:func:`use_tracer` / :func:`use_metrics` or the CLI's ``--trace-out`` /
``--metrics-out`` flags.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    current_metrics,
    labeled,
    merge_snapshots,
    percentile,
    render_prometheus,
    sanitize_metric_name,
    use_metrics,
)
from repro.obs.profiler import profile_call, profile_to
from repro.obs.report import build_report, load_trace, render_report
from repro.obs.tracing import (
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "Span",
    "Tracer",
    "build_report",
    "current_metrics",
    "current_tracer",
    "labeled",
    "load_trace",
    "merge_snapshots",
    "percentile",
    "profile_call",
    "profile_to",
    "render_prometheus",
    "render_report",
    "sanitize_metric_name",
    "use_metrics",
    "use_tracer",
]
