"""Hierarchical tracing with zero-cost opt-out.

A :class:`Tracer` records :class:`Span` trees — named, monotonic-clocked
intervals with attributes and error capture — and exports them as JSONL
through the same atomic-write path every other dataset uses
(:func:`repro.io.jsonl.write_jsonl`).  The default tracer is a
:class:`NullTracer` whose ``span()`` returns one shared, inert context
manager, so instrumented call sites cost a single attribute lookup and
allocate nothing until someone opts in::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("e07.gravity_fit", seed=0) as span:
            fit()
            span.set_attribute("iterations", 12)
    tracer.export("trace.jsonl")

Span ids are sequential integers and parentage comes from a stack, so a
seeded run produces the same span structure every time; only the
timings vary (and those are injectable for tests via ``clock=``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

__all__ = [
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
]


class Span:
    """One named, timed interval in a trace tree.

    Created by :meth:`Tracer.span`; used as a context manager.  On exit
    the span captures its end time and, when the block raised, the
    exception type and message (``status="error"``) — the exception
    still propagates.
    """

    __slots__ = (
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "error",
        "error_type",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.start: float | None = None
        self.end: float | None = None
        self.status = "ok"
        self.error: str | None = None
        self.error_type: str | None = None

    @property
    def duration(self) -> float:
        """Seconds between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set_attribute(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute on the span."""
        self.attributes[key] = value

    def to_record(self) -> dict:
        """The JSONL representation of a finished span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "error_type": self.error_type,
            "attributes": self.attributes,
        }

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.status = "error"
            self.error = str(exc)
            self.error_type = exc_type.__name__
        self._tracer._close(self)
        return False


class Tracer:
    """Collects spans into a tree; exports them as JSONL.

    Args:
        clock: Monotonic clock used for span timings (injectable so
            tests can assert exact durations with a fake clock).

    Attributes:
        enabled: True — instrumentation sites may check this to skip
            expensive attribute computation.
        finished: Closed spans, in completion order.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._stack: list[Span] = []
        self._next_id = 1
        self.finished: list[Span] = []

    def span(self, name: str, **attributes) -> Span:
        """A new span context manager; nesting follows ``with`` blocks.

        Parentage crosses threads: the suite runner's deadline worker
        opens its spans under whatever span the coordinating thread has
        open, which is exactly the tree a trace reader wants.
        """
        return Span(self, name, attributes)

    def _open(self, span: Span) -> None:
        span.start = self._clock()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            if self._stack:
                span.parent_id = self._stack[-1].span_id
            self._stack.append(span)

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        with self._lock:
            # Truncate at this span: children abandoned by a hung or
            # killed worker thread must not become parents of later,
            # unrelated spans.
            try:
                index = self._stack.index(span)
            except ValueError:
                pass  # already evicted by an ancestor's close
            else:
                del self._stack[index:]
            self.finished.append(span)

    def adopt(self, records: list[dict], parent_id: int | None = None) -> int:
        """Graft exported span records from another tracer into this one.

        The suite runner uses this to re-parent a worker process's span
        shard under the parent's suite span: every record gets a fresh
        id from this tracer's sequence, parent links *within* the shard
        are remapped to the new ids, and the shard's roots are attached
        to ``parent_id``.  Records are adopted in order, so adopting the
        same shards in the same order yields the same ids.

        Returns the number of spans adopted.
        """
        with self._lock:
            id_map: dict[int, int] = {}
            for record in records:
                id_map[record["span_id"]] = self._next_id
                self._next_id += 1
        for record in records:
            span = Span(self, record["name"], dict(record["attributes"]))
            span.span_id = id_map[record["span_id"]]
            old_parent = record["parent_id"]
            span.parent_id = id_map.get(old_parent, parent_id)
            span.start = record["start"]
            span.end = record["end"]
            span.status = record["status"]
            span.error = record["error"]
            span.error_type = record["error_type"]
            with self._lock:
                self.finished.append(span)
        return len(records)

    def export(self, path) -> int:
        """Write finished spans to ``path`` as JSONL; returns the count.

        Uses the atomic :func:`repro.io.jsonl.write_jsonl` path, so a
        killed process never leaves a torn trace.
        """
        # Imported lazily: repro.io.jsonl counts its rows through
        # repro.obs.metrics, and a module-level import here would close
        # that cycle.
        from repro.io.jsonl import write_jsonl

        return write_jsonl(path, (span.to_record() for span in self.finished))


class _NullSpan:
    """The shared, inert span the :class:`NullTracer` hands out."""

    __slots__ = ()

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing default tracer.

    ``span()`` returns one shared, inert object, so tracing that
    nobody asked for costs an attribute lookup and a method call —
    no allocation, no lock, no clock read.
    """

    enabled = False

    def span(self, name: str, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def adopt(self, records: list[dict], parent_id: int | None = None) -> int:
        """Discard ``records`` — nothing collects spans nobody asked for."""
        return 0


#: The tracer instrumented call sites consult: scoped like every other
#: ambient setting (see :func:`use_tracer`).
_tracer: ContextVar[Tracer | NullTracer] = ContextVar(
    "tracer", default=NullTracer()
)


def current_tracer() -> Tracer | NullTracer:
    """The tracer in effect (a :class:`NullTracer` by default)."""
    return _tracer.get()


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` for the duration of the ``with`` block.

    The setting is scoped to the current thread (and context); the
    previous tracer is back on exit.
    """
    token = _tracer.set(tracer)
    try:
        yield tracer
    finally:
        _tracer.reset(token)
