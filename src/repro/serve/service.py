"""The fault-tolerant result service.

``repro serve`` turns the compute stack into a long-lived process: a
stdlib-asyncio HTTP server whose GET endpoints are a *read-through*
view of the :class:`~repro.io.artifacts.ArtifactCache`.  A hit is
served straight from disk; a miss dispatches a supervised
:class:`~repro.runtime.runner.SuiteRunner` job through
:class:`~repro.serve.jobs.ComputeJobManager` and answers within the
request deadline — with the result if the job finishes in time,
otherwise with ``503 + Retry-After`` while the job keeps running, so
the retry lands on a warm cache.

The degradation ladder, from healthy to shedding:

1. **Hit** — ``200`` with ``ETag`` (the ``config_hash``); a matching
   ``If-None-Match`` short-circuits to ``304``.
2. **Miss, compute in time** — ``200``, result now cached.
3. **Miss, deadline first** — ``503 + Retry-After``; the job is
   *abandoned, not cancelled* and finishes in the background.
4. **Compute keeps failing** — the per-key circuit breaker trips;
   requests for that key get an immediate ``503 + Retry-After``
   without burning another doomed job.
5. **Saturated** — more than ``max_inflight`` requests in flight:
   admission control sheds with ``429 + Retry-After`` before any work
   happens.
6. **Draining** — SIGTERM: ``/readyz`` flips to ``503``, the listener
   closes, in-flight requests finish, background jobs get
   ``drain_timeout`` to checkpoint (their cache write *is* the
   checkpoint).

At every rung the process stays alive; a crashed compute worker is the
runner's problem (requeue → quarantine), never the server's.

Every request is counted (``serve.*``) and spanned (``serve.request``),
so the chaos tests can assert the contract — "exactly one compute job
for N coalesced requests" is a counter equality, not a log grep.  On
top of the counters, each request gets an ``X-Request-Id`` (generated,
or the client's own when sane), a per-route × per-status latency
histogram observation, and — when ``ServeConfig.access_log`` is set —
one structured JSONL access-log row carrying the request id, route,
status, duration, config hash, and cache source.  ``/metrics`` is
content-negotiated: ``Accept: text/plain`` returns the Prometheus text
exposition, anything else the JSON snapshot.
"""

from __future__ import annotations

import asyncio
import math
import random
import re
import signal
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Callable

from repro.errors import SpecError, UnknownExperimentError
from repro.io.artifacts import ArtifactCache, artifact_key
from repro.io.jsonl import append_jsonl
from repro.obs.metrics import (
    MetricsRegistry,
    labeled,
    render_prometheus,
    use_metrics,
)
from repro.obs.tracing import current_tracer, use_tracer
from repro.serve.http import (
    BadRequest,
    Request,
    Response,
    json_response,
    read_request,
)
from repro.serve.jobs import (
    CircuitBreaker,
    CircuitOpen,
    ComputeFailed,
    ComputeJobManager,
    compute_experiment_rows,
)

__all__ = [
    "CORPUS_STATS_KIND",
    "ResultServer",
    "ResultService",
    "ServeConfig",
    "ServerThread",
    "compute_corpus_stats",
    "route_template",
    "run_server",
]

#: Artifact-cache kind for the corpus analytics endpoint.
CORPUS_STATS_KIND = "corpus-stats"

#: Request ids a client may supply: sane length, log-safe alphabet.
_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def route_template(path: str) -> str:
    """Collapse a request path onto its route template.

    Per-route metrics must not key on raw paths — every distinct
    experiment id or config hash would mint a new histogram, and a
    hostile client could mint millions.  Parameterized segments
    collapse (``/v1/result/E7/abc123`` → ``/v1/result/{id}/{hash}``),
    the fixed endpoints map to themselves, and everything else —
    including every 404-bound probe — lands in one ``(unmatched)``
    bucket.
    """
    parts = [p for p in path.split("/") if p]
    if parts and parts[0] == "v1":
        if len(parts) == 3 and parts[1] == "result":
            return "/v1/result/{id}"
        if len(parts) == 4 and parts[1] == "result":
            return "/v1/result/{id}/{hash}"
        if len(parts) == 3 and parts[1] == "grid":
            return "/v1/grid/{id}"
        if len(parts) == 2 and parts[1] in ("experiments", "corpus"):
            return f"/v1/{parts[1]}"
        return "(unmatched)"
    if len(parts) == 1 and parts[0] in ("metrics", "healthz", "readyz"):
        return f"/{parts[0]}"
    return "(unmatched)"


def _request_id(request: Request) -> str:
    """The request's id: the client's ``X-Request-Id`` when it is sane
    (so ids propagate through a proxy chain), a fresh one otherwise."""
    supplied = request.headers.get("x-request-id", "")
    if _REQUEST_ID_OK.match(supplied):
        return supplied
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one service instance (CLI flags map 1:1 onto these).

    Attributes:
        host: Bind address.
        port: Bind port (0 picks a free one; see ``ResultServer.port``).
        workers: Process workers per compute job (``SuiteRunner(workers=)``).
        cache_dir: Artifact-cache root the service reads through to.
        max_inflight: Admission-control bound; request N+1 is shed
            with ``429``.
        deadline: Per-request wall-clock budget in seconds; a cold
            request still computing at the deadline gets ``503``.
        retry_after: Seconds suggested in ``Retry-After`` for ``429``
            and deadline/compute ``503``s (breaker ``503``s use the
            remaining cooldown instead).
        retry_jitter: Bounded random spread added on top of any
            ``Retry-After`` base, as a fraction of it (0.25 → up to
            +25%).  Coalesced clients that all saw the same 503/429
            would otherwise retry in lockstep and re-stampede the key
            the moment the breaker half-opens; 0.0 disables.
        breaker_threshold: Consecutive compute failures that trip a
            key's circuit.
        breaker_cooldown: Seconds a tripped circuit stays open.
        drain_timeout: Seconds graceful drain waits — once for in-flight
            requests, then again for background jobs to checkpoint.
        executor_workers: Concurrent compute jobs (thread-pool size).
        access_log: JSONL access-log path (one structured row per
            request, written through the atomic ``append_jsonl`` path);
            None disables it.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    cache_dir: str | None = None
    max_inflight: int = 64
    deadline: float = 30.0
    retry_after: float = 2.0
    retry_jitter: float = 0.25
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    drain_timeout: float = 10.0
    executor_workers: int = 2
    access_log: str | None = None


def compute_corpus_stats(config, *, cache: ArtifactCache) -> list[dict]:
    """Generate (or load) a corpus and cache its analytics summary.

    ``config`` is a :class:`~repro.bibliometrics.shardgen.ShardedCorpusConfig`.
    The stats row is a pure function of it, so it is cached under
    ``(corpus-stats, config.to_dict())`` — and the heavy part, the
    corpus itself, streams through ``cache``'s ``corpus-shard``
    entries (the shared corpus cache, rooted at ``cache.root``), so a
    stats miss after a warm suite run on the same cache generates no
    shard.
    """
    from collections import Counter

    import numpy as np

    from repro.experiments._corpus import (
        shared_columnar_corpus_from_config,
        use_corpus_cache,
    )

    with use_corpus_cache(cache.root):
        corpus = shared_columnar_corpus_from_config(config)
    vocab = corpus.vocab
    by_year: Counter = Counter()
    by_topic = np.zeros(len(vocab.topics), dtype=np.int64)
    positionality_papers = human_method_papers = 0
    for shard in corpus.iter_shards():
        by_year.update(shard.year.tolist())
        by_topic += np.bincount(shard.topic_idx, minlength=len(vocab.topics))
        positionality_papers += int(shard.positionality.sum())
        human_method_papers += int((shard.human_mask != 0).sum())
    by_sector = Counter(vocab.sectors[i] for i in vocab.author_sector_idx)
    stats = {
        "config": config.to_dict(),
        "papers": len(corpus),
        "authors": vocab.n_authors,
        "venues": len(vocab.venues),
        "papers_by_year": {str(y): n for y, n in sorted(by_year.items())},
        "papers_by_topic": {
            topic: int(n)
            for topic, n in sorted(zip(vocab.topics, by_topic)) if n
        },
        "authors_by_sector": dict(sorted(by_sector.items())),
        "positionality_papers": positionality_papers,
        "human_method_papers": human_method_papers,
    }
    rows = [stats]
    cache.put(CORPUS_STATS_KIND, config.to_dict(), rows)
    return rows


class ResultService:
    """Routing, admission control, and read-through logic — no sockets.

    Separated from :class:`ResultServer` (which owns the listener) so
    tests can drive :meth:`respond` with synthetic :class:`Request`
    objects and assert on status codes and counters without a single
    TCP connection.

    Args:
        config: The :class:`ServeConfig` tunables.
        metrics: Counter sink; a fresh :class:`MetricsRegistry` by
            default so ``/metrics`` always has something to report.
        fault_injector: Passed through to every compute job's runner —
            the chaos tests arm worker-kill faults here.
        runner_kwargs: Extra :class:`SuiteRunner` keywords for compute
            jobs (retries, crash budgets, heartbeats).

    Each request and each compute job runs with ``metrics``,
    ``fault_injector`` and the tracer in effect at construction, so the
    library's own counters land in ``metrics`` at any ``workers``.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        metrics: MetricsRegistry | None = None,
        fault_injector=None,
        runner_kwargs: dict | None = None,
    ) -> None:
        if config.cache_dir is None:
            raise ValueError("ServeConfig.cache_dir is required to serve")
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = current_tracer()
        self.cache = ArtifactCache(config.cache_dir)
        self.jobs = ComputeJobManager(
            executor_workers=config.executor_workers,
            breaker=CircuitBreaker(
                threshold=config.breaker_threshold,
                cooldown=config.breaker_cooldown,
            ),
            metrics=self.metrics,
        )
        self.fault_injector = fault_injector
        self.runner_kwargs = dict(runner_kwargs or {})
        self.draining = False
        self._inflight = 0
        self._started = time.monotonic()

    # -- connection plumbing -------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        """One connection: read a request, respond, close.

        Nothing a client sends can raise past here: malformed heads are
        ``400``, a slow-loris head read is bounded by the request
        deadline, and connection resets during the write are swallowed.
        """
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), self.config.deadline
                )
            except BadRequest as exc:
                self.metrics.count("serve.bad_requests")
                await self._write(
                    writer, json_response(400, {"error": str(exc)}), head_only=False
                )
                return
            except asyncio.TimeoutError:
                # Head never arrived inside the deadline; just hang up.
                self.metrics.count("serve.bad_requests")
                return
            if request is None:
                return
            response = await self.respond(request)
            await self._write(
                writer, response, head_only=request.method == "HEAD"
            )
        except (ConnectionError, BrokenPipeError):
            self.metrics.count("serve.client_aborts")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _write(self, writer, response: Response, *, head_only: bool) -> None:
        writer.write(response.encode(head_only=head_only))
        await writer.drain()

    # -- admission + dispatch ------------------------------------------

    async def respond(self, request: Request) -> Response:
        """Admission control, deadline enforcement, routing, accounting.

        Every request — shed, drained, and probe requests included —
        gets the full telemetry treatment here: an ``X-Request-Id``
        (the client's, when sane, so ids survive proxy hops), a
        ``serve.request`` span carrying route/status/config_hash/cache
        source, per-route × per-status latency histograms, status-class
        counters, and one JSONL access-log row.
        """
        # Imported here: repro.runtime loads the suite runner, which the
        # listener does not need to start accepting.
        from repro.runtime.faultinject import use_fault_injector

        self.metrics.count("serve.requests")
        started = time.monotonic()
        request_id = _request_id(request)
        route = route_template(request.path)
        with use_tracer(self.tracer), use_metrics(self.metrics), \
                use_fault_injector(self.fault_injector), self.tracer.span(
            "serve.request",
            method=request.method,
            path=request.path,
            route=route,
            request_id=request_id,
        ) as span:
            response = await self._admit_and_route(request, span)
            span.set_attribute("status", response.status)
            for attribute, header in (
                ("config_hash", "X-Config-Hash"),
                ("source", "X-Cache"),
            ):
                value = response.headers.get(header)
                if value is not None:
                    span.set_attribute(attribute, value)
        elapsed = time.monotonic() - started
        response.headers.setdefault("X-Request-Id", request_id)
        self._record_request(request, request_id, route, response, elapsed)
        return response

    def _record_request(
        self,
        request: Request,
        request_id: str,
        route: str,
        response: Response,
        elapsed: float,
    ) -> None:
        """Counters, histograms, and the access-log row for one request."""
        status = response.status
        self.metrics.count(f"serve.responses.{status}")
        self.metrics.count(f"serve.responses.{status // 100}xx")
        self.metrics.observe("serve.request_seconds", elapsed)
        if self.metrics.enabled:
            # The labeled key is an f-string build per request; skip it
            # entirely under NullMetrics so the opt-out stays free.
            self.metrics.observe(
                labeled("serve.request_seconds", route=route, status=status),
                elapsed,
            )
        if self.config.access_log is not None:
            append_jsonl(self.config.access_log, [{
                "ts": time.time(),
                "request_id": request_id,
                "method": request.method,
                "path": request.path,
                "route": route,
                "status": status,
                "duration_ms": round(elapsed * 1000, 3),
                "config_hash": response.headers.get("X-Config-Hash"),
                "source": response.headers.get("X-Cache"),
                "bytes": len(response.body),
            }])

    async def _admit_and_route(self, request: Request, span) -> Response:
        if request.method not in ("GET", "HEAD"):
            return json_response(
                405,
                {"error": f"method {request.method} not supported"},
                {"Allow": "GET, HEAD"},
            )
        # Liveness answers regardless of drain or saturation: the probe
        # asking "is the process up" must not be shed by load.
        if request.path == "/healthz":
            return json_response(
                200, {"status": "alive", "uptime": time.monotonic() - self._started}
            )
        if request.path == "/readyz":
            if self.draining:
                return json_response(
                    503,
                    {"status": "draining"},
                    {"Retry-After": _retry_after(self.config.retry_after, self.config.retry_jitter)},
                )
            return json_response(
                200, {"status": "ready", "inflight": self._inflight}
            )
        if self.draining:
            return json_response(
                503,
                {"error": "server is draining"},
                {"Retry-After": _retry_after(self.config.retry_after, self.config.retry_jitter)},
            )
        if self._inflight >= self.config.max_inflight:
            self.metrics.count("serve.shed")
            return json_response(
                429,
                {
                    "error": "server saturated",
                    "inflight": self._inflight,
                    "max_inflight": self.config.max_inflight,
                },
                {"Retry-After": _retry_after(self.config.retry_after, self.config.retry_jitter)},
            )
        self._inflight += 1
        self.metrics.set_gauge("serve.inflight", self._inflight)
        try:
            return await self._route_with_deadline(request, span)
        finally:
            self._inflight -= 1
            self.metrics.set_gauge("serve.inflight", self._inflight)

    async def _route_with_deadline(self, request: Request, span) -> Response:
        try:
            return await asyncio.wait_for(
                self._route(request, span), self.config.deadline
            )
        except asyncio.TimeoutError:
            self.metrics.count("serve.deadline_timeouts")
            span.set_attribute("outcome", "deadline")
            return json_response(
                503,
                {
                    "error": "deadline exceeded; compute continues in background",
                    "deadline": self.config.deadline,
                },
                {"Retry-After": _retry_after(self.config.retry_after, self.config.retry_jitter)},
            )
        except CircuitOpen as exc:
            span.set_attribute("outcome", "breaker_open")
            return json_response(
                503,
                {"error": str(exc), "circuit": "open"},
                {"Retry-After": _retry_after(exc.retry_after, self.config.retry_jitter)},
            )
        except ComputeFailed as exc:
            span.set_attribute("outcome", "compute_failed")
            return json_response(
                503,
                {"error": str(exc), "crash": exc.crash},
                {"Retry-After": _retry_after(self.config.retry_after, self.config.retry_jitter)},
            )
        except BadRequest as exc:
            return json_response(400, {"error": str(exc)})
        except UnknownExperimentError as exc:
            return json_response(404, {"error": str(exc)})
        except SpecError as exc:
            return json_response(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - the server must not die
            self.metrics.count("serve.errors")
            span.set_attribute("outcome", "internal_error")
            return json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )

    # -- routing --------------------------------------------------------

    async def _route(self, request: Request, span) -> Response:
        path = request.path.rstrip("/") or "/"
        if path == "/metrics":
            return self._metrics_response(request)
        if path == "/v1/experiments":
            return self._experiments()
        if path == "/v1/corpus":
            return await self._corpus(request, span)
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "result":
            if len(parts) == 3:
                return await self._result(request, parts[2], span)
            if len(parts) == 4:
                return self._result_by_hash(parts[2], parts[3])
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == "grid":
            return self._grid(request, parts[2])
        return json_response(404, {"error": f"no route for {request.path}"})

    def _metrics_response(self, request: Request) -> Response:
        """The metrics snapshot, content-negotiated.

        ``Accept: text/plain`` (or ``text/*``, or an OpenMetrics type —
        what Prometheus scrapers send) gets the text exposition;
        everything else, including no ``Accept`` at all, keeps the
        historical JSON snapshot.
        """
        self.metrics.set_gauge(
            "serve.uptime_seconds", time.monotonic() - self._started
        )
        accept = request.headers.get("accept", "")
        if any(
            token in accept
            for token in ("text/plain", "text/*", "openmetrics")
        ):
            return Response(
                status=200,
                body=render_prometheus(self.metrics.snapshot()).encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        return json_response(200, self.metrics.snapshot())

    def _experiments(self) -> Response:
        from repro.experiments.registry import all_experiments, describe

        listing = []
        for experiment_id in all_experiments():
            title, claim = describe(experiment_id)
            listing.append(
                {"id": experiment_id, "title": title, "claim": claim}
            )
        return json_response(200, {"experiments": listing})

    # -- results --------------------------------------------------------

    def _build_spec(self, experiment_id: str, request: Request):
        from repro.experiments.registry import make_spec, spec_class
        from repro.experiments.spec import parse_set_overrides

        try:
            seed = int(request.param("seed", "0"))
        except ValueError:
            raise BadRequest(f"seed={request.param('seed')!r} is not an integer")
        preset = request.param("preset", "fast")
        overrides = parse_set_overrides(
            spec_class(experiment_id), request.params("set")
        )
        return make_spec(
            experiment_id, preset=preset, seed=seed, overrides=overrides
        )

    def _result_payload(
        self, experiment_id: str, config_hash: str, rows: list[dict], source: str
    ) -> dict:
        row = rows[0] if rows else {}
        return {
            "experiment_id": experiment_id,
            "config_hash": config_hash,
            "source": source,
            "record": row.get("record"),
            "result": row.get("result"),
        }

    def _result_response(
        self,
        request: Request | None,
        experiment_id: str,
        config_hash: str,
        rows: list[dict],
        source: str,
    ) -> Response:
        etag = f'"{config_hash}"'
        if request is not None and request.headers.get("if-none-match") == etag:
            self.metrics.count("serve.not_modified")
            return Response(
                status=304,
                headers={"ETag": etag, "X-Config-Hash": config_hash},
            )
        return json_response(
            200,
            self._result_payload(experiment_id, config_hash, rows, source),
            {
                "ETag": etag,
                "X-Config-Hash": config_hash,
                "X-Cache": source,
            },
        )

    async def _result(
        self, request: Request, experiment_id: str, span
    ) -> Response:
        from repro.experiments.sweep import SWEEP_RESULT_KIND, result_cache_config

        spec = self._build_spec(experiment_id, request)
        config_hash = spec.config_hash()
        rows = self.cache.get(
            SWEEP_RESULT_KIND, result_cache_config(experiment_id, config_hash)
        )
        if rows:
            self.metrics.count("serve.hits")
            return self._result_response(
                request, experiment_id, config_hash, rows, "cache"
            )
        self.metrics.count("serve.misses")
        if self.jobs.pending(config_hash):
            span.set_attribute("coalesced", True)
        job = self.jobs.submit(config_hash, self._experiment_compute(spec))
        # shield(): a deadline cancels *this request's wait*, never the
        # shared job — coalesced peers and the eventual cache write
        # survive, and the outer wait_for turns the timeout into 503.
        rows = await asyncio.shield(job)
        return self._result_response(
            request, experiment_id, config_hash, rows, "computed"
        )

    def _experiment_compute(self, spec) -> Callable[[], list[dict]]:
        def compute() -> list[dict]:
            return compute_experiment_rows(
                spec,
                cache=self.cache,
                cache_dir=self.config.cache_dir,
                workers=self.config.workers,
                fault_injector=self.fault_injector,
                runner_kwargs=self.runner_kwargs,
            )

        return compute

    def _result_by_hash(self, experiment_id: str, config_hash: str) -> Response:
        """Cache-only lookup: a hash names a computation, never starts one."""
        from repro.experiments.sweep import SWEEP_RESULT_KIND, result_cache_config

        rows = self.cache.get(
            SWEEP_RESULT_KIND, result_cache_config(experiment_id, config_hash)
        )
        if not rows:
            self.metrics.count("serve.misses")
            return json_response(
                404,
                {
                    "error": f"no cached result for {experiment_id}/{config_hash}",
                    "hint": "POST-free API: request /v1/result/"
                    f"{experiment_id}?seed=... to compute it",
                },
            )
        self.metrics.count("serve.hits")
        return self._result_response(
            None, experiment_id, config_hash, rows, "cache"
        )

    # -- grids ----------------------------------------------------------

    def _grid(self, request: Request, experiment_id: str) -> Response:
        """Expand a grid and report per-point cache status (no compute)."""
        from repro.experiments.registry import spec_class
        from repro.experiments.sweep import (
            SWEEP_RESULT_KIND,
            expand_grid,
            parse_grid_args,
            result_cache_config,
        )

        base = self._build_spec(experiment_id, request)
        axes = parse_grid_args(spec_class(experiment_id), request.params("grid"))
        specs = expand_grid(base, axes)
        points = []
        cached = 0
        for spec in specs:
            config_hash = spec.config_hash()
            rows = self.cache.get(
                SWEEP_RESULT_KIND,
                result_cache_config(experiment_id, config_hash),
            )
            if rows:
                cached += 1
            points.append({"config_hash": config_hash, "cached": bool(rows)})
        return json_response(
            200,
            {
                "experiment_id": experiment_id,
                "axes": {k: [repr(v) for v in vs] for k, vs in axes.items()},
                "points": points,
                "total": len(points),
                "cached": cached,
            },
        )

    # -- corpus analytics ------------------------------------------------

    async def _corpus(self, request: Request, span) -> Response:
        from repro.experiments._corpus import corpus_config_from_params
        from repro.experiments.spec import CorpusParams

        try:
            seed = int(request.param("seed", "0"))
        except ValueError:
            raise BadRequest(f"seed={request.param('seed')!r} is not an integer")
        preset = request.param("preset", "fast")
        if preset not in ("fast", "full"):
            raise BadRequest(f"preset={preset!r} must be 'fast' or 'full'")
        params = CorpusParams() if preset == "fast" else CorpusParams(**CorpusParams.FULL)
        for name in ("start_year", "end_year", "authors_per_venue_pool"):
            raw = request.param(name)
            if raw is not None:
                try:
                    value = int(raw)
                except ValueError:
                    raise BadRequest(f"{name}={raw!r} is not an integer")
                try:
                    params = params.replace(**{name: value})
                except SpecError as exc:
                    raise BadRequest(str(exc))
        config = corpus_config_from_params(seed, params)
        config_dict = config.to_dict()
        config_hash = artifact_key(
            CORPUS_STATS_KIND, config_dict, self.cache.version
        )
        etag = f'"{config_hash}"'
        rows = self.cache.get(CORPUS_STATS_KIND, config_dict)
        if rows:
            self.metrics.count("serve.hits")
            source = "cache"
        else:
            self.metrics.count("serve.misses")
            if self.jobs.pending(config_hash):
                span.set_attribute("coalesced", True)
            job = self.jobs.submit(
                config_hash,
                lambda: compute_corpus_stats(config, cache=self.cache),
            )
            rows = await asyncio.shield(job)
            source = "computed"
        if request.headers.get("if-none-match") == etag:
            self.metrics.count("serve.not_modified")
            return Response(
                status=304,
                headers={"ETag": etag, "X-Config-Hash": config_hash},
            )
        return json_response(
            200,
            {"config_hash": config_hash, "source": source, "stats": rows[0]},
            {"ETag": etag, "X-Config-Hash": config_hash, "X-Cache": source},
        )

    # -- drain -----------------------------------------------------------

    async def drain(self) -> None:
        """Stop admitting, let in-flight requests and jobs finish."""
        self.draining = True
        self.metrics.count("serve.drains")
        deadline = time.monotonic() + self.config.drain_timeout
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        remaining = max(0.1, deadline - time.monotonic())
        abandoned = await self.jobs.drain(remaining)
        self.metrics.set_gauge("serve.inflight", self._inflight)
        if abandoned:
            self.metrics.count("serve.drain_abandoned", abandoned)


def _retry_after(seconds: float, jitter: float = 0.0) -> str:
    """``Retry-After`` as an integral number of seconds, at least 1.

    ``jitter`` spreads the value uniformly over the integral band
    ``[ceil(seconds), ceil(seconds * (1 + jitter))]``, so a burst of
    clients shed with the same response de-synchronizes instead of
    retrying in lockstep (thundering herd after a breaker opens).  The
    draw is over whole seconds — the only granularity the header can
    express — and the band keeps the hint honest: never earlier than
    the base, never beyond the stated fraction past it.
    """
    low = max(1, math.ceil(seconds))
    if jitter <= 0.0:
        return str(low)
    high = max(low, math.ceil(seconds * (1.0 + jitter)))
    return str(random.randint(low, high))


class ResultServer:
    """The asyncio listener around a :class:`ResultService`."""

    def __init__(self, service: ResultService) -> None:
        self.service = service
        self._server = None
        self.port: int | None = None

    async def start(self) -> None:
        config = self.service.config
        self._server = await asyncio.start_server(
            self.service.handle_connection, config.host, config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: close the listener, then drain the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.drain()


async def _serve_until_signalled(service: ResultService) -> None:
    server = ResultServer(service)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    print(
        f"repro serve listening on "
        f"http://{service.config.host}:{server.port} "
        f"(cache: {service.config.cache_dir})",
        file=sys.stderr,
        flush=True,
    )
    await stop.wait()
    print("repro serve: draining ...", file=sys.stderr, flush=True)
    await server.drain()
    print("repro serve: drained, bye", file=sys.stderr, flush=True)


def run_server(service: ResultService) -> int:
    """Run ``service`` until SIGINT/SIGTERM; returns a process exit code."""
    asyncio.run(_serve_until_signalled(service))
    return 0


class ServerThread:
    """A :class:`ResultService` on a daemon thread with its own loop.

    The harness tests, the load-generator benchmark, and the smoke
    script all need a live server *inside* the current process (so they
    can reach its metrics registry and fault injector).  Use as a
    context manager::

        with ServerThread(service) as server:
            fetch("127.0.0.1", server.port, "/healthz")

    Exit triggers the same graceful drain SIGTERM would.
    """

    def __init__(self, service: ResultService) -> None:
        self.service = service
        self.port: int | None = None
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = None
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("server thread failed to start in 10s")
        if self._startup_error is not None:
            raise RuntimeError("server thread failed to start") from (
                self._startup_error
            )
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failures
            self._startup_error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = ResultServer(self.service)
        await server.start()
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.drain()

    def drain(self, timeout: float = 30.0) -> None:
        """Trigger the graceful drain and wait for the thread to exit."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()
