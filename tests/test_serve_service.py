"""Tests for repro.serve.service — the degradation ladder over real TCP.

Each rung of the ladder gets a test: hit, miss-then-compute, ETag/304,
coalescing (N requests → one job), deadline → 503 with the job
surviving, admission-control 429, graceful drain, and the status-code
contract for bad input.  Everything runs against a live ServerThread
on a loopback port — the same path production traffic takes — except
the cases that need deterministic internal state, which drive
ResultService.respond directly.
"""

import asyncio
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.client import fetch
from repro.serve.http import Request
from repro.serve.service import ResultService, ServeConfig, ServerThread

HOST = "127.0.0.1"


def make_service(tmp_path, metrics=None, **overrides):
    defaults = dict(cache_dir=str(tmp_path / "cache"), deadline=60.0)
    defaults.update(overrides)
    return ResultService(
        ServeConfig(**defaults), metrics=metrics or MetricsRegistry()
    )


def counters(service):
    return service.metrics.snapshot()["counters"]


def respond(service, path, headers=None, method="GET"):
    """Drive the service directly with a synthetic request."""
    from urllib.parse import parse_qs, urlsplit

    split = urlsplit(path)
    request = Request(
        method=method,
        target=path,
        path=split.path,
        query=parse_qs(split.query, keep_blank_values=True),
        headers={k.lower(): v for k, v in (headers or {}).items()},
    )
    return asyncio.run(service.respond(request))


class TestReadThrough:
    def test_cold_then_hot_then_304(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            cold = fetch(HOST, server.port, "/v1/result/E7?seed=0")
            assert cold.status == 200
            assert cold.json()["source"] == "computed"
            etag = cold.headers["etag"]
            assert etag == '"%s"' % cold.json()["config_hash"]

            hot = fetch(HOST, server.port, "/v1/result/E7?seed=0")
            assert hot.status == 200
            assert hot.json()["source"] == "cache"
            assert hot.json()["result"] == cold.json()["result"]

            cached = fetch(
                HOST, server.port, "/v1/result/E7?seed=0",
                headers={"If-None-Match": etag},
            )
            assert cached.status == 304
            assert cached.body == b""
            assert cached.headers["etag"] == etag
        stats = counters(service)
        assert stats["serve.misses"] == 1
        assert stats["serve.hits"] == 2
        assert stats["serve.compute_jobs"] == 1
        assert stats["serve.not_modified"] == 1

    def test_result_by_hash_is_lookup_only(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            miss = fetch(HOST, server.port, "/v1/result/E7/0000dead")
            assert miss.status == 404
            cold = fetch(HOST, server.port, "/v1/result/E7?seed=0")
            config_hash = cold.json()["config_hash"]
            hit = fetch(HOST, server.port, f"/v1/result/E7/{config_hash}")
            assert hit.status == 200
            assert hit.json()["source"] == "cache"
        # the 404 lookup must not have dispatched a compute job
        assert counters(service)["serve.compute_jobs"] == 1

    def test_sweep_results_are_served(self, tmp_path):
        """A sweep warms the cache; the server reads the same entries."""
        from repro.experiments.sweep import run_sweep

        cache_dir = str(tmp_path / "cache")
        report = run_sweep(
            "E7", {"seed": [0, 1]}, preset="fast", cache_dir=cache_dir
        )
        assert report.ok
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            for point in report.points:
                config_hash = point.spec.config_hash()
                hit = fetch(HOST, server.port, f"/v1/result/E7/{config_hash}")
                assert hit.status == 200
        assert counters(service).get("serve.compute_jobs", 0) == 0

    def test_grid_reports_cache_status_without_computing(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            fetch(HOST, server.port, "/v1/result/E7?seed=1")
            grid = fetch(HOST, server.port, "/v1/grid/E7?grid=seed=0,1,2")
            assert grid.status == 200
            payload = grid.json()
            assert payload["total"] == 3
            assert payload["cached"] == 1
            assert [p["cached"] for p in payload["points"]] == [
                False, True, False,
            ]
        assert counters(service)["serve.compute_jobs"] == 1

    def test_corpus_stats_cached_across_requests(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            cold = fetch(HOST, server.port, "/v1/corpus?seed=0&preset=fast")
            assert cold.status == 200
            assert cold.json()["source"] == "computed"
            stats = cold.json()["stats"]
            assert stats["papers"] > 0
            assert stats["authors"] > 0
            hot = fetch(HOST, server.port, "/v1/corpus?seed=0&preset=fast")
            assert hot.json()["source"] == "cache"
            not_modified = fetch(
                HOST, server.port, "/v1/corpus?seed=0&preset=fast",
                headers={"If-None-Match": cold.headers["etag"]},
            )
            assert not_modified.status == 304

    def test_pre_change_corpus_stats_entry_is_a_miss(self, tmp_path):
        # Stats of the earlier generator were keyed by its config shape.
        service = make_service(tmp_path)
        old_key = {"start_year": 2016, "end_year": 2025, "seed": 0,
                   "authors_per_venue_pool": 60, "venue_scale": 1.0}
        service.cache.put("corpus-stats", old_key, [{"papers": -1}])
        response = respond(service, "/v1/corpus?seed=0&preset=fast")
        assert response.status == 200
        assert response.headers["X-Cache"] == "computed"


class TestCoalescing:
    def test_n_concurrent_cold_requests_run_one_job(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        calls = []

        def slow_compute(spec, **kwargs):
            calls.append(1)
            started.set()
            release.wait(timeout=10)
            return [{"record": {"status": "ok"}, "result": {"fake": True}}]

        monkeypatch.setattr(
            "repro.serve.service.compute_experiment_rows", slow_compute
        )
        service = make_service(tmp_path)
        results = []
        with ServerThread(service) as server:

            def client():
                results.append(
                    fetch(HOST, server.port, "/v1/result/E7?seed=0", timeout=30)
                )

            first = threading.Thread(target=client)
            first.start()
            assert started.wait(timeout=10)
            # the job is provably in flight; pile four more requests on
            rest = [threading.Thread(target=client) for _ in range(4)]
            for thread in rest:
                thread.start()
            deadline = time.monotonic() + 10
            while (
                counters(service).get("serve.coalesced", 0) < 4
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            release.set()
            for thread in [first, *rest]:
                thread.join(timeout=30)
        assert len(calls) == 1
        assert [r.status for r in results] == [200] * 5
        stats = counters(service)
        assert stats["serve.compute_jobs"] == 1
        assert stats["serve.coalesced"] == 4
        assert stats["serve.misses"] == 5


class TestDeadline:
    def test_deadline_degrades_to_503_and_job_survives(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments.sweep import (
            SWEEP_RESULT_KIND,
            result_cache_config,
        )

        finished = threading.Event()
        rows = [{"record": {"status": "ok"}, "result": {"fake": True}}]

        def slow_compute(spec, *, cache, **kwargs):
            time.sleep(0.5)
            cache.put(
                SWEEP_RESULT_KIND,
                result_cache_config("E7", spec.config_hash()),
                rows,
            )
            finished.set()
            return rows

        monkeypatch.setattr(
            "repro.serve.service.compute_experiment_rows", slow_compute
        )
        service = make_service(tmp_path, deadline=0.15, retry_after=1.0)
        with ServerThread(service) as server:
            timed_out = fetch(HOST, server.port, "/v1/result/E7?seed=0")
            assert timed_out.status == 503
            assert int(timed_out.headers["retry-after"]) >= 1
            # the request gave up; the job must finish and cache anyway
            assert finished.wait(timeout=10)
            retry = fetch(HOST, server.port, "/v1/result/E7?seed=0")
            assert retry.status == 200
            assert retry.json()["source"] == "cache"
        stats = counters(service)
        assert stats["serve.deadline_timeouts"] == 1
        assert stats["serve.compute_jobs"] == 1  # the retry was a pure hit
        assert stats["serve.responses.503"] == 1
        assert stats["serve.responses.200"] == 1


class TestAdmissionControl:
    def test_saturated_service_sheds_with_429(self, tmp_path):
        service = make_service(tmp_path, max_inflight=2)
        service._inflight = 2  # deterministic saturation
        response = respond(service, "/v1/experiments")
        assert response.status == 429
        # base retry_after is 2.0 with up to +25% anti-herd jitter, so
        # the integral header lands in [2, ceil(2.5)]
        assert 2 <= int(response.headers["Retry-After"]) <= 3
        assert b"saturated" in response.body
        assert counters(service)["serve.shed"] == 1

    def test_retry_after_jitter_is_bounded(self, tmp_path):
        service = make_service(tmp_path, max_inflight=1, retry_jitter=0.5)
        service._inflight = 1
        seen = set()
        for _ in range(32):
            response = respond(service, "/v1/experiments")
            assert response.status == 429
            seen.add(int(response.headers["Retry-After"]))
        # every value within [base, base * 1.5] rounded up...
        assert seen <= {2, 3}
        # ...and the spread actually spreads (herd de-synchronized)
        assert len(seen) == 2

    def test_zero_jitter_is_deterministic(self, tmp_path):
        service = make_service(tmp_path, max_inflight=1, retry_jitter=0.0)
        service._inflight = 1
        for _ in range(4):
            response = respond(service, "/v1/experiments")
            assert response.headers["Retry-After"] == "2"

    def test_health_answers_even_when_saturated(self, tmp_path):
        service = make_service(tmp_path, max_inflight=1)
        service._inflight = 1
        assert respond(service, "/healthz").status == 200
        assert respond(service, "/readyz").status == 200

    def test_shedding_over_tcp_under_load(self, tmp_path, monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def slow_compute(spec, **kwargs):
            started.set()
            release.wait(timeout=10)
            return [{"record": {"status": "ok"}, "result": {}}]

        monkeypatch.setattr(
            "repro.serve.service.compute_experiment_rows", slow_compute
        )
        service = make_service(tmp_path, max_inflight=1)
        with ServerThread(service) as server:
            blocker = threading.Thread(
                target=lambda: fetch(
                    HOST, server.port, "/v1/result/E7?seed=0", timeout=30
                )
            )
            blocker.start()
            assert started.wait(timeout=10)
            shed = fetch(HOST, server.port, "/v1/result/E7?seed=1")
            release.set()
            blocker.join(timeout=30)
        assert shed.status == 429
        assert "retry-after" in shed.headers


class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, tmp_path, monkeypatch):
        started = threading.Event()

        def slow_compute(spec, **kwargs):
            started.set()
            time.sleep(0.3)
            return [{"record": {"status": "ok"}, "result": {"ok": True}}]

        monkeypatch.setattr(
            "repro.serve.service.compute_experiment_rows", slow_compute
        )
        service = make_service(tmp_path)
        server = ServerThread(service).start()
        results = []
        client = threading.Thread(
            target=lambda: results.append(
                fetch(HOST, server.port, "/v1/result/E7?seed=0", timeout=30)
            )
        )
        client.start()
        assert started.wait(timeout=10)
        port = server.port
        server.drain()  # waits for the in-flight request
        client.join(timeout=30)
        assert [r.status for r in results] == [200]
        with pytest.raises(OSError):
            fetch(HOST, port, "/healthz", timeout=2)
        assert counters(service)["serve.drains"] == 1

    def test_draining_service_rejects_but_stays_alive(self, tmp_path):
        service = make_service(tmp_path)
        service.draining = True
        assert respond(service, "/healthz").status == 200
        ready = respond(service, "/readyz")
        assert ready.status == 503
        rejected = respond(service, "/v1/experiments")
        assert rejected.status == 503
        assert "Retry-After" in rejected.headers


class TestContract:
    def test_status_codes_for_bad_input(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            port = server.port
            assert fetch(HOST, port, "/nope").status == 404
            assert fetch(HOST, port, "/v1/result/E99?seed=0").status == 404
            assert fetch(HOST, port, "/v1/result/E7?seed=zebra").status == 400
            assert fetch(HOST, port, "/v1/result/E7?set=bogus=1").status == 400
            assert fetch(HOST, port, "/v1/corpus?preset=medium").status == 400
            post = fetch(HOST, port, "/v1/result/E7", method="POST")
            assert post.status == 405
            assert post.headers["allow"] == "GET, HEAD"

    def test_head_request_omits_body(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            response = fetch(HOST, server.port, "/healthz", method="HEAD")
            assert response.status == 200
            assert response.body == b""
            assert int(response.headers["content-length"]) > 0

    def test_garbage_bytes_get_400_not_a_dead_server(self, tmp_path):
        import socket

        service = make_service(tmp_path)
        with ServerThread(service) as server:
            with socket.create_connection((HOST, server.port), timeout=5) as s:
                s.sendall(b"garbage that is not http\r\n\r\n")
                reply = s.recv(4096)
            assert reply.startswith(b"HTTP/1.1 400")
            # and the server still serves the next client
            assert fetch(HOST, server.port, "/healthz").status == 200

    def test_metrics_endpoint_reports_serve_counters(self, tmp_path):
        service = make_service(tmp_path)
        with ServerThread(service) as server:
            fetch(HOST, server.port, "/v1/experiments")
            snapshot = fetch(HOST, server.port, "/metrics").json()
        assert snapshot["counters"]["serve.requests"] >= 2
        assert snapshot["counters"]["serve.responses.200"] >= 1
