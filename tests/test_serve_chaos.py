"""Chaos tests for repro.serve — the robustness contract under fire.

The acceptance contract: with the fault injector killing compute
workers, the server answers ``503 + Retry-After`` (it never crashes
and never hangs past the deadline), a retry after the fault clears
succeeds, and the circuit breaker stops doomed keys from burning
compute.  Faults are injected through the same
:class:`repro.runtime.faultinject.FaultInjector` the parallel-runtime
chaos suite uses — the kills land inside real pool worker processes.
"""

import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime.faultinject import FaultInjector
from repro.serve.client import fetch
from repro.serve.service import ResultService, ServeConfig, ServerThread

HOST = "127.0.0.1"

#: A cheap experiment with no shared corpus (sub-second per run).
CHEAP = "E5"


def make_chaos_service(tmp_path, injector, **overrides):
    """A service whose compute jobs run under the kill-armed injector.

    ``workers=2`` puts the experiment in real pool workers (kill faults
    only fire there); ``degrade=False`` keeps the runner from falling
    back to in-process execution, where the fault could not fire and
    the compute would quietly succeed.
    """
    defaults = dict(
        cache_dir=str(tmp_path / "cache"),
        workers=2,
        deadline=60.0,
        retry_after=1.0,
    )
    defaults.update(overrides)
    return ResultService(
        ServeConfig(**defaults),
        metrics=MetricsRegistry(),
        fault_injector=injector,
        runner_kwargs={"max_worker_crashes": 2, "degrade": False},
    )


def counters(service):
    return service.metrics.snapshot()["counters"]


class TestKilledComputeWorkers:
    def test_503_then_retry_succeeds(self, tmp_path):
        injector = FaultInjector(seed=7)
        injector.register(f"experiment:{CHEAP}", mode="kill")
        service = make_chaos_service(tmp_path, injector)
        with ServerThread(service) as server:
            port = server.port
            started = time.monotonic()
            failed = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90)

            # the contract: 503 + Retry-After, not a crash, not a hang
            assert failed.status == 503
            assert int(failed.headers["retry-after"]) >= 1
            assert time.monotonic() - started < service.config.deadline
            body = failed.json()
            assert body["crash"] is not None
            assert body["crash"]["quarantined"] is True

            # the server survived its compute being killed twice
            assert fetch(HOST, port, "/healthz").status == 200
            assert fetch(HOST, port, "/readyz").status == 200

            # fault clears -> the same request computes and caches
            injector.clear()
            retried = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90)
            assert retried.status == 200
            assert retried.json()["source"] == "computed"
            assert retried.json()["result"] is not None

            hot = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0")
            assert hot.status == 200
            assert hot.json()["source"] == "cache"
        stats = counters(service)
        assert stats["serve.compute_failed"] == 1
        assert stats["serve.compute_ok"] == 1
        assert stats["serve.responses.503"] == 1
        assert stats["serve.responses.200"] >= 3

    def test_breaker_trips_after_repeated_failures(self, tmp_path):
        injector = FaultInjector(seed=7)
        injector.register(f"experiment:{CHEAP}", mode="kill")
        service = make_chaos_service(
            tmp_path, injector,
            breaker_threshold=2, breaker_cooldown=0.3,
        )
        with ServerThread(service) as server:
            port = server.port
            for _ in range(2):
                failed = fetch(
                    HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90
                )
                assert failed.status == 503
            jobs_before = counters(service)["serve.compute_jobs"]

            # circuit open: immediate 503, no new compute dispatched
            rejected = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0")
            assert rejected.status == 503
            assert rejected.json().get("circuit") == "open"
            assert "retry-after" in rejected.headers
            assert counters(service)["serve.compute_jobs"] == jobs_before

            # cooldown expires, fault is gone -> the half-open probe heals
            injector.clear()
            time.sleep(0.4)
            healed = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90)
            assert healed.status == 200
        stats = counters(service)
        assert stats["serve.breaker_trips"] == 1
        assert stats["serve.breaker_rejects"] == 1
        assert stats["serve.compute_ok"] == 1

    def test_corrupted_artifact_serves_200_via_recompute(self, tmp_path):
        """Injected bit-rot on a cached result: 200, never 500 or garbage.

        The ``bitrot`` disk fault corrupts the entry the moment it is
        written; the next read fails its end-to-end digest and becomes
        a miss (counted ``artifacts.integrity_failures``) that routes
        to the normal miss-compute path — the client sees a recompute,
        not a 500 and not a silently wrong payload.
        """
        injector = FaultInjector(seed=11)
        injector.register("artifacts:damage", mode="bitrot", times=1)
        service = make_chaos_service(tmp_path, injector, workers=1)
        with ServerThread(service) as server:
            port = server.port
            # First fetch computes and caches — but the injector
            # bit-rots the completed entry right after the rename.
            first = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90)
            assert first.status == 200
            assert first.json()["source"] == "computed"
            assert injector.stats()["artifacts:damage"]["fired"] == 1

            # The damaged entry fails verification: a recompute,
            # not a crash and not a corrupted payload.
            second = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90)
            assert second.status == 200
            assert second.json()["source"] == "computed"
            assert second.json()["result"] is not None

            # Fault budget spent: the healthy rewrite now serves hot.
            third = fetch(HOST, port, f"/v1/result/{CHEAP}?seed=0")
            assert third.status == 200
            assert third.json()["source"] == "cache"
        stats = counters(service)
        assert stats["artifacts.integrity_failures"] == 1
        assert stats["serve.responses.200"] == 3
        assert "serve.responses.500" not in stats
        assert "serve.compute_failed" not in stats

    def test_unaffected_keys_keep_serving_during_the_failures(self, tmp_path):
        """A poison key must not take neighboring keys down with it."""
        injector = FaultInjector(seed=7)
        injector.register(f"experiment:{CHEAP}", mode="kill")
        service = make_chaos_service(tmp_path, injector)
        with ServerThread(service) as server:
            port = server.port
            poisoned = fetch(
                HOST, port, f"/v1/result/{CHEAP}?seed=0", timeout=90
            )
            assert poisoned.status == 503
            # E4 has no fault armed; it computes despite E5's crashes
            healthy = fetch(HOST, port, "/v1/result/E4?seed=0", timeout=90)
            assert healthy.status == 200
        stats = counters(service)
        assert stats["serve.compute_failed"] == 1
        assert stats["serve.compute_ok"] == 1
