"""Tests for repro.bibliometrics.shardgen."""

import numpy as np
import pytest

from repro.bibliometrics.shardgen import (
    CorpusPlan,
    ShardedCorpusConfig,
    generate_columnar_corpus,
    generate_shard,
    topic_skeleton,
)
from repro.bibliometrics.synthgen import default_venue_profiles
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracing import Tracer, use_tracer
from repro.runtime.faultinject import FaultInjector, InjectedFault

CONFIG = ShardedCorpusConfig(
    start_year=2019, end_year=2025, seed=3, total_papers=1400, shard_size=400
)


@pytest.fixture(scope="module")
def baseline_fingerprint() -> str:
    return generate_columnar_corpus(CONFIG).fingerprint()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedCorpusConfig(start_year=2025, end_year=2020)
        with pytest.raises(ValueError):
            ShardedCorpusConfig(total_papers=0)
        with pytest.raises(ValueError):
            ShardedCorpusConfig(shard_size=0)

    def test_shard_size_is_part_of_identity(self, baseline_fingerprint):
        other = ShardedCorpusConfig(
            start_year=2019, end_year=2025, seed=3,
            total_papers=1400, shard_size=700,
        )
        assert generate_columnar_corpus(other).fingerprint() != baseline_fingerprint


class TestPlan:
    def test_exact_total(self):
        for total in (1, 17, 439, 1400, 12345):
            config = ShardedCorpusConfig(
                start_year=2019, end_year=2025, total_papers=total
            )
            plan = CorpusPlan(config, default_venue_profiles())
            assert int(plan.cell_counts.sum()) == total
            assert sum(plan.shard_sizes()) == total

    def test_year_major_ordering(self):
        plan = CorpusPlan(CONFIG, default_venue_profiles())
        shard = generate_shard(CONFIG, shard_index=0)
        assert int(shard.year[0]) == CONFIG.start_year
        # Years never decrease along the global order.
        previous_last = None
        for index in range(plan.n_shards):
            years = generate_shard(CONFIG, shard_index=index).year
            assert np.all(np.diff(years) >= 0)
            if previous_last is not None:
                assert years[0] >= previous_last
            previous_last = years[-1]

    def test_skeleton_matches_shard_topics(self):
        plan = CorpusPlan(CONFIG, default_venue_profiles())
        skeleton = topic_skeleton(CONFIG, default_venue_profiles(), plan)
        shard = generate_shard(CONFIG, shard_index=1)
        lo, hi = plan.shard_range(1)
        np.testing.assert_array_equal(shard.topic_idx, skeleton[lo:hi])


class TestShardContent:
    def test_shard_is_pure_function_of_config_and_index(self):
        a = generate_shard(CONFIG, shard_index=2)
        b = generate_shard(CONFIG, shard_index=2)
        assert a.fingerprint() == b.fingerprint()

    def test_different_shards_differ(self):
        assert (
            generate_shard(CONFIG, shard_index=0).fingerprint()
            != generate_shard(CONFIG, shard_index=1).fingerprint()
        )

    def test_refs_sorted_unique_and_earlier(self):
        plan = CorpusPlan(CONFIG, default_venue_profiles())
        shard = generate_shard(CONFIG, shard_index=plan.n_shards - 1)
        year_starts = plan.year_starts
        for local in range(shard.n_papers):
            refs = shard.refs_of(local)
            if refs.size == 0:
                continue
            assert np.all(np.diff(refs) > 0)  # sorted, deduplicated
            horizon = year_starts[int(shard.year[local]) - CONFIG.start_year]
            assert refs.max() < horizon

    def test_authors_sorted_unique_and_in_venue_pool(self):
        plan = CorpusPlan(CONFIG, default_venue_profiles())
        shard = generate_shard(CONFIG, shard_index=0)
        offsets = plan.author_offsets
        for local in range(min(50, shard.n_papers)):
            authors = shard.authors_of(local)
            assert authors.size >= 1
            assert np.all(np.diff(authors) > 0)
            venue = int(shard.venue_idx[local])
            assert authors.min() >= offsets[venue]
            assert authors.max() < offsets[venue + 1]

    def test_positionality_implies_human_methods(self):
        shard = generate_shard(CONFIG, shard_index=0)
        planted = shard.positionality.astype(bool)
        assert planted.any()
        assert np.all(shard.human_mask[planted] > 0)
        assert np.all(shard.body.offsets[:-1][~planted]
                      == shard.body.offsets[1:][~planted])


class TestWorkerInvariance:
    def test_fingerprint_equal_at_1_2_4_workers(self, baseline_fingerprint):
        for workers in (2, 4):
            corpus = generate_columnar_corpus(CONFIG, workers=workers)
            assert corpus.fingerprint() == baseline_fingerprint, workers

    def test_fingerprint_equal_under_kill_fault(self, baseline_fingerprint):
        injector = FaultInjector(seed=0)
        injector.register(
            "shardgen:shard", mode="kill", probability=1.0, times=1
        )
        tracer = Tracer()
        metrics = MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            corpus = generate_columnar_corpus(
                CONFIG, workers=2, fault_injector=injector
            )
        assert corpus.fingerprint() == baseline_fingerprint
        # The crash is supervised like an experiment crash: counted and traced.
        assert metrics.snapshot()["counters"]["runner.worker_crashes"] >= 1
        assert any(span.name == "pool_rebuild" for span in tracer.finished)

    def test_degrades_to_sequential_past_rebuild_budget(
        self, baseline_fingerprint
    ):
        injector = FaultInjector(seed=0)
        # Kill every worker shard attempt, forever: the pool budget
        # exhausts and the degraded in-process path (where kill-mode
        # faults pass through) must still complete identically.
        injector.register(
            "shardgen:shard", mode="kill", probability=1.0, times=None
        )
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            corpus = generate_columnar_corpus(
                CONFIG, workers=2, fault_injector=injector
            )
        assert corpus.fingerprint() == baseline_fingerprint
        assert metrics.snapshot()["counters"]["runner.degraded"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raise_fault_fires_at_any_worker_count(self, workers):
        injector = FaultInjector(seed=0)
        injector.register(
            "shardgen:shard", mode="raise", probability=1.0, times=1
        )
        with pytest.raises(InjectedFault):
            generate_columnar_corpus(
                CONFIG, workers=workers, fault_injector=injector
            )


class TestCacheStreaming:
    def test_cold_then_warm_fingerprints_equal(
        self, tmp_path, baseline_fingerprint
    ):
        cold = generate_columnar_corpus(CONFIG, cache_dir=str(tmp_path))
        assert cold.fingerprint() == baseline_fingerprint
        # Warm replay: shards decode from the cache, nothing regenerates.
        warm = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path), stream=True
        )
        assert warm.fingerprint() == baseline_fingerprint
        assert len(list(warm.iter_shards())) == warm.n_shards

    def test_stream_requires_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            generate_columnar_corpus(CONFIG, stream=True)

    def test_evicted_cache_entry_regenerates(self, tmp_path, baseline_fingerprint):
        corpus = generate_columnar_corpus(
            CONFIG, cache_dir=str(tmp_path), stream=True
        )
        for path in tmp_path.rglob("*.jsonl"):
            path.unlink()
        assert corpus.fingerprint() == baseline_fingerprint

    def test_on_shard_callback_sees_every_shard(self):
        seen: list[int] = []
        corpus = generate_columnar_corpus(
            CONFIG, on_shard=lambda meta: seen.append(meta["shard"])
        )
        assert sorted(seen) == list(range(corpus.n_shards))
