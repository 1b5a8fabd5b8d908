"""Tests for repro.bibliometrics.shardgen."""

import json
import shutil
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bibliometrics import shardgen
from repro.bibliometrics.columnar import MANIFEST_ARTIFACT_KIND, SHARD_SCHEMA_VERSION
from repro.bibliometrics.shardgen import (
    CorpusPlan,
    ShardedCorpusConfig,
    generate_columnar_corpus,
    generate_shard,
    manifest_cache_config,
    topic_skeleton,
)
from repro.bibliometrics.synthgen import default_venue_profiles
from repro.errors import CacheLockTimeout
from repro.io.artifacts import ArtifactCache
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracing import Tracer, use_tracer
from repro.runtime.faultinject import FaultInjector, InjectedFault
from tests.test_io_artifacts import DAMAGE_MODES, damaged

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
            CONFIG, on_shard=lambda row: seen.append(row["index"])
        )
        assert sorted(seen) == list(range(corpus.n_shards))


#: Three shards of 100 papers: a warm cache to copy and damage.
SMALL = ShardedCorpusConfig(
    start_year=2024, end_year=2025, seed=5, total_papers=300, shard_size=100
)


@pytest.fixture(scope="module")
def warm_small(tmp_path_factory):
    """A cache written by a cold open of SMALL, and SMALL's fingerprint."""
    root = tmp_path_factory.mktemp("warm-small")
    return root, generate_columnar_corpus(SMALL, cache_dir=str(root)).fingerprint()


def manifest_path(root):
    (path,) = (root / MANIFEST_ARTIFACT_KIND).glob("*.jsonl")
    return path


@contextmanager
def counted_open():
    """Count shard generations, shard decodes and entry writes by kind."""
    counts = {"generated": 0, "decoded": 0, "puts": Counter()}
    real_generate, real_decode = shardgen.generate_shard, shardgen.decode_shard
    real_put = ArtifactCache.put

    def generate(*args):
        counts["generated"] += 1
        return real_generate(*args)

    def decode(records):
        counts["decoded"] += 1
        return real_decode(records)

    def put(cache, kind, config, records):
        counts["puts"][kind] += 1
        return real_put(cache, kind, config, records)

    metrics = MetricsRegistry()
    with mock.patch.object(shardgen, "generate_shard", generate), \
            mock.patch.object(shardgen, "decode_shard", decode), \
            mock.patch.object(ArtifactCache, "put", put), use_metrics(metrics):
        yield counts
    counts["counters"] = metrics.snapshot()["counters"]


def damage(path, mode, where, mask):
    """Delete ``path`` (``"missing"``) or apply one of the artifact
    tests' :data:`DAMAGE_MODES` to it."""
    if mode == "missing":
        path.unlink()
    else:
        path.write_bytes(damaged(path.read_bytes(), mode, where, mask))


class TestCorpusManifest:
    """A warm open reads one ``corpus-manifest`` entry and no shard."""

    def test_cold_open_writes_one_row_per_shard(self, warm_small):
        root, _ = warm_small
        cache = ArtifactCache(root, version=SHARD_SCHEMA_VERSION, sweep=False)
        rows = cache.get(
            MANIFEST_ARTIFACT_KIND,
            manifest_cache_config(SMALL, default_venue_profiles()),
        )
        assert [(row["index"], row["n_papers"]) for row in rows] == [
            (0, 100), (1, 100), (2, 100)
        ]
        assert all(
            set(row) == {"index", "n_papers", "sha256", "fingerprint"} for row in rows
        )
        headers = {
            json.loads(path.read_text().splitlines()[0])["sha256"]
            for path in (root / "corpus-shard").glob("*.jsonl")
        }
        assert {row["sha256"] for row in rows} == headers

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("stream", [True, False])
    def test_warm_open_reads_no_shard(self, warm_small, tmp_path, workers, stream):
        root, fingerprint = warm_small
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        seen = []
        with counted_open() as counts, mock.patch(
            "repro.runtime.supervisor.WorkerSupervisor",
            side_effect=AssertionError("started a supervisor"),
        ):
            corpus = generate_columnar_corpus(
                SMALL, workers=workers, cache_dir=str(tmp_path), stream=stream,
                on_shard=seen.append,
            )
            assert corpus.fingerprint() == fingerprint
            assert counts["decoded"] == 0 and corpus.resident_shards() == 0
            assert [row["index"] for row in seen] == [0, 1, 2]
            for _ in corpus.iter_shards():  # loads are lazy and checked
                pass
            assert counts["decoded"] == 3
            assert corpus.resident_shards() == (1 if stream else 3)
        assert counts["generated"] == 0 and not counts["puts"]
        assert counts["counters"]["shardgen.manifest_hits"] == 1
        assert "shardgen.manifest_rebuilds" not in counts["counters"]

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(DAMAGE_MODES + ("missing",)),
        where=st.integers(0, 10**6),
        mask=st.integers(1, 255),
    )
    def test_damaged_manifest_falls_back_and_heals(
        self, warm_small, tmp_path_factory, mode, where, mask
    ):
        source, fingerprint = warm_small
        root = tmp_path_factory.mktemp("cache")
        shutil.copytree(source, root, dirs_exist_ok=True)
        damage(manifest_path(root), mode, where, mask)

        with counted_open() as counts:
            opened = generate_columnar_corpus(SMALL, cache_dir=str(root), stream=True)
            assert opened.fingerprint() == fingerprint
        assert counts["generated"] == 0
        assert counts["puts"]["corpus-shard"] == 0
        hit = counts["counters"].get("shardgen.manifest_hits", 0)
        rebuilt = counts["counters"].get("shardgen.manifest_rebuilds", 0)
        assert hit + rebuilt == 1
        assert counts["puts"][MANIFEST_ARTIFACT_KIND] == rebuilt

        with counted_open() as counts:
            reopened = generate_columnar_corpus(SMALL, cache_dir=str(root), stream=True)
            assert reopened.fingerprint() == fingerprint
        assert counts["decoded"] == counts["generated"] == 0
        assert counts["counters"]["shardgen.manifest_hits"] == 1

    def test_rows_that_disagree_with_the_plan_are_rebuilt(self, warm_small, tmp_path):
        root, fingerprint = warm_small
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        cache = ArtifactCache(tmp_path, version=SHARD_SCHEMA_VERSION, sweep=False)
        key = manifest_cache_config(SMALL, default_venue_profiles())
        rows = cache.get(MANIFEST_ARTIFACT_KIND, key)
        pristine = manifest_path(tmp_path).read_bytes()
        rows[1]["n_papers"] = 99  # an intact entry that lies about a size
        cache.put(MANIFEST_ARTIFACT_KIND, key, rows)
        with counted_open() as counts:
            corpus = generate_columnar_corpus(SMALL, cache_dir=str(tmp_path))
            assert corpus.fingerprint() == fingerprint
        assert counts["generated"] == 0
        assert counts["counters"]["shardgen.manifest_rebuilds"] == 1
        assert manifest_path(tmp_path).read_bytes() == pristine

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cache_without_a_manifest_replays_and_gains_one(
        self, warm_small, tmp_path, workers
    ):
        # The layout written before the manifest existed: shards only.
        root, fingerprint = warm_small
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        pristine = manifest_path(tmp_path).read_bytes()
        shutil.rmtree(tmp_path / MANIFEST_ARTIFACT_KIND)
        with counted_open() as counts:
            corpus = generate_columnar_corpus(
                SMALL, workers=workers, cache_dir=str(tmp_path), stream=True
            )
            assert corpus.fingerprint() == fingerprint
        assert counts["puts"] == Counter({MANIFEST_ARTIFACT_KIND: 1})
        assert counts["counters"].get("artifacts.writes", 0) == 1
        assert manifest_path(tmp_path).read_bytes() == pristine

    def test_no_manifest_while_a_shard_has_no_entry(self, tmp_path, monkeypatch):
        real_lock = ArtifactCache._key_lock

        def lock(cache, kind, config):
            if config.get("shard") == 1:  # another process holds shard 1
                raise CacheLockTimeout("held", lock_path="x", timeout=0.0)
            return real_lock(cache, kind, config)

        monkeypatch.setattr(ArtifactCache, "_key_lock", lock)
        corpus = generate_columnar_corpus(SMALL, cache_dir=str(tmp_path))
        assert corpus.fingerprint() == generate_columnar_corpus(SMALL).fingerprint()
        assert not (tmp_path / MANIFEST_ARTIFACT_KIND).exists()
        monkeypatch.setattr(ArtifactCache, "_key_lock", real_lock)
        generate_columnar_corpus(SMALL, cache_dir=str(tmp_path))
        assert manifest_path(tmp_path).exists()

    def test_shard_damaged_after_the_manifest_is_regenerated_and_landed(
        self, warm_small, tmp_path
    ):
        root, fingerprint = warm_small
        shutil.copytree(root, tmp_path, dirs_exist_ok=True)
        target = sorted((tmp_path / "corpus-shard").glob("*.jsonl"))[0]
        pristine = target.read_bytes()
        damage(target, "flip", len(pristine) // 2, 0xFF)
        with counted_open() as counts:
            corpus = generate_columnar_corpus(SMALL, cache_dir=str(tmp_path), stream=True)
            assert len(list(corpus.iter_shards())) == 3
        assert counts["generated"] == 1
        assert counts["counters"]["shardgen.recovered_shards"] == 1
        assert target.read_bytes() == pristine
