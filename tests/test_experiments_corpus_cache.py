"""Tests for the shared experiment corpus (repro.experiments._corpus).

Covers the two-level cache over the shard-parallel generator: the
in-memory LRU (one generation and one scan per key),
``clear_corpus_cache`` (memory and disk), the disk layout (shards, one
corpus manifest and one aggregates entry), warm replays that are bit-identical to cold runs
and classify no text, the aggregates codec, and the spec schema bump
that keeps results of the earlier generator from being served.
"""

import functools
import hashlib
import json
import shutil
import threading

import pytest

from repro.bibliometrics import shardscan
from repro.bibliometrics.shardscan import AGGREGATES_ARTIFACT_KIND, CorpusAggregates
from repro.experiments import _corpus, spec as spec_module
from repro.experiments._corpus import (
    clear_corpus_cache,
    corpus_config,
    shared_aggregates_from_config,
    shared_columnar_corpus_from_config,
    stock_corpus_papers,
    use_corpus_cache,
)
from repro.experiments.e03_agenda_concentration import E3Spec
from repro.experiments.e12_scale_vs_depth import E12Spec
from repro.experiments.registry import get_experiment, make_spec
from repro.experiments.spec import CorpusParams
from repro.experiments.sweep import run_sweep
from repro.io.artifacts import ArtifactCache
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.runtime import runner as runner_module
from repro.runtime.runner import SuiteRunner
from repro.serve.service import compute_corpus_stats

CORPUS_EXPERIMENTS = ("E1", "E2", "E3", "E12")


def tiny(seed: int):
    """Two years, small pools: 880 papers, one shard."""
    return _corpus.corpus_config_from_params(
        seed, CorpusParams(start_year=2023, end_year=2024, authors_per_venue_pool=10)
    )


TINY = tiny(7)


def result_fingerprint(result) -> str:
    blob = json.dumps(result.to_payload(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(autouse=True)
def isolated_corpus_state():
    """Save and restore the module's memory cache."""
    saved_memory = dict(_corpus._memory)
    _corpus._memory.clear()
    yield
    _corpus._memory.clear()
    _corpus._memory.update(saved_memory)


@pytest.fixture
def generations(monkeypatch):
    """Count corpus generations (cold or warm) behind the memory LRU."""
    calls = []
    real = _corpus.generate_columnar_corpus

    def counting(config, **kwargs):
        calls.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(_corpus, "generate_columnar_corpus", counting)
    return calls


@pytest.fixture
def classifications(monkeypatch):
    """Count papers whose text the scan classifies (one entry per paper
    passed to the block matcher).  The scan is pinned to one worker, so
    every block is classified in this process and counted."""
    calls = []
    real = shardscan._classify_block

    def counting(texts):
        calls.extend([1] * len(texts))
        return real(texts)

    monkeypatch.setattr(shardscan, "_classify_block", counting)
    monkeypatch.setattr(
        _corpus, "scan_corpus", functools.partial(shardscan.scan_corpus, workers=1)
    )
    return calls


class TestRoundtripFidelity:
    def test_serialize_deserialize_is_lossless(self):
        aggregates = shared_aggregates_from_config(TINY)
        # through JSON with sorted keys, exactly as the artifact cache stores it
        records = json.loads(json.dumps(aggregates.to_records(), sort_keys=True))
        loaded = CorpusAggregates.from_records(records)
        assert loaded == aggregates
        # integer years in the cell keys, and iteration order, survive
        assert list(loaded.venue_year) == list(aggregates.venue_year)
        assert list(loaded.venue_topics) == list(aggregates.venue_topics)

    def test_unknown_table_rejected(self):
        header = CorpusAggregates().to_records()[0]
        with pytest.raises(ValueError):
            CorpusAggregates.from_records([header, {"field": "nope", "items": []}])
        with pytest.raises(ValueError):
            CorpusAggregates.from_records([])


class TestCorpusConfig:
    def test_estimated_papers_exact_for_stock_profiles(self):
        assert len(shared_columnar_corpus_from_config(TINY)) == TINY.total_papers
        assert stock_corpus_papers(2016, 2025) == corpus_config().total_papers == 4400
        assert corpus_config(fast=False).total_papers == 11_440
        assert TINY.shard_size == _corpus.SHARD_SIZE


class TestMemoryCache:
    def test_generated_once_per_key(self, generations):
        first = shared_columnar_corpus_from_config(TINY)
        second = shared_columnar_corpus_from_config(TINY)
        assert len(generations) == 1
        assert first is second

    def test_distinct_keys_generate_separately(self, generations):
        shared_columnar_corpus_from_config(tiny(91))
        shared_columnar_corpus_from_config(tiny(92))
        assert len(generations) == 2

    def test_clear_corpus_cache_forces_regeneration(self, generations):
        shared_columnar_corpus_from_config(TINY)
        clear_corpus_cache()
        shared_columnar_corpus_from_config(TINY)
        assert len(generations) == 2

    def test_lru_evicts_oldest(self, generations):
        for seed in range(91, 91 + _corpus._MEMORY_SLOTS + 1):
            shared_columnar_corpus_from_config(tiny(seed))
        generated = len(generations)
        shared_columnar_corpus_from_config(tiny(91))  # evicted -> regenerated
        assert len(generations) == generated + 1

    def test_aggregates_scanned_once(self, classifications):
        first = shared_aggregates_from_config(TINY)
        second = shared_aggregates_from_config(TINY)
        assert first is second
        assert len(classifications) == TINY.total_papers


class TestDiskCache:
    def test_disk_entry_survives_memory_clear(self, monkeypatch, tmp_path):
        from repro.bibliometrics import shardgen

        built = []
        real = shardgen.generate_shard
        monkeypatch.setattr(
            shardgen, "generate_shard", lambda *a: built.append(a) or real(*a)
        )
        with use_corpus_cache(tmp_path):
            shared_columnar_corpus_from_config(TINY)
            assert len(built) == 1
            clear_corpus_cache()  # memory only
            list(shared_columnar_corpus_from_config(TINY).iter_shards())
        assert len(built) == 1  # loaded from disk, not regenerated

    def test_disk_layout_is_shards_plus_aggregates(self, tmp_path):
        with use_corpus_cache(tmp_path):
            shared_aggregates_from_config(TINY)
        kinds = {path.name: len(list(path.glob("*.jsonl"))) for path in tmp_path.iterdir()}
        assert kinds == {"corpus-shard": 1, "corpus-manifest": 1, AGGREGATES_ARTIFACT_KIND: 1}

    def test_clear_disk_invalidates_artifacts(self, tmp_path, generations, classifications):
        with use_corpus_cache(tmp_path):
            shared_aggregates_from_config(TINY)
            clear_corpus_cache(tmp_path)
            assert not list(tmp_path.rglob("*.jsonl"))
            shared_aggregates_from_config(TINY)
        assert len(generations) == 2
        assert len(classifications) == 2 * TINY.total_papers

    def test_cached_corpus_equals_generated(self, tmp_path):
        with use_corpus_cache(tmp_path):
            cold = shared_columnar_corpus_from_config(TINY).fingerprint()
            clear_corpus_cache()
            warm = shared_columnar_corpus_from_config(TINY)
        assert warm.fingerprint() == cold
        for _ in warm.iter_shards():
            assert warm.resident_shards() <= 1

    def test_warm_load_classifies_nothing(self, tmp_path, classifications):
        cold = shared_aggregates_from_config(TINY)  # no disk cache: fresh scan
        with use_corpus_cache(tmp_path):
            clear_corpus_cache()
            shared_aggregates_from_config(TINY)  # cold disk: scanned and persisted
            clear_corpus_cache()
            del classifications[:]
            warm = shared_aggregates_from_config(TINY)
        assert classifications == []
        assert warm == cold


TINY_PARAMS = CorpusParams(start_year=2023, end_year=2024, authors_per_venue_pool=10)
#: 10,560 papers: two ``SHARD_SIZE`` shards, so a streamed corpus reloads.
TWO_SHARD_PARAMS = CorpusParams(
    start_year=2024, end_year=2025, venue_scale=12, authors_per_venue_pool=10
)


def corpus_specs(params=TINY_PARAMS):
    """One aggregates reader and one shard reader over a corpus."""
    return [E3Spec(seed=7, corpus=params), E12Spec(seed=7, corpus=params)]


class TestCacheRootScope:
    """The cache root a run names is the only one its corpus touches."""

    def test_replay_in_another_directory_reads_only_it(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        specs = corpus_specs(TWO_SHARD_PARAMS)
        SuiteRunner(cache_dir=str(first)).run_points(specs)
        shutil.copytree(first, second)
        shutil.rmtree(first)  # the memoised corpus's directory is gone
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            report = SuiteRunner(workers=2, cache_dir=str(second)).run_points(
                specs
            )
        assert not report.errors
        counters = metrics.snapshot()["counters"]
        assert counters.get("artifacts.misses", 0) == 0
        assert counters.get("shardgen.recovered_shards", 0) == 0
        assert counters.get("artifacts.writes", 0) == 0
        assert counters.get("artifacts.hits", 0) > 0
        assert not first.exists()

    def test_concurrent_runs_keep_their_own_roots(self, tmp_path, monkeypatch):
        # Interleave two runs so each experiment runs while the other
        # run is live: run 1 starts its experiment, run 2 starts, run 1
        # reads its corpus and finishes, then run 2 reads its corpus.
        roots = {name: tmp_path / name for name in ("one", "two")}
        first_started = threading.Event()
        second_started = threading.Event()
        first_done = threading.Event()
        touched = {name: set() for name in roots}
        real_path_for = ArtifactCache.path_for
        real_get_experiment = runner_module.get_experiment

        def path_for(cache, kind, config):
            touched[threading.current_thread().name].add(cache.root)
            return real_path_for(cache, kind, config)

        def get_experiment(experiment_id):
            run = real_get_experiment(experiment_id)

            def interleaved(spec):
                if threading.current_thread().name == "one":
                    first_started.set()
                    assert second_started.wait(30)
                else:
                    second_started.set()
                    assert first_done.wait(30)
                return run(spec)

            return interleaved

        monkeypatch.setattr(ArtifactCache, "path_for", path_for)
        monkeypatch.setattr(runner_module, "get_experiment", get_experiment)
        reports = {}

        def run(name):
            runner = SuiteRunner(cache_dir=str(roots[name]), keep_going=False)
            reports[name] = runner.run_points(corpus_specs()[:1])
            if name == "one":
                first_done.set()

        threads = {name: threading.Thread(target=run, args=(name,), name=name)
                   for name in roots}
        threads["one"].start()
        assert first_started.wait(30)
        threads["two"].start()
        for thread in threads.values():
            thread.join(60)
            assert not thread.is_alive()
        assert {name: report.errors for name, report in reports.items()} == {
            "one": [], "two": [],
        }
        for name, root in roots.items():
            assert touched[name] == {root}, name
            kinds = {path.name for path in root.iterdir()}
            assert kinds == {"corpus-shard", "corpus-manifest", AGGREGATES_ARTIFACT_KIND}, name

    def test_serve_stats_read_through_the_service_cache(self, tmp_path, monkeypatch):
        from repro.bibliometrics import shardgen

        config = _corpus.corpus_config_from_params(7, TINY_PARAMS)
        cold = ArtifactCache(tmp_path / "cold")
        compute_corpus_stats(config, cache=cold)
        assert len(list((cold.root / "corpus-shard").glob("*.jsonl"))) == 1

        warm = tmp_path / "warm"
        SuiteRunner(cache_dir=str(warm)).run_points(corpus_specs()[1:])
        clear_corpus_cache()
        built = []
        real = shardgen.generate_shard
        monkeypatch.setattr(
            shardgen, "generate_shard", lambda *a: built.append(a) or real(*a)
        )
        rows = compute_corpus_stats(config, cache=ArtifactCache(warm))
        assert built == []
        assert rows == compute_corpus_stats(config, cache=cold)


def cold_then_warm(preset, seed, cache_dir, experiments=CORPUS_EXPERIMENTS):
    """Fingerprints from a fresh in-memory scan, then from persisted aggregates."""
    specs = [make_spec(e, preset, seed=seed) for e in experiments]

    def run_all():
        clear_corpus_cache()
        return [result_fingerprint(get_experiment(s.EXPERIMENT_ID)(s)) for s in specs]

    cold = run_all()
    with use_corpus_cache(cache_dir):
        run_all()  # scans once more and persists
        warm = run_all()
    clear_corpus_cache()
    return dict(zip(experiments, zip(cold, warm)))


class TestColdWarmEquality:
    @pytest.fixture(scope="class")
    def full_fingerprints(self, tmp_path_factory):
        return cold_then_warm("full", 0, tmp_path_factory.mktemp("full"))

    @pytest.mark.parametrize("experiment_id", CORPUS_EXPERIMENTS)
    def test_full_preset_fingerprints_identical(self, experiment_id, full_fingerprints):
        cold, warm = full_fingerprints[experiment_id]
        assert cold == warm

    def test_fast_preset_nonzero_seed(self, tmp_path):
        # The classic aliasing bug: every cache layer must key on the seed.
        seed3 = cold_then_warm("fast", 3, tmp_path / "a", ("E1",))["E1"]
        seed0 = cold_then_warm("fast", 0, tmp_path / "b", ("E1",))["E1"]
        assert seed3[0] == seed3[1] != seed0[0]


class TestSpecSchema:
    @pytest.mark.parametrize("experiment_id", CORPUS_EXPERIMENTS)
    def test_pre_change_memo_entry_is_a_miss(self, experiment_id, tmp_path, monkeypatch):
        # Memoize under the v1 identity (results of the earlier generator)...
        with monkeypatch.context() as patch:
            patch.setattr(spec_module, "SPEC_SCHEMA_VERSION", 1)
            old = run_sweep(experiment_id, {"seed": [0]}, cache_dir=tmp_path)
            old_hash = old.points[0].spec.config_hash()
        # ...and the same spec under v2 must recompute, not replay them.
        new = run_sweep(experiment_id, {"seed": [0]}, cache_dir=tmp_path)
        assert [p.source for p in new.points] == ["run"]
        assert new.points[0].spec.config_hash() != old_hash

    def test_content_knobs_still_split_config_hash(self):
        base = make_spec("E1", "fast")
        scaled = make_spec("E1", "fast", overrides={"corpus.venue_scale": 2.0})
        assert scaled.config_hash() != base.config_hash()

    def test_corpus_params_has_only_content_fields(self):
        assert list(CorpusParams().to_dict()) == [
            "start_year", "end_year", "authors_per_venue_pool", "venue_scale",
        ]
