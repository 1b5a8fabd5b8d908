"""The shared corpus cache over a multi-shard columnar corpus.

The fast preset fits in one shard at ``SHARD_SIZE``, so these tests
drive :mod:`repro.experiments._corpus` with a smaller shard size (or a
larger venue scale) to cover what only shows with several shards:
memory-cache identity of a multi-shard corpus, warm replays that stream
shard by shard, disk invalidation of every shard and the aggregates
entry, and E3 and E12 reading a streamed corpus without reloading its
shards.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from repro.bibliometrics import shardgen
from repro.bibliometrics.columnar import MANIFEST_ARTIFACT_KIND, SHARD_ARTIFACT_KIND
from repro.bibliometrics.shardscan import AGGREGATES_ARTIFACT_KIND
from repro.experiments import _corpus
from repro.experiments._corpus import (
    clear_corpus_cache,
    shared_aggregates_from_config,
    shared_columnar_corpus_from_config,
    use_corpus_cache,
)
from repro.experiments.e03_agenda_concentration import E3Spec, run as run_e3
from repro.experiments.e12_scale_vs_depth import E12Spec, run as run_e12
from repro.experiments.spec import CorpusParams

#: Two years of the stock panel (880 papers) cut into three shards.
SHARDED = dataclasses.replace(
    _corpus.corpus_config_from_params(
        7, CorpusParams(start_year=2023, end_year=2024, authors_per_venue_pool=10)
    ),
    shard_size=300,
)


@pytest.fixture(autouse=True)
def isolated_corpus_state():
    """Save and restore the module's memory cache."""
    saved_memory = dict(_corpus._memory)
    _corpus._memory.clear()
    yield
    _corpus._memory.clear()
    _corpus._memory.update(saved_memory)


@pytest.fixture
def counted_generator(monkeypatch):
    """Count corpus generations (cold or warm) behind the memory LRU."""
    calls = []
    real = _corpus.generate_columnar_corpus

    def counting(config, **kwargs):
        calls.append(config)
        return real(config, **kwargs)

    monkeypatch.setattr(_corpus, "generate_columnar_corpus", counting)
    return calls


class TestColumnarCaching:
    def test_memory_cache_returns_same_object(self, counted_generator):
        first = shared_columnar_corpus_from_config(SHARDED)
        second = shared_columnar_corpus_from_config(SHARDED)
        assert first is second
        assert len(counted_generator) == 1
        assert len(list(first.iter_shards())) == 3

    def test_warm_replay_streams_bit_identically(self, tmp_path):
        with use_corpus_cache(tmp_path):
            cold = shared_columnar_corpus_from_config(SHARDED).fingerprint()
            clear_corpus_cache()  # memory only; disk stays warm
            warm = shared_columnar_corpus_from_config(SHARDED)
        assert warm.fingerprint() == cold
        seen = 0
        for _ in warm.iter_shards():
            seen += 1
            assert warm.resident_shards() <= 1
        assert seen == 3

    def test_clear_disk_invalidates_both_kinds(self, tmp_path, counted_generator):
        with use_corpus_cache(tmp_path):
            shared_aggregates_from_config(SHARDED)
            kinds = {
                path.name: len(list(path.glob("*.jsonl")))
                for path in tmp_path.iterdir()
            }
            assert kinds == {
                SHARD_ARTIFACT_KIND: 3,
                MANIFEST_ARTIFACT_KIND: 1,
                AGGREGATES_ARTIFACT_KIND: 1,
            }
            clear_corpus_cache(tmp_path)
            assert not list(tmp_path.rglob("*.jsonl"))
            shared_aggregates_from_config(SHARDED)
        assert len(counted_generator) == 2


class TestE3StreamedRooms:
    @pytest.mark.parametrize(
        "spec_cls, run", [(E3Spec, run_e3), (E12Spec, run_e12)], ids=["E3", "E12"]
    )
    def test_each_shard_loads_at_most_once(self, tmp_path, monkeypatch, spec_cls, run):
        # venue_scale 2.3 puts the fast preset's 10,120 papers in two
        # SHARD_SIZE shards; with a disk cache the corpus streams, so
        # every shard the experiment touches is decoded from the cache
        # again.  The cache is warm and the memory LRU empty, so the
        # count includes the experiment's own open of the corpus.
        spec = spec_cls(corpus=CorpusParams(venue_scale=2.3))
        config = _corpus.corpus_config_from_params(spec.seed, spec.corpus)
        loads = Counter()
        real = shardgen.decode_shard

        def counting(records):
            shard = real(records)
            loads[shard.index] += 1
            return shard

        with use_corpus_cache(tmp_path):
            shared_aggregates_from_config(config)
            clear_corpus_cache()  # memory only; disk stays warm
            monkeypatch.setattr(shardgen, "decode_shard", counting)
            result = run(spec)
            corpus = shared_columnar_corpus_from_config(config)  # memoised
            assert corpus.n_shards == 2 and corpus.max_resident == 1
        assert result.checks
        assert loads, "read no shard: the probe is not on the load path"
        assert max(loads.values()) == 1, dict(loads)


def test_no_experiment_or_service_materializes_papers():
    # ``to_corpus()`` builds every Paper; experiments and the result
    # service read the corpus's columns and aggregates instead.
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    callers = [
        f"{path.relative_to(src)}:{node.lineno}"
        for package in ("experiments", "serve")
        for path in sorted((src / package).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_corpus"
    ]
    assert callers == []
