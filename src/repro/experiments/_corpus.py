"""The shared corpus behind the bibliometric experiments (E1-E3, E12).

One path from spec to result: :func:`corpus_config_from_params` maps a
spec's :class:`~repro.experiments.spec.CorpusParams` block onto a
:class:`~repro.bibliometrics.shardgen.ShardedCorpusConfig`,
:func:`repro.bibliometrics.shardgen.generate_columnar_corpus` produces
the corpus, and one :func:`~repro.bibliometrics.shardscan.scan_corpus`
pass folds it into the :class:`CorpusAggregates` every experiment reads.

Both the corpus and its aggregates cache at two levels:

- **On disk** — under the cache root in effect: one scoped setting,
  a :class:`contextvars.ContextVar` entered with
  :func:`use_corpus_cache` (``SuiteRunner`` enters its run's root
  around every experiment call, serve its service cache's), so each
  thread sees only the root it entered.  The generator streams its
  ``corpus-shard`` entries through a
  :class:`repro.io.artifacts.ArtifactCache` there, plus one
  ``corpus-manifest`` entry that lets a warm open read no shard, and
  the scanned aggregates land as one ``corpus-aggregates`` entry per
  corpus config.  A warm load of the aggregates therefore classifies
  no text at all.  Per-key file locks ensure racing workers generate and scan
  at most once.  Shards and the manifest are regenerated
  byte-identically by the scrubber; a damaged aggregates entry is deleted and rescanned on the
  next read.  With no root in effect nothing touches the disk.
- **In memory** — one small explicit LRU keyed by the root as well as
  the config, so a corpus memoised for one root (or for none) never
  serves another; :func:`clear_corpus_cache` empties it.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from repro.bibliometrics.columnar import (
    MANIFEST_ARTIFACT_KIND,
    SHARD_ARTIFACT_KIND,
    ColumnarCorpus,
)
from repro.bibliometrics.shardgen import (
    ShardedCorpusConfig,
    generate_columnar_corpus,
)
from repro.bibliometrics.shardscan import (
    AGGREGATES_ARTIFACT_KIND,
    AGGREGATES_SCHEMA_VERSION,
    CorpusAggregates,
    scan_corpus,
)
from repro.bibliometrics.synthgen import default_venue_profiles
from repro.io.artifacts import ArtifactCache

#: Papers per shard of every experiment corpus.  Part of corpus
#: identity (shardgen keys shards by it), so it is a constant, not a knob.
SHARD_SIZE = 10_000

#: How many cached values (corpora and scanned aggregates — distinct
#: keys) to keep in memory at once.
_MEMORY_SLOTS = 4

_lock = threading.Lock()
_memory: OrderedDict[tuple, object] = OrderedDict()
#: The on-disk cache root in effect (absolute), or None for none.
_root: ContextVar[str | None] = ContextVar("corpus_cache_root", default=None)


def stock_corpus_papers(
    start_year: int, end_year: int, venue_scale: float = 1.0
) -> int:
    """Corpus size for the stock venue panel over ``[start_year, end_year]``.

    Each venue contributes ``round(papers_per_year * venue_scale)``
    papers a year, so the fast preset (2016-2025) has 4,400 papers and
    the full preset (2000-2025) 11,440.
    """
    per_year = sum(
        max(0, round(profile.papers_per_year * venue_scale))
        for profile in default_venue_profiles()
    )
    return per_year * max(0, end_year - start_year + 1)


def corpus_config_from_params(seed: int, params) -> ShardedCorpusConfig:
    """The generator config for a spec's :class:`CorpusParams` block."""
    return ShardedCorpusConfig(
        start_year=params.start_year,
        end_year=params.end_year,
        seed=seed,
        total_papers=stock_corpus_papers(
            params.start_year, params.end_year, params.venue_scale
        ),
        shard_size=SHARD_SIZE,
        authors_per_venue_pool=params.authors_per_venue_pool,
    )


def corpus_config(seed: int = 0, fast: bool = True) -> ShardedCorpusConfig:
    """The generator config of the fast or full experiment preset."""
    from repro.experiments.spec import CorpusParams

    params = CorpusParams() if fast else CorpusParams(**CorpusParams.FULL)
    return corpus_config_from_params(seed, params)


@contextmanager
def use_corpus_cache(root: str | os.PathLike | None) -> Iterator[None]:
    """Read and write the experiment corpus under ``root`` in this block.

    None means no disk cache.  The setting is scoped to the current
    thread (and context); the previous root is back on exit.
    """
    token = _root.set(None if root is None else os.path.abspath(root))
    try:
        yield
    finally:
        _root.reset(token)


def clear_corpus_cache(cache_dir: str | os.PathLike | None = None) -> None:
    """Drop every cached corpus and aggregate from memory (and optionally disk).

    Args:
        cache_dir: Also invalidate this cache root's ``corpus-shard``,
            ``corpus-manifest`` and ``corpus-aggregates`` entries,
            forcing regeneration in every process; the invalidation
            hook tests and campaign tooling use this after a generator
            change.
    """
    with _lock:
        _memory.clear()
    if cache_dir is not None:
        cache = ArtifactCache(cache_dir)
        for kind in (
            SHARD_ARTIFACT_KIND, MANIFEST_ARTIFACT_KIND, AGGREGATES_ARTIFACT_KIND
        ):
            cache.invalidate(kind)


def _remember(key: tuple, value: object) -> None:
    """Insert into the in-memory LRU, evicting the oldest past capacity."""
    with _lock:
        _memory[key] = value
        _memory.move_to_end(key)
        while len(_memory) > _MEMORY_SLOTS:
            _memory.popitem(last=False)


def _recall(key: tuple):
    """Memory-LRU lookup (refreshes recency); None on miss."""
    with _lock:
        if key in _memory:
            _memory.move_to_end(key)
            return _memory[key]
    return None


def shared_columnar_corpus_from_config(
    config: ShardedCorpusConfig,
) -> ColumnarCorpus:
    """The shared corpus for a generator config.

    Memory LRU first; otherwise :func:`generate_columnar_corpus`, which
    replays warm shards from the cache root in effect (streamed, at
    most one decoded shard resident) and generates cold ones.
    """
    root = _root.get()
    key = ("corpus", root) + tuple(sorted(config.to_dict().items()))
    cached = _recall(key)
    if cached is not None:
        return cached
    corpus = generate_columnar_corpus(
        config, cache_dir=root, stream=root is not None
    )
    _remember(key, corpus)
    return corpus


def shared_aggregates_from_config(
    config: ShardedCorpusConfig,
    min_mentions: int = 1,
) -> CorpusAggregates:
    """The scanned :class:`CorpusAggregates` for a generator config.

    One scan serves E1's adoption counts, E2's positionality confusion
    cells and E3's topic/sector rollups.  With a disk cache the scan is
    persisted, and even the scanning process uses the decoded entry, so
    cold and warm runs compute on identical values.
    """
    root = _root.get()
    key = ("aggregates", root, min_mentions) + tuple(
        sorted(config.to_dict().items())
    )
    cached = _recall(key)
    if cached is not None:
        return cached

    def scan() -> CorpusAggregates:
        return scan_corpus(shared_columnar_corpus_from_config(config), min_mentions)

    if root is None:
        aggregates = scan()
    else:
        cache = ArtifactCache(root, version=AGGREGATES_SCHEMA_VERSION)
        records = cache.get_or_create(
            AGGREGATES_ARTIFACT_KIND,
            {"config": config.to_dict(), "min_mentions": min_mentions},
            lambda: scan().to_records(),
        )
        aggregates = CorpusAggregates.from_records(records)
    _remember(key, aggregates)
    return aggregates
