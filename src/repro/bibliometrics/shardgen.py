"""Shard-parallel, streaming, columnar synthetic-corpus generation.

The one corpus producer: the experiments, ``repro serve``, and ``repro
corpus`` all read its output.  It draws the calibrated venue profiles
and text templates of :mod:`repro.bibliometrics.synthgen` (topic mixes,
human-method rates with yearly trends, positionality statements, author
pools) plus topic-biased citations, as
:class:`~repro.bibliometrics.columnar.ColumnarShard` columns, in
fixed-size shards that are independent of each other and of the worker
count:

- **Deterministic shard seeds.**  Shard ``i`` draws from
  ``SeedSequence([seed, STREAM_SHARD, i])`` (numpy Philox-backed
  generators), so its content is a pure function of ``(config, i)``.
  Worker count and completion order only change *scheduling*; the
  merged fingerprint is identical at 1, 2, or N workers.
- **Config-owned layout.**  The paper→(year, venue) plan, author-pool
  sizes, and shard boundaries derive from the config alone
  (``shard_size`` is part of corpus identity, like any other knob).
- **Shard-independent citations.**  The sequential generator's
  accumulate-as-you-go preferential attachment is replaced by a frozen
  preferential prior: a paper cites earlier-*year* papers with
  probability decaying in global index (``rank = ⌊E·u²⌋`` — old papers
  collect most citations, power-law-ish), biased toward its own topic
  via the config's ``same_topic_citation_bias``.  Topic identities of
  earlier papers come from a **skeleton** pass — per-(year, venue)
  topic columns drawn from their own seed streams — which any shard
  can regenerate cheaply, so no shard ever waits on another.
- **Streaming through the artifact cache.**  With a cache directory,
  each worker writes its shard as a ``corpus-shard`` artifact and
  returns only its manifest row; the parent never holds more than one
  decoded shard (``stream=True``), so a 10⁶–10⁷-paper corpus never
  fully materializes in RAM.
- **Warm opens read one entry.**  Once every shard is in the cache,
  the rows land as one ``corpus-manifest`` entry; a later open builds
  the corpus from it and reads no shard until one is used.
- **Crash-safe.**  Shards run under the same
  :class:`~repro.runtime.supervisor.WorkerSupervisor` as suite
  experiments (fault site ``shardgen:shard``): a killed worker rebuilds
  the pool and requeues unfinished shards, and a quarantined shard or
  a degraded remainder is generated in-process.  Generation is
  idempotent and content-addressed, so the fingerprint is unchanged
  either way.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from repro.bibliometrics.columnar import (
    HUMAN_FAMILY_ORDER,
    MANIFEST_ARTIFACT_KIND,
    SHARD_ARTIFACT_KIND,
    SHARD_SCHEMA_VERSION,
    ColumnarCorpus,
    ColumnarShard,
    CorpusVocab,
    TextColumn,
    decode_shard,
    encode_shard,
    shard_manifest_row,
)
from repro.bibliometrics.corpus import Venue
from repro.bibliometrics.synthgen import (
    _COMMUNITIES,
    _GIVEN,
    _HUMAN_METHOD_SENTENCES,
    _IDENTITIES,
    _PARTNERS,
    _POSITIONALITY_STATEMENTS,
    _QUANT_METHOD_SENTENCES,
    _REGIONS,
    _SECTORS,
    _SURNAMES,
    TOPICS,
    VenueProfile,
    default_venue_profiles,
)

__all__ = [
    "ShardedCorpusConfig",
    "CorpusPlan",
    "build_vocab",
    "generate_columnar_corpus",
    "generate_shard",
    "manifest_cache_config",
    "shard_cache_config",
    "topic_skeleton",
]

#: Sub-stream tags under the root seed; distinct streams never collide.
STREAM_TOPIC = 1
STREAM_AUTHORS = 2
STREAM_SHARD = 3

#: Fault-injection site consulted once per shard in pool workers
#: (worker-only modes like ``kill`` pass through elsewhere).
FAULT_SITE = "shardgen:shard"

#: Exponent of the frozen preferential prior: a citation lands on
#: earlier-paper rank ``⌊E·u**_PRIOR_EXPONENT⌋`` for ``u ~ U[0, 1)``.
_PRIOR_EXPONENT = 2.0

#: Pre-filled variants kept per sentence template (per shard).
_VARIANTS = 16

#: Title suffixes (mirrors the sequential generator's pool).
_TITLE_SUFFIXES = (
    "at scale", "in the wild", "under constraints", "revisited",
    "for the next decade", "across regions",
)

_CLOSING = (
    "Results show consistent improvements and surface open questions "
    "for operators and researchers."
)

_TOPIC_NAMES: tuple[str, ...] = tuple(sorted(TOPICS))
_QUANT_FAMILIES: tuple[str, ...] = tuple(sorted(_QUANT_METHOD_SENTENCES))


@dataclass(frozen=True)
class ShardedCorpusConfig:
    """Parameters of a sharded columnar corpus.

    Every field — including ``shard_size`` — is part of corpus
    identity: two configs that differ anywhere generate different
    corpora (and land on different artifact-cache keys).  Worker count
    is *not* a field; it never changes the output.

    Attributes:
        start_year: First publication year (inclusive).
        end_year: Last publication year (inclusive).
        seed: Root seed for every derived stream.
        total_papers: Exact corpus size; the plan distributes papers
            over (year, venue) cells proportionally to the venue
            profiles' ``papers_per_year``.
        shard_size: Papers per shard (the last shard may be smaller).
        authors_per_venue_pool: Base per-venue author-pool size at the
            *reference* scale; pools scale linearly with
            ``total_papers`` so per-author productivity stays flat.
        annual_pool_growth: Newcomer influx per year as a fraction of
            the scaled initial pool.
        mean_authors_per_paper: Average author-list length.
        mean_references: Average within-corpus citation count.
        same_topic_citation_bias: Multiplier favoring same-topic
            citations (legacy knob, same meaning).
    """

    start_year: int = 2000
    end_year: int = 2025
    seed: int = 0
    total_papers: int = 100_000
    shard_size: int = 25_000
    authors_per_venue_pool: int = 120
    annual_pool_growth: float = 0.04
    mean_authors_per_paper: float = 4.0
    mean_references: float = 8.0
    same_topic_citation_bias: float = 4.0

    def __post_init__(self) -> None:
        if self.end_year < self.start_year:
            raise ValueError("end_year must be >= start_year")
        if self.total_papers < 1:
            raise ValueError("total_papers must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.authors_per_venue_pool < 1:
            raise ValueError("authors_per_venue_pool must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


def manifest_cache_config(
    config: ShardedCorpusConfig, profiles: list[VenueProfile]
) -> dict:
    """The artifact-cache key config of a corpus's ``corpus-manifest``.

    The full generator config *and* the venue profiles, so a custom
    panel can never alias the default one.
    """
    return {"config": config.to_dict(), "profiles": [asdict(p) for p in profiles]}


def shard_cache_config(
    config: ShardedCorpusConfig,
    profiles: list[VenueProfile],
    shard_index: int,
) -> dict:
    """The artifact-cache key config for one shard: the manifest's
    key plus the shard index."""
    return {**manifest_cache_config(config, profiles), "shard": shard_index}


class CorpusPlan:
    """The config-deterministic layout: papers → (year, venue) cells.

    Papers are ordered year-major, then venue (profile order), then
    position within the cell; global paper index therefore increases
    with year, which is what lets citations address "all earlier-year
    papers" as the contiguous index range ``[0, year_start)``.
    """

    def __init__(
        self, config: ShardedCorpusConfig, profiles: list[VenueProfile]
    ) -> None:
        if not profiles:
            raise ValueError("need at least one venue profile")
        self.config = config
        self.profiles = list(profiles)
        self.n_venues = len(self.profiles)
        self.n_years = config.end_year - config.start_year + 1
        base = np.array(
            [float(p.papers_per_year) for p in self.profiles], dtype=float
        )
        base_total = float(base.sum()) * self.n_years
        if base_total <= 0:
            raise ValueError("venue profiles generate no papers")
        self.scale = config.total_papers / base_total

        # Exact-total apportionment: floor the scaled weights, then give
        # the remainder to the cells with the largest fractional parts
        # (ties broken by cell index — fully deterministic).
        raw = np.tile(base * self.scale, self.n_years)
        counts = np.floor(raw).astype(np.int64)
        remainder = config.total_papers - int(counts.sum())
        if remainder > 0:
            order = np.argsort(-(raw - counts), kind="stable")
            counts[order[:remainder]] += 1
        self.cell_counts = counts
        self.cell_starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cell_starts[1:])
        #: Global index where each year's papers begin (len n_years + 1).
        self.year_starts = self.cell_starts[:: self.n_venues].copy()

        # Author pools: scaled linearly so papers-per-author stays flat
        # as the corpus grows; same pool size for every venue (as in
        # the sequential generator).
        self.pool0 = max(8, round(config.authors_per_venue_pool * self.scale))
        self.influx = max(0, round(config.annual_pool_growth * self.pool0))
        self.pool_total = self.pool0 + self.influx * (self.n_years - 1)
        self.author_offsets = (
            np.arange(self.n_venues + 1, dtype=np.int64) * self.pool_total
        )

        self.total_papers = config.total_papers
        self.n_shards = math.ceil(config.total_papers / config.shard_size)

    def shard_range(self, shard_index: int) -> tuple[int, int]:
        """Global paper index range ``[lo, hi)`` of shard ``shard_index``."""
        if not 0 <= shard_index < self.n_shards:
            raise IndexError(
                f"shard {shard_index} out of range 0..{self.n_shards - 1}"
            )
        lo = shard_index * self.config.shard_size
        return lo, min(self.total_papers, lo + self.config.shard_size)

    def shard_sizes(self) -> list[int]:
        return [
            self.shard_range(i)[1] - self.shard_range(i)[0]
            for i in range(self.n_shards)
        ]

    def cells_overlapping(self, lo: int, hi: int) -> Iterable[tuple[int, int, int]]:
        """Yield ``(cell_index, cell_lo, cell_hi)`` clipped to [lo, hi)."""
        first = int(np.searchsorted(self.cell_starts, lo, side="right")) - 1
        for cell in range(max(0, first), self.cell_counts.size):
            cell_lo = int(self.cell_starts[cell])
            cell_hi = int(self.cell_starts[cell + 1])
            if cell_lo >= hi:
                break
            if cell_hi <= lo:
                continue
            yield cell, max(cell_lo, lo), min(cell_hi, hi)

    def cell_year_venue(self, cell: int) -> tuple[int, int]:
        """(year, venue index) of cell ``cell``."""
        return (
            self.config.start_year + cell // self.n_venues,
            cell % self.n_venues,
        )


# -- per-process memos -------------------------------------------------------

#: config-key -> (plan, skeleton, topic_order, topic_bounds); one corpus
#: config per worker process in practice, so a single slot suffices.
_MEMO: dict[str, tuple] = {}
_MEMO_SLOTS = 2


def _memo_key(config: ShardedCorpusConfig, profiles: list[VenueProfile]) -> str:
    return json.dumps(
        {"config": config.to_dict(), "profiles": [asdict(p) for p in profiles]},
        sort_keys=True,
    )


def _weight_vector(weights: dict[str, float], names: tuple[str, ...]) -> np.ndarray:
    """Cumulative probability vector over ``names`` (absent keys = 0)."""
    values = np.array([float(weights.get(name, 0.0)) for name in names])
    total = values.sum()
    if total <= 0:
        raise ValueError(f"weights sum to zero over {names}")
    return np.cumsum(values / total)


def topic_skeleton(
    config: ShardedCorpusConfig, profiles: list[VenueProfile], plan: CorpusPlan
) -> np.ndarray:
    """Topic index (into sorted topic names) for *every* paper.

    Drawn per (year, venue) cell from ``SeedSequence([seed,
    STREAM_TOPIC, cell])`` — independent of sharding, so every shard
    regenerates the identical skeleton and cross-shard citation
    targeting agrees everywhere.  Cheap: one vectorized draw per cell.
    """
    skeleton = np.empty(plan.total_papers, dtype=np.int16)
    cum_by_venue = [
        _weight_vector(p.topic_weights, _TOPIC_NAMES) for p in profiles
    ]
    for cell in range(plan.cell_counts.size):
        count = int(plan.cell_counts[cell])
        if count == 0:
            continue
        _, venue = plan.cell_year_venue(cell)
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, STREAM_TOPIC, cell])
        )
        draws = rng.random(count)
        lo = int(plan.cell_starts[cell])
        skeleton[lo:lo + count] = np.searchsorted(
            cum_by_venue[venue], draws, side="right"
        ).astype(np.int16)
    return skeleton


def _analysis(config: ShardedCorpusConfig, profiles: list[VenueProfile]):
    """Memoized (plan, skeleton, topic_order, topic_bounds) per config."""
    key = _memo_key(config, profiles)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    plan = CorpusPlan(config, profiles)
    skeleton = topic_skeleton(config, profiles, plan)
    # Earlier-paper index grouped by topic, ascending index within each
    # topic (stable sort), for same-topic citation targeting.
    topic_order = np.argsort(skeleton, kind="stable").astype(np.int64)
    topic_bounds = np.searchsorted(
        skeleton[topic_order], np.arange(len(_TOPIC_NAMES) + 1)
    )
    value = (plan, skeleton, topic_order, topic_bounds)
    while len(_MEMO) >= _MEMO_SLOTS:
        _MEMO.pop(next(iter(_MEMO)))
    _MEMO[key] = value
    return value


def build_vocab(
    config: ShardedCorpusConfig,
    profiles: list[VenueProfile] | None = None,
    plan: CorpusPlan | None = None,
) -> CorpusVocab:
    """The shared side tables (venues, topics, columnar author table).

    Author attributes draw from ``SeedSequence([seed, STREAM_AUTHORS,
    venue])`` — one stream per venue, untouched by sharding.
    """
    profiles = profiles if profiles is not None else default_venue_profiles()
    plan = plan or CorpusPlan(config, profiles)
    n_total = int(plan.author_offsets[-1])
    sector_idx = np.empty(n_total, dtype=np.int8)
    region_idx = np.empty(n_total, dtype=np.int8)
    given_idx = np.empty(n_total, dtype=np.int16)
    surname_idx = np.empty(n_total, dtype=np.int16)
    affil_num = np.empty(n_total, dtype=np.int8)
    sector_pos = {name: i for i, name in enumerate(_SECTORS)}
    region_pos = {name: i for i, name in enumerate(_REGIONS)}
    for venue, profile in enumerate(profiles):
        lo, hi = int(plan.author_offsets[venue]), int(plan.author_offsets[venue + 1])
        n = hi - lo
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, STREAM_AUTHORS, venue])
        )
        sector_names = tuple(sorted(profile.sector_weights))
        region_names = tuple(sorted(profile.region_weights))
        sector_draw = np.searchsorted(
            _weight_vector(profile.sector_weights, sector_names),
            rng.random(n), side="right",
        )
        region_draw = np.searchsorted(
            _weight_vector(profile.region_weights, region_names),
            rng.random(n), side="right",
        )
        sector_idx[lo:hi] = np.array(
            [sector_pos[name] for name in sector_names], dtype=np.int8
        )[sector_draw]
        region_idx[lo:hi] = np.array(
            [region_pos[name] for name in region_names], dtype=np.int8
        )[region_draw]
        given_idx[lo:hi] = rng.integers(0, len(_GIVEN), n, dtype=np.int16)
        surname_idx[lo:hi] = rng.integers(0, len(_SURNAMES), n, dtype=np.int16)
        affil_num[lo:hi] = rng.integers(1, 31, n, dtype=np.int8)
    return CorpusVocab(
        venues=tuple(Venue(p.venue_id, p.name, p.kind) for p in profiles),
        topics=_TOPIC_NAMES,
        author_offsets=plan.author_offsets,
        author_sector_idx=sector_idx,
        author_region_idx=region_idx,
        author_given_idx=given_idx,
        author_surname_idx=surname_idx,
        author_affil_num=affil_num,
        sectors=_SECTORS,
        regions=_REGIONS,
        given_names=_GIVEN,
        surnames=_SURNAMES,
    )


# -- text pools --------------------------------------------------------------


def _fill_template(template: str, rng: np.random.Generator) -> str:
    return template.format(
        partner=_PARTNERS[int(rng.integers(0, len(_PARTNERS)))],
        months=int(rng.integers(3, 25)),
        n_participants=int(rng.integers(8, 61)),
        n_sites=int(rng.integers(2, 13)),
    )


def _sentence_pools(
    rng: np.random.Generator,
) -> tuple[list[list[str]], dict[str, list[list[str]]], list[str]]:
    """Pre-filled sentence variants for this shard's abstracts/bodies.

    Returns ``(quant_pools, human_pools, positionality_pool)`` where
    each template owns ``_VARIANTS`` filled strings; per-paper choices
    then index into the pools instead of re-formatting per paper.
    """
    quant_pools: list[list[str]] = []
    for family in _QUANT_FAMILIES:
        for template in _QUANT_METHOD_SENTENCES[family]:
            quant_pools.append(
                [_fill_template(template, rng) for _ in range(_VARIANTS)]
            )
    human_pools: dict[str, list[list[str]]] = {}
    for family in HUMAN_FAMILY_ORDER:
        human_pools[family] = [
            [_fill_template(template, rng) for _ in range(_VARIANTS)]
            for template in _HUMAN_METHOD_SENTENCES[family]
        ]
    positionality_pool = [
        _POSITIONALITY_STATEMENTS[int(rng.integers(0, len(_POSITIONALITY_STATEMENTS)))]
        .format(
            identity=_IDENTITIES[int(rng.integers(0, len(_IDENTITIES)))],
            community=_COMMUNITIES[int(rng.integers(0, len(_COMMUNITIES)))],
        )
        for _ in range(_VARIANTS)
    ]
    return quant_pools, human_pools, positionality_pool


#: Per-kind pools of human-method families (bit indices into
#: HUMAN_FAMILY_ORDER), mirroring the sequential generator.
_KIND_FAMILY_POOLS: dict[str, tuple[int, ...]] = {
    "networking": tuple(
        HUMAN_FAMILY_ORDER.index(f)
        for f in ("interviews", "surveys", "participatory", "ethnography")
    ),
    "hci": tuple(
        HUMAN_FAMILY_ORDER.index(f)
        for f in ("interviews", "participatory", "diaries", "focus_groups",
                  "surveys", "ethnography")
    ),
    "sts": tuple(
        HUMAN_FAMILY_ORDER.index(f)
        for f in ("ethnography", "interviews", "participatory")
    ),
}


def _dedup_csr(
    paper_of_slot: np.ndarray, values: np.ndarray, n_papers: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-paper deduplicated CSR from flat (paper, value) slot pairs.

    Vectorized: encode pairs as ``paper * stride + value``, ``np.unique``
    the lot, decode.  Values come back sorted ascending within each
    paper, matching the sequential generator's sorted tuples.
    """
    indptr = np.zeros(n_papers + 1, dtype=np.int64)
    if values.size == 0:
        return indptr, values.astype(np.int64)
    keys = np.unique(paper_of_slot.astype(np.int64) * stride + values)
    papers = keys // stride
    np.cumsum(np.bincount(papers, minlength=n_papers), out=indptr[1:])
    return indptr, keys % stride


def generate_shard(
    config: ShardedCorpusConfig,
    profiles: list[VenueProfile] | None = None,
    shard_index: int = 0,
) -> ColumnarShard:
    """Generate shard ``shard_index`` — a pure function of its arguments.

    All sampling is vectorized over the shard's papers; the only
    Python-level loops assemble strings (titles/abstracts) and run once
    per paper.
    """
    profiles = profiles if profiles is not None else default_venue_profiles()
    plan, skeleton, topic_order, topic_bounds = _analysis(config, profiles)
    lo, hi = plan.shard_range(shard_index)
    n = hi - lo
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, STREAM_SHARD, shard_index])
    )

    # -- layout columns (from the plan, not the RNG) --------------------
    year = np.empty(n, dtype=np.int32)
    venue_idx = np.empty(n, dtype=np.int16)
    horizon = np.empty(n, dtype=np.int64)  # papers in strictly earlier years
    for cell, clip_lo, clip_hi in plan.cells_overlapping(lo, hi):
        cell_year, cell_venue = plan.cell_year_venue(cell)
        sl = slice(clip_lo - lo, clip_hi - lo)
        year[sl] = cell_year
        venue_idx[sl] = cell_venue
        horizon[sl] = plan.year_starts[cell_year - config.start_year]
    topic_idx = skeleton[lo:hi].astype(np.int16)
    years_in = (year - config.start_year).astype(np.int64)

    # -- human-method truth --------------------------------------------
    base_rate = np.array([p.human_method_rate for p in profiles])
    trend = np.array([p.human_method_trend for p in profiles])
    pos_rate = np.array([p.positionality_rate for p in profiles])
    rate = np.clip(base_rate[venue_idx] + trend[venue_idx] * years_in, 0.0, 1.0)
    uses_human = rng.random(n) < rate
    n_families = (
        1 + (rng.random(n) < 0.45).astype(np.int8)
        + (rng.random(n) < 0.15).astype(np.int8)
    )
    family_scores = rng.random((n, len(HUMAN_FAMILY_ORDER)))
    human_mask = np.zeros(n, dtype=np.uint16)
    kinds = np.array(
        [("networking", "hci", "sts").index(p.kind) for p in profiles],
        dtype=np.int8,
    )
    paper_kind = kinds[venue_idx]
    for kind_pos, kind_name in enumerate(("networking", "hci", "sts")):
        pool = np.array(_KIND_FAMILY_POOLS[kind_name], dtype=np.int64)
        rows = np.nonzero(uses_human & (paper_kind == kind_pos))[0]
        if rows.size == 0:
            continue
        scores = family_scores[rows][:, pool]
        # rank of each pool slot within its row; the k smallest win.
        ranks = np.argsort(np.argsort(scores, axis=1), axis=1)
        k = np.minimum(n_families[rows], pool.size)[:, None]
        selected = ranks < k
        weights = (1 << pool).astype(np.uint16)
        human_mask[rows] = (selected * weights).sum(axis=1).astype(np.uint16)
    positionality = (
        uses_human & (rng.random(n) < pos_rate[venue_idx])
    ).astype(np.uint8)

    # -- title / abstract / body text ----------------------------------
    verbs_cap = [tuple(v.capitalize() for v in TOPICS[t]["verbs"]) for t in _TOPIC_NAMES]
    nouns = [tuple(TOPICS[t]["nouns"]) for t in _TOPIC_NAMES]
    n_verbs = np.array([len(v) for v in verbs_cap])
    n_nouns = np.array([len(v) for v in nouns])
    verb_idx = (rng.random(n) * n_verbs[topic_idx]).astype(np.int64)
    noun_idx = (rng.random(n) * n_nouns[topic_idx]).astype(np.int64)
    suffix_idx = rng.integers(0, len(_TITLE_SUFFIXES), n)
    lead_noun_idx = (rng.random(n) * n_nouns[topic_idx]).astype(np.int64)

    quant_pools, human_pools, positionality_pool = _sentence_pools(rng)
    quant_tpl = rng.integers(0, len(quant_pools), n)
    quant_var = rng.integers(0, _VARIANTS, n)
    # Per-(paper, family) template+variant choices, drawn unconditionally
    # (fixed shapes keep the stream layout simple and deterministic).
    human_tpl = rng.random((n, len(HUMAN_FAMILY_ORDER)))
    human_var = rng.integers(0, _VARIANTS, (n, len(HUMAN_FAMILY_ORDER)))
    pos_var = rng.integers(0, _VARIANTS, n)

    titles: list[str] = []
    abstracts: list[str] = []
    bodies: list[str] = []
    human_pool_sizes = [len(human_pools[f]) for f in HUMAN_FAMILY_ORDER]
    mask_list = human_mask.tolist()
    for i in range(n):
        t = topic_idx[i]
        titles.append(
            f"{verbs_cap[t][verb_idx[i]]} {nouns[t][noun_idx[i]]} "
            f"{_TITLE_SUFFIXES[suffix_idx[i]]}"
        )
        parts = [
            f"This paper studies {nouns[t][lead_noun_idx[i]]} and the "
            f"practices surrounding it. We present a system-level analysis "
            f"and report lessons for the community.",
            quant_pools[quant_tpl[i]][quant_var[i]],
        ]
        mask = mask_list[i]
        if mask:
            for bit, family in enumerate(HUMAN_FAMILY_ORDER):
                if mask & (1 << bit):
                    pool = human_pools[family]
                    tpl = int(human_tpl[i, bit] * human_pool_sizes[bit])
                    parts.append(pool[tpl][human_var[i, bit]])
        parts.append(_CLOSING)
        abstracts.append(" ".join(parts))
        bodies.append(positionality_pool[pos_var[i]] if positionality[i] else "")

    # -- authors --------------------------------------------------------
    active = (plan.pool0 + plan.influx * years_in).astype(np.int64)
    n_auth = np.clip(
        np.rint(rng.normal(config.mean_authors_per_paper, 1.5, n)).astype(np.int64),
        1, active,
    )
    paper_of_slot = np.repeat(np.arange(n, dtype=np.int64), n_auth)
    local_author = (
        rng.random(int(n_auth.sum())) * active[paper_of_slot]
    ).astype(np.int64)
    global_author = plan.author_offsets[venue_idx[paper_of_slot]] + local_author
    author_indptr, author_values = _dedup_csr(
        paper_of_slot, global_author, n, int(plan.author_offsets[-1]) + 1
    )

    # -- citations ------------------------------------------------------
    n_refs = np.clip(
        np.rint(rng.normal(config.mean_references, 3.0, n)).astype(np.int64),
        0, horizon,
    )
    paper_of_ref = np.repeat(np.arange(n, dtype=np.int64), n_refs)
    total_refs = int(n_refs.sum())
    if total_refs:
        u = rng.random(total_refs) ** _PRIOR_EXPONENT
        bias = max(0.0, float(config.same_topic_citation_bias))
        want_same = rng.random(total_refs) < (bias / (bias + 1.0))
        ref_horizon = horizon[paper_of_ref]
        ref_topic = topic_idx[paper_of_ref].astype(np.int64)
        targets = (u * ref_horizon).astype(np.int64)  # uniform-prior fallback
        # Same-topic redirect: count earlier-year same-topic papers per
        # slot (prefix of the topic's index-sorted segment), then map
        # the prior draw into that segment.
        same_count = np.zeros(total_refs, dtype=np.int64)
        for t in range(len(_TOPIC_NAMES)):
            mask = ref_topic == t
            if not mask.any():
                continue
            seg = topic_order[topic_bounds[t]:topic_bounds[t + 1]]
            counts = np.searchsorted(seg, ref_horizon[mask])
            same_count[mask] = counts
            redirect = mask & want_same & (same_count > 0)
            if redirect.any():
                ranks = (u[redirect] * same_count[redirect]).astype(np.int64)
                targets[redirect] = seg[ranks]
        ref_indptr, ref_values = _dedup_csr(
            paper_of_ref, targets, n, plan.total_papers + 1
        )
    else:
        ref_indptr = np.zeros(n + 1, dtype=np.int64)
        ref_values = np.zeros(0, dtype=np.int64)

    return ColumnarShard(
        index=shard_index,
        paper_offset=lo,
        year=year,
        venue_idx=venue_idx,
        topic_idx=topic_idx,
        author_indptr=author_indptr,
        author_values=author_values,
        ref_indptr=ref_indptr,
        ref_values=ref_values,
        human_mask=human_mask,
        positionality=positionality,
        title=TextColumn.from_strings(titles),
        abstract=TextColumn.from_strings(abstracts),
        body=TextColumn.from_strings(bodies),
    )


# -- worker protocol ---------------------------------------------------------


def _produce_shard(
    config: ShardedCorpusConfig,
    profiles: list[VenueProfile],
    shard_index: int,
    cache_dir: str | None,
    keep_shard: bool,
) -> tuple[ColumnarShard | None, dict]:
    """Generate-or-load one shard; returns ``(shard_or_None, row)``.

    With a cache directory the shard is read through (and written to)
    the artifact cache — concurrent producers serialize on the per-key
    lock, so racing workers generate each shard at most once.  The
    :func:`shard_manifest_row`'s ``sha256`` is the entry's digest, or
    None when the shard landed in no entry.
    """
    from repro.io.artifacts import ArtifactCache

    sha256 = None
    if cache_dir is None:
        shard = generate_shard(config, profiles, shard_index)
    else:
        cache = ArtifactCache(cache_dir, version=SHARD_SCHEMA_VERSION, sweep=False)
        key = shard_cache_config(config, profiles, shard_index)
        holder: dict[str, ColumnarShard] = {}

        def factory() -> list[dict]:
            built = generate_shard(config, profiles, shard_index)
            holder["shard"] = built
            return encode_shard(built)

        records = cache.get_or_create(SHARD_ARTIFACT_KIND, key, factory)
        shard = holder.get("shard") or decode_shard(records)
        sha256 = cache.declared_digest(SHARD_ARTIFACT_KIND, key)
    return (shard if keep_shard else None), shard_manifest_row(shard, sha256)


def _shard_task(task: dict) -> dict:
    """Supervisor entry point: produce one shard, return its result.

    Consults the ``shardgen:shard`` fault site first, under the task's
    injector installed process-wide (so ``artifacts:*``/``io:*`` sites
    see it too) — in a pool worker and in-process alike.  Prior worker
    crashes are credited against ``kill`` budgets, so a "crash once,
    then succeed" schedule behaves identically across requeues.
    """
    from repro.runtime.faultinject import FaultInjector, use_fault_injector

    injector = FaultInjector.from_task(task["fault"], task["worker_crashes"])
    with use_fault_injector(injector):
        if injector is not None:
            injector.check(FAULT_SITE)
        shard, row = _produce_shard(
            task["config"], task["profiles"], task["shard"],
            task["cache_dir"], task["keep_shard"],
        )
    result = dict(row)
    if shard is not None:
        result["payload"] = shard
    return result


def _manifest_rows(cache, key: dict, sizes: list[int]) -> list[dict] | None:
    """The cached ``corpus-manifest`` rows, or None unless they are intact
    and describe exactly the planned shards (the cache verified the
    entry's digest; this checks what it says)."""
    rows = cache.get(MANIFEST_ARTIFACT_KIND, key)
    if rows is None or len(rows) != len(sizes):
        return None
    for index, (row, size) in enumerate(zip(rows, sizes)):
        if (
            not isinstance(row, dict)
            or set(row) != {"index", "n_papers", "sha256", "fingerprint"}
            or row["index"] != index
            or row["n_papers"] != size
            or not isinstance(row["sha256"], str)
            or not isinstance(row["fingerprint"], str)
        ):
            return None
    return rows


def generate_columnar_corpus(
    config: ShardedCorpusConfig | None = None,
    profiles: list[VenueProfile] | None = None,
    *,
    workers: int = 1,
    cache_dir: str | None = None,
    stream: bool = False,
    fault_injector=None,
    on_shard: Callable[[dict], None] | None = None,
) -> ColumnarCorpus:
    """Generate (or reload) a sharded columnar corpus.

    With a ``cache_dir``, a warm open reads the corpus's one
    ``corpus-manifest`` entry (a :func:`shard_manifest_row` per shard)
    and builds the corpus from it: it starts no workers and reads no
    shard.  Each shard is then loaded on first use, and that load
    checks the entry's body digest and the shard's fingerprint
    against the row.  When the manifest is missing, damaged, or
    disagrees with the planned shard sizes, every shard is produced
    (generated, or replayed from its own entry), and the manifest is
    written once every shard has an entry (a lock-timeout fallback
    leaves one without).  ``shardgen.manifest_hits`` and
    ``shardgen.manifest_rebuilds`` count the two paths.

    Args:
        config: Generator parameters (default: the default config).
        profiles: Venue panel (default: the 12-venue default panel).
        workers: Process-pool width for shard generation; **never**
            changes the corpus content or fingerprint.  Shards run
            under :class:`~repro.runtime.supervisor.WorkerSupervisor`
            (in-process at 1 worker or for a one-shard corpus).
        cache_dir: Artifact-cache directory shards stream through.  A
            warm cache replays shards without regeneration (and with an
            identical fingerprint).  Required for ``stream=True``.
        stream: Keep at most one decoded shard resident in the
            returned corpus; shards reload from the cache on demand.
        fault_injector: Optional
            :class:`~repro.runtime.faultinject.FaultInjector` that every
            shard task consults (site ``shardgen:shard``) at any worker
            count.  An ordinary exception it injects propagates.  A
            manifest hit runs no shard task.
        on_shard: Optional callback invoked with each shard's manifest
            row as it completes (progress reporting); on a manifest hit,
            once per row in shard order.

    Returns:
        A :class:`ColumnarCorpus` whose fingerprint depends only on
        ``(config, profiles)``.
    """
    from repro.errors import WorkerCrashError
    from repro.obs.metrics import current_metrics
    from repro.runtime.supervisor import WorkerSupervisor

    config = config or ShardedCorpusConfig()
    profiles = profiles if profiles is not None else default_venue_profiles()
    if stream and cache_dir is None:
        raise ValueError("stream=True requires a cache_dir to stream through")
    plan = CorpusPlan(config, profiles)
    sizes = plan.shard_sizes()
    keep_shards = not stream
    shards: dict[int, ColumnarShard] = {}
    cache = manifest_key = rows = None
    if cache_dir is not None:
        from repro.io.artifacts import ArtifactCache

        cache = ArtifactCache(cache_dir, version=SHARD_SCHEMA_VERSION, sweep=False)
        manifest_key = manifest_cache_config(config, profiles)
        rows = _manifest_rows(cache, manifest_key, sizes)
    if rows is not None:
        current_metrics().count("shardgen.manifest_hits")
        if on_shard is not None:
            for row in rows:
                on_shard(row)
    else:
        by_index: dict[int, dict] = {}
        width = min(workers, plan.n_shards)
        fault = fault_injector.to_task() if fault_injector is not None else None
        tasks = {
            index: {
                "config": config,
                "profiles": profiles,
                "shard": index,
                "cache_dir": cache_dir,
                # Pool workers with a cache return only the row; the
                # parent reloads from the cache on demand.
                "keep_shard": keep_shards and (cache_dir is None or width == 1),
                "fault": fault,
                "worker_crashes": 0,
            }
            for index in range(plan.n_shards)
        }
        supervisor = WorkerSupervisor(workers=width, cache_dir=cache_dir)
        outcomes = supervisor.run(
            _shard_task, [(i, task, {"shard": i}) for i, task in tasks.items()]
        )
        with contextlib.closing(outcomes):
            for index, result, error in outcomes:
                if isinstance(error, WorkerCrashError):
                    # A quarantined shard: generate it here, where kill
                    # faults do not fire, so the corpus always completes
                    # with the same bytes.
                    result = _shard_task(tasks[index])
                elif error is not None:
                    raise error
                payload = result.pop("payload", None)
                if payload is not None and keep_shards:
                    shards[index] = payload
                by_index[index] = result
                if on_shard is not None:
                    on_shard(result)
        rows = [by_index[i] for i in range(plan.n_shards)]
        if cache is not None and all(row["sha256"] for row in rows):
            cache.put(MANIFEST_ARTIFACT_KIND, manifest_key, rows)
            current_metrics().count("shardgen.manifest_rebuilds")

    if cache is not None:
        def loader(index: int) -> ColumnarShard:
            shard = shards.get(index)
            if shard is not None:
                return shard
            # shard_cache_config, without re-serializing the venue
            # panel on every load.
            key = {**manifest_key, "shard": index}
            records = cache.get(SHARD_ARTIFACT_KIND, key)
            if records is not None:
                return decode_shard(records)
            # Evicted or corrupted behind our back (the cache verifies
            # the body digest on every read, so bit-rot lands here too):
            # regenerate — the shard is a pure function of
            # (config, index) — and land it again for the next open.
            # Counted so a scrubbed-around corruption shows in the
            # metrics export (`--metrics-out`), not silent.
            current_metrics().count("shardgen.recovered_shards")
            shard = generate_shard(config, profiles, index)
            cache.put(SHARD_ARTIFACT_KIND, key, encode_shard(shard))
            return shard
    else:
        def loader(index: int) -> ColumnarShard:
            shard = shards.get(index)
            if shard is not None:
                return shard
            return generate_shard(config, profiles, index)

    return ColumnarCorpus(
        build_vocab(config, profiles, plan),
        sizes,
        loader,
        shard_fingerprints=[row["fingerprint"] for row in rows],
        max_resident=1 if stream else None,
    )
