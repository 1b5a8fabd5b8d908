"""Columnar (struct-of-arrays) corpus representation.

The dataclass :class:`~repro.bibliometrics.corpus.Corpus` holds one
Python object per paper — fine at 10³–10⁴ papers, the scale ceiling at
10⁶–10⁷.  This module stores a corpus as contiguous numpy columns
grouped into fixed-size **shards**:

- integer columns per paper (``year``, ``venue_idx``, ``topic_idx``),
- author lists and within-corpus citations as CSR pairs
  (``indptr``/``values``) of *global* author / paper indices,
- text (titles, abstracts, bodies) as :class:`TextColumn` pools — one
  concatenated blob plus an offsets array, so a shard's strings cost
  two objects instead of ``3 × n_papers``,
- generator ground truth as a per-paper human-family bitmask plus a
  positionality flag column.

:class:`ColumnarCorpus` is storage: shard access, residency, the
fingerprint, and array aggregates.  Scale-aware callers reduce per
shard via :meth:`ColumnarCorpus.iter_shards` and the per-shard
reducers in :mod:`repro.bibliometrics.shardscan`.  The one Paper-level
API is the classic :class:`~repro.bibliometrics.corpus.Corpus`;
:meth:`ColumnarCorpus.to_corpus` is the single bridge to it.  With
``max_resident=1`` the corpus streams: at most one shard's string pools
are decoded at a time and the rest live in the
:class:`repro.io.artifacts.ArtifactCache`.

Shards serialize to the artifact cache's JSONL record format (one
record per column, numeric data base64-encoded, text stored as JSON
strings — no pickle), and fingerprint over their raw column buffers;
:func:`merge_fingerprints` combines per-shard digests associatively in
shard order, which is what makes the corpus fingerprint independent of
worker count and cache state.
"""

from __future__ import annotations

import base64
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.bibliometrics.corpus import Author, Corpus, Paper, Venue
from repro.errors import IntegrityError

__all__ = [
    "HUMAN_FAMILY_ORDER",
    "MANIFEST_ARTIFACT_KIND",
    "SHARD_ARTIFACT_KIND",
    "SHARD_SCHEMA_VERSION",
    "ColumnarCorpus",
    "ColumnarShard",
    "CorpusVocab",
    "TextColumn",
    "decode_shard",
    "encode_shard",
    "merge_fingerprints",
    "paper_id_for",
    "shard_manifest_row",
]

#: Artifact-cache kind for streamed corpus shards.
SHARD_ARTIFACT_KIND = "corpus-shard"

#: Artifact-cache kind for a corpus's shard manifest: one
#: :func:`shard_manifest_row` per shard, so a warm open reads no shard.
MANIFEST_ARTIFACT_KIND = "corpus-manifest"

#: Bump when the column set or encoding changes shape; old cache
#: entries become unreachable and shards are regenerated on demand.
#: v2 rides the artifact format's end-to-end digest bump (PR 9), so
#: every cached shard is re-landed with a verifiable body checksum.
SHARD_SCHEMA_VERSION = 2

#: Bit order of the ground-truth human-family mask (bit i set = the
#: generator planted a sentence of family ``HUMAN_FAMILY_ORDER[i]``).
HUMAN_FAMILY_ORDER: tuple[str, ...] = (
    "diaries",
    "ethnography",
    "focus_groups",
    "interviews",
    "participatory",
    "positionality",
    "surveys",
)

#: Width of the zero-padded global index inside generated paper ids.
_PAPER_ID_DIGITS = 8


def paper_id_for(index: int) -> str:
    """The stable paper id for global paper ``index`` (``p00000042``)."""
    return f"p{index:0{_PAPER_ID_DIGITS}d}"


class TextColumn:
    """``n`` strings stored as one blob plus an int64 offsets array.

    ``offsets`` has ``n + 1`` entries; string ``i`` is
    ``blob[offsets[i]:offsets[i + 1]]``.  Slicing is lazy — holding a
    TextColumn costs two objects however many strings it contains.
    """

    __slots__ = ("blob", "offsets")

    def __init__(self, blob: str, offsets: np.ndarray) -> None:
        self.blob = blob
        self.offsets = np.asarray(offsets, dtype=np.int64)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "TextColumn":
        parts = list(strings)
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in parts], out=offsets[1:])
        return cls("".join(parts), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index: int) -> str:
        return self.blob[self.offsets[index]:self.offsets[index + 1]]

    def __iter__(self) -> Iterator[str]:
        blob, offsets = self.blob, self.offsets
        for i in range(len(self)):
            yield blob[offsets[i]:offsets[i + 1]]

    def strings(self, lo: int, hi: int) -> list[str]:
        """Strings ``lo .. hi - 1``, cut with one offsets read."""
        blob = self.blob
        bounds = self.offsets[lo:hi + 1].tolist()
        return [blob[start:end] for start, end in zip(bounds, bounds[1:])]

    @property
    def nbytes(self) -> int:
        """Approximate resident size (UTF-8 blob + offsets)."""
        return len(self.blob.encode("utf-8", "replace")) + self.offsets.nbytes


#: (attribute name, dtype) of every numeric shard column, in
#: serialization (and fingerprint) order.
_INT_COLUMNS: tuple[tuple[str, str], ...] = (
    ("year", "int32"),
    ("venue_idx", "int16"),
    ("topic_idx", "int16"),
    ("author_indptr", "int64"),
    ("author_values", "int64"),
    ("ref_indptr", "int64"),
    ("ref_values", "int64"),
    ("human_mask", "uint16"),
    ("positionality", "uint8"),
)

_TEXT_COLUMNS: tuple[str, ...] = ("title", "abstract", "body")


@dataclass
class ColumnarShard:
    """One contiguous slice of the corpus in struct-of-arrays form.

    Papers ``paper_offset .. paper_offset + n_papers - 1`` (global
    indices).  ``author_values`` holds global author indices into the
    :class:`CorpusVocab` author table; ``ref_values`` holds global
    *paper* indices (always earlier years, so always resolvable).
    """

    index: int
    paper_offset: int
    year: np.ndarray
    venue_idx: np.ndarray
    topic_idx: np.ndarray
    author_indptr: np.ndarray
    author_values: np.ndarray
    ref_indptr: np.ndarray
    ref_values: np.ndarray
    human_mask: np.ndarray
    positionality: np.ndarray
    title: TextColumn
    abstract: TextColumn
    body: TextColumn

    @property
    def n_papers(self) -> int:
        return int(self.year.shape[0])

    def authors_of(self, local: int) -> np.ndarray:
        """Global author indices of local paper ``local``."""
        return self.author_values[self.author_indptr[local]:self.author_indptr[local + 1]]

    def refs_of(self, local: int) -> np.ndarray:
        """Global paper indices cited by local paper ``local``."""
        return self.ref_values[self.ref_indptr[local]:self.ref_indptr[local + 1]]

    def full_text(self, local: int) -> str:
        """Title + abstract + body of local paper ``local``."""
        return self.full_texts(local, local + 1)[0]

    def full_texts(self, lo: int, hi: int) -> list[str]:
        """:meth:`full_text` of local papers ``lo .. hi - 1``, cut from
        the text columns' buffers."""
        return [
            "\n\n".join(filter(None, parts))
            for parts in zip(
                self.title.strings(lo, hi),
                self.abstract.strings(lo, hi),
                self.body.strings(lo, hi),
            )
        ]

    def human_families(self, local: int) -> tuple[str, ...]:
        """Ground-truth human families planted in local paper ``local``."""
        mask = int(self.human_mask[local])
        return tuple(
            family
            for bit, family in enumerate(HUMAN_FAMILY_ORDER)
            if mask & (1 << bit)
        )

    def fingerprint(self) -> str:
        """SHA-256 over the raw column buffers (order-fixed).

        Computed on the in-memory arrays, so a generated shard and its
        decoded cache copy fingerprint identically (roundtrip fidelity
        is test-enforced) — the corpus fingerprint is therefore the
        same whether shards came cold from the generator or warm from
        the artifact cache.
        """
        digest = hashlib.sha256()
        digest.update(f"shard:{self.index}:{self.paper_offset}:{self.n_papers}".encode())
        for name, dtype in _INT_COLUMNS:
            array = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            digest.update(name.encode())
            digest.update(array.tobytes())
        for name in _TEXT_COLUMNS:
            column: TextColumn = getattr(self, name)
            digest.update(name.encode())
            digest.update(column.blob.encode("utf-8"))
            digest.update(np.ascontiguousarray(column.offsets).tobytes())
        return digest.hexdigest()

    @property
    def nbytes(self) -> int:
        """Approximate resident size of every column."""
        total = 0
        for name, _ in _INT_COLUMNS:
            total += getattr(self, name).nbytes
        for name in _TEXT_COLUMNS:
            total += getattr(self, name).nbytes
        return total


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(
        np.ascontiguousarray(array, dtype=dtype).tobytes()
    ).decode("ascii")


def _unb64(data: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data.encode("ascii")), dtype=dtype).copy()


def encode_shard(shard: ColumnarShard) -> list[dict]:
    """Serialize a shard to artifact-cache records (JSON-safe, no pickle).

    One record per column: numeric columns travel as base64 of their
    little-endian buffer, text columns as the blob string plus base64
    offsets.  The leading record carries the shard header.
    """
    records: list[dict] = [{
        "shard": shard.index,
        "paper_offset": shard.paper_offset,
        "n_papers": shard.n_papers,
    }]
    for name, dtype in _INT_COLUMNS:
        records.append({
            "column": name,
            "dtype": dtype,
            "data": _b64(getattr(shard, name), dtype),
        })
    for name in _TEXT_COLUMNS:
        column: TextColumn = getattr(shard, name)
        records.append({
            "column": name,
            "blob": column.blob,
            "offsets": _b64(column.offsets, "int64"),
        })
    return records


def decode_shard(records: list[dict]) -> ColumnarShard:
    """Inverse of :func:`encode_shard`.

    Structural damage — a missing header or column record — raises a
    typed :class:`repro.errors.IntegrityError` (still a ``ValueError``,
    so pre-taxonomy callers keep working).
    """
    if not records or "shard" not in records[0]:
        raise IntegrityError(
            "not a shard record stream: missing header",
            kind=SHARD_ARTIFACT_KIND,
            damage="bad_header",
            stage="read",
        )
    header = records[0]
    columns: dict[str, object] = {}
    for record in records[1:]:
        name = record["column"]
        if "blob" in record:
            columns[name] = TextColumn(record["blob"], _unb64(record["offsets"], "int64"))
        else:
            columns[name] = _unb64(record["data"], record["dtype"])
    missing = (
        {name for name, _ in _INT_COLUMNS} | set(_TEXT_COLUMNS)
    ) - set(columns)
    if missing:
        raise IntegrityError(
            f"shard record stream missing columns: {sorted(missing)}",
            kind=SHARD_ARTIFACT_KIND,
            damage="truncated",
            stage="read",
        )
    return ColumnarShard(
        index=int(header["shard"]),
        paper_offset=int(header["paper_offset"]),
        **columns,  # type: ignore[arg-type]
    )


def shard_manifest_row(shard: ColumnarShard, sha256: str | None) -> dict:
    """One shard's row in every corpus manifest.

    The cache's ``corpus-manifest`` entry, a snapshot's ``shards`` list
    and ``repro corpus generate``'s ``manifest.json`` all hold these
    rows.  ``sha256`` is the digest of the shard's encoded body: the
    cache entry's header ``sha256`` and the snapshot object's name
    (None when the shard landed in no cache).
    """
    return {
        "index": shard.index,
        "n_papers": shard.n_papers,
        "sha256": sha256,
        "fingerprint": shard.fingerprint(),
    }


def merge_fingerprints(shard_fingerprints: Iterable[str]) -> str:
    """Combine per-shard digests into the corpus fingerprint.

    The combination is a digest over the ordered digest list — shards
    are merged in shard-index order whatever order workers finished in,
    so the result depends only on shard *content*, never on scheduling,
    worker count, or cache temperature.
    """
    digest = hashlib.sha256()
    for fingerprint in shard_fingerprints:
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class CorpusVocab:
    """Shared side tables every shard's integer columns point into.

    Venues and topics are tiny; the author table is itself columnar
    (sector/region/name/affiliation as small integer columns, ids and
    :class:`Author` objects materialized lazily).
    """

    venues: tuple[Venue, ...]
    topics: tuple[str, ...]
    #: First global author index of each venue's pool (len = venues+1).
    author_offsets: np.ndarray
    author_sector_idx: np.ndarray
    author_region_idx: np.ndarray
    author_given_idx: np.ndarray
    author_surname_idx: np.ndarray
    author_affil_num: np.ndarray
    sectors: tuple[str, ...] = ()
    regions: tuple[str, ...] = ()
    given_names: tuple[str, ...] = ()
    surnames: tuple[str, ...] = ()
    _author_ids: dict[int, str] = field(default_factory=dict, repr=False)

    @property
    def n_authors(self) -> int:
        return int(self.author_offsets[-1])

    def venue_of_author(self, index: int) -> int:
        """Venue (index) owning global author ``index``'s pool."""
        return int(np.searchsorted(self.author_offsets, index, side="right") - 1)

    def author_id(self, index: int) -> str:
        """Stable author id for global author index ``index``."""
        cached = self._author_ids.get(index)
        if cached is None:
            venue = self.venue_of_author(index)
            local = index - int(self.author_offsets[venue])
            cached = f"{self.venues[venue].venue_id}-a{local:06d}"
            self._author_ids[index] = cached
        return cached

    def author(self, index: int) -> Author:
        """The :class:`Author` dataclass for global author ``index``."""
        sector = self.sectors[self.author_sector_idx[index]]
        region = self.regions[self.author_region_idx[index]]
        return Author(
            author_id=self.author_id(index),
            name=(
                f"{self.given_names[self.author_given_idx[index]]} "
                f"{self.surnames[self.author_surname_idx[index]]}"
            ),
            affiliation=f"{region}:{sector}-{int(self.author_affil_num[index]):02d}",
            sector=sector,
            region=region,
        )


class ColumnarCorpus:
    """A sharded columnar corpus: storage, not a second ``Corpus``.

    Shards load through ``loader(shard_index)`` and are kept in a small
    LRU; with ``max_resident=1`` (streaming mode) at most one shard's
    string pools are decoded at any moment, so iterating a 10⁶-paper
    corpus costs one shard of RAM, not the corpus.

    Consumers reduce per shard via :meth:`iter_shards` (see
    :mod:`repro.bibliometrics.shardscan`).  Analyses written against
    :class:`Paper` objects run on :meth:`to_corpus`, which reads every
    shard once.
    """

    def __init__(
        self,
        vocab: CorpusVocab,
        shard_sizes: list[int],
        loader: Callable[[int], ColumnarShard],
        *,
        shard_fingerprints: list[str] | None = None,
        max_resident: int | None = None,
    ) -> None:
        self.vocab = vocab
        self._sizes = list(shard_sizes)
        self._n_papers = sum(self._sizes)
        self._loader = loader
        self._shard_fingerprints = shard_fingerprints
        self.max_resident = max_resident
        # The LRU is one ordered map, each step a single atomic call:
        # threads that share a corpus (serve's compute threads, threaded
        # scans) at worst load a shard twice, never corrupt the order.
        self._resident: OrderedDict[int, ColumnarShard] = OrderedDict()

    # -- shard access --------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._sizes)

    def resident_shards(self) -> int:
        """How many shards are currently decoded in memory."""
        return len(self._resident)

    def shard_sizes(self) -> list[int]:
        """Paper count of every shard, in shard order (no loads)."""
        return list(self._sizes)

    def shard(self, index: int) -> ColumnarShard:
        """Shard ``index``, loading (and evicting) as needed."""
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard {index} out of range 0..{self.n_shards - 1}")
        shard = self._resident.get(index)
        if shard is not None:
            try:
                self._resident.move_to_end(index)
            except KeyError:  # another thread evicted it meanwhile
                pass
            return shard
        # Evict *before* loading, so streaming mode never holds two
        # shards' string pools at once even transiently.
        if self.max_resident is not None:
            while len(self._resident) >= max(1, self.max_resident):
                try:
                    self._resident.popitem(last=False)
                except KeyError:  # another thread emptied it meanwhile
                    break
        shard = self._loader(index)
        if shard.n_papers != self._sizes[index]:
            raise IntegrityError(
                f"shard {index} loaded with {shard.n_papers} papers; "
                f"expected {self._sizes[index]}",
                kind=SHARD_ARTIFACT_KIND,
                damage="truncated",
                stage="read",
            )
        if self._shard_fingerprints is not None:
            # End-to-end check: the loaded buffers must hash to the
            # fingerprint recorded at generation/export time, so a
            # damaged loader source cannot slip wrong columns into an
            # otherwise healthy corpus.
            expected = self._shard_fingerprints[index]
            actual = shard.fingerprint()
            if actual != expected:
                raise IntegrityError(
                    f"shard {index} fingerprint mismatch on load",
                    kind=SHARD_ARTIFACT_KIND,
                    damage="bit_flipped",
                    expected=expected,
                    actual=actual,
                    stage="read",
                )
        self._resident[index] = shard
        return shard

    def iter_shards(self) -> Iterator[ColumnarShard]:
        """Stream shards in order (each load may evict the previous)."""
        for index in range(self.n_shards):
            yield self.shard(index)

    def fingerprint(self) -> str:
        """The associative merge of the per-shard fingerprints.

        Uses the fingerprints recorded at generation/load time when
        available; otherwise streams every shard once to compute them.
        """
        if self._shard_fingerprints is None:
            self._shard_fingerprints = [
                shard.fingerprint() for shard in self.iter_shards()
            ]
        return merge_fingerprints(self._shard_fingerprints)

    def __len__(self) -> int:
        return self._n_papers

    # -- aggregates ----------------------------------------------------

    def count_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(citations, papers_per_author)`` from one pass over the shards.

        Within-corpus citation counts indexed by global paper index, and
        paper counts indexed by global author index (zeros included).
        """
        citations = np.zeros(len(self), dtype=np.int64)
        per_author = np.zeros(self.vocab.n_authors, dtype=np.int64)
        for shard in self.iter_shards():
            citations += np.bincount(shard.ref_values, minlength=len(self))
            per_author += np.bincount(shard.author_values, minlength=self.vocab.n_authors)
        return citations, per_author

    # -- interop -------------------------------------------------------

    def truth(self):
        """Materialize the generator's :class:`GroundTruth` labels.

        Builds per-paper dicts — intended for oracle tests and small
        corpora, not the 10⁶-paper streaming path.
        """
        from repro.bibliometrics.synthgen import GroundTruth

        truth = GroundTruth()
        for shard in self.iter_shards():
            planted = np.nonzero(shard.human_mask)[0]
            for local in planted:
                truth.human_methods[
                    paper_id_for(shard.paper_offset + int(local))
                ] = shard.human_families(int(local))
            for local in np.nonzero(shard.positionality)[0]:
                truth.positionality.add(
                    paper_id_for(shard.paper_offset + int(local))
                )
        return truth

    def _paper_at(self, shard: ColumnarShard, local: int) -> Paper:
        vocab = self.vocab
        return Paper(
            paper_id=paper_id_for(shard.paper_offset + local),
            title=shard.title[local],
            abstract=shard.abstract[local],
            body=shard.body[local],
            venue_id=vocab.venues[shard.venue_idx[local]].venue_id,
            year=int(shard.year[local]),
            author_ids=tuple(
                vocab.author_id(int(a)) for a in shard.authors_of(local)
            ),
            topic=vocab.topics[shard.topic_idx[local]],
            references=tuple(
                paper_id_for(int(r)) for r in shard.refs_of(local)
            ),
        )

    def to_corpus(self) -> Corpus:
        """Materialize the classic dataclass :class:`Corpus`.

        The one bridge to the Paper-level API: walks the vocab, then
        every shard once, in order.  Memory scales with corpus size
        (every paper's text is copied), so stream with
        :meth:`iter_shards` where a per-shard reduction will do.
        """
        corpus = Corpus()
        vocab = self.vocab
        for venue in vocab.venues:
            corpus.add_venue(venue)
        for index in range(vocab.n_authors):
            corpus.add_author(vocab.author(index))
        for shard in self.iter_shards():
            for local in range(shard.n_papers):
                corpus.add_paper(self._paper_at(shard, local))
        return corpus
