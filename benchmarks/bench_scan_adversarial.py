"""Adversarial inputs for the block scan: scan time must be linear in text.

The corpus scan (``shardscan.scan_shard``) finds candidate sites for
lexicon phrases over a whole block of papers, then confirms each with an
anchored regex match.  Inputs built from near misses are its worst case:

- ``we_runs``: ``"we we we ..."`` — every token is a phrase's first word,
  and none is followed by a phrase's second word;
- ``long_stem``: one ``"ethnograph" + "y" * n`` token per paper — a stem
  candidate whose confirmation runs to the end of the token;
- ``participatory_runs``: ``"participatory "`` repeated, never completed;
- ``whitespace_gaps``: ``"participatory  ...  action  ...  researchx"``
  with long whitespace runs between chunks, a candidate that confirms
  only after crossing each run.

Statement-marker inputs mark every paper, so each reaches the
positionality detector:

- ``positionality_lines``: many ``positionality`` lines, none a header,
  so no section confirms and the full extractor runs on every paper;
- ``cue_free_sections``: ``Positionality`` headers whose bodies hold no
  facet cue, which also force the extractor;
- ``broken_cues``: ``Positionality`` sections whose cue is broken by
  line breaks, confirmed from the section.

``plain_prose`` — sentences with no phrase or marker — is the baseline
the other rows compare against.  ``non_ascii_prose`` is the same prose
with one ``İ`` or Kelvin sign per paper, so every block takes the regex
token source instead of the numpy prefilter.  Each input is scanned at 1x, 2x and 4x
its base size, and the table reports seconds per MB of text: flat rows
mean linear time.

Run it directly (prints the table)::

    PYTHONPATH=src python benchmarks/bench_scan_adversarial.py

or under pytest, which also asserts the 4x rate stays within 2x of the
1x rate.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bibliometrics.columnar import ColumnarShard, TextColumn
from repro.bibliometrics.shardgen import ShardedCorpusConfig, generate_columnar_corpus
from repro.bibliometrics.shardscan import scan_shard

#: Base input size in characters (the 1x point).
BASE_CHARS = 1 << 19

#: Characters per paper for the repeated-phrase inputs.
PAPER_CHARS = 4096

SCALES = (1, 2, 4)


def _repeat_papers(unit: str, chars: int) -> list[str]:
    """``chars`` characters of ``unit`` repeats, cut into papers."""
    per_paper = unit * max(1, PAPER_CHARS // len(unit))
    return [per_paper] * max(1, chars // len(per_paper))


INPUTS = {
    "plain_prose": lambda chars: _repeat_papers(
        "The link latency fell after the upgrade. ", chars
    ),
    "non_ascii_prose": lambda chars: [
        "\u0130\u212a"[i % 2] + " " + paper
        for i, paper in enumerate(
            _repeat_papers("The link latency fell after the upgrade. ", chars)
        )
    ],
    "we_runs": lambda chars: _repeat_papers("we ", chars),
    "long_stem": lambda chars: ["ethnograph" + "y" * (chars // 4 - 10)] * 4,
    "participatory_runs": lambda chars: _repeat_papers("participatory ", chars),
    "whitespace_gaps": lambda chars: _repeat_papers(
        "participatory" + " " * 200 + "action" + " " * 200 + "researchx ", chars
    ),
    "positionality_lines": lambda chars: _repeat_papers(
        "the positionality of routers matters\n", chars
    ),
    "cue_free_sections": lambda chars: _repeat_papers(
        "Positionality\nWe measure BGP tables.\n", chars
    ),
    "broken_cues": lambda chars: _repeat_papers(
        "Positionality\nWe\nwrite\nas operators.\n", chars
    ),
}


def _shard(texts: list[str]) -> ColumnarShard:
    n = len(texts)
    empty = TextColumn.from_strings([""] * n)
    return ColumnarShard(
        index=0,
        paper_offset=0,
        year=np.full(n, 2024, dtype=np.int32),
        venue_idx=np.zeros(n, dtype=np.int16),
        topic_idx=np.zeros(n, dtype=np.int16),
        author_indptr=np.zeros(n + 1, dtype=np.int64),
        author_values=np.zeros(0, dtype=np.int64),
        ref_indptr=np.zeros(n + 1, dtype=np.int64),
        ref_values=np.zeros(0, dtype=np.int64),
        human_mask=np.zeros(n, dtype=np.uint16),
        positionality=np.zeros(n, dtype=np.uint8),
        title=empty,
        abstract=empty,
        body=TextColumn.from_strings(texts),
    )


def seconds_per_mb(repeats: int = 3) -> dict[str, dict[int, float]]:
    """Best-of-``repeats`` scan seconds per MB, per input and scale."""
    vocab = generate_columnar_corpus(
        ShardedCorpusConfig(start_year=2024, end_year=2024, seed=0, total_papers=8)
    ).vocab
    table: dict[str, dict[int, float]] = {}
    for name, build in INPUTS.items():
        table[name] = {}
        for scale in SCALES:
            texts = build(BASE_CHARS * scale)
            shard = _shard(texts)
            megabytes = sum(map(len, texts)) / 1e6
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                scan_shard(shard, vocab)
                best = min(best, time.perf_counter() - started)
            table[name][scale] = best / megabytes
    return table


def render(table: dict[str, dict[int, float]]) -> str:
    lines = ["input                 " + "".join(f"{s}x s/MB".rjust(12) for s in SCALES)]
    for name, row in table.items():
        lines.append(name.ljust(22) + "".join(f"{row[s]:12.4f}" for s in SCALES))
    return "\n".join(lines)


def test_scan_time_is_linear_on_near_misses():
    table = seconds_per_mb()
    print("\n" + render(table))
    for name, row in table.items():
        assert row[SCALES[-1]] <= 2 * row[SCALES[0]], (name, row)


if __name__ == "__main__":
    print(render(seconds_per_mb()))
