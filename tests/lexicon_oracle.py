"""Reference lexicon matcher: one ``finditer`` pass per method family.

The semantic oracle for :class:`repro.bibliometrics.methods_detect.
LexiconScanner`, the one matcher behind ``detect`` on a single text and
``scan_block`` on a corpus block: it must find exactly these mentions.
The equivalence tests and ``benchmarks/bench_primitives.py`` compare
against it.
"""

from __future__ import annotations

from repro.bibliometrics.methods_detect import LexiconScanner, MethodMention


def detect_multipass(
    scanner: LexiconScanner, text: str, families: tuple[str, ...] | None = None
) -> list[MethodMention]:
    """Mentions of ``families`` (default: all) in ``text``, sorted by
    offset, then family; KeyError on an unknown family."""
    selected = families if families is not None else scanner.families
    mentions: list[MethodMention] = []
    for family in selected:
        for match in scanner.pattern_for(family).finditer(text):
            mentions.append(MethodMention(family, match.group(), match.start()))
    mentions.sort(key=lambda m: (m.start, m.family))
    return mentions
