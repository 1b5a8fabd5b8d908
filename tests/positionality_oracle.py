"""Reference positionality detector: the full extractor on every paper.

The semantic oracle for :func:`repro.core.positionality.
has_positionality_statement`, which rejects a paper without a marker,
confirms most marked papers from their "Positionality" section alone
and runs the extractor only on the rest: its decision must equal this
one on every text.  The property tests in
``tests/test_core_positionality.py`` and the per-paper fold in
``tests/test_biblio_shardscan.py`` compare against it.
"""

from __future__ import annotations

from repro.core.positionality import extract_statements


def has_statement_oracle(paper_text: str) -> bool:
    """A statement with at least one disclosed facet."""
    return any(s.disclosed_facets() for s in extract_statements(paper_text))
