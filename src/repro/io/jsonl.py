"""Line-delimited JSON persistence.

JSONL is the interchange format for every dataset this library produces:
one JSON object per line, UTF-8, no trailing commas to corrupt, and
streamable.  Readers tolerate (and report) blank lines and a leading
UTF-8 BOM, and can distinguish a *torn final line* (a writer killed
mid-record) from interior corruption.  Writers are crash-safe:
``write_jsonl`` lands atomically (write ``path.tmp``, fsync, rename),
so a killed process leaves either the old file or the complete new one
on disk — never a half-written dataset.  ``write_text_atomic`` gives
whole-file JSON documents (snapshot and corpus manifests) the same
path.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.errors import JsonlDecodeError, TruncatedFileError

#: Valid ``on_error`` modes for :func:`read_jsonl`.
ON_ERROR_MODES = ("raise", "skip", "collect")


def _metrics():
    """The active metrics registry (a no-op sink unless one is installed).

    Imported lazily at call time: :mod:`repro.obs` exports trace files
    through this module, so a top-level import would be circular.  The
    per-call cost is one ``sys.modules`` lookup.
    """
    from repro.obs.metrics import current_metrics

    return current_metrics()


def _check_fault(point: str) -> None:
    """Fire the fault injector in effect at ``point``, if one is armed.

    Lazy import for the same circularity reason as :func:`_metrics`.
    This is how chaos tests aim ``enospc`` (and friends) at the write
    paths without the writers carrying an injector argument; with no
    injector installed the cost is one ``sys.modules`` lookup.
    """
    from repro.runtime.faultinject import current_fault_injector

    injector = current_fault_injector()
    if injector is not None:
        injector.check(point)


def jsonl_line(record: dict) -> str:
    """``record`` as the line the writers here put on disk, newline included."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def _dump_lines(handle, lines: Iterable[str]) -> int:
    count = 0
    for line in lines:
        handle.write(line)
        count += 1
    return count


@contextlib.contextmanager
def _atomic_replace(path: Path, fault_point: str) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` only on success.

    Writes go to a private ``<path>.<random>.tmp`` that is fsynced and
    renamed over ``path`` when the block exits cleanly.  On any error
    the temp file is removed and ``path`` keeps its old contents.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            # The injection point sits after the temp file exists, so an
            # injected ENOSPC exercises the same orphan-cleanup path a
            # real full disk would.
            _check_fault(fault_point)
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write ``records`` to ``path``, one JSON object per line.

    Returns the number of records written.  Parent directories are
    created as needed; an existing file is overwritten.  The write is
    atomic: records land in a private ``<path>.<random>.tmp`` which is
    fsynced and renamed over ``path``, so readers (and crashes —
    including a mid-write ``kill -9``) never observe a torn file.  The
    temp name is unique per writer, so concurrent writers racing on the
    same destination each land a complete file (last rename wins)
    instead of interleaving into a shared scratch file.
    """
    return write_jsonl_lines(path, map(jsonl_line, records))


def write_jsonl_lines(path: str | Path, lines: Iterable[str]) -> int:
    """:func:`write_jsonl` for records already encoded by :func:`jsonl_line`,
    for callers that also hash the encoded lines."""
    with _atomic_replace(Path(path), "io:write_jsonl") as handle:
        count = _dump_lines(handle, lines)
    _metrics().count("io.jsonl.rows_written", count)
    return count


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically, as :func:`write_jsonl` does.

    For whole-file documents such as manifests: a crash part-way
    through leaves the previous file intact and no temp file behind.
    """
    with _atomic_replace(Path(path), "io:write_text") as handle:
        handle.write(text)


def append_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Append ``records`` to ``path``; creates the file when absent.

    Appends keep append semantics (no rewrite of earlier data) but the
    batch is flushed and fsynced before returning, so a crash *after*
    the call never loses it; a crash *during* the call can tear at
    most the final line, which :func:`read_jsonl` detects and can
    salvage around.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        _check_fault("io:append_jsonl")
        count = _dump_lines(handle, map(jsonl_line, records))
        handle.flush()
        os.fsync(handle.fileno())
    _metrics().count("io.jsonl.rows_written", count)
    return count


def salvage_jsonl_tail(path: str | Path) -> str | None:
    """Repair a JSONL file whose final line has no terminating newline.

    A missing final newline means the last writer was killed
    mid-append.  Left alone it silently corrupts the *next* append —
    the new record would concatenate onto the torn tail and turn one
    bad line into two lost records — so resume paths call this before
    appending again.  Two cases:

    - the tail parses as JSON (the writer died between the record and
      its newline): the newline is added and the record survives —
      returns ``"closed"``;
    - the tail is torn mid-record: the file is truncated back to the
      last complete line — returns ``"truncated"``.

    Returns None when the file is absent, empty, or already ends in a
    newline.  Salvage events are counted as ``io.jsonl.tails_closed`` /
    ``io.jsonl.tails_truncated``.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    if not data or data.endswith(b"\n"):
        return None
    cut = data.rfind(b"\n") + 1  # 0 when the whole file is one torn line
    tail = data[cut:]
    try:
        json.loads(tail.decode("utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        with path.open("r+b") as handle:
            handle.truncate(cut)
            handle.flush()
            os.fsync(handle.fileno())
        _metrics().count("io.jsonl.tails_truncated")
        return "truncated"
    with path.open("ab") as handle:
        handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    _metrics().count("io.jsonl.tails_closed")
    return "closed"


def read_jsonl(
    path: str | Path,
    on_error: str = "raise",
    errors: list | None = None,
) -> Iterator[dict]:
    """Yield the records of a JSONL file, skipping blank lines.

    A UTF-8 BOM on the first line is tolerated.  A malformed line
    (bad JSON or bad UTF-8) raises :class:`repro.errors.JsonlDecodeError`
    (a ``json.JSONDecodeError`` subclass, annotated with path and line
    number); a final line that is both unterminated and invalid raises
    :class:`repro.errors.TruncatedFileError` instead, since that
    signature means the writer was killed mid-record and everything
    before it is salvageable.

    Args:
        path: The file to read.
        on_error: ``"raise"`` (default) stops at the first bad line;
            ``"skip"`` silently drops bad lines; ``"collect"`` drops
            them but appends the exception to ``errors`` for a salvage
            report.
        errors: Target list for ``on_error="collect"``.
    """
    path = Path(path)
    with path.open("rb") as handle:
        yield from parse_jsonl_lines(handle, str(path), on_error, errors)


def parse_jsonl_lines(
    lines: Iterable[bytes],
    source: str,
    on_error: str = "raise",
    errors: list | None = None,
) -> Iterator[dict]:
    """:func:`read_jsonl` over the raw lines of file ``source``, newlines
    kept (``io.BytesIO`` over bytes a reader also hashes, for one)."""
    if on_error not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_error mode {on_error!r}; known: {ON_ERROR_MODES}"
        )
    if on_error == "collect" and errors is None:
        raise ValueError('on_error="collect" needs an errors list to fill')
    rows_read = 0
    salvaged = 0
    try:
        for line_number, line in enumerate(lines, start=1):
            if line_number == 1:
                line = line.removeprefix(codecs.BOM_UTF8)
            if not line or line.isspace():
                continue
            try:
                # json.loads skips the newline; no stripped copy of a long line.
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                truncated = not line.endswith(b"\n")
                error_cls = TruncatedFileError if truncated else JsonlDecodeError
                reason = getattr(exc, "msg", None) or f"invalid UTF-8 ({exc.reason})"
                prefix = "truncated final line (writer killed mid-record?)"
                detail = f"{prefix}: {reason}" if truncated else reason
                wrapped = error_cls(
                    f"{source}:{line_number}: {detail}",
                    getattr(exc, "doc", ""),
                    getattr(exc, "pos", 0),
                    path=source,
                    line_number=line_number,
                )
                if on_error == "raise":
                    raise wrapped from exc
                salvaged += 1
                if on_error == "collect":
                    errors.append(wrapped)
                continue
            rows_read += 1
            yield record
    finally:
        # Counted in a finally so a partially consumed generator still
        # reports the rows it produced and the lines it skipped around.
        metrics = _metrics()
        metrics.count("io.jsonl.rows_read", rows_read)
        metrics.count("io.jsonl.salvaged_lines", salvaged)
