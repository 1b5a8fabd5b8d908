"""Content-addressed on-disk artifact cache.

Expensive derived datasets (the synthetic experiment corpus above all)
are pure functions of a small config — so they are cached on disk,
keyed by a hash of that config, and shared by every process that asks
for the same one.  The cache is what lets a multi-worker suite build
the corpus once instead of once per worker, and what lets the *next*
run skip the build entirely.

Design points:

- **Content-addressed keys.**  The file name is a SHA-256 over the
  canonical JSON of ``(kind, config, version)``.  Any config change —
  or a format-version bump — lands on a different key, so invalidation
  is automatic and old entries are simply unreachable.
- **Pickle-free.**  Entries are JSONL through the same atomic
  :func:`repro.io.jsonl.write_jsonl` path every other dataset uses: a
  header line carrying ``kind``/``version``/``config``/``count``, then
  one record per line.  A cache file is inspectable with ``head`` and
  survives interpreter upgrades.
- **One reader verifies.**  :func:`read_entry` reads an entry's bytes
  once and checks the header fields, the content address, every
  line's parse, the record count, a torn tail, and a SHA-256 over the
  exact body bytes (``"sha256"``, written by :meth:`put`), so a
  bit-flip that still *parses* is caught too.  The cache and
  :mod:`repro.integrity.scrub` both read through it.
- **Corruption is a miss, never a crash.**  Any damaged entry makes
  :meth:`ArtifactCache.get` return None (counted as
  ``artifacts.corrupt`` and ``artifacts.integrity_failures``); the
  caller regenerates and the next :meth:`put` atomically replaces it.
  :meth:`ArtifactCache.read_verified` is the strict variant: it raises
  a typed :class:`repro.errors.IntegrityError` naming the damage kind
  (:data:`DAMAGE_KINDS`), for callers that must *report* damage.
- **Safe under racing writers.**  Writes go to a private temp file and
  are renamed over the destination, so two processes racing on one key
  both produce valid files and the last rename wins.
  :meth:`ArtifactCache.get_or_create` additionally takes an advisory
  ``flock`` per key so only one process pays the generation cost while
  the others wait and then read the finished entry.
- **Killed writers leave no litter.**  A writer that dies mid-``put``
  (OOM kill, segfault) strands its private temp file;
  :meth:`ArtifactCache.sweep_orphans` reaps stale ``*.tmp`` files —
  automatically on construction, and with zero grace after the
  parallel runtime detects a worker crash (all pool writers are dead
  then).  The half-written entry itself was never renamed into place,
  so readers still see either the old entry or a miss.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from repro.errors import (
    CacheLockTimeout,
    IntegrityError,
    JsonlDecodeError,
    TruncatedFileError,
)
from repro.io.jsonl import jsonl_line, parse_jsonl_lines, write_jsonl_lines

try:  # pragma: no cover - fcntl is always present on the POSIX targets
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactCache",
    "DAMAGE_KINDS",
    "EntryRead",
    "artifact_key",
    "body_digest",
    "lines_digest",
    "read_entry",
]

#: Bump to invalidate every existing cache entry (serialization change).
#: v2 added the mandatory ``"sha256"`` body digest to the header, so
#: pre-digest entries land on unreachable keys instead of failing
#: verification one by one.
ARTIFACT_FORMAT_VERSION = 2

#: Injection point offered to :meth:`FaultInjector.damage_file` after
#: every successful :meth:`ArtifactCache.put` — chaos tests arm it with
#: ``bitrot``/``truncate`` to corrupt completed entries deterministically.
DAMAGE_POINT = "artifacts:damage"

#: How long :meth:`ArtifactCache._key_lock` waits for a per-key lock
#: before giving up with :class:`repro.errors.CacheLockTimeout`.  Sized
#: for the slowest legitimate holder (a full-preset corpus generation),
#: not for a wedged one.
DEFAULT_LOCK_TIMEOUT = 120.0

#: How often the non-blocking lock acquisition retries while waiting.
_LOCK_POLL_SECONDS = 0.05

#: Grace period for the construction-time orphan sweep: a ``*.tmp``
#: younger than this may belong to a live writer in another process and
#: is left alone; older ones are orphans from killed writers.
ORPHAN_GRACE_SECONDS = 600.0


def artifact_key(kind: str, config: dict, version: int) -> str:
    """The content address for ``(kind, config, version)``.

    A SHA-256 hex digest over canonical JSON, so key equality is exactly
    config equality and any drift (including a version bump) misses.
    """
    payload = json.dumps(
        {"kind": kind, "config": config, "version": version},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def body_digest(records: Iterable[dict]) -> str:
    """SHA-256 over the canonical JSONL encoding of ``records``.

    Byte-identical to what :func:`repro.io.jsonl.write_jsonl` lands on
    disk for the same records (the same
    :func:`~repro.io.jsonl.jsonl_line` lines) — so a digest recomputed
    from a file's raw bytes after the header line can be compared
    directly against one computed from in-memory records, with no
    re-parse in between.
    """
    return lines_digest(map(jsonl_line, records))


def lines_digest(lines: Iterable[str]) -> str:
    """:func:`body_digest` of records already encoded by
    :func:`~repro.io.jsonl.jsonl_line`."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


#: The damage taxonomy, in rough order of how the bytes died:
#:
#: - ``orphaned_tmp`` — a writer's private temp file that outlived its
#:   (killed) writer; never renamed into place, pure litter.
#: - ``truncated`` — the file ends early: empty, a torn header or final
#:   line, or fewer records than the header declared (a truncation
#:   fault, a short copy).
#: - ``bit_flipped`` — every line parses and the shape is right, but
#:   the body bytes do not hash to the header's ``sha256``: silent
#:   media corruption, the failure mode only end-to-end digests catch.
#: - ``bad_header`` — the header line is unparsable, missing fields,
#:   or disagrees with where the file lives (kind directory, content
#:   address); the entry cannot be trusted to describe itself.
#: - ``garbled`` — an interior line is not JSON, or there are *more*
#:   records than declared: interleaved or mangled writes.
DAMAGE_KINDS = (
    "orphaned_tmp",
    "truncated",
    "bit_flipped",
    "bad_header",
    "garbled",
)

#: Header fields every verifiable entry must carry (the v2 format).
_REQUIRED_HEADER_FIELDS = ("artifact", "version", "config", "count", "sha256")


class EntryRead(NamedTuple):
    """One entry file, read and verified by :func:`read_entry`.

    Attributes:
        header: The parsed header whenever its line parsed to an
            object (repair needs it even for damaged bodies), else None.
        records: The body records of an intact entry, else None.
        damage: None when intact, ``"missing"`` when there is no file,
            otherwise one of :data:`DAMAGE_KINDS`.
        detail: One human-readable line of evidence.
    """

    header: dict | None
    records: list[dict] | None
    damage: str | None
    detail: str


def read_entry(path: str | Path, *, addressed: bool = True) -> EntryRead:
    """Read one ``<kind>/<key>.jsonl`` entry file once; verify and parse it.

    The one verifier of the entry format.  In order: the header line is
    an object with every v2 field; its ``artifact`` names the directory
    the file is in; with ``addressed``, the filename is the content
    address recomputed from the header (False for files that are not
    content-addressed); every body line parses and the last one ends in
    a newline; the record count is the header's; and the raw body bytes
    hash to the header's ``sha256``.  The first failed check names the
    damage kind.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return EntryRead(None, None, "missing", "no such entry")
    if not data:
        return EntryRead(None, None, "truncated", "empty file")
    cut = data.find(b"\n") + 1  # 0 when the header line is torn
    rows = parse_jsonl_lines(io.BytesIO(data), str(path))
    try:
        header = next(rows) if data[: cut or None].strip() else None
    except JsonlDecodeError:
        header = None

    def damaged(kind: str, detail: str) -> EntryRead:
        return EntryRead(header if isinstance(header, dict) else None, None, kind, detail)

    if not cut:
        return damaged("truncated", "torn header line (no newline)")
    if not isinstance(header, dict):
        return damaged("bad_header", "header line is not a JSON object")
    missing = [k for k in _REQUIRED_HEADER_FIELDS if k not in header]
    if missing:
        return damaged("bad_header", f"header missing fields: {missing} (pre-digest entry?)")
    if header["artifact"] != path.parent.name:
        return damaged(
            "bad_header",
            f"header kind {header['artifact']!r} != directory {path.parent.name!r}",
        )
    if addressed and path.stem != artifact_key(
        header["artifact"], header["config"], header["version"]
    ):
        return damaged(
            "bad_header",
            "filename does not match the content address recomputed "
            "from the header (moved or relabeled entry)",
        )
    try:
        records = list(rows)
    except TruncatedFileError as exc:
        return damaged("truncated", f"torn final line {exc.line_number}")
    except JsonlDecodeError as exc:
        return damaged("garbled", f"line {exc.line_number} is not JSON")
    if not data.endswith(b"\n"):
        return damaged("truncated", "final line has no newline")
    declared = header["count"]
    if len(records) != declared:
        short = isinstance(declared, int) and len(records) < declared
        return damaged(
            "truncated" if short else "garbled",
            f"{len(records)} records on disk, header declares {declared}",
        )
    actual = hashlib.sha256(memoryview(data)[cut:]).hexdigest()
    if actual != header["sha256"]:
        return damaged(
            "bit_flipped",
            f"body sha256 {actual[:12]}… != declared {str(header['sha256'])[:12]}…",
        )
    return EntryRead(header, records, None, "intact")


def _metrics():
    """The active metrics registry (lazy import; see repro.io.jsonl)."""
    from repro.obs.metrics import current_metrics

    return current_metrics()


def _damage_fault(point: str, path: Path) -> None:
    """Offer a completed file to the process-wide injector for damage.

    The post-write counterpart of :func:`repro.io.jsonl._check_fault`:
    chaos tests arm ``bitrot``/``truncate`` at ``point`` and this hands
    them the finished entry.  Lazy import to avoid a cycle; with no
    injector installed the cost is one ``sys.modules`` lookup.
    """
    from repro.runtime.faultinject import current_fault_injector

    injector = current_fault_injector()
    if injector is not None:
        injector.damage_file(point, path)


class ArtifactCache:
    """A directory of content-addressed JSONL artifacts.

    Args:
        root: Cache directory (created on first write).
        version: Format version baked into every key; bumping it
            orphans all previous entries (see
            :data:`ARTIFACT_FORMAT_VERSION`).
        sweep: Sweep stale orphaned ``*.tmp`` files (from writers
            killed mid-:meth:`put`) on construction; see
            :meth:`sweep_orphans`.
        lock_timeout: Ceiling in seconds on waiting for another
            process's per-key generation lock in
            :meth:`get_or_create`; a holder wedged past it raises
            :class:`repro.errors.CacheLockTimeout` internally and the
            caller falls back to computing without the cache.

    Example:
        >>> import tempfile
        >>> cache = ArtifactCache(tempfile.mkdtemp())
        >>> cache.get("squares", {"n": 3}) is None
        True
        >>> _ = cache.put("squares", {"n": 3}, [{"i": i, "sq": i * i} for i in range(3)])
        >>> [r["sq"] for r in cache.get("squares", {"n": 3})]
        [0, 1, 4]
    """

    def __init__(
        self, root: str | Path, *, version: int = ARTIFACT_FORMAT_VERSION,
        sweep: bool = True, lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
    ) -> None:
        self.root = Path(root)
        self.version = version
        self.lock_timeout = lock_timeout
        if sweep:
            # Writers killed mid-put (SIGKILL, OOM) never reach their
            # cleanup handler and strand a private temp file; sweep
            # stale ones so a crashy campaign does not leak disk.
            self.sweep_orphans(max_age_seconds=ORPHAN_GRACE_SECONDS)

    def path_for(self, kind: str, config: dict) -> Path:
        """Where the entry for ``(kind, config)`` lives (may not exist)."""
        return self.root / kind / f"{artifact_key(kind, config, self.version)}.jsonl"

    # -- read ----------------------------------------------------------

    @staticmethod
    def _count_verification_failure() -> None:
        """Count one present-but-unverifiable entry.

        Three counters move together: the read is a miss, the file is
        corrupt (the pre-digest name, kept for dashboard continuity),
        and end-to-end verification failed (``integrity_failures`` —
        what ``repro serve`` and the scrubber docs reference).  A
        merely *absent* entry is a plain miss and touches neither of
        the damage counters.
        """
        _metrics().count("artifacts.misses")
        _metrics().count("artifacts.corrupt")
        _metrics().count("artifacts.integrity_failures")

    def get(self, kind: str, config: dict) -> list[dict] | None:
        """The cached records for ``(kind, config)``, or None on a miss.

        Every failure mode — absent file, torn line, malformed JSON,
        header mismatch, wrong record count, body digest mismatch, a
        file that cannot be read at all — is a miss: the caller
        regenerates and overwrites.
        """
        try:
            return self.read_verified(kind, config)
        except IntegrityError:
            return None
        except OSError:  # present but unreadable: EACCES, EIO, a directory
            self._count_verification_failure()
            return None

    def read_verified(self, kind: str, config: dict) -> list[dict]:
        """The cached records, or a typed error — never a silent miss.

        The strict twin of :meth:`get`, for callers that must *surface*
        damage (scrub repair, smoke scripts proving corruption is
        detected) instead of regenerating around it.  Raises
        :class:`repro.errors.IntegrityError` — one line, CLI-ready —
        whose ``damage`` is ``"missing"`` for an absent entry and the
        :data:`DAMAGE_KINDS` kind :func:`read_entry` found otherwise.
        """
        path = self.path_for(kind, config)
        entry = read_entry(path)
        if entry.damage is None:
            _metrics().count("artifacts.hits")
            return entry.records
        if entry.damage == "missing":
            _metrics().count("artifacts.misses")
        else:
            self._count_verification_failure()
        raise IntegrityError(
            f"cache entry failed verification: {path.name}: {entry.detail}",
            path=str(path),
            kind=kind,
            damage=entry.damage,
            stage="read",
        )

    def declared_digest(self, kind: str, config: dict) -> str | None:
        """The body ``sha256`` the entry's header declares, or None.

        Reads the header line only: for a caller that has just read or
        written the entry (:meth:`get_or_create`) and needs its digest.
        None when no entry landed (a lock-timeout fallback) or its
        header does not parse.
        """
        try:
            with self.path_for(kind, config).open("rb") as handle:
                header = json.loads(handle.readline())
        except (OSError, ValueError):
            return None
        digest = header.get("sha256") if isinstance(header, dict) else None
        return digest if isinstance(digest, str) else None

    # -- write ---------------------------------------------------------

    def put(self, kind: str, config: dict, records: Iterable[dict]) -> Path:
        """Store ``records`` for ``(kind, config)``; returns the path.

        The write is atomic (private temp file + rename), so concurrent
        writers on the same key each land a complete file and readers
        never observe a torn one.
        """
        from repro.io.jsonl import _check_fault

        # Each record is encoded once: the digest and the file share the lines.
        body = [jsonl_line(record) for record in records]
        header = {
            "artifact": kind,
            "version": self.version,
            "config": config,
            "count": len(body),
            "sha256": lines_digest(body),
        }
        path = self.path_for(kind, config)
        _check_fault("artifacts:put")
        write_jsonl_lines(path, [jsonl_line(header)] + body)
        _metrics().count("artifacts.writes")
        # Completed entries are offered to the chaos injector so tests
        # can bit-rot or truncate them deterministically post-rename.
        _damage_fault(DAMAGE_POINT, path)
        return path

    def get_or_create(
        self,
        kind: str,
        config: dict,
        factory: Callable[[], Iterable[dict]],
    ) -> list[dict]:
        """The cached records, generating (once) on a miss.

        Misses serialize through a per-key advisory file lock, so when
        several processes race on the same key only the first runs
        ``factory``; the rest block briefly and then read its output.
        The wait is bounded by ``lock_timeout``: a lock holder wedged
        past it (stopped, hung, undead) is treated as unavailable and
        this process computes *without* the cache — the entry is not
        written (the holder may still be mid-generation), but the
        caller gets its records instead of blocking forever.  Such
        fallbacks are counted as ``artifacts.lock_timeouts``.
        """
        from contextlib import ExitStack

        records = self.get(kind, config)
        if records is not None:
            return records
        with ExitStack() as stack:
            try:
                # enter_context runs acquisition eagerly, so a timeout
                # here cannot be confused with one raised by a factory
                # that itself uses a (nested) cache.
                stack.enter_context(self._key_lock(kind, config))
            except CacheLockTimeout:
                return list(factory())
            # Re-check under the lock: another process may have
            # generated the entry while this one waited.
            records = self.get(kind, config)
            if records is not None:
                return records
            records = list(factory())
            self.put(kind, config, records)
            return records

    # -- crash hygiene -------------------------------------------------

    def sweep_orphans(self, max_age_seconds: float = 0.0) -> int:
        """Delete orphaned writer temp files; returns how many.

        A ``*.tmp`` under the cache root is a private scratch file from
        :func:`repro.io.jsonl.write_jsonl`; one that outlives its
        writer means the writer was killed mid-put.  ``max_age_seconds``
        spares files younger than that (live writers elsewhere); the
        supervisor sweeps with 0.0 after a worker crash, when every
        pool writer is known dead.  Sweeps are counted as
        ``artifacts.orphans_swept``.
        """
        removed = 0
        if not self.root.exists():
            return removed
        cutoff = time.time() - max_age_seconds
        for path in self.root.rglob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except FileNotFoundError:  # pragma: no cover - racing sweeper
                continue
        if removed:
            _metrics().count("artifacts.orphans_swept", removed)
        return removed

    # -- invalidation --------------------------------------------------

    def invalidate(self, kind: str | None = None) -> int:
        """Delete cached entries (all kinds when ``kind`` is None).

        Returns the number of entries removed.  Lock files are removed
        alongside their entries.
        """
        removed = 0
        if not self.root.exists():
            return removed
        kinds = [kind] if kind is not None else [
            p.name for p in self.root.iterdir() if p.is_dir()
        ]
        for name in kinds:
            directory = self.root / name
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                if path.suffix == ".jsonl":
                    removed += 1
                path.unlink(missing_ok=True)
        _metrics().count("artifacts.invalidated", removed)
        return removed

    # -- locking -------------------------------------------------------

    @contextmanager
    def _key_lock(self, kind: str, config: dict) -> Iterator[None]:
        """An advisory exclusive lock scoped to one cache key.

        Acquisition is non-blocking under a deadline: a bare
        ``flock(LOCK_EX)`` would wait forever on a holder that wedged
        after taking the lock, so this polls ``LOCK_NB`` every
        :data:`_LOCK_POLL_SECONDS` and raises
        :class:`repro.errors.CacheLockTimeout` (counted as
        ``artifacts.lock_timeouts``) once ``lock_timeout`` expires.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        path = self.path_for(kind, config)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = path.with_suffix(".lock")
        with lock_path.open("a") as handle:
            deadline = time.monotonic() + self.lock_timeout
            while True:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        _metrics().count("artifacts.lock_timeouts")
                        raise CacheLockTimeout(
                            f"cache lock {lock_path} still held after "
                            f"{self.lock_timeout}s (wedged holder?)",
                            lock_path=str(lock_path),
                            timeout=self.lock_timeout,
                            stage="lock",
                        ) from None
                    time.sleep(min(_LOCK_POLL_SECONDS, self.lock_timeout))
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
