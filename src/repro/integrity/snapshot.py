"""Versioned, content-addressed corpus snapshots.

"Do not benchmark against an arbitrary commit": experiments and
benches should pin a *tagged, checksummed* corpus, not whatever a
generator produced this morning.  A snapshot is a directory:

.. code-block:: text

    <dir>/
      snapshot.json            # the manifest (see below)
      objects/<sha256>.jsonl   # one encoded shard per file,
                               # named by its own body digest

The manifest carries everything needed to *verify* the snapshot without
trusting it: the snapshot schema version, the tag, the generator
version, the full generator config and venue-profile panel, a
``config_hash`` over both, one ``{index, n_papers, sha256,
fingerprint}`` entry per shard, the merged corpus fingerprint, and
finally ``manifest_sha256`` — a digest over the canonical JSON of every
*other* manifest field, so editing **any** field (or reordering the
shard list) is detectable, not just damage to the shard bytes.

:func:`import_snapshot` verifies all of it eagerly — manifest digest,
config hash, per-object byte digests, decoded shard fingerprints, the
merged fingerprint, and the shard layout against a plan recomputed from
the config — and raises a one-line typed
:class:`repro.errors.IntegrityError` naming the first thing that does
not hold.  Nothing about a snapshot is trusted because it is present;
everything is recomputed.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict
from pathlib import Path

from repro.errors import IntegrityError
from repro.io.artifacts import lines_digest
from repro.io.jsonl import jsonl_line, parse_jsonl_lines, write_jsonl_lines, write_text_atomic

__all__ = [
    "MANIFEST_NAME",
    "SNAPSHOT_SCHEMA_VERSION",
    "export_snapshot",
    "import_snapshot",
    "load_manifest",
    "snapshot_config_hash",
]

#: Bump when the manifest schema or object layout changes shape.
SNAPSHOT_SCHEMA_VERSION = 1

#: The manifest filename inside a snapshot directory.
MANIFEST_NAME = "snapshot.json"

#: Subdirectory holding the content-addressed shard objects.
_OBJECTS_DIR = "objects"


def _canonical_sha256(payload: object) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    ).hexdigest()


def snapshot_config_hash(config: dict, profiles: list[dict]) -> str:
    """The identity hash of (generator config, venue panel)."""
    return _canonical_sha256({"config": config, "profiles": profiles})


def _manifest_sha256(manifest: dict) -> str:
    """The manifest's self-digest (over every field except itself)."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return _canonical_sha256(body)


def _fail(message: str, **context) -> None:
    raise IntegrityError(message, stage="import", **context)


def _read_object(path: Path, sha256: str) -> list[dict]:
    """The records of one snapshot object, parsed from the same single
    read of its bytes that is checked against its content address."""
    from repro.bibliometrics.columnar import SHARD_ARTIFACT_KIND

    try:
        data = path.read_bytes()
    except FileNotFoundError:
        _fail(
            f"snapshot object missing: {path.name}",
            path=str(path),
            kind=SHARD_ARTIFACT_KIND,
            damage="truncated",
        )
    actual = hashlib.sha256(data).hexdigest()
    if actual != sha256:
        _fail(
            f"snapshot object {path.name} failed its digest",
            path=str(path),
            kind=SHARD_ARTIFACT_KIND,
            damage="bit_flipped",
            expected=sha256,
            actual=actual,
        )
    return list(parse_jsonl_lines(io.BytesIO(data), str(path)))


def export_snapshot(
    directory: str | Path,
    config=None,
    profiles=None,
    *,
    tag: str,
    workers: int = 1,
    cache_dir: str | None = None,
    force: bool = False,
) -> dict:
    """Write a tagged snapshot of the corpus for ``(config, profiles)``.

    Generates (or replays, given a warm ``cache_dir``) the columnar
    corpus, then lands every shard as ``objects/<sha256>.jsonl`` — the
    filename *is* the digest of the file's bytes — plus the manifest.
    Returns the manifest dict.

    Args:
        directory: Snapshot directory to create.
        config: :class:`~repro.bibliometrics.shardgen.ShardedCorpusConfig`
            (default config when None).
        profiles: Venue panel (default panel when None).
        tag: Human-facing snapshot tag recorded in the manifest.
        workers: Shard-generation worker count (never changes content).
        cache_dir: Optional artifact cache to read shards through.
        force: Overwrite an existing manifest (refused otherwise).
    """
    import time

    from repro import __version__
    from repro.bibliometrics.shardgen import (
        ShardedCorpusConfig,
        default_venue_profiles,
        generate_columnar_corpus,
    )
    from repro.bibliometrics.columnar import (
        encode_shard,
        merge_fingerprints,
        shard_manifest_row,
    )

    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise IntegrityError(
            f"snapshot manifest already exists: {manifest_path} "
            "(pass force=True / --force to overwrite)",
            path=str(manifest_path),
            stage="export",
        )
    config = config or ShardedCorpusConfig()
    profiles = profiles if profiles is not None else default_venue_profiles()
    corpus = generate_columnar_corpus(
        config,
        profiles,
        workers=workers,
        cache_dir=cache_dir,
        stream=cache_dir is not None,
    )

    objects = directory / _OBJECTS_DIR
    shard_entries: list[dict] = []
    for shard in corpus.iter_shards():
        lines = [jsonl_line(record) for record in encode_shard(shard)]
        digest = lines_digest(lines)
        write_jsonl_lines(objects / f"{digest}.jsonl", lines)
        shard_entries.append(shard_manifest_row(shard, digest))

    config_dict = config.to_dict()
    profile_dicts = [asdict(profile) for profile in profiles]
    manifest = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "tag": tag,
        "generator_version": __version__,
        "created": time.time(),
        "config": config_dict,
        "profiles": profile_dicts,
        "config_hash": snapshot_config_hash(config_dict, profile_dicts),
        "n_papers": sum(entry["n_papers"] for entry in shard_entries),
        "shards": shard_entries,
        "fingerprint": merge_fingerprints(
            entry["fingerprint"] for entry in shard_entries
        ),
    }
    manifest["manifest_sha256"] = _manifest_sha256(manifest)
    write_text_atomic(
        manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    return manifest


def load_manifest(directory: str | Path) -> dict:
    """Read and self-verify a snapshot manifest (no shard reads yet).

    Checks the schema version, the ``manifest_sha256`` self-digest (any
    edited field mismatches), and the ``config_hash`` over the embedded
    config and profiles.  Raises :class:`repro.errors.IntegrityError`
    with a one-line message on the first violation.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        _fail(f"no snapshot manifest at {manifest_path}", path=str(manifest_path))
    except (UnicodeDecodeError, json.JSONDecodeError):
        _fail(
            f"snapshot manifest is not valid JSON: {manifest_path}",
            path=str(manifest_path),
            damage="garbled",
        )
    if not isinstance(manifest, dict):
        _fail(f"snapshot manifest is not an object: {manifest_path}",
              path=str(manifest_path), damage="bad_header")
    if manifest.get("schema_version") != SNAPSHOT_SCHEMA_VERSION:
        _fail(
            f"unsupported snapshot schema {manifest.get('schema_version')!r} "
            f"(this build reads {SNAPSHOT_SCHEMA_VERSION})",
            path=str(manifest_path),
            damage="bad_header",
        )
    declared = manifest.get("manifest_sha256")
    actual = _manifest_sha256(manifest)
    if declared != actual:
        _fail(
            "snapshot manifest failed its self-digest "
            "(a field was edited or damaged after export)",
            path=str(manifest_path),
            damage="bit_flipped",
            expected=declared,
            actual=actual,
        )
    config_hash = snapshot_config_hash(
        manifest.get("config", {}), manifest.get("profiles", [])
    )
    if manifest.get("config_hash") != config_hash:
        _fail(
            "snapshot config_hash does not match the embedded config",
            path=str(manifest_path),
            damage="bit_flipped",
            expected=manifest.get("config_hash"),
            actual=config_hash,
        )
    return manifest


def import_snapshot(
    directory: str | Path,
    *,
    cache_dir: str | None = None,
    max_resident: int | None = 1,
):
    """Open a snapshot as a verified, streaming ``ColumnarCorpus``.

    Verification is eager and total: the manifest self-digest and
    config hash (:func:`load_manifest`), the shard layout against a
    plan recomputed from the config, every object file's bytes against
    its content-address, every decoded shard's fingerprint against the
    manifest, and the merged fingerprint.  The first violation raises
    a one-line :class:`repro.errors.IntegrityError`; a corpus is only
    returned when every byte checked out.  Each object is read once for
    both its digest and its parse, and the returned corpus re-checks
    the digest every time it loads an object again.

    Args:
        directory: The snapshot directory.
        cache_dir: When given, each verified shard is also landed in
            that artifact cache (normal atomic puts), and then the
            verified rows as its ``corpus-manifest`` entry, so
            subsequent ``generate_columnar_corpus(..., cache_dir=...)``
            calls open the snapshot warm instead of regenerating.
        max_resident: LRU width for the returned corpus (default 1 —
            streaming; None keeps every decoded shard resident).

    Returns:
        A :class:`~repro.bibliometrics.columnar.ColumnarCorpus` backed
        by the snapshot's object files.
    """
    from repro.bibliometrics.columnar import (
        MANIFEST_ARTIFACT_KIND,
        SHARD_ARTIFACT_KIND,
        SHARD_SCHEMA_VERSION,
        ColumnarCorpus,
        decode_shard,
        merge_fingerprints,
        shard_manifest_row,
    )
    from repro.bibliometrics.shardgen import (
        CorpusPlan,
        ShardedCorpusConfig,
        build_vocab,
        manifest_cache_config,
        shard_cache_config,
    )
    from repro.bibliometrics.synthgen import VenueProfile

    directory = Path(directory)
    manifest = load_manifest(directory)
    try:
        config = ShardedCorpusConfig(**manifest["config"])
        profiles = [VenueProfile(**profile) for profile in manifest["profiles"]]
    except (TypeError, ValueError) as exc:
        _fail(f"snapshot config does not construct: {exc}",
              path=str(directory / MANIFEST_NAME), damage="bad_header")

    shard_entries = manifest.get("shards", [])
    plan = CorpusPlan(config, profiles)
    planned_sizes = plan.shard_sizes()
    declared_sizes = [entry.get("n_papers") for entry in shard_entries]
    if declared_sizes != planned_sizes:
        _fail(
            f"snapshot shard layout {declared_sizes} does not match the "
            f"plan recomputed from its config {planned_sizes}",
            path=str(directory / MANIFEST_NAME),
            damage="bad_header",
        )

    objects = directory / _OBJECTS_DIR
    cache = None
    if cache_dir is not None:
        from repro.io.artifacts import ArtifactCache

        cache = ArtifactCache(cache_dir, version=SHARD_SCHEMA_VERSION, sweep=False)

    rows: list[dict] = []
    for entry in shard_entries:
        object_path = objects / f"{entry['sha256']}.jsonl"
        records = _read_object(object_path, entry["sha256"])
        row = shard_manifest_row(decode_shard(records), entry["sha256"])
        if (row["index"], row["n_papers"]) != (entry["index"], entry["n_papers"]):
            _fail(
                f"snapshot object {object_path.name} decodes to shard "
                f"{row['index']} ({row['n_papers']} papers); manifest says "
                f"shard {entry['index']} ({entry['n_papers']} papers)",
                path=str(object_path),
                kind=SHARD_ARTIFACT_KIND,
                damage="bad_header",
            )
        if row["fingerprint"] != entry["fingerprint"]:
            _fail(
                f"snapshot shard {entry['index']} fingerprint mismatch",
                path=str(object_path),
                kind=SHARD_ARTIFACT_KIND,
                damage="bit_flipped",
                expected=entry["fingerprint"],
                actual=row["fingerprint"],
            )
        rows.append(row)
        if cache is not None:
            cache.put(
                SHARD_ARTIFACT_KIND,
                shard_cache_config(config, profiles, entry["index"]),
                records,
            )
    fingerprints = [row["fingerprint"] for row in rows]
    merged = merge_fingerprints(fingerprints)
    if merged != manifest.get("fingerprint"):
        _fail(
            "snapshot merged fingerprint mismatch",
            path=str(directory / MANIFEST_NAME),
            damage="bit_flipped",
            expected=manifest.get("fingerprint"),
            actual=merged,
        )
    if cache is not None:
        # The verified rows are the cache's corpus manifest too, so the
        # next generate_columnar_corpus open reads no shard.
        cache.put(MANIFEST_ARTIFACT_KIND, manifest_cache_config(config, profiles), rows)

    vocab = build_vocab(config, profiles, plan)
    by_index = {entry["index"]: entry for entry in shard_entries}

    def loader(index: int):
        sha256 = by_index[index]["sha256"]
        return decode_shard(_read_object(objects / f"{sha256}.jsonl", sha256))

    return ColumnarCorpus(
        vocab,
        planned_sizes,
        loader,
        shard_fingerprints=fingerprints,
        max_resident=max_resident,
    )
