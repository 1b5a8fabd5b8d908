"""Data-plane integrity: end-to-end verification, scrub/repair, snapshots.

The persistent data plane — artifact-cache entries, columnar corpus
shards, checkpoints, the bench ledger — backs everything the runtime
computes and everything ``repro serve`` serves.  This package is its
immune system:

- :mod:`repro.integrity.scrub` walks a cache, verifies every entry
  end-to-end through the cache's own reader
  (:func:`repro.io.artifacts.read_entry`: body SHA-256, not just
  header parse), reports damage by its kind (:data:`DAMAGE_KINDS`,
  defined beside that reader), and repairs it — regenerating
  byte-identical replacements for entries that are pure functions of their header
  config, deleting the rest down to a clean miss.
- :mod:`repro.integrity.snapshot` exports tagged, content-addressed,
  self-verifying corpus snapshots and imports them with eager total
  verification, so experiments and benches can pin a snapshot tag
  instead of regenerating ("do not benchmark against an arbitrary
  commit").

Both surface damage as the typed, one-line
:class:`repro.errors.IntegrityError`.
"""

from repro.io.artifacts import DAMAGE_KINDS
from repro.integrity.scrub import (
    DEFAULT_REGENERATORS,
    EntryInfo,
    Finding,
    ScrubReport,
    classify_entry,
    iter_entries,
    repair_cache,
    scrub_cache,
    verify_entry,
)
from repro.integrity.snapshot import (
    MANIFEST_NAME,
    SNAPSHOT_SCHEMA_VERSION,
    export_snapshot,
    import_snapshot,
    load_manifest,
    snapshot_config_hash,
)

__all__ = [
    "DAMAGE_KINDS",
    "DEFAULT_REGENERATORS",
    "EntryInfo",
    "Finding",
    "MANIFEST_NAME",
    "SNAPSHOT_SCHEMA_VERSION",
    "ScrubReport",
    "classify_entry",
    "export_snapshot",
    "import_snapshot",
    "iter_entries",
    "load_manifest",
    "repair_cache",
    "scrub_cache",
    "snapshot_config_hash",
    "verify_entry",
]
