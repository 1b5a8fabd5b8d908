"""Error taxonomy for the toolkit.

Every failure the library can surface descends from :class:`ReproError`,
so callers that orchestrate many experiments (``repro.runtime``) or many
files (``repro.io``) can catch one base class and still tell failure
modes apart.  Each error carries *where it happened* — experiment id,
seed, and pipeline stage — because in a 13-experiment suite a bare
traceback is not enough to reproduce a crash.

Hierarchy::

    ReproError
    ├── ExperimentError          an experiment run failed
    │   ├── UnknownExperimentError   (also a KeyError, for back-compat)
    │   └── WorkerCrashError         a pool worker died (signal/OOM/segfault)
    ├── CheckFailure             shape-checks evaluated false
    ├── SpecError                an experiment spec is invalid (also ValueError)
    ├── DataFormatError          persisted data is malformed (also ValueError)
    │   ├── JsonlDecodeError         (also json.JSONDecodeError)
    │   │   └── TruncatedFileError       torn final line — likely a killed writer
    │   └── IntegrityError           checksum/fingerprint verification failed
    ├── BudgetExceeded           a wall-clock / resource budget ran out
    └── CacheLockTimeout         a per-key cache lock never came free
"""

from __future__ import annotations

import json


class ReproError(Exception):
    """Base class for every error the toolkit raises on purpose.

    Attributes:
        experiment_id: The experiment being run ("E1".."E13"), when known.
        seed: The RNG seed of the failing run, when known.
        stage: Pipeline stage ("run", "read", "write", "check", ...).
    """

    def __init__(
        self,
        message: str,
        *,
        experiment_id: str | None = None,
        seed: int | None = None,
        stage: str | None = None,
    ) -> None:
        super().__init__(message)
        self.experiment_id = experiment_id
        self.seed = seed
        self.stage = stage

    def context(self) -> dict:
        """The non-empty context fields, for structured logging."""
        fields = {
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "stage": self.stage,
        }
        return {k: v for k, v in fields.items() if v is not None}

    def __str__(self) -> str:
        # Exception.__str__ directly: KeyError subclasses would otherwise
        # repr() the message.
        base = Exception.__str__(self)
        ctx = self.context()
        if not ctx:
            return base
        tagged = " ".join(f"{k}={v}" for k, v in sorted(ctx.items()))
        return f"{base} [{tagged}]"


class ExperimentError(ReproError):
    """An experiment run raised, or could not be started."""


class UnknownExperimentError(ExperimentError, KeyError):
    """An experiment id is not in the registry.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working.
    """


class WorkerCrashError(ExperimentError):
    """A pool worker process died instead of returning a result.

    Raised (and recorded) by the parallel runtime's supervisor when a
    worker is killed — OOM killer, segfault in an extension, an
    injected ``kill`` fault — rather than failing in Python.  Unlike a
    plain :class:`ExperimentError` it carries the *process-level*
    evidence, so crash causes can be broken down after the fact.

    Attributes:
        exit_code: The worker's raw exit code when observed (negative
            values are ``-signum`` per :mod:`multiprocessing`).
        exit_signal: Name of the killing signal ("SIGKILL", ...) when
            the exit code maps to one.
        attempt: How many workers this task has crashed so far (1 =
            first crash).
        quarantined: True when the task exhausted its crash budget and
            was quarantined as a poison task instead of requeued.
        reason: Human-readable supervisor verdict ("crash budget
            exhausted", "missed heartbeat", ...).
    """

    def __init__(
        self,
        message: str,
        *,
        exit_code: int | None = None,
        exit_signal: str | None = None,
        attempt: int | None = None,
        quarantined: bool = False,
        reason: str | None = None,
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.exit_code = exit_code
        self.exit_signal = exit_signal
        self.attempt = attempt
        self.quarantined = quarantined
        self.reason = reason

    def crash_info(self) -> dict:
        """The process-level evidence as a JSON-safe dict.

        This is what lands in the ``crash`` field of a
        :class:`repro.runtime.runner.RunRecord`, and what
        ``repro obs report`` uses to break down crash causes.
        """
        return {
            "exit_code": self.exit_code,
            "exit_signal": self.exit_signal,
            "attempt": self.attempt,
            "quarantined": self.quarantined,
            "reason": self.reason,
        }


class CheckFailure(ReproError):
    """One or more shape-checks evaluated false.

    Attributes:
        failed_checks: Names of the checks that failed.
    """

    def __init__(
        self,
        message: str,
        *,
        failed_checks: tuple[str, ...] = (),
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.failed_checks = tuple(failed_checks)


class SpecError(ReproError, ValueError):
    """An experiment spec is invalid or an override cannot be applied.

    Raised by :mod:`repro.experiments.spec` on out-of-range values,
    unknown fields, bad choices, and unparsable ``--set``/``--grid``
    overrides.  The message is written to be shown verbatim to a CLI
    user: one line naming the spec class, the offending field, and the
    valid alternatives.

    Also a :class:`ValueError`, so callers validating configs with a
    generic ``except ValueError`` keep working.
    """


class DataFormatError(ReproError, ValueError):
    """Persisted or exchanged data does not match its declared format."""


class JsonlDecodeError(DataFormatError, json.JSONDecodeError):
    """A JSONL line failed to parse.

    Also a :class:`json.JSONDecodeError`, so pre-taxonomy callers that
    catch that keep working.

    Attributes:
        path: The file being read, as a string.
        line_number: 1-based line of the bad record.
    """

    def __init__(
        self,
        msg: str,
        doc: str = "",
        pos: int = 0,
        *,
        path: str | None = None,
        line_number: int | None = None,
        **context,
    ) -> None:
        json.JSONDecodeError.__init__(self, msg, doc, pos)
        self.path = path
        self.line_number = line_number
        self.experiment_id = context.get("experiment_id")
        self.seed = context.get("seed")
        self.stage = context.get("stage", "read")


class TruncatedFileError(JsonlDecodeError):
    """The final line of a JSONL file is torn (no newline, invalid JSON).

    Distinct from :class:`JsonlDecodeError` on an interior line: a torn
    tail almost always means the writing process was killed mid-write,
    and everything before the tail is salvageable.
    """


class IntegrityError(DataFormatError):
    """Stored data failed checksum or fingerprint verification.

    Raised when bytes on disk do not match the digest they were written
    with: a bit-flipped artifact body, a truncated corpus shard, a
    snapshot manifest whose fields were edited after export.  Distinct
    from :class:`JsonlDecodeError` — the file may *parse* perfectly and
    still be wrong, which is exactly the failure mode a parse-only
    check cannot see.

    The message is one line, written to be shown verbatim by the CLI
    (``repro integrity scrub``, ``repro corpus import``).  Layers that
    can self-heal (the artifact cache, shard loaders, ``repro serve``)
    catch this and route to recompute; layers that cannot (snapshot
    import) surface it.

    Attributes:
        path: The damaged file, as a string, when known.
        kind: Artifact kind or snapshot member ("corpus-shard", ...).
        damage: Damage class from the taxonomy
            (:data:`repro.io.artifacts.DAMAGE_KINDS`: "bit_flipped",
            "truncated", "bad_header", "orphaned_tmp", "garbled"), or
            "missing" when a strict cache read finds no entry at all.
        expected: The digest/fingerprint that was declared.
        actual: The digest/fingerprint recomputed from the bytes read.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        kind: str | None = None,
        damage: str | None = None,
        expected: str | None = None,
        actual: str | None = None,
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.path = path
        self.kind = kind
        self.damage = damage
        self.expected = expected
        self.actual = actual

    def context(self) -> dict:
        fields = dict(super().context())
        for key in ("path", "kind", "damage"):
            value = getattr(self, key)
            if value is not None:
                fields[key] = value
        return fields


class CacheLockTimeout(ReproError):
    """A per-key artifact-cache lock could not be acquired in time.

    Raised by :meth:`repro.io.artifacts.ArtifactCache._key_lock` when
    the advisory ``flock`` holder wedges (a stopped process, a hung
    NFS client) past the acquisition deadline.  Callers that can make
    progress without the cache —
    :meth:`~repro.io.artifacts.ArtifactCache.get_or_create` above all —
    catch this and fall back to computing uncached, so one wedged lock
    holder degrades throughput instead of freezing every process that
    shares the cache.

    Attributes:
        lock_path: The lock file that never came free, as a string.
        timeout: The acquisition deadline that expired, in seconds.
    """

    def __init__(
        self,
        message: str,
        *,
        lock_path: str | None = None,
        timeout: float | None = None,
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.lock_path = lock_path
        self.timeout = timeout


class BudgetExceeded(ReproError):
    """A wall-clock or resource budget ran out before the work finished.

    Attributes:
        budget: The limit that was exceeded (seconds for wall-clock).
        spent: How much was actually consumed, when measurable.
    """

    def __init__(
        self,
        message: str,
        *,
        budget: float | None = None,
        spent: float | None = None,
        **context,
    ) -> None:
        super().__init__(message, **context)
        self.budget = budget
        self.spent = spent
