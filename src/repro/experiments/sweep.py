"""Parameter-sweep engine over typed experiment specs.

A sweep is the cross product of per-field value lists ("axes") applied
to a base preset spec: ``--grid seed=0,1,2 --grid n_eyeballs=10,20``
expands to six :class:`~repro.experiments.spec.ExperimentSpec`
instances, each with its own ``config_hash()``.  The points run through
:meth:`repro.runtime.runner.SuiteRunner.run_points` — so a sweep gets
the full fault-tolerant runtime for free: isolation, retries,
deadlines, supervised parallel fan-out, and crash-requeue.

Results are memoized in the shared
:class:`repro.io.artifacts.ArtifactCache` under the point's
``config_hash``; re-running a sweep (or overlapping a new grid with an
old one) replays finished points from disk instead of recomputing
them.  Each point can also be materialized under ``results_dir`` as
``<experiment>-<hash12>/`` holding the rendered result and the
checkpoint-shaped record.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import SpecError
from repro.experiments.registry import ExperimentResult, make_spec
from repro.experiments.spec import apply_overrides, parse_override
from repro.io.tables import Table

__all__ = [
    "SWEEP_RESULT_KIND",
    "SweepPoint",
    "SweepReport",
    "expand_grid",
    "load_grid_file",
    "parse_grid_args",
    "result_cache_config",
    "run_sweep",
]

#: Artifact-cache kind for memoized per-point experiment results.
SWEEP_RESULT_KIND = "experiment-result"


def result_cache_config(experiment_id: str, config_hash: str) -> dict:
    """The artifact-cache config addressing one memoized experiment result.

    Public because the result service (:mod:`repro.serve`) reads and
    writes the *same* entries: a sweep warms the server, a served cold
    request warms future sweeps.  Any change here invalidates both.
    """
    return {"experiment_id": experiment_id, "config_hash": config_hash}


# ---------------------------------------------------------------------------
# Grid parsing and expansion


def parse_grid_args(spec_cls: type, assignments: list[str]) -> dict[str, list]:
    """Parse CLI ``--grid key=v1,v2,...`` arguments into an axes dict.

    Each value is parsed against the (possibly dotted) field's declared
    type via :func:`repro.experiments.spec.parse_override`, so a bad
    key or value fails with the same one-line :class:`SpecError` that
    ``--set`` produces.  Axis order — and therefore expansion order —
    follows the command line.
    """
    grid: dict[str, list] = {}
    for assignment in assignments:
        if "=" not in assignment:
            raise SpecError(
                f"--grid {assignment!r} is not of the form key=v1,v2,..."
            )
        key, raw = assignment.split("=", 1)
        key = key.strip()
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        if not parts:
            raise SpecError(f"--grid {assignment!r} has no values")
        values = []
        for part in parts:
            parsed_key, value = parse_override(spec_cls, f"{key}={part}")
            values.append(value)
        if parsed_key in grid:
            raise SpecError(f"--grid axis {parsed_key!r} given twice")
        grid[parsed_key] = values
    return grid


def load_grid_file(path: str | Path) -> dict:
    """Load a JSON grid file.

    Schema: ``{"experiment": "E7", "grid": {"seed": [0, 1, 2]},
    "preset": "fast", "base": {"n_eyeballs": 12}}`` — ``experiment``
    may be omitted when the CLI names it, ``preset`` defaults to
    ``fast`` and ``base`` to no overrides.  Unlike ``--grid``, file
    axes carry real JSON values, so tuple-typed fields can sweep
    multi-element points (``"protocols": [["tahoe"], ["tahoe",
    "reno"]]``).
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read grid file {path}: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("grid"), dict):
        raise SpecError(
            f"grid file {path} must be a JSON object with a 'grid' mapping"
        )
    if not all(isinstance(v, list) and v for v in data["grid"].values()):
        raise SpecError(
            f"grid file {path}: every grid axis must be a non-empty list"
        )
    return {
        "experiment": data.get("experiment"),
        "grid": data["grid"],
        "preset": data.get("preset", "fast"),
        "base": data.get("base", {}),
    }


def expand_grid(base_spec, grid: dict[str, list]) -> list:
    """The cross product of ``grid`` axes applied to ``base_spec``.

    Expansion is deterministic: axes vary slowest-first in the order
    the dict provides them (``itertools.product`` semantics), so the
    same grid always yields the same point sequence.  An empty grid is
    the single base point.
    """
    if not grid:
        return [base_spec]
    keys = list(grid)
    specs = []
    for combo in itertools.product(*(grid[key] for key in keys)):
        specs.append(apply_overrides(base_spec, dict(zip(keys, combo))))
    return specs


# ---------------------------------------------------------------------------
# Sweep execution


@dataclass
class SweepPoint:
    """One grid point's spec and outcome.

    ``source`` is ``"run"`` for freshly executed points and ``"cache"``
    for points replayed from the artifact cache.
    """

    spec: Any
    record: Any
    source: str = "run"

    @property
    def result(self) -> ExperimentResult | None:
        return self.record.result


@dataclass
class SweepReport:
    """All points of one sweep, in expansion order."""

    experiment_id: str
    axes: list[str] = field(default_factory=list)
    points: list[SweepPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def ok(self) -> bool:
        """True when every point succeeded and every shape held."""
        return all(p.record.shape_holds for p in self.points)

    def fingerprint(self) -> str:
        """Semantic digest of the sweep, stable across worker counts.

        Durations are zeroed and the cache/run source is excluded, so a
        warm re-run (or a 4-worker run) fingerprints identically to a
        cold sequential one — the equality the sweep determinism tests
        assert.
        """
        from repro.runtime.runner import SuiteReport

        return SuiteReport(
            records=[point.record for point in self.points]
        ).fingerprint()

    def _axis_value(self, spec, axis: str):
        value = spec
        for part in axis.split("."):
            value = getattr(value, part)
        if isinstance(value, tuple):
            return ",".join(str(v) for v in value)
        return value

    def summary_table(self) -> Table:
        """Per-point summary rendered through :mod:`repro.io.tables`."""
        table = Table(
            ["point"] + list(self.axes)
            + ["status", "checks", "duration_s", "source"],
            title=f"sweep {self.experiment_id}: "
            f"{len(self.points)} points over {', '.join(self.axes) or 'base'}",
        )
        for point in self.points:
            record = point.record
            passed = sum(bool(v) for v in record.checks.values())
            table.add_row(
                [point_dirname(self.experiment_id, point.spec)]
                + [self._axis_value(point.spec, axis) for axis in self.axes]
                + [
                    record.status,
                    f"{passed}/{len(record.checks)}",
                    record.duration,
                    point.source,
                ]
            )
        return table

    def summary(self) -> dict:
        """Machine-readable summary (the ``--json-summary`` payload)."""
        return {
            "experiment_id": self.experiment_id,
            "axes": list(self.axes),
            "total": len(self.points),
            "ok": sum(p.record.status == "ok" for p in self.points),
            "from_cache": sum(p.source == "cache" for p in self.points),
            "all_ok": self.ok,
            "fingerprint": self.fingerprint(),
            "points": [
                {
                    "config_hash": p.record.config_hash,
                    "source": p.source,
                    "record": p.record.to_record(),
                }
                for p in self.points
            ],
        }


def point_dirname(experiment_id: str, spec) -> str:
    """The results-directory name for one point (id + short hash)."""
    return f"{experiment_id}-{spec.config_hash()[:12]}"


def _cache_config(experiment_id: str, spec) -> dict:
    return result_cache_config(experiment_id, spec.config_hash())


def _write_point_dir(results_dir: Path, experiment_id: str, point: SweepPoint) -> None:
    point_dir = results_dir / point_dirname(experiment_id, point.spec)
    point_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "source": point.source,
        "record": point.record.to_record(),
    }
    (point_dir / "record.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if point.result is not None:
        (point_dir / "result.txt").write_text(
            point.result.render() + "\n", encoding="utf-8"
        )


def run_sweep(
    experiment_id: str,
    grid: dict[str, list],
    *,
    preset: str = "fast",
    base_overrides: dict | None = None,
    workers: int = 1,
    results_dir: str | Path | None = None,
    cache_dir: str | Path | None = None,
    runner=None,
    **runner_kwargs,
) -> SweepReport:
    """Expand ``grid`` against a preset of ``experiment_id`` and run it.

    Points whose ``config_hash`` already has a memoized result in
    ``cache_dir`` are replayed from disk (``source="cache"``); the rest
    run through :meth:`SuiteRunner.run_points` — parallel when
    ``workers > 1`` — and successful fresh results are written back to
    the cache.  Extra keyword arguments construct the
    :class:`~repro.runtime.runner.SuiteRunner` (``retries=``,
    ``timeout=``, ``fault_injector=``, ...); pass ``runner=`` to
    supply a preconfigured one instead.
    """
    from repro.runtime.runner import SuiteRunner

    base = make_spec(experiment_id, preset, overrides=base_overrides)
    specs = expand_grid(base, grid)

    cache = None
    if cache_dir is not None:
        from repro.io.artifacts import ArtifactCache

        cache = ArtifactCache(cache_dir)

    points: list[SweepPoint | None] = [None] * len(specs)
    pending: list[int] = []
    for index, spec in enumerate(specs):
        rows = (
            cache.get(SWEEP_RESULT_KIND, _cache_config(experiment_id, spec))
            if cache is not None
            else None
        )
        if rows:
            from repro.runtime.runner import RunRecord

            record = RunRecord.from_record(rows[0]["record"])
            record.result = ExperimentResult.from_payload(rows[0]["result"])
            points[index] = SweepPoint(spec=spec, record=record, source="cache")
        else:
            pending.append(index)

    if pending:
        if runner is None:
            runner = SuiteRunner(
                cache_dir=str(cache_dir) if cache_dir is not None else None,
                **runner_kwargs,
            )
        report = runner.run_points([specs[i] for i in pending], workers=workers)
        for index, record in zip(pending, report.records):
            point = SweepPoint(spec=specs[index], record=record, source="run")
            points[index] = point
            if (
                cache is not None
                and record.status == "ok"
                and record.result is not None
            ):
                cache.put(
                    SWEEP_RESULT_KIND,
                    _cache_config(experiment_id, point.spec),
                    [
                        {
                            "record": record.to_record(),
                            "result": record.result.to_payload(),
                        }
                    ],
                )

    sweep_report = SweepReport(
        experiment_id=experiment_id,
        axes=list(grid),
        points=[p for p in points if p is not None],
    )
    if results_dir is not None:
        root = Path(results_dir)
        for point in sweep_report.points:
            _write_point_dir(root, experiment_id, point)
    return sweep_report
