"""Experiment registry and result type.

The registry is also the suite's single instrumentation point: every
runner handed out by :func:`get_experiment` is wrapped in a stage span
(``e07.run`` for E7, and so on) against the tracer in effect — one
decorator here instead of thirteen hand edits in the experiment
modules.  With the default :class:`repro.obs.tracing.NullTracer`
installed the wrapper costs one attribute lookup per run.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import CheckFailure, UnknownExperimentError
from repro.io.tables import Table
from repro.obs.tracing import current_tracer

#: Experiment id -> (module name, title, paper claim).
_EXPERIMENTS: dict[str, tuple[str, str, str]] = {
    "E1": (
        "repro.experiments.e01_method_adoption",
        "Human-method adoption by venue",
        "Human methods are peripheral in networking venues vs HCI/STS (§1, §6.4)",
    ),
    "E2": (
        "repro.experiments.e02_positionality_prevalence",
        "Positionality-statement prevalence",
        "Positionality statements are rare in networking, present in HCI/STS (§4)",
    ),
    "E3": (
        "repro.experiments.e03_agenda_concentration",
        "Research-agenda concentration",
        "Agendas mirror large moneyed interests (§1, §6.3.1)",
    ),
    "E4": (
        "repro.experiments.e04_coding_reliability",
        "Qualitative-coding reliability",
        "Formal coding is reliable and chance-correction matters (§5.2 fn.1)",
    ),
    "E5": (
        "repro.experiments.e05_saturation",
        "Saturation and patchwork ethnography",
        "Patchwork engagement approaches full-immersion coverage (§3)",
    ),
    "E6": (
        "repro.experiments.e06_telmex_evasion",
        "Mandatory-peering evasion",
        "An incumbent can satisfy an IXP mandate via ASN games (§3, [38])",
    ),
    "E7": (
        "repro.experiments.e07_ixp_gravity",
        "IXP gravity and tromboning",
        "Sparse Global-South PoPs push traffic through foreign mega-IXPs (§3, [39])",
    ),
    "E8": (
        "repro.experiments.e08_par_deployment",
        "PAR vs top-down deployment",
        "Participatory operation improves community-network outcomes (§2, §4)",
    ),
    "E9": (
        "repro.experiments.e09_cpr_congestion",
        "Common-pool congestion management",
        "Community CPR management beats unmanaged sharing (§4, [28])",
    ),
    "E10": (
        "repro.experiments.e10_reachability_bias",
        "Reachability bias in problem surfacing",
        "Problems surface from the most easily reachable stakeholders (§1)",
    ),
    "E11": (
        "repro.experiments.e11_recommendations_audit",
        "Recommendations audit sensitivity",
        "Section-5 practices are auditable and separable (§5)",
    ),
    "E12": (
        "repro.experiments.e12_scale_vs_depth",
        "Scale vs depth",
        "Few actors carry most of the system; small-N engagement covers much (§6.2.1)",
    ),
    "E13": (
        "repro.experiments.e13_congestion_collapse",
        "Congestion collapse counterfactual",
        "Deployment-bred AIMD (Tahoe/Reno) prevents the collapse open-loop "
        "design causes (§2)",
    ),
}


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes:
        experiment_id: An id from :func:`all_experiments` ("E1".."E13"
            today; the registry, not this docstring, is the source of
            truth for the count).
        title: Human-readable title.
        claim: The paper claim being tested.
        tables: Result tables (rendered into bench output and
            EXPERIMENTS.md).
        checks: Named boolean shape-checks — the "expected shape" from
            DESIGN.md evaluated on this run's numbers.
    """

    experiment_id: str
    title: str
    claim: str
    tables: list[Table] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def shape_holds(self) -> bool:
        """True when every shape-check passed."""
        return all(self.checks.values())

    def render(self) -> str:
        """Render tables and checks as plain text."""
        parts = [f"{self.experiment_id}: {self.title}", f"claim: {self.claim}"]
        for table in self.tables:
            parts.append(table.render())
        for name, ok in sorted(self.checks.items()):
            parts.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        return "\n\n".join(parts)

    def require(self) -> None:
        """Raise :class:`repro.errors.CheckFailure` if any check failed."""
        failed = tuple(name for name, ok in sorted(self.checks.items()) if not ok)
        if failed:
            raise CheckFailure(
                f"shape checks failed: {', '.join(failed)}",
                failed_checks=failed,
                experiment_id=self.experiment_id,
                stage="check",
            )

    def to_payload(self) -> dict:
        """The result as JSON-safe data (inverse of :meth:`from_payload`).

        This is what the sweep engine stores in the artifact cache and
        writes to per-point ``record.json`` files.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "tables": [table.to_payload() for table in self.tables],
            "checks": dict(self.checks),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> ExperimentResult:
        """Rebuild a result from :meth:`to_payload` output."""
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload.get("title", ""),
            claim=payload.get("claim", ""),
            tables=[Table.from_payload(t) for t in payload.get("tables", [])],
            checks={k: bool(v) for k, v in payload.get("checks", {}).items()},
        )


def all_experiments() -> list[str]:
    """Experiment ids in suite order."""
    return sorted(_EXPERIMENTS, key=lambda k: int(k[1:]))


def _lookup(experiment_id: str) -> tuple[str, str, str]:
    """The registry row for ``experiment_id``, validated."""
    if experiment_id not in _EXPERIMENTS:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; known: {all_experiments()}"
        )
    return _EXPERIMENTS[experiment_id]


def _stage_name(module_name: str) -> str:
    """The stage prefix for a module (``...e07_ixp_gravity`` -> ``e07``)."""
    return module_name.rsplit(".", 1)[-1].split("_", 1)[0]


def _traced(
    experiment_id: str,
    stage: str,
    run_fn: Callable[..., ExperimentResult],
    spec_cls: type | None = None,
) -> Callable[..., ExperimentResult]:
    """Wrap an experiment runner in a ``<stage>.run`` tracing span.

    The span is opened against :func:`repro.obs.tracing.current_tracer`
    at call time, so one ``use_tracer`` block traces the whole suite —
    including runs dispatched from worker threads and benchmarks.  When
    the experiment has a spec class, every calling convention is
    resolved to a spec *here* — the span then carries the spec's seed
    and ``config_hash`` and the experiment body only ever sees a spec.
    """
    from repro.experiments.spec import resolve_spec

    @functools.wraps(run_fn)
    def traced_run(*args, **kwargs) -> ExperimentResult:
        if spec_cls is not None:
            spec = resolve_spec(
                spec_cls,
                args[0] if args else kwargs.get("spec"),
                args[1] if len(args) > 1 else kwargs.get("fast"),
                kwargs.get("seed"),
            )
            with current_tracer().span(
                f"{stage}.run",
                experiment_id=experiment_id,
                stage="run",
                seed=spec.seed,
                config_hash=spec.config_hash(),
            ):
                return run_fn(spec)
        with current_tracer().span(
            f"{stage}.run",
            experiment_id=experiment_id,
            stage="run",
            seed=kwargs.get("seed"),
        ):
            return run_fn(*args, **kwargs)

    return traced_run


def spec_class(experiment_id: str) -> type:
    """The :class:`repro.experiments.spec.ExperimentSpec` subclass for an id.

    By convention the class is named ``<id>Spec`` (``E7Spec``) and lives
    in the experiment's module.
    """
    module_name, _, _ = _lookup(experiment_id)
    module = importlib.import_module(module_name)
    cls = getattr(module, f"{experiment_id}Spec", None)
    if cls is None:
        raise UnknownExperimentError(
            f"experiment {experiment_id!r} defines no {experiment_id}Spec class"
        )
    return cls


def make_spec(
    experiment_id: str,
    preset: str = "fast",
    seed: int = 0,
    overrides: dict | None = None,
):
    """Build the named preset spec for ``experiment_id`` with overrides.

    ``overrides`` maps (possibly dotted) field paths to values — raw
    strings from the CLI are coerced to the declared field types; see
    :func:`repro.experiments.spec.apply_overrides`.
    """
    from repro.experiments.spec import apply_overrides

    spec = spec_class(experiment_id).preset(preset, seed=seed)
    if overrides:
        spec = apply_overrides(spec, overrides)
    return spec


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The runner for ``experiment_id``.

    The returned callable accepts a spec (``run(spec)``) or the legacy
    signature (``run(seed=0, fast=True)``, fingerprint-identical to the
    matching preset), and is wrapped in a tracing stage span (see
    :func:`_traced`).
    """
    module_name, _, _ = _lookup(experiment_id)
    module = importlib.import_module(module_name)
    cls = getattr(module, f"{experiment_id}Spec", None)
    return _traced(experiment_id, _stage_name(module_name), module.run, cls)


def describe(experiment_id: str) -> tuple[str, str]:
    """``(title, claim)`` for ``experiment_id``."""
    _, title, claim = _lookup(experiment_id)
    return title, claim


def describe_table() -> Table:
    """The whole registry as a :class:`repro.io.tables.Table`.

    ``repro experiments --list`` prints this table; it shares the
    renderer with ``repro obs report`` and the benchmarks instead of
    hand-rolling its own column formatting.
    """
    table = Table(["id", "title", "claim"])
    for experiment_id in all_experiments():
        title, claim = describe(experiment_id)
        table.add_row([experiment_id, title, claim])
    return table


def make_result(experiment_id: str) -> ExperimentResult:
    """A blank :class:`ExperimentResult` with registry metadata filled in."""
    title, claim = describe(experiment_id)
    return ExperimentResult(experiment_id=experiment_id, title=title, claim=claim)


def run_all(seed: int = 0, fast: bool = True) -> list[ExperimentResult]:
    """Run every experiment; returns results in suite order.

    Strict mode: the first crash propagates.  For per-experiment
    isolation, retries, deadlines, and checkpoint/resume use
    :class:`repro.runtime.SuiteRunner` directly.
    """
    # Imported lazily: repro.runtime depends on this module.
    from repro.runtime.runner import SuiteRunner

    report = SuiteRunner(keep_going=False).run_all(seed=seed, fast=fast)
    return [record.result for record in report]
