"""Typed, validated experiment specs.

Every experiment declares a frozen dataclass subclassing
:class:`ExperimentSpec` that names every knob the experiment reads —
seed, sizes, sweep axes — with per-field metadata (ranges, choices,
help text) attached via :func:`spec_field`.  A spec is the *complete*
description of one experiment run:

- ``Spec.preset("fast")`` / ``Spec.preset("full")`` reproduce the two
  legacy ``run(seed, fast)`` operating points exactly;
- ``spec.canonical_json()`` is a stable, sorted serialization, and
  ``spec.config_hash()`` a sha256 over it — the identity the runtime
  uses for checkpoints, artifact-cache keys, and sweep dedup;
- ``to_dict()`` / ``from_dict()`` roundtrip through plain JSON types,
  so specs travel across the fork pool and crash-requeue paths as
  picklable payloads.

Validation happens at construction (``__post_init__``): out-of-range
values, bad choices, and wrong types raise
:class:`repro.errors.SpecError` with a one-line, CLI-ready message.

The legacy ``run(seed=0, fast=True)`` signature is kept alive by
:func:`resolve_spec`, which every experiment's ``run`` calls first; the
shim maps legacy arguments onto the matching preset so old callers are
fingerprint-identical to ``run(Spec.preset(...))``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, get_type_hints

from repro.errors import SpecError

#: Bump when the canonical serialization itself changes meaning, so old
#: artifact-cache entries and checkpoints are orphaned rather than
#: silently reused under a new interpretation.
#: v2: E1/E2/E3/E12 read the shard-parallel generator's corpus, so
#: results memoized under v1 hashes describe a different corpus.
SPEC_SCHEMA_VERSION = 2

#: Metadata key under which spec_field() stores its constraint dict.
_META_KEY = "repro.spec"


def spec_field(
    default: Any,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
    choices: tuple | None = None,
    help: str = "",
) -> Any:
    """A dataclass field carrying range/choice constraints.

    ``choices`` on a tuple-typed field constrains each *element* of the
    value; on a scalar field it constrains the value itself.  ``minimum``
    and ``maximum`` are inclusive bounds, applied element-wise to tuple
    values the same way.
    """
    meta = {
        "minimum": minimum,
        "maximum": maximum,
        "choices": tuple(choices) if choices is not None else None,
        "help": help,
    }
    if isinstance(default, (list, dict, set)):
        raise TypeError(
            f"spec_field default must be immutable, got {type(default).__name__}"
        )
    return dataclasses.field(default=default, metadata={_META_KEY: meta})


def _constraints(f: dataclasses.Field) -> dict:
    return f.metadata.get(_META_KEY, {})


def _type_name(tp: Any) -> str:
    return getattr(tp, "__name__", str(tp))


@dataclass(frozen=True)
class _SpecBase:
    """Shared machinery for :class:`ExperimentSpec` and nested param blocks."""

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------

    @classmethod
    def _hints(cls) -> dict[str, Any]:
        # Annotations are strings repo-wide (`from __future__ import
        # annotations`); resolve them once per class.
        cached = cls.__dict__.get("_resolved_hints")
        if cached is None:
            cached = get_type_hints(cls)
            cls._resolved_hints = cached
        return cached

    def validate(self) -> None:
        """Raise :class:`SpecError` on any type/range/choice violation."""
        hints = self._hints()
        for f in fields(self):
            value = getattr(self, f.name)
            self._validate_field(f, hints[f.name], value)

    def _validate_field(self, f: dataclasses.Field, hint: Any, value: Any) -> None:
        cls_name = type(self).__name__
        if isinstance(hint, type) and issubclass(hint, _SpecBase):
            if not isinstance(value, hint):
                raise SpecError(
                    f"{cls_name}.{f.name} must be a {hint.__name__}, "
                    f"got {_type_name(type(value))}"
                )
            return
        if hint is tuple or getattr(hint, "__origin__", None) is tuple:
            if not isinstance(value, tuple):
                raise SpecError(
                    f"{cls_name}.{f.name} must be a tuple, "
                    f"got {_type_name(type(value))}"
                )
            if not value:
                raise SpecError(f"{cls_name}.{f.name} must not be empty")
            elem_types = ()
            args = getattr(hint, "__args__", ())
            if args:
                elem_types = tuple(a for a in args if a is not Ellipsis)
            for item in value:
                if elem_types and not isinstance(item, elem_types):
                    # bool is an int subclass; reject it for numeric tuples.
                    raise SpecError(
                        f"{cls_name}.{f.name} elements must be "
                        f"{'/'.join(_type_name(t) for t in elem_types)}, "
                        f"got {item!r}"
                    )
                self._check_constraints(f, item)
            return
        if hint is bool:
            if not isinstance(value, bool):
                raise SpecError(
                    f"{cls_name}.{f.name} must be a bool, got {value!r}"
                )
        elif hint is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SpecError(
                    f"{cls_name}.{f.name} must be an int, got {value!r}"
                )
        elif hint is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(
                    f"{cls_name}.{f.name} must be a number, got {value!r}"
                )
        elif hint is str:
            if not isinstance(value, str):
                raise SpecError(
                    f"{cls_name}.{f.name} must be a string, got {value!r}"
                )
        self._check_constraints(f, value)

    def _check_constraints(self, f: dataclasses.Field, value: Any) -> None:
        meta = _constraints(f)
        if not meta:
            return
        cls_name = type(self).__name__
        choices = meta.get("choices")
        if choices is not None and value not in choices:
            raise SpecError(
                f"{cls_name}.{f.name}: {value!r} is not one of "
                f"{', '.join(repr(c) for c in choices)}"
            )
        minimum = meta.get("minimum")
        if minimum is not None and value < minimum:
            raise SpecError(
                f"{cls_name}.{f.name} must be >= {minimum}, got {value!r}"
            )
        maximum = meta.get("maximum")
        if maximum is not None and value > maximum:
            raise SpecError(
                f"{cls_name}.{f.name} must be <= {maximum}, got {value!r}"
            )

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """The spec as plain JSON types (tuples become lists)."""
        out: dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _SpecBase):
                out[f.name] = value.to_dict()
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild a spec from :meth:`to_dict` output (validates)."""
        if not isinstance(data, dict):
            raise SpecError(f"{cls.__name__}.from_dict needs a dict, got {data!r}")
        hints = cls._hints()
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"{cls.__name__} has no field {unknown[0]!r}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        kwargs: dict[str, Any] = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            hint = hints[f.name]
            value = data[f.name]
            if isinstance(hint, type) and issubclass(hint, _SpecBase):
                kwargs[f.name] = hint.from_dict(value)
            elif (
                hint is tuple or getattr(hint, "__origin__", None) is tuple
            ) and isinstance(value, list):
                kwargs[f.name] = tuple(value)
            else:
                kwargs[f.name] = value
        return cls(**kwargs)

    def replace(self, **changes):
        """A new, re-validated spec with ``changes`` applied."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise SpecError(
                f"{type(self).__name__}: {exc}; valid fields: "
                f"{', '.join(sorted(f.name for f in fields(self)))}"
            ) from exc


@dataclass(frozen=True)
class CorpusParams(_SpecBase):
    """Shape of the shared synthetic paper corpus (E1/E2/E3/E12).

    The defaults are the ``fast`` corpus; the ``full`` preset of each
    corpus-backed experiment widens ``start_year`` to 2000 and doubles
    the author pool, matching the legacy ``fast=False`` path exactly.
    """

    start_year: int = spec_field(2016, minimum=1990, maximum=2025, help="first publication year")
    end_year: int = spec_field(2025, minimum=1990, maximum=2030, help="last publication year")
    authors_per_venue_pool: int = spec_field(60, minimum=10, maximum=500, help="author pool size per venue")
    venue_scale: float = spec_field(1.0, minimum=0.1, maximum=100.0, help="multiplier on every venue's papers per year")

    def validate(self) -> None:
        super().validate()
        if self.end_year < self.start_year:
            raise SpecError(
                f"CorpusParams.end_year ({self.end_year}) must be >= "
                f"start_year ({self.start_year})"
            )

    #: The two legacy corpus shapes.
    FAST: ClassVar[dict] = {}
    FULL: ClassVar[dict] = {"start_year": 2000, "authors_per_venue_pool": 120}


@dataclass(frozen=True)
class ExperimentSpec(_SpecBase):
    """Base class for per-experiment specs.

    Subclasses set :attr:`EXPERIMENT_ID` and :attr:`PRESETS` and add
    their knobs as :func:`spec_field` fields.  Field *defaults are the
    ``fast`` operating point*; the ``full`` preset overrides only what
    differs, so ``PRESETS["fast"]`` is usually empty.
    """

    seed: int = spec_field(0, minimum=0, help="RNG seed")

    #: Experiment id this spec belongs to ("E7" ...).
    EXPERIMENT_ID: ClassVar[str] = ""
    #: preset name -> field overrides relative to the class defaults.
    PRESETS: ClassVar[dict[str, dict]] = {"fast": {}, "full": {}}

    @classmethod
    def preset_names(cls) -> list[str]:
        return sorted(cls.PRESETS)

    @classmethod
    def preset(cls, name: str = "fast", seed: int = 0, **overrides):
        """Build the named preset at ``seed``, with optional overrides."""
        if name not in cls.PRESETS:
            raise SpecError(
                f"{cls.__name__} has no preset {name!r}; "
                f"valid presets: {', '.join(cls.preset_names())}"
            )
        kwargs = dict(cls.PRESETS[name])
        kwargs["seed"] = seed
        kwargs.update(overrides)
        spec = cls(**kwargs)
        object.__setattr__(spec, "_origin_preset", name)
        return spec

    @property
    def origin_preset(self) -> str | None:
        """Which preset built this spec, when known (not part of identity)."""
        return getattr(self, "_origin_preset", None)

    # -- identity -----------------------------------------------------

    def canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace drift.

        Includes the experiment id and the spec schema version, so two
        different experiments with coincidentally equal fields — or the
        same fields under a future re-interpretation — never share an
        identity.
        """
        payload = {
            "experiment": self.EXPERIMENT_ID,
            "spec": self.to_dict(),
            "version": SPEC_SCHEMA_VERSION,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        """sha256 hex digest of :meth:`canonical_json`."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def describe_fields(self) -> list[dict]:
        """Field name/type/default/constraints rows, for ``--help`` style output."""
        hints = self._hints()
        rows = []
        for f in fields(self):
            meta = _constraints(f)
            rows.append(
                {
                    "field": f.name,
                    "type": _type_name(hints[f.name]),
                    "value": getattr(self, f.name),
                    "help": meta.get("help", ""),
                    "choices": meta.get("choices"),
                    "minimum": meta.get("minimum"),
                    "maximum": meta.get("maximum"),
                }
            )
        return rows


# ---------------------------------------------------------------------------
# Legacy-signature shim


def resolve_spec(
    spec_cls: type[ExperimentSpec],
    spec: Any = None,
    fast: bool | None = None,
    seed: Any = None,
) -> ExperimentSpec:
    """Map every supported ``run(...)`` calling convention onto a spec.

    Accepted shapes (all fingerprint-identical to the matching preset):

    - ``run(spec)`` — an :class:`ExperimentSpec` instance, passed through;
    - ``run({...})`` — a :meth:`to_dict` payload, deserialized;
    - ``run(3)`` / ``run(3, True)`` — legacy positional ``(seed, fast)``;
    - ``run(seed=3, fast=False)`` — legacy keywords;
    - ``run(seed=spec)`` — a spec arriving through a legacy-signature
      wrapper that forwards ``seed=``/``fast=`` blindly (test harnesses
      do this); the spec wins over the accompanying ``fast``.
    """
    if isinstance(seed, ExperimentSpec):
        spec, seed = seed, None
    if isinstance(spec, ExperimentSpec):
        if not isinstance(spec, spec_cls):
            raise SpecError(
                f"expected a {spec_cls.__name__}, got {type(spec).__name__} "
                f"(experiment {spec.EXPERIMENT_ID or '?'})"
            )
        return spec
    if isinstance(spec, dict):
        return spec_cls.from_dict(spec)
    if spec is not None and not isinstance(spec, bool) and isinstance(spec, int):
        # Legacy positional: run(seed[, fast]).
        if seed is not None:
            raise SpecError(
                f"{spec_cls.__name__}: seed given both positionally "
                f"({spec}) and by keyword ({seed})"
            )
        seed = spec
    elif spec is not None:
        raise SpecError(
            f"{spec_cls.__name__}: cannot interpret first argument {spec!r} "
            f"as a spec or a seed"
        )
    preset = "fast" if fast is None or fast else "full"
    return spec_cls.preset(preset, seed=int(seed or 0))


# ---------------------------------------------------------------------------
# Override parsing (CLI --set / --grid values)


def _flat_field_names(spec_cls: type, prefix: str = "") -> list[str]:
    """Dotted field paths, nested blocks expanded (``corpus.start_year``)."""
    names: list[str] = []
    hints = spec_cls._hints()
    for f in fields(spec_cls):
        hint = hints[f.name]
        if isinstance(hint, type) and issubclass(hint, _SpecBase):
            names.extend(_flat_field_names(hint, prefix=f"{prefix}{f.name}."))
        else:
            names.append(f"{prefix}{f.name}")
    return names


def _coerce_value(spec_cls: type, f: dataclasses.Field, hint: Any, raw: str) -> Any:
    """Parse the string ``raw`` into the field's declared type."""

    def fail(expected: str) -> SpecError:
        return SpecError(
            f"{spec_cls.__name__}.{f.name} expects {expected}, got {raw!r}"
        )

    if hint is tuple or getattr(hint, "__origin__", None) is tuple:
        args = getattr(hint, "__args__", ())
        elem = next((a for a in args if a is not Ellipsis), str)
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        if not parts:
            raise fail("a comma-separated list")
        return tuple(_coerce_scalar(spec_cls, f, elem, p) for p in parts)
    return _coerce_scalar(spec_cls, f, hint, raw)


def _coerce_scalar(spec_cls: type, f: dataclasses.Field, hint: Any, raw: str) -> Any:
    name = f"{spec_cls.__name__}.{f.name}"
    if hint is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise SpecError(f"{name} expects a bool (true/false), got {raw!r}")
    if hint is int:
        try:
            return int(raw)
        except ValueError:
            raise SpecError(f"{name} expects an int, got {raw!r}") from None
    if hint is float:
        try:
            return float(raw)
        except ValueError:
            raise SpecError(f"{name} expects a float, got {raw!r}") from None
    return raw


def parse_override(spec_cls: type[ExperimentSpec], assignment: str) -> tuple[str, Any]:
    """Parse one ``key=value`` assignment against ``spec_cls``.

    Returns ``(dotted_key, parsed_value)``.  Raises :class:`SpecError`
    with a one-line message naming the spec class and its valid fields
    on unknown keys or unparsable values.
    """
    if "=" not in assignment:
        raise SpecError(
            f"override {assignment!r} is not of the form key=value "
            f"(valid {spec_cls.__name__} fields: "
            f"{', '.join(_flat_field_names(spec_cls))})"
        )
    key, raw = assignment.split("=", 1)
    key = key.strip()
    path = key.split(".")
    cls: type = spec_cls
    hints = cls._hints()
    field_map = {f.name: f for f in fields(cls)}
    for depth, part in enumerate(path):
        if part not in field_map:
            raise SpecError(
                f"{spec_cls.__name__} has no field {key!r}; valid fields: "
                f"{', '.join(_flat_field_names(spec_cls))}"
            )
        f = field_map[part]
        hint = hints[part]
        last = depth == len(path) - 1
        if isinstance(hint, type) and issubclass(hint, _SpecBase):
            if last:
                raise SpecError(
                    f"{spec_cls.__name__}.{key} is a parameter block; set a "
                    f"sub-field instead (e.g. "
                    f"{key}.{fields(hint)[0].name}=...)"
                )
            cls, hints = hint, hint._hints()
            field_map = {nf.name: nf for nf in fields(hint)}
            continue
        if not last:
            raise SpecError(
                f"{spec_cls.__name__} has no field {key!r}; valid fields: "
                f"{', '.join(_flat_field_names(spec_cls))}"
            )
        return key, _coerce_value(cls, f, hint, raw)
    raise SpecError(f"{spec_cls.__name__}: empty override key in {assignment!r}")


def apply_overrides(spec: ExperimentSpec, overrides: dict[str, Any]) -> ExperimentSpec:
    """Apply dotted-path overrides to ``spec``, re-validating.

    Values may be pre-parsed (from :func:`parse_override`) or raw
    strings, which are coerced against the field type here.
    """
    nested: dict[str, dict[str, Any]] = {}
    flat: dict[str, Any] = {}
    for key, value in overrides.items():
        if "." in key:
            head, rest = key.split(".", 1)
            nested.setdefault(head, {})[rest] = value
        else:
            flat[key] = value
    hints = type(spec)._hints()
    field_map = {f.name: f for f in fields(spec)}
    changes: dict[str, Any] = {}
    for key, value in flat.items():
        if key not in field_map:
            raise SpecError(
                f"{type(spec).__name__} has no field {key!r}; valid fields: "
                f"{', '.join(_flat_field_names(type(spec)))}"
            )
        if isinstance(value, str):
            value = _coerce_value(type(spec), field_map[key], hints[key], value)
        elif isinstance(value, list):
            value = tuple(value)
        changes[key] = value
    for head, sub in nested.items():
        if head not in field_map or not (
            isinstance(hints[head], type) and issubclass(hints[head], _SpecBase)
        ):
            dotted = f"{head}.{next(iter(sub))}"
            raise SpecError(
                f"{type(spec).__name__} has no field {dotted!r}; valid fields: "
                f"{', '.join(_flat_field_names(type(spec)))}"
            )
        block = getattr(spec, head)
        changes[head] = apply_overrides_block(block, sub)
    new_spec = spec.replace(**changes)
    origin = spec.origin_preset
    if origin is not None:
        object.__setattr__(new_spec, "_origin_preset", origin)
    return new_spec


def apply_overrides_block(block: _SpecBase, overrides: dict[str, Any]) -> _SpecBase:
    """Apply overrides to a nested parameter block."""
    hints = type(block)._hints()
    field_map = {f.name: f for f in fields(block)}
    changes: dict[str, Any] = {}
    for key, value in overrides.items():
        if key not in field_map:
            raise SpecError(
                f"{type(block).__name__} has no field {key!r}; valid fields: "
                f"{', '.join(sorted(field_map))}"
            )
        if isinstance(value, str):
            value = _coerce_value(type(block), field_map[key], hints[key], value)
        changes[key] = value
    return block.replace(**changes)


def parse_set_overrides(
    spec_cls: type[ExperimentSpec], assignments: list[str]
) -> dict[str, Any]:
    """Parse a list of ``key=value`` strings into an override dict."""
    overrides: dict[str, Any] = {}
    for assignment in assignments:
        key, value = parse_override(spec_cls, assignment)
        overrides[key] = value
    return overrides
