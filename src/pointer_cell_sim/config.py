"""Line-oriented experiment configuration: parsing, validation, serialization.

The format is INI-like: ``[section]`` headers group ``key = value`` lines,
``#`` starts a comment, values are scalars or comma-separated lists.  Each key
is one entry of ``_FIELDS``, which parsing, validation and serialization all
read.  Parsing is total: every defect in the text is collected and reported in
one :class:`ConfigError` rather than stopping at the first.  Serialization
prints floats with 17 significant digits so that parse -> serialize -> parse is
the identity.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

MODELS = ("coleman_hepp", "generic_dense")
PERTURBATION_EDITS = ("flip", "depolarize", "up", "down")

_PI_FORM = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+(\.\d*)?|\.\d+)?\s*\*?\s*pi\s*"
    r"(/\s*(?P<div>\d+(\.\d*)?|\.\d+))?$",
    re.IGNORECASE,
)


def fmt_float(x: float) -> str:
    """17-significant-digit rendering; round-trips through float() exactly."""
    if x != x:
        return "nan"
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}j"


def parse_angle(text: str) -> float:
    """Parse a float, optionally in multiples of pi ('pi', '3*pi/4', 'pi/2')."""
    m = _PI_FORM.match(text.strip())
    if m:
        coef = float(m.group("coef")) if m.group("coef") else 1.0
        if m.group("sign") == "-":
            coef = -coef
        div = float(m.group("div")) if m.group("div") else 1.0
        if div == 0.0:
            raise ValueError(f"zero divisor in {text!r}")
        return coef * math.pi / div
    return float(text)


def tokenize_kv(text: str) -> tuple[dict[str, dict[str, str]], list[str]]:
    """Split config text into {section: {key: raw value}}, collecting defects."""
    sections: dict[str, dict[str, str]] = {}
    errors: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                errors.append(f"line {lineno}: empty section name")
                current = None
            elif current in sections:
                errors.append(f"line {lineno}: duplicate section [{current}]")
            else:
                sections[current] = {}
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            errors.append(f"line {lineno}: empty key")
        elif key in sections[current]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
        else:
            sections[current][key] = value
    return sections, errors


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the README for the file format."""

    model: str
    seed: int
    measurement_time: float
    parameters: tuple[tuple[str, object], ...]
    amplitudes: tuple[complex, ...]
    observable_file: str | None
    sweep: tuple[int, ...] | None
    ldp_grid: tuple[float, ...] | None
    perturbation: tuple[tuple[int, str], ...] | None
    verify_instances: int
    verify_f_file: str | None

    @property
    def params(self) -> dict[str, object]:
        return dict(self.parameters)

    def sha256(self) -> str:
        return hashlib.sha256(serialize_config(self).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class _Field:
    """One config key: where it is written, what it fills, how its text is read and checked."""

    section: str
    key: str
    attr: str | None  # the ExperimentConfig field it fills; None for a [parameters] entry
    conv: Callable = str  # reads the text, or each comma-separated token of a list
    bad: str = ""  # the message for a text conv refuses; {raw} is that text
    checks: tuple = ()  # (test(value, model), message); the first test that fails is reported
    default: object = None
    models: tuple[str, ...] = MODELS  # the models that take it
    required: tuple[str, ...] = ()  # the models that require it
    listed: bool = False  # a comma-separated list, read into a tuple
    missing: str = ""  # the message for a missing required key, if not "[section]: missing ..."


def _model_name(text: str) -> str:
    if text not in MODELS:
        raise ValueError(text)
    return text


def _norm(amplitudes) -> float:
    return sum(abs(c) ** 2 for c in amplitudes)


def _outside(grid) -> list[float]:
    return [m for m in grid if not (-1.0 <= m <= 1.0)]


_CHAIN, _DENSE = MODELS[:1], MODELS[1:]
_FIELDS = (
    _Field("model", "name", "model", _model_name,
           "[model]: unknown model {raw!r}; expected one of " + ", ".join(MODELS), required=MODELS),
    _Field("model", "seed", "seed", int, "[model]: seed must be an integer, got {raw!r}",
           ((lambda v, m: v >= 0, "[model]: seed must be a non-negative integer, got {value!r}"),), default=0),
    _Field("model", "measurement_time", "measurement_time", float,
           "[model]: measurement_time must be a number",
           ((lambda v, m: 0.0 <= v <= 1.0,
             "[model]: measurement_time (traversal fraction) must lie in [0, 1], got {value!r}"),),
           default=1.0),
    # [parameters] in the order their errors are collected; a model's required keys sort by name
    _Field("parameters", "N", None, int, "[parameters]: N must be an integer, got {raw!r}",
           ((lambda v, m: v >= 1, "[parameters]: N must be at least 1"),),
           models=_CHAIN, required=_CHAIN),
    _Field("parameters", "m0", None, float, "[parameters]: m0 must be a number, got {raw!r}",
           ((lambda v, m: 0.0 < v <= 1.0, "[parameters]: m0 must lie in (0, 1]"),),
           models=_CHAIN, required=_CHAIN),
    _Field("parameters", "theta", None, parse_angle,
           "[parameters]: theta must be a number or a pi form, got {raw!r}",
           ((lambda v, m: 0.0 < v < 2.0 * math.pi,
             "[parameters]: theta must lie in (0, 2*pi), got {raw!r}"),),
           models=_CHAIN),
    _Field("parameters", "cells", None, models=_DENSE, required=_DENSE),
    _Field("parameters", "energies", None, float, "[parameters] energies: cannot parse {raw!r}",
           ((lambda v, m: all(map(math.isfinite, v)), "[parameters]: energies must be finite"),
            (lambda v, m: m != "coleman_hepp" or len(v) == 2,
             "[parameters]: energies needs exactly two values")),
           required=_DENSE, listed=True),
    _Field("parameters", "k_file", None, models=_DENSE, required=_DENSE),
    _Field("parameters", "omega_file", None, models=_DENSE, required=_DENSE),
    _Field("parameters", "v_files", None, models=_DENSE, required=_DENSE, listed=True),
    _Field("parameters", "labels", None, models=_DENSE),
    _Field("parameters", "t", None, float, "[parameters]: t must be a number, got {raw!r}",
           ((lambda v, m: math.isfinite(v), "[parameters]: t must be finite"),
            (lambda v, m: m != "coleman_hepp" or v > 0.0, "[parameters]: t must be positive"))),
    _Field("state", "amplitudes", "amplitudes", complex, "[state] amplitudes: cannot parse {raw!r}",
           ((lambda v, m: len(v) > 0, "[state] amplitudes: empty list"),
            (lambda v, m: abs(_norm(v) - 1.0) <= 1e-9,
             lambda v: f"[state] amplitudes are not normalised: sum |c|^2 = {fmt_float(_norm(v))}")),
           default=(), required=MODELS, listed=True,
           missing="missing required key 'amplitudes' in section [state]"),
    _Field("observable", "file", "observable_file", required=MODELS),
    _Field("sweep", "N", "sweep", int, "[sweep] N: cannot parse {raw!r}",
           ((lambda v, m: len(v) > 0, "[sweep] N: empty list"),
            (lambda v, m: all(a < b for a, b in zip(v, v[1:])),
             "[sweep] N: values must be strictly increasing"),
            (lambda v, m: all(n >= 1 for n in v), "[sweep] N: values must be positive")),
           models=_CHAIN, required=MODELS, listed=True),
    _Field("ldp", "grid", "ldp_grid", float, "[ldp] grid: cannot parse {raw!r}",
           ((lambda v, m: len(v) > 0, "[ldp] grid: empty grid"),
            (lambda v, m: not _outside(v),
             lambda v: f"[ldp] grid: points outside the spectrum range [-1, 1]: {_outside(v)}")),
           models=_CHAIN, required=MODELS, listed=True),
    _Field("verify", "instances", "verify_instances", int, "[verify]: instances must be an integer",
           ((lambda v, m: v >= 1, "[verify]: instances must be positive"),), default=50),
    _Field("verify", "f_file", "verify_f_file"),
)
_SECTIONS = ("model", "parameters", "state", "observable", "sweep", "ldp", "perturbation", "verify")
_ALWAYS = ("model", "parameters", "state")  # written whatever they hold
_DEFAULTS = {"perturbation": None, **{f.attr: f.default for f in _FIELDS if f.attr}}
#: the error for a model that does not take a section's field
_WRONG_MODEL = {"sweep": "[sweep]: chain-size sweeps require the coleman_hepp model",
                "ldp": "[ldp]: rate estimation requires the coleman_hepp model"}
_SITE = re.compile(r"site_(\d+)")


def _section_plan(section: str, model: str | None):
    """The fields of a section that a model reads, by key; those it requires; and the error for a
    model that does not take the section, which is still read.  [parameters] holds the model's own
    keys, and a field that every model requires is required before the model is known."""
    fields = {f.key: f for f in _FIELDS if f.section == section and (f.attr or model in f.models)}
    required = tuple(f for f in fields.values() if f.required == MODELS or model in f.required)
    wrong = model is not None and any(model not in f.models for f in fields.values())
    return fields, required, _WRONG_MODEL[section] if wrong else None


_PLANS = {(section, model): _section_plan(section, model)
          for section in _SECTIONS for model in (None, *MODELS)}


def _convert(f: _Field, raw: str, model: str | None, errors: list[str]):
    """The value of a field's text, or None if it does not read; the first failed check is an error."""
    value = []
    for tok in [t for t in map(str.strip, raw.split(",")) if t] if f.listed else (raw,):
        try:
            value.append(f.conv(tok))
        except (ValueError, TypeError):
            errors.append(f.bad.format(raw=tok))
            return None
    value = tuple(value) if f.listed else value[0]
    for test, message in f.checks:
        if not test(value, model):
            errors.append(message(value) if callable(message) else message.format(raw=raw, value=value))
            break
    return value


def _unknown_keys(sections: dict[str, dict[str, str]], model: str | None) -> list[str]:
    """Every unknown section and key in file order: nothing is silently ignored."""
    errors = []
    for name, body in sections.items():
        if name not in _SECTIONS:
            errors.append(f"unknown section [{name}]")
        elif name == "perturbation":
            errors += [f"[perturbation]: unknown key {key!r}; expected site_<index>"
                       for key in body if not _SITE.fullmatch(key)]
        elif name != "parameters" or model is not None:
            known = _PLANS[name, model][0]
            suffix = f" for model {model}" if name == "parameters" else ""
            errors += [f"[{name}]: unknown key {key!r}{suffix}" for key in body if key not in known]
    return errors


def _perturbation(body: dict[str, str], errors: list[str]) -> tuple[tuple[int, str], ...] | None:
    """The ``site_<i> = edit`` lines as sorted (site, edit) pairs; a site is named once."""
    edits, named = [], {}
    for key, edit in body.items():
        m = _SITE.fullmatch(key)
        if not m:
            continue
        site = int(m.group(1))
        if site in named:
            errors.append(f"[perturbation]: site {site} is named twice, as {named[site]!r} and {key!r}")
        named.setdefault(site, key)
        if edit not in PERTURBATION_EDITS:
            errors.append(f"[perturbation] {key}: unknown edit {edit!r}; "
                          f"expected one of {', '.join(PERTURBATION_EDITS)}")
        else:
            edits.append((site, edit))
    return tuple(sorted(edits)) or None


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config, reporting every defect at once: [model] first, then every
    unknown section and key, then each other section in turn."""
    sections, errors = tokenize_kv(text)
    found = dict(_DEFAULTS)
    params: dict[str, object] = {}
    if "model" not in sections:
        errors.append("missing required section [model]")
    for name in _SECTIONS:
        model = found["model"]
        if name == "parameters":
            errors += _unknown_keys(sections, model)
        if name not in sections and name not in ("parameters", "state"):
            continue  # an absent [parameters] or [state] is read as empty: its missing keys are named
        body = sections.get(name) or {}
        if name == "perturbation":
            found[name] = _perturbation(body, errors)
            continue
        fields, required, wrong_model = _PLANS[name, model]
        if wrong_model:
            errors.append(wrong_model)
        errors += [f.missing or f"[{name}]: missing required key {f.key!r}"
                   for f in required if f.key not in body]
        for f in fields.values():
            value = _convert(f, body[f.key], model, errors) if f.key in body else None
            if value is not None:
                (found if f.attr else params)[f.attr or f.key] = value
        if name == "state" and model == "coleman_hepp" and len(found["amplitudes"]) not in (0, 2):
            errors.append("[state] amplitudes: coleman_hepp needs exactly two")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(parameters=tuple(sorted(params.items())), **found)


def _value_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(_value_text, value))
    return {float: fmt_float, complex: fmt_complex}.get(type(value), str)(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of a config; parse(serialize(cfg)) == cfg.  A section other than
    [model], [parameters] and [state] is written only when a field differs from its default."""
    blocks = []
    for name in _SECTIONS:
        if name == "parameters":
            items = cfg.parameters
        elif name == "perturbation":
            items = [(f"site_{site}", edit) for site, edit in cfg.perturbation or ()]
        else:
            fields = _PLANS[name, None][0].values()
            values = [(f.key, getattr(cfg, f.attr), f.default) for f in fields]
            if name not in _ALWAYS and all(value == default for _, value, default in values):
                continue
            items = [(key, value) for key, value, _ in values if value is not None]
        if items or name in _ALWAYS:
            blocks.append("\n".join([f"[{name}]", *(f"{k} = {_value_text(v)}" for k, v in items)]))
    return "\n\n".join(blocks) + "\n"
