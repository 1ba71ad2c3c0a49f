"""Line-oriented experiment configuration: parsing, validation, serialization.

The format is INI-like: ``[section]`` headers group ``key = value`` lines,
``#`` starts a comment, values are scalars or comma-separated lists.  Parsing
is total: every defect in the text is collected and reported in one
:class:`ConfigError` rather than stopping at the first.  Serialization prints
floats with 17 significant digits so that parse -> serialize -> parse is the
identity.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

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
        return coef * math.pi / div
    return float(text)


def tokenize_kv(text: str) -> tuple[dict[str, dict[str, str]], list[str]]:
    """Split config text into {section: {key: raw value}}, collecting defects."""
    sections: dict[str, dict[str, str]] = {}
    errors: list[str] = []
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
        key, value = (part.strip() for part in line.split("=", 1))
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
    observable_file: str | None = None
    sweep: tuple[int, ...] | None = None
    ldp_grid: tuple[float, ...] | None = None
    perturbation: tuple[tuple[int, str], ...] | None = None
    verify_instances: int = 50
    verify_f_file: str | None = None

    @property
    def params(self) -> dict[str, object]:
        return dict(self.parameters)

    def sha256(self) -> str:
        return hashlib.sha256(serialize_config(self).encode("utf-8")).hexdigest()


_KNOWN_KEYS = {
    "model": {"name", "seed", "measurement_time"},
    "state": {"amplitudes"},
    "observable": {"file"},
    "sweep": {"N"},
    "ldp": {"grid"},
    "verify": {"instances", "f_file"},
}
_PARAM_KEYS = {
    "coleman_hepp": {"N", "m0", "theta", "energies", "t"},
    "generic_dense": {"k_file", "v_files", "omega_file", "cells", "energies", "t", "labels"},
}
_REQUIRED_PARAMS = {
    "coleman_hepp": {"N", "m0"},
    "generic_dense": {"k_file", "v_files", "omega_file", "cells", "energies"},
}


def _parse_list(raw: str, conv, what: str, errors: list[str]):
    items = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            items.append(conv(tok))
        except (ValueError, TypeError):
            errors.append(f"{what}: cannot parse {tok!r}")
            return None
    return items


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config, reporting every defect at once."""
    sections, errors = tokenize_kv(text)

    model_sec = sections.get("model", {})
    model = model_sec.get("name")
    if "model" not in sections:
        errors.append("missing required section [model]")
    elif model is None:
        errors.append("[model]: missing required key 'name'")
    elif model not in MODELS:
        errors.append(f"[model]: unknown model {model!r}; expected one of {', '.join(MODELS)}")
        model = None

    seed = 0
    if "seed" in model_sec:
        try:
            seed = int(model_sec["seed"])
        except ValueError:
            errors.append(f"[model]: seed must be an integer, got {model_sec['seed']!r}")
    measurement_time = 1.0
    if "measurement_time" in model_sec:
        try:
            measurement_time = float(model_sec["measurement_time"])
        except ValueError:
            errors.append("[model]: measurement_time must be a number")
        else:
            if not (0.0 <= measurement_time <= 1.0):
                errors.append(
                    f"[model]: measurement_time (traversal fraction) must lie in [0, 1], "
                    f"got {measurement_time!r}")

    # unknown sections and keys are hard errors: nothing is silently ignored
    allowed_sections = set(_KNOWN_KEYS) | {"parameters", "perturbation"}
    for name, body in sections.items():
        if name not in allowed_sections:
            errors.append(f"unknown section [{name}]")
            continue
        if name == "parameters":
            if model is not None:
                for key in body:
                    if key not in _PARAM_KEYS[model]:
                        errors.append(f"[parameters]: unknown key {key!r} for model {model}")
        elif name == "perturbation":
            for key in body:
                if not re.fullmatch(r"site_\d+", key):
                    errors.append(f"[perturbation]: unknown key {key!r}; expected site_<index>")
        else:
            for key in body:
                if key not in _KNOWN_KEYS[name]:
                    errors.append(f"[{name}]: unknown key {key!r}")

    params: dict[str, object] = {}
    body = sections.get("parameters", {})
    if model == "coleman_hepp":
        for key in sorted(_REQUIRED_PARAMS[model]):
            if key not in body:
                errors.append(f"[parameters]: missing required key {key!r}")
        if "N" in body:
            try:
                params["N"] = int(body["N"])
                if params["N"] < 1:
                    errors.append("[parameters]: N must be at least 1")
            except ValueError:
                errors.append(f"[parameters]: N must be an integer, got {body['N']!r}")
        if "m0" in body:
            try:
                params["m0"] = float(body["m0"])
                if not (0.0 < params["m0"] <= 1.0):
                    errors.append("[parameters]: m0 must lie in (0, 1]")
            except ValueError:
                errors.append(f"[parameters]: m0 must be a number, got {body['m0']!r}")
        if "theta" in body:
            try:
                params["theta"] = parse_angle(body["theta"])
                if not (0.0 < params["theta"] < 2.0 * math.pi):
                    errors.append(f"[parameters]: theta must lie in (0, 2*pi), got {body['theta']!r}")
            except ValueError:
                errors.append(f"[parameters]: theta must be a number or a pi form, got {body['theta']!r}")
    elif model == "generic_dense":
        for key in sorted(_REQUIRED_PARAMS[model]):
            if key not in body:
                errors.append(f"[parameters]: missing required key {key!r}")
        for key in ("k_file", "omega_file", "cells", "labels"):
            if key in body:
                params[key] = body[key]
        if "v_files" in body:
            params["v_files"] = tuple(tok.strip() for tok in body["v_files"].split(",") if tok.strip())
    if model is not None and "energies" in body:
        vals = _parse_list(body["energies"], float, "[parameters] energies", errors)
        if vals is not None:
            if not all(math.isfinite(e) for e in vals):
                errors.append("[parameters]: energies must be finite")
            elif model == "coleman_hepp" and len(vals) != 2:
                errors.append("[parameters]: energies needs exactly two values")
            else:
                params["energies"] = tuple(vals)
    if model is not None and "t" in body:
        try:
            params["t"] = float(body["t"])
            if not math.isfinite(params["t"]):
                errors.append("[parameters]: t must be finite")
            elif model == "coleman_hepp" and params["t"] <= 0:
                errors.append("[parameters]: t must be positive")
        except ValueError:
            errors.append(f"[parameters]: t must be a number, got {body['t']!r}")

    amplitudes: tuple[complex, ...] = ()
    if "state" not in sections or "amplitudes" not in sections.get("state", {}):
        errors.append("missing required key 'amplitudes' in section [state]")
    else:
        vals = _parse_list(sections["state"]["amplitudes"], complex, "[state] amplitudes", errors)
        if vals:
            amplitudes = tuple(vals)
            norm = sum(abs(c) ** 2 for c in amplitudes)
            if abs(norm - 1.0) > 1e-9:
                errors.append(
                    f"[state] amplitudes are not normalised: sum |c|^2 = {fmt_float(norm)}")
            if model == "coleman_hepp" and len(amplitudes) != 2:
                errors.append("[state] amplitudes: coleman_hepp needs exactly two")
        elif vals is not None:
            errors.append("[state] amplitudes: empty list")

    observable_file = sections.get("observable", {}).get("file")

    sweep = None
    if "sweep" in sections:
        if model == "generic_dense":
            errors.append("[sweep]: chain-size sweeps require the coleman_hepp model")
        if "N" not in sections["sweep"]:
            errors.append("[sweep]: missing required key 'N'")
        else:
            vals = _parse_list(sections["sweep"]["N"], int, "[sweep] N", errors)
            if vals is not None:
                if not vals:
                    errors.append("[sweep] N: empty list")
                elif any(b <= a for a, b in zip(vals, vals[1:])):
                    errors.append("[sweep] N: values must be strictly increasing")
                elif any(v < 1 for v in vals):
                    errors.append("[sweep] N: values must be positive")
                else:
                    sweep = tuple(vals)

    ldp_grid = None
    if "ldp" in sections:
        if model == "generic_dense":
            errors.append("[ldp]: rate estimation requires the coleman_hepp model")
        if "grid" not in sections["ldp"]:
            errors.append("[ldp]: missing required key 'grid'")
        else:
            vals = _parse_list(sections["ldp"]["grid"], float, "[ldp] grid", errors)
            if vals is not None:
                if not vals:
                    errors.append("[ldp] grid: empty grid")
                else:
                    outside = [m for m in vals if not (-1.0 <= m <= 1.0)]
                    if outside:
                        errors.append(
                            f"[ldp] grid: points outside the spectrum range [-1, 1]: {outside}")
                    else:
                        ldp_grid = tuple(vals)

    perturbation = None
    if "perturbation" in sections:
        edits = []
        for key, value in sections["perturbation"].items():
            m = re.fullmatch(r"site_(\d+)", key)
            if not m:
                continue
            if value not in PERTURBATION_EDITS:
                errors.append(
                    f"[perturbation] {key}: unknown edit {value!r}; "
                    f"expected one of {', '.join(PERTURBATION_EDITS)}")
            else:
                edits.append((int(m.group(1)), value))
        perturbation = tuple(sorted(edits)) if edits else None

    verify_instances = 50
    verify_f_file = None
    if "verify" in sections:
        if "instances" in sections["verify"]:
            try:
                verify_instances = int(sections["verify"]["instances"])
                if verify_instances < 1:
                    errors.append("[verify]: instances must be positive")
            except ValueError:
                errors.append("[verify]: instances must be an integer")
        verify_f_file = sections["verify"].get("f_file")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        model=model,
        seed=seed,
        measurement_time=measurement_time,
        parameters=tuple(sorted(params.items())),
        amplitudes=amplitudes,
        observable_file=observable_file,
        sweep=sweep,
        ldp_grid=ldp_grid,
        perturbation=perturbation,
        verify_instances=verify_instances,
        verify_f_file=verify_f_file,
    )


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, complex):
        return fmt_complex(value)
    if isinstance(value, (tuple, list)):
        return ", ".join(_value_text(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of a config; parse(serialize(cfg)) == cfg."""
    lines = ["[model]",
             f"name = {cfg.model}",
             f"seed = {cfg.seed}",
             f"measurement_time = {fmt_float(cfg.measurement_time)}",
             "",
             "[parameters]"]
    for key, value in cfg.parameters:
        lines.append(f"{key} = {_value_text(value)}")
    lines += ["", "[state]",
              f"amplitudes = {', '.join(fmt_complex(c) for c in cfg.amplitudes)}"]
    if cfg.observable_file is not None:
        lines += ["", "[observable]", f"file = {cfg.observable_file}"]
    if cfg.sweep is not None:
        lines += ["", "[sweep]", f"N = {', '.join(str(n) for n in cfg.sweep)}"]
    if cfg.ldp_grid is not None:
        lines += ["", "[ldp]", f"grid = {', '.join(fmt_float(m) for m in cfg.ldp_grid)}"]
    if cfg.perturbation is not None:
        lines += ["", "[perturbation]"]
        lines += [f"site_{site} = {edit}" for site, edit in cfg.perturbation]
    if cfg.verify_instances != 50 or cfg.verify_f_file is not None:
        lines += ["", "[verify]", f"instances = {cfg.verify_instances}"]
        if cfg.verify_f_file is not None:
            lines.append(f"f_file = {cfg.verify_f_file}")
    return "\n".join(lines) + "\n"
