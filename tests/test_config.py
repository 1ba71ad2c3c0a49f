import hashlib
import math
from pathlib import Path

import pytest

from pointer_cell_sim import config
from pointer_cell_sim.config import (
    MODELS,
    fmt_float,
    parse_angle,
    parse_config,
    serialize_config,
    tokenize_kv,
)
from pointer_cell_sim.errors import ConfigError

CHAIN = {"model": {"name": "coleman_hepp"},
         "parameters": {"N": "4", "m0": "0.6"},
         "state": {"amplitudes": "0.6, 0.8"}}
DENSE = {"model": {"name": "generic_dense"},
         "parameters": {"k_file": "K.txt", "v_files": "V0.txt, V1.txt", "omega_file": "omega.txt",
                        "cells": "0 | 1", "energies": "0.5, -0.5"},
         "state": {"amplitudes": "0.6, 0.8"}}


def config_text(base, edits):
    """``base`` ({section: {key: value}}) as config text after ``edits``: ``"section.key": value``
    sets a key, ``"section.key": None`` drops it, ``"section": None`` drops the section and
    ``"section": True`` adds it empty."""
    sections = {name: dict(body) for name, body in base.items()}
    for where, value in edits.items():
        name, _, key = where.partition(".")
        if not key:
            sections.pop(name, None) if value is None else sections.setdefault(name, {})
        elif value is None:
            sections.get(name, {}).pop(key, None)
        else:
            sections.setdefault(name, {})[key] = value
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections.items())


#: (base, edits, the full error list, or None for a valid config): an invalid value of every key
#: that can hold one, every missing required key of both models, unknown sections and keys, the
#: coleman_hepp-only sections and many errors at once, each list in the order it is collected
PINNED_ERRORS = [
    (CHAIN, {"model.name": None}, ["[model]: missing required key 'name'"]),
    (CHAIN, {"model": None}, ["missing required section [model]"]),
    (CHAIN, {"model.name": "ising"},
     ["[model]: unknown model 'ising'; expected one of coleman_hepp, generic_dense"]),
    (CHAIN, {"model.name": "ising", "parameters.flux": "3"},
     ["[model]: unknown model 'ising'; expected one of coleman_hepp, generic_dense"]),
    (CHAIN, {"model.seed": "x"}, ["[model]: seed must be an integer, got 'x'"]),
    (CHAIN, {"model.seed": "1.5"}, ["[model]: seed must be an integer, got '1.5'"]),
    (CHAIN, {"model.seed": "-3"}, ["[model]: seed must be a non-negative integer, got -3"]),
    (CHAIN, {"model.measurement_time": "x"}, ["[model]: measurement_time must be a number"]),
    (CHAIN, {"model.measurement_time": "1.50"},
     ["[model]: measurement_time (traversal fraction) must lie in [0, 1], got 1.5"]),
    (CHAIN, {"model.measurement_time": "-0.1"},
     ["[model]: measurement_time (traversal fraction) must lie in [0, 1], got -0.1"]),
    (CHAIN, {"model.measurement_time": "nan"},
     ["[model]: measurement_time (traversal fraction) must lie in [0, 1], got nan"]),
    (CHAIN, {"model.colour": "red"}, ["[model]: unknown key 'colour'"]),
    (CHAIN, {"parameters.N": "x"}, ["[parameters]: N must be an integer, got 'x'"]),
    (CHAIN, {"parameters.N": "2.5"}, ["[parameters]: N must be an integer, got '2.5'"]),
    (CHAIN, {"parameters.N": "0"}, ["[parameters]: N must be at least 1"]),
    (CHAIN, {"parameters.m0": "x"}, ["[parameters]: m0 must be a number, got 'x'"]),
    (CHAIN, {"parameters.m0": "0"}, ["[parameters]: m0 must lie in (0, 1]"]),
    (CHAIN, {"parameters.m0": "1.5"}, ["[parameters]: m0 must lie in (0, 1]"]),
    (CHAIN, {"parameters.m0": "nan"}, ["[parameters]: m0 must lie in (0, 1]"]),
    (CHAIN, {"parameters.theta": "x"}, ["[parameters]: theta must be a number or a pi form, got 'x'"]),
    (CHAIN, {"parameters.theta": "0"}, ["[parameters]: theta must lie in (0, 2*pi), got '0'"]),
    (CHAIN, {"parameters.theta": "2*pi"}, ["[parameters]: theta must lie in (0, 2*pi), got '2*pi'"]),
    (CHAIN, {"parameters.theta": "-pi/2"}, ["[parameters]: theta must lie in (0, 2*pi), got '-pi/2'"]),
    (CHAIN, {"parameters.theta": "nan"}, ["[parameters]: theta must lie in (0, 2*pi), got 'nan'"]),
    (CHAIN, {"parameters.energies": "a, 1"}, ["[parameters] energies: cannot parse 'a'"]),
    (CHAIN, {"parameters.energies": ""}, ["[parameters]: energies needs exactly two values"]),
    (CHAIN, {"parameters.energies": "1"}, ["[parameters]: energies needs exactly two values"]),
    (CHAIN, {"parameters.energies": "1, 2, 3"}, ["[parameters]: energies needs exactly two values"]),
    (CHAIN, {"parameters.energies": "inf, 0"}, ["[parameters]: energies must be finite"]),
    (CHAIN, {"parameters.energies": "nan"}, ["[parameters]: energies must be finite"]),
    (CHAIN, {"parameters.t": "x"}, ["[parameters]: t must be a number, got 'x'"]),
    (CHAIN, {"parameters.t": "0"}, ["[parameters]: t must be positive"]),
    (CHAIN, {"parameters.t": "-inf"}, ["[parameters]: t must be finite"]),
    (CHAIN, {"parameters.t": "nan"}, ["[parameters]: t must be finite"]),
    (CHAIN, {"parameters.N": None}, ["[parameters]: missing required key 'N'"]),
    (CHAIN, {"parameters.m0": None}, ["[parameters]: missing required key 'm0'"]),
    (CHAIN, {"parameters": None},
     ["[parameters]: missing required key 'N'",
      "[parameters]: missing required key 'm0'"]),
    (CHAIN, {"parameters.m0": None, "parameters.N": "x"},
     ["[parameters]: missing required key 'm0'",
      "[parameters]: N must be an integer, got 'x'"]),
    (CHAIN, {"parameters.flux": "3"}, ["[parameters]: unknown key 'flux' for model coleman_hepp"]),
    (CHAIN, {"parameters.k_file": "K.txt"},
     ["[parameters]: unknown key 'k_file' for model coleman_hepp"]),
    (DENSE, {"parameters.N": "4"}, ["[parameters]: unknown key 'N' for model generic_dense"]),
    (DENSE, {"parameters.energies": "x"}, ["[parameters] energies: cannot parse 'x'"]),
    (DENSE, {"parameters.energies": "0.5, inf"}, ["[parameters]: energies must be finite"]),
    (DENSE, {"parameters.t": "x"}, ["[parameters]: t must be a number, got 'x'"]),
    (DENSE, {"parameters.t": "inf"}, ["[parameters]: t must be finite"]),
    (DENSE, {"parameters.k_file": None}, ["[parameters]: missing required key 'k_file'"]),
    (DENSE, {"parameters.v_files": None}, ["[parameters]: missing required key 'v_files'"]),
    (DENSE, {"parameters.omega_file": None}, ["[parameters]: missing required key 'omega_file'"]),
    (DENSE, {"parameters.cells": None}, ["[parameters]: missing required key 'cells'"]),
    (DENSE, {"parameters.energies": None}, ["[parameters]: missing required key 'energies'"]),
    (DENSE, {"parameters": None},
     ["[parameters]: missing required key 'cells'",
      "[parameters]: missing required key 'energies'",
      "[parameters]: missing required key 'k_file'",
      "[parameters]: missing required key 'omega_file'",
      "[parameters]: missing required key 'v_files'"]),
    (CHAIN, {"state.amplitudes": "x"}, ["[state] amplitudes: cannot parse 'x'"]),
    (CHAIN, {"state.amplitudes": "0.6, x"}, ["[state] amplitudes: cannot parse 'x'"]),
    (CHAIN, {"state.amplitudes": ""}, ["[state] amplitudes: empty list"]),
    (CHAIN, {"state.amplitudes": ", ,"}, ["[state] amplitudes: empty list"]),
    (CHAIN, {"state.amplitudes": "1, 1"}, ["[state] amplitudes are not normalised: sum |c|^2 = 2"]),
    (CHAIN, {"state.amplitudes": "1"}, ["[state] amplitudes: coleman_hepp needs exactly two"]),
    (CHAIN, {"state.amplitudes": "0.6, 0.8, 0"},
     ["[state] amplitudes: coleman_hepp needs exactly two"]),
    (CHAIN, {"state.amplitudes": "1, 1, 1"},
     ["[state] amplitudes are not normalised: sum |c|^2 = 3",
      "[state] amplitudes: coleman_hepp needs exactly two"]),
    (CHAIN, {"state.amplitudes": None}, ["missing required key 'amplitudes' in section [state]"]),
    (CHAIN, {"state": None}, ["missing required key 'amplitudes' in section [state]"]),
    (CHAIN, {"state.phase": "0"}, ["[state]: unknown key 'phase'"]),
    (DENSE, {"state.amplitudes": "1"}, None),
    (DENSE, {"state.amplitudes": "1, 1, 1"}, ["[state] amplitudes are not normalised: sum |c|^2 = 3"]),
    (CHAIN, {"observable.file": "sz.txt", "observable.path": "sz.txt"},
     ["[observable]: unknown key 'path'"]),
    (CHAIN, {"sweep.N": "x"}, ["[sweep] N: cannot parse 'x'"]),
    (CHAIN, {"sweep.N": ""}, ["[sweep] N: empty list"]),
    (CHAIN, {"sweep.N": "100, 50"}, ["[sweep] N: values must be strictly increasing"]),
    (CHAIN, {"sweep.N": "50, 50"}, ["[sweep] N: values must be strictly increasing"]),
    (CHAIN, {"sweep.N": "0, 5"}, ["[sweep] N: values must be positive"]),
    (CHAIN, {"sweep.N": "5, 0"}, ["[sweep] N: values must be strictly increasing"]),
    (CHAIN, {"sweep.N": "50, 1e3"}, ["[sweep] N: cannot parse '1e3'"]),
    (CHAIN, {"sweep": True}, ["[sweep]: missing required key 'N'"]),
    (CHAIN, {"sweep.N": "50, 100", "sweep.step": "2"}, ["[sweep]: unknown key 'step'"]),
    (DENSE, {"sweep.N": "50, 100"}, ["[sweep]: chain-size sweeps require the coleman_hepp model"]),
    (DENSE, {"sweep.N": "x"},
     ["[sweep]: chain-size sweeps require the coleman_hepp model",
      "[sweep] N: cannot parse 'x'"]),
    (DENSE, {"sweep": True},
     ["[sweep]: chain-size sweeps require the coleman_hepp model",
      "[sweep]: missing required key 'N'"]),
    (CHAIN, {"ldp.grid": "x"}, ["[ldp] grid: cannot parse 'x'"]),
    (CHAIN, {"ldp.grid": ""}, ["[ldp] grid: empty grid"]),
    (CHAIN, {"ldp.grid": "0.0, 1.5"}, ["[ldp] grid: points outside the spectrum range [-1, 1]: [1.5]"]),
    (CHAIN, {"ldp.grid": "-2, nan, 0.5, 3"},
     ["[ldp] grid: points outside the spectrum range [-1, 1]: [-2.0, nan, 3.0]"]),
    (CHAIN, {"ldp": True}, ["[ldp]: missing required key 'grid'"]),
    (CHAIN, {"ldp.grid": "0.5", "ldp.points": "3"}, ["[ldp]: unknown key 'points'"]),
    (DENSE, {"ldp.grid": "0.5"}, ["[ldp]: rate estimation requires the coleman_hepp model"]),
    (DENSE, {"ldp": True},
     ["[ldp]: rate estimation requires the coleman_hepp model",
      "[ldp]: missing required key 'grid'"]),
    (CHAIN, {"perturbation.site_0": "smash"},
     ["[perturbation] site_0: unknown edit 'smash'; expected one of flip, depolarize, up, down"]),
    (CHAIN, {"perturbation.site_0": "flip", "perturbation.site_1": "twist"},
     ["[perturbation] site_1: unknown edit 'twist'; expected one of flip, depolarize, up, down"]),
    (CHAIN, {"perturbation.foo": "flip"}, ["[perturbation]: unknown key 'foo'; expected site_<index>"]),
    (CHAIN, {"perturbation.site_x": "flip"},
     ["[perturbation]: unknown key 'site_x'; expected site_<index>"]),
    (CHAIN, {"verify.instances": "x"}, ["[verify]: instances must be an integer"]),
    (CHAIN, {"verify.instances": "0"}, ["[verify]: instances must be positive"]),
    (CHAIN, {"verify.instances": "-3"}, ["[verify]: instances must be positive"]),
    (CHAIN, {"verify.count": "3"}, ["[verify]: unknown key 'count'"]),
    (CHAIN, {"extra.x": "1"}, ["unknown section [extra]"]),
    (CHAIN, {"extra": True}, ["unknown section [extra]"]),
    (CHAIN, {"model.name": "ising", "state": None, "sweep": True},
     ["[model]: unknown model 'ising'; expected one of coleman_hepp, generic_dense",
      "missing required key 'amplitudes' in section [state]",
      "[sweep]: missing required key 'N'"]),
    (CHAIN, {"model": None, "parameters.flux": "1", "state.amplitudes": "1"},
     ["missing required section [model]"]),
    (CHAIN, {"parameters.N": "-2", "parameters.m0": "3.0", "state.amplitudes": "1, 1"},
     ["[parameters]: N must be at least 1",
      "[parameters]: m0 must lie in (0, 1]",
      "[state] amplitudes are not normalised: sum |c|^2 = 2"]),
    (CHAIN, {"model.seed": "s", "model.measurement_time": "2", "extra.x": "1", "model.colour": "red",
          "parameters.N": "x", "parameters.m0": None, "parameters.theta": "9",
          "parameters.energies": "inf", "parameters.t": "0", "parameters.flux": "1",
          "state.amplitudes": "1, 1, 1", "observable.file": "a", "observable.path": "a",
          "sweep.N": "5, 0", "ldp.grid": "2", "perturbation.site_0": "smash", "perturbation.bar": "up",
          "verify.instances": "0", "verify.count": "1"},
     ["[model]: seed must be an integer, got 's'",
      "[model]: measurement_time (traversal fraction) must lie in [0, 1], got 2.0",
      "[model]: unknown key 'colour'",
      "[parameters]: unknown key 'flux' for model coleman_hepp",
      "unknown section [extra]",
      "[observable]: unknown key 'path'",
      "[perturbation]: unknown key 'bar'; expected site_<index>",
      "[verify]: unknown key 'count'",
      "[parameters]: missing required key 'm0'",
      "[parameters]: N must be an integer, got 'x'",
      "[parameters]: theta must lie in (0, 2*pi), got '9'",
      "[parameters]: energies must be finite",
      "[parameters]: t must be positive",
      "[state] amplitudes are not normalised: sum |c|^2 = 3",
      "[state] amplitudes: coleman_hepp needs exactly two",
      "[sweep] N: values must be strictly increasing",
      "[ldp] grid: points outside the spectrum range [-1, 1]: [2.0]",
      "[perturbation] site_0: unknown edit 'smash'; expected one of flip, depolarize, up, down",
      "[verify]: instances must be positive"]),
    (DENSE, {"model.seed": "s", "parameters.N": "4", "parameters.cells": None, "parameters.t": "x",
          "state.amplitudes": "", "sweep.N": "", "ldp.grid": "x", "verify.instances": "x"},
     ["[model]: seed must be an integer, got 's'",
      "[parameters]: unknown key 'N' for model generic_dense",
      "[parameters]: missing required key 'cells'",
      "[parameters]: t must be a number, got 'x'",
      "[state] amplitudes: empty list",
      "[sweep]: chain-size sweeps require the coleman_hepp model",
      "[sweep] N: empty list",
      "[ldp]: rate estimation requires the coleman_hepp model",
      "[ldp] grid: cannot parse 'x'",
      "[verify]: instances must be an integer"]),
]


@pytest.mark.parametrize("base,edits,errors", PINNED_ERRORS)
def test_pinned_error_lists(base, edits, errors):
    text = config_text(base, edits)
    if errors is None:
        parse_config(text)
        return
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.errors == errors


#: inputs the parser once let through, crashed on or silently dropped, with their full error lists
@pytest.mark.parametrize("base,edits,errors", [
    (CHAIN, {"parameters.theta": "pi/0"},
     ["[parameters]: theta must be a number or a pi form, got 'pi/0'"]),
    (CHAIN, {"state.amplitudes": "nan, 0.8"},
     ["[state] amplitudes are not normalised: sum |c|^2 = nan"]),
    (DENSE, {"state.amplitudes": "0.6, 0.8+nanj"},
     ["[state] amplitudes are not normalised: sum |c|^2 = nan"]),
    (CHAIN, {"perturbation.site_0": "flip", "perturbation.site_00": "up"},
     ["[perturbation]: site 0 is named twice, as 'site_0' and 'site_00'"]),
    (CHAIN, {"perturbation.site_1": "flip", "perturbation.site_01": "smash"},
     ["[perturbation]: site 1 is named twice, as 'site_1' and 'site_01'",
      "[perturbation] site_01: unknown edit 'smash'; expected one of flip, depolarize, up, down"]),
    (DENSE, {"observable": True},
     ["[observable]: missing required key 'file'"]),
    (CHAIN, {"observable.path": "sz.txt"},
     ["[observable]: unknown key 'path'", "[observable]: missing required key 'file'"]),
], ids=["pi-over-zero", "nan-amplitude", "nan-imaginary-part", "site-named-twice",
        "site-named-twice-badly", "observable-empty", "observable-misspelt"])
def test_once_dropped_inputs_are_errors(base, edits, errors):
    with pytest.raises(ConfigError) as exc:
        parse_config(config_text(base, edits))
    assert exc.value.errors == errors


#: a valid value of every field in the table, and of [perturbation]
SAMPLES = {
    "model.seed": "7", "model.measurement_time": "0.5",
    "parameters.N": "12", "parameters.m0": "0.25", "parameters.theta": "3*pi/4",
    "parameters.cells": "0 1 | 2", "parameters.energies": "0.3, -0.4", "parameters.k_file": "K.txt",
    "parameters.omega_file": "omega.txt", "parameters.v_files": "V0.txt,, V1.txt",
    "parameters.labels": "a,b", "parameters.t": "2.5",
    "state.amplitudes": "0.6, 0.8j", "observable.file": "sz.txt", "sweep.N": "50, 100, 200",
    "ldp.grid": "-0.6, 0.6", "verify.instances": "2", "verify.f_file": "dump.txt",
}
PERTURBATION = {"perturbation.site_3": "depolarize", "perturbation.site_0": "flip"}


def table_configs():
    """Every config the table allows with the sample values: each optional key of a model
    present or absent, for both models."""
    for model in MODELS:
        required, optional = {"model.name": model}, []
        for f in config._FIELDS:
            where = f"{f.section}.{f.key}"
            if model not in f.models or where == "model.name":
                continue
            if model in f.required and f.section in ("model", "parameters", "state"):
                required[where] = SAMPLES[where]
            else:
                optional.append({where: SAMPLES[where]})
        optional.append(PERTURBATION)
        for mask in range(2 ** len(optional)):
            edits = dict(required)
            for i, extra in enumerate(optional):
                if mask >> i & 1:
                    edits.update(extra)
            yield config_text({}, edits)


#: sha256 over the config_sha256 of every table config, as the hand-written serializer wrote them
PINNED_TABLE_DIGEST = "92d35fe35bdadfe85003ea4e4adbbb78275c92aaa0ce62c14ecc68d3cc3f88f1"


class TestTableRoundTrip:
    def test_every_optional_key_present_or_absent(self):
        digest = hashlib.sha256()
        count = 0
        for text in table_configs():
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg, text
            assert serialize_config(again) == serialize_config(cfg)
            assert again.sha256() == cfg.sha256()
            digest.update(cfg.sha256().encode())
            count += 1
        assert count == 2 ** 11 + 2 ** 8
        assert digest.hexdigest() == PINNED_TABLE_DIGEST

    def test_sample_types(self):
        keys = ("parameters.labels", "parameters.v_files", "parameters.energies", "parameters.t")
        cfg = parse_config(config_text(DENSE, {key: SAMPLES[key] for key in keys}))
        assert cfg.params["labels"] == "a,b"
        assert cfg.params["v_files"] == ("V0.txt", "V1.txt")
        assert cfg.params["energies"] == (0.3, -0.4) and cfg.params["t"] == 2.5


def test_readme_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config format\n", 1)[1].split("\n## ", 1)[0]
    _, ini, prose = section.split("```", 2)
    sections, errors = tokenize_kv(ini.removeprefix("ini"))
    assert not errors
    in_ini = {f"{name}.{key}" for name, body in sections.items() for key in body}
    table = {f"{f.section}.{f.key}" for f in config._FIELDS}
    assert in_ini - table == {"perturbation.site_0"}
    missing = [where for where in table - in_ini if f"`{where.split('.')[1]}`" not in prose]
    assert not missing, missing


MINIMAL = """\
[model]
name = coleman_hepp

[parameters]
N = 4
m0 = 0.6
theta = pi

[state]
amplitudes = 0.6, 0.8
"""


class TestParse:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model == "coleman_hepp"
        assert cfg.params["N"] == 4
        assert cfg.params["m0"] == 0.6
        assert cfg.params["theta"] == math.pi
        assert cfg.amplitudes == (complex(0.6), complex(0.8))
        assert cfg.seed == 0
        assert cfg.measurement_time == 1.0

    def test_unnormalized_amplitudes_name_the_field(self):
        text = MINIMAL.replace("0.6, 0.8", "1, 1")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert any("amplitudes" in msg and "normalised" in msg for msg in exc.value.errors)

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[model2]\nx = 1\n")
        assert any("unknown section" in msg for msg in exc.value.errors)
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL.replace("theta = pi", "theta = pi\nflux = 3"))
        assert any("unknown key 'flux'" in msg for msg in exc.value.errors)

    def test_all_errors_collected_in_one_pass(self):
        text = """\
[model]
name = coleman_hepp

[parameters]
N = -2
m0 = 3.0

[state]
amplitudes = 1, 1
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert len(exc.value.errors) == 3

    def test_missing_required_keys_listed_together(self):
        text = "[model]\nname = coleman_hepp\n\n[parameters]\ntheta = pi\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = "\n".join(exc.value.errors)
        assert "'N'" in msgs and "'m0'" in msgs and "amplitudes" in msgs

    def test_sweep_must_increase(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[sweep]\nN = 100, 50\n")
        assert any("strictly increasing" in msg for msg in exc.value.errors)

    def test_grid_outside_range_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[ldp]\ngrid = 0.0, 1.5\n")
        assert any("outside the spectrum range" in msg for msg in exc.value.errors)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[ldp]\ngrid =\n")
        assert any("empty" in msg for msg in exc.value.errors)

    def test_perturbation_edits(self):
        cfg = parse_config(MINIMAL + "\n[perturbation]\nsite_0 = flip\nsite_3 = depolarize\n")
        assert cfg.perturbation == ((0, "flip"), (3, "depolarize"))
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\n[perturbation]\nsite_0 = smash\n")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "\n[sweep]\nN = 1, 2\nN = 3, 4\n")
        assert any("duplicate key" in msg for msg in exc.value.errors)


class TestAngles:
    @pytest.mark.parametrize("text,value", [
        ("pi", math.pi),
        ("2*pi", 2 * math.pi),
        ("pi/2", math.pi / 2),
        ("3*pi/4", 3 * math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("1.5", 1.5),
        ("-pi/2", -math.pi / 2),
    ])
    def test_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=0)

    @pytest.mark.parametrize("text", ["pi/0", "3*pi/0", "-pi/0.0"])
    def test_zero_divisor_is_refused(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        text = MINIMAL + """
[observable]
file = sz.txt

[sweep]
N = 50, 100, 200, 400

[ldp]
grid = -0.6, -0.2, 0.2, 0.6

[perturbation]
site_0 = flip
site_1 = depolarize
"""
        cfg1 = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg1))
        assert cfg1 == cfg2
        assert serialize_config(cfg1) == serialize_config(cfg2)
        assert cfg1.sha256() == cfg2.sha256()

    def test_float_rendering_round_trips(self):
        for x in (0.6, 1 / 3, 0.9728, math.pi, 1e-300, -2.5e17):
            assert float(fmt_float(x)) == x
