"""Command-line front end.

Subcommands: ``run``, ``sweep``, ``ldp``, ``perturb``, ``verify``; each takes
``--config <path>``, ``--out <dir>`` and ``--oracle``.  Each subcommand is
one function in :mod:`pointer_cell_sim.runner` that takes the parsed config,
the config's directory and the oracle flag, and returns its artifacts (file
name -> text) with the exit code; this module only parses arguments and
writes the artifacts into ``--out``.
Exit codes: 0 success, 2 config error, 3 capacity error, 4 property-suite
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import runner
from .config import parse_config
from .errors import CapacityError, ConfigError, SimulationError

#: subcommand -> (runner function name, help text).  The function is looked up
#: on the runner module at call time, never held here.
COMMANDS = {
    "run": ("run", "single experiment: tensor, weights, verdicts"),
    "sweep": ("sweep", "chain-size sweep with a decay fit"),
    "ldp": ("ldp", "rate-function series and structural conditions"),
    "perturb": ("perturb", "stability test under localized initial-state edits"),
    "verify": ("verify_suite", "seeded random-instance property suite"),
}


def _load(config: str) -> tuple:
    config_path = Path(config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {config_path}: {exc}"]) from exc
    return parse_config(text), config_path.parent


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pointer-cell-sim",
        description="Pointer-statistics simulator for a microsystem coupled to a "
                    "finite measuring apparatus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--oracle", action="store_true",
                       help="force the dense cross-check where applicable")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, base_dir = _load(args.config)
        command = getattr(runner, COMMANDS[args.command][0])
        artifacts, code = command(cfg, base_dir, args.oracle)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        with open(out / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
