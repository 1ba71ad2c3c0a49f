"""Command-line front end.

Subcommands: ``run``, ``sweep``, ``ldp``, ``perturb``, ``verify``; each takes
``--config <path>``, ``--out <dir>`` and ``--oracle``.
Exit codes: 0 success, 2 config error, 3 capacity error, 4 property-suite
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runner
from .config import parse_config
from .errors import CapacityError, ConfigError, SimulationError
from .report import LDP_COLUMNS, SWEEP_COLUMNS, render_csv


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load(args) -> tuple:
    config_path = Path(args.config)
    try:
        text = config_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config {config_path}: {exc}"]) from exc
    return parse_config(text), config_path.parent


def _cmd_run(args) -> int:
    cfg, base_dir = _load(args)
    result = runner.run(cfg, base_dir=base_dir, oracle=args.oracle)
    _write(Path(args.out) / "report.txt", runner.render_run_report(result))
    return 0


def _cmd_sweep(args) -> int:
    cfg, base_dir = _load(args)
    points, fit, fit_status, oracle_info = runner.sweep(cfg, oracle=args.oracle)
    out = Path(args.out)
    _write(out / "sweep.csv", render_csv(SWEEP_COLUMNS, runner.sweep_rows(points)))
    _write(out / "sweep_fit.txt", runner.render_fit_summary(
        cfg, fit, fit_status, runner.oracle_items(oracle_info)))
    return 0


def _cmd_ldp(args) -> int:
    cfg, base_dir = _load(args)
    rows, estimates, oracle_info = runner.ldp_rows(cfg, oracle=args.oracle)
    out = Path(args.out)
    text = runner.ldp_conditions_text(cfg, estimates)
    if oracle_info is not None:
        worst, N0 = oracle_info
        text += (f"\n[oracle]\nidentification_max_discrepancy = {runner.fmt_float(worst)}\n"
                 f"dense_chain_size = {N0}\n")
    _write(out / "ldp.csv", render_csv(LDP_COLUMNS, rows))
    _write(out / "ldp_conditions.txt", text)
    return 0


def _cmd_perturb(args) -> int:
    cfg, base_dir = _load(args)
    base_points, pert_points, base_fit, pert_fit, base_status, pert_status, result, \
        oracle_info = runner.perturb(cfg, oracle=args.oracle)
    out = Path(args.out)
    _write(out / "perturb_base.csv", render_csv(SWEEP_COLUMNS, runner.sweep_rows(base_points)))
    _write(out / "perturb_perturbed.csv", render_csv(SWEEP_COLUMNS, runner.sweep_rows(pert_points)))
    _write(out / "stability.txt",
           runner.render_stability(cfg, base_fit, pert_fit, base_status, pert_status, result,
                                   oracle_info))
    return 0


def _cmd_verify(args) -> int:
    cfg, base_dir = _load(args)
    passed, text = runner.verify_suite(cfg, base_dir=base_dir)
    _write(Path(args.out) / "verify.txt", text)
    return 0 if passed else 4


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pointer-cell-sim",
        description="Pointer-statistics simulator for a microsystem coupled to a "
                    "finite measuring apparatus.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "ldp": _cmd_ldp,
        "perturb": _cmd_perturb,
        "verify": _cmd_verify,
    }
    help_text = {
        "run": "single experiment: tensor, weights, verdicts",
        "sweep": "chain-size sweep with a decay fit",
        "ldp": "rate-function series and structural conditions",
        "perturb": "stability test under localized initial-state edits",
        "verify": "seeded random-instance property suite",
    }
    for name in handlers:
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--oracle", action="store_true",
                       help="force the dense cross-check where applicable")
    args = parser.parse_args(argv)
    try:
        return handlers[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
