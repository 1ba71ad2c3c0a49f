"""One benchmark client: a fresh interpreter that drives one workload.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``.  It imports the CLI and
parses the workload config (that is the set-up the driver times from
outside), then calls ``pointer_cell_sim.cli.main`` in a closed loop, one
iteration after the other, for the requested number of seconds.  Every
distinct set of artifacts is copied out for the driver to check against the
references.  Before the first iteration and after every one the client
pauses while the driver runs its calibration kernel.  With ``--trace 1``
the second half of the loop runs with the span tracer installed.

The last line on stdout is a JSON record of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads


def ready_stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_name() -> str:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(cli) -> dict:
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "package_file": cli.__file__,
    }


def run_commands(cli, argvs, names) -> tuple[float, dict[str, int]]:
    codes = {}
    start = time.perf_counter()
    for name, argv in zip(names, argvs):
        try:
            codes[name] = cli.main(argv)
        except SystemExit as exc:
            codes[name] = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed operation, not a crashed bench
            traceback.print_exc()
            codes[name] = 1
    return time.perf_counter() - start, codes


def pause_for_calibration() -> None:
    """Let the driver time its calibration kernel while this client idles."""
    print("tick", flush=True)
    sys.stdin.readline()


def read_artifacts(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    config_path = work / "workload.cfg"
    import pointer_cell_sim.cli as cli
    from pointer_cell_sim.config import parse_config
    parse_config(config_path.read_text(encoding="utf-8"))
    record = {"ready": ready_stamp()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    workload = workloads.WORKLOADS[args.workload]
    out_dir = work / "out"
    argvs = workload.argvs(str(config_path), str(out_dir))
    names = [cmd for cmd, *_ in workload.commands]
    variants: list[dict[str, bytes]] = []
    iterations = []  # (variant index, exit codes, wall seconds, traced?)
    pause_for_calibration()  # before the first iteration and after every one
    trace_rows = []

    def iterate(tracer=None) -> None:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.reset()
        wall, codes = run_commands(cli, argvs, names)
        artifacts = read_artifacts(out_dir)
        if tracer is not None:
            row = tracer.iteration_metrics(wall)
            row["report.artifact_bytes"] = sum(len(b) for b in artifacts.values())
            trace_rows.append(row)
        if artifacts not in variants:
            variants.append(artifacts)
            dest = work / f"variant_{len(variants) - 1}"
            dest.mkdir()
            for name, data in artifacts.items():
                (dest / name).write_bytes(data)
        iterations.append((variants.index(artifacts), codes, wall, tracer is not None))
        pause_for_calibration()

    def loop(seconds: float, tracer=None, minimum: int = 1) -> None:
        start = time.perf_counter()
        count = 0
        while count < minimum or time.perf_counter() - start < seconds:
            iterate(tracer)
            count += 1

    if args.trace:
        from tracer import Tracer
        loop(args.seconds / 2, minimum=2)
        tracer = Tracer()
        tracer.install()
        try:
            loop(args.seconds / 2, tracer, minimum=2)
        finally:
            tracer.uninstall()
        record["installed_spans"] = tracer.installed
    else:
        loop(args.seconds)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["iterations"] = [
        {"variant": v, "codes": c, "wall_s": w, "traced": t} for v, c, w, t in iterations]
    if trace_rows:
        record["trace"] = {key: statistics.median(row[key] for row in trace_rows)
                           for key in trace_rows[0]}
    record["env"] = environment(cli)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
