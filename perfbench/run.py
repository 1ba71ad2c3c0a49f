"""Benchmark driver for pointer-cell-sim.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in one fresh client process (``worker.py``) that calls
``pointer_cell_sim.cli.main`` in a closed loop.  With ``--trace 0`` the
driver reports the end-to-end metrics: the median set-up time over several
fresh interpreters, the median wall time of one iteration (both calibrated
against ``calibrate.py``) and the peak resident set of the client.  With ``--trace 1`` it reports the per-layer
metrics of a traced client plus import times from ``-X importtime``.
Every distinct artifact set is checked against independent references; the
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at nproc here and in every child, before numpy loads
BLAS_THREADS = {var: str(NPROC)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import calibrate  # noqa: E402
import references  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
KERNEL_HALFWIDTH = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
IMPORT_PACKAGES = ("numpy", "scipy", "pointer_cell_sim")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**{f"import.{pkg}_s": "s" for pkg in IMPORT_PACKAGES},
             **tracer.PER_LAYER,
             "report.artifact_bytes": "bytes",
             "untraced.wall_s": "s",
             "traced.wall_s": "s",
             "trace_overhead_s": "s",
             "calibration.kernel_s": "s"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    return {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(ROOT / "src")}


def calibrated(raw_s: float, kernel_s: float) -> float:
    return raw_s * calibrate.REFERENCE_S / kernel_s


def last_cpu(pid: int) -> int | None:
    """CPU a process last ran on (field 39 of /proc/<pid>/stat)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        return int(stat[stat.rindex(")") + 2:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def kernel_on(cpu: int | None) -> float:
    """Calibration kernel with this thread on ``cpu``, the client's last CPU.

    The vCPUs of a shared host are slowed independently, so the kernel must
    run where the client runs.  Only the calling thread is moved.
    """
    if cpu is None:
        return calibrate.kernel_s()
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return calibrate.kernel_s()
    finally:
        os.sched_setaffinity(0, saved)


def source_identity() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_child(cmd: list[str], deadline: float, stderr_path: Path) -> subprocess.CompletedProcess:
    """Run one child to completion (or kill it at the deadline) and wait for it."""
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child exceeded the time limit: {' '.join(cmd)}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, None)


def start_worker(args, work: Path, deadline: float, setup_only: bool = False) -> dict:
    """Run one client to completion and return its record.

    The client prints ``tick`` whenever it pauses for calibration; the kernel
    then runs here, in the driver, so that it shares neither heap nor peak
    resident set with the client.  ``record["kernels"]`` lists those times.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    stderr_path = work / "worker.stderr"
    kernels, lines = [], []
    with open(stderr_path, "ab") as err:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() != "tick":
                    lines.append(line)
                    continue
                kernels.append(kernel_on(last_cpu(proc.pid)))
                proc.stdin.write("go\n")
                proc.stdin.flush()
        except BrokenPipeError:
            pass
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError(f"client exceeded the time limit: {' '.join(cmd)}")
    if proc.returncode != 0 or not lines:
        tail = stderr_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"client exited with code {proc.returncode}\n{tail}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["ready"] - start
    record["kernels"] = kernels
    # iteration i runs between ticks i and i + 1; the median of the kernels
    # within KERNEL_HALFWIDTH ticks of it smooths the kernel's own noise
    for i, it in enumerate(record.get("iterations", ())):
        it["kernel_s"] = statistics.median(
            kernels[max(0, i - KERNEL_HALFWIDTH + 1): i + KERNEL_HALFWIDTH + 1])
    return record


def import_times(work: Path, deadline: float) -> dict[str, float]:
    """Self import time per package from a fresh ``-X importtime`` interpreter."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        err_path = work / "importtime.stderr"
        err_path.unlink(missing_ok=True)
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import pointer_cell_sim.cli"],
                         deadline, err_path)
        if proc.returncode != 0:
            raise BenchError("importing pointer_cell_sim.cli failed")
        totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in err_path.read_text().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the column header
            name = parts[2].strip()
            for pkg in IMPORT_PACKAGES:
                if name == pkg or name.startswith(pkg + "."):
                    totals[pkg] += self_us * 1e-6
        samples.append(totals)
    return {f"import.{pkg}_s": statistics.median(s[pkg] for s in samples)
            for pkg in IMPORT_PACKAGES}


def check_run(workload, work: Path, record: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every iteration of the client."""
    per_variant: dict[tuple, tuple[int, list[str]]] = {}
    attempted = failed = 0
    messages: list[str] = []
    for it in record["iterations"]:
        key = (it["variant"], json.dumps(it["codes"], sort_keys=True))
        if key not in per_variant:
            per_variant[key] = references.check_artifacts(
                workload, work / f"variant_{it['variant']}", it["codes"])
            messages += per_variant[key][1]
        attempted += workload.ops_per_iteration
        failed += per_variant[key][0]
    return attempted, failed, messages


def bench_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "workload.cfg").write_text(workload.config_text(args.seed), encoding="utf-8")
        if args.trace:
            metrics = import_times(work, deadline)
            record = start_worker(args, work, deadline)
            its = record["iterations"]
            untraced = [it for it in its if not it["traced"]]
            traced = [it for it in its if it["traced"]]

            def median_wall(group, calibrate_it):
                return statistics.median(
                    calibrated(it["wall_s"], it["kernel_s"]) if calibrate_it else it["wall_s"]
                    for it in group)

            metrics.update(record["trace"])
            metrics["untraced.wall_s"] = median_wall(untraced, False)
            metrics["traced.wall_s"] = median_wall(traced, False)
            metrics["trace_overhead_s"] = median_wall(traced, True) - median_wall(untraced, True)
            metrics["calibration.kernel_s"] = statistics.median(it["kernel_s"] for it in its)
            units = PER_LAYER
        else:
            # the kernel runs before every start and after each set-up; the
            # last start is the measuring client's own
            kernels = [calibrate.kernel_s()]
            setups = []
            for _ in range(SETUP_REPEATS - 1):
                setups.append(start_worker(args, work, deadline, setup_only=True)["setup_s"])
                kernels.append(calibrate.kernel_s())
            record = start_worker(args, work, deadline)
            setups.append(record["setup_s"])
            kernels.append(record["kernels"][0])
            its = record["iterations"]
            setup_kernels = [(a + b) / 2 for a, b in zip(kernels, kernels[1:])]
            metrics = {
                "setup_s": statistics.median(map(calibrated, setups, setup_kernels)),
                "wall_s": statistics.median(calibrated(it["wall_s"], it["kernel_s"]) for it in its),
                "peak_rss_mb": record["peak_rss_mb"],
            }
            record["raw"] = {"setup_s": statistics.median(setups),
                             "wall_s": statistics.median(it["wall_s"] for it in its),
                             "kernel_s": statistics.median(record["kernels"])}
            units = END_TO_END
        attempted, failed, messages = check_run(workload, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    env = {"workload": workload.name, "seed": args.seed, "nproc": NPROC,
           "iterations": len(record["iterations"]), **record["env"], **source_identity()}
    if "raw" in record:
        env["uncalibrated_median"] = record["raw"]
    if args.trace:
        absent = [name for name, *_ in tracer.SPANS if name not in record["installed_spans"]]
        env["absent_spans"] = absent
    return {"env": env, "messages": messages,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": metrics[name], "unit": unit}
                                   for name, unit in units.items()}}}


def print_report(out: dict) -> None:
    env = out["env"]
    print(f"# workload {env['workload']}  seed {env['seed']}  iterations {env['iterations']}")
    print("# env " + json.dumps(env, sort_keys=True))
    for msg in out["messages"][:20]:
        print(f"# check failed: {msg}")
    result = out["result"]
    print(f"# ops attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"{env['workload']:>13}  {name:<40} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    choices = sorted(workloads.WORKLOADS) + ["all"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=choices)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pointer_cell_sim" / "cli.py").is_file():
        print(f"error: no pointer_cell_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.DRIVEN if args.workload == "all" else (args.workload,)
    outs = []
    try:
        for name in names:
            out = bench_one(argparse.Namespace(**{**vars(args), "workload": name}))
            print_report(out)
            outs.append(out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outs) == 1:
        print(json.dumps(outs[0]["result"]))
    else:
        for out in outs:
            print(json.dumps({"workload": out["env"]["workload"], **out["result"]}))
        print(json.dumps({
            "correct": all(o["result"]["correct"] for o in outs),
            "attempted": sum(o["result"]["attempted"] for o in outs),
            "failed": sum(o["result"]["failed"] for o in outs),
            "metrics": {f"{o['env']['workload']}.{name}": metric
                        for o in outs for name, metric in o["result"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
