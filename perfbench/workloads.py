"""Benchmark workloads: experiment configs, CLI commands and expected artifacts.

Each workload is a fixed experiment whose config is generated from the
benchmark seed (it becomes ``[model] seed``).  Everything here is plain data
so that the driver, the worker and the reference checks agree on what a
workload runs and which operations it attempts.
"""

from __future__ import annotations

from dataclasses import dataclass

M0 = 0.6
AMPLITUDES = (0.6, 0.8)

SWEEP_FULL_N = tuple(50 * 2 ** k for k in range(12))  # 50 .. 102400
SWEEP_LARGE_N = tuple(50 * 2 ** k for k in range(14))  # 50 .. 409600
SWEEP_HALF_N = tuple(50 * 2 ** k for k in range(8))  # 50 .. 6400
PERTURB_N = tuple(100 * 2 ** k for k in range(11))  # 100 .. 102400
LDP_GRID = (-0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8)
PERTURBATION = (("site_0", "flip"), ("site_1", "depolarize"))
DENSE_N = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    measurement_time: float
    commands: tuple[tuple[str, ...], ...]  # subcommand plus extra flags
    sweep: tuple[int, ...] | None = None
    ldp_grid: tuple[float, ...] | None = None
    perturbation: tuple[tuple[str, str], ...] | None = None
    N: int | None = None
    theta: str = "pi"
    energies: tuple[float, float] | None = None

    def config_text(self, seed: int) -> str:
        N = self.N if self.N is not None else min(self.sweep)
        lines = ["[model]", "name = coleman_hepp", f"seed = {int(seed)}",
                 f"measurement_time = {self.measurement_time!r}", "",
                 "[parameters]", f"N = {N}", f"m0 = {M0!r}", f"theta = {self.theta}"]
        if self.energies is not None:
            lines.append(f"energies = {', '.join(repr(e) for e in self.energies)}")
        lines += ["", "[state]", f"amplitudes = {', '.join(repr(a) for a in AMPLITUDES)}"]
        if self.sweep is not None:
            lines += ["", "[sweep]", f"N = {', '.join(str(n) for n in self.sweep)}"]
        if self.ldp_grid is not None:
            lines += ["", "[ldp]", f"grid = {', '.join(repr(m) for m in self.ldp_grid)}"]
        if self.perturbation is not None:
            lines += ["", "[perturbation]"] + [f"{k} = {v}" for k, v in self.perturbation]
        return "\n".join(lines) + "\n"

    def argvs(self, config_path: str, out_dir: str) -> list[list[str]]:
        return [[cmd, "--config", config_path, "--out", out_dir, *flags]
                for cmd, *flags in self.commands]

    def artifact_ops(self) -> dict[str, tuple[str, int]]:
        """Artifact file -> (producing subcommand, operations it carries).

        An operation is one CSV row or one verdict file.
        """
        ops: dict[str, tuple[str, int]] = {}
        for cmd, *_ in self.commands:
            if cmd == "sweep":
                ops["sweep.csv"] = (cmd, len(self.sweep))
                ops["sweep_fit.txt"] = (cmd, 1)
            elif cmd == "perturb":
                ops["perturb_base.csv"] = (cmd, len(self.sweep))
                ops["perturb_perturbed.csv"] = (cmd, len(self.sweep))
                ops["stability.txt"] = (cmd, 1)
            elif cmd == "ldp":
                ops["ldp.csv"] = (cmd, len(self.sweep) * len(self.ldp_grid))
                ops["ldp_conditions.txt"] = (cmd, 1)
            elif cmd == "run":
                ops["report.txt"] = (cmd, 1)
        return ops

    @property
    def ops_per_iteration(self) -> int:
        return sum(n for _, n in self.artifact_ops().values())


WORKLOADS = {
    "sweep_full": Workload(
        name="sweep_full",
        why="full traversal, N = 50..102400: the exp(-cN) certificate; cell bookkeeping "
            "dominates, no convolutions",
        measurement_time=1.0, commands=(("sweep",),), sweep=SWEEP_FULL_N),
    "sweep_half": Workload(
        name="sweep_half",
        why="half traversal, N = 50..6400: every sector goes through the quadratic "
            "long-side lc_convolve branch",
        measurement_time=0.5, commands=(("sweep",),), sweep=SWEEP_HALF_N),
    "perturb_ldp": Workload(
        name="perturb_ldp",
        why="perturb then ldp, N = 100..102400: stability and rate-function verdicts, "
            "short-side convolutions for override blocks",
        measurement_time=1.0, commands=(("perturb",), ("ldp",)), sweep=PERTURB_N,
        ldp_grid=LDP_GRID, perturbation=PERTURBATION),
    "dense_oracle": Workload(
        name="dense_oracle",
        why="run --oracle at N = 10: dense build, Apparatus validation, eigh and traces; "
            "BLAS-bound, no factorized layer",
        measurement_time=1.0, commands=(("run", "--oracle"),), N=DENSE_N, theta="2.5",
        energies=(0.3, -0.4)),
    # Not driven by BENCHMARK.json: the full-traversal sweep continued to
    # N = 409600, whose last two points fail today.  It keeps that defect
    # measurable without putting a failing operation into a driven workload.
    "sweep_large": Workload(
        name="sweep_large",
        why="sweep_full continued to N = 409600; the two largest points fail today",
        measurement_time=1.0, commands=(("sweep",),), sweep=SWEEP_LARGE_N),
}

#: workloads listed in BENCHMARK.json, in the order ``--workload all`` runs them
DRIVEN = ("sweep_full", "sweep_half", "perturb_ldp", "dense_oracle")
