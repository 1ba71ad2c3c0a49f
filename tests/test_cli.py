import dataclasses
import inspect
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pointer_cell_sim
from pointer_cell_sim import cli, coarse_ldp, coleman_hepp, core, errors, logspace, runner, verify
from pointer_cell_sim.cli import main
from pointer_cell_sim.config import tokenize_kv
from pointer_cell_sim.report import REPORT_HEADER, parse_f_tensor_text

from oracles import binom_range_fraction, chain_minus_cell_counts, chain_plus_cell_counts

BASE = """\
[model]
name = coleman_hepp
seed = 7

[parameters]
N = 4
m0 = 0.6
theta = pi

[state]
amplitudes = 0.6, 0.8

[observable]
file = sz.txt
"""

SWEEP = "\n[sweep]\nN = 50, 100, 200, 400\n"
LDP = "\n[ldp]\ngrid = -0.6, -0.2, 0.2, 0.6\n"
PERTURB = "\n[perturbation]\nsite_0 = flip\nsite_1 = flip\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "sz.txt").write_text("1 0\n0 -1\n", encoding="utf-8")
    return tmp_path


def write_config(workdir, text, name="exp.cfg"):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def read_all(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestRun:
    def test_report_contents(self, workdir):
        cfg = write_config(workdir, BASE)
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        assert text.splitlines()[0] == REPORT_HEADER
        sections, errors = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert not errors
        # weights follow the amplitude-squared mixture of the diagonal slices
        p = Fraction(4, 5)
        f_pp = binom_range_fraction(4, p, chain_plus_cell_counts(4))
        f_mm = binom_range_fraction(4, 1 - p, chain_minus_cell_counts(4))
        w_plus = 0.36 * float(f_pp) + 0.64 * float(1 - f_mm)
        assert float(sections["weights"]["w[+]"]) == pytest.approx(w_plus, abs=1e-12)
        assert float(sections["weights"]["w[+]"]) == pytest.approx(0.46592, abs=1e-12)
        assert float(sections["weights"]["w[-]"]) == pytest.approx(0.53408, abs=1e-12)
        total = float(sections["weights"]["w[+]"]) + float(sections["weights"]["w[-]"])
        assert total == pytest.approx(1.0, abs=1e-12)
        # E(sigma_z) = sum |c_r|^2 <u_r|A|u_r> for the diagonal tensor
        assert float(sections["expectation"]["E"]) == pytest.approx(0.36 - 0.64, abs=1e-10)
        assert sections["pointer"]["phi"] == "1, 0"
        assert sections["properties"]["passed"] == "true"

    def test_report_floats_round_trip(self, workdir):
        cfg = write_config(workdir, BASE)
        out = workdir / "out"
        run_cli("run", "--config", cfg, "--out", out)
        text = (out / "report.txt").read_text(encoding="utf-8")
        tensor = parse_f_tensor_text(text)
        from pointer_cell_sim.coleman_hepp import ChainSpec, factorized_f_tensor
        direct = factorized_f_tensor(ChainSpec(N=4, m0=0.6))
        assert np.array_equal(tensor.values, direct.values)

    def test_identical_bytes_across_invocations(self, workdir):
        cfg = write_config(workdir, BASE)
        out1, out2 = workdir / "o1", workdir / "o2"
        assert run_cli("run", "--config", cfg, "--out", out1) == 0
        assert run_cli("run", "--config", cfg, "--out", out2) == 0
        assert read_all(out1) == read_all(out2)

    def test_oracle_mode_reports_discrepancy(self, workdir):
        cfg = write_config(workdir, BASE)
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert float(sections["oracle"]["dense_max_discrepancy"]) < 1e-9

    def test_oracle_over_capacity_exit_code(self, workdir):
        cfg = write_config(workdir, BASE.replace("N = 4", "N = 20"))
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--oracle") == 3
        assert not (out / "report.txt").exists()

    def test_malformed_config_exit_code(self, workdir, capsys):
        cfg = write_config(workdir, "[model]\nname = bogus\n\n[state]\namplitudes = 1, 1\n")
        assert run_cli("run", "--config", cfg, "--out", workdir / "out") == 2
        err = capsys.readouterr().err
        assert err.count("config error:") >= 2

    def test_weakened_verdict_keeps_its_log_values(self, workdir):
        # at N = 10000 the pointer errors underflow; the log-space values must
        # stay finite and agree with the float ones wherever those are in range.
        # At theta = pi the cross sectors are exact zeros, so the expectation
        # residual is exactly 0; the conditional one, of order exp(-c N), sets
        # log K near -c N / 2, finite where K underflows to 0
        for N in (200, 10000):
            cfg = write_config(workdir, BASE.replace("N = 4", f"N = {N}"))
            out = workdir / f"out{N}"
            assert run_cli("run", "--config", cfg, "--out", out) == 0
            text = (out / "report.txt").read_text(encoding="utf-8")
            sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
            pointer = sections["pointer"]
            c = float(pointer["weakened_c_reference"])
            errors = [float(e) for e in pointer["pointer_errors"].split(",")]
            log_errors = [float(e) for e in pointer["log_pointer_errors"].split(",")]
            log_expect = float(pointer["log_reconstruction_residual_expectation"])
            log_cond = float(pointer["log_reconstruction_residual_conditional"])
            log_k = float(pointer["log_correction_constant"])
            assert len(log_errors) == 2 and np.all(np.isfinite(log_errors))
            assert max(log_errors) <= -c * N
            assert log_expect == -np.inf and float(pointer["reconstruction_residual_expectation"]) == 0.0
            assert np.isfinite(log_cond) and np.isfinite(log_k)
            assert log_k == pytest.approx(max(log_expect, log_cond) + c * N / 2, rel=1e-12)
            assert float(pointer["correction_constant"]) == np.exp(log_k)
            if N == 10000:
                assert errors == [0.0, 0.0]
                assert float(pointer["reconstruction_residual_conditional"]) == 0.0
            else:
                assert np.allclose(np.exp(log_errors), errors, rtol=1e-12, atol=0.0)
                assert float(pointer["reconstruction_residual_conditional"]) == np.exp(log_cond)
                assert log_k == pytest.approx(
                    np.log(float(pointer["correction_constant"])), abs=1e-12)

    def test_log_correction_constant_falls_with_N_at_pi(self, workdir):
        # log K = log(max residual) + c N / 2 with the conditional residual near
        # exp(-c N): it falls about as -c N / 2, finite where K underflows
        log_k = []
        for N in (400, 2000, 10_000, 100_000):
            cfg = write_config(workdir, BASE.replace("N = 4", f"N = {N}"))
            assert run_cli("run", "--config", cfg, "--out", workdir / f"out{N}") == 0
            text = (workdir / f"out{N}" / "report.txt").read_text(encoding="utf-8")
            sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
            assert np.isfinite(float(sections["pointer"]["log_reconstruction_residual_conditional"]))
            log_k.append(float(sections["pointer"]["log_correction_constant"]))
        assert np.all(np.isfinite(log_k)) and np.all(np.diff(log_k) <= 0.0), log_k

    def test_expectation_residual_is_exactly_zero_at_pi_half_traversal(self, workdir):
        # both cross sectors are exact zeros and the diagonal trace products exactly 1
        text = BASE.replace("N = 4", "N = 400").replace("seed = 7", "seed = 7\nmeasurement_time = 0.5")
        assert run_cli("run", "--config", write_config(workdir, text), "--out", workdir / "out") == 0
        report = (workdir / "out" / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(report.splitlines()[1:]))
        assert sections["pointer"]["log_reconstruction_residual_expectation"] == "-inf"
        assert sections["pointer"]["reconstruction_residual_expectation"] == "0"

    def test_scipy_version_is_the_installed_one(self, workdir):
        from importlib.metadata import version

        assert runner._scipy_version() == version("scipy")
        cfg = write_config(workdir, BASE)
        assert run_cli("run", "--config", cfg, "--out", workdir / "out") == 0
        text = (workdir / "out" / "report.txt").read_text(encoding="utf-8")
        assert f"scipy_version = {version('scipy')}" in text.splitlines()

    @pytest.mark.parametrize("N", [200_000, 1_000_000])
    def test_chain_beyond_two_hundred_thousand_sites(self, workdir, N):
        # the diagonal rows of F must sum to 1 within the 1e-10 that
        # pointer_weights allows; log C(N, j) from log-gamma drifted past it
        cfg = write_config(workdir, BASE.replace("N = 4", f"N = {N}"))
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        total = float(sections["weights"]["w[+]"]) + float(sections["weights"]["w[-]"])
        assert abs(total - 1.0) <= 1e-12
        assert sections["pointer"]["phi"] == "1, 0"

    def test_million_sites_where_the_rotated_diagonal_rounds_up(self, workdir):
        # at theta = 2.2 the rotated site diagonal sums to 1 + 1 ulp in
        # doubles; the diagonal sectors are scaled by the site trace instead,
        # so the rows still sum to 1 at N = 10**6
        text = BASE.replace("N = 4", "N = 1000000").replace("theta = pi", "theta = 2.2")
        cfg = write_config(workdir, text)
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        report = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(report.splitlines()[1:]))
        f = sections["f_tensor"]
        for r in range(2):
            row = complex(f[f"F[{r},{r},0]"]) + complex(f[f"F[{r},{r},1]"])
            assert abs(row - 1.0) <= 1e-12


class TestSweep:
    def test_csv_header_and_monotone_errors(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP)
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "N,eps_max,log_eps_max,w_plus,w_minus,offdiag_max,status"
        eps = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert all(line.split(",")[-1] == "ok" for line in lines[1:])
        fit_text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(fit_text.splitlines()[1:]))
        fit = sections["decay_fit"]
        assert fit["status"] == "ok"
        assert float(fit["r_squared"]) > 0.99
        assert float(fit["c_fit"]) > 0.0
        assert fit["is_exponential"] == "true"

    def test_half_traversal_fit_is_not_exponential(self, workdir):
        # the error does not decay before the crossing; the fit says so
        text = BASE.replace("seed = 7", "seed = 7\nmeasurement_time = 0.5")
        cfg = write_config(workdir, text + SWEEP)
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        fit_text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(fit_text.splitlines()[1:]))
        fit = sections["decay_fit"]
        assert fit["status"] == "ok"
        assert fit["is_exponential"] == "false"

    def test_single_point_sweep_fit_refused(self, workdir):
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 100\n")
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        assert (out / "sweep.csv").exists()
        fit_text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(fit_text.splitlines()[1:]))
        assert sections["decay_fit"]["status"].startswith("refused")

class TestLdp:
    def test_series_and_conditions(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + LDP)
        out = workdir / "out"
        assert run_cli("ldp", "--config", cfg, "--out", out) == 0
        lines = (out / "ldp.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,N,empirical_rate,analytic_rate,residual,status"
        # the mean-magnetisation row has analytic rate zero
        mean_rows = [l for l in lines[1:] if l.startswith("0.59999999999999998,")]
        assert mean_rows
        for row in mean_rows:
            assert float(row.split(",")[3]) == 0.0
        cond_text = (out / "ldp_conditions.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(cond_text.splitlines()[1:]))
        cond = sections["ldp_conditions"]
        assert cond["passed"] == "true"
        assert float(cond["gap"]) == pytest.approx(0.22314355131420976, abs=1e-12)

    def test_residuals_decrease_with_N(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + "\n[ldp]\ngrid = -0.2\n")
        out = workdir / "out"
        run_cli("ldp", "--config", cfg, "--out", out)
        lines = (out / "ldp.csv").read_text(encoding="utf-8").splitlines()[1:]
        residuals = [abs(float(l.split(",")[4])) for l in lines]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_fully_polarized_chain_has_an_edge_maximizer(self, workdir, capsys):
        # m0 = 1 puts every spin-up site up: the maximiser m = 1 sits on the
        # cell edge, and the windows away from it have zero probability
        sweep = ", ".join(str(100 * 2 ** k) for k in range(11))
        text = (BASE.replace("m0 = 0.6", "m0 = 1.0") + f"\n[sweep]\nN = {sweep}\n"
                + "\n[ldp]\ngrid = -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8\n"
                + "\n[perturbation]\nsite_0 = flip\nsite_1 = depolarize\n")
        out = workdir / "out"
        with pytest.warns(UserWarning, match="zero probability"):
            code = run_cli("ldp", "--config", write_config(workdir, text), "--out", out)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        text = (out / "ldp_conditions.txt").read_text(encoding="utf-8")
        cond = tokenize_kv("\n".join(text.splitlines()[1:]))[0]["ldp_conditions"]
        assert cond["maximizers"] == "1, -1"
        assert cond["interior"] == "false"
        assert cond["passed"] == "false"

    def test_missing_grid_is_config_error(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP)
        out = workdir / "out"
        assert run_cli("ldp", "--config", cfg, "--out", out) == 2
        assert not (out / "ldp.csv").exists()

    def test_partial_traversal_is_config_error(self, workdir, capsys):
        text = BASE.replace("seed = 7", "seed = 7\nmeasurement_time = 0.5")
        cfg = write_config(workdir, text + SWEEP + LDP)
        out = workdir / "out"
        assert run_cli("ldp", "--config", cfg, "--out", out) == 2
        assert "completed traversal" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + LDP)
        out1, out2 = workdir / "o1", workdir / "o2"
        run_cli("ldp", "--config", cfg, "--out", out1)
        run_cli("ldp", "--config", cfg, "--out", out2)
        assert read_all(out1) == read_all(out2)


class TestPerturb:
    def test_stability_artifacts(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + PERTURB)
        out = workdir / "out"
        assert run_cli("perturb", "--config", cfg, "--out", out) == 0
        text = (out / "stability.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        stats = sections["stability"]
        assert stats["passed"] == "true"
        assert float(stats["relative_change"]) <= 0.25
        base = (out / "perturb_base.csv").read_text(encoding="utf-8").splitlines()
        pert = (out / "perturb_perturbed.csv").read_text(encoding="utf-8").splitlines()
        assert base[0] == pert[0] == "N,eps_max,log_eps_max,w_plus,w_minus,offdiag_max,status"
        assert base[1:] != pert[1:]

    def test_underflowed_rows_can_break_the_bound(self, workdir):
        # every row underflows (eps_max = 0 and exp(-c N) = 0), yet eight
        # flipped sites lift log eps about 2 nats above -c_fit N at N = 4000
        flips = "".join(f"site_{k} = flip\n" for k in range(8))
        text = (BASE + "\n[sweep]\nN = 4000, 8000, 16000, 32000\n"
                + "\n[perturbation]\n" + flips)
        out = workdir / "out"
        assert run_cli("perturb", "--config", write_config(workdir, text), "--out", out) == 0
        rows = (out / "perturb_perturbed.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.split(",")[-1] == "underflow" for row in rows)
        stability = (out / "stability.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(stability.splitlines()[1:]))
        stats = sections["stability"]
        assert stats["within_band"] == "true"
        assert stats["exponential_bound_satisfied"] == "false"
        assert stats["passed"] == "false"

    def test_non_exponential_fits_fail(self, workdir):
        # at theta = pi/2 the error barely moves from N = 10^3 to 10^9: both fits read
        # c near 7e-12 with r^2 near 0.08, a chain that does not measure, which stays
        # within the band and under its own bound
        sweep = ", ".join(str(10 ** k) for k in range(3, 10))
        text = (BASE.split("[observable]")[0].replace("theta = pi", "theta = pi/2")
                + f"\n[sweep]\nN = {sweep}\n" + "\n[perturbation]\nsite_0 = flip\nsite_1 = depolarize\n")
        out = workdir / "out"
        assert run_cli("perturb", "--config", write_config(workdir, text), "--out", out) == 0
        stability = (out / "stability.txt").read_text(encoding="utf-8")
        stats = tokenize_kv("\n".join(stability.splitlines()[1:]))[0]["stability"]
        assert 0.0 < float(stats["c_base"]) < 1e-10 and 0.0 < float(stats["c_perturbed"]) < 1e-10
        assert stats["within_band"] == stats["exponential_bound_satisfied"] == "true"
        assert stats["passed"] == "false"
        assert run_cli("sweep", "--config", write_config(workdir, text), "--out", out) == 0
        fit_text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        fit = tokenize_kv("\n".join(fit_text.splitlines()[1:]))[0]["decay_fit"]
        assert float(fit["r_squared"]) < 0.99 and fit["is_exponential"] == "false"

    def test_deterministic(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + PERTURB)
        out1, out2 = workdir / "o1", workdir / "o2"
        run_cli("perturb", "--config", cfg, "--out", out1)
        run_cli("perturb", "--config", cfg, "--out", out2)
        assert read_all(out1) == read_all(out2)


class TestPerSweepWork:
    """Work that does not depend on N runs once per command, sweep or family,
    on the perturb-then-ldp benchmark config, N = 100 .. 102400."""

    CONFIG = (BASE.split("[observable]")[0].replace("N = 4", "N = 100")
              + "\n[sweep]\nN = " + ", ".join(str(100 * 2 ** k) for k in range(11))
              + "\n\n[ldp]\ngrid = -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8\n"
              + "\n[perturbation]\nsite_0 = flip\nsite_1 = depolarize\n")

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("command", ["perturb", "ldp"])
    def test_override_states_checked_once_per_command(self, workdir, monkeypatch, command):
        checks = self.count_calls(monkeypatch, coleman_hepp, "_check_site_state")
        assert run_cli(command, "--config", write_config(workdir, self.CONFIG),
                       "--out", workdir / "out") == 0
        assert sorted(site for _, site in checks) == [0, 1]

    def test_site_diagonals_once_per_sweep(self, workdir, monkeypatch):
        diagonals = self.count_calls(monkeypatch, coleman_hepp, "_site_diagonals")
        assert run_cli("perturb", "--config", write_config(workdir, self.CONFIG),
                       "--out", workdir / "out") == 0
        assert len(diagonals) == 2  # the base and the perturbed sweep

    @pytest.mark.parametrize("command, sweeps", [("sweep", 1), ("perturb", 2)])
    def test_pointer_errors_once_per_sweep(self, workdir, monkeypatch, command, sweeps):
        # one call judges every size of a sweep; the fit and the stability
        # verdict read the errors each sweep point holds
        logs = self.count_calls(monkeypatch, verify, "log_pointer_errors")
        assert run_cli(command, "--config", write_config(workdir, self.CONFIG),
                       "--out", workdir / "out") == 0
        assert len(logs) == sweeps
        assert all(log_magnitude.shape == (11, 2, 2, 2) for log_magnitude, _ in logs)

    def test_pointer_errors_once_per_run(self, workdir, monkeypatch):
        # the weakened verdict decides from the log errors it reports
        logs = self.count_calls(monkeypatch, verify, "log_pointer_errors")
        assert run_cli("run", "--config", write_config(workdir, self.CONFIG),
                       "--out", workdir / "out") == 0
        assert len(logs) == 1

    def test_one_kernel_call_per_family(self, workdir, monkeypatch):
        families = self.count_calls(monkeypatch, coarse_ldp, "estimate_rate")
        kernel = self.count_calls(monkeypatch, coarse_ldp, "binomial_log_pmf")
        assert run_cli("ldp", "--config", write_config(workdir, self.CONFIG),
                       "--out", workdir / "out") == 0
        assert len(families) == len(kernel) == 4  # both sectors, base and perturbed
        assert all(np.ndim(n) == 1 and len(set(n)) == 11 for n, *_ in kernel)


class TestParserCache:
    """One parser serves every call of a process, and no call leaves a trace in it."""

    def test_oracle_does_not_carry_over(self, workdir):
        cfg = write_config(workdir, BASE)
        for name, extra in (("plain", []), ("oracle", ["--oracle"]), ("again", [])):
            assert run_cli("run", "--config", cfg, "--out", workdir / name, *extra) == 0
        assert "[oracle]" in (workdir / "oracle" / "report.txt").read_text(encoding="utf-8")
        assert read_all(workdir / "again") == read_all(workdir / "plain")
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [["run", "--config", "exp.cfg"], ["simulate"], []],
                             ids=["missing-out", "unknown-command", "empty"])
    def test_bad_argv_after_a_good_call(self, workdir, capsys, argv):
        cfg = write_config(workdir, BASE)
        assert run_cli("run", "--config", cfg, "--out", workdir / "out") == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: pointer-cell-sim" in capsys.readouterr().err

    def test_sweep_after_perturb_matches_a_fresh_process(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + PERTURB)
        assert run_cli("perturb", "--config", cfg, "--out", workdir / "perturb") == 0
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "warm") == 0
        src = Path(pointer_cell_sim.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-m", "pointer_cell_sim.cli", "sweep", "--config", str(cfg),
                        "--out", str(workdir / "fresh")], cwd=workdir, check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": str(src)})
        assert read_all(workdir / "warm") == read_all(workdir / "fresh")


class TestNonFiniteChainParameters:
    """An angle, time or energy a chain cannot take is a config error for every command."""

    @pytest.mark.parametrize("line", [
        "theta = 7", "theta = nan", "t = inf", "t = nan", "energies = 0.3, inf", "energies = nan, 0.3",
    ], ids=["theta-7", "theta-nan", "t-inf", "t-nan", "energy-inf", "energy-nan"])
    @pytest.mark.parametrize("command", ["run", "sweep", "perturb", "ldp"])
    def test_exit_2_with_nothing_written(self, workdir, capsys, command, line):
        text = BASE.replace("theta = pi", line if line.startswith("theta") else f"theta = pi\n{line}")
        cfg = write_config(workdir, text + SWEEP + LDP + PERTURB)
        out = workdir / "out"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert f"config error: [parameters]: {line.split(' = ')[0]} must" in capsys.readouterr().err
        assert not out.exists()


class TestConfigInputsNeverDropped:
    """A zero pi divisor, a NaN amplitude, a site named twice and an [observable] without its
    file are config errors for every command: exit 2, and nothing is written."""

    NOT_NORMALISED = "[state] amplitudes are not normalised: sum |c|^2 = nan"

    @pytest.mark.parametrize("old,new,message", [
        ("theta = pi", "theta = pi/0", "[parameters]: theta must be a number or a pi form, got 'pi/0'"),
        ("amplitudes = 0.6, 0.8", "amplitudes = nan, 0.8", NOT_NORMALISED),
        ("amplitudes = 0.6, 0.8", "amplitudes = 0.6, 0.8+nanj", NOT_NORMALISED),
        ("site_1 = flip", "site_00 = up", "[perturbation]: site 0 is named twice, as 'site_0' and 'site_00'"),
        ("file = sz.txt\n", "", "[observable]: missing required key 'file'"),
    ], ids=["pi-over-zero", "nan-amplitude", "nan-imaginary-part", "site-named-twice", "observable-no-file"])
    @pytest.mark.parametrize("command", ["run", "sweep", "perturb", "ldp"])
    def test_exit_2_with_nothing_written(self, workdir, capsys, command, old, new, message):
        text = BASE + SWEEP + LDP + PERTURB
        assert old in text
        cfg = write_config(workdir, text.replace(old, new))
        out = workdir / "out"
        assert run_cli(command, "--config", cfg, "--out", out) == 2
        assert f"config error: {message}" in capsys.readouterr().err.splitlines()
        assert not out.exists()


class TestOverrideOutsideTheChain:
    CONFIG = (BASE.split("[observable]")[0] + "\n[sweep]\nN = 1, 2, 4, 8, 16\n"
              + LDP + "\n[perturbation]\nsite_1 = depolarize\n")

    def test_perturb_fails_the_row(self, workdir):
        out = workdir / "out"
        assert run_cli("perturb", "--config", write_config(workdir, self.CONFIG), "--out", out) == 0
        rows = (out / "perturb_perturbed.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows[0] == "1,nan,nan,nan,nan,nan,failed: override site 1 outside the chain"
        assert [row.split(",")[-1] for row in rows[1:]] == ["ok"] * 4

    def test_ldp_fails_the_command(self, workdir, capsys):
        out = workdir / "out"
        assert run_cli("ldp", "--config", write_config(workdir, self.CONFIG), "--out", out) == 1
        assert capsys.readouterr().err.strip() == "error: override site 1 outside the chain"
        assert not out.exists()


class TestSweepSizeFailure:
    def test_numerical_error_fails_its_row_alone(self, workdir, monkeypatch):
        # the sizes of a sweep are summed together, but a size that raises fails alone
        cfg = write_config(workdir, BASE + SWEEP)
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "plain") == 0
        inner = logspace._lentz

        def fail_at_200(a, b, x, one, eps):
            # the batched steps report every tail of the 200-site bulk block unsettled
            fractions, failed = inner(a, b, x, one, eps)
            failed.update((int(j), errors.NumericalError("fraction did not converge"))
                          for j in np.flatnonzero(a + b == 201))
            return fractions, failed

        monkeypatch.setattr(logspace, "_lentz", fail_at_200)
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "failed") == 0
        plain, failed = ((workdir / out / "sweep.csv").read_bytes().splitlines()
                         for out in ("plain", "failed"))
        assert [row.split(b",")[0] for row in failed] == [b"N", b"50", b"100", b"200", b"400"]
        assert failed[3] == b"200,nan,nan,nan,nan,nan,failed: fraction did not converge"
        assert failed[:3] + failed[4:] == plain[:3] + plain[4:]

    def test_ambiguous_sizes_fail_their_rows_alone(self, workdir):
        # at theta = 1 the two cells no longer tell the sectors apart from N = 400 on;
        # the sizes are judged together, but each ambiguous size fails its row alone
        text = BASE.replace("theta = pi", "theta = 1.0") + "\n[sweep]\nN = {}\n"
        for out, Ns in (("all", "50, 100, 200, 400, 800, 1600"), ("small", "50, 100, 200")):
            cfg = write_config(workdir, text.format(Ns), name=f"{out}.cfg")
            assert run_cli("sweep", "--config", cfg, "--out", workdir / out) == 0
        rows, small = ((workdir / out / "sweep.csv").read_bytes().splitlines() for out in ("all", "small"))
        assert rows[:4] == small and all(row.endswith(b",ok") for row in small[1:])
        assert [row.split(b",")[0] for row in rows[4:]] == [b"400", b"800", b"1600"]
        assert all(row.split(b",", 1)[1] == b"nan,nan,nan,nan,nan,failed: no unique pointer "
                   b"correspondence: competing assignment within 1e-09 of the optimum" for row in rows[4:])
        fit = (workdir / "all" / "sweep_fit.txt").read_text(encoding="utf-8")
        assert "status = refused: need at least four distinct chain sizes" in fit.splitlines()

    def test_weight_sum_fails_its_row_alone(self, workdir, monkeypatch):
        # one size whose diagonal mass sums to 1 + 1e-9 fails the weight check alone
        cfg = write_config(workdir, BASE + SWEEP)
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "plain") == 0
        inner = coleman_hepp.traversal_family

        def heavy_at_200(spec, fraction, Ns):
            log_magnitude, phase, log_trace, failed = inner(spec, fraction, Ns)
            for r in range(2):
                log_magnitude[list(Ns).index(200), r, r] += np.log1p(1e-9)
            return log_magnitude, phase, log_trace, failed

        monkeypatch.setattr(coleman_hepp, "traversal_family", heavy_at_200)
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "heavy") == 0
        plain, heavy = ((workdir / out / "sweep.csv").read_bytes().splitlines()
                        for out in ("plain", "heavy"))
        assert heavy[3].startswith(b"200,nan,nan,nan,nan,nan,failed: pointer weights sum to 1.000000001")
        assert heavy[:3] + heavy[4:] == plain[:3] + plain[4:]


class TestVerify:
    def test_suite_passes(self, workdir):
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 10\n")
        out = workdir / "out"
        assert run_cli("verify", "--config", cfg, "--out", out) == 0
        text = (out / "verify.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert sections["verify"]["passed"] == "true"
        assert float(sections["verify"]["worst_property_violation"]) < 1e-9

    def test_bad_tensor_file_fails_with_exit_4(self, workdir):
        bad = workdir / "bad_f.txt"
        bad.write_text(
            "[f_tensor]\nn = 2\nt = 0\n"
            "F[0,0,0] = 0.1+0j\nF[0,0,1] = 0.9+0j\n"
            "F[0,1,0] = 1+0j\nF[0,1,1] = 0+0j\n"
            "F[1,0,0] = 1+0j\nF[1,0,1] = 0+0j\n"
            "F[1,1,0] = 0.1+0j\nF[1,1,1] = 0.9+0j\n",
            encoding="utf-8")
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 5\nf_file = bad_f.txt\n")
        out = workdir / "out"
        assert run_cli("verify", "--config", cfg, "--out", out) == 4
        text = (out / "verify.txt").read_text(encoding="utf-8")
        assert "passed = false" in text

    def test_missing_tensor_file_is_config_error(self, workdir, capsys):
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 2\nf_file = missing.txt\n")
        out = workdir / "out"
        assert run_cli("verify", "--config", cfg, "--out", out) == 2
        assert "missing.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_run_report_round_trips_as_tensor_file(self, workdir):
        cfg = write_config(workdir, BASE)
        assert run_cli("run", "--config", cfg, "--out", workdir / "run") == 0
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 2\nf_file = run/report.txt\n")
        out = workdir / "out"
        assert run_cli("verify", "--config", cfg, "--out", out) == 0
        text = (out / "verify.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert sections["tensor_file_properties"]["passed"] == "true"

    IDEAL_DUMP = ("[f_tensor]\nn = 2\nt = 0\n"
                  "F[0,0,0] = 1+0j\nF[0,0,1] = 0+0j\nF[0,1,0] = 0+0j\nF[0,1,1] = 0+0j\n"
                  "F[1,0,0] = 0+0j\nF[1,0,1] = 0+0j\nF[1,1,0] = 0+0j\nF[1,1,1] = 1+0j\n")

    @pytest.mark.parametrize("old, new", [
        ("F[0,0,0] = 1+0j", "F[0,0,0] = abc"),
        ("n = 2", "n = -1"),
        ("n = 2", "n = 0"),
        ("n = 2", "n = 1.5"),
        # the entry count is refused before anything of size n is built,
        # so even n = 10**12 costs nothing
        ("n = 2", "n = 1000000"),
        ("n = 2", "n = 1000000000000"),
        ("F[1,1,1] = 1+0j\n", ""),
        ("F[1,1,1] = 1+0j\n", "F[1,1,1] = 1+0j\nF[0,0,2] = 7+0j\nF[2,2,2] = 5+0j\n"),
    ], ids=["not-complex", "n-negative", "n-zero", "n-fraction", "n-huge", "n-enormous",
            "missing-entry", "entries-outside-n"])
    def test_malformed_tensor_file_is_config_error(self, workdir, capsys, old, new):
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 2\nf_file = dump.txt\n")
        dump = workdir / "dump.txt"
        dump.write_text(self.IDEAL_DUMP, encoding="utf-8")
        assert run_cli("verify", "--config", cfg, "--out", workdir / "ok") == 0
        dump.write_text(self.IDEAL_DUMP.replace(old, new), encoding="utf-8")
        out = workdir / "out"
        assert run_cli("verify", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("config error:") == 1 and "dump.txt" in err
        assert not out.exists()

    def test_nan_in_tensor_file_fails_with_exit_4(self, workdir):
        # NaN fails every identity it enters, with no numpy warning on the way
        nan = self.IDEAL_DUMP.replace("F[0,1,0] = 0+0j", "F[0,1,0] = nan+0j").replace(
            "F[1,0,0] = 0+0j", "F[1,0,0] = nan+0j")
        (workdir / "dump.txt").write_text(nan, encoding="utf-8")
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 2\nf_file = dump.txt\n")
        out = workdir / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("verify", "--config", cfg, "--out", out) == 4
        text = (out / "verify.txt").read_text(encoding="utf-8")
        props = tokenize_kv("\n".join(text.splitlines()[1:]))[0]["tensor_file_properties"]
        assert props["passed"] == "false"
        assert [props[key] for key in ("symmetry", "positivity", "cauchy_schwarz")] == ["nan"] * 3

    def test_deterministic(self, workdir):
        cfg = write_config(workdir, BASE + "\n[verify]\ninstances = 8\n")
        out1, out2 = workdir / "o1", workdir / "o2"
        run_cli("verify", "--config", cfg, "--out", out1)
        run_cli("verify", "--config", cfg, "--out", out2)
        assert read_all(out1) == read_all(out2)


GENERIC = """\
[model]
name = generic_dense
seed = 1

[parameters]
k_file = K.txt
v_files = V0.txt, V1.txt
omega_file = omega.txt
cells = 0 1 | 2 3
energies = 0.5, -0.5
t = 0.8
labels = a, b

[state]
amplitudes = 0.6, 0.8

[observable]
file = A2.txt
"""


def _write_matrix(path, matrix):
    lines = [" ".join(f"{z.real}{'+' if z.imag >= 0 else '-'}{abs(z.imag)}j"
                      for z in row) for row in matrix]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def generic_workdir(tmp_path):
    rng = np.random.default_rng(99)

    def herm(d):
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (raw + raw.conj().T) / 2

    K = herm(4)
    V0, V1 = herm(4), herm(4)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    omega = g @ g.conj().T
    omega /= np.trace(omega).real
    _write_matrix(tmp_path / "K.txt", K)
    _write_matrix(tmp_path / "V0.txt", V0)
    _write_matrix(tmp_path / "V1.txt", V1)
    _write_matrix(tmp_path / "omega.txt", omega)
    _write_matrix(tmp_path / "A2.txt", herm(2))
    (tmp_path / "exp.cfg").write_text(GENERIC, encoding="utf-8")
    return tmp_path, (K, (V0, V1), omega)


def _without_config_hash(text: str) -> list[str]:
    return [line for line in text.splitlines() if not line.startswith("config_sha256 = ")]


def test_seed_does_not_reach_the_report(workdir, generic_workdir):
    # run draws nothing at random: at seeds 7 and 8 every [pointer] line, and
    # every other line but the config hash, is the same byte for byte
    reports = {}
    for seed in (7, 8):
        for name, text in (("chain", BASE), ("generic", GENERIC.replace("seed = 1", "seed = 7"))):
            cfg = write_config(workdir, text.replace("seed = 7", f"seed = {seed}"), f"{name}{seed}.cfg")
            assert run_cli("run", "--config", cfg, "--out", workdir / f"{name}{seed}") == 0
            reports[name, seed] = (workdir / f"{name}{seed}" / "report.txt").read_text(encoding="utf-8")
    for name in ("chain", "generic"):
        first, second = reports[name, 7], reports[name, 8]
        assert first != second
        assert _without_config_hash(first) == _without_config_hash(second)
        pointer = first[first.index("[pointer]"):].split("\n\n[", 1)[0]
        assert "log_reconstruction_residual_conditional = " in pointer
        assert pointer in second


class TestGenericDense:
    def test_nan_in_omega_fails_with_nothing_written(self, generic_workdir, capsys):
        workdir, (_, _, omega) = generic_workdir
        omega = omega.copy()
        omega[0, 0] = np.nan
        _write_matrix(workdir / "omega.txt", omega)
        out = workdir / "out"
        assert run_cli("run", "--config", workdir / "exp.cfg", "--out", out) == 1
        assert "Omega is not Hermitian: max deviation nan" in capsys.readouterr().err
        assert not out.exists()

    def test_end_to_end_matches_core(self, generic_workdir):
        from pointer_cell_sim import core
        from pointer_cell_sim.report import parse_f_tensor_text

        workdir, (K, Vs, omega) = generic_workdir
        out = workdir / "out"
        assert run_cli("run", "--config", workdir / "exp.cfg", "--out", out) == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert sections["provenance"]["backend"] == "dense"
        micro = core.MicroSystem(energies=(0.5, -0.5), labels=("a", "b"))
        cells = core.PhaseCellPartition.from_groups([[0, 1], [2, 3]], 4, labels=("a", "b"))
        apparatus = core.Apparatus(K=K, V=Vs, Omega=omega, cells=cells)
        ref = core.f_tensor(core.evolve_sectors(micro, apparatus, 0.8), apparatus.cells)
        got = parse_f_tensor_text(text)
        assert np.abs(got.values - ref.values).max() < 1e-15

    def test_oracle_cross_check(self, generic_workdir):
        workdir, _ = generic_workdir
        out = workdir / "out"
        assert run_cli("run", "--config", workdir / "exp.cfg", "--out", out, "--oracle") == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert float(sections["oracle"]["dense_max_discrepancy"]) < 1e-9

    def test_oracle_reads_the_observable_once(self, generic_workdir, monkeypatch):
        workdir, _ = generic_workdir
        reads = []
        load = runner.load_matrix_text
        monkeypatch.setattr(runner, "load_matrix_text",
                            lambda path: reads.append(Path(path).name) or load(path))
        assert run_cli("run", "--config", workdir / "exp.cfg", "--out", workdir / "out", "--oracle") == 0
        assert reads.count("A2.txt") == 1

    def test_missing_matrix_file_is_config_error(self, generic_workdir):
        workdir, _ = generic_workdir
        (workdir / "K.txt").unlink()
        assert run_cli("run", "--config", workdir / "exp.cfg",
                       "--out", workdir / "out") == 2

    @pytest.mark.parametrize("line, message", [
        ("cells = 0 1 | 2 x", "cells must be groups of basis indices"),
        ("cells = 0 1 | 1 3", "generic_dense: cells overlap: shared basis indices"),
        ("cells = 0 1 | 2", "generic_dense: cells do not resolve the identity: missing basis indices"),
        ("cells = 0 1 | 2 4", "generic_dense: cell basis index out of range"),
        ("cells = 0 1 1 | 2 3", "generic_dense: cells repeat a basis index within a group"),
        ("labels = a, b, c", "labels and energies must agree in length (got 3, 2)"),
        ("labels = a, a", "labels must be distinct (got a, a)"),
        ("t = inf", "[parameters]: t must be finite"),
        ("t = nan", "[parameters]: t must be finite"),
        ("energies = 0.5, inf", "[parameters]: energies must be finite"),
        ("energies = nan, -0.5", "[parameters]: energies must be finite"),
    ], ids=["cells", "cells-overlap", "cells-missing", "cells-out-of-range", "cells-repeated",
            "labels", "duplicate-labels", "t-inf", "t-nan", "energy-inf", "energy-nan"])
    def test_malformed_list_is_config_error(self, generic_workdir, capsys, line, message):
        workdir, _ = generic_workdir
        key = line.split(" = ")[0]
        text = "\n".join(line if row.startswith(key + " = ") else row
                         for row in GENERIC.splitlines())
        (workdir / "exp.cfg").write_text(text + "\n", encoding="utf-8")
        out = workdir / "out"
        assert run_cli("run", "--config", workdir / "exp.cfg", "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestOracleModes:
    def test_sweep_oracle_reports_discrepancy(self, workdir):
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 4, 6, 8, 10, 16\n")
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        fit = sections["decay_fit"]
        assert float(fit["oracle_max_discrepancy"]) < 1e-9
        assert fit["oracle_points_checked"] == "4"

    def test_run_oracle_checks_half_traversal(self, workdir):
        text = (BASE.replace("seed = 7", "seed = 7\nmeasurement_time = 0.5")
                .replace("N = 4", "N = 10").replace("theta = pi", "theta = 2.5\nenergies = 0.3, -0.4"))
        cfg = write_config(workdir, text)
        out = workdir / "out"
        assert run_cli("run", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "report.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert float(sections["oracle"]["dense_max_discrepancy"]) <= 1e-12

    def test_sweep_oracle_checks_partial_traversal(self, workdir):
        text = BASE.replace("seed = 7", "seed = 7\nmeasurement_time = 0.37")
        cfg = write_config(workdir, text.replace("theta = pi", "theta = 1.0")
                           + "\n[sweep]\nN = 5, 7, 9, 16\n")
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        fit = sections["decay_fit"]
        assert float(fit["oracle_max_discrepancy"]) <= 1e-12
        assert fit["oracle_points_checked"] == "3"

    def test_sweep_oracle_over_capacity(self, workdir):
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 20, 40, 60, 80\n")
        assert run_cli("sweep", "--config", cfg, "--out", workdir / "out", "--oracle") == 3

    def test_perturb_oracle_reports_discrepancy(self, workdir):
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 6, 8, 24\n" + PERTURB)
        out = workdir / "out"
        assert run_cli("perturb", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "stability.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        stats = sections["stability"]
        assert float(stats["oracle_max_discrepancy"]) < 1e-9
        # N = 6 and 8 in both the base and the perturbed sweep
        assert stats["oracle_points_checked"] == "4"

    def test_ldp_oracle_identification(self, workdir):
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 4, 8, 16, 32\n" + LDP)
        out = workdir / "out"
        assert run_cli("ldp", "--config", cfg, "--out", out, "--oracle") == 0
        text = (out / "ldp_conditions.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        assert float(sections["oracle"]["identification_max_discrepancy"]) < 1e-10
        assert sections["oracle"]["dense_chain_size"] == "8"


class TestUnderflowMarking:
    def test_underflowed_sweep_rows_are_flagged(self, workdir):
        # at several thousand sites the pointer error leaves the float range;
        # the row must say so and the fit must keep working from log space
        cfg = write_config(workdir, BASE + "\n[sweep]\nN = 1000, 2000, 4000, 6000\n")
        out = workdir / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        flagged = [r for r in rows if r[-1] == "underflow"]
        assert flagged, "expected at least one log-space-only row"
        for r in flagged:
            assert float(r[1]) == 0.0          # eps_max underflowed
            assert float(r[2]) < -750.0        # log value survives
        fit_text = (out / "sweep_fit.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(fit_text.splitlines()[1:]))
        fit = sections["decay_fit"]
        assert fit["status"] == "ok"
        assert float(fit["r_squared"]) > 0.99


class TestLdpStabilityCondition:
    def test_perturbation_feeds_condition_d(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + LDP + PERTURB)
        out = workdir / "out"
        assert run_cli("ldp", "--config", cfg, "--out", out) == 0
        text = (out / "ldp_conditions.txt").read_text(encoding="utf-8")
        sections, _ = tokenize_kv("\n".join(text.splitlines()[1:]))
        cond = sections["ldp_conditions"]
        assert cond["stability_ok"] == "true"
        assert float(cond["stability_residual"]) <= float(cond["stability_bound"])
        assert cond["passed"] == "true"

    def test_each_sector_has_its_own_bound(self, workdir, monkeypatch):
        # N = 10^4 .. 10^9 with a flip and a depolarized site at theta = 1.7: the spin-down
        # bound is a tenth of the spin-up one, and a spin-down shift between the two fails
        config = (BASE.split("[observable]")[0].replace("theta = pi", "theta = 1.7")
                  + "\n[sweep]\nN = " + ", ".join(str(10 ** k) for k in range(4, 10))
                  + "\n\n[ldp]\ngrid = -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8\n"
                  + "\n[perturbation]\nsite_0 = flip\nsite_1 = depolarize\n")
        cfg = write_config(workdir, config)

        def conditions(out):
            assert run_cli("ldp", "--config", cfg, "--out", out) == 0
            text = (out / "ldp_conditions.txt").read_text(encoding="utf-8")
            return tokenize_kv("\n".join(text.splitlines()[1:]))[0]["ldp_conditions"]

        plain = conditions(workdir / "plain")
        assert plain["stability_ok"] == "true" and plain["passed"] == "true"
        assert float(plain["stability_bound"]) == pytest.approx(2.35e-5, rel=1e-2)
        inner, calls = coarse_ldp.estimate_rate, []

        def shifted(*args):  # the fourth family: the perturbed spin-down sector
            est = inner(*args)
            calls.append(est)
            return replace(est, samples=est.samples + 5e-5) if len(calls) == 4 else est

        monkeypatch.setattr(coarse_ldp, "estimate_rate", shifted)
        cond = conditions(workdir / "shifted")
        assert len(calls) == 4
        assert cond["stability_ok"] == "false" and cond["passed"] == "false"
        assert float(cond["stability_residual"]) > float(cond["stability_bound"])


NO_SCIPY_SCRIPT = """\
import sys
from pointer_cell_sim.cli import main
cfg, out = sys.argv[1:]
codes = [main([*argv, "--config", cfg, "--out", out])
         for argv in (["sweep"], ["perturb"], ["ldp"], ["run", "--oracle"])]
assert codes == [0, 0, 0, 0], codes
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_command_paths_do_not_import_scipy(workdir):
    # a fresh interpreter, since the test process itself has loaded scipy
    cfg = write_config(workdir, BASE + SWEEP + LDP + PERTURB)
    src = Path(pointer_cell_sim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(cfg), str(workdir / "out")],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: names no command reaches, deleted from the package; none may come back unnoticed
DELETED = [
    (coarse_ldp, ("IntensiveObservable", "coarse_grain", "cell_probability", "BernoulliProduct",
                  "cell_log_probability", "_factor_layout", "_override_log_pmf", "CellPartitionSpec")),
    (coleman_hepp, ("diagonal_sector_product", "log_trace_products", "sign_cells")),
    (coleman_hepp.FactorizedSectorOverlap, ("cell_terms", "cell_log_values", "dp_total")),
    (coleman_hepp.ChainSpec, ("with_overrides",)),
    (runner, ("_sector_family", "SweepPoint", "_sweep_csv", "CELL_MINUS", "CELL_PLUS")),
    (verify, ("stability_test", "RunModel", "RECONSTRUCTION_DRAWS", "_reconstruction_residuals")),
    (verify.ExactConditionResult, ("von_neumann_residuals",)),
    (verify.MeasurementVerdict, ("von_neumann_residuals",)),
    (errors, ("NonLocalPerturbationError",)),
    (logspace, ("binomial_log_pmf_at", "_stirlerr_at", "_bd0_at")),
]

#: parameters every caller left at one value, now constants; none may come back
REMOVED_PARAMETERS = [
    (core._check_hermitian, ("tol",)),
    (core._check_positive_semidefinite, ("tol",)),
    (core.check_f_properties, ("tol",)),
    (core.EvolvedSectorStates.validate, ("tol", "spectra")),
    (logspace._binomial_block, ("phase",)),
    (logspace._binomial_block, ("size",)),
    (verify.check_exact_condition, ("log_residuals",)),
    (coarse_ldp.check_ldp_conditions, ("cells",)),
]

#: fields that held one value or copied a function's own inputs back out
REMOVED_FIELDS = [
    (core.FPropertyReport, ("tol",)),
    (verify.ExactConditionResult, ("log_residuals",)),
    (verify.MeasurementVerdict, ("log_residuals", "N", "bound_constant")),
    (verify.DecayFit, ("sweep",)),
    (verify.StabilityResult, ("tolerance_band", "base_fit", "perturbed_fit", "perturbed_decays")),
    (coarse_ldp.LdpConditionReport, ("unique_max", "distinct_cells")),
    (coleman_hepp.FactorizedSectorOverlap, ("a_total", "global_phase")),
]


def test_public_surface():
    names = pointer_cell_sim.__all__
    assert names == sorted(set(names))
    assert all(hasattr(pointer_cell_sim, name) for name in names)
    for owner, gone in DELETED:
        for name in gone:
            assert not hasattr(owner, name), (owner, name)
            assert not hasattr(pointer_cell_sim, name), name
    for function, gone in REMOVED_PARAMETERS:
        assert not set(gone) & set(inspect.signature(function).parameters), function
    for cls, gone in REMOVED_FIELDS:
        assert not set(gone) & {f.name for f in dataclasses.fields(cls)}, cls
