import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pointer_cell_sim
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
        # at N = 10000 the pointer errors underflow and K = max residual /
        # exp(-c N / 2) overflows; the log-space values must stay finite
        # and agree with the float ones wherever those are in range
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
            log_k = float(pointer["log_correction_constant"])
            assert len(log_errors) == 2 and np.all(np.isfinite(log_errors))
            assert np.isfinite(log_k)
            assert max(log_errors) <= -c * N
            if N == 10000:
                assert errors == [0.0, 0.0]
                assert float(pointer["correction_constant"]) == np.inf
            else:
                assert np.allclose(np.exp(log_errors), errors, rtol=1e-12, atol=0.0)
                assert log_k == pytest.approx(
                    np.log(float(pointer["correction_constant"])), abs=1e-12)


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

    def test_deterministic(self, workdir):
        cfg = write_config(workdir, BASE + SWEEP + PERTURB)
        out1, out2 = workdir / "o1", workdir / "o2"
        run_cli("perturb", "--config", cfg, "--out", out1)
        run_cli("perturb", "--config", cfg, "--out", out2)
        assert read_all(out1) == read_all(out2)


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


class TestGenericDense:
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
        cells = core.PhaseCellPartition(
            cells=[frozenset({0, 1}), frozenset({2, 3})], dim=4, labels=("a", "b"))
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

    def test_missing_matrix_file_is_config_error(self, generic_workdir):
        workdir, _ = generic_workdir
        (workdir / "K.txt").unlink()
        assert run_cli("run", "--config", workdir / "exp.cfg",
                       "--out", workdir / "out") == 2


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
