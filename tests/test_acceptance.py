"""Acceptance suite: one test per criterion, at its stated tolerance and
runtime budget.  The conftest hook prints a PASS/FAIL line per criterion."""

import math
import time

import numpy as np
import pytest

from pointer_cell_sim import cli, core, instances, verify
from pointer_cell_sim.coarse_ldp import estimate_rate
from pointer_cell_sim.coleman_hepp import (
    ChainSpec,
    build_dense,
    diagonal_sectors,
    factorized_f_tensor,
    polarized_site,
    traversal_family,
)

from oracles import kl_bernoulli

BOUNDARY_RATE = 0.22314355131420976  # D(1/2 || 4/5), frozen closed form
LDP_RATE_AT_MINUS_02 = -0.38190850097688769  # -D(2/5 || 4/5)


class Stopwatch:
    def __init__(self, limit: float):
        self.limit = limit
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeded {self.limit}s"


def fit_points(sweep):
    """The fit's ``(N, max log error)`` point of each ``(N, tensor, pointer map)``."""
    return [(N, float(verify.log_pointer_errors(f.log_magnitude, pm.inverse).max()))
            for N, f, pm in sweep]


def equal_magnitude_amplitudes(rng, n):
    phases = rng.uniform(0, 2 * np.pi, size=n)
    return np.exp(1j * phases) / math.sqrt(n)


def unit_norm_observable(rng, n):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = (raw + raw.conj().T) / 2
    herm /= max(1.0, np.linalg.norm(herm, ord=2))
    return core.ObservableS(matrix=herm)


def gram_tensor(rng, n, delta):
    """Valid tensor with assigned diagonal mass exactly 1 - delta per sector."""
    phi = tuple(int(x) for x in rng.permutation(n))
    inverse = {r: a for a, r in enumerate(phi)}
    w = np.zeros((n, n), dtype=complex)
    for r in range(n):
        a = inverse[r]
        w[r, a] = math.sqrt(1.0 - delta)
        w[r, (a + 1) % n] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * math.sqrt(delta)
    values = np.einsum("ra,sa->rsa", w, w.conj())
    return core.FTensor(values=values, t=1.0), phi


def test_criterion_1_f_algebra_suite():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(200):
        micro, apparatus, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
        states = core.evolve_sectors(micro, apparatus, t)
        tensor = core.f_tensor(states, apparatus.cells)
        report = core.check_f_properties(tensor)
        worst = max(worst, report.worst)
    assert worst < 1e-9, f"worst property violation {worst:.3e}"
    watch.check()


def test_criterion_2_proposition_equivalence():
    watch = Stopwatch(30.0)
    rng = np.random.default_rng(2027)

    # perfect-measurement tensors reproduce the reduction and collapse rules
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        tensor, phi = gram_tensor(rng, n, delta=0.0)
        c = instances.random_amplitudes(rng, n, floor=0.15)
        A = unit_norm_observable(rng, n)
        born = float(np.sum(np.abs(c) ** 2 * np.diag(A.matrix).real))
        assert abs(core.expectation_s(tensor, c, A) - born) <= 1e-12
        for alpha in range(n):
            target = A.matrix[phi[alpha], phi[alpha]].real
            got = core.conditional_expectation(tensor, c, A, alpha)
            assert abs(got - target) <= 1e-12

    # tensors violating the exact condition by delta keep the reconstructions
    # within the square-root envelope 3 sqrt(delta)
    for _ in range(100):
        n = int(rng.choice([2, 3, 4]))
        delta = float(10 ** rng.uniform(-3, -1))
        tensor, phi = gram_tensor(rng, n, delta)
        assert core.check_f_properties(tensor).passed
        pmap = verify.PointerMap(phi=phi, confidence=tuple(1.0 - delta for _ in range(n)))
        eps = verify.pointer_errors(tensor.diagonal(), pmap.inverse)
        assert eps.max() == pytest.approx(delta, rel=1e-9)
        c = equal_magnitude_amplitudes(rng, n)
        A = unit_norm_observable(rng, n)
        born = float(np.sum(np.abs(c) ** 2 * np.diag(A.matrix).real))
        bound = 3.0 * math.sqrt(delta)
        assert abs(core.expectation_s(tensor, c, A) - born) <= bound
        for alpha in range(n):
            target = A.matrix[phi[alpha], phi[alpha]].real
            got = core.conditional_expectation(tensor, c, A, alpha)
            assert abs(got - target) <= bound
    watch.check()


def test_criterion_3_backend_oracle_equivalence():
    watch = Stopwatch(120.0)
    rng = np.random.default_rng(2028)
    draws = 0
    worst = 0.0
    for N in range(1, 11):
        for _ in range(2):
            spec = ChainSpec(
                N=N,
                m0=float(rng.uniform(0.05, 1.0)),
                theta=float(rng.uniform(0.1, 2 * math.pi - 0.1)),
                energies=(float(rng.normal()), float(rng.normal())),
                t=float(rng.uniform(0.3, 2.0)),
            )
            micro, apparatus = build_dense(spec)
            dense = core.f_tensor(core.evolve_sectors(micro, apparatus, spec.t),
                                  apparatus.cells)
            fact = factorized_f_tensor(spec)
            worst = max(worst, float(np.abs(dense.values - fact.values).max()))
            draws += 1
    assert draws == 20
    assert worst < 1e-9, f"worst backend discrepancy {worst:.3e}"
    watch.check()


def test_criterion_4_exponential_pointer_fidelity():
    watch = Stopwatch(60.0)
    sweep = []
    for N in (50, 100, 200, 400, 800):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        sweep.append((N, f, verify.find_pointer_map(f)))
    fit = verify.fit_decay_rate(fit_points(sweep))
    assert fit.r_squared >= 0.99
    assert abs(fit.c - BOUNDARY_RATE) / BOUNDARY_RATE <= 0.10
    # the frozen constant is the closed-form boundary relative entropy
    assert BOUNDARY_RATE == pytest.approx(kl_bernoulli(0.5, 0.8), abs=1e-15)
    watch.check()


def test_criterion_5_off_diagonal_decoherence():
    watch = Stopwatch(30.0)
    for theta in (math.pi / 2, 3 * math.pi / 4):
        for N in (10, 100, 1000):
            spec = ChainSpec(N=N, m0=0.6, theta=theta)
            lm = traversal_family(spec, 1.0, [N])[2][0, 0, 1]
            ref = N * math.log(abs(math.cos(theta / 2)))
            assert abs(math.exp(lm - ref) - 1.0) < 1e-9
    for N in (10, 100, 1000):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6, theta=math.pi))
        assert np.abs(f.values[0, 1]).max() == 0.0
        assert np.abs(f.values[1, 0]).max() == 0.0
    watch.check()


def test_criterion_6_ldp_convergence():
    watch = Stopwatch(60.0)
    a, b, _ = diagonal_sectors(ChainSpec(N=800, m0=0.6), 800)[0]
    est = estimate_rate(a, b, grid=[-0.2], N_values=[100, 200, 400, 800])
    assert abs(est.samples[-1, 0] - LDP_RATE_AT_MINUS_02) <= 0.02
    residuals = np.abs(est.samples[:, 0] - LDP_RATE_AT_MINUS_02)
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    # the frozen constant matches the closed form
    assert LDP_RATE_AT_MINUS_02 == pytest.approx(-kl_bernoulli(0.4, 0.8), abs=1e-15)
    watch.check()


def test_criterion_7_stability_condition():
    watch = Stopwatch(90.0)

    def run_model(N, overrides):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6, site_overrides=overrides))
        return f, verify.find_pointer_map(f)

    N_values = [50, 100, 200, 400, 800]
    base = [(N, *run_model(N, None)) for N in N_values]
    flip = {0: polarized_site(-0.6), 1: polarized_site(-0.6)}
    depolarize = {0: np.eye(2, dtype=complex) / 2, 1: np.eye(2, dtype=complex) / 2}
    for perturbation in (flip, depolarize):
        perturbed = [(N, *run_model(N, perturbation)) for N in N_values]
        points = fit_points(perturbed)
        result = verify.stability_verdict(verify.fit_decay_rate(fit_points(base)),
                                          verify.fit_decay_rate(points), points)
        assert result.relative_change <= 0.25
        assert result.bound_satisfied  # exponential bound holds at every N
        assert result.passed
    watch.check()


def test_criterion_8_conditional_expectation_compatibility():
    from oracles import composite_expect, dense_sector_hams, full_composite_phi_t

    watch = Stopwatch(30.0)
    rng = np.random.default_rng(2029)
    for i in range(100):
        micro, apparatus, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
        n = micro.n
        tensor = core.f_tensor(core.evolve_sectors(micro, apparatus, t), apparatus.cells)
        c = instances.random_amplitudes(rng, n, floor=0.2)
        A = unit_norm_observable(rng, n)
        M_alpha = rng.normal(size=n)
        w = core.pointer_weights(tensor, c)
        lhs = sum(core.conditional_expectation(tensor, c, A, alpha) * w[alpha] * M_alpha[alpha]
                  for alpha in range(n))
        M = sum(M_alpha[alpha] * apparatus.cells.as_matrix(alpha) for alpha in range(n))
        Phi_t = full_composite_phi_t(dense_sector_hams(micro, apparatus), c,
                                     apparatus.Omega, t)
        rhs = composite_expect(Phi_t, A.matrix, M)
        assert abs(lhs - rhs.real) < 1e-9
    watch.check()


def test_criterion_9_cli_determinism(tmp_path):
    watch = Stopwatch(30.0)
    (tmp_path / "sz.txt").write_text("1 0\n0 -1\n", encoding="utf-8")
    base = """\
[model]
name = coleman_hepp
seed = 3

[parameters]
N = 4
m0 = 0.6
theta = pi

[state]
amplitudes = 0.6, 0.8

[observable]
file = sz.txt

[sweep]
N = 50, 100, 200, 400

[ldp]
grid = -0.6, -0.2, 0.2, 0.6

[perturbation]
site_0 = flip
site_1 = depolarize

[verify]
instances = 6
"""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(base, encoding="utf-8")
    for command in ("run", "sweep", "ldp", "perturb", "verify"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1], f"{command} artifacts differ between invocations"

    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nname = coleman_hepp\n\n[parameters]\nN = 4\nm0 = 2\n"
                   "\n[state]\namplitudes = 1, 1\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "bad_out")]) == 2

    big = tmp_path / "big.cfg"
    big.write_text(base.replace("N = 4", "N = 40", 1), encoding="utf-8")
    assert cli.main(["run", "--config", str(big), "--out", str(tmp_path / "big_out"),
                     "--oracle"]) == 3
    watch.check()
