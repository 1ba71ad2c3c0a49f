import dataclasses
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim import core, instances
from pointer_cell_sim.coleman_hepp import (
    ChainSpec,
    build_dense,
    factorized_f_tensor,
    polarized_site,
    traversal_family,
)
from pointer_cell_sim.errors import (
    AmbiguousPointerError,
    FitError,
    NumericalError,
    PreconditionError,
    SimulationError,
)
from pointer_cell_sim.logspace import lc_values
from pointer_cell_sim.verify import (
    ENUMERATION_MAX,
    _residual_matrices,
    TIE_EPSILON,
    PointerMap,
    check_exact_condition,
    check_weakened_condition,
    find_pointer_map,
    fit_decay_rate,
    ideal_tensor,
    judge_stack,
    log_pointer_errors,
    pointer_errors,
    pointer_maps,
    reconstruction_residuals,
    stability_verdict,
)

from oracles import decimal_log_residuals, judge_tensor, kl_bernoulli

BOUNDARY_RATE = kl_bernoulli(0.5, 0.8)


def residuals(f, pm):
    """The reconstruction residuals at equal amplitudes."""
    return reconstruction_residuals(f, pm, np.full(f.n, f.n ** -0.5))


def ideal_f(phi):
    n = len(phi)
    values = np.zeros((n, n, n), dtype=complex)
    for alpha, r in enumerate(phi):
        values[r, r, alpha] = 1.0
    return core.FTensor(values=values, t=1.0)


def diag_f(rows):
    """Diagonal-slice tensor from per-microstate cell probabilities."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    values = np.zeros((n, n, n), dtype=complex)
    for r in range(n):
        values[r, r, :] = rows[r]
    return core.FTensor(values=values, t=1.0)


def error_tensor(eps, phi=(0, 1)):
    """Two-level tensor whose complementary diagonal mass is exactly eps."""
    rows = np.array([[0.0, 0.0], [0.0, 0.0]])
    for alpha, r in enumerate(phi):
        rows[r, alpha] = 1.0 - eps
        rows[r, 1 - alpha] = eps
    return diag_f(rows)


def gram_tensor(phi, delta, rng):
    """Valid tensor with assigned diagonal mass exactly 1 - delta."""
    n = len(phi)
    inverse = {r: a for a, r in enumerate(phi)}
    w = np.zeros((n, n), dtype=complex)
    for r in range(n):
        a = inverse[r]
        leak = (a + 1) % n
        xi = np.exp(1j * rng.uniform(0, 2 * np.pi))
        w[r, a] = math.sqrt(1.0 - delta)
        w[r, leak] = xi * math.sqrt(delta)
    values = np.einsum("ra,sa->rsa", w, w.conj())
    return core.FTensor(values=values, t=1.0)


def chain_sweep(N_values, m0=0.6, overrides=None):
    out = []
    for N in N_values:
        f = factorized_f_tensor(ChainSpec(N=N, m0=m0, site_overrides=overrides))
        out.append((N, f, find_pointer_map(f)))
    return out


def fit_points(sweep):
    """The ``(N, max log error)`` point the fit and the stability verdict read of each
    ``(N, tensor, pointer map)``."""
    return [(N, float(log_pointer_errors(f.log_magnitude, pm.inverse).max())) for N, f, pm in sweep]


class TestFindPointerMap:
    def test_ideal_identity(self):
        f = ideal_f([0, 1, 2])
        pm = find_pointer_map(f)
        assert pm.phi == (0, 1, 2)
        assert pm.confidence == (1.0, 1.0, 1.0)
        assert pm.uninformative == ()

    def test_exact_tie_is_ambiguous(self):
        f = diag_f([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(AmbiguousPointerError):
            find_pointer_map(f)

    def test_chain_assignment(self):
        f = factorized_f_tensor(ChainSpec(N=50, m0=0.6))
        pm = find_pointer_map(f)
        # cell 0 is the negative-magnetisation cell: spin-down sector
        assert pm.phi == (1, 0)
        assert min(pm.confidence) > 0.9

    def test_relabeling_cells_permutes_map(self):
        f = factorized_f_tensor(ChainSpec(N=6, m0=0.6))
        pm = find_pointer_map(f)
        swapped = core.FTensor(values=f.values[:, :, ::-1], t=f.t)
        pm_swapped = find_pointer_map(swapped)
        assert pm_swapped.phi == tuple(reversed(pm.phi))

    def test_uninformative_flag(self):
        f = diag_f([[0.4, 0.3, 0.3], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        pm = find_pointer_map(f)
        assert pm.phi == (0, 1, 2)
        assert pm.uninformative == (0,)

    def test_matching_is_global_not_greedy(self):
        # greedy per-cell argmax would send both cells to microstate 0
        f = diag_f([[0.6, 0.4], [0.55, 0.45]])
        pm = find_pointer_map(f)
        assert pm.phi == (0, 1)


def hungarian_pointer_map(W):
    """Reference matching: the optimum by scipy's Hungarian solver, and the
    runner-up as the best assignment forced through one unused pair."""
    from scipy.optimize import linear_sum_assignment
    n = W.shape[0]
    rows, cols = linear_sum_assignment(-W)
    second = -np.inf
    for alpha in range(n):
        for r in range(n):
            if cols[alpha] != r:
                sub = np.delete(np.delete(W, alpha, axis=0), r, axis=1)
                srows, scols = linear_sum_assignment(-sub)
                second = max(second, W[alpha, r] + sub[srows, scols].sum())
    return tuple(int(r) for r in cols), W[rows, cols].sum() - second <= TIE_EPSILON


def find_or_ambiguous(W):
    try:
        return find_pointer_map(diag_f(W.T)).phi, False
    except AmbiguousPointerError:
        return None, True


def planted_gap_weights(rng, n, gap):
    """W whose best assignment beats the runner-up by ``gap`` and every
    other assignment by more than 1/2."""
    best = rng.permutation(n)
    W = np.zeros((n, n))
    W[np.arange(n), best] = 1.0
    a, b = rng.choice(n, size=2, replace=False)
    W[a, best[b]] = W[b, best[a]] = 1.0 - gap / 2
    return W, tuple(int(r) for r in best)


class TestPointerMapEnumeration:
    @pytest.mark.parametrize("n", range(1, ENUMERATION_MAX + 1))
    def test_matches_hungarian_on_random_weights(self, n, rng):
        for _ in range(20):
            W = rng.uniform(size=(n, n))
            phi, ambiguous = hungarian_pointer_map(W)
            assert find_or_ambiguous(W) == ((None, True) if ambiguous else (phi, False))

    @pytest.mark.parametrize("n", range(2, ENUMERATION_MAX + 1))
    def test_planted_gaps_around_the_tie_epsilon(self, n, rng):
        for gap, ambiguous in ((0.99 * TIE_EPSILON, True), (1.01 * TIE_EPSILON, False)):
            W, best = planted_gap_weights(rng, n, gap)
            assert hungarian_pointer_map(W) == (best, ambiguous)
            assert find_or_ambiguous(W) == ((None, True) if ambiguous else (best, False))

    def test_more_microstates_use_the_hungarian_solver(self, rng, monkeypatch):
        import scipy.optimize
        calls = []
        solver = scipy.optimize.linear_sum_assignment
        monkeypatch.setattr(scipy.optimize, "linear_sum_assignment",
                            lambda cost: calls.append(cost.shape) or solver(cost))
        W, best = planted_gap_weights(rng, ENUMERATION_MAX, 0.1)
        assert find_or_ambiguous(W) == (best, False)
        assert calls == []
        W, best = planted_gap_weights(rng, ENUMERATION_MAX + 1, 0.1)
        assert find_or_ambiguous(W) == (best, False)
        assert calls[0] == (ENUMERATION_MAX + 1, ENUMERATION_MAX + 1)


class TestPointerErrors:
    def test_complementary_mass_below_float_epsilon(self):
        eps = 1e-60
        f = error_tensor(eps)
        pm = PointerMap(phi=(0, 1), confidence=(1.0, 1.0))
        got = pointer_errors(f.diagonal(), pm.inverse)
        assert_allclose(got, [eps, eps], rtol=1e-12)
        # the naive 1 - F route would have lost it entirely
        assert float(1.0 - f.values[0, 0, 0].real) == 0.0

    def test_log_errors_use_chain_log_magnitudes(self):
        f = factorized_f_tensor(ChainSpec(N=3000, m0=0.6))
        pm = find_pointer_map(f)
        logs = log_pointer_errors(f.log_magnitude, pm.inverse)
        assert np.isfinite(logs).all()
        assert logs.max() == pytest.approx(-3000 * BOUNDARY_RATE, rel=2e-2)

    def test_log_errors_of_random_dense_instances(self):
        # the one log-space route agrees with the complementary linear mass on
        # the instances the verify suite draws, and a tensor handed its own
        # log|values| is read the same way as one that takes them by default
        rng = np.random.default_rng(5)
        for i in range(20):
            micro, app, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
            f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
            pm = find_pointer_map(f)
            logs = log_pointer_errors(f.log_magnitude, pm.inverse)
            assert_allclose(logs, np.log(pointer_errors(f.diagonal(), pm.inverse)), rtol=0, atol=1e-12)
            given = core.FTensor(values=f.values, t=f.t, log_magnitude=np.log(np.abs(f.values)))
            assert log_pointer_errors(given.log_magnitude, pm.inverse).tobytes() == logs.tobytes()


class TestJudgeStack:
    AMPLITUDES = (0.6, 0.8)

    def assert_judged_alone(self, values, log_magnitude, context):
        """``judge_stack`` and ``pointer_maps`` give each tensor of the stack the bits
        of the per-size judging, or its error; returns the tensors that raise it."""
        *judged, failed = judge_stack(values, log_magnitude, self.AMPLITUDES)
        phi, confidence, uninformative, _ = pointer_maps(np.einsum("srra->sra", values).real)
        raised = {}
        for i in range(len(values)):
            try:
                want = judge_tensor(values[i], log_magnitude[i], self.AMPLITUDES)
            except SimulationError as exc:
                got = failed.get(i)
                assert type(got) is type(exc) and str(got) == str(exc), (context, i)
                raised[i] = exc
                continue
            assert i not in failed, (context, i)
            assert tuple(phi[i].tolist()) == want["phi"], (context, i)
            assert tuple(confidence[i].tolist()) == want["confidence"], (context, i)
            assert tuple(np.flatnonzero(uninformative[i]).tolist()) == want["uninformative"]
            for key, got in zip(("errors", "log_errors", "weights", "offdiag_max"), judged):
                assert got[i].tobytes() == np.asarray(want[key], dtype=float).tobytes(), (context, i, key)
        assert set(failed) == set(raised), context
        return raised

    def test_chain_families_match_the_per_size_judging(self, chain_family):
        # every size of a family judged in one pass, bit for bit against judging
        # each tensor alone; a size that raises fails with the same error and text
        ambiguous = set()
        for theta, fraction, overridden, energies in itertools.product(
                (math.pi, 2.2, 1.0, 4.0), (1.0, 0.5, 0.37), (False, True),
                ((0.0, 0.0), (0.3, -0.4))):
            _, Ns, values, log_magnitude, _, failed = chain_family(theta, fraction, overridden, energies)
            sized = [i for i in range(len(Ns)) if i not in failed]  # below an override site: no tensor
            context = (theta, fraction, overridden, energies)
            raised = self.assert_judged_alone(values[sized], log_magnitude[sized], context)
            assert all(type(exc) is AmbiguousPointerError for exc in raised.values()), context
            ambiguous |= {(theta, fraction, Ns[sized[i]]) for i in raised}
        assert {(1.0, 1.0, N) for N in chain_family(1.0, 1.0, False, (0.0, 0.0))[1] if N >= 400} <= ambiguous
        assert {(theta, fraction) for theta, fraction, _ in ambiguous} >= {(math.pi, 0.37), (2.2, 0.5)}

    def test_weight_sum_off_by_1e_9_fails_that_tensor_alone(self):
        spec = ChainSpec(N=4, m0=0.6, theta=2.2, energies=(0.3, -0.4))
        log_magnitude, phase, _, _ = traversal_family(spec, 1.0, [50, 100, 200])
        values = lc_values(log_magnitude, phase)
        values[1, 0, 0] *= 1 + 1e-9
        values[1, 1, 1] *= 1 + 1e-9
        raised = self.assert_judged_alone(values, log_magnitude, "heavy")
        assert list(raised) == [1] and type(raised[1]) is NumericalError
        assert str(raised[1]).startswith("pointer weights sum to 1.000000001")

    def test_negative_complementary_mass_is_no_error(self):
        # a roundoff-negative mass off the assigned cell clamps the error to 0
        spec = ChainSpec(N=4, m0=0.6, theta=2.2, energies=(0.3, -0.4))
        log_magnitude, phase, _, _ = traversal_family(spec, 1.0, [50, 100])
        values = lc_values(log_magnitude, phase)
        values[1, 0, 0, np.argmin(values[1, 0, 0].real)] = -1e-13
        assert not self.assert_judged_alone(values, log_magnitude, "negative")
        errors, *_ = judge_stack(values, log_magnitude, self.AMPLITUDES)
        assert errors[1, 0] == 0.0 < errors[0, 0]


class TestExactCondition:
    def test_ideal_tensor_satisfies(self, rng):
        phi = tuple(rng.permutation(3))
        f = ideal_f(phi)
        pm = find_pointer_map(f)
        res = check_exact_condition(f, pm)
        assert res.satisfied
        assert res.residual == 0.0
        assert res.ideal_residual == 0.0
        assert max(residuals(f, pm)) < math.log(1e-12)

    def test_unevolved_concentrated_state_fails(self):
        # before any traversal both sectors sit in the same cell
        rows = [[0.0272, 0.9728], [0.0272, 0.9728]]
        f = diag_f(rows)
        for phi in ((0, 1), (1, 0)):
            pm = PointerMap(phi=phi, confidence=(0.0, 0.0))
            res = check_exact_condition(f, pm)
            assert not res.satisfied

    def test_finite_chain_close_but_not_exact(self):
        spec = ChainSpec(N=8, m0=0.9)
        micro, app = build_dense(spec)
        f = core.f_tensor(core.evolve_sectors(micro, app, spec.t), app.cells)
        pm = find_pointer_map(f)
        res = check_exact_condition(f, pm)
        assert not res.satisfied
        assert res.residual < 0.01

    def test_exact_diagonal_forces_ideal_form(self, rng):
        # positivity pins every other entry once the assigned mass is 1
        for _ in range(20):
            phi = tuple(int(x) for x in rng.permutation(3))
            f = gram_tensor(phi, delta=0.0, rng=rng)
            pm = find_pointer_map(f)
            res = check_exact_condition(f, pm)
            assert res.satisfied
            assert np.abs(f.values - ideal_tensor(pm)).max() < 1e-12

    def test_exact_diagonal_with_stray_coherence_is_invalid(self):
        values = ideal_f([0, 1]).values.copy()
        values[0, 1, 0] = 0.1
        values[1, 0, 0] = 0.1
        f = core.FTensor(values=values, t=1.0)
        assert not core.check_f_properties(f).passed


def trace_norm_residuals(f, pm, c):
    """The residuals as ``eigvalsh`` gives the trace norms of ``_residual_matrices``."""
    m_expect, M, live = _residual_matrices(f, pm, c)
    return (np.abs(np.linalg.eigvalsh(m_expect)).sum(),
            np.abs(np.linalg.eigvalsh(M[live])).sum(axis=1).max(initial=0.0))


def assert_log_close(got, ref, rel=1e-12):
    # an exact zero must read -inf; anything else must match in relative terms
    if ref == 0.0:
        assert got == -np.inf
    else:
        assert math.exp(got) == pytest.approx(ref, rel=rel, abs=0.0)


def log_trace_of(spec: ChainSpec, fraction: float) -> np.ndarray:
    """The chain's ``(2, 2)`` log trace products, from ``traversal_family`` at its own size."""
    return traversal_family(spec, fraction, [spec.N])[2][0]


def chain_cases():
    for N in (1, 2, 5, 8, 13, 21, 34, 60):
        for theta in (math.pi, 2.9, 2.2, 1.7):
            for fraction in (1.0, 0.75, 0.5):
                spec = ChainSpec(N=N, m0=0.6, theta=theta, energies=(0.3, -0.4))
                f = factorized_f_tensor(spec, fraction)
                try:
                    pm = find_pointer_map(f)
                except AmbiguousPointerError:
                    continue
                yield spec, fraction, f, pm


CHAIN_AMPLITUDES = ((0.6, 0.8), (0.8, 0.6j), (1.0, 0.0))


class TestReconstructionResiduals:
    def test_closed_form_matches_eigvalsh_on_random_dense_instances(self, rng):
        seen = set()
        for i in range(40):
            micro, app, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
            f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
            pm = find_pointer_map(f)
            c = instances.random_amplitudes(rng, f.n)
            for got, ref in zip(reconstruction_residuals(f, pm, c), trace_norm_residuals(f, pm, c)):
                assert_log_close(got, ref)
            seen.add(f.n)
        assert seen == {2, 3, 4}

    def test_closed_form_matches_eigvalsh_on_chains(self):
        for spec, fraction, f, pm in chain_cases():
            for c in CHAIN_AMPLITUDES:
                for got, ref in zip(reconstruction_residuals(f, pm, c), trace_norm_residuals(f, pm, c)):
                    assert_log_close(got, ref)
                # the chain's own trace products leave the conditional residual alone
                assert (reconstruction_residuals(f, pm, c, log_trace_of(spec, fraction))[1]
                        == reconstruction_residuals(f, pm, c)[1])

    def test_chain_trace_products_match_the_cell_sums(self):
        for spec, fraction, f, pm in chain_cases():
            lt = log_trace_of(spec, fraction)
            total = f.values.sum(axis=2)
            finite = total != 0
            assert np.array_equal(np.isneginf(lt), ~finite)
            assert_allclose(lt[finite], np.log(np.abs(total[finite])), rtol=1e-12, atol=1e-13)

    @staticmethod
    def assert_attained(f, pm, c):
        """The observables ``sign(M)`` reach each reported residual: it is the supremum."""
        log_expect, log_cond = reconstruction_residuals(f, pm, c)
        m_expect, M, live = _residual_matrices(f, pm, c)

        def sign(m):
            lam, vec = np.linalg.eigh(m)
            return core.ObservableS(matrix=(vec * np.sign(lam)) @ vec.conj().T)

        A = sign(m_expect)
        born = float(np.sum(np.abs(c) ** 2 * np.diag(A.matrix).real))
        assert abs(core.expectation_s(f, c, A) - born) == pytest.approx(math.exp(log_expect), rel=1e-12)
        reached = max(abs(core.conditional_expectation(f, c, sign(M[alpha]), alpha)
                          - sign(M[alpha]).matrix[pm.phi[alpha], pm.phi[alpha]].real)
                      for alpha in np.flatnonzero(live).tolist())
        assert reached == pytest.approx(math.exp(log_cond), rel=1e-12)

    def test_residual_is_attained_on_random_dense_instances(self, rng):
        for i in range(20):
            micro, app, t = instances.random_dense_instance(rng, rotated_cells=bool(i % 2))
            f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
            self.assert_attained(f, find_pointer_map(f), instances.random_amplitudes(rng, f.n))

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_residual_is_attained_on_chains(self, N):
        for fraction in (1.0, 0.5):
            f = factorized_f_tensor(ChainSpec(N=N, m0=0.6, theta=2.2, energies=(0.3, -0.4)), fraction)
            for c in CHAIN_AMPLITUDES[:2]:
                self.assert_attained(f, find_pointer_map(f), np.array(c, dtype=complex))

    @pytest.mark.parametrize("N, theta", [(2000, 2.2), (2000, math.pi), (100_000, math.pi)])
    def test_log_residuals_match_the_decimal_reference(self, N, theta):
        # far below the double floor: the conditional residual near exp(-c N),
        # the expectation one |cos(theta / 2)|^N, exactly 0 at pi
        spec = ChainSpec(N=N, m0=0.6, theta=theta)
        f = factorized_f_tensor(spec)
        got = reconstruction_residuals(f, find_pointer_map(f), (0.6, 0.8), log_trace_of(spec, 1.0))
        ref = decimal_log_residuals(spec, (0.6, 0.8))
        assert np.isfinite(got[1]) and (got[0] == -np.inf) == (theta == math.pi)
        for g, r in zip(got, ref):
            assert g == r or abs(g - r) <= 1e-12 * abs(r), (got, ref)

    def test_null_cells_are_left_out(self):
        # with c = (1, 0), cell 1 weighs 1e-14: conditioned on, its residual
        # would be 2, as all of its weight lies off its microstate; cell 0's is 0
        f = diag_f([[1 - 1e-14, 1e-14], [0.5, 0.5]])
        pm = find_pointer_map(f)
        assert pm.phi == (0, 1)
        assert core.pointer_weights(f, (1.0, 0.0))[1] <= core.WEIGHT_FLOOR
        assert reconstruction_residuals(f, pm, (1.0, 0.0))[1] == -np.inf
        assert trace_norm_residuals(f, pm, (1.0, 0.0))[1] == 0.0


class TestWeakenedCondition:
    def test_ideal_satisfies_any_constant(self):
        f = ideal_f([1, 0])
        pm = find_pointer_map(f)
        for c in (0.1, 1.0, 10.0):
            verdict = check_weakened_condition(f, pm, N=50, c=c, log_residuals=residuals(f, pm))
            assert verdict.satisfied
            assert verdict.errors == (0.0, 0.0)

    def test_fully_polarized_chain_has_zero_error(self):
        for N in (2, 7, 40):
            f = factorized_f_tensor(ChainSpec(N=N, m0=1.0))
            pm = find_pointer_map(f)
            assert tuple(pointer_errors(f.diagonal(), pm.inverse)) == (0.0, 0.0)
            assert check_weakened_condition(f, pm, N=N, c=5.0, log_residuals=residuals(f, pm)).satisfied

    def test_chain_satisfies_half_analytic_rate(self):
        N = 200
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        pm = find_pointer_map(f)
        verdict = check_weakened_condition(f, pm, N=N, c=BOUNDARY_RATE / 2, log_residuals=residuals(f, pm))
        assert verdict.satisfied
        assert max(verdict.errors) <= math.exp(-BOUNDARY_RATE / 2 * N)

    def test_underflowed_errors_still_break_the_bound(self):
        # at N = 5000 the pointer error (about exp(-1115)) and exp(-c N) both
        # underflow to 0.0; the verdict must come from the logs, not 0 <= 0
        N = 5000
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        pm = find_pointer_map(f)
        res = residuals(f, pm)
        assert pointer_errors(f.diagonal(), pm.inverse).max() == 0.0
        assert not check_weakened_condition(f, pm, N=N, c=2 * BOUNDARY_RATE, log_residuals=res).satisfied
        assert check_weakened_condition(f, pm, N=N, c=BOUNDARY_RATE / 2, log_residuals=res).satisfied
        log_eps = log_pointer_errors(f.log_magnitude, pm.inverse).max()
        at_the_rate = -log_eps / N
        assert check_weakened_condition(f, pm, N=N, c=at_the_rate * (1 - 1e-9), log_residuals=res).satisfied
        assert not check_weakened_condition(f, pm, N=N, c=at_the_rate * (1 + 1e-9), log_residuals=res).satisfied

    def test_precondition_checks(self):
        f = ideal_f([0, 1])
        pm = find_pointer_map(f)
        with pytest.raises(PreconditionError):
            check_weakened_condition(f, pm, N=0, c=1.0, log_residuals=residuals(f, pm))
        with pytest.raises(PreconditionError):
            check_weakened_condition(f, pm, N=10, c=0.0, log_residuals=residuals(f, pm))


class TestDecayFit:
    def test_exact_exponential_recovered(self):
        c_true = 0.3
        sweep = []
        for N in (50, 100, 200, 400, 800):
            f = error_tensor(math.exp(-c_true * N))
            sweep.append((N, f, PointerMap(phi=(0, 1), confidence=(1.0, 1.0))))
        fit = fit_decay_rate(fit_points(sweep))
        assert abs(fit.c - c_true) / c_true < 1e-6
        assert fit.r_squared > 1 - 1e-12
        assert fit.is_exponential()

    @pytest.mark.parametrize("r_squared, exponential", [(0.99 - 1e-6, False), (0.99 + 1e-6, True)])
    def test_r_squared_gate_at_0_99(self, r_squared, exponential):
        # four sizes on a line of slope -0.01 with residuals a * (1, -1, -1, 1), orthogonal
        # to the line: r^2 = 5 / (5 + 4 a^2), set a hair either side of the gate at 0.99
        a = math.sqrt((5.0 / r_squared - 5.0) / 4.0)
        fit = fit_decay_rate([(N, -0.01 * N + a * e) for N, e in zip((100, 200, 300, 400), (1, -1, -1, 1))])
        assert fit.slope == pytest.approx(-0.01, rel=1e-12)
        assert fit.r_squared == pytest.approx(r_squared, abs=1e-12)
        assert fit.is_exponential() == exponential

    def test_power_law_flagged_non_exponential(self):
        sweep = []
        for N in (50, 100, 200, 400, 800):
            f = error_tensor(1.0 / N)
            sweep.append((N, f, PointerMap(phi=(0, 1), confidence=(1.0, 1.0))))
        fit = fit_decay_rate(fit_points(sweep))
        assert fit.r_squared < 0.95
        assert not fit.is_exponential()

    def test_zero_error_points_excluded(self):
        pm = PointerMap(phi=(0, 1), confidence=(1.0, 1.0))
        sweep = [(N, error_tensor(math.exp(-0.2 * N)), pm) for N in (50, 100, 200, 400)]
        sweep.append((800, ideal_f([0, 1]), pm))
        with pytest.warns(UserWarning, match="zero pointer error"):
            fit = fit_decay_rate(fit_points(sweep))
        assert fit.excluded == (800,) and fit.used == (50, 100, 200, 400)
        assert abs(fit.c - 0.2) / 0.2 < 1e-6

    def test_nan_error_points_excluded(self):
        # a NaN max log error is excluded with a warning, as a zero error is:
        # used plus excluded are the points given
        points = [(50, math.nan), (100, -10.0), (200, -20.0), (400, -40.0), (800, -80.0)]
        with pytest.warns(UserWarning, match="N=50 has NaN pointer error; excluded from the fit"):
            fit = fit_decay_rate(points)
        assert fit.excluded == (50,) and fit.used == (100, 200, 400, 800)
        assert abs(fit.c - 0.1) <= 1e-15 and fit.r_squared == 1.0

    def test_too_few_points(self):
        pm = PointerMap(phi=(0, 1), confidence=(1.0, 1.0))
        sweep = [(N, error_tensor(math.exp(-0.2 * N)), pm) for N in (50, 100, 200)]
        with pytest.raises(PreconditionError):
            fit_decay_rate(fit_points(sweep))

    def test_insufficient_span(self):
        pm = PointerMap(phi=(0, 1), confidence=(1.0, 1.0))
        sweep = [(N, error_tensor(math.exp(-0.2 * N)), pm) for N in (50, 60, 70, 80)]
        with pytest.raises(PreconditionError):
            fit_decay_rate(fit_points(sweep))

    def test_zero_points_leaving_too_few(self):
        pm = PointerMap(phi=(0, 1), confidence=(1.0, 1.0))
        sweep = [(N, ideal_f([0, 1]), pm) for N in (50, 100, 200, 400)]
        sweep.append((800, error_tensor(1e-3), pm))
        with pytest.warns(UserWarning), pytest.raises(FitError):
            fit_decay_rate(fit_points(sweep))

    def test_chain_fit_matches_concentration_gap(self):
        fit = fit_decay_rate(fit_points(chain_sweep([100, 200, 400, 800])))
        assert fit.is_exponential()
        assert abs(fit.c - BOUNDARY_RATE) / BOUNDARY_RATE < 0.15


class TestMonotoneInformation:
    def test_error_non_increasing_in_chain_size(self):
        eps = [pointer_errors(f.diagonal(), pm.inverse).max() for _, f, pm in
               chain_sweep(range(50, 501, 50))]
        assert all(b <= a for a, b in zip(eps, eps[1:]))


class TestStability:
    @staticmethod
    def run_model(N, overrides):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6, site_overrides=overrides))
        return f, find_pointer_map(f)

    @classmethod
    def stability(cls, perturbation, Ns):
        base = [(N, *cls.run_model(N, None)) for N in Ns]
        perturbed = [(N, *cls.run_model(N, perturbation or None)) for N in Ns]
        return stability_verdict(fit_decay_rate(fit_points(base)),
                                 fit_decay_rate(fit_points(perturbed)), fit_points(perturbed))

    def test_empty_perturbation_identical(self):
        Ns = [50, 100, 200, 400]
        base, perturbed = (fit_decay_rate(fit_points([(N, *self.run_model(N, overrides)) for N in Ns]))
                           for overrides in (None, {}))
        assert base == perturbed
        result = self.stability({}, Ns)
        assert result.relative_change == 0.0
        assert result.passed

    def test_two_site_flip_within_band(self):
        pert = {0: polarized_site(-0.6), 1: polarized_site(-0.6)}
        result = self.stability(pert, [50, 100, 200, 400, 800])
        assert result.within_band
        assert result.bound_satisfied
        assert result.passed

    def test_two_site_depolarize_within_band(self):
        pert = {0: np.eye(2, dtype=complex) / 2, 1: np.eye(2, dtype=complex) / 2}
        result = self.stability(pert, [50, 100, 200, 400, 800])
        assert result.passed

    def test_verdict_from_explicit_fits(self):
        Ns = [50, 100, 200, 400, 800]
        pert = {0: polarized_site(-0.6), 1: polarized_site(-0.6)}
        perturbed = [(N, *self.run_model(N, pert)) for N in Ns]
        # a constant twice the fitted one leaves the band and breaks the bound
        fit = fit_decay_rate(fit_points(perturbed))
        steep = stability_verdict(fit, dataclasses.replace(fit, slope=2 * fit.slope),
                                  fit_points(perturbed))
        assert steep.relative_change == pytest.approx(1.0, rel=1e-12)
        assert not steep.within_band and not steep.bound_satisfied and not steep.passed

    def test_non_exponential_base_fit_fails(self):
        # a base fit under the r^2 gate measures no decay: the verdict fails though
        # the perturbed fit is the same, so in band and within its bound
        points = fit_points([(N, *self.run_model(N, None)) for N in [50, 100, 200, 400, 800]])
        fit = fit_decay_rate(points)
        assert stability_verdict(fit, fit, points).passed
        result = stability_verdict(dataclasses.replace(fit, r_squared=0.5), fit, points)
        assert result.within_band and result.bound_satisfied
        assert not result.exponential and not result.passed


class TestPropositionDrawBreadth:
    def test_ideal_form_reconstructions_over_many_draws(self, rng):
        # one perfect tensor, one hundred amplitude/observable draws
        phi = (2, 0, 1)
        f = ideal_f(phi)
        pm = find_pointer_map(f)
        from pointer_cell_sim import core
        from pointer_cell_sim.instances import random_amplitudes, random_hermitian
        for _ in range(100):
            c = random_amplitudes(rng, 3, floor=0.05)
            A = core.ObservableS(matrix=random_hermitian(rng, 3))
            born = float(np.sum(np.abs(c) ** 2 * np.diag(A.matrix).real))
            assert abs(core.expectation_s(f, c, A) - born) <= 1e-12
            for alpha, r in enumerate(phi):
                got = core.conditional_expectation(f, c, A, alpha)
                assert abs(got - A.matrix[r, r].real) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_relabeling_invariance_random_tensors(self, n, rng):
        for _ in range(10):
            f = gram_tensor(tuple(int(x) for x in rng.permutation(n)),
                            delta=float(rng.uniform(0.0, 0.2)), rng=rng)
            pm = find_pointer_map(f)
            perm = rng.permutation(n)
            relabeled = core.FTensor(values=f.values[:, :, perm], t=f.t)
            pm2 = find_pointer_map(relabeled)
            assert pm2.phi == tuple(pm.phi[p] for p in perm)
