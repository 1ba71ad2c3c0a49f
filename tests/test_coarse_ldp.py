import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim.coarse_ldp import (
    BernoulliProduct,
    IntensiveObservable,
    bernoulli_rate,
    cell_log_probability,
    cell_probability,
    check_ldp_conditions,
    coarse_grain,
    estimate_rate,
    perturbation_residual_bound,
)
from pointer_cell_sim.errors import PreconditionError, StructuralError

from oracles import (
    binom_range_log,
    chain_minus_cell_counts,
    chain_plus_cell_counts,
    exact_log,
    kl_bernoulli,
    poisson_binomial_fraction,
)


class TestCoarseGrain:
    def test_four_site_chain_example(self):
        obs = IntensiveObservable.magnetization_chain(4)
        spec, partition = coarse_grain(obs, 2)
        assert spec.edges == (-1.0, 0.0, 1.0)
        # boundary value 0 joins the closed-left "+" interval
        assert spec.bounds == (0, 2, 5)
        assert partition is not None
        assert partition.rank(1) == math.comb(4, 2) + math.comb(4, 3) + math.comb(4, 4)
        assert partition.rank(0) == 2 ** 4 - 11
        # cell means average distinct spectrum points, not dimensions
        assert spec.cell_means[1] == pytest.approx((0.0 + 0.5 + 1.0) / 3)
        assert spec.cell_means[0] == pytest.approx((-1.0 - 0.5) / 2)

    def test_single_cell_is_identity(self):
        obs = IntensiveObservable.magnetization_chain(3)
        spec, partition = coarse_grain(obs, 1)
        assert partition.rank(0) == 8
        assert spec.cell_means[0] == pytest.approx(np.mean(obs.spectrum))

    def test_empty_cells_warn(self):
        obs = IntensiveObservable(spectrum=(0.0, 1.0), multiplicity=(1, 1), N=2)
        with pytest.warns(UserWarning, match="no spectrum points"):
            spec, _ = coarse_grain(obs, 5)
        assert spec.empty_cells != ()

    @pytest.mark.parametrize("N", range(1, 13))
    def test_every_point_in_exactly_one_cell(self, N):
        obs = IntensiveObservable.magnetization_chain(N)
        for n_cells in (1, 2, 3):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty cells are fine here
                spec, _ = coarse_grain(obs, n_cells)
            # the index ranges tile the spectrum in order
            assert spec.bounds[0] == 0 and spec.bounds[-1] == len(obs.spectrum)
            assert all(lo <= hi for lo, hi in zip(spec.bounds, spec.bounds[1:]))
            for a in range(spec.n_cells):
                for i in range(spec.bounds[a], spec.bounds[a + 1]):
                    assert spec.cell_of_value(obs.spectrum[i]) == a

    @pytest.mark.parametrize("N", [2, 5, 9, 12])
    def test_partition_satisfies_core_identities(self, N):
        obs = IntensiveObservable.magnetization_chain(N)
        spec, partition = coarse_grain(obs, 2)
        # PhaseCellPartition validates orthogonality and completeness on build
        assert partition.cell_count == 2
        assert partition.rank(0) + partition.rank(1) == 2 ** N

    def test_multiplicity_rule_counts(self):
        obs = IntensiveObservable.magnetization_chain(6)
        assert obs.multiplicities() == tuple(math.comb(6, j) for j in range(7))

    def test_gap_warning_for_sparse_spectrum(self):
        obs = IntensiveObservable(spectrum=(0.0, 0.9, 1.0), multiplicity=(1, 1, 1), N=50)
        with pytest.warns(UserWarning, match="gap"):
            coarse_grain(obs, 2)


class TestCellProbability:
    def test_binomial_plus_cell_literal(self):
        obs = IntensiveObservable.magnetization_chain(4)
        spec, _ = coarse_grain(obs, 2)
        state = BernoulliProduct.homogeneous(4, 0.8)
        probs = cell_probability(state, spec)
        assert probs[1] == pytest.approx(0.9728, abs=1e-12)
        assert probs[0] == pytest.approx(0.0272, abs=1e-12)

    def test_deterministic_state(self):
        obs = IntensiveObservable.magnetization_chain(5)
        spec, _ = coarse_grain(obs, 2)
        state = BernoulliProduct.homogeneous(5, 1.0)
        probs = cell_probability(state, spec)
        assert probs[1] == 1.0 and probs[0] == 0.0

    def test_dense_trace_agrees_with_product_path(self, rng):
        N = 4
        obs = IntensiveObservable.magnetization_chain(N)
        spec, partition = coarse_grain(obs, 2)
        p = 0.73
        site = np.diag([p, 1 - p]).astype(complex)
        rho = site
        for _ in range(N - 1):
            rho = np.kron(rho, site)
        dense = cell_probability(rho, partition)
        product = cell_probability(BernoulliProduct.homogeneous(N, p), spec)
        assert_allclose(dense, product, atol=1e-12)

    def test_heterogeneous_sites_match_exact_enumeration(self):
        ps = [Fraction(4, 5), Fraction(4, 5), Fraction(1, 2), Fraction(3, 10),
              Fraction(4, 5), Fraction(9, 10)]
        N = len(ps)
        dist = poisson_binomial_fraction(ps)
        obs = IntensiveObservable.magnetization_chain(N)
        spec, _ = coarse_grain(obs, 2)
        state = BernoulliProduct(up_probs=np.array([float(p) for p in ps]))
        probs = cell_probability(state, spec)
        plus = float(sum(dist[j] for j in range(N + 1) if 2 * j - N >= 0))
        assert probs[1] == pytest.approx(plus, rel=1e-12)

    def test_log_pmf_far_below_float_floor(self):
        # the "-" cell of 4000 sites at p = 0.8 is way below exp(-745), yet
        # finite in log space and exact
        N = 4000
        spec, _ = coarse_grain(IntensiveObservable.magnetization_chain(N), 2)
        got = cell_log_probability(BernoulliProduct.homogeneous(N, 0.8), spec)
        assert np.isfinite(got[0]) and got[0] < -745
        ref = binom_range_log(N, 0.8, chain_minus_cell_counts(N))
        assert abs(got[0] - ref) <= 1e-12 * abs(ref)

    def test_wrong_partition_length_rejected(self):
        spec, _ = coarse_grain(IntensiveObservable.magnetization_chain(5), 2)
        with pytest.raises(StructuralError):
            cell_log_probability(BernoulliProduct.homogeneous(4, 0.5), spec)


class TestRateFunction:
    def test_rate_zero_at_the_mean(self):
        assert bernoulli_rate(2 * 0.8 - 1.0, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_rate_closed_form(self):
        # independent re-derivation of the relative entropy
        for m in (-0.6, -0.2, 0.0, 0.4):
            q = (1 + m) / 2
            assert bernoulli_rate(m, 0.8) == pytest.approx(-kl_bernoulli(q, 0.8), abs=1e-14)

    def test_estimate_converges_to_analytic(self):
        est = estimate_rate(lambda N: BernoulliProduct.homogeneous(N, 0.8),
                            grid=[-0.2], N_values=[100, 200, 400, 800])
        analytic = -kl_bernoulli(0.4, 0.8)
        final = est.samples[-1, 0]
        assert abs(final - analytic) < 0.02
        residuals = np.abs(est.samples[:, 0] - analytic)
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_rate_curve_concave_with_unique_max(self):
        grid = np.linspace(-0.95, 0.95, 39)
        curve = bernoulli_rate(grid, 0.8)
        second = np.diff(curve, 2)
        assert (second < 1e-12).all()
        assert int(np.argmax(curve)) == int(np.argmin(np.abs(grid - 0.6)))

    def test_precondition_errors(self):
        fam = lambda N: BernoulliProduct.homogeneous(N, 0.8)
        with pytest.raises(PreconditionError):
            estimate_rate(fam, [-0.2], [100, 200])
        with pytest.raises(PreconditionError):
            estimate_rate(fam, [-0.2], [100, 200, 300])

    def test_zero_probability_point_dropped(self):
        # one site pinned down makes the all-up window impossible
        def family(N):
            return BernoulliProduct.homogeneous(N, 0.9).with_overrides({0: 0.0})

        with pytest.warns(UserWarning, match="zero probability"):
            est = estimate_rate(family, grid=[1.0], N_values=[8, 16, 32])
        assert est.dropped.all()


class TestFactorLayout:
    """Windows and cells summed from the modal binomial block and the rest."""

    GRID = (-0.8, -0.3, 0.0, 0.025, 0.45, 0.9)

    @staticmethod
    def _states(r: int, theta: float) -> dict[int, BernoulliProduct]:
        # the flip and depolarize site edits of the perturb command
        from pointer_cell_sim.coleman_hepp import ChainSpec, diagonal_sector_product, polarized_site

        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        return {N: BernoulliProduct(diagonal_sector_product(
                    ChainSpec(N=N, m0=0.6, theta=theta, site_overrides=overrides), r))
                for N in (40, 80, 160)}

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_window_samples_match_exact_poisson_binomial(self, r, theta):
        states = self._states(r, theta)
        est = estimate_rate(states.__getitem__, self.GRID, sorted(states))
        assert not est.dropped.any()
        for i, (N, state) in enumerate(sorted(states.items())):
            dist = poisson_binomial_fraction([Fraction(p) for p in state.up_probs])
            for k, m in enumerate(self.GRID):
                # the window is |m_j - m| <= 1 / N, half the spectrum gap
                centre = N * (1 + Fraction(str(m)))
                mass = sum(dist[j] for j in range(N + 1) if abs(2 * j - centre) <= 1)
                ref = exact_log(mass) / N
                assert abs(est.samples[i, k] - ref) <= 1e-12 * abs(ref), (N, m)

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_cells_match_exact_poisson_binomial(self, r, theta):
        for N, state in self._states(r, theta).items():
            spec, _ = coarse_grain(IntensiveObservable.magnetization_chain(N, with_basis_map=False), 2)
            got = cell_log_probability(state, spec)
            dist = poisson_binomial_fraction([Fraction(p) for p in state.up_probs])
            for cell, counts in enumerate((chain_minus_cell_counts(N), chain_plus_cell_counts(N))):
                ref = exact_log(sum(dist[j] for j in counts))
                # relative to the probability: the log difference
                assert abs(got[cell] - ref) <= 1e-12, (N, cell)


class TestLdpConditions:
    @staticmethod
    def _chain_setup(m0=0.6, grid=None, overrides=None):
        from pointer_cell_sim.coleman_hepp import ChainSpec, diagonal_sector_product

        grid = grid if grid is not None else [-0.9, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.9]
        Ns = [100, 200, 400, 800]

        def family(r):
            def make(N):
                spec = ChainSpec(N=N, m0=m0, site_overrides=overrides)
                return BernoulliProduct(diagonal_sector_product(spec, r))
            return make

        estimates = [estimate_rate(family(r), grid, Ns) for r in range(2)]
        obs = IntensiveObservable.magnetization_chain(Ns[0], with_basis_map=False)
        cells, _ = coarse_grain(obs, 2)
        return estimates, cells

    def test_chain_conditions_pass(self):
        estimates, cells = self._chain_setup()
        report = check_ldp_conditions(estimates, cells, pointer=(1, 0))
        assert report.unique_max and report.interior and report.distinct_cells
        assert report.maximizers == pytest.approx((0.6, -0.6), abs=1e-12)
        # concentration gap equals the boundary relative entropy
        assert report.gap == pytest.approx(kl_bernoulli(0.5, 0.8), abs=1e-12)
        assert report.passed

    def test_localized_perturbation_preserves_rates(self):
        from pointer_cell_sim.coleman_hepp import ChainSpec, diagonal_sector_product, polarized_site

        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        estimates, cells = self._chain_setup()
        perturbed, _ = self._chain_setup(overrides=overrides)
        base = BernoulliProduct(diagonal_sector_product(ChainSpec(N=100, m0=0.6), 0))
        pert = BernoulliProduct(diagonal_sector_product(
            ChainSpec(N=100, m0=0.6, site_overrides=overrides), 0))
        bound = perturbation_residual_bound(base, pert) / 100
        report = check_ldp_conditions(estimates, cells, pointer=(1, 0),
                                      perturbed=perturbed, stability_bound=bound)
        assert report.stability_residual <= bound
        assert report.passed

    def test_global_perturbation_fails_stability(self):
        estimates, cells = self._chain_setup(m0=0.6)
        # a global polarisation change is not a localized edit: the rate
        # curves themselves move by O(1)
        shifted, _ = self._chain_setup(m0=0.4)
        report = check_ldp_conditions(estimates, cells, pointer=(1, 0),
                                      perturbed=shifted, stability_bound=4.0 / 100)
        assert not report.stability_ok
        assert not report.passed

    def test_boundary_maximizer_fails_interiority(self):
        est = estimate_rate(lambda N: BernoulliProduct.homogeneous(N, 0.5),
                            grid=[-0.5, 0.0, 0.5], N_values=[40, 80, 160])
        obs = IntensiveObservable.magnetization_chain(40, with_basis_map=False)
        cells, _ = coarse_grain(obs, 2)
        report = check_ldp_conditions([est, est], cells, pointer=(1, 0))
        assert not report.interior
        assert not report.passed


class TestPerturbationBound:
    def test_bound_matches_hand_computation(self):
        base = BernoulliProduct.homogeneous(10, 0.8)
        pert = base.with_overrides({3: 0.2})
        got = perturbation_residual_bound(base, pert)
        assert got == pytest.approx(abs(math.log(0.8 / 0.2)), abs=1e-14)

    def test_identical_states_have_zero_bound(self):
        base = BernoulliProduct.homogeneous(6, 0.7)
        assert perturbation_residual_bound(base, base) == 0.0
