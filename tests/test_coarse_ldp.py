import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim import coarse_ldp, logspace
from pointer_cell_sim.coarse_ldp import (
    BernoulliProduct,
    CellPartitionSpec,
    RateFunctionEstimate,
    bernoulli_rate,
    cell_log_probability,
    check_ldp_conditions,
    estimate_rate,
    perturbation_residual_bound,
)
from pointer_cell_sim.coleman_hepp import chain_cells, sign_cells
from pointer_cell_sim.core import PhaseCellPartition
from pointer_cell_sim.errors import PreconditionError, StructuralError
from pointer_cell_sim.logspace import binomial_log_pmf

from oracles import (
    binom_range_log,
    chain_minus_cell_counts,
    chain_plus_cell_counts,
    exact_log,
    kl_bernoulli,
    poisson_binomial_fraction,
    scalar_rate_samples,
    sign_cells_reference,
)


def site_probs(state: BernoulliProduct) -> np.ndarray:
    """The per-site up-probabilities of a product state, one float per site."""
    probs = np.full(state.N, state.p)
    probs[list(state.overrides)] = list(state.overrides.values())
    return probs


class TestSignCells:
    def test_four_site_chain_example(self):
        spec, partition = chain_cells(4)
        assert spec.edges == (-1.0, 0.0, 1.0)
        # boundary value 0 joins the closed-left "+" interval
        assert spec.bounds == (0, 2, 5)
        assert partition.labels == spec.labels
        assert partition.members(1).size == math.comb(4, 2) + math.comb(4, 3) + math.comb(4, 4)
        assert partition.members(0).size == 2 ** 4 - 11

    def test_single_cell_is_identity(self):
        partition = PhaseCellPartition(np.zeros(8, dtype=int), 1)
        assert partition.members(0).size == 8
        assert np.array_equal(partition.as_matrix(0), np.eye(8))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_every_point_in_exactly_one_cell(self, N):
        spec = sign_cells(N)
        spectrum = (2 * np.arange(N + 1) - N) / N
        # the index ranges tile the spectrum in order
        assert spec.bounds[0] == 0 and spec.bounds[-1] == len(spectrum)
        assert all(lo <= hi for lo, hi in zip(spec.bounds, spec.bounds[1:]))
        for a in range(spec.n_cells):
            for i in range(spec.bounds[a], spec.bounds[a + 1]):
                assert spec.cell_of_value(spectrum[i]) == a

    @pytest.mark.parametrize("N", [2, 5, 9, 12])
    def test_partition_satisfies_core_identities(self, N):
        _, cell_of_point, _ = sign_cells_reference(N)
        _, partition = chain_cells(N)
        # every basis index lies in exactly one cell, so the projectors are
        # orthogonal and complete; each cell holds the up counts of its spectrum points
        assert partition.cell_count == 2 and partition.dim == 2 ** N
        assert partition.members(0).size + partition.members(1).size == 2 ** N
        for a in range(2):
            ups = [N - bin(int(i)).count("1") for i in partition.members(a)]
            assert all(cell_of_point[j] == a for j in ups)


class TestCellProbability:
    def test_binomial_plus_cell_literal(self):
        probs = np.exp(cell_log_probability(BernoulliProduct(4, 0.8), sign_cells(4)))
        assert probs[1] == pytest.approx(0.9728, abs=1e-12)
        assert probs[0] == pytest.approx(0.0272, abs=1e-12)

    def test_deterministic_state(self):
        probs = np.exp(cell_log_probability(BernoulliProduct(5, 1.0), sign_cells(5)))
        assert probs[1] == 1.0 and probs[0] == 0.0

    def test_dense_trace_agrees_with_product_path(self, rng):
        N = 4
        spec, partition = chain_cells(N)
        p = 0.73
        site = np.diag([p, 1 - p]).astype(complex)
        rho = site
        for _ in range(N - 1):
            rho = np.kron(rho, site)
        dense = partition.trace_all(rho).real
        product = np.exp(cell_log_probability(BernoulliProduct(N, p), spec))
        assert_allclose(dense, product, atol=1e-12)

    def test_heterogeneous_sites_match_exact_enumeration(self):
        state = BernoulliProduct(6, 0.8, {2: 0.5, 3: 0.3, 5: 0.9})
        N = state.N
        dist = poisson_binomial_fraction([Fraction(p) for p in site_probs(state)])
        probs = np.exp(cell_log_probability(state, sign_cells(N)))
        plus = float(sum(dist[j] for j in range(N + 1) if 2 * j - N >= 0))
        assert probs[1] == pytest.approx(plus, rel=1e-12)

    def test_log_pmf_far_below_float_floor(self):
        # the "-" cell of 4000 sites at p = 0.8 is way below exp(-745), yet
        # finite in log space and exact
        N = 4000
        got = cell_log_probability(BernoulliProduct(N, 0.8), sign_cells(N))
        assert np.isfinite(got[0]) and got[0] < -745
        ref = binom_range_log(N, 0.8, chain_minus_cell_counts(N))
        assert abs(got[0] - ref) <= 1e-12 * abs(ref)

    def test_wrong_partition_length_rejected(self):
        with pytest.raises(StructuralError):
            cell_log_probability(BernoulliProduct(4, 0.5), sign_cells(5))
        # product-state cells are binomial tails: a prefix and a suffix only
        three = CellPartitionSpec(edges=(-1.0, -1 / 3, 1 / 3, 1.0), bounds=(0, 10, 20, 31),
                                  labels=("0", "1", "2"))
        with pytest.raises(StructuralError, match="two-cell"):
            cell_log_probability(BernoulliProduct(30, 0.8), three)


class TestRateFunction:
    def test_rate_zero_at_the_mean(self):
        assert bernoulli_rate(2 * 0.8 - 1.0, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_rate_closed_form(self):
        # independent re-derivation of the relative entropy
        for m in (-0.6, -0.2, 0.0, 0.4):
            q = (1 + m) / 2
            assert bernoulli_rate(m, 0.8) == pytest.approx(-kl_bernoulli(q, 0.8), abs=1e-14)

    def test_estimate_converges_to_analytic(self):
        est = estimate_rate(lambda N: BernoulliProduct(N, 0.8),
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
        fam = lambda N: BernoulliProduct(N, 0.8)
        with pytest.raises(PreconditionError):
            estimate_rate(fam, [-0.2], [100, 200])
        with pytest.raises(PreconditionError):
            estimate_rate(fam, [-0.2], [100, 200, 300])

    def test_zero_probability_point_dropped(self):
        # one site pinned down makes the all-up window impossible
        def family(N):
            return BernoulliProduct(N, 0.9, {0: 0.0})

        with pytest.warns(UserWarning, match="zero probability"):
            est = estimate_rate(family, grid=[1.0], N_values=[8, 16, 32])
        assert est.dropped.all()


class TestFactorLayout:
    """Windows and cells summed from the base binomial block and the overrides."""

    GRID = (-0.8, -0.3, 0.0, 0.025, 0.45, 0.9)

    @staticmethod
    def _family(r: int, theta: float):
        # the flip and depolarize site edits of the perturb command
        from pointer_cell_sim.coleman_hepp import ChainSpec, diagonal_sector_product, polarized_site

        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        return lambda N: diagonal_sector_product(
            ChainSpec(N=N, m0=0.6, theta=theta, site_overrides=overrides), r)

    @classmethod
    def _states(cls, r: int, theta: float, Ns=(40, 80, 160)) -> dict[int, BernoulliProduct]:
        family = cls._family(r, theta)
        return {N: family(N) for N in Ns}

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_window_samples_match_exact_poisson_binomial(self, r, theta):
        states = self._states(r, theta)
        est = estimate_rate(states.__getitem__, self.GRID, sorted(states))
        assert not est.dropped.any()
        for i, (N, state) in enumerate(sorted(states.items())):
            dist = poisson_binomial_fraction([Fraction(p) for p in site_probs(state)])
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
            got = cell_log_probability(state, sign_cells(N))
            dist = poisson_binomial_fraction([Fraction(p) for p in site_probs(state)])
            for cell, counts in enumerate((chain_minus_cell_counts(N), chain_plus_cell_counts(N))):
                ref = exact_log(sum(dist[j] for j in counts))
                # relative to the probability: the log difference
                assert abs(got[cell] - ref) <= 1e-12, (N, cell)


class TestWindowsAgainstScalarSum:
    """``estimate_rate`` gives the bits of the one-window-at-a-time scalar sum."""

    FAMILIES = {
        "homogeneous 0.8": (0.8, {}),
        "homogeneous 0.5": (0.5, {}),
        # certain sites: up counts 1 .. N - 1 only, so the end windows drop
        "q = 0 and q = 1": (0.7, {0: 0.0, 1: 1.0, 2: 0.3}),
        "certain sites only": (0.8, {0: 1.0, 3: 1.0, 5: 0.0}),
        # eleven override terms: the sums over i run past eight terms
        "ten overrides": (0.6, {k: (0.0, 0.25, 0.5, 0.9, 1.0)[k % 5] for k in range(10)}),
    }
    SIZES = (8, 12, 40, 1000, 10 ** 5, 10 ** 7, 10 ** 9)
    GRIDS = {
        "ldp grid": (-0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8),
        "ends, unsorted, duplicates": (0.3, -1.0, 0.9, 0.3, 1.0, -0.75, 0.0, 0.0, -1.0),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_bit_for_bit(self, name, grid):
        p, overrides = self.FAMILIES[name]
        grid = self.GRIDS[grid]
        Ns = [N for N in self.SIZES if N > max(overrides, default=0)]

        def family(N):
            return BernoulliProduct(N, p, overrides)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_rate(family, grid, Ns)
        samples, dropped, messages = scalar_rate_samples(family, grid, Ns)
        assert np.array_equal(est.samples, samples, equal_nan=True)
        assert np.array_equal(est.dropped, dropped)
        assert [str(w.message) for w in caught] == messages

    def test_windows_drop_at_small_N_only(self):
        # m = -0.75 is the up count 1 at N = 8, which the certain sites exclude
        p, overrides = self.FAMILIES["certain sites only"]
        with pytest.warns(UserWarning, match="point dropped"):
            est = estimate_rate(lambda N: BernoulliProduct(N, p, overrides), [-1.0, -0.75, 0.0], self.SIZES)
        assert est.dropped[:, 0].all() and not est.dropped[:, 2].any()
        assert est.dropped[0, 1] and not est.dropped[1:, 1].any()


class TestLargeChains:
    """Windows and cells at chain sizes where the base block is never built."""

    LARGE_N = (250_000, 500_000, 1_000_000)

    @staticmethod
    def _linear_log_pmf(state: BernoulliProduct) -> np.ndarray:
        # O(N) reference: the modal block's full vector log-pmf, shifted by
        # each up count of the other sites (exact Poisson-binomial weights)
        probs = site_probs(state)
        values, counts = np.unique(probs, return_counts=True)
        p = float(values[np.argmax(counts)])
        b = binomial_log_pmf(int(counts.max()), p, 1.0 - p)
        others = [Fraction(float(x)) for x in probs if x != p]
        rows = np.full((len(others) + 1, state.N + 1), -np.inf)
        for i, weight in enumerate(poisson_binomial_fraction(others)):
            rows[i, i:i + b.size] = exact_log(weight) + b
        return np.logaddexp.reduce(rows, axis=0)

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_window_samples_match_linear_sum(self, r, theta):
        states = TestFactorLayout._states(r, theta, self.LARGE_N)
        grid = TestFactorLayout.GRID
        est = estimate_rate(states.__getitem__, grid, self.LARGE_N)
        for i, (N, state) in enumerate(sorted(states.items())):
            pmf = self._linear_log_pmf(state)
            j = np.arange(N + 1)
            for k, m in enumerate(grid):
                # |m_j - m| <= 1 / N, with the rounding slack of the window's edges
                ref = np.logaddexp.reduce(pmf[np.abs(2 * j - N * (1 + m)) <= 1 + 1e-9]) / N
                assert abs(est.samples[i, k] - ref) <= 1e-13 * abs(ref), (N, m)

    def test_modal_block_never_materialised(self, monkeypatch):
        sizes = []

        def spy(n, p, q, k=None):
            out = binomial_log_pmf(n, p, q, k)
            if k is None:
                sizes.append(n)  # a whole range, counts 0..n
            sizes.append(len(out) - 1)  # the largest count an array of this length covers
            return out

        monkeypatch.setattr(logspace, "binomial_log_pmf", spy)
        monkeypatch.setattr(coarse_ldp, "binomial_log_pmf", spy, raising=False)
        Ns = (400, 800, 1600)
        for r in range(2):
            estimate_rate(TestFactorLayout._states(r, 2.2, Ns).__getitem__, [-0.3, 0.45], Ns)
        # the flip and depolarize sites are built; the N - 2 bulk sites are not
        assert sizes and not set(sizes) & {N - 2 for N in Ns}

    def test_rate_memory_does_not_grow_with_N(self):
        families = [TestFactorLayout._family(r, 2.2) for r in range(2)]

        def peak(N):
            Ns = (N // 4, N // 2, N)
            for family in families:  # first calls fill module-level caches
                estimate_rate(family, TestFactorLayout.GRID, Ns)
            tracemalloc.start()
            try:
                for family in families:
                    estimate_rate(family, TestFactorLayout.GRID, Ns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10 ** 5), peak(10 ** 9)
        assert large < 2 ** 20
        assert abs(large - small) <= 0.1 * small

    @pytest.mark.parametrize("overrides", [False, True])
    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("N", [100_000, 1_000_000])
    def test_cells_identify_with_the_chain_tensor(self, N, theta, overrides):
        from pointer_cell_sim.coleman_hepp import (
            ChainSpec, chain_cells, diagonal_sector_product, factorized_f_tensor, polarized_site)

        edits = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2} if overrides else None
        spec = ChainSpec(N=N, m0=0.6, theta=theta, site_overrides=edits)
        tensor = factorized_f_tensor(spec)
        cells, _ = chain_cells(N)
        for r in range(2):
            got = cell_log_probability(diagonal_sector_product(spec, r), cells)
            ref = tensor.log_magnitude[r, r]
            assert (np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all(), (r, got, ref)


class TestLdpConditions:
    @staticmethod
    def _chain_setup(m0=0.6, grid=None, overrides=None):
        from pointer_cell_sim.coleman_hepp import ChainSpec, diagonal_sector_product

        grid = grid if grid is not None else [-0.9, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.9]
        Ns = [100, 200, 400, 800]

        def family(r):
            def make(N):
                spec = ChainSpec(N=N, m0=m0, site_overrides=overrides)
                return diagonal_sector_product(spec, r)
            return make

        estimates = [estimate_rate(family(r), grid, Ns) for r in range(2)]
        return estimates, sign_cells(Ns[0])

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
        base = diagonal_sector_product(ChainSpec(N=100, m0=0.6), 0)
        pert = diagonal_sector_product(ChainSpec(N=100, m0=0.6, site_overrides=overrides), 0)
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

    def test_sampled_curve_without_finite_value_refused(self):
        est = RateFunctionEstimate(grid=(-0.5, 0.5), N_values=(40, 80, 160),
                                   samples=np.full((3, 2), np.nan),
                                   dropped=np.ones((3, 2), dtype=bool), analytic=None, p=None)
        with pytest.raises(PreconditionError, match="no finite value"):
            check_ldp_conditions([est, est], sign_cells(40), pointer=(1, 0))

    def test_boundary_maximizer_fails_interiority(self):
        est = estimate_rate(lambda N: BernoulliProduct(N, 0.5),
                            grid=[-0.5, 0.0, 0.5], N_values=[40, 80, 160])
        report = check_ldp_conditions([est, est], sign_cells(40), pointer=(1, 0))
        assert not report.interior
        assert not report.passed


class TestBernoulliProduct:
    def test_size_and_sites_checked(self):
        for N, overrides in ((0, {}), (-1, {}), (4, {4: 0.1}), (4, {-1: 0.1})):
            with pytest.raises(PreconditionError):
                BernoulliProduct(N, 0.5, overrides)

    @pytest.mark.parametrize("p, overrides", [
        (1.2, {}), (-0.1, {}), (math.nan, {}), (0.5, {1: 1.5}), (0.5, {1: -1e-9})])
    def test_probabilities_checked(self, p, overrides):
        with pytest.raises(StructuralError):
            BernoulliProduct(4, p, overrides)

    def test_override_equal_to_base_dropped(self):
        state = BernoulliProduct(5, 0.7, {2: 0.7})
        assert state.overrides == {} and state.homogeneous_p == 0.7
        assert BernoulliProduct(5, 0.7, {2: 0.1}).homogeneous_p is None
        # a state whose every site is overridden alike is homogeneous
        assert BernoulliProduct(2, 0.7, {0: 0.1, 1: 0.1}).homogeneous_p == 0.1


class TestPerturbationBound:
    @staticmethod
    def _site_by_site(base: BernoulliProduct, pert: BernoulliProduct) -> float:
        # the bound summed over every site of the two per-site lists
        total = 0.0
        for p0, p1 in zip(site_probs(base), site_probs(pert)):
            if p0 != p1:
                total += max(abs(math.log(a / b))
                             for a, b in ((p1, p0), (1.0 - p1, 1.0 - p0)) if a != b)
        return total

    def test_bound_matches_hand_computation(self):
        base = BernoulliProduct(10, 0.8)
        pert = BernoulliProduct(10, 0.8, {3: 0.2})
        got = perturbation_residual_bound(base, pert)
        assert got == pytest.approx(abs(math.log(0.8 / 0.2)), abs=1e-14)

    def test_identical_states_have_zero_bound(self):
        base = BernoulliProduct(6, 0.7)
        assert perturbation_residual_bound(base, base) == 0.0

    def test_site_overridden_in_one_state_only(self):
        base = BernoulliProduct(10, 0.8, {1: 0.5})
        pert = BernoulliProduct(10, 0.8, {3: 0.2})
        expected = abs(math.log(0.2 / 0.5)) + abs(math.log(0.8 / 0.2))
        assert perturbation_residual_bound(base, pert) == pytest.approx(expected, abs=1e-14)
        assert perturbation_residual_bound(pert, base) == pytest.approx(expected, abs=1e-14)

    def test_global_change_matches_site_by_site_sum(self):
        base = BernoulliProduct(1000, 0.8, {0: 0.2, 7: 0.5})
        pert = BernoulliProduct(1000, 0.7, {7: 0.5, 9: 0.95})
        ref = self._site_by_site(base, pert)
        assert ref > 0.0
        assert abs(perturbation_residual_bound(base, pert) - ref) <= 1e-12 * ref

    def test_bound_is_infinite_where_a_probability_vanishes(self):
        assert perturbation_residual_bound(BernoulliProduct(5, 1.0), BernoulliProduct(5, 0.9)) == np.inf
        # every site overridden: the base term counts no site
        base = BernoulliProduct(2, 1.0, {0: 0.5, 1: 0.5})
        assert perturbation_residual_bound(base, BernoulliProduct(2, 0.0, {0: 0.5, 1: 0.5})) == 0.0
