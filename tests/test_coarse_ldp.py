import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim import coarse_ldp, logspace
from pointer_cell_sim.coarse_ldp import (
    bernoulli_rate,
    check_ldp_conditions,
    estimate_rate,
    perturbation_residual_bound,
)
from pointer_cell_sim.coleman_hepp import (
    ChainSpec,
    CELL_LABELS,
    FactorizedSectorOverlap,
    chain_cells,
    diagonal_sectors,
    factorized_f_tensor,
    polarized_site,
    sector_overlap,
    sign_boundary,
    traversal_family,
)
from pointer_cell_sim.core import PhaseCellPartition
from pointer_cell_sim.errors import PreconditionError
from pointer_cell_sim.logspace import BinomialBlock, binomial_log_pmf

from oracles import (
    binom_range_log,
    chain_minus_cell_counts,
    chain_plus_cell_counts,
    exact_log,
    kl_bernoulli,
    poisson_binomial_fraction,
    scalar_rate_samples,
    sector_up_probabilities,
    sign_cells_reference,
    site_probs,
)


def diagonal_site(q: float) -> np.ndarray:
    """The diagonal site state with up-probability q."""
    return np.diag([q, 1.0 - q]).astype(complex)


def product_sector(p: float, overrides=None, N: int = 10 ** 9) -> FactorizedSectorOverlap:
    """The diagonal sector of N Bernoulli sites: up-probability p in the bulk
    and q at each override site of ``overrides``, ``{site: q}``.

    The spin-up sector of a chain polarised to ``2p - 1`` holds it; a p no
    chain reaches (the polarisation lies in (0, 1]) is laid out by hand.
    """
    if p <= 0.5:
        assert not overrides
        return FactorizedSectorOverlap(a=(np.zeros(1), np.zeros(1)),
                                       b=BinomialBlock(N, p, 1.0 - p, 0.0))
    spec = ChainSpec(N=N, m0=2 * p - 1,
                     site_overrides={k: diagonal_site(q) for k, q in (overrides or {}).items()})
    return sector_overlap(spec, 0, 0)


def cell_log_probs(spec: ChainSpec, r: int = 0) -> np.ndarray:
    """Log-probabilities of the sign cells of the chain's evolved diagonal sector r."""
    return traversal_family(spec, 1.0, [spec.N])[0][0, r, r]


class TestSignCells:
    def test_four_site_chain_example(self):
        partition = chain_cells(4)
        # boundary value 0, two up spins of four, joins the closed-left "+" interval
        assert sign_boundary(4) == 2
        assert partition.labels == CELL_LABELS == ("-", "+")
        assert partition.members(1).size == math.comb(4, 2) + math.comb(4, 3) + math.comb(4, 4)
        assert partition.members(0).size == 2 ** 4 - 11

    def test_single_cell_is_identity(self):
        partition = PhaseCellPartition(np.zeros(8, dtype=int), 1)
        assert partition.members(0).size == 8
        assert np.array_equal(partition.as_matrix(0), np.eye(8))

    @pytest.mark.parametrize("N", range(1, 13))
    def test_every_point_in_exactly_one_cell(self, N):
        cell_of_point, labels = sign_cells_reference(N)
        # the boundary cuts the up counts 0 .. N into two nonempty runs, "-" first
        h = sign_boundary(N)
        assert 0 < h <= N and labels == CELL_LABELS
        assert cell_of_point.tolist() == [int(j >= h) for j in range(N + 1)]

    @pytest.mark.parametrize("N", [2, 5, 9, 12])
    def test_partition_satisfies_core_identities(self, N):
        cell_of_point, _ = sign_cells_reference(N)
        partition = chain_cells(N)
        # every basis index lies in exactly one cell, so the projectors are
        # orthogonal and complete; each cell holds the up counts of its spectrum points
        assert partition.cell_count == 2 and partition.dim == 2 ** N
        assert partition.members(0).size + partition.members(1).size == 2 ** N
        for a in range(2):
            ups = [N - bin(int(i)).count("1") for i in partition.members(a)]
            assert all(cell_of_point[j] == a for j in ups)


class TestCellProbability:
    def test_binomial_plus_cell_literal(self):
        probs = np.exp(cell_log_probs(ChainSpec(N=4, m0=0.6)))
        assert probs[1] == pytest.approx(0.9728, abs=1e-12)
        assert probs[0] == pytest.approx(0.0272, abs=1e-12)

    def test_deterministic_state(self):
        probs = np.exp(cell_log_probs(ChainSpec(N=5, m0=1.0)))
        assert probs[1] == 1.0 and probs[0] == 0.0

    def test_dense_trace_agrees_with_product_path(self, rng):
        N = 4
        partition = chain_cells(N)
        p = 0.73
        site = np.diag([p, 1 - p]).astype(complex)
        rho = site
        for _ in range(N - 1):
            rho = np.kron(rho, site)
        dense = partition.trace_all(rho).real
        product = np.exp(cell_log_probs(ChainSpec(N=N, m0=2 * p - 1)))
        assert_allclose(dense, product, atol=1e-12)

    def test_heterogeneous_sites_match_exact_enumeration(self):
        N = 6
        spec = ChainSpec(N=N, m0=0.6, site_overrides={
            2: diagonal_site(0.5), 3: diagonal_site(0.3), 5: diagonal_site(0.9)})
        probs = site_probs(N, sector_up_probabilities(spec, 0))
        assert list(probs) == [0.8, 0.8, 0.5, 0.3, 0.8, 0.9]
        dist = poisson_binomial_fraction([Fraction(p) for p in probs])
        got = np.exp(cell_log_probs(spec))
        plus = float(sum(dist[j] for j in range(N + 1) if 2 * j - N >= 0))
        assert got[1] == pytest.approx(plus, rel=1e-12)

    def test_log_pmf_far_below_float_floor(self):
        # the "-" cell of 4000 sites at p = 0.8 is way below exp(-745), yet
        # finite in log space and exact
        N = 4000
        got = cell_log_probs(ChainSpec(N=N, m0=0.6))
        assert np.isfinite(got[0]) and got[0] < -745
        ref = binom_range_log(N, 0.8, chain_minus_cell_counts(N))
        assert abs(got[0] - ref) <= 1e-12 * abs(ref)


class TestRateFunction:
    def test_rate_zero_at_the_mean(self):
        assert bernoulli_rate(2 * 0.8 - 1.0, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_analytic_rate_closed_form(self):
        # independent re-derivation of the relative entropy
        for m in (-0.6, -0.2, 0.0, 0.4):
            q = (1 + m) / 2
            assert bernoulli_rate(m, 0.8) == pytest.approx(-kl_bernoulli(q, 0.8), abs=1e-14)

    def test_estimate_converges_to_analytic(self):
        est = estimate_rate(product_sector(0.8), grid=[-0.2], N_values=[100, 200, 400, 800])
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
        sector = product_sector(0.8)
        with pytest.raises(PreconditionError):
            estimate_rate(sector, [-0.2], [100, 200])
        with pytest.raises(PreconditionError):
            estimate_rate(sector, [-0.2], [100, 200, 300])

    def test_sector_without_one_bulk_reading_refused(self):
        # a partial traversal's a holds a bulk block, and a chain whose every site is
        # overridden has no bulk probability to read at larger sizes
        spec = ChainSpec(N=40, m0=0.6)
        with pytest.raises(PreconditionError, match="full traversal with a bulk site"):
            estimate_rate(sector_overlap(spec, 1, 1, rotated_count=20), [0.0], [10, 20, 40])
        every = ChainSpec(N=2, m0=0.6, site_overrides={0: diagonal_site(0.1), 1: diagonal_site(0.1)})
        with pytest.raises(PreconditionError, match="full traversal with a bulk site"):
            estimate_rate(sector_overlap(every, 0, 0), [0.0], [2, 4, 8])

    def test_zero_probability_point_dropped(self):
        # one site pinned down makes the all-up window impossible
        with pytest.warns(UserWarning, match="zero probability"):
            est = estimate_rate(product_sector(0.9, {0: 0.0}), grid=[1.0], N_values=[8, 16, 32])
        assert est.dropped.all()

    def test_p_set_only_without_override_term(self):
        # an override term, even one equal to the bulk or on every site, leaves p
        # and the analytic curve unset; the samples are the homogeneous chain's
        grid, Ns = [-0.2, 0.6], [40, 80, 160]
        plain = estimate_rate(product_sector(0.7), grid, Ns)
        assert plain.p == 0.7 and plain.analytic is not None
        for overrides in ({2: 0.7}, {2: 0.1}):
            est = estimate_rate(product_sector(0.7, overrides), grid, Ns)
            assert est.p is None and est.analytic is None
        same = estimate_rate(product_sector(0.7, {2: 0.7}), grid, Ns)
        assert_allclose(same.samples, plain.samples, rtol=1e-12)
        # at N = 2 every site is overridden alike, yet the family has override terms
        every = estimate_rate(product_sector(0.7, {0: 0.1, 1: 0.1}, N=8), [-0.5, 0.5], [2, 4, 8])
        assert every.p is None


class TestFactorLayout:
    """Windows and cells summed from the bulk binomial block and the overrides."""

    GRID = (-0.8, -0.3, 0.0, 0.025, 0.45, 0.9)

    @staticmethod
    def _spec(theta: float, N: int) -> ChainSpec:
        # the flip and depolarize site edits of the perturb command
        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        return ChainSpec(N=N, m0=0.6, theta=theta, site_overrides=overrides)

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_window_samples_match_exact_poisson_binomial(self, r, theta):
        Ns = (40, 80, 160)
        spec = self._spec(theta, max(Ns))
        est = estimate_rate(sector_overlap(spec, r, r), self.GRID, Ns)
        assert not est.dropped.any()
        for i, N in enumerate(Ns):
            dist = poisson_binomial_fraction(
                [Fraction(p) for p in site_probs(N, sector_up_probabilities(spec, r))])
            for k, m in enumerate(self.GRID):
                # the window is |m_j - m| <= 1 / N, half the spectrum gap
                centre = N * (1 + Fraction(str(m)))
                mass = sum(dist[j] for j in range(N + 1) if abs(2 * j - centre) <= 1)
                ref = exact_log(mass) / N
                assert abs(est.samples[i, k] - ref) <= 1e-12 * abs(ref), (N, m)

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_cells_match_exact_poisson_binomial(self, r, theta):
        for N in (40, 80, 160):
            spec = self._spec(theta, N)
            got = cell_log_probs(spec, r)
            dist = poisson_binomial_fraction(
                [Fraction(p) for p in site_probs(N, sector_up_probabilities(spec, r))])
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
        sector = product_sector(p, overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_rate(sector, grid, Ns)
        samples, dropped, messages = scalar_rate_samples(sector, grid, Ns)
        assert np.array_equal(est.samples, samples, equal_nan=True)
        assert np.array_equal(est.dropped, dropped)
        assert [str(w.message) for w in caught] == messages

    def test_windows_drop_at_small_N_only(self):
        # m = -0.75 is the up count 1 at N = 8, which the certain sites exclude
        p, overrides = self.FAMILIES["certain sites only"]
        with pytest.warns(UserWarning, match="point dropped"):
            est = estimate_rate(product_sector(p, overrides), [-1.0, -0.75, 0.0], self.SIZES)
        assert est.dropped[:, 0].all() and not est.dropped[:, 2].any()
        assert est.dropped[0, 1] and not est.dropped[1:, 1].any()


class TestLargeChains:
    """Windows and cells at chain sizes where the bulk block is never built."""

    LARGE_N = (250_000, 500_000, 1_000_000)

    @staticmethod
    def _linear_log_pmf(N: int, probs: dict) -> np.ndarray:
        # O(N) reference: the modal block's full vector log-pmf, shifted by
        # each up count of the other sites (exact Poisson-binomial weights)
        probs = site_probs(N, probs)
        values, counts = np.unique(probs, return_counts=True)
        p = float(values[np.argmax(counts)])
        n = int(counts.max())
        b = binomial_log_pmf(n, p, 1.0 - p, np.arange(n + 1))
        others = [Fraction(float(x)) for x in probs if x != p]
        rows = np.full((len(others) + 1, N + 1), -np.inf)
        for i, weight in enumerate(poisson_binomial_fraction(others)):
            rows[i, i:i + b.size] = exact_log(weight) + b
        return np.logaddexp.reduce(rows, axis=0)

    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    @pytest.mark.parametrize("r", [0, 1])
    def test_window_samples_match_linear_sum(self, r, theta):
        spec = TestFactorLayout._spec(theta, max(self.LARGE_N))
        grid = TestFactorLayout.GRID
        est = estimate_rate(sector_overlap(spec, r, r), grid, self.LARGE_N)
        for i, N in enumerate(self.LARGE_N):
            pmf = self._linear_log_pmf(N, sector_up_probabilities(spec, r))
            j = np.arange(N + 1)
            for k, m in enumerate(grid):
                # |m_j - m| <= 1 / N, with the rounding slack of the window's edges
                ref = np.logaddexp.reduce(pmf[np.abs(2 * j - N * (1 + m)) <= 1 + 1e-9]) / N
                assert abs(est.samples[i, k] - ref) <= 1e-13 * abs(ref), (N, m)

    def test_modal_block_never_materialised(self, monkeypatch):
        sizes = []

        def spy(n, p, q, k):
            out = binomial_log_pmf(n, p, q, k)
            sizes.append(len(out) - 1)  # the largest count an array of this length covers
            return out

        monkeypatch.setattr(logspace, "binomial_log_pmf", spy)
        monkeypatch.setattr(coarse_ldp, "binomial_log_pmf", spy, raising=False)
        Ns = (400, 800, 1600)
        for r in range(2):
            sector = sector_overlap(TestFactorLayout._spec(2.2, max(Ns)), r, r)
            estimate_rate(sector, [-0.3, 0.45], Ns)
        # the windows' counts are taken; the N - 2 bulk sites are never built
        assert sizes and not set(sizes) & {N - 2 for N in Ns}

    def test_rate_memory_does_not_grow_with_N(self):
        def peak(N):
            Ns = (N // 4, N // 2, N)
            sectors = [sector_overlap(TestFactorLayout._spec(2.2, N), r, r) for r in range(2)]
            for sector in sectors:  # first calls fill module-level caches
                estimate_rate(sector, TestFactorLayout.GRID, Ns)
            tracemalloc.start()
            try:
                for sector in sectors:
                    estimate_rate(sector, TestFactorLayout.GRID, Ns)
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
        # the sector built once at another size and read, as estimate_rate reads
        # it, with N - k bulk sites for its k overrides, is the sector at N, whose
        # factors traversal_family sums into the chain tensor's cells at N
        edits = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2} if overrides else None
        spec = ChainSpec(N=10 ** 9, m0=0.6, theta=theta, site_overrides=edits)
        tensor = factorized_f_tensor(spec.at_size(N))
        cells = traversal_family(spec, 1.0, [N])[0][0]
        for r in range(2):
            sector, at_N = sector_overlap(spec, r, r), sector_overlap(spec.at_size(N), r, r)
            sized = replace(sector, b=replace(sector.b, size=N - (sector.a[0].size - 1)))
            assert sized.b == at_N.b and sized.bulk is at_N.bulk is None, r
            assert [x.tobytes() for x in sized.a] == [x.tobytes() for x in at_N.a], r
            got, ref = cells[r, r], tensor.log_magnitude[r, r]
            assert (np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))).all(), (r, got, ref)


class TestLdpConditions:
    @staticmethod
    def _chain_setup(m0=0.6, grid=None, overrides=None):
        grid = grid if grid is not None else [-0.9, -0.6, -0.3, -0.05, 0.05, 0.3, 0.6, 0.9]
        Ns = [100, 200, 400, 800]
        spec = ChainSpec(N=max(Ns), m0=m0, site_overrides=overrides)
        estimates = [estimate_rate(sector_overlap(spec, r, r), grid, Ns) for r in range(2)]
        return estimates

    def test_chain_conditions_pass(self):
        estimates = self._chain_setup()
        report = check_ldp_conditions(estimates, pointer=(1, 0))
        assert report.unique_max and report.interior and report.distinct_cells
        assert report.maximizers == pytest.approx((0.6, -0.6), abs=1e-12)
        # concentration gap equals the boundary relative entropy
        assert report.gap == pytest.approx(kl_bernoulli(0.5, 0.8), abs=1e-12)
        assert report.passed

    def test_localized_perturbation_preserves_rates(self):
        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        estimates = self._chain_setup()
        perturbed = self._chain_setup(overrides=overrides)
        base = sector_up_probabilities(ChainSpec(N=100, m0=0.6), 0)
        pert = sector_up_probabilities(ChainSpec(N=100, m0=0.6, site_overrides=overrides), 0)
        bound = perturbation_residual_bound(100, base, pert) / 100
        report = check_ldp_conditions(estimates, pointer=(1, 0),
                                      perturbed=perturbed, stability_bound=bound)
        assert report.stability_residual <= bound
        assert report.passed

    def test_global_perturbation_fails_stability(self):
        estimates = self._chain_setup(m0=0.6)
        # a global polarisation change is not a localized edit: the rate
        # curves themselves move by O(1)
        shifted = self._chain_setup(m0=0.4)
        report = check_ldp_conditions(estimates, pointer=(1, 0),
                                      perturbed=shifted, stability_bound=4.0 / 100)
        assert not report.stability_ok
        assert not report.passed

    def test_each_sector_judged_by_its_own_bound(self):
        estimates = self._chain_setup()

        def judge(shifts, bound):
            perturbed = [replace(est, samples=est.samples + shift)
                         for est, shift in zip(estimates, shifts)]
            return check_ldp_conditions(estimates, pointer=(1, 0),
                                        perturbed=perturbed, stability_bound=bound)

        # under the larger bound the spin-down shift passes; under its own it fails
        assert judge((0.0, 3e-5), 1e-4).stability_ok
        report = judge((0.0, 3e-5), (1e-4, 2e-5))
        assert not report.stability_ok and not report.passed
        assert report.stability_residual == pytest.approx(3e-5, rel=1e-9)
        assert report.stability_bound == 2e-5
        # the sector with the smallest margin is reported, not the largest residual
        report = judge((5e-4, 4e-5), (1e-3, 5e-5))
        assert report.stability_ok
        assert report.stability_residual == pytest.approx(4e-5, rel=1e-9)
        assert report.stability_bound == 5e-5

    def test_rounding_above_the_bound_passes(self):
        # rates equal up to the rounding of two arithmetic paths meet a zero bound
        estimates = self._chain_setup()
        perturbed = [replace(est, samples=est.samples * (1 + 2 ** -52)) for est in estimates]
        report = check_ldp_conditions(estimates, pointer=(1, 0),
                                      perturbed=perturbed, stability_bound=(0.0, 0.0))
        assert 0.0 < report.stability_residual < 1e-15
        assert report.stability_ok

    def test_estimate_without_bernoulli_p_refused(self):
        # a sector with an override site has no closed-form rate to judge
        estimates = self._chain_setup()
        perturbed = self._chain_setup(overrides={0: polarized_site(-0.6)})
        assert perturbed[1].p is None
        with pytest.raises(PreconditionError, match="^rate estimate 1 has no Bernoulli p"):
            check_ldp_conditions([estimates[0], perturbed[1]], pointer=(1, 0))

    def test_maximizers_in_the_wrong_cells(self):
        # the identity map sends the spin-up maximiser 0.6 to "-" and -0.6 to "+":
        # neither is interior, and each cell's peak lies in the other cell
        report = check_ldp_conditions(self._chain_setup(), pointer=(0, 1))
        assert report.maximizers == pytest.approx((0.6, -0.6), abs=1e-12)
        assert not report.interior and not report.gap_positive and not report.passed

    def test_two_sign_cells_only(self):
        est = self._chain_setup()[0]
        with pytest.raises(PreconditionError, match="^need one rate estimate per sign cell"):
            check_ldp_conditions([est, est, est], pointer=(2, 1, 0))

    def test_boundary_maximizer_fails_interiority(self):
        est = estimate_rate(product_sector(0.5), grid=[-0.5, 0.0, 0.5], N_values=[40, 80, 160])
        report = check_ldp_conditions([est, est], pointer=(1, 0))
        assert not report.interior
        assert not report.passed


class TestPerturbationBound:
    @staticmethod
    def _site_by_site(N: int, base: dict, pert: dict) -> float:
        # the bound summed over every site of the two per-site lists
        total = 0.0
        for p0, p1 in zip(site_probs(N, base), site_probs(N, pert)):
            if p0 != p1:
                total += max(abs(math.log(a / b))
                             for a, b in ((p1, p0), (1.0 - p1, 1.0 - p0)) if a != b)
        return total

    @pytest.mark.parametrize("theta", [math.pi, 2.2, 1.0])
    def test_diagonal_sectors_give_each_site_up_probability(self, theta):
        # the probabilities the bound reads: the bulk, then each override site in order
        spec = ChainSpec(N=100, m0=0.6, theta=theta,
                         site_overrides={3: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2})
        for r, (overlap, up) in enumerate(diagonal_sectors(spec, 400)):
            ref = sector_up_probabilities(spec, r)
            assert list(up) == [None, 1, 3]
            assert up == pytest.approx({site: ref[site] for site in up}, abs=1e-15)
            assert (overlap.b.size, overlap.b.p) == (398, up[None])

    def test_bound_matches_hand_computation(self):
        got = perturbation_residual_bound(10, {None: 0.8}, {None: 0.8, 3: 0.2})
        assert got == pytest.approx(abs(math.log(0.8 / 0.2)), abs=1e-14)

    def test_identical_states_have_zero_bound(self):
        assert perturbation_residual_bound(6, {None: 0.7}, {None: 0.7}) == 0.0

    def test_site_overridden_in_one_state_only(self):
        base, pert = {None: 0.8, 1: 0.5}, {None: 0.8, 3: 0.2}
        expected = abs(math.log(0.2 / 0.5)) + abs(math.log(0.8 / 0.2))
        assert perturbation_residual_bound(10, base, pert) == pytest.approx(expected, abs=1e-14)
        assert perturbation_residual_bound(10, pert, base) == pytest.approx(expected, abs=1e-14)

    def test_global_change_matches_site_by_site_sum(self):
        base = {None: 0.8, 0: 0.2, 7: 0.5}
        pert = {None: 0.7, 7: 0.5, 9: 0.95}
        ref = self._site_by_site(1000, base, pert)
        assert ref > 0.0
        assert abs(perturbation_residual_bound(1000, base, pert) - ref) <= 1e-12 * ref

    def test_bound_is_infinite_where_a_probability_vanishes(self):
        assert perturbation_residual_bound(5, {None: 1.0}, {None: 0.9}) == np.inf
        # every site overridden: the bulk term counts no site
        base = {None: 1.0, 0: 0.5, 1: 0.5}
        assert perturbation_residual_bound(2, base, {None: 0.0, 0: 0.5, 1: 0.5}) == 0.0
