import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim import core
from pointer_cell_sim.coarse_ldp import (
    BernoulliProduct,
    IntensiveObservable,
    cell_probability,
    coarse_grain,
)
from pointer_cell_sim.coleman_hepp import (
    ChainSpec,
    build_dense,
    chain_cells,
    diagonal_sector_product,
    factorized_f_tensor,
    polarized_site,
    sector_overlap,
    traversal_schedule,
)
from pointer_cell_sim.errors import CapacityError, StructuralError
from pointer_cell_sim.verify import find_pointer_map, log_pointer_errors, pointer_errors

from oracles import (
    binom_range_fraction,
    chain_minus_cell_counts,
    chain_plus_cell_counts,
    chain_trace_product,
    full_product_sector_cells,
    poisson_binomial_fraction,
)

# a coherent site state: its cross-sector factors are complex, not just signed
COMPLEX_OVERRIDE = {1: np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])}


def dense_tensor(spec: ChainSpec) -> core.FTensor:
    micro, apparatus = build_dense(spec)
    states = core.evolve_sectors(micro, apparatus, spec.t)
    return core.f_tensor(states, apparatus.cells)


class TestChainSpec:
    def test_validation(self):
        with pytest.raises(StructuralError):
            ChainSpec(N=0, m0=0.6)
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.0)
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=1.2)
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, theta=0.0)
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, theta=2 * math.pi)
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, t=0.0)

    def test_override_validation(self):
        good = np.diag([0.3, 0.7]).astype(complex)
        ChainSpec(N=4, m0=0.6, site_overrides={2: good})
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, site_overrides={4: good})
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, site_overrides={0: np.diag([0.3, 0.3])})
        with pytest.raises(StructuralError):
            ChainSpec(N=4, m0=0.6, site_overrides={0: np.diag([1.5, -0.5])})


class TestDeterministicFlip:
    def test_single_site_pure_chain(self):
        # fully polarised single site: the down sector flips it exactly
        f = factorized_f_tensor(ChainSpec(N=1, m0=1.0))
        assert f.values[1, 1, 0] == pytest.approx(1.0, abs=1e-15)  # "-" cell
        assert f.values[0, 0, 1] == pytest.approx(1.0, abs=1e-15)  # "+" cell
        assert abs(f.values[0, 1]).max() == 0.0

    def test_two_site_pure_chain(self):
        f = factorized_f_tensor(ChainSpec(N=2, m0=1.0))
        assert f.values[1, 1, 0] == pytest.approx(1.0, abs=1e-15)
        assert f.values[0, 0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_dense_agrees_on_pure_chain(self):
        spec = ChainSpec(N=2, m0=1.0)
        assert_allclose(dense_tensor(spec).values,
                        factorized_f_tensor(spec).values, atol=1e-12)


class TestBinomialLiterals:
    def test_four_site_example(self):
        f = factorized_f_tensor(ChainSpec(N=4, m0=0.6))
        p = Fraction(4, 5)
        expect_pp = float(binom_range_fraction(4, p, chain_plus_cell_counts(4)))
        expect_mm = float(binom_range_fraction(4, 1 - p, chain_minus_cell_counts(4)))
        assert expect_pp == pytest.approx(0.9728, abs=1e-15)
        assert f.values[0, 0, 1].real == pytest.approx(expect_pp, abs=1e-12)
        assert f.values[1, 1, 0].real == pytest.approx(expect_mm, abs=1e-12)
        assert f.values[1, 1, 1].real == pytest.approx(1 - expect_mm, abs=1e-12)

    def test_even_chain_boundary_atom_breaks_mirror(self):
        # the m = 0 eigenspace belongs to the "+" cell, so the two diagonal
        # errors differ by exactly the central binomial mass
        N = 6
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        p = Fraction(4, 5)
        atom = float(math.comb(N, N // 2) * p ** (N // 2) * (1 - p) ** (N // 2))
        gap = f.values[0, 0, 1].real - f.values[1, 1, 0].real
        assert gap == pytest.approx(atom, abs=1e-12)

    @pytest.mark.parametrize("N", [3, 5, 9])
    def test_mirror_symmetry_exact_at_odd_N(self, N):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        assert f.values[0, 0, 1].real == pytest.approx(f.values[1, 1, 0].real, rel=1e-14)
        assert f.values[0, 0, 0].real == pytest.approx(f.values[1, 1, 1].real, rel=1e-14)


class TestBackendEquivalence:
    @pytest.mark.parametrize("N", range(1, 11))
    def test_dense_vs_factorized_standard(self, N):
        spec = ChainSpec(N=N, m0=0.6)
        assert np.abs(dense_tensor(spec).values
                      - factorized_f_tensor(spec).values).max() < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_vs_factorized_random_draws(self, seed):
        rng = np.random.default_rng(400 + seed)
        spec = ChainSpec(
            N=int(rng.integers(1, 9)),
            m0=float(rng.uniform(0.05, 1.0)),
            theta=float(rng.uniform(0.2, 6.0)),
            energies=(float(rng.normal()), float(rng.normal())),
            t=float(rng.uniform(0.3, 2.0)),
        )
        assert np.abs(dense_tensor(spec).values
                      - factorized_f_tensor(spec).values).max() < 1e-9

    def test_dense_vs_factorized_with_overrides(self):
        overrides = {0: polarized_site(-0.6), 1: np.eye(2, dtype=complex) / 2}
        spec = ChainSpec(N=4, m0=0.6, theta=2.1, site_overrides=overrides)
        assert np.abs(dense_tensor(spec).values
                      - factorized_f_tensor(spec).values).max() < 1e-10

    def test_dense_cap(self):
        with pytest.raises(CapacityError):
            build_dense(ChainSpec(N=13, m0=0.6))


class TestOffDiagonal:
    def test_exact_zero_at_pi(self):
        for N in (1, 4, 51, 1000):
            f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
            assert np.abs(f.values[0, 1]).max() == 0.0
            assert np.abs(f.values[1, 0]).max() == 0.0
            assert np.isneginf(f.log_magnitude[0, 1]).all()

    @pytest.mark.parametrize("theta", [math.pi / 2, 3 * math.pi / 4, 2.4])
    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_total_coherence_decay_law(self, theta, N):
        # per-site trace product: |sum_a F[0,1,a]| = |cos(theta/2)|**N
        spec = ChainSpec(N=N, m0=0.6, theta=theta)
        ov = sector_overlap(spec, 0, 1)
        lm, _ = ov.dp_total()
        ref = N * math.log(abs(math.cos(theta / 2)))
        assert abs(math.exp(lm - ref) - 1.0) < 1e-9

    def test_phases_carry_energy_difference(self):
        spec = ChainSpec(N=3, m0=0.8, theta=1.1, energies=(0.4, -0.9), t=1.7)
        f = factorized_f_tensor(spec)
        base = factorized_f_tensor(ChainSpec(N=3, m0=0.8, theta=1.1, t=1.7))
        phase = np.exp(1j * (spec.energies[1] - spec.energies[0]) * spec.t)
        assert_allclose(f.values[0, 1], phase * base.values[0, 1], atol=1e-12)
        assert_allclose(f.values[0, 0], base.values[0, 0], atol=1e-12)


class TestOverlapInvariants:
    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_accumulator_matches_trace_product(self, pair):
        overrides = {1: np.array([[0.5, 0.2j], [-0.2j, 0.5]])}
        spec = ChainSpec(N=7, m0=0.6, theta=2.2, site_overrides=overrides)
        ov = sector_overlap(spec, *pair)
        dp_lm, dp_ph = ov.dp_total()
        tr_lm, tr_ph = chain_trace_product(spec, *pair)
        assert abs(math.exp(dp_lm - tr_lm) - 1.0) < 1e-9
        assert (math.cos(dp_ph - tr_ph)) == pytest.approx(1.0, abs=1e-9)

    def test_identification_with_cell_probability(self):
        # diagonal tensor slices equal the evolved product-state cell masses
        for N, overrides in ((6, None), (9, {2: polarized_site(-0.6)})):
            spec = ChainSpec(N=N, m0=0.6, site_overrides=overrides)
            f = factorized_f_tensor(spec)
            cells, _ = chain_cells(N)
            for r in range(2):
                state = BernoulliProduct(diagonal_sector_product(spec, r))
                probs = cell_probability(state, cells)
                assert_allclose(f.values[r, r].real, probs, atol=1e-10)

    def test_all_outputs_pass_property_checks(self):
        for spec in (ChainSpec(N=5, m0=0.6), ChainSpec(N=40, m0=0.9, theta=1.9),
                     ChainSpec(N=200, m0=0.3, theta=2.8)):
            report = core.check_f_properties(factorized_f_tensor(spec))
            assert report.passed


class TestTraversal:
    def test_fraction_zero_nothing_rotated(self):
        spec = ChainSpec(N=6, m0=0.6, energies=(0.2, -0.1))
        f0 = traversal_schedule(spec, 0.0)
        assert_allclose(f0.values[0, 0], f0.values[1, 1], atol=1e-14)
        cells, _ = chain_cells(6)
        base = cell_probability(BernoulliProduct(diagonal_sector_product(spec, 0)), cells)
        assert_allclose(f0.values[0, 0].real, base, atol=1e-12)

    def test_fraction_one_is_full_traversal(self):
        spec = ChainSpec(N=6, m0=0.6)
        assert np.array_equal(traversal_schedule(spec, 1.0).values,
                              factorized_f_tensor(spec).values)

    def test_invalid_fraction(self):
        with pytest.raises(StructuralError):
            traversal_schedule(ChainSpec(N=4, m0=0.6), 1.5)

    def test_partial_traversal_matches_mixture_oracle(self):
        N, cut = 9, 5
        spec = ChainSpec(N=N, m0=0.6)
        f = traversal_schedule(spec, cut / N)
        p = Fraction(4, 5)
        ps = [1 - p] * cut + [p] * (N - cut)  # down sector: first sites flipped
        dist = poisson_binomial_fraction(ps)
        plus = float(sum(dist[j] for j in chain_plus_cell_counts(N)))
        assert f.values[1, 1, 1].real == pytest.approx(plus, rel=1e-12)

    def test_error_non_increasing_past_crossing(self):
        spec = ChainSpec(N=200, m0=0.6)
        fractions = np.linspace(0.5, 1.0, 11)
        eps = []
        for frac in fractions:
            f = traversal_schedule(spec, float(frac))
            pm = find_pointer_map(f)
            eps.append(pointer_errors(f, pm).max())
        assert all(b <= a + 1e-15 for a, b in zip(eps, eps[1:]))


def assert_matches_full_product(spec: ChainSpec, fraction: float) -> None:
    """Every sector's total and cell sums agree with the quadratic oracle.

    Log magnitudes and phases must agree to 1e-12 relative (absolute below
    magnitude 1, where a log difference is the relative value error).
    """
    rotated = int(math.floor(fraction * spec.N + 1e-12))
    cells, _ = chain_cells(spec.N)
    for r in range(2):
        for s in range(2):
            ov = sector_overlap(spec, r, s, rotated)
            got = [ov.dp_total(), *zip(*ov.cell_log_values(cells))]
            ref_total, ref_cells = full_product_sector_cells(spec, r, s, rotated)
            for (lm, ph), (ref_lm, ref_ph) in zip(got, [ref_total, *ref_cells]):
                if ref_lm == -math.inf:
                    assert lm == -math.inf, (r, s)
                    continue
                assert abs(lm - ref_lm) <= 1e-12 * max(1.0, abs(ref_lm)), (r, s, lm, ref_lm)
                assert abs(math.remainder(ph - ref_ph, 2 * math.pi)) <= 1e-12 * max(1.0, abs(ref_ph)), \
                    (r, s, ph, ref_ph)


class TestPartialTraversalOracle:
    @pytest.mark.parametrize("overrides", [None, COMPLEX_OVERRIDE], ids=["plain", "override"])
    @pytest.mark.parametrize("theta", [math.pi, 2.2, 1.0, 4.0])
    @pytest.mark.parametrize("N, fraction", [(9, 0.37), (10, 0.5), (120, 1.0), (501, 0.62)])
    def test_cells_match_full_product(self, N, fraction, theta, overrides):
        spec = ChainSpec(N=N, m0=0.6, theta=theta, energies=(0.3, -0.2),
                         site_overrides=overrides)
        assert_matches_full_product(spec, fraction)

    def test_cells_match_full_product_at_four_thousand_sites(self):
        spec = ChainSpec(N=4000, m0=0.6, theta=1.0, site_overrides=COMPLEX_OVERRIDE)
        assert_matches_full_product(spec, 0.5)

    def test_rejects_partitions_other_than_prefix_suffix(self):
        ov = sector_overlap(ChainSpec(N=30, m0=0.6, theta=2.2), 0, 1, 15)
        three, _ = coarse_grain(IntensiveObservable.magnetization_chain(30), 3)
        with pytest.raises(StructuralError):
            ov.cell_values(three)
        shorter, _ = chain_cells(29)
        with pytest.raises(StructuralError):
            ov.cell_values(shorter)


class TestLargeN:
    def test_hundred_thousand_sites(self):
        f = factorized_f_tensor(ChainSpec(N=100_000, m0=0.6))
        pm = find_pointer_map(f)
        assert pm.phi == (1, 0)
        logs = log_pointer_errors(f, pm)
        rate = -logs.max() / 100_000
        assert rate == pytest.approx(0.22314355131420976, rel=1e-3)
        assert f.underflow.any()
        assert core.check_f_properties(f).passed

    def test_half_traversal_at_hundred_thousand_sites(self):
        f = traversal_schedule(ChainSpec(N=100_000, m0=0.6), 0.5)
        assert core.check_f_properties(f).passed
        for r in range(2):
            assert abs(f.values[r, r].real.sum() - 1.0) <= 1e-10


class TestSpecHelpers:
    def test_with_overrides_merges(self):
        base = ChainSpec(N=5, m0=0.6, site_overrides={0: polarized_site(-0.6)})
        merged = base.with_overrides({1: np.eye(2, dtype=complex) / 2})
        assert set(merged.site_overrides) == {0, 1}
        assert set(base.site_overrides) == {0}
        assert_allclose(merged.site_overrides[0], polarized_site(-0.6))

    def test_partial_traversal_moderate_scale(self):
        # the untouched sector merges into one closed form; the flipped sector
        # pays one heterogeneous convolution
        spec = ChainSpec(N=5000, m0=0.6)
        f = traversal_schedule(spec, 0.62)
        assert core.check_f_properties(f).passed
        assert f.values[1, 1, 0].real > 0.99  # flipped majority already formed

    def test_mixed_phase_warning_above_safe_size(self):
        from pointer_cell_sim.errors import AccumulationWarning

        noisy = {3: np.array([[0.5, 0.25], [0.25, 0.5]])}
        spec = ChainSpec(N=10_050, m0=0.6, theta=2.0, site_overrides=noisy)
        with pytest.warns(AccumulationWarning):
            sector_overlap(spec, 0, 1)
        # same-phase accumulations stay silent at any size
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccumulationWarning)
            sector_overlap(ChainSpec(N=10_050, m0=0.6, theta=2.0), 0, 0)

    def test_chain_cells_never_warn(self):
        # the sign partition has no empty cell and a spectrum gap inside the cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N in range(1, 65):
                cells, _ = chain_cells(N)
                assert cells.empty_cells == ()
