import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pointer_cell_sim import coleman_hepp, core
from pointer_cell_sim.coleman_hepp import (
    ChainSpec,
    _bulk_block,
    build_dense,
    chain_cells,
    factorized_f_tensor,
    passed_sites,
    polarized_site,
    traversal_family,
)
from pointer_cell_sim.errors import CapacityError, StructuralError
from pointer_cell_sim.logspace import BinomialBlock, binomial_log_pmf, lc_sum_rows, lc_values
from pointer_cell_sim.verify import find_pointer_map, log_pointer_errors, pointer_errors

from oracles import (
    binom_range_fraction,
    block_log_magnitudes,
    chain_minus_cell_counts,
    chain_plus_cell_counts,
    chain_trace_product,
    compensated_cells,
    decimal_sector_cells,
    exact_log,
    full_product_sector_cells,
    kl_bernoulli,
    poisson_binomial_fraction,
    sector_up_probabilities,
    sign_cells_reference,
    site_probs,
)

# a coherent site state: its cross-sector factors are complex, not just signed
COMPLEX_OVERRIDE = {1: np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])}


def dense_tensor(spec: ChainSpec) -> core.FTensor:
    micro, apparatus = build_dense(spec)
    states = core.evolve_sectors(micro, apparatus, spec.t)
    return core.f_tensor(states, apparatus.cells)


def family_cells(spec: ChainSpec, fraction: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain's cells as ``(2, 2, 2)`` log magnitudes and phases and its ``(2, 2)`` log
    trace products, from one ``traversal_family`` call at the spec's own size."""
    lm, ph, log_trace, failed = traversal_family(spec, fraction, [spec.N])
    if failed:
        raise failed[0]
    return lm[0], ph[0], log_trace[0]


def sector_cell_masses(spec: ChainSpec, r: int) -> list[float]:
    """Exact "-" and "+" cell masses of the evolved diagonal sector r, by enumeration."""
    probs = site_probs(spec.N, sector_up_probabilities(spec, r))
    dist = poisson_binomial_fraction([Fraction(p) for p in probs])
    return [float(sum(dist[j] for j in counts))
            for counts in (chain_minus_cell_counts(spec.N), chain_plus_cell_counts(spec.N))]


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

    @pytest.mark.parametrize("N, m0, overrides", [
        (-1, 0.6, {}), (4, 0.6, {-1: 0.1}), (4, 1.4, {}), (4, -1.2, {}), (4, math.nan, {}),
        (4, 0.6, {1: -1e-9})],
        ids=["size-1", "site-1", "p-1.2", "p-0.1", "p-nan", "override-p-1e-9"])
    def test_product_state_inputs_rejected(self, N, m0, overrides):
        # sizes, sites and up-probabilities (bulk (1 + m0) / 2, override q) no product state takes
        with pytest.raises(StructuralError):
            ChainSpec(N=N, m0=m0, site_overrides={k: np.diag([q, 1 - q]) for k, q in overrides.items()})

    @pytest.mark.parametrize("rho, message", [
        (np.diag([1.0 + 2e-12, -2e-12]), "site 1 override has negative eigenvalue -2.000e-12"),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), "site 1 override has negative eigenvalue -1.000e-01"),
        (np.diag([np.nan, 0.5]), "site 1 override is not Hermitian: max deviation nan"),
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "site 1 override is not Hermitian: max deviation nan"),
    ], ids=["negative-diagonal", "negative", "nan-diagonal", "nan"])
    def test_override_rejected_by_the_shared_gates(self, rho, message):
        with pytest.raises(StructuralError, match=f"^{message}"):
            ChainSpec(N=4, m0=0.6, site_overrides={1: rho})

    def test_nan_trace_rejected(self, monkeypatch):
        # the trace comparison fails on NaN even when no earlier gate runs
        monkeypatch.setattr(coleman_hepp, "_check_hermitian", lambda a, name: None)
        with pytest.raises(StructuralError, match="^site 1 override must have unit trace$"):
            ChainSpec(N=4, m0=0.6, site_overrides={1: np.diag([np.nan, 0.5])})


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

    def test_dense_zero_matrix_is_shared(self):
        # K and the spin-up coupling are one read-only zero matrix
        _, app = build_dense(ChainSpec(N=4, m0=0.6))
        assert app.K is app.V[0] and not app.K.any() and not app.K.flags.writeable
        assert app.V[1].any()


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
        lm = family_cells(spec)[2][0, 1]
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
        lm, ph, log_trace = family_cells(spec)
        # the magnitude is the product of the site traces; the phase that of the cells' sum
        dp_lm, total = log_trace[pair], complex(lc_values(lm, ph)[pair].sum())
        dp_ph = math.atan2(total.imag, total.real)
        tr_lm, tr_ph = chain_trace_product(spec, *pair)
        assert abs(math.exp(dp_lm - tr_lm) - 1.0) < 1e-9
        assert (math.cos(dp_ph - tr_ph)) == pytest.approx(1.0, abs=1e-9)

    def test_identification_with_cell_probability(self):
        # diagonal tensor slices equal the evolved product-state cell masses
        for N, overrides in ((6, None), (9, {2: polarized_site(-0.6)})):
            spec = ChainSpec(N=N, m0=0.6, site_overrides=overrides)
            f = factorized_f_tensor(spec)
            for r in range(2):
                probs = sector_cell_masses(spec, r)
                assert_allclose(f.values[r, r].real, probs, atol=1e-10)

    def test_all_outputs_pass_property_checks(self):
        for spec in (ChainSpec(N=5, m0=0.6), ChainSpec(N=40, m0=0.9, theta=1.9),
                     ChainSpec(N=200, m0=0.3, theta=2.8)):
            report = core.check_f_properties(factorized_f_tensor(spec))
            assert report.passed


class TestExactTraceProducts:
    """A diagonal sector's trace product is a product of unit site traces, exactly
    1: each factor's sum is taken whole, never as a sum of its coefficients."""

    # the four named edits of [perturbation]: flip, depolarize, up and down
    OVERRIDES = {0: polarized_site(-0.6), 1: np.eye(2) / 2, 3: np.diag([1.0, 0.0]),
                 5: np.diag([0.0, 1.0])}

    @pytest.mark.parametrize("overrides", [False, True], ids=["plain", "overrides"])
    @pytest.mark.parametrize("N", [10, 400, 100_000])
    @pytest.mark.parametrize("theta", [math.pi, 2.2])
    def test_diagonal_sectors_read_exactly_zero(self, theta, N, overrides):
        spec = ChainSpec(N=N, m0=0.6, theta=theta, site_overrides=self.OVERRIDES if overrides else None)
        for fraction in (1.0, 0.75, 0.5, 0.37):
            lt = family_cells(spec, fraction)[2]
            assert lt[0, 0] == 0.0 and lt[1, 1] == 0.0, (fraction, lt)
            # at pi a passed site's cross factor is an exact zero
            assert np.isneginf(lt[0, 1]) == np.isneginf(lt[1, 0]) == (theta == math.pi), (fraction, lt)


class TestTraversal:
    def test_fraction_zero_nothing_rotated(self):
        spec = ChainSpec(N=6, m0=0.6, energies=(0.2, -0.1))
        f0 = factorized_f_tensor(spec, 0.0)
        assert_allclose(f0.values[0, 0], f0.values[1, 1], atol=1e-14)
        assert_allclose(f0.values[0, 0].real, sector_cell_masses(spec, 0), atol=1e-12)

    def test_fraction_one_is_full_traversal(self):
        spec = ChainSpec(N=6, m0=0.6)
        assert np.array_equal(factorized_f_tensor(spec, 1.0).values,
                              factorized_f_tensor(spec).values)

    def test_invalid_fraction(self):
        with pytest.raises(StructuralError):
            factorized_f_tensor(ChainSpec(N=4, m0=0.6), 1.5)

    def test_partial_traversal_matches_mixture_oracle(self):
        N, cut = 9, 5
        spec = ChainSpec(N=N, m0=0.6)
        f = factorized_f_tensor(spec, cut / N)
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
            f = factorized_f_tensor(spec, float(frac))
            pm = find_pointer_map(f)
            eps.append(pointer_errors(f.diagonal(), pm.inverse).max())
        assert all(b <= a + 1e-15 for a, b in zip(eps, eps[1:]))


def assert_matches_full_product(spec: ChainSpec, fraction: float) -> None:
    """Every sector's total and cell sums agree with the quadratic oracle.

    The total's log magnitude is the sector's trace product, its phase that of
    the cells' sum less the energy phase.  Log magnitudes and phases must agree
    to 1e-12 relative (absolute below magnitude 1, where a log difference is
    the relative value error).
    """
    rotated = int(math.floor(fraction * spec.N + 1e-12))
    cell_lm, cell_ph, log_trace = family_cells(spec, fraction)
    _, sums_ph = lc_sum_rows(cell_lm, cell_ph)
    for r in range(2):
        for s in range(2):
            energy = (spec.energies[s] - spec.energies[r]) * spec.t
            got = [(log_trace[r, s], sums_ph[r, s] - energy), *zip(cell_lm[r, s], cell_ph[r, s])]
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


def assert_cells_match(got, ref, context):
    """Log-coded cells equal: 1e-13 relative in log magnitude (absolute below
    magnitude 1), 1e-12 in phase; exact zeros exactly."""
    for (lm, ph), (ref_lm, ref_ph) in zip(got, ref):
        if ref_lm == -math.inf:
            assert lm == -math.inf, (context, lm)
            continue
        assert abs(lm - ref_lm) <= 1e-13 * max(1.0, abs(ref_lm)), (context, lm, ref_lm)
        assert abs(math.remainder(ph - ref_ph, 2 * math.pi)) <= 1e-12, (context, ph, ref_ph)


def _lse(x) -> float:
    x = x[x > -np.inf]
    return -math.inf if x.size == 0 else float(x.max() + np.log(np.sum(np.exp(x - x.max()))))


def boundary_log_pmf(n: int, p: float, q: float, h: int) -> tuple[int, np.ndarray]:
    """``(lo, rel)``: ``rel[j - lo] = log Bin(j; n, p) - log Bin(h - 1; n, p)``.

    The exact term ratios ``Bin(j + 1) / Bin(j) = (n - j) p / ((j + 1) q)``
    are accumulated outward from ``h - 1`` in extended precision, so the
    terms' relative sizes near the boundary carry no ulps of the O(n)
    log-pmf.  Past the mode the log-pmf falls at least quadratically, so a
    window of 40 standard deviations each way holds every term of a far
    tail above ``exp(-800)`` of its largest.
    """
    width = 40 * math.isqrt(int(n * p * q) + 1) + 64
    lo, hi = max(h - 1 - width, 0), min(h - 1 + width, n)
    j = np.arange(lo, hi, dtype=np.longdouble)
    steps = np.log((n - j) * p / ((j + 1) * q))  # log Bin(j + 1) - log Bin(j)
    rel = np.zeros(hi - lo + 1, dtype=np.longdouble)
    rel[h - lo:] = np.cumsum(steps[h - 1 - lo:])
    rel[:h - 1 - lo] = -np.cumsum(steps[h - 2 - lo::-1])[::-1]
    return lo, rel.astype(float)


@functools.lru_cache(maxsize=4)
def whole_log_pmf(n: int, p: float, q: float) -> np.ndarray:
    """The package's log-pmf over k = 0..n, read-only, kept for the sectors of one
    chain that share a block."""
    out = binomial_log_pmf(n, p, q, np.arange(n + 1))
    out.setflags(write=False)
    return out


def full_traversal_factors(spec: ChainSpec, r: int, s: int):
    """Sector pair (r, s)'s factors ``(a, b)`` at full traversal, as ``traversal_family``
    reads them from ``_pair_factors``: one bulk block, and the override polynomial."""
    diagonals = coleman_hepp._site_diagonals(spec)
    groups = coleman_hepp._site_groups(spec.N, spec.N, diagonals)
    bulk, b, _, (a, _) = coleman_hepp._pair_factors(spec, r, s, *groups, diagonals, {})
    assert bulk is None
    return a, b


def summed_sector_cells(a, b, N: int, energy: float):
    """The cells of full-traversal factors ``a`` and ``b``, of energy phase ``energy``, as
    ``sum_i a_i tail_b(h - i)``, each tail an O(N) logsumexp over the package's
    binomial log-pmf.

    On the far side of the mode, where the tails are far below 1, the terms
    are summed relative to the log-pmf at the cell boundary (see
    ``boundary_log_pmf``), and the block's O(N) log scale is added to each
    cell after the sum: rounded into every term, either would blur the
    terms' relative sizes, and so the phase of a mixed-phase cell, by ulps
    of N.
    """
    h = (N + 1) // 2
    a_lm, a_ph = a
    pmf = whole_log_pmf(b.size, b.p, b.q)
    lo, rel = 0, None
    if b.p > 0.0 and b.q > 0.0 and b.log_scale > -math.inf:
        lo, rel = boundary_log_pmf(b.size, b.p, b.q, h)
    cuts = [max(h - i, 0) for i in range(a_lm.size)]
    plain = [_lse(pmf[:cuts[0]]), _lse(pmf[cuts[0]:])]
    far = int(plain[1] < plain[0])
    cells = []
    for side in range(2):
        if rel is not None and side == far:
            values, shift, cut = rel, pmf[h - 1], [max(c - lo, 0) for c in cuts]
        else:
            values, shift, cut = pmf, 0.0, cuts
        tails = [_lse(values[:c] if side == 0 else values[c:]) for c in cut]
        terms = a_lm + np.array(tails)
        finite = terms > -np.inf
        if b.log_scale == -math.inf or not finite.any():
            cells.append((-math.inf, 0.0))
            continue
        m = terms[finite].max()
        acc = complex(np.sum(np.exp(terms[finite] - m) * np.exp(1j * (a_ph[finite] + b.phase))))
        cells.append((m + math.log(abs(acc)) + shift + b.log_total(),
                      math.atan2(acc.imag, acc.real) + energy))
    return cells


FULL_TRAVERSAL_GRID = [(m0, theta) for m0 in (0.002, 0.1, 0.6, 1.0)
                       for theta in (math.pi, 1.0, 2.2, 4.0)]


class TestFullTraversalTails:
    """Each full-traversal cell is k + 1 continued-fraction tails of ``b``."""

    @pytest.mark.parametrize("overrides", [None, COMPLEX_OVERRIDE], ids=["plain", "override"])
    @pytest.mark.parametrize("m0, theta", FULL_TRAVERSAL_GRID)
    @pytest.mark.parametrize("N", [2, 37, 4000])
    def test_cells_match_decimal_sums(self, N, m0, theta, overrides):
        spec = ChainSpec(N=N, m0=m0, theta=theta, energies=(0.3, -0.2), site_overrides=overrides)
        lm, ph, _ = family_cells(spec)
        for r in range(2):
            for s in range(2):
                assert_cells_match(zip(lm[r, s], ph[r, s]), decimal_sector_cells(spec, r, s), (r, s))

    @pytest.mark.parametrize("overrides", [None, COMPLEX_OVERRIDE], ids=["plain", "override"])
    @pytest.mark.parametrize("m0, theta", FULL_TRAVERSAL_GRID)
    def test_cells_match_summed_log_pmf_at_a_million_sites(self, m0, theta, overrides):
        N = 1_000_000
        spec = ChainSpec(N=N, m0=m0, theta=theta, energies=(0.3, -0.2), site_overrides=overrides)
        lm, ph, _ = family_cells(spec)
        for r in range(2):
            for s in range(2):
                ref = summed_sector_cells(*full_traversal_factors(spec, r, s), N,
                                          (spec.energies[s] - spec.energies[r]) * spec.t)
                assert_cells_match(zip(lm[r, s], ph[r, s]), ref, (r, s))

    @pytest.mark.parametrize("m0", [0.6, 1.0])
    def test_single_site(self, m0):
        spec = ChainSpec(N=1, m0=m0, theta=2.2, energies=(0.3, -0.2))
        lm, ph, _ = family_cells(spec)
        for r in range(2):
            for s in range(2):
                assert_cells_match(zip(lm[r, s], ph[r, s]), decimal_sector_cells(spec, r, s), (r, s))

    def test_every_site_overridden(self):
        # b is the empty block: the cells are the override polynomial's own
        overrides = {0: polarized_site(-0.6), **COMPLEX_OVERRIDE, 2: polarized_site(0.2)}
        spec = ChainSpec(N=3, m0=0.6, theta=2.2, energies=(0.3, -0.2), site_overrides=overrides)
        lm, ph, _ = family_cells(spec)
        for r in range(2):
            for s in range(2):
                a, b = full_traversal_factors(spec, r, s)
                assert b.size == 0 and a[0].size == 4
                assert_cells_match(zip(lm[r, s], ph[r, s]), decimal_sector_cells(spec, r, s), (r, s))
        assert np.abs(dense_tensor(spec).values - factorized_f_tensor(spec).values).max() < 1e-12

    def test_fully_polarised_chain_has_structural_zeros(self):
        # m0 = 1: q = 0, so the unflipped sector never leaves "+" and the
        # flipped one never leaves "-", exactly, at any N
        for N in (1, 2, 1001, 10 ** 9):
            f = factorized_f_tensor(ChainSpec(N=N, m0=1.0))
            assert f.log_magnitude[0, 0, 0] == -math.inf and f.log_magnitude[0, 0, 1] == 0.0
            assert f.log_magnitude[1, 1, 1] == -math.inf and f.log_magnitude[1, 1, 0] == 0.0
            assert np.isneginf(f.log_magnitude[0, 1]).all()


class TestLargeN:
    def test_hundred_thousand_sites(self):
        f = factorized_f_tensor(ChainSpec(N=100_000, m0=0.6))
        pm = find_pointer_map(f)
        assert pm.phi == (1, 0)
        logs = log_pointer_errors(f.log_magnitude, pm.inverse)
        rate = -logs.max() / 100_000
        assert rate == pytest.approx(0.22314355131420976, rel=1e-3)
        assert f.underflow.any()
        assert core.check_f_properties(f).passed

    def test_underflow_is_the_per_cell_rule(self):
        # a cell is underflowed where its log magnitude is finite and its value
        # rounds to zero: at N = 5000 the "-" cell of the spin-up sector, and at
        # theta 2.5 the cross sectors too (at pi they are exact zeros)
        N = 5000
        for theta, cross in ((math.pi, False), (2.5, True)):
            spec = ChainSpec(N=N, m0=0.6, theta=theta)
            f = factorized_f_tensor(spec)
            assert type(f) is core.FTensor
            log_mags = family_cells(spec)[0]
            want = (log_mags != -math.inf) & (np.exp(log_mags) == 0.0)
            assert np.array_equal(f.underflow, want)
            assert want[0, 0, 0] and not want[0, 0, 1]
            assert want[0, 1].all() == cross

    def test_billion_sites(self):
        # the full traversal costs the same at any N: rows still sum to 1,
        # and the decay rate is the boundary relative entropy D(1/2 || 0.8)
        N = 10 ** 9
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        for r in range(2):
            assert abs(math.fsum(f.values[r, r].real) - 1.0) <= 1e-12
        rate = -log_pointer_errors(f.log_magnitude, find_pointer_map(f).inverse).max() / N
        assert abs(rate - kl_bernoulli(0.5, 0.8)) <= 1e-6
        assert core.check_f_properties(f).passed

    def test_full_traversal_memory_does_not_grow_with_N(self):
        def peak(N):
            spec = ChainSpec(N=N, m0=0.6, site_overrides=COMPLEX_OVERRIDE)
            factorized_f_tensor(spec)  # first calls fill module-level caches
            tracemalloc.start()
            try:
                factorized_f_tensor(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10 ** 5), peak(10 ** 9)
        assert large < 2 ** 20
        assert abs(large - small) <= 0.1 * small

    @pytest.mark.parametrize("Ns", [range(1, 2001), (10 ** 5, 10 ** 5 + 1)], ids=["small", "large"])
    def test_chain_cells_in_closed_form(self, Ns):
        for N in Ns:
            partition = chain_cells(N)
            cell_of_point, labels = sign_cells_reference(N)
            assert coleman_hepp.CELL_LABELS == labels
            h = coleman_hepp.sign_boundary(N)
            assert np.array_equal(np.repeat(np.arange(2), (h, N + 1 - h)), cell_of_point)
            assert (partition is None) == (N > coleman_hepp.DENSE_SITE_CAP)
            if partition is not None:
                # each basis index takes the cell of its up count's spectrum point
                ups = N - np.array([bin(i).count("1") for i in range(2 ** N)])
                assert np.array_equal(partition.cell_of, cell_of_point[ups])
                assert partition.labels == labels

    @pytest.mark.parametrize("N", range(1, 13))
    def test_dense_chain_cells_by_popcount(self, N):
        partition = chain_cells(N)
        plus = [2 * (N - bin(i).count("1")) >= N for i in range(2 ** N)]
        assert partition.cell_of.tolist() == [int(p) for p in plus]
        assert partition.labels[1] == "+"

    def test_no_dense_chain_cells_above_the_dense_cap(self):
        assert coleman_hepp.DENSE_SITE_CAP == 12
        assert chain_cells(13) is None

    def test_half_traversal_at_hundred_thousand_sites(self):
        f = factorized_f_tensor(ChainSpec(N=100_000, m0=0.6), 0.5)
        assert core.check_f_properties(f).passed
        for r in range(2):
            assert abs(f.values[r, r].real.sum() - 1.0) <= 1e-10


    def test_partial_traversal_memory_grows_as_the_root_of_N(self):
        # a two-block sector pair is summed over windows of its shorter block's width
        def peak(N):
            spec = ChainSpec(N=N, m0=0.6)
            factorized_f_tensor(spec, 0.5)
            tracemalloc.start()
            try:
                factorized_f_tensor(spec, 0.5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10 ** 9) < 150 * peak(10 ** 5)


#: (m0, traversal fraction) at theta = pi: both cells of the spin-down sector
#: near 1/2 at half traversal, one exponentially small at 0.37 and 0.75, and
#: at m0 = 0.2 one whose window sits at the tilted peak, far from either mode
COMPENSATED_ROWS = [(0.6, 0.37), (0.6, 0.5), (0.6, 0.75), (0.2, 0.75)]


def diagonal_blocks(N: int, m0: float, fraction: float, r: int):
    """Diagonal sector r's bulk blocks at theta = pi after ``fraction`` of the chain, part of
    it passed, as ``(shorter, longer)``, the shorter None for one block: the spin-down sector
    flips each passed site, up-probability ``(1 - m0) / 2`` in place of ``(1 + m0) / 2``."""
    up, down, n_rot = (1 + m0) / 2, (1 - m0) / 2, passed_sites(N, fraction)
    assert 0 < n_rot < N
    if r == 0:
        return None, BinomialBlock(N, up, down, 0.0)
    rot, plain = BinomialBlock(n_rot, down, up, 0.0), BinomialBlock(N - n_rot, up, down, 0.0)
    return (rot, plain) if n_rot <= N - n_rot else (plain, rot)


def assert_diagonal_cells_match_compensated_sums(N: int) -> None:
    """Both diagonal sectors' cells, from ``traversal_family``, against
    ``compensated_cells`` over the package's pmfs of the sector's own blocks:
    1e-13 relative in log magnitude (absolute below magnitude 1)."""
    h = coleman_hepp.sign_boundary(N)
    for m0, fraction in COMPENSATED_ROWS:
        spec = ChainSpec(N=N, m0=m0)
        tensor = family_cells(spec, fraction)[0]
        for r in range(2):
            bulk, b = diagonal_blocks(N, m0, fraction, r)
            lA = block_log_magnitudes(bulk) if bulk else np.zeros(1)
            ref = compensated_cells(lA, block_log_magnitudes(b), h)
            got = tensor[r, r]
            for side in range(2):
                context = (N, m0, fraction, r, side, got[side], ref[side])
                assert abs(got[side] - ref[side]) <= 1e-13 * max(1.0, abs(ref[side])), context


class TestCompensatedCells:
    """A partial traversal's window sums hold their digits where the running
    sums they replace drifted; N = 10**7 runs as a CI step."""

    @pytest.mark.parametrize("N", [10 ** 5, 10 ** 6])
    def test_diagonal_cells_match_compensated_sums(self, N):
        assert_diagonal_cells_match_compensated_sums(N)

    def test_reference_matches_exact_rationals(self):
        # the reference itself, on a chain small enough for exact arithmetic
        N, fraction = 60, 0.75
        bulk, b = diagonal_blocks(N, 0.2, fraction, 1)
        ref = compensated_cells(block_log_magnitudes(bulk), block_log_magnitudes(b), (N + 1) // 2)
        pmf = poisson_binomial_fraction([Fraction(bulk.p)] * bulk.size + [Fraction(b.p)] * b.size)
        for side, want in enumerate((sum(pmf[:(N + 1) // 2]), sum(pmf[(N + 1) // 2:]))):
            assert abs(ref[side] - exact_log(want)) <= 1e-13 * max(1.0, abs(ref[side]))


class TestSpecHelpers:
    def test_passed_sites_reads_the_fraction_as_it_prints(self):
        # floor(fraction * N) of the fraction's own digits at any N; the float product falls
        # just below the integer for 0.29 at N = 10**5 and 0.7 at N = 7 * 10**5; a numpy float and
        # one printed with an exponent are read the same way; and every 1- to 3-digit fraction at
        # N = {1, 3, 7} * 10**2..10**9
        assert passed_sites(100, 0.29) == 29 and passed_sites(100_000, 0.29) == 29_000
        assert passed_sites(700_000, 0.7) == 490_000 and passed_sites(700_000, np.float64(0.7)) == 490_000
        assert passed_sites(10 ** 9, 1.5e-05) == 15_000 and passed_sites(10 ** 9, 5e-324) == 0  # printed with e
        Ns = [m * 10 ** e for e in range(2, 10) for m in (1, 3, 7)]
        for digits in (1, 2, 3):
            for m in range(10 ** digits + 1):
                fraction = m / 10 ** digits
                for N in Ns:
                    assert passed_sites(N, fraction) == m * N // 10 ** digits, (fraction, N)

    def test_at_size_checks_only_what_depends_on_N(self, monkeypatch):
        spec = ChainSpec(N=8, m0=0.6, theta=2.2, site_overrides={1: polarized_site(-0.6)})
        checked = []
        monkeypatch.setattr(coleman_hepp, "_check_site_state", lambda rho, site: checked.append(site))
        sized = spec.at_size(3)
        assert (sized.N, sized.m0, sized.theta) == (3, 0.6, 2.2) and spec.N == 8
        assert sized.site_overrides is spec.site_overrides and not checked
        for N in (0, 1):
            with pytest.raises(StructuralError) as got:
                spec.at_size(N)
            with pytest.raises(StructuralError) as built:
                ChainSpec(N=N, m0=0.6, theta=2.2, site_overrides={1: polarized_site(-0.6)})
            assert str(got.value) == str(built.value)

    def test_traversal_family_matches_one_spec_per_size(self, chain_family):
        # one call over many sizes gives, bit for bit, each size's one-size call and
        # factorized_f_tensor; a size below an override site fails alone, as that chain does
        for theta, overridden, fraction in itertools.product(
                (math.pi, 2.2, 1.0, 4.0), (False, True), (1.0, 0.5, 0.37)):
            spec, Ns, values, log_magnitude, log_trace, failed = chain_family(theta, fraction, overridden,
                                                                              (0.3, -0.4))
            assert values.shape == log_magnitude.shape == (len(Ns), 2, 2, 2)
            assert log_trace.shape == (len(Ns), 2, 2)
            for i, N in enumerate(Ns):
                context = (theta, overridden, fraction, N)
                one_lm, one_ph, one_trace, one_failed = traversal_family(spec, fraction, [N])
                try:
                    want = factorized_f_tensor(ChainSpec(N=N, m0=0.6, theta=theta, energies=(0.3, -0.4),
                                                        site_overrides=spec.site_overrides), fraction)
                except StructuralError as exc:
                    assert type(failed[i]) is type(one_failed[0]) is StructuralError, context
                    assert str(failed[i]) == str(one_failed[0]) == str(exc), context
                    continue
                assert i not in failed and not one_failed, context
                one_values = lc_values(one_lm[0], one_ph[0])
                for got_values, got_lm in ((values[i], log_magnitude[i]), (one_values, one_lm[0])):
                    assert got_values.tobytes() == want.values.tobytes(), context
                    assert got_lm.tobytes() == want.log_magnitude.tobytes(), context
                assert log_trace[i].tobytes() == one_trace[0].tobytes(), context

    def test_traversal_never_builds_the_dense_partition(self, monkeypatch):
        built = []

        def spy(cell_of, *args, **kwargs):
            built.append(len(cell_of))
            return core.PhaseCellPartition(cell_of, *args, **kwargs)

        monkeypatch.setattr(coleman_hepp, "PhaseCellPartition", spy)
        spec = ChainSpec(N=12, m0=0.6, site_overrides={1: polarized_site(-0.6)})
        factorized_f_tensor(spec, 1.0)
        factorized_f_tensor(spec, 0.5)
        traversal_family(spec, 1.0, [12])
        assert built == []
        assert chain_cells(12) is not None and built == [2 ** 12]  # the spy sees the dense path

    def test_partial_traversal_moderate_scale(self):
        # the untouched sector merges into one closed form; the flipped sector
        # pays one heterogeneous convolution
        spec = ChainSpec(N=5000, m0=0.6)
        f = factorized_f_tensor(spec, 0.62)
        assert core.check_f_properties(f).passed
        assert f.values[1, 1, 0].real > 0.99  # flipped majority already formed

    def test_bulk_block_requires_one_phase(self):
        # arguments pi and -pi, as cos(theta / 2) < 0 gives in a cross
        # sector, are one phase; a quarter turn between the two is not
        block = _bulk_block(complex(-0.3, 0.0), complex(-0.2, -0.0), None)(5)
        assert block.size == 5 and block.phase == math.pi  # (-1)**5
        with pytest.raises(StructuralError, match="one phase"):
            _bulk_block(0.3 + 0j, 0.2j, None)

    def test_mixed_phase_overrides_match_decimal_sums(self):
        # two overrides whose cross-sector diagonals differ in phase from the
        # bulk and from each other, beyond ten thousand sites: each cell is
        # a three-term mixed-phase sum of bulk tails, checked against 50-digit
        # complex decimal sums of the full product polynomial
        overrides = {3: np.array([[0.5, 0.25], [0.25, 0.5]]), **COMPLEX_OVERRIDE}
        spec = ChainSpec(N=12_000, m0=0.6, theta=2.0, energies=(0.3, -0.2),
                         site_overrides=overrides)
        lm, ph, _ = family_cells(spec)
        for r, s in ((0, 1), (1, 0)):
            for got_lm, got_ph, (ref_lm, ref_ph) in zip(lm[r, s], ph[r, s], decimal_sector_cells(spec, r, s)):
                assert abs(got_lm - ref_lm) <= 1e-12 * max(1.0, abs(ref_lm)), (r, s, got_lm, ref_lm)
                assert abs(math.remainder(got_ph - ref_ph, 2 * math.pi)) <= 1e-12, (r, s, got_ph, ref_ph)

    def test_chain_cells_never_warn(self):
        # no sign cell is empty, and none warns, at any size inside the cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for N in range(1, 65):
                assert 0 < coleman_hepp.sign_boundary(N) <= N
                partition = chain_cells(N)
                assert partition is None or min(partition.members(a).size for a in range(2)) > 0
