import decimal
import math
from fractions import Fraction

import numpy as np
import pytest

from pointer_cell_sim.coleman_hepp import ChainSpec, _group_polynomial, factorized_f_tensor
from pointer_cell_sim.logspace import binomial_log_pmf, lc_convolve, lc_cumsum


def log_code(x):
    """(lm, ph) of complex values, with exact zeros as -inf."""
    x = np.asarray(x, dtype=complex)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x)), np.where(x == 0, 0.0, np.angle(x))


class TestRunningSums:
    def test_mixed_phases_match_complex_cumsum(self, rng):
        x = rng.normal(size=200) + 1j * rng.normal(size=200)
        lm, ph = lc_cumsum(*log_code(x))
        got = np.exp(lm) * np.exp(1j * ph)
        scale = np.cumsum(np.abs(x))
        assert np.all(np.abs(got - np.cumsum(x)) <= 1e-13 * scale)

    def test_far_below_the_double_floor(self, rng):
        # the same sums scaled by exp(-10**4); every accumulation step rounds
        # the running log at ulp(1e4) ~ 1.8e-12, and random phases cancel
        x = rng.normal(size=100) + 1j * rng.normal(size=100)
        lm, ph = log_code(x)
        far_lm, far_ph = lc_cumsum(lm - 1e4, ph)
        assert np.all(far_lm < -9e3)
        got = np.exp(far_lm + 1e4) * np.exp(1j * far_ph)
        assert np.all(np.abs(got - np.cumsum(x)) <= 1e-10 * np.cumsum(np.abs(x)))

    def test_nonnegative_terms_are_an_exact_log_prefix_sum(self, rng):
        lm = rng.normal(scale=50.0, size=300)
        lm[::7] = -np.inf
        out_lm, out_ph = lc_cumsum(lm, np.zeros_like(lm))
        assert np.array_equal(out_lm, np.logaddexp.accumulate(lm))
        assert np.all(out_ph == 0.0)

    def test_zero_terms_and_empty_prefix(self):
        lm, ph = lc_cumsum(*log_code([0.0, 2.0, 0.0, 1j]))
        assert lm[0] == -np.inf and ph[0] == 0.0
        assert lm[1] == lm[2] == np.log(2.0) and ph[1] == ph[2] == 0.0
        assert abs(lm[3] - 0.5 * np.log(5.0)) <= 1e-15
        assert abs(ph[3] - np.arctan2(1.0, 2.0)) <= 1e-15


class TestConvolution:
    def test_long_sides_match_direct_convolution(self, rng):
        # both sides longer than 64 terms, mixed phases, a few exact zeros,
        # and the product far below the double floor (exp(-1000))
        x = rng.normal(size=150) + 1j * rng.normal(size=150)
        y = rng.normal(size=97) + 1j * rng.normal(size=97)
        x[::11] = 0.0
        lmx, phx = log_code(x)
        lmy, phy = log_code(y)
        lm, ph = lc_convolve((lmx - 500.0, phx), (lmy - 500.0, phy))
        assert lm.shape == ph.shape == (150 + 97 - 1,)
        assert np.all(lm < -900.0)
        got = np.exp(lm + 1000.0) * np.exp(1j * ph)
        scale = np.convolve(np.abs(x), np.abs(y))
        assert np.all(np.abs(got - np.convolve(x, y)) <= 1e-12 * scale)

    def test_nonnegative_long_sides_match_exact_binomials(self):
        # (1 + z)^100 * (1 + z)^80 = (1 + z)^180, coefficients compared with
        # exact integer binomials in log space
        from math import comb, log
        a = (np.array([log(comb(100, k)) for k in range(101)]), np.zeros(101))
        b = (np.array([log(comb(80, k)) for k in range(81)]), np.zeros(81))
        lm, ph = lc_convolve(a, b)
        ref = np.array([log(comb(180, k)) for k in range(181)])
        assert np.all(np.abs(lm - ref) <= 1e-13 * np.maximum(1.0, ref))
        assert np.all(ph == 0.0)


def exact_log(value: Fraction) -> float:
    """log of a positive rational, from 50-digit decimal logarithms."""
    ctx = decimal.Context(prec=50)
    return float(ctx.ln(value.numerator) - ctx.ln(value.denominator))


class TestBinomialLogPmf:
    @pytest.mark.parametrize("p", [0.8, 0.5, 0.1])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 60, 300])
    def test_matches_exact_rationals(self, n, p):
        q = 1.0 - p
        got = binomial_log_pmf(n, p, q)
        pf, qf = Fraction(p), Fraction(q)
        ref = np.array([exact_log(math.comb(n, k) * pf ** k * qf ** (n - k))
                        for k in range(n + 1)])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("d0, d1", [(0.3 + 0.4j, 0.4 - 0.3j), (0.3 + 0.4j, 0.6 - 0.2j)])
    def test_complex_block_matches_exact_rationals(self, d0, d1):
        # coefficients of (d1 + d0 z)**n: magnitudes C(n, j) |d0|**j |d1|**(n - j),
        # phases j arg d0 + (n - j) arg d1.  Each log magnitude is the scale
        # n log(|d0| + |d1|) (0 for the first pair, 37 for the second) plus
        # a log-pmf, so it is compared relative to the larger of the two.
        n = 300
        lm, ph = _group_polynomial(n, d0, d1)
        m0, m1 = Fraction(abs(d0)), Fraction(abs(d1))
        ref = np.array([exact_log(math.comb(n, j) * m0 ** j * m1 ** (n - j))
                        for j in range(n + 1)])
        scale = np.maximum(np.abs(ref), max(1.0, n * abs(math.log(abs(d0) + abs(d1)))))
        assert np.all(np.abs(lm - ref) <= 1e-14 * scale)
        j = np.arange(n + 1)
        assert np.array_equal(ph, j * np.angle(d0) + (n - j) * np.angle(d1))

    def test_complement_near_zero_keeps_its_digits(self):
        # p rounds to 1, but q = 1e-20 still weights every term
        got = binomial_log_pmf(5, 1.0, 1e-20)
        ref = [math.log(math.comb(5, k)) + (5 - k) * math.log(1e-20) + k * math.log1p(-1e-20)
               for k in range(6)]
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_degenerate_probabilities_are_exact(self):
        assert list(binomial_log_pmf(3, 0.0, 1.0)) == [0.0, -np.inf, -np.inf, -np.inf]
        assert list(binomial_log_pmf(3, 1.0, 0.0)) == [-np.inf, -np.inf, -np.inf, 0.0]

    @pytest.mark.parametrize("N", [200_000, 1_000_000])
    def test_chain_row_sums_beyond_two_hundred_thousand_sites(self, N):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        for r in range(2):
            assert abs(math.fsum(f.values[r, r].real) - 1.0) <= 1e-12
        for p in (0.8, 0.5, 0.1):
            assert abs(math.fsum(np.exp(binomial_log_pmf(N, p, 1.0 - p))) - 1.0) <= 1e-12
