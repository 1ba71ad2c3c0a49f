import numpy as np

from pointer_cell_sim.logspace import lc_convolve, lc_cumsum


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
