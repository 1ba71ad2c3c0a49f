import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pointer_cell_sim.coleman_hepp import ChainSpec, _site_polynomials, factorized_f_tensor, traversal_family
from pointer_cell_sim.errors import NumericalError
from pointer_cell_sim import logspace
from pointer_cell_sim.logspace import (
    _binomial_block,
    binomial_log_pmf,
    lc_convolve,
    lc_sum_rows,
)

from oracles import _log_coded_sum, binom_range_log, block_log_magnitudes, exact_log, lc_sum


def log_code(x):
    """(lm, ph) of complex values, with exact zeros as -inf."""
    x = np.asarray(x, dtype=complex)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(x)), np.where(x == 0, 0.0, np.angle(x))


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


class TestStackedSum:
    @staticmethod
    def rows(rng, width):
        """Rows of one width: random log magnitudes and phases, -inf at the front, in
        the middle, at the end and everywhere, and phases whose terms cancel to 0."""
        lm = rng.normal(scale=20.0, size=(40, width)) - 600.0 * rng.integers(0, 2, size=(40, 1))
        ph = rng.uniform(-7.0, 7.0, size=(40, width))
        lm[9:][rng.random((31, width)) < 0.2] = -np.inf
        lm[1, 0] = lm[2, width // 2] = lm[3, -1] = -np.inf
        lm[4] = -np.inf
        lm[5, ::3] = -np.inf
        lm[6, 1::2] = -np.inf
        # (1, 0) + (-1, sin pi) + (-1, -sin pi) + (1, 0): zero in both parts, exactly
        lm[7], ph[7] = -3.0, np.resize([0.0, math.pi, -math.pi, 0.0], width)
        lm[7, width // 4 * 4:] = -np.inf
        lm[8], ph[8] = -3.0, np.resize([math.pi, -math.pi], width)
        return lm, ph

    @pytest.mark.parametrize("widths", [(1,), (7,), (8,), (9,), (300,), (1, 7, 8, 9, 300)])
    def test_rows_match_one_row_sums_bit_for_bit(self, rng, widths):
        # np.sum pairs its terms differently from four complex terms on and in
        # blocks from 64: widths on both sides of each, stacked in one call
        width = max(widths)
        stacked_lm, stacked_ph = [], []
        for w in widths:
            lm, ph = self.rows(rng, w)
            pad = np.full((len(lm), width - w), -np.inf)
            stacked_lm.append(np.hstack([lm, pad]))
            stacked_ph.append(np.hstack([ph, rng.uniform(-7.0, 7.0, size=pad.shape)]))
        lm, ph = np.array(stacked_lm), np.array(stacked_ph)  # (len(widths), 40, width)
        got_lm, got_ph = lc_sum_rows(lm, ph)
        assert got_lm.shape == got_ph.shape == lm.shape[:-1]
        want = np.array([[lc_sum(row_lm, row_ph) for row_lm, row_ph in zip(*block)]
                         for block in zip(lm, ph)])
        assert got_lm.tobytes() == want[..., 0].tobytes()
        assert got_ph.tobytes() == want[..., 1].tobytes()
        assert np.isneginf(got_lm[:, 4]).all() and np.isneginf(got_lm[:, 7]).all()

    def test_phases_broadcast_over_rows(self, rng):
        lm, ph = rng.normal(size=(3, 2, 5)), rng.uniform(-3.0, 3.0, size=5)
        got = lc_sum_rows(lm, ph)
        want = lc_sum_rows(lm, np.broadcast_to(ph, lm.shape).copy())
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestBinomialLogPmf:
    @pytest.mark.parametrize("p", [0.8, 0.5, 0.1])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 60, 300])
    def test_matches_exact_rationals(self, n, p):
        q = 1.0 - p
        got = binomial_log_pmf(n, p, q, np.arange(n + 1))
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
        # A single site, as an override's factor, is its two entries' logs: 1 ulp each.
        n = 300
        lm = block_log_magnitudes(dataclasses.replace(_binomial_block(d0, d1), size=n))
        m0, m1 = Fraction(abs(d0)), Fraction(abs(d1))
        ref = np.array([exact_log(math.comb(n, j) * m0 ** j * m1 ** (n - j))
                        for j in range(n + 1)])
        scale = np.maximum(np.abs(ref), max(1.0, n * abs(math.log(abs(d0) + abs(d1)))))
        assert np.all(np.abs(lm - ref) <= 1e-14 * scale)
        site = [[(d0, d1), (d1, d0)], [(0j, d1), (d0, 0j)]]
        polys = _site_polynomials({None: None, 5: site})
        for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
            site_lm, site_ph = polys[5, a, b]
            for got, d in zip(site_lm, reversed(site[a][b])):
                ref = exact_log(Fraction(abs(d))) if d else -math.inf
                assert got == ref or abs(got - ref) <= math.ulp(ref), (a, b, got, ref)
            assert np.array_equal(site_ph, [np.angle(d) for d in reversed(site[a][b])])

    def test_complement_near_zero_keeps_its_digits(self):
        # p rounds to 1, but q = 1e-20 still weights every term
        got = binomial_log_pmf(5, 1.0, 1e-20, np.arange(6))
        ref = [math.log(math.comb(5, k)) + (5 - k) * math.log(1e-20) + k * math.log1p(-1e-20)
               for k in range(6)]
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)

    def test_degenerate_probabilities_are_exact(self):
        assert list(binomial_log_pmf(3, 0.0, 1.0, np.arange(4))) == [0.0, -np.inf, -np.inf, -np.inf]
        assert list(binomial_log_pmf(3, 1.0, 0.0, np.arange(4))) == [-np.inf, -np.inf, -np.inf, 0.0]
        assert list(binomial_log_pmf(4, 0.0, 1.0, [0, 1])) == [0.0, -np.inf]
        assert list(binomial_log_pmf(4, 1.0, 0.0, [4, 3])) == [0.0, -np.inf]

    @pytest.mark.parametrize("N", [200_000, 1_000_000])
    def test_chain_row_sums_beyond_two_hundred_thousand_sites(self, N):
        f = factorized_f_tensor(ChainSpec(N=N, m0=0.6))
        for r in range(2):
            assert abs(math.fsum(f.values[r, r].real) - 1.0) <= 1e-12
        for p in (0.8, 0.5, 0.1):
            assert abs(math.fsum(np.exp(binomial_log_pmf(N, p, 1.0 - p, np.arange(N + 1)))) - 1.0) <= 1e-12


def assert_log_close(got, ref, rtol=1e-13):
    """Log magnitudes equal to ``rtol`` relative, absolute below magnitude 1."""
    if ref == -math.inf:
        assert got == -math.inf, (got, ref)
    else:
        assert abs(got - ref) <= rtol * max(1.0, abs(ref)), (got, ref)


def binomial_tail_sums(n, t, p, q, lm, ph):
    """Log-coded ``sum_i c_i P(X < t - i)`` and ``sum_i c_i P(X >= t - i)``, X ~ Bin(n, p),
    ``c_i = exp(lm[i] + 1j * ph[i])``: the tails of ``logspace.binomial_log_tails``
    summed by ``lc_sum_rows`` and shifted, as the package sums a block's cells."""
    (tails,), (shift,), failed = logspace.binomial_log_tails([(n, t, p, q)], len(lm))
    assert not failed
    sums_lm, sums_ph = lc_sum_rows(lm + tails, np.broadcast_to(ph, tails.shape))
    sums_lm = sums_lm + shift
    return (sums_lm[0], sums_ph[0]), (sums_lm[1], sums_ph[1])


def binomial_log_tails(n, t, p, q):
    """``(log P(X < t), log P(X >= t))`` from ``binomial_tail_sums`` with one unit term."""
    (below, _), (above, _) = binomial_tail_sums(n, t, p, q, np.zeros(1), np.zeros(1))
    return below, above


def logsumexp_tails(lm, t):
    """``(log P(X < t), log P(X >= t))`` summed over the package's log-pmf ``lm``."""

    def lse(x):
        x = x[x > -np.inf]
        if x.size == 0:
            return -math.inf
        m = x.max()
        return float(m + np.log(np.sum(np.exp(x - m))))

    return lse(lm[:max(t, 0)]), lse(lm[max(t, 0):])


# up-probabilities of the chain sectors over m0 in {0.002, 0.1, 0.6} and
# theta in {pi, 1, 2.2, 4}: the base (1 + m0) / 2 and its rotated mixtures
CHAIN_PS = sorted({w * (1 + m0) / 2 + (1 - w) * (1 - m0) / 2
                   for m0 in (0.002, 0.1, 0.6)
                   for w in (1.0, 0.0) + tuple(math.cos(th / 2) ** 2 for th in (1.0, 2.2, 4.0))})


class TestBinomialTails:
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 101, 1000, 4000])
    @pytest.mark.parametrize("p", [0.8, 0.55, 0.501, 0.2, 0.999, 1e-3])
    def test_matches_decimal_sums(self, n, p):
        # the split points around the mean, the cell boundary and the ends
        q = 1.0 - p
        ts = {0, 1, n // 2, (n + 1) // 2, n - 1, n, n + 1,
              int(p * n) - 1, int(p * n), int(p * n) + 1, int(p * n) + 2}
        for t in sorted(t for t in ts if -1 <= t <= n + 1):
            below, above = binomial_log_tails(n, t, p, q)
            assert_log_close(below, binom_range_log(n, p, range(t)) if t > 0 else -math.inf)
            assert_log_close(above, binom_range_log(n, p, range(max(t, 0), n + 1))
                             if t <= n else -math.inf)

    @pytest.mark.parametrize("n", [10_001, 100_000, 1_000_000])
    def test_matches_summed_log_pmf(self, n):
        # every chain-sector probability at the cell boundary and one site off
        # it, with the boundary within a standard deviation of the mode for
        # m0 = 0.002 at the two largest n
        h = (n + 1) // 2
        for p in CHAIN_PS:
            lm = binomial_log_pmf(n, p, 1.0 - p, np.arange(n + 1))
            for t in (h - 1, h, h + 1):
                got = binomial_log_tails(n, t, p, 1.0 - p)
                for g, r in zip(got, logsumexp_tails(lm, t)):
                    assert_log_close(g, r)

    @pytest.mark.parametrize("n, t, p", [(4000, 2000, 0.8), (4000, 2007, 0.501), (4000, 4002, 0.2),
                                         (30, 19, 0.55), (9, 2, 0.3), (9, 2, 0.05)])
    def test_mixed_phase_sums_over_consecutive_splits(self, n, t, p):
        # five mixed-phase coefficients over the splits t, t - 1, ..., t - 4:
        # far out in a tail, across the mode and past either end of 0..n
        rng = np.random.default_rng(n + t)
        lm, ph = rng.normal(size=5), rng.uniform(-3.0, 3.0, size=5)
        got = binomial_tail_sums(n, t, p, 1.0 - p, lm, ph)
        for side, (got_lm, got_ph) in enumerate(got):
            tails = []
            for s in range(t, t - 5, -1):
                js = range(min(max(s, 0), n + 1)) if side == 0 else range(max(s, 0), n + 1)
                tails.append(binom_range_log(n, p, js) if len(js) else -math.inf)
            ref_lm, ref_ph = _log_coded_sum(lm + np.array(tails), ph)
            assert_log_close(got_lm, ref_lm)
            assert abs(math.remainder(got_ph - ref_ph, 2 * math.pi)) <= 1e-12, (side, got_ph, ref_ph)

    def test_batch_matches_each_row_alone(self, monkeypatch):
        # one call over many rows equals each row called alone, bit for bit, with
        # the rows in two orders: far tails (double steps), the near mode at p = 1/2,
        # as theta = pi / 2 gives (decimal steps), sure splits (t <= 0, t > n, p or
        # q = 0), k = 1 and 3, n up to 10**9; a batch mixes both arithmetics
        batches, inner = [], logspace._lentz

        def spy(a, b, x, one, eps):
            batches.append(x.dtype.kind)
            return inner(a, b, x, one, eps)

        monkeypatch.setattr(logspace, "_lentz", spy)
        rows = []
        for n in (1, 2, 5, 50, 999, 100_001, 10 ** 7, 10 ** 9):
            h = (n + 1) // 2
            rows += [(n, h, 0.8, 0.19999999999999996), (n, h + 1, 0.2, 0.8), (n, n // 3, 0.999, 1.0 - 0.999),
                     (n, h, 0.5, 0.5), (n, -1, 0.3, 0.7), (n, 0, 0.3, 0.7), (n, n + 1, 0.3, 0.7),
                     (n, n + 3, 0.3, 0.7), (n, h, 0.0, 1.0), (n, h, 1.0, 0.0)]
            rows += [(n, h + 3, 0.5, 0.5)] if n < 10 ** 9 else []  # 5200 decimal steps at 10**9
        for k in (1, 3):
            alone = [logspace.binomial_log_tails([row], k) for row in rows]
            assert not any(failed for _, _, failed in alone)
            for order in (np.arange(len(rows)), np.random.default_rng(k).permutation(len(rows))):
                del batches[:]
                tails, shifts, failed = logspace.binomial_log_tails([rows[j] for j in order], k)
                assert not failed and tails.shape == (len(rows), 2, k) and shifts.shape == (len(rows), 2)
                for got, j in enumerate(order):
                    assert tails[got].tobytes() == alone[j][0][0].tobytes(), (rows[j], k)
                    assert shifts[got].tobytes() == alone[j][1][0].tobytes(), (rows[j], k)
                assert batches == ["f", "O"]

    def test_degenerate_probabilities_are_exact(self):
        # p = 0: X = 0; q = 0: X = n; t outside 1..n: one side is empty
        assert binomial_log_tails(5, 1, 0.0, 1.0) == (0.0, -math.inf)
        assert binomial_log_tails(5, 0, 0.0, 1.0) == (-math.inf, 0.0)
        assert binomial_log_tails(5, 5, 1.0, 0.0) == (-math.inf, 0.0)
        assert binomial_log_tails(5, 6, 1.0, 0.0) == (0.0, -math.inf)
        assert binomial_log_tails(0, 0, 1.0, 0.0) == (-math.inf, 0.0)
        assert binomial_log_tails(0, 1, 0.5, 0.5) == (0.0, -math.inf)
        assert binomial_log_tails(7, -3, 0.3, 0.7) == (-math.inf, 0.0)

    def test_far_below_the_double_floor(self):
        # P(Bin(10**9, 0.8) < 5 * 10**8) = exp(-2.2e8): against the Chernoff
        # exponent n D(1/2 || 0.8), which it undercuts by O(log n)
        n = 10 ** 9
        below, above = binomial_log_tails(n, n // 2, 0.8, 0.19999999999999996)
        rate = 0.5 * math.log(0.5 / 0.8) + 0.5 * math.log(0.5 / 0.19999999999999996)
        assert -n * rate - 2 * math.log(n) < below < -n * rate
        assert above == 0.0 or -1e-300 < above < 0.0

    @pytest.mark.parametrize("p", [0.8, 0.5, 0.1, 1e-6])
    @pytest.mark.parametrize("n", [1, 15, 16, 40, 3000])
    def test_scalar_pmf_matches_vector(self, n, p):
        # one count at a time gives the whole range's bits
        q = 1.0 - p
        vec = binomial_log_pmf(n, p, q, np.arange(n + 1))
        got = np.array([binomial_log_pmf(n, p, q, k) for k in range(n + 1)])
        assert np.array_equal(got, vec)

    def test_sorted_counts_match_whole_range_and_scalar(self):
        # random (n, p) up to n = 10**9; k random, around the mean, or with
        # the ends and the Stirling table's edge, duplicates included; above
        # the whole range's reach, the counts reversed give the same values;
        # each count alone gives its value's bits
        rng = np.random.default_rng(12)
        for trial in range(300):
            n = int(rng.integers(1, 10 ** int(rng.integers(1, 10)) + 1))
            p = (float(rng.random()), 0.5, 1e-9, 1.0 - 1e-9, 0.0, 1.0)[trial % 6]
            q = 1.0 - p
            mean = int(n * p)
            k = np.sort(np.clip(np.concatenate([
                rng.integers(0, n + 1, size=20), mean + np.arange(-10, 11),
                [0, 0, 15, 16, 17, n - 16, n]]), 0, n))
            got = binomial_log_pmf(n, p, q, k)
            if n <= 200_000:
                assert np.array_equal(got, binomial_log_pmf(n, p, q, np.arange(n + 1))[k]), (n, p)
            else:
                assert np.array_equal(got, binomial_log_pmf(n, p, q, k[::-1])[::-1]), (n, p)
            assert np.array_equal(got, [binomial_log_pmf(n, p, q, int(x)) for x in k]), (n, p)
        # no trial at n = 0: one certain outcome, whatever p
        assert binomial_log_pmf(0, 0.3, 0.7, np.array([0.0])).tolist() == [0.0]
        assert binomial_log_pmf(0, 0.3, 0.7, 0) == 0.0

    def test_mixed_sizes_match_per_size_calls(self):
        # one call with the trial counts elementwise equals one call per
        # size bit for bit: random sizes up to n = 10**9, several per call,
        # k at the ends, around the mean and repeated, in shuffled order;
        # p = 0 and q = 0 keep their exact path
        rng = np.random.default_rng(13)
        pairs = 0
        for trial in range(120):
            p = (float(rng.random()), 0.5, 1e-9, 1.0 - 1e-9, 0.0, 1.0)[trial % 6]
            q = 1.0 - p
            sizes = [int(rng.integers(0, 10 ** int(rng.integers(1, 10)) + 1))
                     for _ in range(int(rng.integers(2, 6)))] + [0, 16]
            ns, ks, want = [], [], []
            for n in sizes:
                mean = int(n * p)
                k = np.clip(np.concatenate([rng.integers(0, n + 1, size=8), mean + np.arange(-3, 4),
                                            [0, 0, 15, 16, n, n]]), 0, n)
                ns.append(np.full(k.size, n))
                ks.append(k)
                want.append(binomial_log_pmf(n, p, q, k))
            order = rng.permutation(sum(k.size for k in ks))
            got = binomial_log_pmf(np.concatenate(ns)[order], p, q, np.concatenate(ks)[order])
            assert np.array_equal(got, np.concatenate(want)[order]), (sizes, p)
            pairs += len(sizes)
        assert pairs >= 300

    def test_scalar_pmf_degenerate(self):
        assert binomial_log_pmf(4, 0.0, 1.0, 0) == 0.0
        assert binomial_log_pmf(4, 0.0, 1.0, 1) == -math.inf
        assert binomial_log_pmf(4, 1.0, 0.0, 4) == 0.0
        assert binomial_log_pmf(4, 1.0, 0.0, 3) == -math.inf

    def test_fraction_stops_at_its_step_limit(self, monkeypatch):
        # a fraction whose steps never settle (here: no double step is small
        # enough) fails its row after 100 + 2 isqrt(max(a, b)) steps, naming
        # I_x(a, b); the near-mode row beside it steps in decimals and is kept
        rows = [(1000, 500, 0.5, 0.5), (189, 100, 0.3, 0.7)]
        want = logspace.binomial_log_tails(rows[:1], 1)
        monkeypatch.setattr(logspace, "_CF_EPS", -1.0)
        tails, shifts, failed = logspace.binomial_log_tails(rows, 1)
        assert list(failed) == [1] and type(failed[1]) is NumericalError
        assert str(failed[1]) == ("incomplete-beta continued fraction I_0.3(100, 90) "
                                  "did not converge in 120 steps")
        assert tails[:1].tobytes() == want[0].tobytes() and shifts[:1].tobytes() == want[1].tobytes()
        failed = traversal_family(ChainSpec(N=189, m0=0.4), 1.0, [189])[3]
        assert list(failed) == [0] and type(failed[0]) is NumericalError
        assert re.search(r"I_0\.3\d*\(95, 95\) did not converge in 118 steps", str(failed[0]))
