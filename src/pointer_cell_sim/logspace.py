"""Log-space numerics shared by the combinatorial backends.

Complex magnitudes are carried as (log-magnitude, phase) pairs so that
quantities far below the double-precision floor stay exact on the log scale.
A value is ``exp(lm) * exp(1j * ph)``; ``lm = -inf`` encodes an exact zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalError

# stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)**n) for n = 0..15, with
# stirlerr(0) = 0; above 15 the Stirling series below is used
_STIRLERR_TABLE = np.array([
    0.0,
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
])
_S0, _S1, _S2, _S3, _S4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """Stirling-formula error ``stirlerr(k)`` over integers k >= 0 held as
    floats, elementwise: the table below 16, the series above."""
    out = np.empty(len(k))
    small = k < 16
    out[small] = _STIRLERR_TABLE[k[small].astype(int)]
    inv = np.reciprocal(k[~small])
    w = inv * inv
    acc = w * _S4  # Horner in 1 / k**2, in place
    for s in (_S3, _S2, _S1):
        np.subtract(s, acc, out=acc)
        acc *= w
    np.subtract(_S0, acc, out=acc)
    acc *= inv
    out[~small] = acc
    return out


def _saddle(n, k: np.ndarray, st_n, st_k: np.ndarray, st_nk: np.ndarray) -> np.ndarray:
    """``log Bin(k; n, k / n) = stirlerr(n) - stirlerr(k) - stirlerr(n - k) -
    log(2 pi k (n - k) / n) / 2`` for 0 < k < n, the part of Loader's form free of p."""
    half_log = n - k
    half_log *= k
    half_log *= 2.0 * math.pi / n
    np.log(half_log, out=half_log)
    half_log *= 0.5
    return st_n - st_k - st_nk - half_log


@functools.lru_cache(maxsize=4)
def _saddle_log_pmf(n: int) -> np.ndarray:
    """``_saddle`` over k = 0..n, 0 at k = 0 and n, ``stirlerr`` read reversed
    for n - k; cached per n, read-only, for the sectors of a partial traversal."""
    out = np.zeros(n + 1)
    if n > 1:
        st = _stirlerr(np.arange(n + 1, dtype=float))
        out[1:n] = _saddle(n, np.arange(1, n, dtype=float), st[n], st[1:n], st[n - 1:0:-1])
    out.setflags(write=False)
    return out


# 1 / (2j + 1) for the series terms j = 1..8 of bd0
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(1, 9))


def _bd0_series(x: np.ndarray, m, out: np.ndarray) -> np.ndarray:
    """Deviance ``bd0(x, m) = x log(x / m) + m - x`` into ``out``, in the band
    ``floor(9 m / 11) < x < ceil(11 m / 9)``, where ``|x - m| < 0.1 (x + m)``
    and the difference of nearly equal terms is replaced by its series
    (Loader 2000) ``v (x - m) + 2 x sum_j v**(2j + 1) / (2j + 1)`` with
    ``v = (x - m) / (x + m)``.  As ``|v| < 0.1``, the ninth term is below
    ``2**-54`` of the sum, so eight terms are summed, by Horner's rule in v**2."""
    d = x - m
    v = d / (x + m)
    w = v * v
    out.fill(_BD0_SERIES[-1])
    for c in _BD0_SERIES[-2::-1]:
        out *= w
        out += c
    out *= w
    out *= x
    out += out
    out += d
    out *= v
    return out


def _bd0(x: np.ndarray, m) -> np.ndarray:
    """``bd0(x, m)``, m > 0, elementwise over integers x held as floats, m a
    scalar or an array like x: masks pick x = 0, the band and the rest."""
    m = np.broadcast_to(m, x.shape)
    out = np.empty(len(x))
    zero = x == 0.0
    out[zero] = m[zero]
    band = (x >= np.floor(m * 9.0 / 11.0) + 1.0) & (x < np.ceil(m * 11.0 / 9.0))
    out[band] = _bd0_series(x[band], m[band], np.empty(np.count_nonzero(band)))
    side = ~(zero | band)
    xs, ms = x[side], m[side]
    out[side] = xs * np.log(xs / ms) + ms - xs
    return out


@functools.lru_cache(maxsize=4)
def _bd0_range(n: int, m: float) -> np.ndarray:
    """``bd0`` over x = 0..n, its band a run of x, cached like ``_saddle_log_pmf``."""
    x = np.arange(n + 1, dtype=float)
    out = np.empty(n + 1)
    zero, lo, hi = x.searchsorted((1, math.floor(m * 9.0 / 11.0) + 1, math.ceil(m * 11.0 / 9.0)))
    hi = max(hi, lo)  # at m = 0 (n = 0) the band bounds cross
    out[:zero] = m
    _bd0_series(x[lo:hi], m, out[lo:hi])
    for a, b in ((zero, lo), (hi, n + 1)):
        xs, side = x[a:b], out[a:b]
        np.divide(xs, m, out=side)
        np.log(side, out=side)
        side *= xs
        side += m
        side -= xs
    out.setflags(write=False)
    return out


def binomial_log_pmf(n: int | np.ndarray, p: float, q: float, k: np.ndarray | None = None) -> np.ndarray:
    """Log-pmf of Bin(n, p) over k = 0..n, or at the up-counts ``k``, with
    ``q = 1 - p``; exact at p or q = 0.

    Loader's saddle-point form (C. Loader, 2000, *Fast and Accurate
    Computation of Binomial Probabilities*): ``log Bin(k; n, k / n)`` minus
    the deviances ``bd0(k, n p)`` and ``bd0(n - k, n q)``.  Near the mass
    its absolute error is a few ulps of the result, where the direct sum
    ``log C(n, k) + k log p + (n - k) log q`` loses ulps of ``n log n``.
    ``q`` is passed rather than formed as ``1 - p`` so that a p within
    rounding of 1 keeps the digits of its complement.

    Given ``k``, in any order and with repeats, n is a scalar or an array
    elementwise with k, so one call serves several chain sizes of one p.
    Masks pick each entry's table, series and band; it costs the length of
    k, not n, and equals the whole range's value at that k bit for bit.
    """
    if p <= 0.0 or q <= 0.0:
        k = np.arange(n + 1) if k is None else np.asarray(k)
        return np.where(k == (0 if p <= 0.0 else n), 0.0, -np.inf)
    if k is None:
        return _saddle_log_pmf(n) - _bd0_range(n, n * p) - _bd0_range(n, n * q)[::-1]
    k = np.asarray(k, dtype=float)
    n = np.broadcast_to(np.asarray(n, dtype=float), k.shape)
    saddle = np.zeros(len(k))
    inner = (k > 0.0) & (k < n)
    ki, ni = k[inner], n[inner]
    st = _stirlerr(np.concatenate((ki, ni - ki, ni))).reshape(3, -1)
    saddle[inner] = _saddle(ni, ki, st[2], st[0], st[1])
    return saddle - _bd0(k, n * p) - _bd0(n - k, n * q)


def _stirlerr_at(k: int) -> float:
    """Scalar ``stirlerr(k)``: the same table and series as ``_stirlerr``."""
    if k <= 15:
        return float(_STIRLERR_TABLE[k])
    inv = 1.0 / k
    w = inv * inv
    acc = w * _S4
    for s in (_S3, _S2, _S1):
        acc = (s - acc) * w
    return (_S0 - acc) * inv


def _bd0_at(x: float, m: float) -> float:
    """Scalar ``bd0(x, m)`` for m > 0: the same band and series as ``_bd0``."""
    if x == 0.0:
        return m
    d = x - m
    if abs(d) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = d / (x + m)
    w = v * v
    band = _BD0_SERIES[-1]
    for c in _BD0_SERIES[-2::-1]:
        band = band * w + c
    band *= w * x
    return (band + band + d) * v


def binomial_log_pmf_at(n: int, k: int, p: float, q: float) -> float:
    """``log Bin(k; n, p)`` for one k, by the same saddle-point form as
    ``binomial_log_pmf``, in scalar arithmetic: nothing of length n is built."""
    if p <= 0.0 or q <= 0.0:
        return 0.0 if k == (0 if p <= 0.0 else n) else -math.inf
    saddle = 0.0
    if 0 < k < n:
        saddle = (_stirlerr_at(n) - _stirlerr_at(k) - _stirlerr_at(n - k)
                  - 0.5 * math.log((n - k) * k * (2.0 * math.pi / n)))
    return saddle - _bd0_at(float(k), n * p) - _bd0_at(float(n - k), n * q)


#: a double-precision fraction step that moves it by less than this ends it
_CF_EPS = 2.0 ** -52
#: below this leading denominator the fraction runs in decimal arithmetic
_CF_DECIMAL_BELOW = 0.125


def _lentz(a: np.ndarray, b: np.ndarray, x: np.ndarray, one, eps) -> tuple[np.ndarray, dict]:
    """Modified Lentz steps (Numerical Recipes §6.4, ``betacf``) of the fraction of
    ``I_x(a, b) = x**a (1 - x)**b / (a B(a, b)) * CF``, DLMF 8.17.22, elementwise in
    the arithmetic of ``x``: float64, or ``Decimal`` objects over Python-int ``a``, ``b``.
    Each element keeps the fraction of its own first settled step: the operations
    of a scalar loop, in its order.  Returns the fractions and, by element, the
    ``NumericalError`` of each unsettled after ``100 + 2 isqrt(max(a, b))`` steps."""
    limit, m = np.array([100 + 2 * math.isqrt(int(v)) for v in np.maximum(a, b).tolist()], dtype=int), 0
    ones = c = np.full_like(x, one)  # array operands: a scalar is converted at every operation
    tiny, zeros, live, out, failed = one / 10 ** 300, ones - ones, np.arange(len(x)), np.empty_like(x), {}
    frac = d = ones / (ones - (a + b) * x / (a + 1))
    while live.size:  # eight steps at a time; an element that ends within them is carried to their end
        k, ended, low = np.arange(m + 1, m + 9)[:, None], zeros != zeros, limit.min()  # k: the step numbers
        for m, coeffs in enumerate(zip(k * (b - k) * x / ((a + 2 * k - 1) * (a + 2 * k)),
                                       -(a + k) * (a + b + k) * x / ((a + 2 * k) * (a + 2 * k + 1))), m + 1):
            for coeff in coeffs:
                d = ones + coeff * d
                d[d == zeros] = tiny
                d = ones / d
                c = ones + coeff / c
                c[c == zeros] = tiny
                step = c * d
                frac = frac * step
            done = (abs(step - ones) <= eps) > ended
            if done.any():
                out[live[done]] = frac[done]
                ended |= done
            if m >= low:
                for j in np.flatnonzero((m == limit) > ended):
                    failed[int(live[j])] = NumericalError(
                        f"incomplete-beta continued fraction I_{float(x[j])}({int(a[j])}, {int(b[j])}) "
                        f"did not converge in {m} steps")
                ended |= m >= limit
        live, a, b, x, c, d, frac, limit, ones, zeros = (
            v[~ended] for v in (live, a, b, x, c, d, frac, limit, ones, zeros))
    return out, failed


def _beta_fractions(abx: Sequence[tuple[int, int, float]]) -> tuple[np.ndarray, dict]:
    """``_lentz`` for each ``(a, b, x)``, the fraction of ``I_x(a, b)`` with ``x < (a + 1)
    / (a + b + 2)``, and by element the errors.  Near that bound, the distribution's
    mode, the step count grows: at ``x = 1/2`` and ``a + b = 10**k + 1`` it takes 51,
    241, 1120 and 5200 steps for k = 3, 5, 7 and 9, inside the ``O(sqrt(max(a, b)))``
    worst case.  The leading denominator ``1 - (a + b) x / (a + 1)`` then cancels, and
    in double precision the fraction loses up to about ``7 / denominator`` ulps (3000
    random splits within six standard deviations of the mode; 1.2e-13 at ``a + b =
    10**6``).  Below ``_CF_DECIMAL_BELOW`` those elements step in 36-digit decimals,
    exact from the double ``x``, and each result is rounded once."""
    fa, fb, fx = np.array(abx, dtype=float).reshape(-1, 3).T
    near = 1.0 - (fa + fb) * fx / (fa + 1) < _CF_DECIMAL_BELOW
    out, failed = np.empty(len(fx)), {}

    def steps(idx, *args):
        out[idx], bad = _lentz(*args)
        failed.update((int(idx[j]), exc) for j, exc in bad.items())

    idx = np.flatnonzero(~near)
    steps(idx, fa[idx], fb[idx], fx[idx], 1.0, _CF_EPS)
    if near.any():
        import decimal  # only here: away from the mode it would cost memory and time for nothing

        idx = np.flatnonzero(near)
        with decimal.localcontext(decimal.Context(prec=36)):
            one = decimal.Decimal(1)
            steps(idx, *(np.array([f(abx[i][j]) for i in idx], dtype=object)
                         for j, f in enumerate((int, int, decimal.Decimal))), one, one / 10 ** 20)
    return out, failed


def binomial_log_tails(rows: Sequence[tuple[int, int, float, float]], k: int
                       ) -> tuple[np.ndarray, np.ndarray, dict[int, NumericalError]]:
    """Per row ``(n, t, p, q)``, X ~ Bin(n, p) with ``q = 1 - p``: ``log P(X < t - i)``
    and ``log P(X >= t - i)`` for i = 0..k-1, as rows 0 and 1 of ``(len(rows), 2, k)``
    tails; the ``shift`` each row's sum takes back after the sum, ``(len(rows), 2)``;
    and by row the ``NumericalError`` of each whose fraction did not converge.

    At each split ``s = t - i`` the tail on the far side of the mode is a
    regularised incomplete beta, ``P(X >= s) = I_p(s, n - s + 1) = Bin(s; n, p)
    q CF`` or ``P(X < s) = I_q(n - s + 1, s) = Bin(s - 1; n, p) p CF``; the near
    tail is its ``log1p(-exp(.))`` complement.  One pmf per row, ``shift``, from
    ``binomial_log_pmf_at`` at its first split, serves its splits by the exact
    ratios ``Bin(m - 1) / Bin(m) = m q / ((n - m + 1) p)``; the row of its far tail
    holds values less it, as adding it to each term, far out of order n, would
    round the terms' relative sizes, which set the phase of a mixed-phase sum, to
    ulps of n.  Exact at p or q = 0 and for splits outside 1..n; the cost is
    independent of n away from the mode.  All rows' fractions step at once; the
    rest is scalar ``math``: numpy's ``exp``, ``log`` and ``log1p`` differ in the last bit."""
    tails, anchors, jobs = [], [], []  # per fraction: (row, i, upper, log factor, a, b, x)
    for row, (n, t, p, q) in enumerate(rows):
        below, above = [-math.inf] * k, [-math.inf] * k
        m_pmf, shift, far_upper = None, 0.0, False  # log Bin(m_pmf) = shift + rel
        for i in range(k):
            s = t - i
            if s <= 0 or (q <= 0.0 and s <= n):  # X >= s surely
                above[i] = 0.0
            elif s > n or p <= 0.0:  # X < s surely
                below[i] = 0.0
            else:
                upper = p * (n + 3) < s + 1
                m = s if upper else s - 1
                if m_pmf is None:
                    m_pmf, shift, rel, far_upper = m, binomial_log_pmf_at(n, m, p, q), 0.0, upper
                while m_pmf > m:
                    rel += math.log(m_pmf * q / ((n - m_pmf + 1) * p))
                    m_pmf -= 1
                jobs.append((row, i, upper, rel + math.log(q if upper else p),
                             *((s, n - s + 1, p) if upper else (n - s + 1, s, q))))
        far = [v - shift for v in (above if far_upper else below)]  # the sure splits' values less shift
        tails.append((below, far) if far_upper else (far, above))
        anchors.append((shift, far_upper))
    (fracs, bad), failed = _beta_fractions([job[4:] for job in jobs]), {}
    for job, ((row, i, upper, factor, *_), frac) in enumerate(zip(jobs, fracs.tolist())):
        if job in bad:
            failed.setdefault(row, bad[job])
            continue
        shift, far_upper = anchors[row]
        far = factor + math.log(frac)
        near = math.log1p(-math.exp(shift + far))
        if upper != far_upper:  # past the mode, where shift is of order log n
            far, near = shift + far, near - shift
        tails[row][int(upper)][i], tails[row][int(not upper)][i] = far, near
    shifts = [(0.0, shift) if far_upper else (shift, 0.0) for shift, far_upper in anchors]
    return np.array(tails).reshape(len(rows), 2, k), np.array(shifts).reshape(len(rows), 2), failed


@dataclass(frozen=True)
class BinomialBlock:
    """``(d1 + d0 z)**size`` over the up-count power j, held by its parameters.

    Its coefficients are ``exp(size * log_scale) * Bin(j; size, p) *
    exp(1j * phase)``: all of them share the one phase, and
    ``log_scale = -inf`` marks a block of exact zeros.  No ``size + 1``
    array exists until ``log_magnitudes`` is asked for.
    """

    size: int
    p: float
    q: float
    log_scale: float
    phase: float = 0.0

    def log_total(self) -> float:
        """log of the coefficient sum, ``size * log_scale`` (0 for size 0)."""
        return self.size * self.log_scale if self.size else 0.0

    def log_magnitudes(self) -> np.ndarray:
        """The ``size + 1`` coefficient log magnitudes."""
        if self.log_scale == -math.inf:
            return np.full(self.size + 1, -np.inf)
        return self.size * self.log_scale + binomial_log_pmf(self.size, self.p, self.q)


def _binomial_block(size: int, d0: complex, d1: complex, scale: float | None = None) -> BinomialBlock:
    # (d1 + d0 z)**size: scale**size * Bin(j; size, |d0| / (|d0| + |d1|)),
    # scale |d0| + |d1| by default
    mag0, mag1 = abs(d0), abs(d1)
    total = mag0 + mag1
    if total == 0.0:
        return BinomialBlock(size, 0.0, 1.0, -math.inf)
    return BinomialBlock(size, mag0 / total, mag1 / total, math.log(scale or total))


def _count_groups(finite: np.ndarray, *arrays: np.ndarray):
    """Per finite count c > 0: those rows of ``finite``, and each of ``arrays`` at
    their finite terms, in order, as (rows, c).  ``np.sum`` adds a few terms one
    by one but more in partial sums, so padding would move bits."""
    count = finite.sum(axis=1)
    for c in sorted(set(count.tolist()) - {0}):
        group = count == c
        yield group, [a[group][finite[group]].reshape(-1, c) for a in arrays]


def lc_real_logsumexp_rows(lm: np.ndarray) -> np.ndarray:
    """logsumexp over the last axis of nonnegative-real log-coded terms: per
    row ``m + log(np.sum(exp(t - m)))`` over its finite t alone, in order."""
    lm = np.asarray(lm, dtype=float)
    rows = lm.reshape(-1, lm.shape[-1])
    top, total = rows.max(axis=1, initial=-np.inf), np.zeros(len(rows))
    with np.errstate(invalid="ignore", divide="ignore"):
        for group, (terms,) in _count_groups(rows > -np.inf, rows):
            total[group] = np.exp(terms - top[group, None]).sum(axis=1)
        return (top + np.log(total)).reshape(lm.shape[:-1])


def lc_sum_rows(lm: np.ndarray, ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the last axis of log-coded complex terms ``exp(lm + 1j * ph)``, ``ph``
    broadcast to ``lm``: per row ``(m + log|acc|, arg acc)``, ``acc = np.sum(exp(lm -
    m) * exp(1j * ph))`` over its finite terms in order, m the largest, or ``(-inf,
    0)`` if none is finite or they cancel to 0.  ``|acc|`` is ``hypot``, as ``abs``
    of a complex scalar: numpy's array ``abs`` rounds some differently."""
    lm = np.asarray(lm, dtype=float)
    rows = lm.reshape(-1, lm.shape[-1])
    finite = rows > -np.inf
    if not finite.any():
        return np.full(lm.shape[:-1], -np.inf), np.zeros(lm.shape[:-1])
    top, acc = np.full(len(rows), -np.inf), np.zeros(len(rows), dtype=complex)
    for group, (terms, phases) in _count_groups(
            finite, rows, np.broadcast_to(ph, lm.shape).reshape(rows.shape)):
        top[group] = m = terms.max(axis=1)
        acc[group] = (np.exp(terms - m[:, None]) * np.exp(1j * phases)).sum(axis=1)
    mag = np.hypot(acc.real, acc.imag)
    out_lm = top + np.log(mag, out=np.full(len(rows), -np.inf), where=mag > 0.0)
    out_ph = np.where(mag > 0.0, np.arctan2(acc.imag, acc.real), 0.0)
    return out_lm.reshape(lm.shape[:-1]), out_ph.reshape(lm.shape[:-1])


def lc_convolve(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Convolution of two log-coded coefficient arrays (polynomial product).

    One pass over the shifts of the shorter side finds each output's largest
    term; a second pass adds every shifted copy of the longer side, rescaled
    by that maximum, into its slice of the output.  The cost is the product
    of the two lengths.
    """
    lma, pha = a
    lmb, phb = b
    if len(lma) < len(lmb):
        (lma, pha), (lmb, phb) = (lmb, phb), (lma, pha)
    na, nb = len(lma), len(lmb)
    out_len = na + nb - 1
    if not np.isfinite(lma).any() or not np.isfinite(lmb).any():
        return np.full(out_len, -np.inf), np.zeros(out_len)
    m = np.full(out_len, -np.inf)
    for shift in range(nb):
        np.maximum(m[shift:shift + na], lma + lmb[shift], out=m[shift:shift + na])
    safe_m = np.where(np.isfinite(m), m, 0.0)
    acc = np.zeros(out_len, dtype=complex)
    with np.errstate(invalid="ignore"):
        for shift in range(nb):
            window = slice(shift, shift + na)
            acc[window] += (np.exp(lma + lmb[shift] - safe_m[window])
                            * np.exp(1j * (pha + phb[shift])))
    mag = np.abs(acc)
    out_lm = np.where(np.isfinite(m) & (mag > 0),
                      safe_m + np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
    out_ph = np.where(np.isfinite(out_lm), np.angle(acc), 0.0)
    return out_lm, out_ph


def bernoulli_relative_entropy(q: float, p: float) -> float:
    """D(q || p) for Bernoulli distributions, with the 0 log 0 = 0 convention."""
    if not (0.0 <= q <= 1.0 and 0.0 <= p <= 1.0):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    if (p in (0.0, 1.0)) and q != p:
        return np.inf
    total = 0.0
    if q > 0.0:
        total += q * np.log(q / p)
    if q < 1.0:
        total += (1.0 - q) * np.log((1.0 - q) / (1.0 - p))
    return total
