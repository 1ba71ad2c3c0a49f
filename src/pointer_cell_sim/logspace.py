"""Log-space numerics shared by the combinatorial backends.

Complex magnitudes are carried as (log-magnitude, phase) pairs so that
quantities far below the double-precision floor stay exact on the log scale.
A value is ``exp(lm) * exp(1j * ph)``; ``lm = -inf`` encodes an exact zero.
"""

from __future__ import annotations

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
    """Stirling-formula error ``stirlerr(k)`` over integers k >= 1 held as
    floats, elementwise: the series, then the table below 16 over it."""
    inv = np.reciprocal(k)
    w = inv * inv
    acc = w * _S4  # Horner in 1 / k**2, in place
    for s in (_S3, _S2, _S1):
        np.subtract(s, acc, out=acc)
        acc *= w
    np.subtract(_S0, acc, out=acc)
    acc *= inv
    small = k < 16
    acc[small] = _STIRLERR_TABLE[k[small].astype(int)]
    return acc


def _saddle(n, k: np.ndarray, st_n, st_k: np.ndarray, st_nk: np.ndarray) -> np.ndarray:
    """``log Bin(k; n, k / n) = stirlerr(n) - stirlerr(k) - stirlerr(n - k) -
    log(2 pi k (n - k) / n) / 2`` for 0 < k < n, the part of Loader's form free of p."""
    half_log = n - k
    half_log *= k
    half_log *= 2.0 * math.pi / n
    np.log(half_log, out=half_log)
    half_log *= 0.5
    return st_n - st_k - st_nk - half_log


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


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``bd0(x, m)``, m > 0, elementwise over integers x held as floats and an
    array m like x: the direct form, then masks pick the band and x = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 and the band are replaced
        out = x * np.log(x / m) + m - x
    band = (x >= np.floor(m * 9.0 / 11.0) + 1.0) & (x < np.ceil(m * 11.0 / 9.0))
    if band.any():
        out[band] = _bd0_series(x[band], m[band], np.empty(np.count_nonzero(band)))
    np.copyto(out, m, where=x == 0.0)
    return out


def binomial_log_pmf(n: int | np.ndarray, p: float | np.ndarray, q: float | np.ndarray, k) -> np.ndarray:
    """Log-pmf of Bin(n, p) at the up-counts ``k``, with ``q = 1 - p``; exact
    at p or q = 0.

    Loader's saddle-point form (C. Loader, 2000, *Fast and Accurate
    Computation of Binomial Probabilities*): ``log Bin(k; n, k / n)`` minus
    the deviances ``bd0(k, n p)`` and ``bd0(n - k, n q)``, a few ulps of the
    result near the mass, where the direct sum loses ulps of ``n log n``.
    ``q`` is passed so that a p within rounding of 1 keeps its complement's
    digits.  ``k`` may have any order, repeats and shape (one count gives one
    value), and n, p and q broadcast to it; masks pick each entry's table,
    series and band, so it costs the size of k, and each entry's value does
    not depend on the others.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim == 0:  # the masks assign into arrays: one count runs at shape (1,)
        return binomial_log_pmf(n, p, q, k[None])[0]
    n, p, q = np.broadcast_to(np.asarray(n, dtype=float), k.shape), np.asarray(p), np.asarray(q)
    saddle = np.zeros(k.shape)
    inner = (k > 0.0) & (k < n)
    if inner.any():
        ki, ni = k[inner], n[inner]
        st = _stirlerr(np.concatenate((ki, ni - ki, ni))).reshape(3, -1)
        saddle[inner] = _saddle(ni, ki, st[2], st[0], st[1])
    out = saddle - _bd0(k, n * p) - _bd0(n - k, n * q)
    sure = (p <= 0.0) | (q <= 0.0)  # one sure count, 0 or n, where bd0 is inf
    return np.where(sure, np.where(k == np.where(p <= 0.0, 0.0, n), 0.0, -np.inf), out) if sure.any() else out


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
    tail is its ``log1p(-exp(.))`` complement.  One pmf per row, ``shift``, at its
    first split inside 1..n, serves its splits by the exact ratios ``Bin(m - 1) /
    Bin(m) = m q / ((n - m + 1) p)``, and one ``binomial_log_pmf`` call takes all
    rows' shifts; the row of its far tail holds values less it, as adding it to
    each term, far out of order n, would round the terms' relative sizes, which set
    the phase of a mixed-phase sum, to ulps of n.  Exact at p or q = 0 and for
    splits outside 1..n; the cost is independent of n away from the mode.  All
    rows' fractions step at once; the rest is scalar ``math``: numpy's ``exp``,
    ``log`` and ``log1p`` differ in the last bit."""
    tails, anchors, jobs = [], [], []  # per fraction: (row, i, upper, log factor, a, b, x)
    for row, (n, t, p, q) in enumerate(rows):
        below, above = [-math.inf] * k, [-math.inf] * k
        m_pmf = None  # log Bin(m_pmf) = shift + rel
        for i in range(k):
            s = t - i
            if s <= 0 or (q <= 0.0 and s <= n):  # X >= s surely
                above[i] = 0.0
            elif s > n or p <= 0.0:  # X < s surely
                below[i] = 0.0
            else:
                upper = p * (n + 3) < s + 1
                m = s if upper else s - 1
                if m_pmf is None:  # the row's shift is log Bin(m; n, p), its far tail on this side
                    m_pmf, rel = m, 0.0
                    anchors.append((row, upper, n, p, q, m))
                while m_pmf > m:
                    rel += math.log(m_pmf * q / ((n - m_pmf + 1) * p))
                    m_pmf -= 1
                jobs.append((row, i, upper, rel + math.log(q if upper else p),
                             *((s, n - s + 1, p) if upper else (n - s + 1, s, q))))
        tails.append([below, above])
    shift, far_upper = [0.0] * len(rows), [False] * len(rows)
    if anchors:
        at, upper, *npqm = zip(*anchors)
        for row, u, value in zip(at, upper, binomial_log_pmf(*npqm).tolist()):
            shift[row], far_upper[row] = value, u
            tails[row][int(u)] = [v - value for v in tails[row][int(u)]]  # the sure splits' values less shift
    (fracs, bad), failed = _beta_fractions([job[4:] for job in jobs]), {}
    for job, ((row, i, upper, factor, *_), frac) in enumerate(zip(jobs, fracs.tolist())):
        if job in bad:
            failed.setdefault(row, bad[job])
            continue
        far = factor + math.log(frac)
        near = math.log1p(-math.exp(shift[row] + far))
        if upper != far_upper[row]:  # past the mode, where shift is of order log n
            far, near = shift[row] + far, near - shift[row]
        tails[row][int(upper)][i], tails[row][int(not upper)][i] = far, near
    shifts = [(0.0, s) if u else (s, 0.0) for s, u in zip(shift, far_upper)]
    return np.array(tails).reshape(len(rows), 2, k), np.array(shifts).reshape(len(rows), 2), failed


#: a window's first half-width in tilted deviations, the nats below its largest term
#: that settle an open end, and the elements of one pass
_WINDOW_SIGMAS, _WINDOW_DROP, _WINDOW_SIZE = 13.0, 60.0, 2 ** 15


def binomial_pair_log_tails(rows: Sequence[tuple[int, float, float, int, float, float, int]], k: int) -> np.ndarray:
    """Per row ``(na, pa, qa, nb, pb, qb, t)``, X = X_a + X_b for independent X_a ~ Bin(na, pa)
    and X_b ~ Bin(nb, pb), ``q = 1 - p``: ``log P(X < t - i)`` and ``log P(X >= t - i)``,
    i = 0..k-1, as rows 0 and 1 of ``(len(rows), 2, k)`` tails.

    ``P(X >= s) = P(X' < na + nb + 1 - s)`` for the down counts X', and a lower tail is
    the direct sum ``sum_j Bin(j; na, pa) P(X_b < s - j)`` over a window of j, its terms
    log-concave (Saumard & Wellner, *Statistics Surveys* 8, 2014).  The window is centred
    at X_a's tilted mean ``na pa x / (qa + pa x)`` given ``X = s - 1`` (x = 1 if the cell
    holds the mean) and doubles from ``_WINDOW_SIGMAS`` tilted deviations until each open
    end is ``_WINDOW_DROP`` nats below the largest term: the terms then fall outward, and a
    geometric series bounds the rest below ``2**-60`` of the sum for n to 10**12.  X_b's
    tails are a running log-sum of its pmfs over the k needed, cut the same way (a
    gaussian estimate places the lower cut).  A row costs ``O(sqrt(na + nb))``; rows of similar
    width share passes of about ``_WINDOW_SIZE`` elements, each keeping its own bits."""
    def window(n, p, q, lo, hi):  # rows of log Bin(k; n, p) for k = lo..hi from column 0, -inf past hi
        k = lo[:, None] + np.arange(int((hi - lo).max()) + 1)
        used, out = k <= hi[:, None], np.full(k.shape, -np.inf)
        out[used] = binomial_log_pmf(*(np.broadcast_to(v[:, None], k.shape)[used] for v in (n, p, q)), k[used])
        return out

    jobs = [(na, pa, qa, nb, pb, qb, t - i) if side == 0 else (na, qa, pa, nb, qb, pb, na + nb + 1 - t + i)
            for na, pa, qa, nb, pb, qb, t in rows for side in (0, 1) for i in range(k)]
    na, pa, qa, nb, pb, qb, t = np.array(jobs, dtype=float).reshape(-1, 7).T
    # no term where t <= 0, all where t > na + nb; the largest j with a term, and the tilted total
    out, top, tau = np.where(t > na + nb, 0.0, -np.inf), np.minimum(na, t - 1.0), t - 1.0
    a2, a1 = pa * pb * (na + nb - tau), na * pa * qb + nb * pb * qa - tau * (qa * pb + pa * qb)
    with np.errstate(divide="ignore", invalid="ignore"):  # a point mass: centre and width 0
        root = np.sqrt(a1 * a1 + 4.0 * a2 * tau * qa * qb)
        x = np.where(tau >= na * pa + nb * pb, 1.0, np.where(a1 > 0.0, 2.0 * tau * qa * qb / (a1 + root),
                                                             (root - a1) / (2.0 * a2)))
        centre = np.clip(np.nan_to_num(np.round(na * pa * x / (qa + pa * x))), 0.0, top)
        half = np.ceil(_WINDOW_SIGMAS * np.nan_to_num(np.sqrt(na * pa * qa * x) / (qa + pa * x))) + 2.0
    extra, mode = _WINDOW_SIGMAS * np.sqrt(nb * pb * qb), np.floor(nb * pb)  # X_b's cuts past its mode
    live = np.flatnonzero((t >= 1.0) & (t <= na + nb))
    while live.size:
        lo, hi = np.maximum(centre - half, 0.0), np.minimum(centre + half, top)
        k_need, k_end = np.minimum(tau - hi, nb), np.minimum(tau - lo, nb)  # the least and the largest tail's k
        k_lo = np.maximum(mode - np.ceil(np.hypot(np.maximum(mode - k_need, 0.0), extra)) - 2.0, 0.0)
        k_top = np.minimum(k_end, mode + extra + 2.0)
        last, end, need = ((v - w).astype(int) for v, w in ((hi, lo), (k_top, k_lo), (np.minimum(k_need, k_top), k_lo)))
        order, pending = live[np.argsort((last + end)[live], kind="stable")], []
        for idx in np.split(order, np.flatnonzero(np.diff(np.cumsum(last[order] + end[order]) // _WINDOW_SIZE)) + 1):
            pick = np.arange(len(idx))
            b_pmf, f = (window(*(u[idx] for u in us)) for us in ((nb, pb, qb, k_lo, k_top), (na, pa, qa, lo, hi)))
            tails = np.logaddexp.accumulate(b_pmf, axis=1)  # log P(k_lo <= X_b <= k)
            col = (tau - lo - k_lo)[idx, None] - np.arange(f.shape[1])  # of k = s - 1 - j
            f += np.take_along_axis(tails, np.clip(col, 0, end[idx, None]).astype(int), axis=1)
            drop = f.max(axis=1) - _WINDOW_DROP
            ends = ((lo[idx] == 0.0) | (f[:, 0] <= drop)) & ((hi[idx] == top[idx]) | (f[pick, last[idx]] <= drop))
            cut = ((k_lo[idx] == 0.0) | (b_pmf[:, 0] <= tails[pick, need[idx]] - _WINDOW_DROP)) & (
                (k_top[idx] == k_end[idx]) | (b_pmf[pick, end[idx]] <= tails[pick, end[idx]] - _WINDOW_DROP))
            out[idx[ends & cut]] = lc_real_logsumexp_rows(f[ends & cut])
            half[idx], extra[idx] = half[idx] * np.where(ends, 1.0, 2.0), extra[idx] * np.where(cut, 1.0, 2.0)
            pending.append(idx[~(ends & cut)])
        live = np.sort(np.concatenate(pending))
    return out.reshape(len(rows), 2, k)


@dataclass(frozen=True)
class BinomialBlock:
    """``(d1 + d0 z)**size`` over the up-count power j, held by its parameters.

    Its coefficients are ``exp(size * log_scale) * Bin(j; size, p) *
    exp(1j * phase)``: all of them share the one phase, and
    ``log_scale = -inf`` marks a block of exact zeros.  No ``size + 1``
    array of it is built.
    """

    size: int
    p: float
    q: float
    log_scale: float
    phase: float = 0.0

    def log_total(self) -> float:
        """log of the coefficient sum, ``size * log_scale`` (0 for size 0)."""
        return self.size * self.log_scale if self.size else 0.0


def _binomial_block(d0: complex, d1: complex, scale: float | None = None) -> BinomialBlock:
    # the parameters of (d1 + d0 z)**size, scale**size * Bin(j; size, |d0| / (|d0| + |d1|)),
    # scale |d0| + |d1| by default, as a block of size 0
    mag0, mag1 = abs(d0), abs(d1)
    total = mag0 + mag1
    if total == 0.0:
        return BinomialBlock(0, 0.0, 1.0, -math.inf)
    return BinomialBlock(0, mag0 / total, mag1 / total, math.log(scale or total))


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


def lc_values(lm: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """The complex values ``exp(lm) * exp(1j * ph)`` of log-coded arrays; 0 where ``lm`` is ``-inf``."""
    values, finite = np.zeros(lm.shape, dtype=complex), lm != -np.inf
    values[finite] = np.exp(lm[finite]) * np.exp(1j * ph[finite])
    return values


def lc_convolve(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Convolution of two log-coded coefficient arrays (polynomial product).

    Each shift of the shorter side places a copy of the longer one in a column
    of the output's length; ``lc_sum_rows`` sums each output's row, in the order
    of the shifts.  The cost is the product of the two lengths.
    """
    (lma, pha), (lmb, phb) = (b, a) if len(a[0]) < len(b[0]) else (a, b)
    na, nb = len(lma), len(lmb)
    lm, ph = np.full((na + nb - 1, nb), -np.inf), np.zeros((na + nb - 1, nb))
    for shift in range(nb):
        lm[shift:shift + na, shift], ph[shift:shift + na, shift] = lma + lmb[shift], pha + phb[shift]
    return lc_sum_rows(lm, ph)


def bernoulli_relative_entropy(q, p):
    """D(q || p) for Bernoulli distributions, elementwise over the broadcast ``q`` and ``p``
    (a float for two scalars), with the 0 log 0 = 0 convention: ``inf`` where p is 0 or 1
    and q is not p."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if not (((0.0 <= q) & (q <= 1.0)).all() and ((0.0 <= p) & (p <= 1.0)).all()):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):  # the masked terms
        up = np.where(q > 0.0, q * np.log(q / p), 0.0)
        down = np.where(q < 1.0, (1.0 - q) * np.log((1.0 - q) / (1.0 - p)), 0.0)
    out = np.where(((p == 0.0) | (p == 1.0)) & (q != p), np.inf, up + down)
    return out if out.ndim else float(out)
