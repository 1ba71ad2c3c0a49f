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


#: a window's first half-width in tilted deviations, the nats that settle an open end, and the elements of a pass
_WINDOW_SIGMAS, _WINDOW_DROP, _WINDOW_SIZE = 13.0, 60.0, 2 ** 15


def _ratio_window(n, p, q, anchor, lo, hi) -> np.ndarray:
    """Rows of ``log Bin(j; n, p) - log Bin(anchor; n, p)`` for j = lo..hi from column 0, -inf past hi,
    lo <= anchor: running sums outward from the anchor of the logged exact ratios ``Bin(i + 1) / Bin(i)
    = (n - i) p / ((i + 1) q)``, each ``log1p`` of ``(n + 1) p - (i + 1) (p + q)``, with ``(n + 1) p`` split
    exactly in two (Dekker), over the smaller: near the mode, where they are nearly 1, they keep their digits."""
    m, excess = n + 1.0, (np.maximum(p, q) - 1.0) + np.minimum(p, q)  # p + q - 1, exact
    m1, p1 = (v * 134217729.0 - (v * 134217729.0 - v) for v in (m, p))  # the high 26 bits of each
    head = m * p  # (n + 1) p = head + tail exactly
    tail = (m - m1) * (p - p1) - (((head - m1 * p1) - (m - m1) * p1) - m1 * (p - p1))
    j = lo[:, None] + np.arange(int((np.maximum(hi, anchor) - lo).max()) + 1)
    up = j > anchor[:, None]
    i1 = j + (1.0 - up)  # i + 1 for the ratio of each j to its neighbour nearer the anchor
    fall, gap = i1 * q[:, None], (head[:, None] - i1) + (tail[:, None] - i1 * excess[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):  # the columns past a row's span
        step = np.copysign(np.log1p(np.abs(gap) / (fall + np.minimum(gap, 0.0))), gap)
    rel = np.cumsum(np.where(up, step, 0.0), axis=1)
    rel -= np.cumsum(np.where(j < anchor[:, None], step, 0.0)[:, ::-1], axis=1)[:, ::-1]
    out = rel[:, :int((hi - lo).max()) + 1]
    out[np.arange(out.shape[1]) > (hi - lo)[:, None]] = -np.inf
    return out


def binomial_pair_log_tails(rows: Sequence[tuple[int, float, float, int, float, float, int]], k: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Per row ``(na, pa, qa, nb, pb, qb, t)``, X = X_a + X_b for independent X_a ~ Bin(na, pa)
    and X_b ~ Bin(nb, pb), ``q = 1 - p``, nb = 0 for one block: ``log P(X < t - i)`` and
    ``log P(X >= t - i)``, i = 0..k-1, as rows 0 and 1 of ``(len(rows), 2, k)`` tails, each
    side less its entry of the ``(len(rows), 2)`` shifts; exact at p or q = 0 and for splits
    outside 1..na + nb.  A block's odds are p / q, and with one block ``(1 - x) / x`` of the far
    side's down-probability x alone, as the incomplete beta ``I_x`` reads them.

    At a split s the far tail, the side of ``s - 1/2`` without the mean, is a sum, and the near
    tail its ``log1p(-exp(.))`` complement.  ``P(X >= s) = P(X' < na + nb + 1 - s)`` for the
    down counts X', and a lower tail is ``sum_j Bin(j; na, pa) P(X_b < s - j)`` over a window of
    j, its terms log-concave (Saumard & Wellner, *Statistics Surveys* 8, 2014), centred at X_a's
    tilted mean ``na pa x / (qa + pa x)`` given ``X = s - 1``.  It starts ``_WINDOW_SIGMAS``
    tilted deviations wide, or with one block as many steps of the slope ``-log x`` as fall
    ``_WINDOW_DROP`` nats if fewer, and doubles until each open end is that far below the largest
    term: a geometric series then bounds the rest below ``2**-60`` of the sum for n to 10**12.
    X_b's tails are a running log-sum, cut the same way.  A side's far tails in a row are exact
    ratios (``_ratio_window``) from one anchor, its first split's pmfs at the centre, from one
    ``binomial_log_pmf`` call: an O(n) log-pmf added to each term would round their relative
    sizes, which set the phase of a mixed-phase sum, to ulps of n.  A row costs O(sqrt(n)) at
    the mode and O(1) far from it; rows of similar width share passes, each with its own bits."""
    out, summed = np.full((len(rows), 2, k), -np.inf), np.zeros((len(rows), 2, k), dtype=bool)
    jobs, at, lead = [], [], {}  # per far tail: its lower-tail row; (row, side, i, its side's first)
    for row, (na, pa, qa, nb, pb, qb, t) in enumerate(rows):
        blocks = [(n, p, q) for n, p, q in ((na, pa, qa), (nb, pb, qb)) if n]
        t -= sum(n for n, p, q in blocks if q <= 0.0)  # a block with q = 0 is up surely, p = 0 down
        (na, pa, qa), (nb, pb, qb) = ([b for b in blocks if min(b[1:]) > 0.0] + [(0, 0.5, 0.5)] * 2)[:2]
        for i in range(k):
            s = t - i
            if s <= 0 or s > na + nb:  # one side surely holds X
                out[row, :, i] = (-math.inf, 0.0) if s <= 0 else (0.0, -math.inf)
                continue
            upper = s - 0.5 > na * pa + nb * pb
            at.append((row, int(upper), i, lead.setdefault((row, upper), len(jobs))))
            job = (na, qa, pa, nb, qb, pb, na + nb - s) if upper else (na, pa, qa, nb, pb, qb, s - 1)
            jobs.append(job if nb else (na, 1.0 - job[2], *job[2:]))  # one block: odds from x = job[2] alone
    na, pa, qa, nb, pb, qb, tau = np.array(jobs, dtype=float).reshape(-1, 7).T
    top, two = np.minimum(na, tau), nb.any()  # the largest j with a term; any row of two blocks
    with np.errstate(divide="ignore", invalid="ignore"):  # tau = 0: x = 0, a point mass
        x = tau * qa / (pa * (na - tau))  # one block: the tilt x = e^lambda that puts X_a's mean at tau
        if two:  # two: the tilt that puts X_a + X_b's there, from a quadratic in x
            a2, a1 = pa * pb * (na + nb - tau), na * pa * qb + nb * pb * qa - tau * (qa * pb + pa * qb)
            root = np.sqrt(a1 * a1 + 4.0 * a2 * tau * qa * qb)
            x = np.where(nb > 0.0, np.where(a1 > 0.0, 2.0 * tau * qa * qb / (a1 + root), (root - a1) / (2.0 * a2)), x)
        half = np.minimum(_WINDOW_SIGMAS * np.sqrt(na * pa * qa * x) / (qa + pa * x),
                          np.where(nb > 0.0, np.inf, _WINDOW_DROP / -np.log(x))) + 2.0
    grain = 2.0 ** np.maximum(np.floor(np.log2(half)) - 2.0, 0.0)  # whole counts, four widths an octave
    half = np.ceil(half / grain) * grain
    centre = np.clip(np.round(na * pa * x / (qa + pa * x)), 0.0, top)
    row, side, col, first = np.array(at, dtype=int).reshape(-1, 4).T
    anchor_a, anchor_b = centre[first], np.clip(tau[first] - centre[first], 0.0, nb)
    anchor, live, far = binomial_log_pmf(na, pa, qa, anchor_a), np.arange(len(jobs)), np.empty(len(jobs))
    if two:  # X_b's anchors, and its cuts past its mode
        anchor += binomial_log_pmf(nb, pb, qb, anchor_b)
        extra, mode = _WINDOW_SIGMAS * np.sqrt(nb * pb * qb), np.floor(nb * pb)
    while live.size:
        lo, hi = np.minimum(np.maximum(centre - half, 0.0), anchor_a), np.minimum(centre + half, top)
        size = last = (hi - lo).astype(int)
        if two:  # X_b's cuts: the least and the largest tail's k, and the lower cut from a gaussian estimate
            k_need, k_end = np.minimum(tau - hi, nb), np.minimum(tau - lo, nb)
            k_lo = np.minimum(np.maximum(mode - np.ceil(np.hypot(np.maximum(mode - k_need, 0.0), extra)) - 2.0, 0.0),
                              anchor_b)
            k_top = np.minimum(k_end, mode + extra + 2.0)
            end, need = ((v - k_lo).astype(int) for v in (k_top, np.minimum(k_need, k_top)))
            size = last + end
        order, pending = live[np.argsort(size[live], kind="stable")], []
        for idx in np.split(order, np.flatnonzero(np.diff(np.cumsum(size[order]) // _WINDOW_SIZE)) + 1):
            pick = np.arange(len(idx))
            f, cut = _ratio_window(na[idx], pa[idx], qa[idx], anchor_a[idx], lo[idx], hi[idx]), True
            if nb[idx].any():  # X_b's tails, 0 where it is empty
                b_pmf = _ratio_window(nb[idx], pb[idx], qb[idx], anchor_b[idx], k_lo[idx], k_top[idx])
                tails = np.logaddexp.accumulate(b_pmf, axis=1)  # log P(k_lo <= X_b <= k), less X_b's anchor
                cols = (tau - lo - k_lo)[idx, None] - np.arange(f.shape[1])  # of k = s - 1 - j
                f += np.take_along_axis(tails, np.clip(cols, 0, end[idx, None]).astype(int), axis=1)
                cut = ((k_lo[idx] == 0.0) | (b_pmf[:, 0] <= tails[pick, need[idx]] - _WINDOW_DROP)) & (
                    (k_top[idx] == k_end[idx]) | (b_pmf[pick, end[idx]] <= tails[pick, end[idx]] - _WINDOW_DROP))
                extra[idx] *= np.where(cut, 1.0, 2.0)
            top_term = f.max(axis=1)
            drop = top_term - _WINDOW_DROP
            ends = ((lo[idx] == 0.0) | (f[:, 0] <= drop)) & ((hi[idx] == top[idx]) | (f[pick, last[idx]] <= drop))
            done = ends & cut
            for c in set(last[idx[done]].tolist()):  # a window's terms fill its first columns: those of
                group = done & (last[idx] == c)        # one length are summed together, each as alone
                far[idx[group]] = top_term[group] + np.log(np.exp(f[group, :c + 1] - top_term[group, None]).sum(axis=1))
            half[idx] *= np.where(ends, 1.0, 2.0)
            pending.append(idx[~done])
        live = np.sort(np.concatenate(pending))
    out[row, side, col], out[row, 1 - side, col], summed[row, side, col] = far, np.log1p(-np.exp(anchor + far)), True
    shifts = np.zeros((len(rows), 2))
    shifts[row, side] = anchor
    return np.where(summed, out, out - shifts[:, :, None]), shifts


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
