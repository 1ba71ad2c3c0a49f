"""Log-space numerics shared by the combinatorial backends.

Complex magnitudes are carried as (log-magnitude, phase) pairs so that
quantities far below the double-precision floor stay exact on the log scale.
A value is ``exp(lm) * exp(1j * ph)``; ``lm = -inf`` encodes an exact zero.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln


def log_binom(n: int, k) -> np.ndarray:
    """log C(n, k), vectorised over k."""
    k = np.asarray(k, dtype=float)
    return gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)


def binomial_log_pmf(n: int, p: float) -> np.ndarray:
    """Log-pmf of Bin(n, p) over k = 0..n, exact at p in {0, 1}."""
    k = np.arange(n + 1, dtype=float)
    out = np.full(n + 1, -np.inf)
    if p <= 0.0:
        out[0] = 0.0
        return out
    if p >= 1.0:
        out[n] = 0.0
        return out
    return log_binom(n, k) + k * np.log(p) + (n - k) * np.log1p(-p)


def power_pair_log(count, log_mag: float, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """(lm, ph) of x**count for counts given as an array; 0**0 = 1."""
    count = np.asarray(count, dtype=float)
    if np.isneginf(log_mag):
        lm = np.where(count == 0, 0.0, -np.inf)
        ph = np.zeros_like(count)
        return lm, ph
    return count * log_mag, count * phase


def lc_sum(lm: np.ndarray, ph: np.ndarray) -> tuple[float, float]:
    """Sum of log-coded complex terms, normalised by the dominant magnitude.

    Returns the (log-magnitude, phase) of the sum.  Cancellation between
    mixed-phase terms is resolved in complex128 after rescaling, which is
    exact whenever the terms share a phase and compensated otherwise.
    """
    lm = np.asarray(lm, dtype=float).ravel()
    ph = np.asarray(ph, dtype=float).ravel()
    finite = lm > -np.inf
    if not finite.any():
        return -np.inf, 0.0
    m = lm[finite].max()
    acc = np.sum(np.exp(lm[finite] - m) * np.exp(1j * ph[finite]))
    mag = abs(acc)
    if mag == 0.0:
        return -np.inf, 0.0
    return m + np.log(mag), float(np.angle(acc))


def lc_real_logsumexp(lm: np.ndarray) -> float:
    """logsumexp over nonnegative-real log-coded terms."""
    lm = np.asarray(lm, dtype=float).ravel()
    finite = lm > -np.inf
    if not finite.any():
        return -np.inf
    m = lm[finite].max()
    return float(m + np.log(np.sum(np.exp(lm[finite] - m))))


def lc_cumsum(lm: np.ndarray, ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of log-coded terms: (lm, ph) of ``x_0 + ... + x_i`` for every i.

    The terms are split into four nonnegative real parts (the positive and
    negative halves of their real and imaginary parts), and each part is
    accumulated exactly in log space by ``np.logaddexp.accumulate``.  For
    nonnegative real terms this is an exact log-space prefix sum; mixed
    phases cancel when the parts are recombined after rescaling by their
    common maximum, the same compensated accumulation as ``lc_sum``.
    """
    lm = np.asarray(lm, dtype=float)
    ph = np.asarray(ph, dtype=float)
    cos, sin = np.cos(ph), np.sin(ph)
    with np.errstate(divide="ignore"):
        parts = [np.logaddexp.accumulate(lm + np.log(np.maximum(x, 0.0)))
                 for x in (cos, -cos, sin, -sin)]
    m = np.maximum.reduce(parts)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    re_pos, re_neg, im_pos, im_neg = (np.exp(part - safe_m) for part in parts)
    acc = (re_pos - re_neg) + 1j * (im_pos - im_neg)
    mag = np.abs(acc)
    live = mag > 0
    out_lm = np.where(live, safe_m + np.log(np.where(live, mag, 1.0)), -np.inf)
    out_ph = np.where(live, np.angle(acc), 0.0)
    return out_lm, out_ph


def lc_convolve(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Convolution of two log-coded coefficient arrays (polynomial product).

    A side of at most 64 terms is handled by one vectorised pass; longer
    sides take a Python loop with one ``lc_sum`` per output term, quadratic
    in the length.  That branch now serves only ``up_count_log_pmf``, which
    needs the full up-count distribution; the chain collapses its sectors
    onto the cells without ever forming the full product.
    """
    lma, pha = a
    lmb, phb = b
    if len(lma) < len(lmb):
        (lma, pha), (lmb, phb) = (lmb, phb), (lma, pha)
    na, nb = len(lma), len(lmb)
    out_len = na + nb - 1
    if not np.isfinite(lma).any() or not np.isfinite(lmb).any():
        return np.full(out_len, -np.inf), np.zeros(out_len)
    if nb <= 64:
        # stack the shifted copies: one vectorised normalised sum per output
        stack_lm = np.full((nb, out_len), -np.inf)
        stack_ph = np.zeros((nb, out_len))
        for shift in range(nb):
            stack_lm[shift, shift:shift + na] = lma + lmb[shift]
            stack_ph[shift, shift:shift + na] = pha + phb[shift]
        m = stack_lm.max(axis=0)
        safe_m = np.where(np.isfinite(m), m, 0.0)
        with np.errstate(invalid="ignore"):
            acc = np.sum(np.exp(stack_lm - safe_m) * np.exp(1j * stack_ph), axis=0)
        mag = np.abs(acc)
        out_lm = np.where(np.isfinite(m) & (mag > 0),
                          safe_m + np.log(np.where(mag > 0, mag, 1.0)), -np.inf)
        out_ph = np.where(np.isfinite(out_lm), np.angle(acc), 0.0)
        return out_lm, out_ph
    out_lm = np.full(out_len, -np.inf)
    out_ph = np.zeros(out_len)
    for j in range(out_len):
        lo = max(0, j - nb + 1)
        hi = min(na - 1, j)
        ks = np.arange(lo, hi + 1)
        out_lm[j], out_ph[j] = lc_sum(lma[ks] + lmb[j - ks], pha[ks] + phb[j - ks])
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
