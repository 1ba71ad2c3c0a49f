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
