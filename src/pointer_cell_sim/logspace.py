"""Log-space numerics shared by the combinatorial backends.

Complex magnitudes are carried as (log-magnitude, phase) pairs so that
quantities far below the double-precision floor stay exact on the log scale.
A value is ``exp(lm) * exp(1j * ph)``; ``lm = -inf`` encodes an exact zero.
"""

from __future__ import annotations

import functools
import math

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


def _stirlerr(n: int) -> np.ndarray:
    """Stirling-formula error ``stirlerr(k)`` over k = 0..n."""
    out = np.empty(n + 1)
    top = min(n, 15) + 1
    out[:top] = _STIRLERR_TABLE[:top]
    inv = np.reciprocal(np.arange(16, n + 1, dtype=float))
    w = inv * inv
    acc = out[16:]  # Horner in 1 / k**2, in place
    np.multiply(w, _S4, out=acc)
    for s in (_S3, _S2, _S1):
        np.subtract(s, acc, out=acc)
        acc *= w
    np.subtract(_S0, acc, out=acc)
    acc *= inv
    return out


@functools.lru_cache(maxsize=4)
def _saddle_log_pmf(n: int) -> np.ndarray:
    """``log Bin(k; n, k / n)`` over k = 0..n: the log-pmf at its own mean.

    This is the part of Loader's saddle-point form that does not depend on
    p, ``stirlerr(n) - stirlerr(k) - stirlerr(n - k) - log(2 pi k (n - k) / n) / 2``,
    with 0 at k = 0 and k = n.  It is cached per n, read-only, so that the
    sectors of one chain size, evaluated one after the other, share it.
    """
    st = _stirlerr(n)
    out = np.zeros(n + 1)
    if n > 1:
        k = np.arange(1, n, dtype=float)
        half_log = n - k
        half_log *= k
        half_log *= 2.0 * math.pi / n
        np.log(half_log, out=half_log)
        half_log *= 0.5
        mid = out[1:n]
        np.subtract(st[n], st[1:n], out=mid)
        mid -= st[n - 1:0:-1]
        mid -= half_log
    out.setflags(write=False)
    return out


# 1 / (2j + 1) for the series terms j = 1..8 of bd0
_BD0_SERIES = tuple(1.0 / (2 * j + 1) for j in range(1, 9))


@functools.lru_cache(maxsize=4)
def _bd0(n: int, m: float) -> np.ndarray:
    """Deviance ``bd0(x, m) = x log(x / m) + m - x`` over x = 0..n, for m > 0.

    Where ``|x - m| < 0.1 (x + m)``, a contiguous band of x, the difference
    of nearly equal terms is replaced by its series (Loader 2000)
    ``v (x - m) + 2 x sum_j v**(2j + 1) / (2j + 1)`` with
    ``v = (x - m) / (x + m)``.  As ``|v| < 0.1``, the ninth term is below
    ``2**-54`` of the sum, so eight terms are summed, by Horner's rule in v**2.
    Cached and read-only like ``_saddle_log_pmf``: sectors whose sites share
    a diagonal, or swap it, share their deviances.
    """
    x = np.arange(n + 1, dtype=float)
    out = np.empty(n + 1)
    lo = min(math.floor(m * 9.0 / 11.0) + 1, n + 1)
    hi = min(max(math.ceil(m * 11.0 / 9.0), lo), n + 1)
    out[0] = m
    for a, b in ((1, lo), (hi, n + 1)):
        xs, side = x[a:b], out[a:b]
        np.divide(xs, m, out=side)
        np.log(side, out=side)
        side *= xs
        side += m
        side -= xs
    xs = x[lo:hi]
    d = xs - m
    v = d / (xs + m)
    w = v * v
    band = out[lo:hi]
    band.fill(_BD0_SERIES[-1])
    for c in _BD0_SERIES[-2::-1]:
        band *= w
        band += c
    band *= w
    band *= xs
    band += band
    band += d
    band *= v
    out.setflags(write=False)
    return out


def binomial_log_pmf(n: int, p: float, q: float) -> np.ndarray:
    """Log-pmf of Bin(n, p) over k = 0..n, with ``q = 1 - p``; exact at p or q = 0.

    Loader's saddle-point form (C. Loader, 2000, *Fast and Accurate
    Computation of Binomial Probabilities*): ``log Bin(k; n, k / n)`` minus
    the deviances ``bd0(k, n p)`` and ``bd0(n - k, n q)``.  Near the mass
    its absolute error is a few ulps of the result, where the direct sum
    ``log C(n, k) + k log p + (n - k) log q`` loses ulps of ``n log n``.
    ``q`` is passed rather than formed as ``1 - p`` so that a p within
    rounding of 1 keeps the digits of its complement.
    """
    if p <= 0.0 or q <= 0.0:
        out = np.full(n + 1, -np.inf)
        out[0 if p <= 0.0 else n] = 0.0
        return out
    return _saddle_log_pmf(n) - _bd0(n, n * p) - _bd0(n, n * q)[::-1]


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
