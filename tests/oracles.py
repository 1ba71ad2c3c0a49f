"""Independent verification machinery for the test suite.

Everything here deliberately avoids the package's computational paths: the
composite evolution materialises the full tensor-product space and uses
scipy's scaled-squaring exponential, the probability oracles run on exact
rational arithmetic, and the chain sectors are summed from their full
product polynomial, which the package never forms.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import numpy as np
from scipy.linalg import expm


def full_composite_phi_t(sector_hams, c, Omega, t):
    """Evolve P(psi) (x) Omega on the full composite space by brute force."""
    n = len(sector_hams)
    dK = sector_hams[0].shape[0]
    Hc = np.zeros((n * dK, n * dK), dtype=complex)
    for r, Kr in enumerate(sector_hams):
        proj = np.zeros((n, n))
        proj[r, r] = 1.0
        Hc += np.kron(proj, Kr)
    Uc = expm(1j * Hc * t)
    psi = np.asarray(c, dtype=complex)
    Phi0 = np.kron(np.outer(psi, psi.conj()), Omega)
    return Uc.conj().T @ Phi0 @ Uc


def composite_expect(Phi_t, A, M):
    """Tr(Phi(t) (A (x) M)) on the composite space."""
    return complex(np.trace(Phi_t @ np.kron(A, M)))


def dense_sector_hams(system, apparatus):
    eye = np.eye(apparatus.dim_K)
    return [apparatus.K + apparatus.V[r] + system.energies[r] * eye
            for r in range(system.n)]


def binom_range_fraction(N: int, p: Fraction, j_values) -> Fraction:
    """Exact binomial probability of a set of up-counts."""
    q = 1 - p
    total = Fraction(0)
    for j in j_values:
        total += math.comb(N, j) * p ** j * q ** (N - j)
    return total


def binom_range_log(N: int, p: float, j_values, digits: int = 50) -> float:
    """log of the binomial probability of a set of up-counts, in decimals.

    ``p`` is taken as exact and ``q = 1 - p``; the terms come from the ratio
    recurrence ``P(j + 1) = P(j) (N - j) p / ((j + 1) q)`` in ``digits``-digit
    decimal arithmetic, whose exponent range holds them far below the double
    floor.
    """
    wanted = set(j_values)
    with decimal.localcontext(decimal.Context(prec=digits, Emin=-10 ** 9, Emax=10 ** 9)):
        pd = decimal.Decimal(p)
        qd = 1 - pd
        term, total = qd ** N, decimal.Decimal(0)
        for j in range(N + 1):
            if j in wanted:
                total += term
            term = term * (N - j) * pd / ((j + 1) * qd)
        return float(total.ln())


def poisson_binomial_fraction(ps: list[Fraction]) -> list[Fraction]:
    """Exact up-count distribution of independent heterogeneous sites.

    Over a common denominator ``D`` of the probabilities every entry is an
    integer over ``D**N``, so the site-by-site convolution runs on integers.
    """
    ps = [Fraction(p) for p in ps]
    denominator = math.lcm(*(p.denominator for p in ps)) if ps else 1
    dist = [1]
    for p in ps:
        up = int(p * denominator)
        down = denominator - up
        new = [0] * (len(dist) + 1)
        for j, w in enumerate(dist):
            new[j] += w * down
            new[j + 1] += w * up
        dist = new
    scale = denominator ** len(ps)
    return [Fraction(w, scale) for w in dist]


def chain_plus_cell_counts(N: int):
    """Up-counts whose magnetisation falls in the closed-positive cell."""
    return [j for j in range(N + 1) if 2 * j - N >= 0]


def chain_minus_cell_counts(N: int):
    return [j for j in range(N + 1) if 2 * j - N < 0]


def chain_trace_product(spec, r: int, s: int) -> tuple[float, float]:
    """Log magnitude and summed phase of prod_k Tr(A_r^dag rho_k A_s).

    ``rho_k`` are the chain's initial site states and ``A_1`` the full
    traversal rotation ``exp(i theta sigma_x / 2)`` (``A_0`` the identity),
    written out here rather than taken from the package.
    """
    half = spec.theta / 2
    rot = np.array([[math.cos(half), 1j * math.sin(half)],
                    [1j * math.sin(half), math.cos(half)]])
    a = rot if r == 1 else np.eye(2)
    b = rot if s == 1 else np.eye(2)
    lm, ph = 0.0, 0.0
    for rho in spec.site_states():
        tr = complex(np.trace(a.conj().T @ rho @ b))
        if tr == 0:
            return -math.inf, 0.0
        lm += math.log(abs(tr))
        ph += math.atan2(tr.imag, tr.real)
    return lm, ph


def _log_coded_sum(lm, ph) -> tuple[float, float]:
    """Sum of terms ``exp(lm) * exp(1j * ph)``, rescaled by the largest one."""
    finite = lm > -np.inf
    if not finite.any():
        return -math.inf, 0.0
    m = lm[finite].max()
    acc = complex(np.sum(np.exp(lm[finite] - m) * np.exp(1j * ph[finite])))
    if acc == 0:
        return -math.inf, 0.0
    return m + math.log(abs(acc)), math.atan2(acc.imag, acc.real)


def _binomial_block(size: int, d0: complex, d1: complex):
    """Log-coded coefficients of ``(d1 + d0 z)**size`` over the power of z.

    The log magnitudes ``log C(size, j) + j log|d0| + (size - j) log|d1|``
    are summed in 40-digit decimal arithmetic and rounded once, so they
    carry no cancellation error from terms of order ``size * log(size)``.
    """
    j = np.arange(size + 1, dtype=float)
    lm = np.full(size + 1, -math.inf)
    with decimal.localcontext(decimal.Context(prec=40)):
        log_mag = [decimal.Decimal(abs(d)).ln() if d != 0 else None for d in (d0, d1)]
        log_int = [decimal.Decimal(i).ln() for i in range(1, size + 1)]  # log(i) at i - 1
        log_comb = decimal.Decimal(0)
        for k in range(size + 1):
            if k:
                log_comb += log_int[size - k] - log_int[k - 1]
            powers = [(k, log_mag[0]), (size - k, log_mag[1])]
            if all(log is not None for count, log in powers if count):
                lm[k] = float(log_comb + sum(count * log for count, log in powers if count))
    ph = np.zeros(size + 1)
    for count, d in ((j, d0), (size - j, d1)):
        if d != 0:
            ph = ph + count * math.atan2(d.imag, d.real)
    return lm, ph


def _product_polynomial(x, y):
    """Full product of two log-coded polynomials, one rescaled sum per output term."""
    (x_lm, x_ph), (y_lm, y_ph) = x, y
    out_len = len(x_lm) + len(y_lm) - 1
    out_lm, out_ph = np.full(out_len, -np.inf), np.zeros(out_len)
    for j in range(out_len):
        ks = np.arange(max(0, j - len(y_lm) + 1), min(len(x_lm) - 1, j) + 1)
        out_lm[j], out_ph[j] = _log_coded_sum(x_lm[ks] + y_lm[j - ks], x_ph[ks] + y_ph[j - ks])
    return out_lm, out_ph


def full_product_sector_cells(spec, r: int, s: int, rotated_count: int):
    """Sector pair (r, s) of a partially traversed chain, by the quadratic route.

    Each site contributes the polynomial ``d1 + d0 z`` over its up-count,
    with ``d`` the diagonal of ``A_r^dag rho_k A_s`` (the rotation only on
    the first ``rotated_count`` sites); identical sites are grouped into
    binomial blocks, the blocks are multiplied into the full ``(N + 1)``-term
    polynomial and the magnetisation-sign cells are summed from it.  Returns
    ``(total, (minus_cell, plus_cell))`` as ``(log magnitude, phase)`` pairs;
    the cells carry the energy phase, the total (the product of the per-site
    traces) does not.
    """
    half = spec.theta / 2
    rot = np.array([[math.cos(half), 1j * math.sin(half)],
                    [1j * math.sin(half), math.cos(half)]])
    if spec.theta == math.pi:
        rot = np.array([[0, 1j], [1j, 0]])  # the exact flip, as the package defines it
    blocks: dict[tuple[complex, complex], int] = {}
    for k, rho in enumerate(spec.site_states()):
        a = rot if (r == 1 and k < rotated_count) else np.eye(2)
        b = rot if (s == 1 and k < rotated_count) else np.eye(2)
        x = a.conj().T @ rho @ b
        key = (complex(x[0, 0]), complex(x[1, 1]))
        blocks[key] = blocks.get(key, 0) + 1
    polys = [_binomial_block(size, d0, d1) for (d0, d1), size in blocks.items()]
    lm, ph = polys[0]
    for extra in polys[1:]:
        lm, ph = _product_polynomial((lm, ph), extra)
    h = len(chain_minus_cell_counts(spec.N))
    energy = (spec.energies[s] - spec.energies[r]) * spec.t
    cells = (_log_coded_sum(lm[:h], ph[:h]), _log_coded_sum(lm[h:], ph[h:]))
    return _log_coded_sum(lm, ph), tuple((c_lm, c_ph + energy) for c_lm, c_ph in cells)


def exact_log(value: Fraction) -> float:
    """log of a positive rational, from 50-digit decimal logarithms."""
    ctx = decimal.Context(prec=50)
    return float(ctx.ln(value.numerator) - ctx.ln(value.denominator))


def decimal_sector_cells(spec, r: int, s: int, digits: int = 50):
    """Sector pair (r, s) of a fully traversed chain, in ``digits``-digit decimals.

    Each site contributes the polynomial ``d1 + d0 z`` over its up-count,
    with ``d`` the diagonal of ``A_r^dag rho_k A_s`` in double precision,
    taken as exact.  The polarised bulk ``(d1 + d0 z)**n`` is generated by
    the ratio recurrence of its coefficients and the override sites are
    multiplied in term by term, all in complex decimal arithmetic, whose
    exponent range holds magnitudes far below the double floor.  Returns the
    ``(log magnitude, phase)`` of the "-" and "+" magnetisation-sign cells,
    energy phase included.
    """
    half = spec.theta / 2
    rot = np.array([[math.cos(half), 1j * math.sin(half)],
                    [1j * math.sin(half), math.cos(half)]])
    if spec.theta == math.pi:
        rot = np.array([[0, 1j], [1j, 0]])  # the exact flip, as the package defines it
    a = rot if r == 1 else np.eye(2)
    b = rot if s == 1 else np.eye(2)

    def diagonal(rho):
        x = a.conj().T @ rho @ b
        return [(D(z.real), D(z.imag)) for z in (complex(x[0, 0]), complex(x[1, 1]))]

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    D = decimal.Decimal
    zero = (D(0), D(0))
    ctx = decimal.Context(prec=digits, Emin=-10 ** 9, Emax=10 ** 9)
    with decimal.localcontext(ctx):
        overrides = [spec.site_overrides[k] for k in sorted(spec.site_overrides)]
        poly = [(D(1), D(0))]
        for rho in overrides:
            d0, d1 = diagonal(rho)
            poly = [add(mul(lo, d1), mul(hi, d0))
                    for lo, hi in zip(poly + [zero], [zero] + poly)]
        n = spec.N - len(overrides)
        d0, d1 = diagonal(np.diag([(1 + spec.m0) / 2, (1 - spec.m0) / 2]))
        norm = d1[0] * d1[0] + d1[1] * d1[1]
        ratio = mul(d0, (d1[0] / norm, -d1[1] / norm))
        term, power, e = (D(1), D(0)), d1, n
        while e:  # term = d1**n by repeated squaring
            if e & 1:
                term = mul(term, power)
            power, e = mul(power, power), e >> 1
        bulk = [term]
        for j in range(n):
            term = mul(term, ratio)
            term = (term[0] * (n - j) / (j + 1), term[1] * (n - j) / (j + 1))
            bulk.append(term)
        h = len(chain_minus_cell_counts(spec.N))
        cells = [zero, zero]
        for i, c in enumerate(poly):
            for j, coeff in enumerate(bulk):
                cells[i + j >= h] = add(cells[i + j >= h], mul(c, coeff))
        energy = (spec.energies[s] - spec.energies[r]) * spec.t
        out = []
        for re, im in cells:
            mag = (re * re + im * im).sqrt()
            out.append((float(mag.ln()), math.atan2(float(im / mag), float(re / mag)) + energy))
    return out


def kl_bernoulli(q: float, p: float) -> float:
    """Relative entropy, written independently of the package helper."""
    out = 0.0
    if q > 0:
        out += q * math.log(q) - q * math.log(p)
    if q < 1:
        out += (1 - q) * math.log(1 - q) - (1 - q) * math.log(1 - p)
    return out


def random_hermitian(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(rng, n):
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    return c / np.linalg.norm(c)
