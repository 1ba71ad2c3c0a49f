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
    """``K + V_r + e_r I`` as full matrices; a vector operator stands for its diagonal matrix."""
    def full(a):
        return np.diag(a) if a.ndim == 1 else a
    eye = np.eye(apparatus.dim_K)
    return [full(apparatus.K) + full(apparatus.V[r]) + system.energies[r] * eye
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


def decimal_fraction_log_tails(n: int, t: int, p: float, q: float, k: int, digits: int = 36
                               ) -> list[tuple[float, float]]:
    """``(log P(X < t - i), log P(X >= t - i))`` for i = 0..k-1, X ~ Bin(n, p) with ``q = 1 - p``,
    one split at a time, in the arithmetic of an incomplete-beta tail kernel.

    At a split s inside 1..n the tail on the far side of the mode is a regularised
    incomplete beta (DLMF 8.17.22): ``P(X >= s) = I_p(s, n - s + 1) = Bin(s; n, p) q CF``
    where ``p (n + 3) < s + 1``, else ``P(X < s) = I_q(n - s + 1, s) = Bin(s - 1; n, p) p CF``.
    The pmf is the package's Loader kernel, ``logspace.binomial_log_pmf``, which other tests
    pin to exact rationals, and the fraction CF runs the modified Lentz steps (Numerical
    Recipes §6.4, ``betacf``) in ``digits``-digit decimals from the double x, until a step
    moves it by less than 1e-20.  The near tail is ``log1p(-exp(far))``.  Exact at p or
    q = 0 and for splits outside 1..n.
    """
    from pointer_cell_sim.logspace import binomial_log_pmf

    out = []
    for s in range(t, t - k, -1):
        if s <= 0 or (q <= 0.0 and s <= n):
            out.append((-math.inf, 0.0))
            continue
        if s > n or p <= 0.0:
            out.append((0.0, -math.inf))
            continue
        upper = p * (n + 3) < s + 1
        a, b, x = (s, n - s + 1, p) if upper else (n - s + 1, s, q)
        with decimal.localcontext(decimal.Context(prec=digits)):
            x, tiny, settled = decimal.Decimal(x), decimal.Decimal(10) ** -300, decimal.Decimal(10) ** -20
            c, d = decimal.Decimal(1), 1 / ((1 - (a + b) * x / (a + 1)) or tiny)
            frac = d
            for m in range(1, 100 + 2 * math.isqrt(max(a, b)) + 1):
                for coeff in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                              -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
                    d = 1 / ((1 + coeff * d) or tiny)
                    c = (1 + coeff / c) or tiny
                    frac *= c * d
                if abs(c * d - 1) < settled:
                    break
            else:
                raise AssertionError(f"I_{x}({a}, {b}): the fraction did not settle")
            log_frac = float(frac.ln())
        far = float(binomial_log_pmf(n, p, q, s if upper else s - 1)) + math.log(q if upper else p) + log_frac
        near = math.log1p(-math.exp(far))
        out.append((near, far) if upper else (far, near))
    return out


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


def sign_cells_reference(N: int):
    """Cell of each spectrum point and labels of the two equal intervals of the
    chain spectrum ``(2j - N) / N``, left-closed, the last one closed."""
    spectrum = (2 * np.arange(N + 1) - N) / N
    lo, hi = spectrum[0], spectrum[-1]
    edges = tuple(float(lo + (hi - lo) * k / 2) for k in range(3))
    cell = np.minimum(np.searchsorted(edges, spectrum, side="right") - 1, 1)
    return cell, ("-", "+")


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


def lc_sum(lm: np.ndarray, ph: np.ndarray) -> tuple[float, float]:
    """One row of ``logspace.lc_sum_rows`` as the package once summed it: the sum of
    log-coded complex terms, normalised by the dominant magnitude, returned as its
    (log magnitude, phase).  Each row of the stacked sum must equal it bit for bit."""
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


def block_log_magnitudes(block) -> np.ndarray:
    """The ``size + 1`` coefficient log magnitudes of a ``logspace.BinomialBlock``,
    from the package's log-pmf over its whole range."""
    from pointer_cell_sim.logspace import binomial_log_pmf

    if block.log_scale == -math.inf:
        return np.full(block.size + 1, -np.inf)
    return block.size * block.log_scale + binomial_log_pmf(block.size, block.p, block.q, np.arange(block.size + 1))


def _kahan_running_sums(w: np.ndarray) -> np.ndarray:
    """Running sums of the nonnegative ``longdouble`` terms ``w``, each to a few ulps:
    Kahan-compensated running sums within blocks of about ``sqrt(len(w))`` terms,
    stepped on every block at once, and the block offsets summed by Kahan's rule in turn."""
    n = len(w)
    width = max(math.isqrt(n), 1)
    blocks = np.zeros(-(-n // width) * width, dtype=np.longdouble)
    blocks[:n] = w
    blocks = blocks.reshape(-1, width)
    total, comp = np.zeros(len(blocks), dtype=np.longdouble), np.zeros(len(blocks), dtype=np.longdouble)
    run = np.empty(blocks.shape, dtype=np.longdouble)
    for col in range(width):
        y = blocks[:, col] - comp
        t = total + y
        comp, total = (t - total) - y, t
        run[:, col] = total - comp
    offsets, offset, lost = np.empty(len(blocks), dtype=np.longdouble), np.longdouble(0), np.longdouble(0)
    for m, block_sum in enumerate(total - comp):
        offsets[m] = offset - lost
        y = block_sum - lost
        t = offset + y
        lost, offset = (t - offset) - y, t
    return (run + offsets[:, None]).reshape(-1)[:n]


def compensated_cells(lA: np.ndarray, lB: np.ndarray, h: int, drop: float = 100.0) -> list[float]:
    """log of the "-" and "+" cells ``sum_j A_j T(h - j)`` of the product of two
    blocks with log coefficients ``lA`` and ``lB``, ``T(s)`` the sum of ``B_k`` over
    ``k < s`` or ``k >= s``: a compensated linear reference.

    Each tail is a Kahan running sum (``_kahan_running_sums``) of ``B_k`` over the
    whole range the cell needs, in extended precision scaled by the largest of
    them, so that tails far below the double floor keep their digits; the cell is
    the ``math.fsum`` of its terms relative to the largest.  Terms more than
    ``drop`` nats below the largest are left out, as found from log-space running
    sums: from a log-concave sequence they add less than ``len(lA) e**-drop`` of it.
    """
    j = np.arange(len(lA))
    forward, backward = np.logaddexp.accumulate(lB), np.logaddexp.accumulate(lB[::-1])[::-1]
    out = []
    for side in (0, 1):
        # "-": T(h - j) sums k = 0 .. h - j - 1; "+": k = h - j .. len(lB) - 1
        last = h - j - 1 if side == 0 else h - j
        has = last >= 0 if side == 0 else last <= len(lB) - 1
        rough = np.where(has, lA + (forward if side == 0 else backward)[np.clip(last, 0, len(lB) - 1)], -np.inf)
        if rough.max() == -np.inf:
            out.append(-math.inf)
            continue
        kept = np.flatnonzero(rough >= rough.max() - drop)
        lo, hi = int(kept[0]), int(kept[-1])
        js = np.arange(lo, hi + 1)
        if side == 0:
            k0, k1 = 0, min(h - lo - 1, len(lB) - 1)
        else:
            k0, k1 = max(h - hi, 0), len(lB) - 1
        # and the B_k more than 200 nats below the smallest tail kept, a log-concave run
        # falling away from it: they add less than len(lB) e**-200 of any tail
        floor = rough[lo:hi + 1][rough[lo:hi + 1] > -np.inf].min() - lA.max() - 200.0
        big = k0 + np.flatnonzero(lB[k0:k1 + 1] >= floor)
        k0, k1 = (int(big[0]), k1) if side == 0 else (k0, int(big[-1]))
        seg = lB[k0:k1 + 1].astype(np.longdouble)
        scale = seg.max()
        w = np.exp(seg - scale)
        run = _kahan_running_sums(w) if side == 0 else _kahan_running_sums(w[::-1])[::-1]
        at = np.clip(h - js - 1 - k0 if side == 0 else h - js - k0, 0, k1 - k0)
        with np.errstate(divide="ignore"):
            log_tails = (np.log(run[at]) + scale).astype(float)
        terms = lA[lo:hi + 1] + log_tails
        terms = terms[terms > -np.inf]
        top = terms.max()
        out.append(float(top + math.log(math.fsum(np.exp(terms - top)))))
    return out


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
    energy phase included; an exactly zero cell is ``(-inf, 0)``.
    """
    ctx = decimal.Context(prec=digits, Emin=-10 ** 9, Emax=10 ** 9)
    energy = (spec.energies[s] - spec.energies[r]) * spec.t
    out = []
    with decimal.localcontext(ctx):
        for re, im in _decimal_cells(spec, r, s, digits):
            mag = (re * re + im * im).sqrt()
            if mag == 0:
                out.append((-math.inf, 0.0))
                continue
            out.append((float(mag.ln()), math.atan2(float(im / mag), float(re / mag)) + energy))
    return out


def _site_factor(spec, r: int, s: int):
    """``rho -> A_r^dag rho A_s`` for the site states of a fully traversed chain:
    ``A_1`` the rotation ``exp(i theta sigma_x / 2)`` (the exact flip at pi) and
    ``A_0`` the identity, in double precision."""
    half = spec.theta / 2
    rot = np.array([[math.cos(half), 1j * math.sin(half)],
                    [1j * math.sin(half), math.cos(half)]])
    if spec.theta == math.pi:
        rot = np.array([[0, 1j], [1j, 0]])  # the exact flip, as the package defines it
    a = rot if r == 1 else np.eye(2)
    b = rot if s == 1 else np.eye(2)
    return lambda rho: a.conj().T @ rho @ b


def _decimal_cells(spec, r: int, s: int, digits: int):
    """The "-" and "+" cell sums of ``decimal_sector_cells`` as complex decimals
    ``(re, im)``, energy phase left out."""
    factor = _site_factor(spec, r, s)

    def diagonal(rho):
        x = factor(rho)
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
        if r == s:
            # a diagonal sector's site diagonal sums to the site trace, which
            # the rounded entries miss by an ulp and N sites would multiply
            # into N ulps: rescale it to the trace, as the package does
            trace = D((1 + spec.m0) / 2 + (1 - spec.m0) / 2)
            total = (d0[0] * d0[0] + d0[1] * d0[1]).sqrt() + (d1[0] * d1[0] + d1[1] * d1[1]).sqrt()
            d0, d1 = [(re * trace / total, im * trace / total) for re, im in (d0, d1)]

        def power(x, e):  # x**e by repeated squaring
            out = (D(1), D(0))
            while e:
                if e & 1:
                    out = mul(out, x)
                x, e = mul(x, x), e >> 1
            return out

        if d1 == zero:  # only the all-up coefficient can be nonzero
            bulk = [zero] * n + [power(d0, n)]
        else:
            norm = d1[0] * d1[0] + d1[1] * d1[1]
            ratio = mul(d0, (d1[0] / norm, -d1[1] / norm))
            term = power(d1, n)
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
    return cells


def decimal_log_residuals(spec, amplitudes, digits: int = 50) -> tuple[float, float]:
    """log of the worst-case reconstruction residuals (expectation, conditional) of
    a fully traversed chain without overrides at the amplitudes ``c``, in
    ``digits``-digit decimals.

    Each is the trace norm, ``|l+| + |l-|`` from the eigenvalues ``l = (a + d) / 2
    +- sqrt(((a - d) / 2)^2 + |b|^2)`` of a Hermitian ``[[a, b], [conj(b), d]]``.
    The conditional one, for the cell alpha assigned to microstate p (q the
    other), is the largest over the cells of ``[c_r conj(c_s) F[r, s, alpha]] /
    w_alpha - E_pp``, whose entry at p is written ``-|c_q|^2 F[q, q, alpha] /
    w_alpha``: ``w_alpha`` is the sum of both diagonal entries, and the
    difference would cancel far past any fixed precision.  The cells are the
    decimal sums of ``decimal_sector_cells``.  The expectation one is that of
    ``[c_r conj(c_s) T[r, s]] - diag(|c|^2)`` on the trace product ``T[r, s] =
    prod_k Tr(A_r^dag rho_k A_s)``, each site trace summed in decimals from its
    double entries, except that a diagonal sector's is the double ``Tr rho_k``,
    as in ``decimal_sector_cells``.  ``-inf`` for a residual that is exactly 0.
    """
    D = decimal.Decimal
    ctx = decimal.Context(prec=digits, Emin=-10 ** 9, Emax=10 ** 9)
    rho = np.diag([(1 + spec.m0) / 2, (1 - spec.m0) / 2])
    with decimal.localcontext(ctx):
        def norm(z):
            return (z[0] * z[0] + z[1] * z[1]).sqrt()

        def trace_norm(a, b, d):
            mean, radius = (a + d) / 2, (((a - d) / 2) ** 2 + b * b).sqrt()
            return abs(mean + radius) + abs(mean - radius)

        def log(x):
            return float(x.ln()) if x else -math.inf

        F = {(r, s): [norm(z) for z in _decimal_cells(spec, r, s, digits)]
             for r in range(2) for s in range(2)}
        c2 = [D(abs(complex(a))) ** 2 for a in amplitudes]
        phi = (1, 0) if F[1, 1][0] + F[0, 0][1] > F[0, 0][0] + F[1, 1][1] else (0, 1)
        conditional = []
        for alpha, p in enumerate(phi):
            q = 1 - p
            w = c2[0] * F[0, 0][alpha] + c2[1] * F[1, 1][alpha]
            if w > D("1e-12"):
                x = c2[q] * F[q, q][alpha] / w
                b = (c2[0] * c2[1]).sqrt() * F[p, q][alpha] / w
                conditional.append(trace_norm(-x, b, x))
        x = _site_factor(spec, 0, 1)(rho)
        cross = norm((D(x[0, 0].real) + D(x[1, 1].real), D(x[0, 0].imag) + D(x[1, 1].imag))) ** spec.N
        a = [c2[r] * (D(float(np.trace(rho).real)) ** spec.N - 1) for r in range(2)]
        expectation = trace_norm(a[0], (c2[0] * c2[1]).sqrt() * cross, a[1])
        return log(expectation), log(max(conditional, default=D(0)))


def kl_bernoulli(q: float, p: float) -> float:
    """Relative entropy, written independently of the package helper."""
    out = 0.0
    if q > 0:
        out += q * math.log(q) - q * math.log(p)
    if q < 1:
        out += (1 - q) * math.log(1 - q) - (1 - q) * math.log(1 - p)
    return out


def bernoulli_relative_entropy_loop(q: float, p: float) -> float:
    """``D(q || p)`` one pair at a time in the package's arithmetic, ``q log(q / p)
    + (1 - q) log((1 - q) / (1 - p))`` with each term only where its weight is
    nonzero, and ``inf`` where p is 0 or 1 and q is not p."""
    if p in (0.0, 1.0) and q != p:
        return math.inf
    total = 0.0
    if q > 0.0:
        total += q * np.log(q / p)
    if q < 1.0:
        total += (1.0 - q) * np.log((1.0 - q) / (1.0 - p))
    return float(total)


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


def _real_logsumexp(lm) -> float:
    # logsumexp of the finite terms alone, in order, by one np.sum
    lm = np.asarray(lm, dtype=float).ravel()
    finite = lm > -np.inf
    if not finite.any():
        return -np.inf
    m = lm[finite].max()
    return float(m + np.log(np.sum(np.exp(lm[finite] - m))))


def scalar_rate_samples(a, b, grid, Ns):
    """The rate-function samples of ``estimate_rate``, one window at a time.

    ``a`` and ``b`` are a diagonal sector's factors at full traversal; at
    size N its bulk ``b`` has ``n = N - k`` sites, for its k override sites
    (``a`` holds real terms: only its log magnitudes are read).  Each window's
    up-counts are found in scalar arithmetic, and its probability ``sum_i
    a_i sum_{j in window} b_{j-i}`` is summed from one Loader pmf call
    (``binomial_log_pmf`` at one count) per term, a log-sum-exp over the j of
    each i, then one over the i, and takes the bulk's scale ``n * b.log_scale``.
    The kernel's value at a count does not depend on the other counts of its
    call, so each term has the bits ``estimate_rate`` reads.  Returns the
    samples, the dropped flags and the warning texts, in the order
    ``estimate_rate`` emits them.
    """
    from pointer_cell_sim.logspace import binomial_log_pmf

    Ns = sorted(Ns)
    a = a[0]
    samples = np.full((len(Ns), len(grid)), np.nan)
    dropped = np.zeros((len(Ns), len(grid)), dtype=bool)
    messages = []
    for row, N in enumerate(Ns):
        n = N - (a.size - 1)
        for col, m in enumerate(grid):
            j_lo = math.ceil((m - 1.0 / N + 1.0) * N / 2.0 - 1e-9)
            j_hi = math.floor((m + 1.0 / N + 1.0) * N / 2.0 + 1e-9)
            counts = range(max(0, j_lo), min(N, j_hi) + 1)
            tails = [_real_logsumexp([binomial_log_pmf(n, b.p, b.q, [j - i])[0]
                                      for j in counts if 0 <= j - i <= n])
                     for i in range(a.size)]
            logp = _real_logsumexp(a + np.array(tails)) + n * b.log_scale
            if logp == -np.inf:
                dropped[row, col] = True
                messages.append(f"window at m={float(m)} has zero probability for N={N}; point dropped")
            else:
                samples[row, col] = logp / N
    return samples, dropped, messages


def sector_up_probabilities(spec, r: int) -> dict:
    """Up-probability of each site state of a chain's evolved diagonal sector r,
    ``(A_r^dag rho A_r)[0, 0]``: key None the bulk, then each override site.

    ``A_1`` is the full traversal rotation (the exact flip at pi, as the
    package defines it), written out here rather than taken from the package.
    """
    half = spec.theta / 2
    rot = np.array([[math.cos(half), 1j * math.sin(half)],
                    [1j * math.sin(half), math.cos(half)]])
    if spec.theta == math.pi:
        rot = np.array([[0, 1j], [1j, 0]])
    a = rot if r == 1 else np.eye(2)
    states = {None: np.diag([(1 + spec.m0) / 2, (1 - spec.m0) / 2]), **spec.site_overrides}
    return {k: float((a.conj().T @ rho @ a)[0, 0].real) for k, rho in states.items()}


def site_probs(N: int, probs: dict) -> np.ndarray:
    """The up-probability of every one of N sites, from a map whose key None
    is the bulk and whose other keys are override sites."""
    out = np.full(N, probs[None])
    sites = [k for k in probs if k is not None]
    out[sites] = [probs[k] for k in sites]
    return out


def judge_tensor(values: np.ndarray, log_magnitude: np.ndarray, amplitudes) -> dict:
    """One tensor's sweep verdict as the package once judged it, one size at a time:
    its pointer map (``phi``, ``confidence``, ``uninformative``), pointer errors and
    their logs, cell weights and largest off-diagonal magnitude.  Raises what that
    judging raised, in its order: no unique pointer map, then the weight checks.
    ``verify.judge_stack`` must give each size of a stack the same bits."""
    import itertools

    from pointer_cell_sim.errors import AmbiguousPointerError, NumericalError
    from pointer_cell_sim.logspace import lc_real_logsumexp_rows

    n = values.shape[0]
    diag = np.einsum("rra->ra", values).real
    W = diag.T  # W[alpha, r]
    perms = np.array(list(itertools.permutations(range(n))))
    totals = W[np.arange(n), perms].sum(axis=1)
    best = int(np.argmax(totals))
    second = float(np.delete(totals, best).max()) if n > 1 else -np.inf
    if float(totals[best]) - second <= 1e-9:
        raise AmbiguousPointerError(
            "no unique pointer correspondence: competing assignment within 1e-09 of the optimum")
    phi = tuple(int(r) for r in perms[best])
    inv = [0] * n
    for alpha, r in enumerate(phi):
        inv[r] = alpha
    eps = np.empty(n)
    for r in range(n):
        others = [a for a in range(n) if a != inv[r]]
        eps[r] = max(0.0, float(diag[r, others].sum()))
    r = np.arange(n)
    terms = log_magnitude[r, r]
    terms[r, inv] = -np.inf
    vec = np.asarray(amplitudes, dtype=complex)
    w = np.einsum("r,ra->a", np.abs(vec) ** 2, np.einsum("rra->ra", values))
    if not np.abs(w.imag).max() <= 1e-10:
        raise NumericalError("pointer weights have a non-real component")
    w = w.real
    if not w.min() >= -1e-12:
        raise NumericalError(f"pointer weight {w.min():.3e} below the negativity floor")
    w = np.clip(w, 0.0, None)
    if not abs(w.sum() - 1.0) <= 1e-10:
        raise NumericalError(f"pointer weights sum to {float(w.sum())!r}")
    off = values.copy()
    for s in range(n):
        off[s, s, :] = 0.0
    return {"phi": phi,
            "confidence": tuple(float(W[alpha, phi[alpha]]) for alpha in range(n)),
            "uninformative": tuple(s for s in range(n) if W[:, s].max() < 0.5),
            "errors": eps, "log_errors": lc_real_logsumexp_rows(terms), "weights": w,
            "offdiag_max": float(np.abs(off).max())}
