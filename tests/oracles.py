"""Independent verification machinery for the test suite.

Everything here deliberately avoids the package's computational paths: the
composite evolution materialises the full tensor-product space and uses
scipy's scaled-squaring exponential, and the probability oracles run on exact
rational arithmetic.
"""

from __future__ import annotations

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


def poisson_binomial_fraction(ps: list[Fraction]) -> list[Fraction]:
    """Exact up-count distribution of independent heterogeneous sites."""
    dist = [Fraction(1)]
    for p in ps:
        q = 1 - p
        new = [Fraction(0)] * (len(dist) + 1)
        for j, w in enumerate(dist):
            new[j] += w * q
            new[j + 1] += w * p
        dist = new
    return dist


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
