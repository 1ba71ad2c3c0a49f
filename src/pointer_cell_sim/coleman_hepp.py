"""Finite spin-chain measurement model with dense and factorized backends.

An electron spin is read out by a chain of N two-level sites: the spin-down
sector rotates every site it has passed by a fixed angle (a full reversal at
the default angle pi), the spin-up sector leaves the chain untouched, and the
pointer cells are the positive and negative halves of the mean-magnetisation
spectrum.  ``build_dense`` materialises the full ``2**N``-dimensional
apparatus for the generic dense machinery; ``factorized_f_tensor`` exploits
the product structure to evaluate the same tensor exactly for chains far
beyond dense reach, carrying magnitudes in log space.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .coarse_ldp import CellPartitionSpec, IntensiveObservable, coarse_grain
from .core import (
    Apparatus,
    FTensor,
    MicroSystem,
    PhaseCellPartition,
    _check_hermitian,
)
from .errors import CapacityError, StructuralError
from .logspace import binomial_log_pmf, lc_convolve, lc_real_logsumexp, lc_sum

#: largest chain the dense backend will materialise (2**N * 2 state dimension)
DENSE_SITE_CAP = 12

MICRO_LABELS = ("+", "-")  # index 0: spin-up sector, index 1: spin-down

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def site_rotation(theta: float) -> np.ndarray:
    """Single-site rotation ``exp(i theta sigma_x / 2)`` applied by passage.

    At exactly pi the rotation is the exact flip ``1j * sigma_x``: its zero
    diagonal kills every cross-sector accumulator path structurally, which
    the generic cosine would miss by one rounding ulp.
    """
    if theta == math.pi:
        return 1j * _SIGMA_X.copy()
    return math.cos(theta / 2.0) * _EYE2 + 1j * math.sin(theta / 2.0) * _SIGMA_X


def polarized_site(m0: float) -> np.ndarray:
    """Single-site state ``(I + m0 sigma_z) / 2`` of a chain polarised to m0."""
    return (_EYE2 + m0 * _SIGMA_Z) / 2.0


def _check_site_state(rho, site) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise StructuralError(f"override for site {site} must be a 2x2 matrix")
    _check_hermitian(rho, f"site {site} override")
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        raise StructuralError(f"site {site} override must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-12:
        raise StructuralError(f"site {site} override is not positive semidefinite")
    return rho


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of one chain experiment.

    ``t`` is the effective traversal time: the tensor is evaluated after the
    full passage, with the sector energies contributing phases ``exp(i e t)``.
    ``site_overrides`` replaces the initial state of selected sites, which is
    how localized perturbations are expressed.
    """

    N: int
    m0: float
    theta: float = math.pi
    energies: tuple[float, float] = (0.0, 0.0)
    t: float = 1.0
    site_overrides: Mapping[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.N < 1:
            raise StructuralError("chain must have at least one site")
        if not (0.0 < self.m0 <= 1.0):
            raise StructuralError(f"initial polarisation must lie in (0, 1], got {self.m0!r}")
        if not (0.0 < self.theta < 2.0 * math.pi):
            raise StructuralError(f"rotation angle must lie in (0, 2*pi), got {self.theta!r}")
        if len(self.energies) != 2:
            raise StructuralError("two sector energies required")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise StructuralError(f"traversal time must be positive and finite, got {self.t!r}")
        overrides = {}
        if self.site_overrides:
            for site, rho in self.site_overrides.items():
                site = int(site)
                if not (0 <= site < self.N):
                    raise StructuralError(f"override site {site} outside the chain")
                overrides[site] = _check_site_state(rho, site)
        object.__setattr__(self, "site_overrides", overrides)
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))

    def site_states(self) -> list[np.ndarray]:
        base = polarized_site(self.m0)
        return [self.site_overrides.get(k, base) for k in range(self.N)]

    def with_overrides(self, overrides: Mapping[int, np.ndarray]) -> "ChainSpec":
        merged = dict(self.site_overrides)
        merged.update(overrides)
        return ChainSpec(N=self.N, m0=self.m0, theta=self.theta,
                         energies=self.energies, t=self.t, site_overrides=merged)


def chain_cells(N: int) -> tuple[CellPartitionSpec, PhaseCellPartition | None]:
    """Two-cell magnetisation-sign partition; the boundary state joins "+".

    It never warns: the spectrum gap 2/N is half the gap cap, and the
    endpoints -1 and +1 always land in different cells.
    """
    return coarse_grain(IntensiveObservable.magnetization_chain(N), 2)


def build_dense(spec: ChainSpec) -> tuple[MicroSystem, Apparatus]:
    """Materialise the chain as a generic dense microsystem/apparatus pair.

    The spin-down coupling is the commuting sum of single-site rotation
    generators scaled so that evolving to time ``spec.t`` performs exactly
    one rotation by ``spec.theta`` per site.
    """
    if spec.N > DENSE_SITE_CAP:
        raise CapacityError(
            f"dense chain capped at {DENSE_SITE_CAP} sites (got {spec.N}); "
            "use the factorized backend")
    micro = MicroSystem(energies=spec.energies, labels=MICRO_LABELS)
    dim = 2 ** spec.N
    K = np.zeros((dim, dim), dtype=complex)
    v_plus = np.zeros((dim, dim), dtype=complex)
    v_minus = np.zeros((dim, dim), dtype=complex)
    coeff = spec.theta / (2.0 * spec.t)
    # sigma_x on site k flips bit N-1-k of the basis index (site 0 is the
    # most significant factor of the Kronecker order)
    index = np.arange(dim)
    for bit in range(spec.N):
        v_minus[index, index ^ (1 << bit)] = coeff
    omega = reduce(np.kron, spec.site_states())
    _, partition = chain_cells(spec.N)
    apparatus = Apparatus(K=K, V=(v_plus, v_minus), Omega=omega, cells=partition)
    return micro, apparatus


@dataclass(frozen=True)
class ChainFTensor(FTensor):
    """Chain tensor with per-entry log magnitudes and underflow flags.

    ``values`` underflow to exact zero below the double-precision floor;
    ``log_magnitude`` keeps the information (``-inf`` marks a structural
    zero) and ``underflow`` marks entries that are nonzero only in log space.
    """

    log_magnitude: np.ndarray = None
    underflow: np.ndarray = None

    def __post_init__(self):
        super().__post_init__()
        lm = np.asarray(self.log_magnitude, dtype=float)
        uf = np.asarray(self.underflow, dtype=bool)
        if lm.shape != self.values.shape or uf.shape != self.values.shape:
            raise StructuralError("diagnostic arrays must match the tensor shape")
        lm.setflags(write=False)
        uf.setflags(write=False)
        object.__setattr__(self, "log_magnitude", lm)
        object.__setattr__(self, "underflow", uf)


@dataclass(frozen=True)
class FactorizedSectorOverlap:
    """Product-structure evaluation of one sector pair against the cells.

    The sector operator's coefficient on the up-count-j subspace is the
    j-th coefficient of the product polynomial ``a * b``, times
    ``exp(1j * global_phase)``.  ``b = (lm, phase)`` is the longest bulk
    block: binomial log magnitudes that share the one phase ``phase``.
    ``a = (lm, ph)`` is everything else, the shorter bulk block of a partial
    traversal and the override sites, as one log-coded polynomial: ``[1]``
    for a plain chain, k + 1 terms for k overrides at full traversal.  The
    product itself is never formed: the cells are collapsed directly from
    the two factors, so the work is linear in the chain length.
    """

    a: tuple[np.ndarray, np.ndarray]
    b: tuple[np.ndarray, float]
    global_phase: float

    def dp_total(self) -> tuple[float, float]:
        """Sum over every up-count: the product of the per-site traces."""
        lm_a, ph_a = lc_sum(*self.a)
        return lm_a + lc_real_logsumexp(self.b[0]), ph_a + self.b[1]

    def cell_log_values(self, cells: CellPartitionSpec) -> tuple[np.ndarray, np.ndarray]:
        """Log-coded cell sums ``(log magnitudes, phases)`` over a two-cell partition.

        The partition must split the up-counts into a prefix and a suffix,
        as ``chain_cells`` does.  With ``h = cells.bounds[1]`` the "-" cell
        is ``j < h`` and the "+" cell ``j >= h``, so
        ``sum_{j in cell} (a * b)_j = sum_i a_i * tail_b(cell - i)``.  As
        ``b`` has one phase, its tails from the low and the high end are
        exact log-space running sums of its magnitudes.  Nothing is
        subtracted, and each cell is one ``lc_sum``; when ``a`` has a single
        term the cells are slice sums of ``b`` times ``a_0``.
        """
        (a_lm, a_ph), (b_lm, b_ph) = self.a, self.b
        na, nb = a_lm.size, b_lm.size
        if cells.n_cells != 2 or cells.bounds[-1] != na + nb - 1:
            raise StructuralError(
                "the factorized chain collapses only onto a two-cell prefix/suffix "
                f"partition of its {na + nb - 1} up-counts (got bounds {cells.bounds})")
        h = int(cells.bounds[1])
        if na == 1:
            # a one-term a scales every coefficient alike: slice sums of b.
            # The general formula gives the same values, but its running sums
            # and gathers make the full-traversal collapse about 50 % slower
            # (four sectors at N = 102400, theta = pi, on a 2-vCPU Intel Xeon:
            # 12.5 ms here, 19.5 ms general).
            sums = [lc_sum(b_lm[:h], np.full(h, b_ph)), lc_sum(b_lm[h:], np.full(nb - h, b_ph))]
            sums = [(lm + a_lm[0], ph + a_ph[0]) for lm, ph in sums]
        else:
            hi = min(h, na)  # "-" cell: i < hi, tail b_0 + ... + b_{h-1-i}
            lo = max(h - nb + 1, 0)  # "+" cell: i >= lo, tail b_{h-i} + ... + b_{nb-1}
            prefix = np.logaddexp.accumulate(b_lm)
            suffix = np.logaddexp.accumulate(b_lm[::-1])[::-1]
            i_minus = np.minimum(h - 1 - np.arange(hi), nb - 1)
            i_plus = np.maximum(h - np.arange(lo, na), 0)
            sums = [lc_sum(a_lm[:hi] + prefix[i_minus], a_ph[:hi] + b_ph),
                    lc_sum(a_lm[lo:] + suffix[i_plus], a_ph[lo:] + b_ph)]
        log_mags = np.array([lm for lm, _ in sums])
        phases = np.array([ph + self.global_phase for _, ph in sums])
        return log_mags, phases

    def cell_values(self, cells: CellPartitionSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cell sums as complex values, log magnitudes and underflow flags."""
        log_mags, phases = self.cell_log_values(cells)
        values = np.zeros(2, dtype=complex)
        flags = np.zeros(2, dtype=bool)
        for cell, (lm, ph) in enumerate(zip(log_mags, phases)):
            if lm == -np.inf:
                continue
            values[cell] = np.exp(lm) * complex(math.cos(ph), math.sin(ph))
            flags[cell] = values[cell] == 0.0
        return values, log_mags, flags


def _block_log_magnitudes(size: int, d0: complex, d1: complex, scale: float | None = None) -> np.ndarray:
    # log |coefficients| of (d1 + d0 z)**size over the up-count power j:
    # scale**size * Bin(j; size, |d0| / (|d0| + |d1|)), scale |d0| + |d1| by default
    mag0, mag1 = abs(d0), abs(d1)
    total = mag0 + mag1
    if total == 0.0:
        return np.full(size + 1, -np.inf)
    return size * math.log(scale or total) + binomial_log_pmf(size, mag0 / total, mag1 / total)


def _group_polynomial(size: int, d0: complex, d1: complex) -> tuple[np.ndarray, np.ndarray]:
    # log-coded (d1 + d0 z)**size, with phases j arg d0 + (size - j) arg d1
    j = np.arange(size + 1, dtype=float)
    return _block_log_magnitudes(size, d0, d1), j * cmath.phase(d0) + (size - j) * cmath.phase(d1)


def _bulk_block(size: int, d0: complex, d1: complex, scale: float | None) -> tuple[np.ndarray, float]:
    """Log magnitudes of ``(d1 + d0 z)**size`` and the one phase they share.

    The coefficient phases ``j arg d0 + (size - j) arg d1`` are one phase,
    as ``arg d0 = arg d1`` mod 2 pi: the base site state is diagonal, so the
    diagonal of ``A_r^dag rho A_s`` is real and nonnegative in a diagonal
    sector and ``cos(theta / 2)`` times ``rho``'s diagonal in a cross sector.
    A diagonal sector passes ``scale``, the site trace, which the rotation
    leaves unchanged.
    """
    arg0, arg1 = cmath.phase(d0), cmath.phase(d1)
    if d0 and d1 and math.remainder(arg0 - arg1, 2.0 * math.pi) != 0.0:
        raise StructuralError(f"bulk site diagonal ({d0!r}, {d1!r}) does not share one phase")
    return _block_log_magnitudes(size, d0, d1, scale), size * (arg1 if d1 else arg0)


def sector_overlap(spec: ChainSpec, r: int, s: int, rotated_count: int | None = None) -> FactorizedSectorOverlap:
    """Build the factorized accumulator for sector pair (r, s).

    Sites with index below ``rotated_count`` have been passed by the
    traversing particle and carry the conditional rotation in the spin-down
    sector; the remainder are untouched.  Identical sites collapse into
    binomial bulk blocks, at most two; the longest is ``b``, and the
    override sites, in site order, and the other block are convolved into
    ``a`` in log space.
    """
    if rotated_count is None:
        rotated_count = spec.N
    if not (0 <= rotated_count <= spec.N):
        raise StructuralError("rotated site count outside the chain")
    R = site_rotation(spec.theta)
    base = polarized_site(spec.m0)

    def site_diagonal(rho: np.ndarray, rotated: bool) -> tuple[complex, complex]:
        a = R if (r == 1 and rotated) else _EYE2
        b = R if (s == 1 and rotated) else _EYE2
        x = a.conj().T @ rho @ b
        return complex(x[0, 0]), complex(x[1, 1])

    override_sites = sorted(spec.site_overrides)
    n_rot = rotated_count - sum(1 for k in override_sites if k < rotated_count)
    n_plain = (spec.N - rotated_count) - sum(1 for k in override_sites if k >= rotated_count)
    rot_key, plain_key = site_diagonal(base, True), site_diagonal(base, False)
    if rot_key == plain_key:
        # sectors the traversal does not touch: one closed form for the bulk
        groups = [(n_rot + n_plain, *rot_key)]
    else:
        groups = [(n_rot, *rot_key), (n_plain, *plain_key)]
    scale = float(np.trace(base).real) if r == s else None
    blocks = sorted((_bulk_block(*group, scale) for group in groups if group[0]),
                    key=lambda block: block[0].size)
    b = blocks.pop() if blocks else (np.zeros(1), 0.0)
    polys = [_group_polynomial(1, *site_diagonal(spec.site_overrides[k], k < rotated_count))
             for k in override_sites]
    polys += [(lm, np.full(lm.size, phase)) for lm, phase in blocks]
    a = reduce(lc_convolve, polys) if polys else (np.zeros(1), np.zeros(1))
    delta_e = (spec.energies[s] - spec.energies[r]) * spec.t
    return FactorizedSectorOverlap(a=a, b=b, global_phase=float(delta_e))


def _assemble_tensor(spec: ChainSpec, rotated_count: int) -> ChainFTensor:
    cells, _ = chain_cells(spec.N)
    values = np.zeros((2, 2, 2), dtype=complex)
    log_mags = np.full((2, 2, 2), -np.inf)
    flags = np.zeros((2, 2, 2), dtype=bool)
    for r in range(2):
        for s in range(2):
            ov = sector_overlap(spec, r, s, rotated_count)
            values[r, s], log_mags[r, s], flags[r, s] = ov.cell_values(cells)
    return ChainFTensor(values=values, t=spec.t, log_magnitude=log_mags, underflow=flags)


def factorized_f_tensor(spec: ChainSpec) -> ChainFTensor:
    """Pointer-statistics tensor after the full traversal, any chain size."""
    return _assemble_tensor(spec, spec.N)


def traversal_schedule(spec: ChainSpec, fraction: float) -> ChainFTensor:
    """Tensor after the particle has passed the first ``floor(fraction * N)`` sites."""
    if not (0.0 <= fraction <= 1.0):
        raise StructuralError(f"traversal fraction must lie in [0, 1], got {fraction!r}")
    return _assemble_tensor(spec, int(math.floor(fraction * spec.N + 1e-12)))


def diagonal_sector_product(spec: ChainSpec, r: int) -> np.ndarray:
    """Per-site up-probabilities of the evolved diagonal sector r."""
    R = site_rotation(spec.theta) if r == 1 else _EYE2

    def up(rho: np.ndarray) -> float:
        return float((R.conj().T @ rho @ R)[0, 0].real)

    probs = np.full(spec.N, up(polarized_site(spec.m0)))
    for k, rho in spec.site_overrides.items():
        probs[k] = up(rho)
    return probs
