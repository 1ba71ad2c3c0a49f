"""Rate functions of the chain's evolved diagonal sectors, judged on its sign cells.

The mean magnetisation of N two-level sites takes the values ``(2j - N) / N``
for up counts ``j = 0 .. N``; the pointer cells are its two signs,
``coleman_hepp``'s "-" (``m < 0``) and "+" (the rest of ``[-1, 1]``).  An
evolved diagonal sector of the chain is a product of Bernoulli sites,
described by its ``FactorizedSectorOverlap``; the probability that its
magnetisation lands in a window obeys a large-deviation principle whose rate
function is, for a homogeneous chain, the negative relative entropy
``-D(q || p)``.  The concentration gap of that rate function across the cell
boundary 0 is what drives the exponential pointer fidelity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .coleman_hepp import CELL_MINUS, FactorizedSectorOverlap
from .errors import PreconditionError
from .logspace import bernoulli_relative_entropy, binomial_log_pmf, lc_real_logsumexp_rows


def bernoulli_rate(m, p: float):
    """Rate function ``sigma(m) = -D((1 + m)/2 || p)`` of the mean magnetisation."""
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.array([-bernoulli_relative_entropy((1.0 + x) / 2.0, p) for x in m_arr])
    return out if np.ndim(m) else float(out[0])


@dataclass(frozen=True)
class RateFunctionEstimate:
    """Sampled rate-function values of one evolved diagonal sector.

    ``samples[i, k]`` is ``log P(m in window(grid[k])) / N_values[i]``; the
    window half-width is half the local spectrum gap, which makes the sampled
    quantity a density exponent rather than a point mass.  ``p`` and
    ``analytic`` are filled for a sector with no override term, a homogeneous
    Bernoulli chain, the only kind whose maximiser and gap are judged.
    """

    grid: tuple[float, ...]
    N_values: tuple[int, ...]
    samples: np.ndarray
    dropped: np.ndarray
    analytic: np.ndarray | None
    p: float | None

    def rate_at(self, m: float) -> float:
        return float(bernoulli_rate(m, self.p))


def estimate_rate(
    overlap: FactorizedSectorOverlap,
    grid: Sequence[float],
    N_values: Sequence[int],
) -> RateFunctionEstimate:
    """Estimate the rate function of one evolved diagonal sector on a value grid.

    ``overlap`` is the sector at full traversal, from ``sector_overlap(spec,
    r, r)`` at any chain size: ``a`` holds the real up-count terms of its k
    override sites (``k = a.size - 1``), and at size N the bulk is ``b`` with
    ``N - k`` sites.  ``p`` and the analytic curve are set only when the
    sector has no override term.  Requires at least three chain sizes
    spanning a factor of four.  Grid points whose window probability is
    exactly zero are dropped and flagged.  A window holds ``sum_i a_i sum_{j
    in window} b_{j-i}``: one Loader kernel call takes every ``j - i`` of
    every size, and two log-sum-exps, over the j and then the i, serve every
    size at once.
    """
    Ns = sorted(int(N) for N in N_values)
    if len(set(Ns)) < 3:
        raise PreconditionError("need at least three distinct chain sizes")
    if Ns[-1] < 4 * Ns[0]:
        raise PreconditionError("chain sizes must span at least a factor of four")
    (a, _), b = overlap.a, overlap.b
    if overlap.bulk is not None or b.size == 0:
        raise PreconditionError("a rate function reads a sector at full traversal with a bulk site")
    grid = [float(m) for m in grid]
    bulk = np.array(Ns) - (a.size - 1)
    # spectrum point j sits at (2j - N) / N and the window is [m - 1/N, m + 1/N]:
    # two counts, a third from rounding near N = 10**9; three columns at any N
    n = np.array(Ns, dtype=float)[:, None]
    j_lo = np.maximum(np.ceil((np.array(grid) - 1.0 / n + 1.0) * n / 2.0 - 1e-9), 0.0)
    j_hi = np.minimum(np.floor((np.array(grid) + 1.0 / n + 1.0) * n / 2.0 + 1e-9), n)
    j = j_lo[..., None] + np.arange(max(int((j_hi - j_lo).max(initial=0)) + 1, 3))
    k = j[:, :, None, :] - np.arange(a.size)[:, None]  # size, grid point, term i of a, count j
    sizes = np.broadcast_to(bulk[:, None, None, None], k.shape)
    used = (j <= j_hi[..., None])[:, :, None, :] & (k >= 0) & (k <= sizes)
    pmf = np.full(k.shape, -np.inf)
    pmf[used] = binomial_log_pmf(sizes[used], b.p, b.q, k[used])
    logp = lc_real_logsumexp_rows(a + lc_real_logsumexp_rows(pmf)) + (bulk * b.log_scale)[:, None]
    dropped = logp == -np.inf
    for s, g in zip(*np.nonzero(dropped)):
        warnings.warn(f"window at m={grid[g]} has zero probability for N={Ns[s]}; point dropped",
                      stacklevel=2)
    p = b.p if a.size == 1 else None
    return RateFunctionEstimate(
        grid=tuple(grid),
        N_values=tuple(Ns),
        samples=np.where(dropped, np.nan, logp / n),
        dropped=dropped,
        analytic=np.asarray(bernoulli_rate(grid, p)) if p is not None else None,
        p=p,
    )


def perturbation_residual_bound(N: int, base: Mapping[int | None, float],
                                perturbed: Mapping[int | None, float]) -> float:
    """Upper bound on |log P(E) - log P'(E)| over all up-count events of two
    product states of N sites.

    Each state maps to up-probabilities: key None the bulk sites, any other
    key an override site.  Sums, over the differing sites, the worst
    log-odds change; dividing by N bounds the rate-curve shift a localized
    perturbation can cause.  The sites overridden in neither state share one
    term, counted once each.
    """
    sites = sorted((set(base) | set(perturbed)) - {None})
    pairs = [(base.get(k, base[None]), perturbed.get(k, perturbed[None]), 1) for k in sites]
    pairs.append((base[None], perturbed[None], N - len(sites)))
    total = 0.0
    for p0, p1, count in pairs:
        if p0 == p1 or count == 0:
            continue
        shifts = [abs(math.log(a / b)) if a and b else np.inf
                  for a, b in ((p1, p0), (1.0 - p1, 1.0 - p0)) if a != b]
        total += count * max(shifts)
    return total


#: rates and magnetisations this close are equal: above the rounding of two
#: arithmetic paths to one value, far below any rate a perturbation moves
_TOL = 1e-12


@dataclass(frozen=True)
class LdpConditionReport:
    """Outcome of the four structural conditions on the rate functions.

    The stability residual and bound are those of the microstate with the
    smallest margin; condition (d) holds where no residual exceeds its bound
    by more than rounding.
    """

    maximizers: tuple[float, ...]
    interior: bool
    gap: float
    stability_residual: float | None = None
    stability_bound: float | None = None

    @property
    def unique_max(self) -> bool:
        """Each rate function is a Bernoulli one, strictly concave: one maximiser."""
        return True

    @property
    def distinct_cells(self) -> bool:
        """The pointer map is a permutation: each microstate has a cell of its own."""
        return True

    @property
    def gap_positive(self) -> bool:
        return self.gap > 0.0

    @property
    def stability_ok(self) -> bool | None:
        if self.stability_residual is None:
            return None
        return self.stability_residual <= self.stability_bound + _TOL

    @property
    def passed(self) -> bool:
        core = self.interior and self.gap_positive
        if self.stability_ok is None:
            return core
        return core and self.stability_ok


def check_ldp_conditions(
    estimates: Sequence[RateFunctionEstimate],
    pointer,
    perturbed: Sequence[RateFunctionEstimate] | None = None,
    stability_bound: float | Sequence[float] | None = None,
) -> LdpConditionReport:
    """Check the unique-maximiser, interiority, gap and stability conditions on the sign cells.

    ``estimates`` holds one rate estimate per microstate index r; ``pointer``
    is the cell-to-microstate permutation (anything exposing ``phi``).  Each
    estimate must carry its Bernoulli ``p``: its maximiser is ``2 p - 1`` and
    its rate is read in closed form.  A maximiser is interior when it lies in
    its cell farther than ``_TOL`` from -1, 0 and 1; the gap is taken against
    the other cell's grid points and the boundary 0.  When ``perturbed``
    estimates are supplied, each one's maximum deviation from its unperturbed
    curve is compared against its own ``stability_bound`` (one for all, or one
    per microstate; for product states, :func:`perturbation_residual_bound`
    divided by N).  The report holds the residual and bound of the microstate
    with the smallest margin.
    """
    phi = tuple(getattr(pointer, "phi", pointer))
    n = len(estimates)
    if n != 2 or sorted(phi) != [0, 1]:
        raise PreconditionError("need one rate estimate per sign cell and a pointer map permuting the two")
    inverse = {r: a for a, r in enumerate(phi)}

    maximizers, interior, gap = [], True, np.inf
    for r, est in enumerate(estimates):
        if est.p is None:
            raise PreconditionError(f"rate estimate {r} has no Bernoulli p: a sector with override sites")
        m_r = 2.0 * est.p - 1.0
        maximizers.append(m_r)
        minus = inverse[r] == CELL_MINUS
        lo, hi = (-1.0, 0.0) if minus else (0.0, 1.0)
        interior = interior and min(m_r - lo, hi - m_r) > _TOL
        # closure of the other cell: its grid points, and the boundary 0
        outside = [m for m in est.grid if (0.0 <= m <= 1.0 if minus else -1.0 <= m < 0.0)] + [0.0]
        gap = min(gap, est.rate_at(m_r) - max(map(est.rate_at, outside)))

    residual = bound = None
    if perturbed is not None:
        if len(perturbed) != n:
            raise PreconditionError("need one perturbed estimate per microstate")
        if stability_bound is None:
            raise PreconditionError(
                "a stability bound is required to judge perturbed estimates")
        residuals = np.zeros(n)
        for r, (est, pest) in enumerate(zip(estimates, perturbed)):
            if est.N_values != pest.N_values or est.grid != pest.grid:
                raise PreconditionError("perturbed estimates must share the grid and sizes")
            both = np.isfinite(est.samples) & np.isfinite(pest.samples)
            if both.any():
                residuals[r] = np.abs(np.where(both, est.samples - pest.samples, 0.0)).max()
        bounds = np.broadcast_to(np.asarray(stability_bound, dtype=float), (n,))
        worst = int(np.argmin(bounds - residuals))
        residual, bound = float(residuals[worst]), float(bounds[worst])
    return LdpConditionReport(
        maximizers=tuple(maximizers),
        interior=interior,
        gap=float(gap),
        stability_residual=residual,
        stability_bound=bound,
    )
