"""Phase cells of the chain magnetisation, cell probabilities and rate functions.

The mean magnetisation of N two-level sites takes the values ``(2j - N) / N``
for up counts ``j = 0 .. N``.  Cutting ``[-1, 1]`` into equal-length cells,
left-closed right-open with the last cell closed, makes each cell a
contiguous run of up counts: the two sign cells are ``j < (N + 1) // 2``
("-") and the rest ("+").  The probability that the magnetisation lands in a
cell obeys a large-deviation principle whose rate function is, for product
Bernoulli states, the negative relative entropy ``-D(q || p)``.  The
concentration gap of that rate function across cell boundaries is what
drives the exponential pointer fidelity.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import PreconditionError, StructuralError
from .logspace import (
    BinomialBlock,
    _binomial_block,
    bernoulli_relative_entropy,
    binomial_log_pmf,
    binomial_log_tails,
    lc_convolve,
    lc_real_logsumexp_rows,
    lc_sum_rows,
)


@dataclass(frozen=True)
class CellPartitionSpec:
    """Equal-length interval partition of the spectrum range.

    Intervals are left-closed, right-open, with the last interval closed, so
    every spectrum point belongs to exactly one cell.  Because the spectrum
    is sorted, each cell is a contiguous run of spectrum indices: cell ``a``
    holds indices ``bounds[a]:bounds[a + 1]``, and ``bounds[-1]`` is the
    spectrum length.
    """

    edges: tuple[float, ...]
    bounds: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1

    def prefix_split(self, count: int) -> int:
        """The first index of the second cell, for a two-cell prefix/suffix
        partition of ``count`` points; any other partition is refused."""
        if self.n_cells != 2 or self.bounds[-1] != count:
            raise StructuralError(
                "product-state cells are summed only over a two-cell prefix/suffix "
                f"partition of the {count} up-counts (got bounds {self.bounds})")
        return int(self.bounds[1])

    def cell_of_value(self, m: float) -> int:
        if m < self.edges[0] or m > self.edges[-1]:
            raise PreconditionError(f"value {m!r} outside the spectrum range")
        idx = int(np.searchsorted(self.edges, m, side="right")) - 1
        return min(idx, self.n_cells - 1)


@dataclass(frozen=True)
class BernoulliProduct:
    """Product state of N two-level sites: up-probability ``p`` at every site
    but the ``overrides`` sites, which map to their own (one equal to ``p`` is dropped)."""

    N: int
    p: float
    overrides: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.N < 1 or not all(0 <= site < self.N for site in self.overrides):
            raise PreconditionError(f"need N >= 1 and override sites in [0, N), got N = {self.N} "
                                    f"and sites {sorted(self.overrides)}")
        p = float(self.p)
        overrides = {int(site): float(q) for site, q in self.overrides.items() if float(q) != p}
        if not all(0.0 <= q <= 1.0 for q in (p, *overrides.values())):
            raise StructuralError("up-probabilities must lie in [0, 1]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "overrides", overrides)

    @property
    def homogeneous_p(self) -> float | None:
        values = set(self.overrides.values()) | ({self.p} if len(self.overrides) < self.N else set())
        return values.pop() if len(values) == 1 else None


def _factor_layout(state: BernoulliProduct) -> tuple[np.ndarray, BinomialBlock]:
    """Log-pmf factors ``(a, b)`` of the up count: ``pmf_j = sum_i a_i b_{j-i}``.

    ``b`` is the binomial block of the base sites, held by its parameters;
    ``a`` is the up-count log-pmf of the override sites (``[0]`` for a
    homogeneous state, k + 1 terms for k overrides).  Both stay exact far
    below the floating-point floor.
    """
    return (_override_log_pmf(tuple(sorted(Counter(state.overrides.values()).items()))),
            _binomial_block(state.N - len(state.overrides), state.p, 1.0 - state.p))


@functools.lru_cache(maxsize=16)
def _override_log_pmf(counts: tuple[tuple[float, int], ...]) -> np.ndarray:
    # binomial blocks of equal probabilities, (q, count) in ascending q,
    # convolved in log space; read-only, shared by every N of a family
    a = (np.zeros(1), np.zeros(1))
    for q, c in counts:
        block = _binomial_block(c, q, 1.0 - q)
        a = lc_convolve(a, (block.log_magnitudes(), np.zeros(c + 1)))
    a[0].setflags(write=False)
    return a[0]


def cell_log_probability(state: BernoulliProduct, cells: CellPartitionSpec) -> np.ndarray:
    """Log-probability of each cell of a two-cell prefix/suffix partition.

    Each cell is a binomial tail of the base block per term of ``a``, from
    the incomplete-beta continued fraction, at a cost independent of N.
    """
    a, b = _factor_layout(state)
    tails, shift = binomial_log_tails(b.size, cells.prefix_split(state.N + 1), b.p, b.q, a.size)
    return lc_sum_rows(a + tails, 0.0)[0] + shift + b.log_total()


def bernoulli_rate(m, p: float):
    """Rate function ``sigma(m) = -D((1 + m)/2 || p)`` of the mean magnetisation."""
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    out = np.array([-bernoulli_relative_entropy((1.0 + x) / 2.0, p) for x in m_arr])
    return out if np.ndim(m) else float(out[0])


@dataclass(frozen=True)
class RateFunctionEstimate:
    """Sampled rate-function values for one sector state family.

    ``samples[i, k]`` is ``log P(m in window(grid[k])) / N_values[i]``; the
    window half-width is half the local spectrum gap, which makes the sampled
    quantity a density exponent rather than a point mass.  ``analytic`` is
    filled for homogeneous Bernoulli families.
    """

    grid: tuple[float, ...]
    N_values: tuple[int, ...]
    samples: np.ndarray
    dropped: np.ndarray
    analytic: np.ndarray | None
    p: float | None

    def rate_at(self, m: float) -> float:
        if self.p is not None:
            return float(bernoulli_rate(m, self.p))
        k = int(np.argmin(np.abs(np.asarray(self.grid) - m)))
        return float(self.samples[-1, k])


def estimate_rate(
    family: Callable[[int], BernoulliProduct],
    grid: Sequence[float],
    N_values: Sequence[int],
) -> RateFunctionEstimate:
    """Estimate the rate function of a product-state family on a value grid.

    Requires at least three chain sizes spanning a factor of four.  Grid
    points whose window probability is exactly zero are dropped and flagged.
    A window holds ``sum_i a_i sum_{j in window} b_{j-i}``: one Loader kernel
    call per family takes every ``j - i`` of every size, and two log-sum-exps,
    over the j and then the i, serve every size at once.
    """
    Ns = sorted(int(N) for N in N_values)
    if len(set(Ns)) < 3:
        raise PreconditionError("need at least three distinct chain sizes")
    if Ns[-1] < 4 * Ns[0]:
        raise PreconditionError("chain sizes must span at least a factor of four")
    grid = [float(m) for m in grid]
    states = [family(N) for N in Ns]
    if any(state.N != N for state, N in zip(states, Ns)):
        raise StructuralError("family returned a state of the wrong size")
    layouts = [_factor_layout(state) for state in states]
    # spectrum point j sits at (2j - N) / N and the window is [m - 1/N, m + 1/N]:
    # two counts, a third from rounding near N = 10**9; three columns at any N
    n = np.array(Ns, dtype=float)[:, None]
    j_lo = np.maximum(np.ceil((np.array(grid) - 1.0 / n + 1.0) * n / 2.0 - 1e-9), 0.0)
    j_hi = np.minimum(np.floor((np.array(grid) + 1.0 / n + 1.0) * n / 2.0 + 1e-9), n)
    j = j_lo[..., None] + np.arange(max(int((j_hi - j_lo).max(initial=0)) + 1, 3))
    i = np.arange(max(a.size for a, _ in layouts))
    k = j[:, :, None, :] - i[:, None]  # size, grid point, term i of a, count j
    a_lm = np.array([np.concatenate((a, np.full(i.size - a.size, -np.inf))) for a, _ in layouts])
    sizes = np.broadcast_to(np.array([b.size for _, b in layouts])[:, None, None, None], k.shape)
    used = (j <= j_hi[..., None])[:, :, None, :] & (k >= 0) & (k <= sizes)
    pmf = np.full(k.shape, -np.inf)
    for pq in dict.fromkeys((b.p, b.q) for _, b in layouts):  # one for a family of one p
        part = used & np.array([(b.p, b.q) == pq for _, b in layouts])[:, None, None, None]
        pmf[part] = binomial_log_pmf(sizes[part], *pq, k[part])
    logp = lc_real_logsumexp_rows(a_lm[:, None, :] + lc_real_logsumexp_rows(pmf))
    dropped = logp == -np.inf
    for s, g in zip(*np.nonzero(dropped)):
        warnings.warn(f"window at m={grid[g]} has zero probability for N={Ns[s]}; point dropped",
                      stacklevel=2)
    ps = {state.homogeneous_p for state in states}
    p = ps.pop() if len(ps) == 1 else None
    return RateFunctionEstimate(
        grid=tuple(grid),
        N_values=tuple(Ns),
        samples=np.where(dropped, np.nan, logp / n),
        dropped=dropped,
        analytic=np.asarray(bernoulli_rate(grid, p)) if p is not None else None,
        p=p,
    )


def perturbation_residual_bound(base: BernoulliProduct, perturbed: BernoulliProduct) -> float:
    """Upper bound on |log P(E) - log P'(E)| over all up-count events.

    Sums, over the differing sites, the worst log-odds change; dividing by N
    bounds the rate-curve shift a localized perturbation can cause.  The
    sites overridden in neither state share one term, counted once each.
    """
    if base.N != perturbed.N:
        raise PreconditionError("states must have equal length")
    sites = sorted(set(base.overrides) | set(perturbed.overrides))
    pairs = [(base.overrides.get(k, base.p), perturbed.overrides.get(k, perturbed.p), 1) for k in sites]
    pairs.append((base.p, perturbed.p, base.N - len(sites)))
    total = 0.0
    for p0, p1, count in pairs:
        if p0 == p1 or count == 0:
            continue
        shifts = [abs(math.log(a / b)) if a and b else np.inf
                  for a, b in ((p1, p0), (1.0 - p1, 1.0 - p0)) if a != b]
        total += count * max(shifts)
    return total


@dataclass(frozen=True)
class LdpConditionReport:
    """Outcome of the four structural conditions on the rate functions."""

    maximizers: tuple[float, ...]
    unique_max: bool
    interior: bool
    distinct_cells: bool
    gap: float
    stability_residual: float | None = None
    stability_bound: float | None = None

    @property
    def gap_positive(self) -> bool:
        return self.gap > 0.0

    @property
    def stability_ok(self) -> bool | None:
        if self.stability_residual is None:
            return None
        return self.stability_residual <= self.stability_bound

    @property
    def passed(self) -> bool:
        core = self.unique_max and self.interior and self.distinct_cells and self.gap_positive
        if self.stability_ok is None:
            return core
        return core and self.stability_ok


def check_ldp_conditions(
    estimates: Sequence[RateFunctionEstimate],
    cells: CellPartitionSpec,
    pointer,
    perturbed: Sequence[RateFunctionEstimate] | None = None,
    stability_bound: float | None = None,
) -> LdpConditionReport:
    """Check the unique-maximiser, interiority, gap and stability conditions.

    ``estimates`` holds one rate estimate per microstate index r; ``pointer``
    is the cell-to-microstate permutation (anything exposing ``phi``).  When
    ``perturbed`` estimates are supplied, their maximum deviation from the
    unperturbed curves is compared against ``stability_bound`` (for product
    families, :func:`perturbation_residual_bound` divided by N).
    """
    phi = tuple(getattr(pointer, "phi", pointer))
    n = len(estimates)
    if sorted(phi) != list(range(n)):
        raise PreconditionError("pointer map must be a permutation of the microstate indices")
    inverse = {r: a for a, r in enumerate(phi)}
    tol = 1e-12

    maximizers = []
    unique_max = True
    interior = True
    for r, est in enumerate(estimates):
        if est.p is not None:
            m_r = 2.0 * est.p - 1.0
        else:
            curve = est.samples[-1]
            finite = np.isfinite(curve)
            if not finite.any():
                raise PreconditionError(f"sampled rate curve {r} has no finite value")
            top = curve[finite].max()
            near = [m for m, v, ok in zip(est.grid, curve, finite) if ok and v >= top - tol]
            if len(near) != 1:
                unique_max = False
            m_r = near[0]
        maximizers.append(m_r)
        a_r = inverse[r]
        lo, hi = cells.edges[a_r], cells.edges[a_r + 1]
        on_edge = any(abs(m_r - e) <= tol for e in cells.edges)
        if on_edge or not (lo < m_r < hi):
            interior = False
        elif cells.cell_of_value(m_r) != a_r:
            interior = False
    distinct = len(set(inverse.values())) == n

    gap = np.inf
    for r, est in enumerate(estimates):
        a_r = inverse[r]
        peak = est.rate_at(maximizers[r])
        # closure of the complement of the assigned cell: grid points landing
        # in other cells, plus the shared boundary edges
        candidates = [m for m in est.grid
                      if cells.edges[0] <= m <= cells.edges[-1]
                      and cells.cell_of_value(m) != a_r]
        if a_r > 0:
            candidates.append(cells.edges[a_r])
        if a_r < cells.n_cells - 1:
            candidates.append(cells.edges[a_r + 1])
        if not candidates:
            continue
        outside = max(est.rate_at(m) for m in candidates)
        gap = min(gap, peak - outside)

    residual = None
    bound = stability_bound
    if perturbed is not None:
        if len(perturbed) != n:
            raise PreconditionError("need one perturbed estimate per microstate")
        if bound is None:
            raise PreconditionError(
                "a stability bound is required to judge perturbed estimates")
        residual = 0.0
        for est, pest in zip(estimates, perturbed):
            if est.N_values != pest.N_values or est.grid != pest.grid:
                raise PreconditionError("perturbed estimates must share the grid and sizes")
            both = np.isfinite(est.samples) & np.isfinite(pest.samples)
            if both.any():
                residual = max(residual, float(np.abs(np.where(both, est.samples - pest.samples, 0.0)).max()))
    return LdpConditionReport(
        maximizers=tuple(maximizers),
        unique_max=unique_max,
        interior=interior,
        distinct_cells=distinct,
        gap=float(gap),
        stability_residual=residual,
        stability_bound=bound,
    )
