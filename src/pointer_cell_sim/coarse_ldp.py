"""Coarse-grained macro-observables, cell probabilities and rate functions.

An intensive observable (total magnetisation divided by particle count, for
the chain models) has a pure point spectrum inside a closed interval.  Cutting
that interval into equal-length cells, left-closed right-open with the last
cell closed, produces the phase-cell partition; the probability that the
intensive variable lands in a cell obeys a large-deviation principle whose
rate function is, for product Bernoulli states, the negative relative entropy
``-D(q || p)``.  The concentration gap of that rate function across cell
boundaries is what drives the exponential pointer fidelity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .core import PhaseCellPartition
from .errors import PreconditionError, StructuralError
from .logspace import (
    bernoulli_relative_entropy,
    binomial_log_pmf,
    lc_convolve,
    lc_real_logsumexp,
)

#: basis maps for product systems are materialised only up to this site count
BASIS_MAP_MAX_SITES = 14


@dataclass(frozen=True)
class IntensiveObservable:
    """Spectrum of a fine-grained extensive observable divided by N.

    ``spectrum`` is stored as a read-only, strictly increasing float array.
    ``multiplicity`` maps a spectrum index to its exact dimension count; for
    product systems it is a generating rule (binomial coefficients for spin
    chains), which avoids materialising astronomically large integers.
    ``basis_value_index`` (optional) maps each basis index of a concrete
    apparatus space to the index of its spectrum value, enabling explicit
    projector construction for the dense backend.
    """

    spectrum: np.ndarray
    multiplicity: Callable[[int], int] = None
    N: int = 1
    basis_value_index: np.ndarray | None = None

    def __post_init__(self):
        spec = np.array(self.spectrum, dtype=float)
        if spec.ndim != 1 or spec.size == 0:
            raise StructuralError("spectrum must be a non-empty sequence")
        if not np.all(spec[1:] > spec[:-1]):
            raise StructuralError("spectrum must be sorted and free of duplicates")
        if self.N < 1:
            raise StructuralError("particle count must be at least 1")
        spec.setflags(write=False)
        object.__setattr__(self, "spectrum", spec)
        rule = self.multiplicity
        if rule is None:
            rule = lambda i: 1
        elif isinstance(rule, (tuple, list)):
            counts = tuple(int(m) for m in rule)
            if len(counts) != len(spec) or any(m <= 0 for m in counts):
                raise StructuralError("one positive multiplicity required per spectrum point")
            rule = counts.__getitem__
        object.__setattr__(self, "multiplicity", rule)
        if self.basis_value_index is not None:
            idx = np.asarray(self.basis_value_index, dtype=int)
            if idx.min() < 0 or idx.max() >= len(spec):
                raise StructuralError("basis map refers to a missing spectrum point")
            idx.setflags(write=False)
            object.__setattr__(self, "basis_value_index", idx)

    def __eq__(self, other):
        if not isinstance(other, IntensiveObservable):
            return NotImplemented
        return self.N == other.N and np.array_equal(self.spectrum, other.spectrum)

    def multiplicities(self) -> tuple[int, ...]:
        """Materialised counts; only sensible for modest spectra."""
        counts = tuple(int(self.multiplicity(i)) for i in range(len(self.spectrum)))
        if any(m <= 0 for m in counts):
            raise StructuralError("multiplicities must be positive")
        return counts

    @property
    def lo(self) -> float:
        return float(self.spectrum[0])

    @property
    def hi(self) -> float:
        return float(self.spectrum[-1])

    @property
    def max_gap(self) -> float:
        if len(self.spectrum) == 1:
            return 0.0
        return float(np.diff(self.spectrum).max())

    @classmethod
    def magnetization_chain(cls, N: int, with_basis_map: bool | None = None) -> "IntensiveObservable":
        """Mean z-magnetisation of N two-level sites: values (2j - N) / N."""
        if N < 1:
            raise StructuralError("chain must have at least one site")
        spectrum = (2 * np.arange(N + 1) - N) / N
        if with_basis_map is None:
            with_basis_map = N <= BASIS_MAP_MAX_SITES
        basis = None
        if with_basis_map:
            if N > BASIS_MAP_MAX_SITES:
                raise StructuralError(f"basis map limited to {BASIS_MAP_MAX_SITES} sites")
            counts = np.zeros(2 ** N, dtype=int)
            for bit in range(N):
                counts += (np.arange(2 ** N) >> bit) & 1
            basis = N - counts  # bit value 1 encodes a down spin
        return cls(spectrum=spectrum, multiplicity=lambda j, _n=N: math.comb(_n, j),
                   N=N, basis_value_index=basis)


@dataclass(frozen=True)
class CellPartitionSpec:
    """Equal-length interval partition of the spectrum range.

    Intervals are left-closed, right-open, with the last interval closed, so
    every spectrum point belongs to exactly one cell.  Because the spectrum
    is sorted, each cell is a contiguous run of spectrum indices: cell ``a``
    holds indices ``bounds[a]:bounds[a + 1]``, and ``bounds[-1]`` is the
    spectrum length.  ``cell_means`` average the distinct spectrum points
    inside each interval (``nan`` for an empty cell).
    """

    edges: tuple[float, ...]
    bounds: tuple[int, ...]
    cell_means: tuple[float, ...]
    labels: tuple[str, ...]

    @property
    def n_cells(self) -> int:
        return len(self.edges) - 1

    @property
    def empty_cells(self) -> tuple[int, ...]:
        b = self.bounds
        return tuple(a for a in range(self.n_cells) if b[a] == b[a + 1])

    def cell_of_value(self, m: float) -> int:
        if m < self.edges[0] or m > self.edges[-1]:
            raise PreconditionError(f"value {m!r} outside the spectrum range")
        idx = int(np.searchsorted(self.edges, m, side="right")) - 1
        return min(idx, self.n_cells - 1)


def coarse_grain(
    obs: IntensiveObservable, n_cells: int
) -> tuple[CellPartitionSpec, PhaseCellPartition | None]:
    """Partition the spectrum range into equal cells and build the projectors.

    Returns the interval-level description together with an explicit
    :class:`PhaseCellPartition` whenever the observable carries a basis map;
    otherwise the second element is ``None`` and only factorized backends can
    consume the partition.  Empty cells are legal but warned about.
    """
    if n_cells < 1:
        raise PreconditionError("need at least one cell")
    lo, hi = obs.lo, obs.hi
    if hi == lo and n_cells > 1:
        raise StructuralError("cannot split a single-point spectrum into several cells")
    if n_cells > 1 and obs.N > 0:
        gap_cap = 2.0 * (hi - lo) / obs.N
        if obs.max_gap > gap_cap + 1e-12:
            warnings.warn(
                f"spectrum gap {obs.max_gap:.3e} exceeds {gap_cap:.3e}; the partition "
                "may not sharpen as N grows", stacklevel=2)
    edges = tuple(lo + (hi - lo) * k / n_cells for k in range(n_cells + 1))
    # first index at or above each left edge: the same comparisons as placing
    # every point by searchsorted(edges, point, "right") - 1
    starts = np.searchsorted(obs.spectrum, edges[:-1], side="left")
    bounds = tuple(int(b) for b in starts) + (len(obs.spectrum),)
    means = []
    for a in range(n_cells):
        pts = obs.spectrum[bounds[a]:bounds[a + 1]]
        means.append(float(pts.mean()) if pts.size else float("nan"))
    labels = tuple(str(a) for a in range(n_cells))
    if n_cells == 2:
        labels = ("-", "+")
    spec = CellPartitionSpec(edges=edges, bounds=bounds, cell_means=tuple(means), labels=labels)
    if spec.empty_cells:
        warnings.warn(f"cells {spec.empty_cells} contain no spectrum points", stacklevel=2)
    partition = None
    if obs.basis_value_index is not None:
        cell_of_point = np.repeat(np.arange(n_cells), np.diff(bounds))
        cell_of_basis = cell_of_point[obs.basis_value_index]
        sets = [np.nonzero(cell_of_basis == a)[0] for a in range(n_cells)]
        partition = PhaseCellPartition(
            cells=[frozenset(int(i) for i in s) for s in sets],
            dim=len(obs.basis_value_index),
            labels=labels,
        )
    return spec, partition


@dataclass(frozen=True)
class BernoulliProduct:
    """Product state of N two-level sites described by per-site up-probabilities."""

    up_probs: np.ndarray

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.up_probs, dtype=float))
        if p.ndim != 1 or p.size < 1:
            raise StructuralError("need one up-probability per site")
        if p.min() < 0.0 or p.max() > 1.0:
            raise StructuralError("up-probabilities must lie in [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "up_probs", p)

    @property
    def N(self) -> int:
        return self.up_probs.size

    @property
    def homogeneous_p(self) -> float | None:
        p = self.up_probs
        return float(p[0]) if np.all(p == p[0]) else None

    @classmethod
    def homogeneous(cls, N: int, p: float) -> "BernoulliProduct":
        return cls(up_probs=np.full(N, float(p)))

    def with_overrides(self, overrides: dict[int, float]) -> "BernoulliProduct":
        p = self.up_probs.copy()
        for site, value in overrides.items():
            if not (0 <= site < self.N):
                raise PreconditionError(f"override site {site} out of range")
            p[site] = value
        return BernoulliProduct(up_probs=p)


def _factor_layout(state: BernoulliProduct) -> tuple[np.ndarray, np.ndarray]:
    """Log-pmf factors ``(a, b)`` of the up count: ``pmf_j = sum_i a_i b_{j-i}``.

    ``b`` is the binomial block of the modal up-probability; ``a`` is the
    up-count log-pmf of every other site, binomial blocks of equal
    probabilities convolved in log space (``[0]`` for a homogeneous state,
    k + 1 terms for k sites that differ).  Both stay exact far below the
    floating-point floor.
    """
    values, counts = np.unique(state.up_probs, return_counts=True)
    blocks = [binomial_log_pmf(int(c), float(p), 1.0 - float(p)) for p, c in zip(values, counts)]
    b = blocks.pop(int(np.argmax(counts)))
    rest = [(block, np.zeros_like(block)) for block in blocks]
    return reduce(lc_convolve, rest, (np.zeros(1), np.zeros(1)))[0], b


def _range_log_probability(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> float:
    # log P(lo <= j < hi) = log sum_i a_i (b_{lo-i} + ... + b_{hi-1-i})
    tails = [lc_real_logsumexp(b[max(lo - i, 0):max(hi - i, 0)]) for i in range(a.size)]
    return lc_real_logsumexp(a + np.array(tails))


def cell_log_probability(state: BernoulliProduct, cells: CellPartitionSpec) -> np.ndarray:
    """Log-probability of each cell under the product state."""
    if state.N + 1 != cells.bounds[-1]:
        raise StructuralError("partition was built for a different chain length")
    layout = _factor_layout(state)
    out = np.full(cells.n_cells, -np.inf)
    for c in range(cells.n_cells):
        lo, hi = cells.bounds[c], cells.bounds[c + 1]
        if hi > lo:
            out[c] = _range_log_probability(*layout, lo, hi)
    return out


def cell_probability(state, cells) -> np.ndarray:
    """Probability of each phase cell for a product or dense apparatus state.

    Product Bernoulli states go through exact log-space binomial sums against
    a :class:`CellPartitionSpec`; dense density matrices are traced against an
    explicit :class:`PhaseCellPartition`.
    """
    if isinstance(state, BernoulliProduct):
        if not isinstance(cells, CellPartitionSpec):
            raise PreconditionError("product states require a CellPartitionSpec")
        return np.exp(cell_log_probability(state, cells))
    rho = np.asarray(state, dtype=complex)
    if not isinstance(cells, PhaseCellPartition):
        raise PreconditionError("dense states require a PhaseCellPartition")
    if rho.shape[0] != cells.dim:
        raise StructuralError("state dimension does not match the partition")
    vals = cells.trace_all(rho)
    return vals.real


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

    @property
    def residuals(self) -> np.ndarray | None:
        if self.analytic is None:
            return None
        return self.samples - self.analytic[None, :]

    def curve(self) -> np.ndarray:
        """The analytic rates when known, else the largest chain's samples."""
        if self.analytic is not None:
            return self.analytic
        return self.samples[-1]

    def rate_at(self, m: float) -> float:
        if self.p is not None:
            return float(bernoulli_rate(m, self.p))
        k = int(np.argmin(np.abs(np.asarray(self.grid) - m)))
        return float(self.samples[-1, k])


def _window_counts(N: int, m: float, delta: float) -> range:
    # spectrum point j sits at (2j - N) / N; window [m - delta, m + delta]
    j_lo = math.ceil((m - delta + 1.0) * N / 2.0 - 1e-9)
    j_hi = math.floor((m + delta + 1.0) * N / 2.0 + 1e-9)
    return range(max(0, j_lo), min(N, j_hi) + 1)


def estimate_rate(
    family: Callable[[int], BernoulliProduct],
    grid: Sequence[float],
    N_values: Sequence[int],
) -> RateFunctionEstimate:
    """Estimate the rate function of a product-state family on a value grid.

    Requires at least three chain sizes spanning a factor of four.  Grid
    points whose window probability is exactly zero are dropped and flagged.
    """
    Ns = sorted(int(N) for N in N_values)
    if len(set(Ns)) < 3:
        raise PreconditionError("need at least three distinct chain sizes")
    if Ns[-1] < 4 * Ns[0]:
        raise PreconditionError("chain sizes must span at least a factor of four")
    grid = [float(m) for m in grid]
    samples = np.full((len(Ns), len(grid)), np.nan)
    dropped = np.zeros((len(Ns), len(grid)), dtype=bool)
    ps = set()
    for i, N in enumerate(Ns):
        state = family(N)
        if state.N != N:
            raise StructuralError("family returned a state of the wrong size")
        ps.add(state.homogeneous_p)
        layout = _factor_layout(state)
        delta = 1.0 / N  # half the magnetisation spectrum gap 2/N
        for k, m in enumerate(grid):
            js = _window_counts(N, m, delta)
            logp = _range_log_probability(*layout, js.start, js.stop) if js else -np.inf
            if logp == -np.inf:
                dropped[i, k] = True
                warnings.warn(
                    f"window at m={m} has zero probability for N={N}; point dropped",
                    stacklevel=2)
            else:
                samples[i, k] = logp / N
    p = ps.pop() if len(ps) == 1 else None
    analytic = np.asarray(bernoulli_rate(grid, p)) if p is not None else None
    return RateFunctionEstimate(
        grid=tuple(grid),
        N_values=tuple(Ns),
        samples=samples,
        dropped=dropped,
        analytic=analytic,
        p=p,
    )


def perturbation_residual_bound(base: BernoulliProduct, perturbed: BernoulliProduct) -> float:
    """Upper bound on |log P(E) - log P'(E)| over all up-count events.

    Sums, over the differing sites, the worst log-odds change; dividing by N
    bounds the rate-curve shift a localized perturbation can cause.
    """
    if base.N != perturbed.N:
        raise PreconditionError("states must have equal length")
    total = 0.0
    for p0, p1 in zip(base.up_probs, perturbed.up_probs):
        if p0 == p1:
            continue
        terms = []
        for a, b in ((p1, p0), (1.0 - p1, 1.0 - p0)):
            if a == b:
                continue
            if a == 0.0 or b == 0.0:
                return np.inf
            terms.append(abs(math.log(a / b)))
        total += max(terms) if terms else 0.0
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
        curve = est.curve()
        finite = np.isfinite(curve)
        top = np.nanmax(curve[finite])
        near = [m for m, v, ok in zip(est.grid, curve, finite) if ok and v >= top - tol]
        if est.p is not None:
            m_r = 2.0 * est.p - 1.0
        else:
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
