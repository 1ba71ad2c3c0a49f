"""Certification of the measurement conditions on pointer-statistics tensors.

A tensor certifies a measurement when each microstate drives exactly one
pointer cell.  The exact condition (unit diagonal mass on the assigned cells)
is generically unattainable at finite particle numbers, so it is weakened to
an exponential bound ``1 - F[r, r, assigned] <= exp(-c N)`` whose decay
constant is fitted over a chain-size sweep, and the whole certificate must
survive localized perturbations of the initial apparatus state.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import WEIGHT_FLOOR, FTensor, pointer_weight_stack, pointer_weights
from .errors import AmbiguousPointerError, FitError, PreconditionError, SimulationError
from .logspace import lc_real_logsumexp_rows

TIE_EPSILON = 1e-9
#: pointer maps up to this many microstates enumerate every assignment
ENUMERATION_MAX = 8
UNINFORMATIVE_FLOOR = 0.5
AMBIGUOUS = f"no unique pointer correspondence: competing assignment within {TIE_EPSILON:.0e} of the optimum"
EXACT_CONDITION_TOL = 1e-10
STABILITY_BAND = 0.25
EXPONENTIAL_R_SQUARED = 0.99


@dataclass(frozen=True)
class PointerMap:
    """Bijection between pointer cells and microstates.

    ``phi[alpha]`` is the microstate indicated by cell ``alpha``;
    ``confidence[alpha]`` is the diagonal tensor mass supporting the
    assignment.  Microstates whose best cell carries less than half the mass
    are listed in ``uninformative``.
    """

    phi: tuple[int, ...]
    confidence: tuple[float, ...]
    uninformative: tuple[int, ...] = ()

    def __post_init__(self):
        if sorted(self.phi) != list(range(len(self.phi))):
            raise PreconditionError("pointer map must be a permutation")

    @property
    def n(self) -> int:
        return len(self.phi)

    @property
    def inverse(self) -> tuple[int, ...]:
        return tuple(map(self.phi.index, range(self.n)))


@dataclass(frozen=True)
class MeasurementVerdict:
    """Outcome of the weakened (exponential) measurement condition.

    ``log_errors`` and ``log_correction_constant`` carry the pointer errors and
    the constant K in log space, where they stay finite after ``errors``
    underflow to zero and ``correction_constant`` overflows.
    """

    errors: tuple[float, ...]
    log_errors: tuple[float, ...]
    satisfied: bool
    correction_constant: float
    log_correction_constant: float


@dataclass(frozen=True)
class ExactConditionResult:
    """Outcome of the exact condition, and how far the tensor is from the ideal form."""

    satisfied: bool
    residual: float
    ideal_residual: float


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of the worst pointer error against chain size, over the sizes
    ``used``; the sizes with a zero or NaN error are ``excluded``."""

    used: tuple[int, ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[int, ...] = ()

    @property
    def c(self) -> float:
        """Empirical decay constant (magnitude of the fitted slope)."""
        return -self.slope

    def is_exponential(self) -> bool:
        return self.slope < 0.0 and self.r_squared >= EXPONENTIAL_R_SQUARED


@dataclass(frozen=True)
class StabilityResult:
    """Comparison of decay fits before and after a localized perturbation."""

    relative_change: float
    bound_satisfied: bool
    exponential: bool  # both fits are exponential: a negative slope, r^2 at least EXPONENTIAL_R_SQUARED

    @property
    def within_band(self) -> bool:
        return self.relative_change <= STABILITY_BAND

    @property
    def passed(self) -> bool:
        return self.within_band and self.bound_satisfied and self.exponential


@functools.cache
def _permutations(n: int) -> np.ndarray:
    """Every permutation of ``range(n)``, one per read-only row, in lexicographic order."""
    perms = np.array(list(itertools.permutations(range(n))))
    perms.setflags(write=False)
    return perms


def pointer_maps(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assign each cell to a microstate by maximum-weight bipartite matching, for a
    stack of cell-probability matrices ``diag[s, r, alpha] = F_s[r, r, alpha]``: per
    matrix the assignment ``phi`` (cell alpha indicates microstate ``phi[alpha]``),
    the mass ``confidence[alpha]`` behind it, a mask of the microstates whose best
    cell holds less than ``UNINFORMATIVE_FLOOR``, and whether the correspondence is
    ambiguous: a second assignment within ``TIE_EPSILON``.  Maximising the total
    diagonal mass gives a bijection even when rows are noisy.  Up to
    ``ENUMERATION_MAX`` microstates one ``(S, n!, n)`` gather scores every
    permutation of every matrix; above, the Hungarian algorithm finds each optimum,
    and the runner-up is the best assignment forced through one pair it does not use.
    """
    S, n = diag.shape[:2]
    stack, cells = np.arange(S), np.arange(n)
    if n <= ENUMERATION_MAX:
        perms = _permutations(n)
        mass = diag[:, perms, cells]  # mass[s, p, alpha] = diag[s, perms[p, alpha], alpha]
        totals = mass.sum(axis=2)
        best = totals.argmax(axis=1)
        phi, confidence, top = perms[best], mass[stack, best], totals[stack, best]
        totals[stack, best] = -np.inf
        second = totals.max(axis=1)
    else:
        from scipy.optimize import linear_sum_assignment
        phi, top, second = np.empty((S, n), dtype=int), np.empty(S), np.full(S, -np.inf)
        for i, W in enumerate(diag.transpose(0, 2, 1)):  # W[alpha, r]
            rows, phi[i] = linear_sum_assignment(-W)
            top[i] = W[rows, phi[i]].sum()
            for alpha, r in itertools.product(range(n), repeat=2):
                if phi[i, alpha] != r:
                    sub = np.delete(np.delete(W, alpha, axis=0), r, axis=1)
                    srows, scols = linear_sum_assignment(-sub)
                    second[i] = max(second[i], float(W[alpha, r] + sub[srows, scols].sum()))
        confidence = diag[stack[:, None], phi, cells]
    return phi, confidence, diag.max(axis=2) < UNINFORMATIVE_FLOOR, top - second <= TIE_EPSILON


def find_pointer_map(f: FTensor) -> PointerMap:
    """The pointer map of one tensor, ``pointer_maps`` of a stack of one; an
    :class:`AmbiguousPointerError` if the correspondence is not unique."""
    (phi,), (confidence,), (uninformative,), (ambiguous,) = pointer_maps(f.diagonal()[None])
    if ambiguous:
        raise AmbiguousPointerError(AMBIGUOUS)
    return PointerMap(phi=tuple(phi.tolist()), confidence=tuple(confidence.tolist()),
                      uninformative=tuple(r for r, flag in enumerate(uninformative.tolist()) if flag))


def pointer_errors(diag: np.ndarray, inverse) -> np.ndarray:
    """Per-microstate error ``1 - F[r, r, assigned]`` of one tensor or a stack, from
    the cell probabilities ``diag[..., r, alpha]`` and each microstate's assigned
    cell ``inverse[..., r]``.  It sums the diagonal mass on the other cells: the
    same, but at full relative precision far below the epsilon of ``1 - F``."""
    others = np.arange(diag.shape[-1]) != np.asarray(inverse)[..., None]
    eps = diag[others].reshape(*others.shape[:-1], others.shape[-1] - 1).sum(axis=-1)
    return np.where(eps > 0.0, eps, 0.0)


def log_pointer_errors(log_magnitude: np.ndarray, inverse) -> np.ndarray:
    """log of the pointer errors of one tensor or a stack, from ``log_magnitude[...,
    r, s, alpha]`` and the assigned cells ``inverse[..., r]``: row r sums ``|F[r, r,
    a]|`` over the other cells a in log space, finite after the values underflow."""
    r = np.arange(log_magnitude.shape[-1])
    others = r != np.asarray(inverse)[..., None]
    return lc_real_logsumexp_rows(np.where(others, log_magnitude[..., r, r, :], -np.inf))


def judge_stack(values: np.ndarray, log_magnitude: np.ndarray, c
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, SimulationError]]:
    """What a sweep reads of each tensor ``values[s]`` of a stack with its log
    magnitudes, for the amplitudes ``c``, each step done for all at once: pointer
    errors and their logs, cell weights, the largest off-diagonal magnitude, and by
    index the error judging a tensor alone raises: no unique map, else a weight check."""
    diag = np.einsum("srra->sra", values).real
    phi, _, _, ambiguous = pointer_maps(diag)
    inverse = np.argsort(phi, axis=1)
    weights, failed = pointer_weight_stack(values, c)
    failed.update((s, AmbiguousPointerError(AMBIGUOUS)) for s in np.flatnonzero(ambiguous).tolist())
    off = np.abs(np.where(np.eye(values.shape[-1], dtype=bool)[:, :, None], 0.0, values))
    return (pointer_errors(diag, inverse), log_pointer_errors(log_magnitude, inverse), weights,
            off.max(axis=(1, 2, 3)), failed)


def ideal_tensor(pmap: PointerMap) -> np.ndarray:
    """The tensor of a perfect measurement: all mass on the assigned diagonal."""
    n = pmap.n
    ideal = np.zeros((n, n, n), dtype=complex)
    for alpha, r in enumerate(pmap.phi):
        ideal[r, r, alpha] = 1.0
    return ideal


def _residual_matrices(f: FTensor, pmap: PointerMap, c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermitian matrices whose trace norms are the reconstruction residuals at
    the amplitudes ``c``: ``M_E``, the Hermitian part of ``[c_r conj(c_s) T[r, s]] -
    diag(|c|^2)`` on the trace product ``T[r, s] = sum_alpha F[r, s, alpha]``, and
    per cell ``M[alpha]``, that of ``[c_r conj(c_s) F[r, s, alpha]] / w_alpha -
    E_phi(alpha)phi(alpha)``; with the mask of the cells whose weight exceeds
    ``WEIGHT_FLOOR``, the cells one may condition on.  No diagonal entry is a
    difference of rounded terms: ``M_E``'s are ``|c_r|^2 (T[r, r] - 1)``, and
    ``M[alpha]``'s at ``phi(alpha)`` minus the others, as ``w_alpha`` is their sum."""
    vec = np.asarray(c, dtype=complex)
    w = pointer_weights(f, vec)
    live = w > WEIGHT_FLOOR
    V, n = f.values, f.n
    G = np.outer(vec, vec.conj())[:, :, None] * (V + V.conj().transpose(1, 0, 2)) / 2
    m_expect = G.sum(axis=2)
    m_expect[np.diag_indices(n)] = np.abs(vec) ** 2 * (np.einsum("rra->r", V).real - 1.0)
    M = G.transpose(2, 0, 1) / np.where(live, w, 1.0)[:, None, None]
    cells, phi = np.arange(n), np.array(pmap.phi)
    diag = np.einsum("arr->ar", M).real
    M[cells, phi, phi] = -np.where(cells != phi[:, None], diag, 0.0).sum(axis=1)
    return m_expect, M, live


def reconstruction_residuals(f: FTensor, pmap: PointerMap, c,
                             log_trace: np.ndarray | None = None) -> tuple[float, float]:
    """log of the two reconstruction residuals at the amplitudes ``c``, each the
    supremum over Hermitian observables ``A`` with ``||A|| <= 1``: of ``|E(A) -
    sum_r |c_r|^2 A[r, r]|``, and over the cells of weight above ``WEIGHT_FLOOR``,
    of ``|E(A | alpha) - A[phi(alpha), phi(alpha)]|`` (``-inf`` if no cell has that
    weight).  Each deviation is ``Tr(A M)`` for a Hermitian ``M`` of
    ``_residual_matrices``, so its supremum is the trace norm ``||M||_1``, attained at
    ``A = sign(M)`` (Bhatia, Matrix Analysis, GTM 169, IV.2).

    At n = 2 both come in closed form from the log magnitudes, so they stay finite
    where the values underflow.  A cell's ``M`` is ``[[-x, b], [conj(b), x]]`` up to
    the order of its rows, with ``x = |c_s|^2 F[s, s, alpha] / w_alpha`` and ``b =
    c_r conj(c_s) F[r, s, alpha] / w_alpha`` for ``r = phi(alpha)`` and ``s`` the
    other microstate, so ``||M||_1 = 2 sqrt(x^2 + |b|^2)``; ``M_E`` is ``[[a_0,
    beta], [conj(beta), a_1]]``, ``a_r = |c_r|^2 (T[r, r] - 1)`` and ``beta = c_0
    conj(c_1) T[0, 1]`` on the trace product ``T[r, s] = sum_alpha F[r, s, alpha]``,
    with ``||M_E||_1 = max(|a_0 + a_1|, sqrt((a_0 - a_1)^2 + 4 |beta|^2))``.
    ``log_trace`` is ``log |T|``: by default from the values, and a log-space
    backend passes its own.  Above n = 2, ``eigvalsh`` of each ``M`` in linear space.
    """
    if f.n != 2:
        m_expect, M, live = _residual_matrices(f, pmap, c)
        with np.errstate(divide="ignore"):
            return (float(np.log(np.abs(np.linalg.eigvalsh(m_expect)).sum())),
                    float(np.log(np.abs(np.linalg.eigvalsh(M[live])).sum(axis=1).max(initial=0.0))))
    vec = np.asarray(c, dtype=complex)
    live = pointer_weights(f, vec) > WEIGHT_FLOOR
    cells, phi = np.arange(2), np.array(pmap.phi)
    other = 1 - phi
    lm = f.log_magnitude
    with np.errstate(divide="ignore", invalid="ignore"):
        if log_trace is None:
            log_trace = np.log(np.abs(f.values.sum(axis=2)))
        log_c = np.log(np.abs(vec))
        terms = 2 * log_c[:, None] + lm[cells, cells]  # log |c_r|^2 F[r, r, alpha]
        log_w = np.logaddexp(terms[0], terms[1])
        log_x = terms[other, cells] - log_w
        log_b = log_c.sum() + lm[phi, other, cells] - log_w
        log_cond = math.log(2.0) + 0.5 * np.logaddexp(2 * log_x, 2 * log_b)
        a = np.abs(vec) ** 2 * np.expm1(np.diagonal(log_trace))
        log_beta = log_c.sum() + log_trace[0, 1]
        log_expect = max(np.log(abs(a.sum())),
                         0.5 * np.logaddexp(2 * np.log(abs(a[0] - a[1])), math.log(4.0) + 2 * log_beta))
    return float(log_expect), float(np.where(live, log_cond, -np.inf).max())


def check_exact_condition(f: FTensor, pmap: PointerMap) -> ExactConditionResult:
    """Test the exact measurement condition and its structural consequences.

    Satisfied iff every assigned diagonal entry is 1 to ``1e-10``.  The result
    also reports how far the tensor is from the perfect-measurement form, at
    roundoff for a satisfied tensor.
    """
    diag = f.diagonal()
    inv = pmap.inverse
    residual = max(abs(1.0 - diag[r, inv[r]]) for r in range(f.n))
    ideal_residual = float(np.abs(f.values - ideal_tensor(pmap)).max())
    return ExactConditionResult(
        satisfied=bool(residual < EXACT_CONDITION_TOL),
        residual=float(residual),
        ideal_residual=ideal_residual,
    )


def check_weakened_condition(f: FTensor, pmap: PointerMap, N: int, c: float,
                             log_residuals: tuple[float, float]) -> MeasurementVerdict:
    """Test the exponential condition ``max_r error_r <= exp(-c N)`` as ``max_r log
    error_r <= -c N``, which cannot pass as ``0 <= 0`` once both sides underflow.

    Also reports, for the reconstruction residuals ``log_residuals`` of
    ``reconstruction_residuals``, the constant K such that the larger equals
    ``K * exp(-c N / 2)``, as ``log K = log(max residual) + c N / 2``; K is
    reported, not asserted.
    """
    if N < 1:
        raise PreconditionError("particle count must be at least 1")
    if not (c > 0.0):
        raise PreconditionError("decay constant must be positive")
    diag, inverse = f.diagonal(), pmap.inverse
    eps, log_eps = pointer_errors(diag, inverse), log_pointer_errors(f.log_magnitude, inverse)
    log_correction = max(log_residuals) + c * N / 2.0
    with np.errstate(over="ignore"):
        correction = float(np.exp(log_correction))
    return MeasurementVerdict(
        errors=tuple(float(e) for e in eps),
        log_errors=tuple(float(e) for e in log_eps),
        satisfied=bool(log_eps.max() <= -c * N),
        correction_constant=correction,
        log_correction_constant=float(log_correction),
    )


def fit_decay_rate(sweep: Sequence[tuple[int, float]]) -> DecayFit:
    """Least-squares fit of ``log(max_r error_r)`` against chain size, over sweep
    points ``(N, max_r log error_r)``.

    Points with an exactly zero or a NaN error are excluded with a warning; at least
    four usable points spanning a factor of four in N are required.
    """
    if not sweep:
        raise PreconditionError("empty sweep")
    points = [(int(N), float(log_eps)) for N, log_eps in sorted(sweep, key=lambda item: item[0])]
    Ns_all = [N for N, _ in points]
    if len(set(Ns_all)) < 4:
        raise PreconditionError("need at least four distinct chain sizes")
    if max(Ns_all) < 4 * min(Ns_all):
        raise PreconditionError("chain sizes must span at least a factor of four")
    usable = [(N, log_eps) for N, log_eps in points if log_eps > -np.inf]
    excluded = tuple((N, log_eps) for N, log_eps in points if not log_eps > -np.inf)  # -inf or NaN
    for N, log_eps in excluded:
        warnings.warn(f"sweep point N={N} has {'zero' if log_eps == -np.inf else 'NaN'} pointer error; "
                      "excluded from the fit", stacklevel=2)
    if len(usable) < 4:
        raise FitError(f"only {len(usable)} usable sweep points after exclusions")
    x = np.array([N for N, _ in usable], dtype=float)
    y = np.array([log_eps for _, log_eps in usable])
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    syy = float(np.sum((y - ym) ** 2))
    if sxx == 0.0:
        raise FitError("degenerate sweep: no spread in N")
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    r_squared = 1.0 if syy == 0.0 else max(0.0, 1.0 - ss_res / syy)
    return DecayFit(
        used=tuple(N for N, _ in usable),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        excluded=tuple(N for N, _ in excluded),
    )


def stability_verdict(base_fit: DecayFit, pert_fit: DecayFit,
                      pert_sweep: Sequence[tuple[int, float]]) -> StabilityResult:
    """Compare the decay fits before and after a perturbation.

    Both fits must be exponential, so that their constants measure a decay;
    the perturbed fit must stay within ``STABILITY_BAND`` of the base fit, and
    the exponential bound with the refitted constant must hold at every
    perturbed sweep point ``(N, max_r log error_r)``, compared in log space as
    ``check_weakened_condition`` does.
    """
    rel = abs(pert_fit.c - base_fit.c) / abs(base_fit.c) if base_fit.c != 0 else math.inf
    bound_ok = all(log_eps <= -pert_fit.c * N for N, log_eps in pert_sweep)
    return StabilityResult(relative_change=float(rel), bound_satisfied=bound_ok,
                           exponential=base_fit.is_exponential() and pert_fit.is_exponential())
