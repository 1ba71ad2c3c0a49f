"""Generic composite model: a finite microsystem coupled to an apparatus.

The microsystem has an n-dimensional state space with a fixed energy
eigenbasis; the apparatus carries a free Hamiltonian, one Hermitian coupling
per microsystem eigenstate, an initial density matrix and a partition of its
Hilbert space into orthogonal phase cells (pointer positions).  Because the
coupling induces no transitions between the measured eigenstates, the
composite evolution splits into sector propagators ``U_r(t) = exp(i K_r t)``
and every observable of interest reduces to traces of the evolved sector
states against the cell projectors.  Those traces form the pointer-statistics
tensor ``F[r, s, alpha]``, from which expectation values, macrostate weights
and conditional expectations are assembled without ever materialising the
composite space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    CapacityError,
    NullMacrostateError,
    NumericalError,
    PreconditionError,
    StructuralError,
)

HERMITIAN_TOL = 1e-12
STATE_TOL = 1e-12
AMPLITUDE_TOL = 1e-12
SECTOR_STATE_TOL = 1e-10
WEIGHT_FLOOR = 1e-12
PROPERTY_TOL = 1e-9
#: hard cap on the composite dimension n * dim_K served by the dense backend
DENSE_CAP = 2 ** 14


def _as_complex_matrix(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StructuralError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _check_hermitian(a: np.ndarray, name: str, tol: float = HERMITIAN_TOL) -> None:
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > tol:
        raise StructuralError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.0e}")


def _amplitudes(c, n: int | None = None) -> np.ndarray:
    if isinstance(c, InitialComposite):
        vec = c.c
    else:
        vec = np.asarray(c, dtype=complex).ravel()
    if n is not None and vec.size != n:
        raise PreconditionError(f"expected {n} amplitudes, got {vec.size}")
    norm = float(np.sum(np.abs(vec) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise PreconditionError(f"amplitudes are not normalised: sum |c|^2 = {norm!r}")
    return vec


@dataclass(frozen=True)
class MicroSystem:
    """The measured system: energy levels and labels of its eigenbasis."""

    energies: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if len(self.energies) < 1:
            raise StructuralError("microsystem dimension must be at least 1")
        if len(self.labels) != len(self.energies):
            raise StructuralError("labels and energies must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise StructuralError("eigenbasis labels must be unique")

    @property
    def n(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class ObservableS:
    """A Hermitian observable of the microsystem, in the energy eigenbasis."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _as_complex_matrix(self.matrix, "observable")
        _check_hermitian(a, "observable")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


CellSpec = Union[Sequence[int], frozenset, np.ndarray]


class PhaseCellPartition:
    """Orthogonal projectors that resolve the apparatus space into phase cells.

    Each cell is either a set of orthonormal-basis indices (a diagonal
    projector, stored exactly) or an explicit projector matrix.  The cells
    must be mutually orthogonal and complete: ``P_a P_b = delta_ab P_a`` and
    ``sum_a P_a = I``.
    """

    def __init__(self, cells: Sequence[CellSpec], dim: int, labels: Sequence[str] | None = None):
        self.dim = int(dim)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(len(cells)))
        if len(self.labels) != len(cells):
            raise StructuralError("cell labels must match the number of cells")
        parsed: list[frozenset | np.ndarray] = []
        for cell in cells:
            if isinstance(cell, np.ndarray) and cell.ndim == 2:
                mat = _as_complex_matrix(cell, "cell projector")
                if mat.shape[0] != self.dim:
                    raise StructuralError("cell projector dimension mismatch")
                mat.setflags(write=False)
                parsed.append(mat)
            else:
                idx = frozenset(int(i) for i in cell)
                if idx and (min(idx) < 0 or max(idx) >= self.dim):
                    raise StructuralError("cell basis index out of range")
                parsed.append(idx)
        self.cells = tuple(parsed)
        self._validate()

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def _validate(self, tol: float = HERMITIAN_TOL) -> None:
        index_cells = [c for c in self.cells if isinstance(c, frozenset)]
        matrix_cells = [c for c in self.cells if not isinstance(c, frozenset)]
        covered: set[int] = set()
        for idx in index_cells:
            if covered & idx:
                raise StructuralError("cells overlap: shared basis indices")
            covered |= idx
        if not matrix_cells:
            if covered != set(range(self.dim)):
                raise StructuralError("cells do not resolve the identity: missing basis indices")
            return
        # mixed or dense representation: validate numerically
        mats = [self.as_matrix(i) for i in range(self.cell_count)]
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for i, P in enumerate(mats):
            _check_hermitian(P, f"cell {i} projector", tol)
            total += P
            for j in range(i, self.cell_count):
                prod = P @ mats[j]
                ref = P if i == j else 0.0
                if np.abs(prod - ref).max() > tol:
                    raise StructuralError(f"cells {i},{j} are not orthogonal projectors")
        if np.abs(total - np.eye(self.dim)).max() > tol:
            raise StructuralError("cells do not sum to the identity")

    def as_matrix(self, alpha: int) -> np.ndarray:
        cell = self.cells[alpha]
        if isinstance(cell, frozenset):
            P = np.zeros((self.dim, self.dim), dtype=complex)
            ii = sorted(cell)
            P[ii, ii] = 1.0
            return P
        return np.asarray(cell)

    def rank(self, alpha: int) -> int:
        cell = self.cells[alpha]
        if isinstance(cell, frozenset):
            return len(cell)
        return int(round(np.trace(np.asarray(cell)).real))

    def cell_trace(self, X: np.ndarray, alpha: int) -> complex:
        """Tr(X P_alpha), using the exact diagonal sum for index cells."""
        cell = self.cells[alpha]
        if isinstance(cell, frozenset):
            ii = sorted(cell)
            return complex(X.diagonal()[ii].sum())
        return complex(np.einsum("ij,ji->", X, np.asarray(cell)))

    def trace_all(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.cell_trace(X, a) for a in range(self.cell_count)])


@dataclass(frozen=True)
class Apparatus:
    """Finite-dimensional apparatus: free Hamiltonian, sector couplings,
    initial state and phase-cell partition."""

    K: np.ndarray
    V: tuple[np.ndarray, ...]
    Omega: np.ndarray
    cells: PhaseCellPartition

    def __post_init__(self):
        K = _as_complex_matrix(self.K, "apparatus Hamiltonian K")
        _check_hermitian(K, "apparatus Hamiltonian K")
        dim = K.shape[0]
        Vs = []
        for r, v in enumerate(self.V):
            v = _as_complex_matrix(v, f"coupling V[{r}]")
            if v.shape[0] != dim:
                raise StructuralError(f"coupling V[{r}] dimension {v.shape[0]} != dim_K {dim}")
            _check_hermitian(v, f"coupling V[{r}]")
            v.setflags(write=False)
            Vs.append(v)
        Omega = _as_complex_matrix(self.Omega, "initial state Omega")
        if Omega.shape[0] != dim:
            raise StructuralError("initial state Omega dimension mismatch")
        _check_hermitian(Omega, "initial state Omega")
        tr = complex(np.trace(Omega))
        if abs(tr - 1.0) > STATE_TOL:
            raise StructuralError(f"Tr Omega = {tr!r}, expected 1")
        evals = np.linalg.eigvalsh((Omega + Omega.conj().T) / 2)
        if evals.min() < -STATE_TOL:
            raise StructuralError(f"Omega has negative eigenvalue {evals.min():.3e}")
        if self.cells.dim != dim:
            raise StructuralError("phase-cell partition dimension mismatch")
        K.setflags(write=False)
        Omega.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "V", tuple(Vs))
        object.__setattr__(self, "Omega", Omega)

    @property
    def dim_K(self) -> int:
        return self.K.shape[0]

    @property
    def n_sectors(self) -> int:
        return len(self.V)


@dataclass(frozen=True)
class InitialComposite:
    """Normalised microsystem amplitudes; the apparatus starts in Omega."""

    c: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.c, dtype=complex).ravel()
        norm = float(np.sum(np.abs(vec) ** 2))
        if abs(norm - 1.0) > AMPLITUDE_TOL:
            raise StructuralError(f"amplitudes are not normalised: sum |c|^2 = {norm!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "c", vec)

    @property
    def n(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class EvolvedSectorStates:
    """All sector states ``U_r(t)^dag Omega U_s(t)`` at one time."""

    t: float
    omega: np.ndarray  # shape (n, n, dim_K, dim_K)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def dim_K(self) -> int:
        return self.omega.shape[2]

    def validate(self, tol: float = SECTOR_STATE_TOL, spectra: bool = False) -> None:
        n = self.n
        for r in range(n):
            tr = complex(np.trace(self.omega[r, r]))
            if abs(tr - 1.0) > tol:
                raise StructuralError(f"Tr Omega[{r},{r}] = {tr!r}, expected 1")
            for s in range(n):
                dev = np.abs(self.omega[r, s].conj().T - self.omega[s, r]).max()
                if dev > tol:
                    raise StructuralError(f"sector states [{r},{s}] are not adjoint-paired: {dev:.3e}")
            if spectra:
                evals = np.linalg.eigvalsh(self.omega[r, r])
                if evals.min() < -tol or evals.max() > 1.0 + tol:
                    raise StructuralError(f"Omega[{r},{r}] spectrum outside [0, 1]")


@dataclass(frozen=True)
class FTensor:
    """Pointer-statistics tensor ``values[r, s, alpha]`` at evaluation time t.

    Diagonal slices ``values[r, r, :]`` are the cell probabilities given the
    microstate r; off-diagonal slices measure the residual coherence between
    sectors as seen by the cells.
    """

    values: np.ndarray
    t: float

    def __post_init__(self):
        a = np.asarray(self.values, dtype=complex)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[0] != a.shape[2]:
            raise StructuralError(f"F tensor must have shape (n, n, n), got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal slices: cell-probability matrix of shape (n, n_cells)."""
        return np.einsum("rra->ra", self.values).real


@dataclass(frozen=True)
class FPropertyReport:
    """Max violations of the algebraic identities the tensor must satisfy."""

    normalization: float
    bounds: float
    symmetry: float
    positivity: float
    cauchy_schwarz: float
    tol: float = PROPERTY_TOL

    @property
    def passed(self) -> bool:
        return self.worst < self.tol

    @property
    def worst(self) -> float:
        return max(self.normalization, self.bounds, self.symmetry,
                   self.positivity, self.cauchy_schwarz)

    def as_dict(self) -> dict[str, float]:
        return {
            "normalization": self.normalization,
            "bounds": self.bounds,
            "symmetry": self.symmetry,
            "positivity": self.positivity,
            "cauchy_schwarz": self.cauchy_schwarz,
        }


def sector_hamiltonians(system: MicroSystem, apparatus: Apparatus) -> list[np.ndarray]:
    """Per-sector apparatus Hamiltonians ``K_r = K + V_r + energy_r * I``.

    Parameters
    ----------
    system : MicroSystem
        Supplies the energy level added to each sector.
    apparatus : Apparatus
        Supplies the free Hamiltonian and the sector couplings.

    Returns
    -------
    list of ndarray
        One Hermitian ``dim_K x dim_K`` matrix per microsystem eigenstate.
    """
    if apparatus.n_sectors != system.n:
        raise StructuralError(
            f"apparatus carries {apparatus.n_sectors} couplings for a "
            f"{system.n}-dimensional microsystem")
    eye = np.eye(apparatus.dim_K)
    return [apparatus.K + apparatus.V[r] + system.energies[r] * eye for r in range(system.n)]


def evolve_sectors(system: MicroSystem, apparatus: Apparatus, t: float) -> EvolvedSectorStates:
    """Evolve the apparatus state through every pair of sector propagators.

    The propagators are ``U_r(t) = exp(i K_r t)`` and the returned block
    ``omega[r, s]`` is ``U_r(t)^dag Omega U_s(t)``; diagonal blocks are the
    apparatus states conditioned on the microsystem eigenstate.  Exponentials
    are taken through the Hermitian eigendecomposition, so the propagators
    are unitary to roundoff.
    """
    if not math.isfinite(t):
        raise PreconditionError(f"time must be finite, got {t!r}")
    if system.n * apparatus.dim_K > DENSE_CAP:
        raise CapacityError(
            f"dense backend cap exceeded: n * dim_K = {system.n * apparatus.dim_K} "
            f"> {DENSE_CAP}; use a factorized backend")
    Ks = sector_hamiltonians(system, apparatus)
    Us = []
    for r, Kr in enumerate(Ks):
        try:
            evals, vecs = np.linalg.eigh(Kr)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed for sector {r}: {exc}") from exc
        Us.append((vecs * np.exp(1j * evals * t)) @ vecs.conj().T)
    n, dK = system.n, apparatus.dim_K
    omega = np.empty((n, n, dK, dK), dtype=complex)
    for r in range(n):
        left = Us[r].conj().T @ apparatus.Omega
        for s in range(n):
            omega[r, s] = left @ Us[s]
    states = EvolvedSectorStates(t=float(t), omega=omega)
    states.validate()
    return states


def f_tensor(states: EvolvedSectorStates, cells: PhaseCellPartition) -> FTensor:
    """Trace every evolved sector state against every phase-cell projector."""
    if cells.dim != states.dim_K:
        raise StructuralError(
            f"partition dimension {cells.dim} != apparatus dimension {states.dim_K}")
    n = states.n
    if cells.cell_count != n:
        raise StructuralError(
            f"partition has {cells.cell_count} cells; the pointer correspondence "
            f"requires exactly n = {n}")
    values = np.empty((n, n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            values[r, s, :] = cells.trace_all(states.omega[r, s])
    return FTensor(values=values, t=states.t)


def sector_pair_expectations(f: FTensor, c, observable: ObservableS) -> np.ndarray:
    """Per-cell expectations ``E(A (x) P_alpha)`` assembled from the tensor.

    The pairing sums ``c_r conj(c_s) A[s, r] F[r, s, alpha]``; cross-sector
    terms enter through the off-diagonal tensor slices.
    """
    vec = _amplitudes(c, f.n)
    if observable.n != f.n:
        raise StructuralError("observable dimension mismatch")
    return np.einsum("r,s,sr,rsa->a", vec, vec.conj(), observable.matrix, f.values)


def expectation_s(f: FTensor, c, observable: ObservableS) -> float:
    """Expectation value of a microsystem observable at the tensor's time.

    Equals the diagonal Born term plus coherence corrections weighted by the
    cell-summed off-diagonal tensor entries; checked real to 1e-10 before the
    imaginary residual is discarded.
    """
    total = complex(np.sum(sector_pair_expectations(f, c, observable)))
    if abs(total.imag) > 1e-10:
        raise NumericalError(f"expectation has imaginary residual {total.imag:.3e}")
    return float(total.real)


def pointer_weights(f: FTensor, c) -> np.ndarray:
    """Probability of each pointer cell for the given amplitudes.

    Cross-sector tensor entries pair with ``Tr |u_r><u_s| = 0`` on the
    microsystem side and drop out, so the weight of a cell is the
    amplitude-squared mixture of the diagonal slices.
    """
    vec = _amplitudes(c, f.n)
    diag = np.einsum("rra->ra", f.values)
    w = np.einsum("r,ra->a", np.abs(vec) ** 2, diag)
    if np.abs(w.imag).max() > 1e-10:
        raise NumericalError("pointer weights have a non-real component")
    w = w.real
    if w.min() < -WEIGHT_FLOOR:
        raise NumericalError(f"pointer weight {w.min():.3e} below the negativity floor")
    w = np.clip(w, 0.0, None)
    if abs(w.sum() - 1.0) > 1e-10:
        raise NumericalError(f"pointer weights sum to {float(w.sum())!r}")
    return w


def conditional_expectation(f: FTensor, c, observable: ObservableS, alpha: int) -> float:
    """Expectation of the observable conditioned on reading cell ``alpha``.

    Raises
    ------
    NullMacrostateError
        If the cell weight does not exceed ``WEIGHT_FLOOR``; conditioning on
        a null macrostate is undefined and numerically meaningless near zero.
    """
    w = pointer_weights(f, c)
    if not (0 <= alpha < f.n):
        raise PreconditionError(f"cell index {alpha} out of range")
    if w[alpha] <= WEIGHT_FLOOR:
        raise NullMacrostateError(
            f"conditioning on a null macrostate: w[{alpha}] = {float(w[alpha])!r}")
    numer = sector_pair_expectations(f, c, observable)[alpha]
    value = numer / w[alpha]
    if abs(value.imag) > 1e-10:
        raise NumericalError(f"conditional expectation has imaginary residual {value.imag:.3e}")
    return float(value.real)


def check_f_properties(f: FTensor, tol: float = PROPERTY_TOL) -> FPropertyReport:
    """Measure the worst violation of each algebraic tensor identity.

    Checks, per microstate and cell: unit normalisation of the diagonal
    slices, their confinement to [0, 1] with vanishing imaginary part,
    Hermitian symmetry under (r, s) exchange, positive semidefiniteness of
    each cell's sector matrix, and the Cauchy-Schwarz bound it implies.
    Violations are reported, never raised.
    """
    F = f.values
    n = f.n
    diag = np.einsum("rra->ra", F)
    normalization = float(np.abs(diag.sum(axis=1) - 1.0).max())
    bounds = float(max(
        np.abs(diag.imag).max(),
        max(0.0, -diag.real.min()),
        max(0.0, diag.real.max() - 1.0),
    ))
    symmetry = float(np.abs(F - F.conj().transpose(1, 0, 2)).max())
    positivity = 0.0
    cauchy = 0.0
    for a in range(n):
        M = F[:, :, a]
        H = (M + M.conj().T) / 2
        evals = np.linalg.eigvalsh(H)
        positivity = max(positivity, float(max(0.0, -evals.min())))
        # Cauchy-Schwarz consequence of positivity: |F_rs|^2 <= F_rr F_ss
        for r in range(n):
            for s in range(n):
                viol = abs(M[r, s]) ** 2 - diag[r, a].real * diag[s, a].real
                cauchy = max(cauchy, float(max(0.0, viol)))
    return FPropertyReport(
        normalization=normalization,
        bounds=bounds,
        symmetry=symmetry,
        positivity=positivity,
        cauchy_schwarz=cauchy,
        tol=tol,
    )
