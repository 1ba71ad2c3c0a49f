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
from dataclasses import dataclass, fields
from typing import Iterator, Sequence

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
SECTOR_STATE_TOL = 1e-10
WEIGHT_FLOOR = 1e-12
PROPERTY_TOL = 1e-9
#: hard cap on the composite dimension n * dim_K served by the dense backend
DENSE_CAP = 2 ** 14
#: rows (and columns) of the blocks in which the structural gates scan a matrix:
#: a 64 x 64 complex tile is 64 kB, so the temporaries of a gate stay cache-sized
_TILE = 64


def _as_operator(m, name: str, vector_ok: bool = False) -> np.ndarray:
    a = np.asarray(m)
    a = a.astype(np.result_type(a, float), copy=False)  # float64 if real, else complex128
    if not (vector_ok and a.ndim == 1) and (a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise StructuralError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _diagonal_of(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of ``a``, or of every matrix of a stack ``a``, if no matrix has a
    nonzero off-diagonal entry, else None; a vector is its own diagonal.

    Nonzeros are counted over ``_TILE`` rows at a time, of every matrix of a
    stack, against the diagonal entries in those rows: the first block with
    more gives None without reading the rest.
    """
    if a.ndim == 1:
        return a
    diag = a.diagonal(axis1=-2, axis2=-1)
    for i in range(0, a.shape[-1], _TILE):
        if np.count_nonzero(a[..., i:i + _TILE, :]) > np.count_nonzero(diag[..., i:i + _TILE]):
            return None
    return diag


def _check_hermitian(a: np.ndarray, name: str) -> None:
    """Reject ``a`` if ``max |a - a^dag|`` is not within ``HERMITIAN_TOL`` (NaN fails).

    A vector, and a matrix with no nonzero off-diagonal entry, is judged by
    its diagonal alone; any other matrix by ``a^dag - a`` tile by tile: for
    each pair of ``_TILE``-square tiles with ``I <= J``, ``a[J, I]^dag - a[I, J]``,
    whose mirror tile ``(J, I)`` holds the same magnitudes.  Both give the
    same magnitudes, NaN and inf included, with no full-size temporary.
    """
    diag = _diagonal_of(a)
    if diag is not None:
        tiles = [diag.conj() - diag]
    else:
        n = len(a)
        tiles = (a[j:j + _TILE, i:i + _TILE].T.conj() - a[i:i + _TILE, j:j + _TILE]
                 for i in range(0, n, _TILE) for j in range(i, n, _TILE))
    dev = np.max([np.abs(tile).max(initial=0.0) for tile in tiles], initial=0.0)
    if not dev <= HERMITIAN_TOL:
        raise StructuralError(f"{name} is not Hermitian: max deviation {dev:.3e} > {HERMITIAN_TOL:.0e}")


def _check_positive_semidefinite(a: np.ndarray, name: str) -> None:
    """Reject a Hermitian matrix with an eigenvalue below ``-STATE_TOL``.

    A vector, or a diagonal ``a`` (no nonzero off-diagonal entry), has the
    real parts of its diagonal as its spectrum, read off directly; any other
    has its lowest taken by ``eigvalsh``.  A NaN entry fails the gate.
    """
    diag = _diagonal_of(a)
    if diag is not None:
        lowest = diag.real.min()
    else:
        H = (a + a.conj().T) / 2
        # LAPACK diagonalises NaN entries without a word
        lowest = np.linalg.eigvalsh(H).min() if np.isfinite(H).all() else np.nan
    if not lowest >= -STATE_TOL:
        raise StructuralError(f"{name} has negative eigenvalue {lowest:.3e}")


def _amplitudes(c, n: int | None = None) -> np.ndarray:
    vec = np.asarray(c, dtype=complex).ravel()
    if n is not None and vec.size != n:
        raise PreconditionError(f"expected {n} amplitudes, got {vec.size}")
    norm = float((np.abs(vec) ** 2).sum())
    if not abs(norm - 1.0) <= 1e-9:
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
        a = _as_operator(self.matrix, "observable")
        _check_hermitian(a, "observable")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class PhaseCellPartition:
    """Orthogonal projectors that resolve the apparatus space into phase cells.

    ``cell_of[i]`` is the cell of basis vector ``i``; the basis is the
    apparatus' own unless ``basis`` gives a unitary whose columns are the basis
    vectors.  The projector of cell ``a`` is the sum of ``|q_i><q_i|`` over
    its members, so the cells are mutually orthogonal and complete by
    construction: ``P_a P_b = delta_ab P_a`` and ``sum_a P_a = I``.  An empty
    cell is legal.
    """

    def __init__(self, cell_of, cell_count: int, basis=None, labels: Sequence[str] | None = None):
        cell_of = np.array(cell_of)
        self.labels = tuple(labels) if labels is not None else tuple(str(a) for a in range(cell_count))
        if len(self.labels) != cell_count:
            raise StructuralError("cell labels must match the number of cells")
        if cell_of.ndim != 1 or cell_of.dtype.kind not in "iu" or not (
                cell_of.size and 0 <= cell_of.min() and cell_of.max() < cell_count):
            raise StructuralError(f"cell indices must be integers in [0, {cell_count})")
        if basis is not None:
            basis = np.array(basis, dtype=complex)
            if basis.shape != (cell_of.size, cell_of.size):
                raise StructuralError(f"cell basis of shape {basis.shape} for {cell_of.size} indices")
            dev = np.abs(basis.conj().T @ basis - np.eye(cell_of.size)).max()
            if not dev <= HERMITIAN_TOL:
                raise StructuralError(f"cell basis is not unitary: max deviation {dev:.3e}")
            basis.setflags(write=False)
        cell_of.setflags(write=False)
        self.cell_of, self.basis = cell_of, basis

    @classmethod
    def from_groups(cls, groups: Sequence[Sequence[int]], dim: int,
                    labels: Sequence[str] | None = None) -> "PhaseCellPartition":
        """Cells given as groups of basis indices, which must cover ``range(dim)`` once."""
        groups = [np.array([int(i) for i in group], dtype=int) for group in groups]
        if any(idx.size and (idx.min() < 0 or idx.max() >= dim) for idx in groups):
            raise StructuralError("cell basis index out of range")
        if any(np.unique(idx).size < idx.size for idx in groups):
            raise StructuralError("cells repeat a basis index within a group")
        cell_of = np.full(int(dim), -1)
        for a, idx in enumerate(groups):
            if (cell_of[idx] != -1).any():
                raise StructuralError("cells overlap: shared basis indices")
            cell_of[idx] = a
        if (cell_of == -1).any():
            raise StructuralError("cells do not resolve the identity: missing basis indices")
        return cls(cell_of, len(groups), labels=labels)

    @property
    def dim(self) -> int:
        return self.cell_of.size

    @property
    def cell_count(self) -> int:
        return len(self.labels)

    def members(self, alpha: int) -> np.ndarray:
        """The basis indices of cell ``alpha``, ascending."""
        return np.flatnonzero(self.cell_of == alpha)

    def as_matrix(self, alpha: int) -> np.ndarray:
        m = self.members(alpha)
        if self.basis is None:
            P = np.zeros((self.dim, self.dim), dtype=complex)
            P[m, m] = 1.0
            return P
        return self.basis[:, m] @ self.basis[:, m].conj().T

    def trace_all(self, X: np.ndarray) -> np.ndarray:
        """``Tr(X P_alpha)`` for every cell.  In the apparatus' own basis a cell sums
        its members' diagonal entries in ascending order, and ``X`` may be its diagonal."""
        if self.basis is None:
            diag = X if X.ndim == 1 else X.diagonal()
            return np.array([diag[self.members(a)].sum() for a in range(self.cell_count)])
        return np.array([np.einsum("ij,ji->", X, self.as_matrix(a)) for a in range(self.cell_count)])


@dataclass(frozen=True)
class Apparatus:
    """Finite-dimensional apparatus: free Hamiltonian, sector couplings,
    initial state and phase-cell partition.  Each of ``K``, ``V[r]`` and
    ``Omega`` is a square matrix or a 1-D array, which stands for the diagonal
    matrix it holds and meets the same gates with the same numbers.  A real
    one stays float64 through the gates and the propagator splits; any other is complex128."""

    K: np.ndarray
    V: tuple[np.ndarray, ...]
    Omega: np.ndarray
    cells: PhaseCellPartition

    def __post_init__(self):
        K = _as_operator(self.K, "apparatus Hamiltonian K", vector_ok=True)
        _check_hermitian(K, "apparatus Hamiltonian K")
        dim = K.shape[0]
        Vs = []
        for r, v in enumerate(self.V):
            v = _as_operator(v, f"coupling V[{r}]", vector_ok=True)
            if v.shape[0] != dim:
                raise StructuralError(f"coupling V[{r}] dimension {v.shape[0]} != dim_K {dim}")
            _check_hermitian(v, f"coupling V[{r}]")
            v.setflags(write=False)
            Vs.append(v)
        Omega = _as_operator(self.Omega, "initial state Omega", vector_ok=True)
        if Omega.shape[0] != dim:
            raise StructuralError("initial state Omega dimension mismatch")
        _check_hermitian(Omega, "initial state Omega")
        tr = complex(np.trace(Omega) if Omega.ndim == 2 else Omega.sum())
        if not abs(tr - 1.0) <= STATE_TOL:
            raise StructuralError(f"Tr Omega = {tr!r}, expected 1")
        _check_positive_semidefinite(Omega, "Omega")
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
class EvolvedSectorStates:
    """All sector states ``U_r(t)^dag Omega U_s(t)`` at one time, kept by the
    propagators ``propagators[r] = U_r`` (vectors as in :func:`_adjoint_times`), the
    initial state ``Omega`` and the block diagonals ``diagonals[r, s]``; no left
    factor ``U_r^dag Omega`` is kept."""

    t: float
    propagators: tuple[np.ndarray, ...]
    Omega: np.ndarray
    diagonals: np.ndarray  # shape (n, n, dim_K)

    @property
    def n(self) -> int:
        return self.diagonals.shape[0]

    @property
    def dim_K(self) -> int:
        return self.diagonals.shape[2]

    def left(self, r: int) -> np.ndarray:
        """The left factor ``U_r^dag Omega``, with an ``Omega`` that has no nonzero
        off-diagonal entry taken by its diagonal."""
        diag = _diagonal_of(self.Omega)
        return _adjoint_times(self.propagators[r], self.Omega if diag is None else diag)

    def block(self, r: int, s: int) -> np.ndarray:
        """The full block ``U_r^dag Omega U_s``."""
        return _as_matrix(_times(self.left(r), self.propagators[s]))

    def validate(self) -> None:
        """Reject states whose diagonal blocks are not of unit trace, or whose blocks
        ``[r, s]`` and ``[s, r]`` are not adjoint on the diagonal, to ``SECTOR_STATE_TOL``."""
        n, d = self.n, self.diagonals
        for r in range(n):
            tr = complex(d[r, r].sum())
            if not abs(tr - 1.0) <= SECTOR_STATE_TOL:
                raise StructuralError(f"Tr Omega[{r},{r}] = {tr!r}, expected 1")
            for s in range(r, n):  # the pair (s, r) is the same condition
                dev = np.abs(d[r, s].conj() - d[s, r]).max()
                if not dev <= SECTOR_STATE_TOL:
                    raise StructuralError(f"sector states [{r},{s}] are not adjoint-paired: {dev:.3e}")


@dataclass(frozen=True)
class FTensor:
    """Pointer-statistics tensor ``values[r, s, alpha]`` at evaluation time t.

    Diagonal slices ``values[r, r, :]`` are the cell probabilities given the
    microstate r; off-diagonal slices measure the residual coherence between
    sectors as seen by the cells.

    ``log_magnitude`` is ``log |values|`` (``-inf`` for an exact zero), unless a
    log-space backend passes its own, which stay finite where ``values`` underflow.
    """

    values: np.ndarray
    t: float
    log_magnitude: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.values, dtype=complex)
        if a.ndim != 3 or a.shape[0] != a.shape[1] or a.shape[0] != a.shape[2]:
            raise StructuralError(f"F tensor must have shape (n, n, n), got {a.shape}")
        if self.log_magnitude is None:
            with np.errstate(divide="ignore"):
                lm = np.log(np.abs(a))
        else:
            lm = np.asarray(self.log_magnitude, dtype=float)
            if lm.shape != a.shape:
                raise StructuralError("log magnitudes must match the tensor shape")
        a.setflags(write=False)
        lm.setflags(write=False)
        object.__setattr__(self, "values", a)
        object.__setattr__(self, "log_magnitude", lm)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def underflow(self) -> np.ndarray:
        """Entries nonzero only in log space: a zero value with a finite log magnitude."""
        return (self.values == 0) & (self.log_magnitude > -np.inf)

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

    @property
    def passed(self) -> bool:
        return self.worst < PROPERTY_TOL

    @property
    def worst(self) -> float:
        """The largest residual, NaN if any is NaN."""
        return float(np.max([self.normalization, self.bounds, self.symmetry,
                             self.positivity, self.cauchy_schwarz]))

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def sector_hamiltonians(system: MicroSystem, apparatus: Apparatus) -> Iterator[np.ndarray]:
    """Per-sector apparatus Hamiltonians ``K_r = K + V_r + energy_r * I``.

    Parameters
    ----------
    system : MicroSystem
        Supplies the energy level added to each sector.
    apparatus : Apparatus
        Supplies the free Hamiltonian and the sector couplings.

    Returns
    -------
    iterator of ndarray
        One Hermitian ``dim_K x dim_K`` matrix per microsystem eigenstate, or
        its diagonal where ``K`` and ``V_r`` are both vectors, each built when
        reached and held by nothing but its consumer; the sector count is
        checked on the call.
    """
    if apparatus.n_sectors != system.n:
        raise StructuralError(
            f"apparatus carries {apparatus.n_sectors} couplings for a "
            f"{system.n}-dimensional microsystem")
    return (_sector_hamiltonian(apparatus.K, V, energy) for V, energy in zip(apparatus.V, system.energies))


def _sector_hamiltonian(K: np.ndarray, V: np.ndarray, energy: float) -> np.ndarray:
    """``K + V + energy * I``, a vector where ``K`` and ``V`` both are.  Its caller's
    generator yields the result without naming it, so a suspended generator holds no ``K_r``."""
    diag = (K if K.ndim == 1 else K.diagonal()) + (V if V.ndim == 1 else V.diagonal()) + energy
    if K.ndim == V.ndim == 1:
        return diag
    # off the diagonal, a vector's np.diag form and a dense identity would add 0.0
    Kr = K + V if K.ndim == V.ndim else (K if K.ndim == 2 else V) + 0.0
    np.fill_diagonal(Kr, diag)
    return Kr


def _propagator(K: np.ndarray, t: float) -> np.ndarray:
    """``exp(i K_k t)`` for every Hermitian block of a stack ``K``, shape ``(m, d, d)``;
    a stack of vectors, shape ``(m, d)``, stands for its diagonal matrices.
    One route, chosen from the entries alone, serves the whole stack:

    - no nonzero off-diagonal entry: the vectors ``exp(i t diag K_k)``;
    - ``d`` even and every block exactly centrosymmetric (``K_k == J K_k J``,
      ``J`` the exchange matrix, tested as top half rows against the bottom
      half reversed, each entry once): ``K_k = [[A, B], [J B J, J A J]]`` splits
      into the Hermitian ``E_k = A + BJ`` and ``O_k = A - BJ`` (Cantoni &
      Butler, Linear Algebra Appl. 13 (1976) 275-288), written into one
      ``(2m, d/2, d/2)`` stack that takes its own route; with ``Ue``, ``Uo``
      their propagators, ``exp(i K_k t) = 1/2 [[Ue + Uo, (Ue - Uo) J], [J (Ue - Uo), J (Ue + Uo) J]]``;
    - otherwise: one stacked eigendecomposition, ``(V e^{i Lambda t}) V^dag``.

    A chain's ``K_r`` commutes with the global flip, the index reversal, and
    so do its halves at every level: it splits one level at a time down to
    diagonal blocks, never reaching ``eigh``.  NaN is never equal to itself:
    a stack holding one is not split.  A real stack splits in real arithmetic
    and turns complex at its leaves, which carry the ``1/2`` of every level:
    a power of two commutes with rounding.

    The input stack is released at its first split: once a stack is split, no
    name refers to it.  The reassembly levels alternate between two buffers, one
    of the result's size and one of half of it, so each level is a view and
    none is allocated on its own; the arithmetic of each level is unchanged.
    """
    splits = []  # the block count m of every stack that was split
    while (diag := K if K.ndim == 2 else _diagonal_of(K)) is None:
        m, (h, odd) = len(K), divmod(K.shape[1], 2)
        if odd or not np.array_equal(K[:, :h], K[:, h:][:, ::-1, ::-1]):
            evals, vecs = np.linalg.eigh(K)
            U = (vecs * np.exp(1j * evals * t)[:, None]) @ vecs.conj().transpose(0, 2, 1)
            break
        A, BJ = K[:, :h, :h], K[:, :h, h:][:, :, ::-1]
        K = np.empty((2 * m, h, h), dtype=K.dtype)
        np.add(A, BJ, out=K[:m])
        np.subtract(A, BJ, out=K[m:])
        del A, BJ  # the last views of the stack just split
        splits.append(m)
    else:
        U = np.exp(1j * t * diag.real)
    U *= 0.5 ** len(splits)  # the 1/2 of every reassembly level, at the leaves
    if not splits:
        return U
    # level k of the reassembly (0 the result, len(splits) the leaves) has size / 2^k entries
    size = len(U) * U.shape[1] ** 2 << len(splits)
    buffers = np.empty(size, dtype=complex), np.empty(size // 2, dtype=complex)
    if U.ndim == 2:  # diagonal blocks as full matrices
        U, diag = buffers[len(splits) % 2][:size >> len(splits)].reshape(U.shape + U.shape[1:]), U
        U.fill(0)
        U.reshape(len(U), -1)[:, ::U.shape[1] + 1] = diag
    for level in reversed(range(len(splits))):
        m, h = splits[level], U.shape[1]
        Ue, Uo = U[:m], U[m:]
        U = buffers[level % 2][:size >> level].reshape(m, 2 * h, 2 * h)
        np.add(Ue, Uo, out=U[:, :h, :h])
        np.subtract(Ue, Uo, out=U[:, :h, h:][:, :, ::-1])
        U[:, h:] = U[:, :h][:, ::-1, ::-1]  # the propagator is centrosymmetric too
    return U


def _as_matrix(U: np.ndarray) -> np.ndarray:
    """A propagator from :func:`_propagator` as a full matrix."""
    return np.diag(U) if U.ndim == 1 else U


def _adjoint_times(U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``U^dag X`` for a propagator from :func:`_propagator` and a matrix ``X``.

    A vector stands for the diagonal matrix it holds, as a factor and as the
    result; only two full matrices make a matrix product.
    """
    if U.ndim == 1:
        return U.conj() * X if X.ndim == 1 else U.conj()[:, None] * X
    left = U.T.conj()  # U^dag, formed once: a vector scales its columns in place
    return left @ X if X.ndim == 2 else np.multiply(left, X, out=left)


def _times(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``X U`` for a propagator from :func:`_propagator`, with vectors as in
    :func:`_adjoint_times`."""
    if X.ndim == 1:
        return X * U if U.ndim == 1 else X[:, None] * U
    return X * U if U.ndim == 1 else X @ U


def _diagonal_of_product(X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``diag(X U)`` for a full matrix ``X`` and a propagator from :func:`_propagator`,
    without the product."""
    return X.diagonal() * U if U.ndim == 1 else np.einsum("ij,ji->i", X, U)


def _sector_diagonal(Ur: np.ndarray, omega: np.ndarray, Us: np.ndarray) -> np.ndarray:
    """``diag(U_r^dag Omega U_s)`` for a diagonal ``Omega`` given as its diagonal
    ``omega`` and two propagators from :func:`_propagator`:
    ``sum_j conj(U_r[j, i]) U_s[j, i] omega_j``.

    A vector propagator reads only the other one's diagonal.  Two full ones
    are read ``_TILE`` contiguous rows at a time, through one reused tile:
    neither ``U_r^dag`` nor a full-size product is formed.
    """
    if Ur.ndim == 1 or Us.ndim == 1:
        return (Ur if Ur.ndim == 1 else Ur.diagonal()).conj() * (Us if Us.ndim == 1 else Us.diagonal()) * omega
    d = len(omega)
    out = np.zeros(d, dtype=complex)
    tile = np.empty((min(_TILE, d), d), dtype=complex)
    for i in range(0, d, _TILE):
        rows = tile[:min(_TILE, d - i)]
        np.conjugate(Ur[i:i + _TILE], out=rows)
        rows *= Us[i:i + _TILE]
        rows *= omega[i:i + _TILE, None]
        out += rows.sum(axis=0)
    return out


def evolve_sectors(system: MicroSystem, apparatus: Apparatus, t: float) -> EvolvedSectorStates:
    """Evolve the apparatus state through every pair of sector propagators.

    The propagators are ``U_r(t) = exp(i K_r t)`` and the block ``(r, s)``
    of the result is ``U_r(t)^dag Omega U_s(t)``; diagonal blocks are the
    apparatus states conditioned on the microsystem eigenstate.  Each
    ``K_r`` goes to :func:`_propagator` as a stack of one, which holds the
    only reference to it: a diagonal one (a vector, or no nonzero
    off-diagonal entry) gives the vector ``exp(i t diag K_r)``, whose products
    are row and column scalings; a chain's is split one level at a time on
    stacked blocks down to diagonal ones, and released at its first split;
    random instances take ``eigh``.

    The blocks are kept by the propagators and ``Omega``.  Only their
    diagonals, every number cells in the apparatus' own basis read, are
    formed, each from its own pair of propagators, so the adjoint pairing
    that ``validate`` checks compares independently computed diagonals.  A
    1-D ``Omega``, or one with no nonzero off-diagonal entry, enters by its
    diagonal: ``diag(U_r^dag Omega U_s)`` is summed over row tiles of the two
    propagators (:func:`_sector_diagonal`), with no left factor.  Any other
    ``Omega`` is multiplied in full: ``U_r^dag Omega``, formed once per
    sector, gives the diagonals of its row.  A full block is formed only for
    cells in a rotated basis.  Every route is unitary to roundoff; the
    full-composite oracle (``runner.composite_cross_check``) keeps its own
    eigendecomposition.
    """
    if not math.isfinite(t):
        raise PreconditionError(f"time must be finite, got {t!r}")
    if system.n * apparatus.dim_K > DENSE_CAP:
        raise CapacityError(
            f"dense backend cap exceeded: n * dim_K = {system.n * apparatus.dim_K} "
            f"> {DENSE_CAP}; use a factorized backend")
    hams = sector_hamiltonians(system, apparatus)
    Us = []
    for r in range(system.n):
        try:  # next(hams)[None] is bound by _propagator alone, which drops it at its first split
            Us.append(_propagator(next(hams)[None], t)[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed for sector {r}: {exc}") from exc
    Omega = apparatus.Omega
    diag = _diagonal_of(Omega)
    if diag is None:
        diagonals = np.array([[_diagonal_of_product(L, U) for U in Us]
                              for L in (_adjoint_times(U, Omega) for U in Us)])
    else:
        diagonals = np.array([[_sector_diagonal(Ur, diag, U) for U in Us] for Ur in Us])
    states = EvolvedSectorStates(t=float(t), propagators=tuple(Us), Omega=Omega, diagonals=diagonals)
    states.validate()
    return states


def f_tensor(states: EvolvedSectorStates, cells: PhaseCellPartition) -> FTensor:
    """Trace every evolved sector state against every phase-cell projector: in the
    apparatus' own basis from the block diagonals alone, in a rotated basis from full blocks."""
    if cells.dim != states.dim_K:
        raise StructuralError(
            f"partition dimension {cells.dim} != apparatus dimension {states.dim_K}")
    n = states.n
    if cells.cell_count != n:
        raise StructuralError(
            f"partition has {cells.cell_count} cells; the pointer correspondence "
            f"requires exactly n = {n}")
    if cells.basis is None:
        values = [[cells.trace_all(d) for d in row] for row in states.diagonals]
    else:  # each left factor U_r^dag Omega formed once, for its row of blocks
        values = [[cells.trace_all(_as_matrix(_times(L, U))) for U in states.propagators]
                  for L in map(states.left, range(n))]
    return FTensor(values=np.array(values, dtype=complex), t=states.t)


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
    if not abs(total.imag) <= 1e-10:
        raise NumericalError(f"expectation has imaginary residual {total.imag:.3e}")
    return float(total.real)


def pointer_weights(f: FTensor, c) -> np.ndarray:
    """Probability of each pointer cell of one tensor: ``pointer_weight_stack`` of one."""
    (w,), failed = pointer_weight_stack(f.values[None], c)
    if failed:
        raise failed[0]
    return w


def pointer_weight_stack(values: np.ndarray, c) -> tuple[np.ndarray, dict[int, NumericalError]]:
    """Probability of each pointer cell for the amplitudes ``c``, for each tensor of
    a stack ``values[s]``, and by index the error of each tensor whose weights are
    not real, fall below the negativity floor or do not sum to 1.  Cross-sector
    entries pair with ``Tr |u_r><u_s| = 0`` on the microsystem side and drop out:
    a cell's weight is the amplitude-squared mixture of the diagonal slices."""
    vec = _amplitudes(c, values.shape[-1])
    w = np.einsum("r,sra->sa", np.abs(vec) ** 2, np.einsum("srra->sra", values))
    imag, w = np.abs(w.imag).max(axis=1), w.real
    low = w.min(axis=1)
    w = np.clip(w, 0.0, None)
    failed = {}
    for s, (im, lo, total) in enumerate(zip(imag.tolist(), low.tolist(), w.sum(axis=1).tolist())):
        if not im <= 1e-10:
            failed[s] = NumericalError("pointer weights have a non-real component")
        elif not lo >= -WEIGHT_FLOOR:
            failed[s] = NumericalError(f"pointer weight {lo:.3e} below the negativity floor")
        elif not abs(total - 1.0) <= 1e-10:
            failed[s] = NumericalError(f"pointer weights sum to {total!r}")
    return w, failed


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
    if not w[alpha] > WEIGHT_FLOOR:
        raise NullMacrostateError(
            f"conditioning on a null macrostate: w[{alpha}] = {float(w[alpha])!r}")
    numer = sector_pair_expectations(f, c, observable)[alpha]
    value = numer / w[alpha]
    if not abs(value.imag) <= 1e-10:
        raise NumericalError(f"conditional expectation has imaginary residual {value.imag:.3e}")
    return float(value.real)


def check_f_properties(f: FTensor) -> FPropertyReport:
    """Measure the worst violation of each algebraic tensor identity.

    Checks, per microstate and cell: unit normalisation of the diagonal
    slices, their confinement to [0, 1] with vanishing imaginary part,
    Hermitian symmetry under (r, s) exchange, positive semidefiniteness of
    each cell's sector matrix, and the Cauchy-Schwarz bound it implies.
    Violations are reported, never raised; a NaN entry makes every residual
    it enters NaN, which fails.
    """
    F = f.values
    diag = np.einsum("rra->ra", F)
    d = diag.real
    with np.errstate(all="ignore"):
        normalization = float(np.abs(diag.sum(axis=1) - 1.0).max())
        bounds = float(np.max([np.abs(diag.imag).max(),
                               *np.maximum([-d.min(), d.max() - 1.0], 0.0)]))
        symmetry = float(np.abs(F - F.conj().transpose(1, 0, 2)).max())
        H = ((F + F.conj().transpose(1, 0, 2)) / 2).transpose(2, 0, 1)  # per cell
        positivity = np.maximum(-np.linalg.eigvalsh(H).min(axis=1), 0.0)
        positivity[np.isnan(H).any(axis=(1, 2))] = np.nan  # eigvalsh may return numbers
        # Cauchy-Schwarz consequence of positivity: |F_rs|^2 <= F_rr F_ss, with
        # |F_rs|^2 by the scalar power: numpy's array square rounds some one ulp apart
        square = np.array([abs(z) ** 2 for z in F.ravel()]).reshape(F.shape)
        cauchy = np.maximum(square - d[:, None, :] * d[None, :, :], 0.0)
    return FPropertyReport(normalization, bounds, symmetry, float(positivity.max()),
                           float(cauchy.max()))
