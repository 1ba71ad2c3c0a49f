"""Seeded random instances of the generic composite model.

The verify suite and the tests draw their dense microsystem/apparatus pairs,
states, partitions and amplitudes from here.  A partition holds the cell of
every basis index, in the apparatus' own basis or, for rotated cells, in the
columns of a random unitary.  Hermitian matrices, densities and rotated
cells are complex and generic: no sector Hamiltonian is diagonal or
centrosymmetric, so each takes the ``eigh`` route of
:func:`core.evolve_sectors`, and each ``Omega`` meets the ``eigvalsh``
positivity gate.
"""

from __future__ import annotations

import numpy as np

from .core import Apparatus, MicroSystem, PhaseCellPartition


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_index_partition(rng: np.random.Generator, dim: int, n: int) -> PhaseCellPartition:
    """``n`` nonempty cells of basis indices: a random permutation cut at random places."""
    perm = rng.permutation(dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    cell_of = np.empty(dim, dtype=int)
    cell_of[perm] = np.repeat(np.arange(n), np.diff(cuts, prepend=0, append=dim))
    return PhaseCellPartition(cell_of, n)


def random_rotated_partition(rng: np.random.Generator, dim: int, n: int) -> PhaseCellPartition:
    """The cells of :func:`random_index_partition` in a random unitary basis."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(raw)
    return PhaseCellPartition(random_index_partition(rng, dim, n).cell_of, n, basis=q)


def random_dense_instance(rng: np.random.Generator, n: int | None = None,
                          dim: int | None = None, rotated_cells: bool = False):
    """One random microsystem/apparatus pair with a random evaluation time."""
    n = int(n if n is not None else rng.choice([2, 3, 4]))
    dim = int(dim if dim is not None else rng.choice([4, 8, 16]))
    micro = MicroSystem(
        energies=tuple(rng.normal(size=n)),
        labels=tuple(f"u{r}" for r in range(n)),
    )
    cells = (random_rotated_partition if rotated_cells else random_index_partition)(rng, dim, n)
    apparatus = Apparatus(
        K=random_hermitian(rng, dim),
        V=tuple(random_hermitian(rng, dim) for _ in range(n)),
        Omega=random_density(rng, dim),
        cells=cells,
    )
    t = float(rng.uniform(0.2, 2.0))
    return micro, apparatus, t


def random_amplitudes(rng: np.random.Generator, n: int, floor: float = 0.0) -> np.ndarray:
    while True:
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c /= np.linalg.norm(c)
        if floor == 0.0 or np.abs(c).min() >= floor:
            return c
