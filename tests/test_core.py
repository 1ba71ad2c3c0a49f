import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from pointer_cell_sim import core, runner
from pointer_cell_sim.coleman_hepp import (ChainSpec, build_dense, factorized_f_tensor, passed_sites, polarized_site,
                                          site_rotation)
from pointer_cell_sim.errors import (
    NullMacrostateError,
    NumericalError,
    PreconditionError,
    StructuralError,
)
from pointer_cell_sim.instances import (
    random_amplitudes,
    random_dense_instance,
    random_density,
    random_hermitian,
    random_index_partition,
)

from oracles import composite_expect, dense_sector_hams, full_composite_phi_t


def make_micro(energies):
    return core.MicroSystem(energies=tuple(energies),
                            labels=tuple(f"u{i}" for i in range(len(energies))))


def simple_apparatus(dim, n, rng=None, K=None, V=None, Omega=None):
    rng = rng or np.random.default_rng(0)
    K = K if K is not None else np.zeros((dim, dim), dtype=complex)
    V = V if V is not None else tuple(np.zeros((dim, dim), dtype=complex) for _ in range(n))
    Omega = Omega if Omega is not None else random_density(rng, dim)
    cells = random_index_partition(rng, dim, n)
    return core.Apparatus(K=K, V=tuple(V), Omega=Omega, cells=cells)


class TestTypes:
    def test_microsystem_validation(self):
        with pytest.raises(StructuralError):
            core.MicroSystem(energies=(), labels=())
        with pytest.raises(StructuralError):
            core.MicroSystem(energies=(1.0, 2.0), labels=("a",))
        with pytest.raises(StructuralError):
            core.MicroSystem(energies=(1.0, 2.0), labels=("a", "a"))

    def test_observable_hermiticity(self):
        with pytest.raises(StructuralError):
            core.ObservableS(matrix=np.array([[0, 1], [0, 0]], dtype=complex))
        core.ObservableS(matrix=np.array([[0, 1j], [-1j, 0]]))

    def test_partition_validation(self):
        core.PhaseCellPartition.from_groups([[0, 1], [2]], 3)
        with pytest.raises(StructuralError):
            core.PhaseCellPartition.from_groups([[0, 1], [1, 2]], 3)
        with pytest.raises(StructuralError):
            core.PhaseCellPartition.from_groups([[0]], 2)
        with pytest.raises(StructuralError, match="^cells repeat a basis index within a group$"):
            core.PhaseCellPartition.from_groups([[0, 0], [1]], 2)

    def test_partition_matrix_form(self, rng):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(raw)
        part = core.PhaseCellPartition([0, 0, 1, 1], 2, basis=q, labels=("a", "b"))
        assert part.labels == ("a", "b")
        assert np.linalg.matrix_rank(part.as_matrix(0)) == 2
        X = random_hermitian(rng, 4)
        assert_allclose(part.trace_all(X).sum(), np.trace(X), atol=1e-12)
        broken = q.copy()
        broken[:, 2] = q[:, 1]  # the projectors of the two cells overlap
        with pytest.raises(StructuralError, match="^cell basis is not unitary"):
            core.PhaseCellPartition([0, 0, 1, 1], 2, basis=broken)

    def test_partition_gates(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        cell_of = [0, 1, 1, 0]
        for scale, unitary in ((1 + 1e-9, False), (1 + 1e-15, True)):
            scaled = q.copy()
            scaled[:, 2] *= scale
            if unitary:
                core.PhaseCellPartition(cell_of, 2, basis=scaled)
            else:
                with pytest.raises(StructuralError, match="^cell basis is not unitary"):
                    core.PhaseCellPartition(cell_of, 2, basis=scaled)
        with pytest.raises(StructuralError, match="^cell basis of shape"):
            core.PhaseCellPartition(cell_of, 2, basis=q[:, :3])
        for bad in ([0, 2, 1, 0], [0, -1, 1, 0]):
            with pytest.raises(StructuralError, match="^cell indices must be integers in"):
                core.PhaseCellPartition(bad, 2)
        empty = core.PhaseCellPartition([0, 0, 2, 2], 3, basis=q)
        assert empty.members(1).size == 0
        assert not empty.as_matrix(1).any()
        assert_allclose(sum(empty.as_matrix(a) for a in range(3)), np.eye(4), atol=1e-12)

    def test_apparatus_validation(self, rng):
        dim = 4
        with pytest.raises(StructuralError):
            simple_apparatus(dim, 2, Omega=np.eye(dim, dtype=complex))  # trace 4
        with pytest.raises(StructuralError):
            simple_apparatus(dim, 2, K=random_hermitian(rng, dim) + 1e-6 * 1j * np.eye(dim))


class TestSectorHamiltonians:
    def test_zero_coupling_energy_shift(self):
        micro = make_micro([1.0, 2.0])
        app = simple_apparatus(4, 2)
        K1, K2 = core.sector_hamiltonians(micro, app)
        assert_allclose(K1, np.eye(4))
        assert_allclose(K2, 2 * np.eye(4))

    def test_degenerate_energies_reduce_to_K(self, rng):
        micro = make_micro([0.0, 0.0, 0.0])
        K = random_hermitian(rng, 5)
        app = simple_apparatus(5, 3, rng=rng, K=K)
        for Kr in core.sector_hamiltonians(micro, app):
            assert_allclose(Kr, K)

    def test_random_output_hermitian(self, rng):
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(4, 3, rng=rng, K=random_hermitian(rng, 4),
                               V=[random_hermitian(rng, 4) for _ in range(3)])
        for Kr in core.sector_hamiltonians(micro, app):
            assert np.abs(Kr - Kr.conj().T).max() < 1e-14

    def test_matches_dense_identity_bitwise(self, rng):
        # the energy goes onto the diagonal alone; off the diagonal the
        # identity would only have added 0.0
        for n, dim in ((2, 4), (3, 6), (4, 8)):
            micro = make_micro(rng.normal(size=n))
            K = random_hermitian(rng, dim)
            V = [random_hermitian(rng, dim) for _ in range(n)]
            app = simple_apparatus(dim, n, rng=rng, K=K, V=V)
            for r, Kr in enumerate(core.sector_hamiltonians(micro, app)):
                ref = app.K + app.V[r] + micro.energies[r] * np.eye(dim)
                assert Kr.tobytes() == ref.tobytes()

    def test_dimension_mismatch(self, rng):
        micro = make_micro([0.0, 1.0, 2.0])
        app = simple_apparatus(4, 2, rng=rng)
        with pytest.raises(StructuralError):
            core.sector_hamiltonians(micro, app)

    def test_built_one_at_a_time(self, rng):
        micro = make_micro([0.0, 1.0, 2.0])
        app = simple_apparatus(4, 3, rng=rng)
        hams = core.sector_hamiltonians(micro, app)
        assert iter(hams) is hams  # an iterator, not a list held whole
        assert [Kr.tobytes() for Kr in hams] == [
            (app.K + V + e * np.eye(4)).tobytes() for V, e in zip(app.V, micro.energies)]


def validate_with_spectra(states):
    """``validate``, and each diagonal block's spectrum within [0, 1] to ``SECTOR_STATE_TOL``."""
    states.validate()
    tol = core.SECTOR_STATE_TOL
    for r in range(states.n):
        evals = np.linalg.eigvalsh(states.block(r, r))
        assert -tol <= evals.min() <= evals.max() <= 1.0 + tol, f"Omega[{r},{r}] spectrum outside [0, 1]"


class TestEvolveSectors:
    def test_time_zero_returns_omega(self, rng):
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(4, 2, rng=rng, K=random_hermitian(rng, 4),
                               V=[random_hermitian(rng, 4) for _ in range(2)])
        states = core.evolve_sectors(micro, app, 0.0)
        for r in range(2):
            for s in range(2):
                assert_allclose(states.block(r, s), app.Omega, atol=1e-12)

    def test_scalar_sector_phases(self, rng):
        # with V = 0 and K = 0 the propagators are pure phases
        micro = make_micro([0.7, -0.3])
        app = simple_apparatus(4, 2, rng=rng)
        t = 1.3
        states = core.evolve_sectors(micro, app, t)
        for r in range(2):
            for s in range(2):
                phase = np.exp(1j * (micro.energies[s] - micro.energies[r]) * t)
                assert_allclose(states.block(r, s), phase * app.Omega, atol=1e-12)

    def test_eigh_matches_scaled_squaring(self, rng):
        # two independent exponentiation routes must agree
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(4, 2, rng=rng, K=random_hermitian(rng, 4),
                               V=[random_hermitian(rng, 4) for _ in range(2)])
        t = 0.9
        states = core.evolve_sectors(micro, app, t)
        Ks = dense_sector_hams(micro, app)
        for r in range(2):
            for s in range(2):
                Ur = expm(1j * Ks[r] * t)
                Us = expm(1j * Ks[s] * t)
                ref = Ur.conj().T @ app.Omega @ Us
                assert np.abs(states.block(r, s) - ref).max() < 1e-9

    def test_unitarity_of_diagonal_sectors(self, rng):
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(6, 3, rng=rng, K=random_hermitian(rng, 6),
                               V=[random_hermitian(rng, 6) for _ in range(3)])
        for t in (0.1, 2.7, 40.0):
            states = core.evolve_sectors(micro, app, t)
            validate_with_spectra(states)
            for r in range(3):
                assert abs(np.trace(states.block(r, r)) - 1.0) < 1e-10
                evals = np.linalg.eigvalsh(states.block(r, r))
                assert evals.min() > -1e-10 and evals.max() < 1 + 1e-10

    @pytest.mark.parametrize("block", [(0, 1), (1, 0), (1, 2), (2, 1)])
    def test_one_sided_pairing_corruption_rejected(self, rng, block):
        # validate tests each unordered pair once; corrupting either member
        # of the pair alone must still break the adjoint pairing
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(5, 3, rng=rng, K=random_hermitian(rng, 5),
                               V=[random_hermitian(rng, 5) for _ in range(3)])
        states = core.evolve_sectors(micro, app, 0.9)
        validate_with_spectra(states)
        diagonals = states.diagonals.copy()
        diagonals[block][3] += 1e-6
        with pytest.raises(StructuralError, match="adjoint-paired"):
            dataclasses.replace(states, diagonals=diagonals).validate()

    def test_capacity_cap(self, rng):
        # n * dim_K = 2**15 exceeds the cap; must fail before materialising
        micro = make_micro(rng.normal(size=2))
        with pytest.raises(core.CapacityError):
            core.evolve_sectors(micro, _FakeApp(2 ** 14), 1.0)

    def test_infinite_time_rejected(self, rng):
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(4, 2, rng=rng)
        with pytest.raises(PreconditionError):
            core.evolve_sectors(micro, app, float("inf"))


def sector_matrices(rng, kind, dim, n):
    """K and couplings V whose sector Hamiltonians are all of one kind:
    diagonal, real symmetric or complex Hermitian."""
    def draw():
        if kind == "diagonal":
            return np.diag(rng.normal(size=dim)).astype(complex)
        if kind == "real":
            return random_hermitian(rng, dim).real.astype(complex)
        return random_hermitian(rng, dim)
    return draw(), [draw() for _ in range(n)]


class TestPropagatorRoutes:
    """Each route of ``evolve_sectors`` against the scaled-squaring reference."""

    @pytest.mark.parametrize("kind", ["diagonal", "real", "complex"])
    def test_matches_scaled_squaring(self, rng, kind):
        micro = make_micro(rng.normal(size=3))
        K, V = sector_matrices(rng, kind, 6, 3)
        app = simple_apparatus(6, 3, rng=rng, K=K, V=V)
        t = 1.7
        states = core.evolve_sectors(micro, app, t)
        Ks = dense_sector_hams(micro, app)
        for r in range(3):
            for s in range(3):
                ref = expm(1j * Ks[r] * t).conj().T @ app.Omega @ expm(1j * Ks[s] * t)
                assert np.abs(states.block(r, s) - ref).max() < 1e-12

    def test_mixed_routes_match_scaled_squaring(self, rng):
        # one diagonal sector next to a real one, as in a chain whose
        # first coupling vanishes
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(8, 2, rng=rng, V=[np.zeros((8, 8)),
                                                 random_hermitian(rng, 8).real])
        t = 0.8
        states = core.evolve_sectors(micro, app, t)
        Ks = dense_sector_hams(micro, app)
        for r in range(2):
            for s in range(2):
                ref = expm(1j * Ks[r] * t).conj().T @ app.Omega @ expm(1j * Ks[s] * t)
                assert np.abs(states.block(r, s) - ref).max() < 1e-12

    @pytest.mark.parametrize("kind, calls", [("diagonal", []),
                                             ("real", [True] * 3),
                                             ("complex", [True] * 3)])
    def test_eigendecomposition_calls(self, rng, monkeypatch, kind, calls):
        # a spy on eigh records whether each call got a complex matrix
        seen = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(np.iscomplexobj(a))
            return eigh(a, *args, **kwargs)

        micro = make_micro(rng.normal(size=3))
        K, V = sector_matrices(rng, kind, 6, 3)
        app = simple_apparatus(6, 3, rng=rng, K=K, V=V)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        core.evolve_sectors(micro, app, 1.3)
        assert seen == calls


def full_propagator(Kr, t):
    """``exp(i Kr t)`` as a full matrix, whichever route ``_propagator`` takes
    for ``Kr`` as a stack of one."""
    return core._as_matrix(core._propagator(Kr[None], t)[0])


def centrosymmetric_hermitian(rng, dim, complex_):
    """``H + J H J`` for a random Hermitian ``H``, ``J`` the exchange matrix."""
    H = random_hermitian(rng, dim)
    H = H if complex_ else H.real
    return H + H[::-1, ::-1]


def nested_centrosymmetric(rng, dim, complex_, levels):
    """A Hermitian matrix that splits into centrosymmetric halves ``levels`` times
    over: its halves ``E`` and ``O`` are drawn first, each nested one level less."""
    if levels == 0:
        H = random_hermitian(rng, dim)
        return H if complex_ else H.real
    h = dim // 2
    E, O = (nested_centrosymmetric(rng, h, complex_, levels - 1) for _ in range(2))
    K = np.empty((dim, dim), dtype=E.dtype)
    K[:h, :h] = (E + O) / 2
    K[:h, h:] = ((E - O) / 2)[:, ::-1]
    K[h:] = K[:h][::-1, ::-1]
    return K


@pytest.fixture
def eigh_calls(monkeypatch):
    """A spy on eigh: the shape of each matrix it gets and whether it is complex."""
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append((a.shape, np.iscomplexobj(a)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


class TestCentrosymmetricSplit:
    """An exactly centrosymmetric ``K_r`` splits into half-size eigenproblems."""

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("dim", [6, 8])
    def test_one_split_matches_scaled_squaring(self, rng, eigh_calls, dim, complex_):
        K = centrosymmetric_hermitian(rng, dim, complex_)
        t = 1.3
        assert np.abs(full_propagator(K, t) - expm(1j * K * t)).max() < 1e-12
        # the halves are generic Hermitian matrices: one eigh call on a stack of two half-size blocks
        assert eigh_calls == [((2, dim // 2, dim // 2), complex_)]

    @pytest.mark.parametrize("complex_, levels, calls", [
        # three splits reach 1 x 1 blocks; a centrosymmetric Hermitian 2 x 2 is real,
        # so complex halves stop one level earlier
        (False, 3, []),
        (True, 2, [((4, 2, 2), True)]),
    ], ids=["real", "complex"])
    def test_nested_splits_match_scaled_squaring(self, rng, eigh_calls, complex_, levels, calls):
        K = nested_centrosymmetric(rng, 8, complex_, levels)
        t = 1.3
        assert np.abs(full_propagator(K, t) - expm(1j * K * t)).max() < 1e-12
        assert eigh_calls == calls

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_chain_never_reaches_eigh(self, eigh_calls, fraction):
        from pointer_cell_sim.coleman_hepp import ChainSpec
        from pointer_cell_sim.runner import dense_chain_tensor
        dense_chain_tensor(ChainSpec(N=10, m0=0.6, theta=2.5, energies=(0.3, -0.4)), fraction)
        assert eigh_calls == []

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_one_ulp_off_takes_the_full_eigh(self, rng, eigh_calls, complex_):
        # the gate is exact equality: one Hermitian pair nudged by one ulp is not split
        K = nested_centrosymmetric(rng, 8, complex_, 2)
        K[0, 1] += np.spacing(K[0, 1].real)
        K[1, 0] = np.conj(K[0, 1])
        t = 1.3
        assert np.abs(full_propagator(K, t) - expm(1j * K * t)).max() < 1e-12
        assert eigh_calls == [((1, 8, 8), complex_)]

    def test_nan_is_not_split(self, rng, eigh_calls):
        # NaN entries in mirrored places: NaN != NaN, so the full real eigh runs as
        # before, and ends as LAPACK ends it, in NaNs or a LinAlgError
        def outcome(f):
            try:
                return bool(np.isnan(f()).all())
            except np.linalg.LinAlgError:
                return "LinAlgError"

        K = nested_centrosymmetric(rng, 4, False, 2)
        K[0, 1] = K[1, 0] = K[3, 2] = K[2, 3] = np.nan
        got = outcome(lambda: core._propagator(K[None], 1.3))
        assert eigh_calls == [((1, 4, 4), False)]
        assert got == outcome(lambda: np.linalg.eigh(K)[1])

    @pytest.mark.parametrize("change", ["ulp-real", "ulp-complex", "nan"])
    def test_bottom_half_alone_is_not_split(self, rng, eigh_calls, change):
        # the test reads each entry once, from the top half or from the bottom:
        # a Hermitian pair changed in the bottom rows alone is seen there
        complex_ = change == "ulp-complex"
        K = nested_centrosymmetric(rng, 8, complex_, 2)
        if change == "nan":
            K[7, 6] = K[6, 7] = np.nan
        else:
            K[7, 6] += np.spacing(K[7, 6].real)
            K[6, 7] = np.conj(K[7, 6])
        try:
            U = core._propagator(K[None], 1.3)[0]
        except np.linalg.LinAlgError:
            U = None
        assert eigh_calls == [((1, 8, 8), complex_)]
        if change != "nan":
            assert np.abs(U - expm(1j * K * 1.3)).max() < 1e-12


class TestDenseChainOracle:
    """The chain's spin-down propagator, by stacked splits, against the product
    of its site rotations, and the memory of the dense chain oracle."""

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_propagator_is_the_product_of_site_rotations(self, monkeypatch, eigh_calls, fraction):
        spec = ChainSpec(N=10, m0=0.6, theta=2.5, energies=(0.3, -0.4))
        passed = passed_sites(spec.N, fraction)
        micro, app = build_dense(spec, passed)
        _, K1 = core.sector_hamiltonians(micro, app)
        stacks = []  # the shape of every stack whose route is chosen
        diagonal_of = core._diagonal_of

        def spy(a):
            stacks.append(a.shape)
            return diagonal_of(a)

        monkeypatch.setattr(core, "_diagonal_of", spy)
        U1 = core._propagator(K1[None], spec.t)[0]
        sites = [site_rotation(spec.theta)] * passed + [np.eye(2)] * (spec.N - passed)
        ref = np.exp(1j * spec.energies[1] * spec.t) * functools.reduce(np.kron, sites)
        assert np.abs(U1 - ref).max() < 1e-13
        assert eigh_calls == []
        assert 1 <= len(stacks) <= 11

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_memory(self, fraction):
        # in complex dim_K^2 arrays: the build holds the spin-down coupling, whose Hermitian
        # check adds tiles only; the tensor adds K_1 until its first split, then U_1 with the
        # half-size buffer of its reassembly, and the block diagonals are read from U_1 by
        # row tiles, with no U_1^dag Omega
        spec = ChainSpec(N=10, m0=0.6, theta=2.5, energies=(0.3, -0.4))
        full = 2 ** (2 * spec.N) * 16
        peaks = []
        for build in (lambda: build_dense(spec, passed_sites(spec.N, fraction)),
                      lambda: runner.dense_chain_tensor(spec, fraction)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1] / full)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.25 and peaks[1] < 2.4


    def test_oracle_agrees_with_the_factorized_tensor(self):
        # the dense diagonals are summed from the propagators' rows, so over this grid the
        # oracle stays within a few ulps of the factorized tensor
        worst = 0.0
        for theta, fraction, N in itertools.product((2.5, math.pi, 1.0), (1.0, 0.5), (8, 10, 11)):
            spec = ChainSpec(N=N, m0=0.6, theta=theta, energies=(0.3, -0.4))
            worst = max(worst, float(np.abs(runner.dense_chain_tensor(spec, fraction).values
                                            - factorized_f_tensor(spec, fraction).values).max()))
        assert worst < 2e-15


class TestDiagonalOmega:
    """A diagonal ``Omega`` enters the sector blocks by row and column scalings."""

    @pytest.mark.parametrize("kind", ["diagonal", "real", "complex", "mixed"])
    def test_blocks_match_explicit_products(self, rng, kind):
        micro = make_micro(rng.normal(size=3))
        if kind == "mixed":
            K = np.zeros((6, 6))
            V = [np.diag(rng.normal(size=6)), random_hermitian(rng, 6).real,
                 random_hermitian(rng, 6)]
        else:
            K, V = sector_matrices(rng, kind, 6, 3)
        omega = np.diag(rng.dirichlet(np.ones(6))).astype(complex)
        app = simple_apparatus(6, 3, rng=rng, K=K, V=V, Omega=omega)
        t = 1.3
        states = core.evolve_sectors(micro, app, t)
        Us = [full_propagator(Kr, t) for Kr in core.sector_hamiltonians(micro, app)]
        for r in range(3):
            for s in range(3):
                ref = Us[r].conj().T @ app.Omega @ Us[s]
                assert np.abs(states.block(r, s) - ref).max() < 1e-13

    @pytest.mark.parametrize("diagonal", [True, False])
    def test_full_left_product_only_for_a_full_omega(self, rng, monkeypatch, diagonal):
        # a spy on the left factor records whether each call multiplies two full matrices:
        # a full Omega forms one full product per sector, a diagonal one no left factor at all
        full = []
        adjoint_times = core._adjoint_times

        def spy(U, X):
            full.append(U.ndim == 2 and X.ndim == 2)
            return adjoint_times(U, X)

        micro = make_micro(rng.normal(size=2))
        K, V = sector_matrices(rng, "real", 6, 2)
        omega = (np.diag(rng.dirichlet(np.ones(6))) if diagonal
                 else random_density(rng, 6))
        app = simple_apparatus(6, 2, rng=rng, K=K, V=V, Omega=omega)
        monkeypatch.setattr(core, "_adjoint_times", spy)
        core.evolve_sectors(micro, app, 0.9)
        assert full == ([] if diagonal else [True, True])


class TestIndexCellTraces:
    """``f_tensor`` reads index cells from the block diagonals alone."""

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("kind", ["diagonal", "real", "complex", "mixed"])
    def test_traces_match_explicit_products(self, rng, kind, diagonal):
        micro = make_micro(rng.normal(size=3))
        if kind == "mixed":
            K = np.zeros((6, 6))
            V = [np.diag(rng.normal(size=6)), random_hermitian(rng, 6).real,
                 random_hermitian(rng, 6)]
        else:
            K, V = sector_matrices(rng, kind, 6, 3)
        omega = (np.diag(rng.dirichlet(np.ones(6))).astype(complex) if diagonal
                 else random_density(rng, 6))
        app = simple_apparatus(6, 3, rng=rng, K=K, V=V, Omega=omega)
        t = 1.3
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        Us = [full_propagator(Kr, t) for Kr in core.sector_hamiltonians(micro, app)]
        for r in range(3):
            for s in range(3):
                ref = app.cells.trace_all(Us[r].conj().T @ app.Omega @ Us[s])
                assert np.abs(f.values[r, s] - ref).max() < 1e-13

    def test_rotated_cells_match_explicit_products(self, rng):
        micro, app, t = random_dense_instance(rng, n=3, dim=8, rotated_cells=True)
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        Us = [full_propagator(Kr, t) for Kr in core.sector_hamiltonians(micro, app)]
        for r in range(3):
            for s in range(3):
                ref = app.cells.trace_all(Us[r].conj().T @ app.Omega @ Us[s])
                assert np.abs(f.values[r, s] - ref).max() < 1e-13

    def test_chain_tensor_memory(self):
        # six dim_K^2 complex matrices at N = 10; all n^2 full blocks would peak at 144 MB
        from pointer_cell_sim.coleman_hepp import ChainSpec, build_dense
        micro, app = build_dense(ChainSpec(N=10, m0=0.6, theta=2.5, energies=(0.3, -0.4)))
        tracemalloc.start()
        try:
            core.f_tensor(core.evolve_sectors(micro, app, 1.0), app.cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * app.dim_K ** 2 * 16


def density_with_lowest_eigenvalue(rng, dim, lowest):
    """A unit-trace Hermitian matrix in a random complex basis whose smallest
    eigenvalue is ``lowest``."""
    rest = rng.uniform(0.5, 1.5, size=dim - 1)
    rest *= (1.0 - lowest) / rest.sum()
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    omega = (q * np.concatenate([[lowest], rest])) @ q.conj().T
    return (omega + omega.conj().T) / 2


class TestOmegaPositivity:
    def test_negative_eigenvalue_rejected_with_its_value(self, rng):
        omega = density_with_lowest_eigenvalue(rng, 6, -2 * core.STATE_TOL)
        lowest = np.linalg.eigvalsh(omega).min()
        with pytest.raises(StructuralError) as info:
            simple_apparatus(6, 2, rng=rng, Omega=omega)
        assert str(info.value) == f"Omega has negative eigenvalue {lowest:.3e}"

    def test_real_negative_eigenvalue_rejected(self, rng):
        omega = np.diag([0.5, 0.5 + 2 * core.STATE_TOL, -2 * core.STATE_TOL])
        with pytest.raises(StructuralError,
                           match="^Omega has negative eigenvalue -2.000e-12$"):
            simple_apparatus(3, 2, rng=rng, Omega=omega)

    def test_eigenvalue_within_tolerance_accepted(self, rng):
        omega = density_with_lowest_eigenvalue(rng, 6, -0.5 * core.STATE_TOL)
        simple_apparatus(6, 2, rng=rng, Omega=omega)

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_pure_state_accepted(self, rng, complex_state):
        v = rng.normal(size=6) + (1j * rng.normal(size=6) if complex_state else 0.0)
        v /= np.linalg.norm(v)
        simple_apparatus(6, 2, rng=rng, Omega=np.outer(v, v.conj()))


class TestDiagonalOmegaPositivity:
    """The PSD gate reads a diagonal ``Omega``'s spectrum off its diagonal."""

    @pytest.fixture
    def no_eigvalsh(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called for a diagonal Omega")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)

    def test_negative_entry_rejected_with_its_value(self, rng, no_eigvalsh):
        omega = np.diag([0.25, 0.25, 0.5 + 2 * core.STATE_TOL, -2 * core.STATE_TOL])
        lowest = -2 * core.STATE_TOL
        with pytest.raises(StructuralError) as info:
            simple_apparatus(4, 2, rng=rng, Omega=omega.astype(complex))
        assert str(info.value) == f"Omega has negative eigenvalue {lowest:.3e}"

    def test_entry_within_tolerance_accepted(self, rng, no_eigvalsh):
        omega = np.diag([0.25, 0.25, 0.5 + 0.5 * core.STATE_TOL, -0.5 * core.STATE_TOL])
        simple_apparatus(4, 2, rng=rng, Omega=omega)


class TestHermitianGate:
    def test_zero_matrix_passes(self):
        core._check_hermitian(np.zeros((5, 5), dtype=complex), "zero")

    @pytest.mark.parametrize("diag", [
        [0.5, -1.5, 0.0],
        [0.5 + 1e-11j, -1.5, 0.0],
        [0.5 + 1e-13j, -1.5 - 1e-13j, 0.0],
        [0.0, 0.0, 0.0],
        [0.5, np.nan, 0.0],
        [0.5, complex(0.0, np.nan), 0.0],
        [0.5, np.inf, 0.0],
        [0.5, -np.inf, 0.0],
        [0.5, complex(0.0, np.inf), 0.0],
    ], ids=["real", "complex", "complex-within-tol", "zero", "nan", "nan-imag",
            "inf", "-inf", "inf-imag"])
    def test_diagonal_rule_matches_the_full_formula(self, diag):
        a = np.diag(np.array(diag, dtype=complex))
        with np.errstate(invalid="ignore"):  # inf - inf, in both formulas
            dev = np.abs(a - a.conj().T).max()
            try:
                core._check_hermitian(a, "m")
                verdict = None
            except StructuralError as exc:
                verdict = str(exc)
        expected = (None if dev <= core.HERMITIAN_TOL
                    else f"m is not Hermitian: max deviation {dev:.3e} > {core.HERMITIAN_TOL:.0e}")
        assert verdict == expected

    def test_diagonal_chain_omega_forms_no_full_temporary(self):
        # the N = 10 chain's Omega is diagonal: its check needs no dim_K^2 array
        from pointer_cell_sim.coleman_hepp import ChainSpec, build_dense
        _, app = build_dense(ChainSpec(N=10, m0=0.6, theta=2.5, energies=(0.3, -0.4)))
        tracemalloc.start()
        try:
            core._check_hermitian(app.Omega, "Omega")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < app.dim_K ** 2 * 16

    def test_single_small_deviation_rejected(self):
        a = np.zeros((5, 5), dtype=complex)
        a[1, 3] = 1e-11
        with pytest.raises(StructuralError, match="^m is not Hermitian: max deviation 1.000e-11"):
            core._check_hermitian(a, "m")


def one_temporary_verdict(a, name="m", tol=core.HERMITIAN_TOL):
    """The Hermitian gate's message, or None, by the one-temporary formula the
    tiled scan replaced, ``max |a^dag - a|``."""
    dev = a.T.conj()
    dev -= a
    dev = np.abs(dev).max(initial=0.0)
    return None if dev <= tol else f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.0e}"


def total_count_diagonal(a):
    """``_diagonal_of`` by one count of the nonzeros of the whole array."""
    diag = a if a.ndim == 1 else a.diagonal(axis1=-2, axis2=-1)
    return diag if np.count_nonzero(a) == np.count_nonzero(diag) else None


class TestHermitianFullFormula:
    """A matrix with a nonzero off-diagonal entry is judged by ``a^dag - a``, tile by
    tile, with the magnitudes of ``a - a^dag``."""

    @pytest.mark.parametrize("entry", [1e-11, 1e-13, 1 + 1j, np.nan, np.inf, -np.inf,
                                       complex(0.0, np.inf)],
                             ids=["small", "within-tol", "complex", "nan", "inf", "-inf", "inf-imag"])
    def test_matches_the_two_temporary_formula(self, rng, entry):
        a = random_hermitian(rng, 5)
        a[1, 3] += entry
        with np.errstate(invalid="ignore"):
            dev = np.abs(a - a.conj().T).max()
            try:
                core._check_hermitian(a, "m")
                verdict = None
            except StructuralError as exc:
                verdict = str(exc)
        expected = (None if dev <= core.HERMITIAN_TOL
                    else f"m is not Hermitian: max deviation {dev:.3e} > {core.HERMITIAN_TOL:.0e}")
        assert verdict == expected

    def test_one_complex_temporary(self, rng):
        a = random_hermitian(rng, 512)
        tracemalloc.start()
        try:
            core._check_hermitian(a, "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * a.nbytes

    def test_tiles_only(self, rng):
        a = random_hermitian(rng, 1024)
        tracemalloc.start()
        try:
            core._check_hermitian(a, "m")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * a.nbytes

    @pytest.mark.parametrize("entry", [1e-13, 1e-11, np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                             ids=["within-tol", "over-tol", "nan", "inf", "-inf", "inf-imag"])
    @pytest.mark.parametrize("where", ["last-tile", "tile-pair-lower", "tile-pair-upper"])
    @pytest.mark.parametrize("dim", [1, 2, 127, 128, 129, 300])
    def test_tiled_scan_matches_the_one_temporary_formula(self, rng, dim, where, entry):
        a = random_hermitian(rng, dim)
        i, j = {"last-tile": (dim - 1, max(dim - 2, 0)), "tile-pair-lower": (dim - 1, 0),
                "tile-pair-upper": (0, dim - 1)}[where]
        a[i, j] += entry
        with np.errstate(invalid="ignore"):  # inf - inf, in both formulas
            expected = one_temporary_verdict(a)
            try:
                core._check_hermitian(a, "m")
                verdict = None
            except StructuralError as exc:
                verdict = str(exc)
        assert verdict == expected
        # on a 1 x 1 matrix a finite real entry stays Hermitian
        assert (verdict is None) == (entry == 1e-13 or (dim, entry) == (1, 1e-11))


class TestDiagonalOf:
    """``_diagonal_of`` counts nonzeros block by block over the rows, with the
    verdict of one count over the whole array."""

    @pytest.mark.parametrize("entry", [0.0, -0.0, 1e-300, 1e-300j, np.nan, complex(0.0, np.nan)],
                             ids=["zero", "-zero", "tiny", "imaginary", "nan", "nan-imag"])
    @pytest.mark.parametrize("shape", [(127,), (128,), (129,), (300,), (3, 129), (2, 300), (5, 2)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("where", ["last-row", "first-row"])
    def test_matches_the_total_count(self, rng, shape, entry, where):
        *stack, dim = shape
        diag = rng.normal(size=(*stack, dim))
        diag[..., ::7] = 0.0  # zeros on the diagonal count for neither side
        a = (diag[..., None] * np.eye(dim)).astype(complex)
        # the last row of the last block, or the first row's last column, of every matrix
        i, j = (dim - 1, 0) if where == "last-row" else (0, dim - 1)
        a[..., i, j] = entry
        got, expected = core._diagonal_of(a), total_count_diagonal(a)
        assert (got is None) == (expected is None) == (entry != 0)
        if got is not None:
            assert np.shares_memory(got, a) and np.array_equal(got, expected)
        a[..., i, j] = 0.0
        if stack:  # one matrix of the stack alone
            a[-1, i, j] = entry
            assert (core._diagonal_of(a) is None) == (total_count_diagonal(a) is None) == (entry != 0)


def apparatus_verdict(K, V, Omega, dim):
    """The message an apparatus of these operators is refused with, or None."""
    cells = core.PhaseCellPartition.from_groups([range(dim // 2), range(dim // 2, dim)], dim)
    try:
        with np.errstate(invalid="ignore"):  # inf - inf, in both forms
            core.Apparatus(K=K, V=tuple(V), Omega=Omega, cells=cells)
    except StructuralError as exc:
        return str(exc)
    return None


def diag_form(a):
    return np.diag(a) if a.ndim == 1 else a


class TestVectorOperators:
    """A 1-D ``K``, ``V[r]`` or ``Omega`` stands for its ``np.diag`` form: the same
    gates, verdicts and messages, and the same states and tensors bit for bit."""

    @staticmethod
    def operators(rng, dim, n):
        K = rng.normal(size=dim).astype(complex)
        V = [rng.normal(size=dim).astype(complex) for _ in range(n)]
        return K, V, rng.dirichlet(np.ones(dim)).astype(complex)

    @pytest.mark.parametrize("case", ["accepted", "nan-K", "inf-V", "-inf-V", "nan-Omega",
                                      "negative-Omega", "non-real-K", "trace", "length-V",
                                      "length-Omega"])
    def test_gate_parity(self, rng, case):
        dim = 64
        K, V, Omega = self.operators(rng, dim, 2)
        if case == "nan-K":
            K[3] = np.nan
        elif case == "inf-V":
            V[1][5] = np.inf
        elif case == "-inf-V":
            V[0][0] = -np.inf
        elif case == "nan-Omega":
            Omega[7] = np.nan
        elif case == "negative-Omega":
            Omega[2], Omega[4] = Omega[2] + Omega[4] + 2 * core.STATE_TOL, -2 * core.STATE_TOL
        elif case == "non-real-K":
            K[1] += 1e-6j
        elif case == "trace":
            Omega *= 1.1
        elif case == "length-V":
            V[1] = np.append(V[1], 0.5)
        elif case == "length-Omega":
            Omega = Omega[1:] / Omega[1:].sum()
        vector = apparatus_verdict(K, V, Omega, dim)
        assert vector == apparatus_verdict(diag_form(K), [diag_form(v) for v in V], diag_form(Omega), dim)
        assert (vector is None) == (case == "accepted")

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("couplings", ["vectors", "matrices"])
    def test_evolution_parity_bitwise(self, seed, couplings):
        # vector couplings keep every K_r a vector; matrix couplings next to a
        # vector K are the chain's case
        rng = np.random.default_rng(seed)
        n, dim = 3, 8
        K, V, Omega = self.operators(rng, dim, n)
        if couplings == "matrices":
            V = [random_hermitian(rng, dim) for _ in range(n)]
        micro = make_micro(rng.normal(size=n))
        cells = random_index_partition(rng, dim, n)
        c = random_amplitudes(rng, n)
        t = float(rng.uniform(0.2, 2.0))
        results = []
        for form in (lambda a: a, diag_form):
            app = core.Apparatus(K=form(K), V=tuple(form(v) for v in V), Omega=form(Omega), cells=cells)
            states = core.evolve_sectors(micro, app, t)
            f = core.f_tensor(states, cells)
            results.append([states.diagonals.tobytes(), f.values.tobytes(),
                            [Kr.tobytes() for Kr in map(diag_form, core.sector_hamiltonians(micro, app))],
                            runner.composite_cross_check(micro, app, t, f, c)])
        assert results[0] == results[1]


def halving_reference(K, t):
    """``exp(i K t)`` by recursive centrosymmetric splits down to diagonal blocks,
    halving each reassembled level, as the propagator once did."""
    if np.count_nonzero(K) == np.count_nonzero(K.diagonal()):
        return np.diag(np.exp(1j * t * K.diagonal().real))
    h = len(K) // 2
    A, BJ = K[:h, :h], K[:h, h:][:, ::-1]
    Ue, Uo = halving_reference(A + BJ, t), halving_reference(A - BJ, t)
    top = np.hstack([(Ue + Uo) * 0.5, ((Ue - Uo) * 0.5)[:, ::-1]])
    return np.vstack([top, top[::-1, ::-1]])


def gate_verdict(gate, a):
    """The message ``gate`` refuses ``a`` with, or None."""
    try:
        with np.errstate(invalid="ignore"):  # inf - inf
            gate(a, "m")
    except StructuralError as exc:
        return str(exc)
    return None


class TestRealArithmetic:
    """A real operator stays float64, and the states and tensors it gives are those
    of its complex form, bit for bit."""

    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_build_dense_is_real(self, fraction):
        spec = ChainSpec(N=4, m0=0.6, theta=2.5)
        micro, app = build_dense(spec, passed_sites(spec.N, fraction))
        assert app.K.dtype == np.float64 and all(v.dtype == np.float64 for v in app.V)
        assert app.Omega.dtype == np.complex128  # the site states are complex
        assert all(Kr.dtype == np.float64 for Kr in core.sector_hamiltonians(micro, app))

    @pytest.mark.parametrize("dtype, kept", [
        (np.float64, np.float64), (np.float32, np.float64), (int, np.float64), (bool, np.float64),
        (np.complex128, np.complex128), (np.complex64, np.complex128)])
    def test_apparatus_keeps_a_real_matrix_real(self, dtype, kept):
        dim = 4
        K = np.eye(dim).astype(dtype)  # a complex one has zero imaginary parts, and stays complex
        app = core.Apparatus(K=K, V=(K, K[0]), Omega=K[0],
                             cells=core.PhaseCellPartition.from_groups([[0, 1], [2, 3]], dim))
        assert app.K.dtype == app.V[0].dtype == app.V[1].dtype == app.Omega.dtype == kept
        assert core.ObservableS(matrix=np.eye(2).astype(dtype)).matrix.dtype == kept

    @pytest.mark.parametrize("overrides", [False, True], ids=["plain", "flip-depolarize"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize("theta", [math.pi, 2.5, 1.0, 4.0])
    @pytest.mark.parametrize("N", [7, 10])
    def test_chain_tensor_matches_its_complex_form_bitwise(self, N, theta, fraction, overrides):
        states = {0: polarized_site(-0.6), 1: np.eye(2) / 2} if overrides else None
        spec = ChainSpec(N=N, m0=0.6, theta=theta, energies=(0.3, -0.4), site_overrides=states)
        micro, app = build_dense(spec, passed_sites(spec.N, fraction))
        cast = core.Apparatus(K=app.K.astype(complex), V=tuple(v.astype(complex) for v in app.V),
                              Omega=app.Omega, cells=app.cells)
        assert app.V[1].dtype == np.float64 and cast.V[1].dtype == np.complex128
        got = []
        for a in (app, cast):
            evolved = core.evolve_sectors(micro, a, spec.t)
            got.append([evolved.diagonals.tobytes(), core.f_tensor(evolved, a.cells).values.tobytes()])
        assert got[0] == got[1]

    @pytest.mark.parametrize("dim, levels", [(8, 3), (16, 4), (32, 5)])
    def test_propagator_matches_its_complex_form_bitwise(self, rng, eigh_calls, dim, levels):
        K = np.stack([nested_centrosymmetric(rng, dim, False, levels) for _ in range(3)])
        t = 1.3
        U = core._propagator(K, t)
        assert eigh_calls == [] and K.dtype == np.float64
        assert U.tobytes() == core._propagator(K.astype(complex), t).tobytes()
        # the 1/2 of every level, carried by the leaves: a power of two commutes with rounding
        assert U.tobytes() == np.stack([halving_reference(k, t) for k in K]).tobytes()

    @pytest.mark.parametrize("case", ["hermitian", "off-by-1e-11", "within-tol", "nan", "inf", "-inf",
                                      "nan-diagonal", "inf-diagonal", "negative", "negative-diagonal"])
    @pytest.mark.parametrize("dim", [3, 130])
    def test_gates_match_on_the_complex_form(self, rng, case, dim):
        a = random_hermitian(rng, dim).real
        a = a @ a.T / dim  # positive semidefinite
        i, j = dim - 1, 0
        if case == "off-by-1e-11":
            a[i, j] += 1e-11
        elif case == "within-tol":
            a[i, j] += 1e-13
        elif case in ("nan", "inf", "-inf"):
            a[i, j] = a[j, i] = float(case)
        elif case == "negative":
            a[0, 0] -= 10.0 * dim
        elif case.endswith("-diagonal"):
            a = np.diag(a.diagonal())
            a[i, i] = {"nan-diagonal": np.nan, "inf-diagonal": np.inf, "negative-diagonal": -0.5}[case]
        for gate in (core._check_hermitian, core._check_positive_semidefinite):
            assert gate_verdict(gate, a) == gate_verdict(gate, a.astype(complex)), gate.__name__
        expected = {"hermitian": None, "within-tol": None, "negative": "negative eigenvalue",
                    "negative-diagonal": "negative eigenvalue"}.get(case, "not Hermitian")
        verdict = gate_verdict(core._check_hermitian, a) or gate_verdict(core._check_positive_semidefinite, a)
        assert (verdict is None) if expected is None else (expected in verdict), verdict


class TestNonFiniteInputs:
    """A NaN compares false with every tolerance, so each gate must fail on it."""

    def test_nan_in_diagonal_omega_rejected(self, rng):
        with pytest.raises(StructuralError, match="^initial state Omega is not Hermitian: max deviation nan"):
            simple_apparatus(3, 2, rng=rng, Omega=np.diag([np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("omega", [
        np.diag([np.nan, 0.5, 0.5]),
        np.array([[np.nan, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 0.5]]),
        np.array([[0.5, np.nan, 0.0], [np.nan, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex),
    ])
    def test_positivity_gate_rejects_nan(self, omega):
        # LAPACK factorises or diagonalises these without an error
        with pytest.raises(StructuralError, match="^Omega has negative eigenvalue nan$"):
            core._check_positive_semidefinite(omega, "Omega")

    def test_nan_deviation_fails_the_hermitian_gate(self):
        with pytest.raises(StructuralError, match="^m is not Hermitian: max deviation nan"):
            core._check_hermitian(np.diag([1.0, np.nan]).astype(complex), "m")

    @pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [0.6, 0.8 + np.nan * 1j]])
    def test_nan_amplitude_rejected(self, small_instance, amplitudes):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        c = np.array(amplitudes + [0.0])
        with pytest.raises(PreconditionError, match="^amplitudes are not normalised: sum |c|\\^2 = nan$"):
            core.pointer_weights(f, c)


class _FakeApp:
    """Duck-typed apparatus large enough to trip the capacity check."""

    def __init__(self, dim):
        self.dim_K = dim
        self.n_sectors = 2


class TestFTensor:
    @pytest.mark.parametrize("rotated", [False, True], ids=["index", "rotated"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_cell_sums_bitwise(self, seed, rotated):
        # a cell in the apparatus' own basis sums the block diagonal over its
        # sorted members; a rotated one traces the full block against
        # q[:, g] q[:, g]^dag; the chain's cells are large enough for pairwise sums
        rng = np.random.default_rng(seed)
        micro, app, t = random_dense_instance(rng, rotated_cells=rotated)
        spec = ChainSpec(N=6 + seed, m0=0.6, theta=2.5, energies=(0.3, -0.4))
        instances = [(micro, app, t)] + ([] if rotated else [(*build_dense(spec), spec.t)])
        for micro, app, t in instances:
            states = core.evolve_sectors(micro, app, t)
            got = core.f_tensor(states, app.cells).values
            q = app.cells.basis
            groups = [{i for i, a in enumerate(app.cells.cell_of) if a == alpha}
                      for alpha in range(app.cells.cell_count)]
            for r, s, alpha in np.ndindex(got.shape):
                g = sorted(groups[alpha])
                want = (states.diagonals[r, s][g].sum() if q is None else
                        np.einsum("ij,ji->", states.block(r, s), q[:, g] @ q[:, g].conj().T))
                assert got[r, s, alpha].tobytes() == np.complex128(want).tobytes()

    def test_phase_only_tensor(self, rng):
        micro = make_micro([0.5, -0.5])
        app = simple_apparatus(6, 2, rng=rng)
        t = 2.0
        states = core.evolve_sectors(micro, app, t)
        f = core.f_tensor(states, app.cells)
        base = app.cells.trace_all(app.Omega)
        for r in range(2):
            for s in range(2):
                phase = np.exp(1j * (micro.energies[s] - micro.energies[r]) * t)
                assert_allclose(f.values[r, s], phase * base, atol=1e-12)

    def test_diagonal_normalization(self, small_instance):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        assert np.abs(f.diagonal().sum(axis=1) - 1.0).max() < 1e-10

    def test_partition_dimension_mismatch(self, rng, small_instance):
        micro, app, t = small_instance
        states = core.evolve_sectors(micro, app, t)
        other = random_index_partition(rng, 6, 3)
        with pytest.raises(StructuralError):
            core.f_tensor(states, other)

    def test_cell_count_must_match_n(self, rng):
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(8, 3, rng=rng)
        states = core.evolve_sectors(micro, app, 1.0)
        two_cells = random_index_partition(rng, 8, 2)
        with pytest.raises(StructuralError):
            core.f_tensor(states, two_cells)

    def test_dense_log_magnitude_is_log_abs_values(self, rng):
        # a tensor given no log magnitudes takes log|values|, -inf at an exact
        # zero (a cell Omega does not reach), and underflows nowhere
        micro = make_micro([0.5, -0.5])
        V = (np.zeros((4, 4), dtype=complex), np.diag([1.0, -1.0, 2.0, 0.0]).astype(complex))
        Omega = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
        cells = core.PhaseCellPartition.from_groups([[0, 1], [2, 3]], 4)
        app = core.Apparatus(K=np.zeros((4, 4), dtype=complex), V=V, Omega=Omega, cells=cells)
        for micro, app, t in ((micro, app, np.pi), random_dense_instance(rng, n=3, dim=8)):
            f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
            with np.errstate(divide="ignore"):
                want = np.log(np.abs(f.values))
            assert f.log_magnitude.tobytes() == want.tobytes()
            assert np.isneginf(f.log_magnitude).any() == (f.n == 2)
            assert not f.log_magnitude.flags.writeable
            assert not f.underflow.any()

    def test_log_magnitude_shape_must_match(self):
        with pytest.raises(StructuralError):
            core.FTensor(values=np.ones((2, 2, 2)), t=0.0, log_magnitude=np.zeros((2, 2)))


class TestExpectations:
    def test_single_sector_state(self, rng, small_instance):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        A = core.ObservableS(matrix=random_hermitian(rng, 3))
        c = np.zeros(3, dtype=complex)
        c[0] = 1.0
        assert abs(core.expectation_s(f, c, A) - A.matrix[0, 0].real) < 1e-12

    def test_diagonal_tensor_is_born_rule(self, rng):
        # zero off-diagonal slices leave only the amplitude-squared mixture
        n = 3
        diag = rng.dirichlet(np.ones(n), size=n)
        values = np.zeros((n, n, n), dtype=complex)
        for r in range(n):
            values[r, r, :] = diag[r]
        f = core.FTensor(values=values, t=0.0)
        A = core.ObservableS(matrix=random_hermitian(rng, n))
        c = random_amplitudes(rng, n)
        born = float(np.sum(np.abs(c) ** 2 * np.diag(A.matrix).real))
        assert abs(core.expectation_s(f, c, A) - born) < 1e-12

    def test_non_normalized_amplitudes_rejected(self, small_instance):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        with pytest.raises(PreconditionError):
            core.expectation_s(f, np.array([1.0, 1.0, 1.0]),
                               core.ObservableS(matrix=np.eye(3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_composite_oracle(self, seed):
        rng = np.random.default_rng(seed)
        micro, app, t = random_dense_instance(rng, rotated_cells=bool(seed % 2))
        n = micro.n
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        c = random_amplitudes(rng, n)
        A = core.ObservableS(matrix=random_hermitian(rng, n))
        Phi_t = full_composite_phi_t(dense_sector_hams(micro, app), c, app.Omega, t)
        ref_E = composite_expect(Phi_t, A.matrix, np.eye(app.dim_K))
        assert abs(core.expectation_s(f, c, A) - ref_E.real) < 1e-9
        w = core.pointer_weights(f, c)
        g = core.sector_pair_expectations(f, c, A)
        for alpha in range(n):
            P = app.cells.as_matrix(alpha)
            ref_w = composite_expect(Phi_t, np.eye(n), P)
            assert abs(w[alpha] - ref_w.real) < 1e-9
            ref_g = composite_expect(Phi_t, A.matrix, P)
            assert abs(g[alpha] - ref_g) < 1e-9


class TestPointerWeights:
    def test_single_cell(self):
        f = core.FTensor(values=np.ones((1, 1, 1), dtype=complex), t=0.0)
        assert_allclose(core.pointer_weights(f, np.array([1.0])), [1.0])

    def test_ideal_tensor_weights(self, rng):
        n = 3
        phi = [2, 0, 1]
        values = np.zeros((n, n, n), dtype=complex)
        for alpha, r in enumerate(phi):
            values[r, r, alpha] = 1.0
        f = core.FTensor(values=values, t=0.0)
        c = random_amplitudes(rng, n)
        w = core.pointer_weights(f, c)
        for alpha, r in enumerate(phi):
            assert abs(w[alpha] - abs(c[r]) ** 2) < 1e-12

    def test_weights_sum_to_one(self, small_instance, rng):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        w = core.pointer_weights(f, random_amplitudes(rng, 3))
        assert abs(w.sum() - 1.0) < 1e-10
        assert w.min() >= 0.0

    def test_sum_error_prints_a_plain_float(self):
        # a numpy scalar's repr would read np.float64(1.000000001)
        values = np.zeros((2, 2, 2), dtype=complex)
        values[0, 0, 0] = 1.0 + 1e-9
        values[1, 1, 1] = 1.0
        f = core.FTensor(values=values, t=0.0)
        with pytest.raises(NumericalError) as excinfo:
            core.pointer_weights(f, np.array([1.0, 0.0]))
        assert "np.float64" not in str(excinfo.value)
        assert str(excinfo.value) == f"pointer weights sum to {1.0 + 1e-9!r}"


class TestConditionalExpectation:
    def test_ideal_tensor_collapse_values(self, rng):
        n = 4
        phi = list(rng.permutation(n))
        values = np.zeros((n, n, n), dtype=complex)
        for alpha, r in enumerate(phi):
            values[r, r, alpha] = 1.0
        f = core.FTensor(values=values, t=0.0)
        A = core.ObservableS(matrix=random_hermitian(rng, n))
        c = random_amplitudes(rng, n, floor=0.1)
        for alpha, r in enumerate(phi):
            got = core.conditional_expectation(f, c, A, alpha)
            assert abs(got - A.matrix[r, r].real) < 1e-12

    def test_single_microstate(self):
        f = core.FTensor(values=np.ones((1, 1, 1), dtype=complex), t=0.0)
        A = core.ObservableS(matrix=np.array([[2.5]]))
        assert abs(core.conditional_expectation(f, [1.0], A, 0) - 2.5) < 1e-15

    def test_null_macrostate_rejected(self):
        n = 2
        values = np.zeros((n, n, n), dtype=complex)
        values[0, 0, 0] = 1.0
        values[1, 1, 0] = 1.0  # cell 1 carries no mass at all
        f = core.FTensor(values=values, t=0.0)
        A = core.ObservableS(matrix=np.eye(2))
        with pytest.raises(NullMacrostateError) as excinfo:
            core.conditional_expectation(f, np.array([0.6, 0.8]), A, 1)
        # a plain float, not a numpy scalar's repr
        assert str(excinfo.value) == "conditioning on a null macrostate: w[1] = 0.0"


class TestCompatibility:
    @pytest.mark.parametrize("seed", range(4))
    def test_macro_observable_compatibility(self, seed):
        # conditioned expectations recombine into the joint expectation
        rng = np.random.default_rng(100 + seed)
        micro, app, t = random_dense_instance(rng)
        n = micro.n
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        c = random_amplitudes(rng, n, floor=0.2)
        A = core.ObservableS(matrix=random_hermitian(rng, n))
        M_alpha = rng.normal(size=n)
        w = core.pointer_weights(f, c)
        lhs = sum(core.conditional_expectation(f, c, A, alpha) * w[alpha] * M_alpha[alpha]
                  for alpha in range(n))
        M = sum(M_alpha[alpha] * app.cells.as_matrix(alpha) for alpha in range(n))
        Phi_t = full_composite_phi_t(dense_sector_hams(micro, app), c, app.Omega, t)
        rhs = composite_expect(Phi_t, A.matrix, M)
        assert abs(lhs - rhs.real) < 1e-9


class TestPropertyChecker:
    def test_valid_tensor_passes(self, small_instance):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        report = core.check_f_properties(f)
        assert report.passed
        assert report.normalization < 1e-10
        assert report.symmetry < 1e-10
        assert report.positivity < 1e-10
        assert report.cauchy_schwarz < 1e-9

    @pytest.mark.parametrize("excess, passed", [(1.1e-9, False), (0.9e-9, True)])
    def test_verdict_gate_at_1e_9(self, excess, passed):
        # a chain tensor scaled by 1 + excess: its rows sum to 1 + excess, the worst
        # residual, a hair either side of the gate at 1e-9
        f = factorized_f_tensor(ChainSpec(N=50, m0=0.6, theta=2.2))
        report = core.check_f_properties(core.FTensor(values=f.values * (1 + excess), t=f.t))
        assert report.worst == pytest.approx(excess, rel=1e-6)
        assert report.passed == passed

    def test_synthetic_cauchy_schwarz_violation(self):
        values = np.zeros((2, 2, 2), dtype=complex)
        values[0, 0, 0] = 0.1
        values[1, 1, 0] = 0.1
        values[0, 1, 0] = 1.0
        values[1, 0, 0] = 1.0
        values[0, 0, 1] = 0.9
        values[1, 1, 1] = 0.9
        f = core.FTensor(values=values, t=0.0)
        report = core.check_f_properties(f)
        assert not report.passed
        assert report.cauchy_schwarz > 0.9  # 1 - 0.01
        assert report.positivity > 0.0

    @pytest.mark.parametrize("entries, clean", [
        ([(0, 1, 0), (1, 0, 0)], ("normalization", "bounds")),
        ([(0, 0, 0)], ()),
    ], ids=["off-diagonal", "diagonal"])
    def test_nan_fails_every_identity_it_enters(self, entries, clean):
        values = np.zeros((2, 2, 2), dtype=complex)
        values[0, 0, 0] = values[1, 1, 1] = 1.0
        for index in entries:
            values[index] = complex(math.nan, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = core.check_f_properties(core.FTensor(values=values, t=0.0))
        for name, value in report.as_dict().items():
            assert (value == 0.0) if name in clean else math.isnan(value), (name, value)
        assert math.isnan(report.worst) and not report.passed

    def test_chain_positivity_eigenvalues(self):
        from pointer_cell_sim import ChainSpec, build_dense, evolve_sectors, f_tensor
        spec = ChainSpec(N=6, m0=0.6, theta=2.5)
        micro, app = build_dense(spec)
        f = f_tensor(evolve_sectors(micro, app, spec.t), app.cells)
        for alpha in range(f.n):
            evals = np.linalg.eigvalsh(f.values[:, :, alpha])
            assert evals.min() >= -1e-10

    def test_determinism(self, small_instance):
        micro, app, t = small_instance
        f1 = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        f2 = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        assert np.array_equal(f1.values, f2.values)


class TestAmplitudeHandling:
    def test_tiny_negative_weight_clamped(self):
        values = np.zeros((2, 2, 2), dtype=complex)
        values[0, 0, 0] = 1.0 + 5e-13
        values[0, 0, 1] = -5e-13
        values[1, 1, 0] = 1.0
        f = core.FTensor(values=values, t=0.0)
        w = core.pointer_weights(f, np.array([1.0, 0.0]))
        assert w[1] == 0.0
        assert w[0] >= 1.0


class TestDegenerateInputs:
    def test_pure_initial_apparatus_state(self, rng):
        # rank-one Omega is a legal density matrix
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        v /= np.linalg.norm(v)
        omega = np.outer(v, v.conj())
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(6, 2, rng=rng, K=random_hermitian(rng, 6),
                               V=[random_hermitian(rng, 6) for _ in range(2)],
                               Omega=omega)
        f = core.f_tensor(core.evolve_sectors(micro, app, 1.1), app.cells)
        assert core.check_f_properties(f).passed

    def test_degenerate_coupling_spectrum(self, rng):
        # projector-valued coupling has a two-point spectrum; eigh must cope
        P = np.zeros((4, 4), dtype=complex)
        P[:2, :2] = np.eye(2)
        micro = make_micro([0.0, 0.0])
        app = simple_apparatus(4, 2, rng=rng, V=[P, 2 * P])
        states = core.evolve_sectors(micro, app, 0.7)
        validate_with_spectra(states)

    def test_empty_cell_through_full_pipeline(self, rng):
        # a three-cell partition of a two-dimensional apparatus leaves one
        # cell empty: weights vanish there and conditioning is rejected
        micro = make_micro(rng.normal(size=3))
        cells = core.PhaseCellPartition.from_groups([[0], [], [1]], 2)
        app = core.Apparatus(
            K=random_hermitian(rng, 2),
            V=tuple(random_hermitian(rng, 2) for _ in range(3)),
            Omega=np.eye(2, dtype=complex) / 2,
            cells=cells,
        )
        f = core.f_tensor(core.evolve_sectors(micro, app, 1.0), cells)
        assert core.check_f_properties(f).passed
        c = random_amplitudes(rng, 3)
        w = core.pointer_weights(f, c)
        assert w[1] == 0.0
        A = core.ObservableS(matrix=random_hermitian(rng, 3))
        with pytest.raises(NullMacrostateError):
            core.conditional_expectation(f, c, A, 1)
