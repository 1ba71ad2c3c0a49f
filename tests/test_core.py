import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from pointer_cell_sim import core
from pointer_cell_sim.errors import (
    NullMacrostateError,
    NumericalError,
    PreconditionError,
    StructuralError,
)
from pointer_cell_sim.runner import (
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
    cells = core.PhaseCellPartition(cells=random_index_partition(rng, dim, n), dim=dim)
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
        core.PhaseCellPartition(cells=[frozenset({0, 1}), frozenset({2})], dim=3)
        with pytest.raises(StructuralError):
            core.PhaseCellPartition(cells=[frozenset({0, 1}), frozenset({1, 2})], dim=3)
        with pytest.raises(StructuralError):
            core.PhaseCellPartition(cells=[frozenset({0})], dim=2)

    def test_partition_matrix_form(self, rng):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(raw)
        cells = [q[:, :2] @ q[:, :2].conj().T, q[:, 2:] @ q[:, 2:].conj().T]
        part = core.PhaseCellPartition(cells=cells, dim=4)
        assert part.rank(0) == 2
        X = random_hermitian(rng, 4)
        assert_allclose(part.trace_all(X).sum(), np.trace(X), atol=1e-12)
        broken = [q[:, :2] @ q[:, :2].conj().T, q[:, 1:3] @ q[:, 1:3].conj().T]
        with pytest.raises(StructuralError):
            core.PhaseCellPartition(cells=broken, dim=4)

    def test_apparatus_validation(self, rng):
        dim = 4
        with pytest.raises(StructuralError):
            simple_apparatus(dim, 2, Omega=np.eye(dim, dtype=complex))  # trace 4
        with pytest.raises(StructuralError):
            simple_apparatus(dim, 2, K=random_hermitian(rng, dim) + 1e-6 * 1j * np.eye(dim))

    def test_initial_composite_normalization(self):
        core.InitialComposite(c=np.array([0.6, 0.8]))
        with pytest.raises(StructuralError):
            core.InitialComposite(c=np.array([1.0, 1.0]))


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

    def test_dimension_mismatch(self, rng):
        micro = make_micro([0.0, 1.0, 2.0])
        app = simple_apparatus(4, 2, rng=rng)
        with pytest.raises(StructuralError):
            core.sector_hamiltonians(micro, app)


class TestEvolveSectors:
    def test_time_zero_returns_omega(self, rng):
        micro = make_micro(rng.normal(size=2))
        app = simple_apparatus(4, 2, rng=rng, K=random_hermitian(rng, 4),
                               V=[random_hermitian(rng, 4) for _ in range(2)])
        states = core.evolve_sectors(micro, app, 0.0)
        for r in range(2):
            for s in range(2):
                assert_allclose(states.omega[r, s], app.Omega, atol=1e-12)

    def test_scalar_sector_phases(self, rng):
        # with V = 0 and K = 0 the propagators are pure phases
        micro = make_micro([0.7, -0.3])
        app = simple_apparatus(4, 2, rng=rng)
        t = 1.3
        states = core.evolve_sectors(micro, app, t)
        for r in range(2):
            for s in range(2):
                phase = np.exp(1j * (micro.energies[s] - micro.energies[r]) * t)
                assert_allclose(states.omega[r, s], phase * app.Omega, atol=1e-12)

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
                assert np.abs(states.omega[r, s] - ref).max() < 1e-9

    def test_unitarity_of_diagonal_sectors(self, rng):
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(6, 3, rng=rng, K=random_hermitian(rng, 6),
                               V=[random_hermitian(rng, 6) for _ in range(3)])
        for t in (0.1, 2.7, 40.0):
            states = core.evolve_sectors(micro, app, t)
            states.validate(spectra=True)
            for r in range(3):
                assert abs(np.trace(states.omega[r, r]) - 1.0) < 1e-10
                evals = np.linalg.eigvalsh(states.omega[r, r])
                assert evals.min() > -1e-10 and evals.max() < 1 + 1e-10

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


class _FakeApp:
    """Duck-typed apparatus large enough to trip the capacity check."""

    def __init__(self, dim):
        self.dim_K = dim
        self.n_sectors = 2


class TestFTensor:
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
        other = core.PhaseCellPartition(
            cells=random_index_partition(rng, 6, 3), dim=6)
        with pytest.raises(StructuralError):
            core.f_tensor(states, other)

    def test_cell_count_must_match_n(self, rng):
        micro = make_micro(rng.normal(size=3))
        app = simple_apparatus(8, 3, rng=rng)
        states = core.evolve_sectors(micro, app, 1.0)
        two_cells = core.PhaseCellPartition(
            cells=random_index_partition(rng, 8, 2), dim=8)
        with pytest.raises(StructuralError):
            core.f_tensor(states, two_cells)


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
    def test_initial_composite_accepted_by_ops(self, small_instance, rng):
        micro, app, t = small_instance
        f = core.f_tensor(core.evolve_sectors(micro, app, t), app.cells)
        raw = random_amplitudes(rng, 3)
        wrapped = core.InitialComposite(c=raw)
        A = core.ObservableS(matrix=random_hermitian(rng, 3))
        assert core.expectation_s(f, wrapped, A) == core.expectation_s(f, raw, A)
        assert np.array_equal(core.pointer_weights(f, wrapped),
                              core.pointer_weights(f, raw))

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
        states.validate(spectra=True)

    def test_empty_cell_through_full_pipeline(self, rng):
        # a three-cell partition of a two-dimensional apparatus leaves one
        # cell empty: weights vanish there and conditioning is rejected
        micro = make_micro(rng.normal(size=3))
        cells = core.PhaseCellPartition(
            cells=[frozenset({0}), frozenset(), frozenset({1})], dim=2)
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
