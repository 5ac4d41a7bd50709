import numpy as np
import pytest

from entrocap import (
    CompositeLayout,
    ValidationError,
    assert_density_operator,
    hermitian_eig,
    partial_trace,
    permute_subsystems,
    purify,
    sample_hermitian,
    sample_isometry,
    sample_pure,
    sample_state,
    tensor,
)


class TestHermitianEig:
    def test_diagonal(self):
        w, u = hermitian_eig(np.diag([1.0, 0.0]))
        assert np.allclose(w, [1.0, 0.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = hermitian_eig(x)
        assert np.allclose(w, [1.0, -1.0])

    def test_reconstruction_random(self):
        for seed in range(10):
            h = sample_hermitian(4, seed=seed)
            w, u = hermitian_eig(h)
            assert np.abs((u * w) @ u.conj().T - h).max() <= 1e-9
            assert list(w) == sorted(w, reverse=True)
            assert abs(w.sum() - np.trace(h).real) <= 1e-9 * 4

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="max deviation"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_named(self, bad):
        with pytest.raises(ValidationError, match="contains non-finite entries"):
            hermitian_eig(np.array([[1.0, bad], [0.0, 1.0]]))


class TestTensorPartialTrace:
    def test_identity_product(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.allclose(np.diagonal(out), [0.0, 1.0, 0.0, 0.0])

    def test_trace_multiplicative(self):
        a = sample_state(2, seed=1)
        b = sample_state(3, seed=2)
        assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_product_recovery(self):
        a, b = sample_state(2, seed=3), sample_state(3, seed=4)
        joint = tensor(a, b)
        assert np.abs(partial_trace(joint, (2, 3), (0,)) - a).max() <= 1e-10
        assert np.abs(partial_trace(joint, (2, 3), (1,)) - b).max() <= 1e-10

    def test_maximally_entangled_marginal(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.abs(partial_trace(rho, (2, 2), (0,)) - np.eye(2) / 2).max() <= 1e-12

    def test_trace_preserved(self):
        omega = sample_state(6, seed=5)
        reduced = partial_trace(omega, (2, 3), (0,))
        assert abs(np.trace(reduced) - np.trace(omega)) <= 1e-12

    def test_bad_subsystem_index(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4), (2, 2), (2,))

    def test_permute_subsystems(self):
        a, b = sample_state(2, seed=6), sample_state(3, seed=7)
        swapped = permute_subsystems(tensor(a, b), (2, 3), (1, 0))
        assert np.abs(swapped - tensor(b, a)).max() <= 1e-12


class TestPurify:
    def test_pure_input(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        phi = purify(rho)
        # |0> (x) |0> up to a global phase
        assert abs(abs(phi.vec[0]) - 1.0) <= 1e-10

    def test_maximally_mixed(self):
        phi = purify(np.eye(2) / 2)
        reduced = partial_trace(phi.projector(), (2, 2), (1,))
        assert np.abs(reduced - np.eye(2) / 2).max() <= 1e-9

    def test_schmidt_coefficients(self):
        phi = purify(np.diag([0.75, 0.25]))
        mat = phi.vec.reshape(2, 2)
        svals = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(sorted(svals, reverse=True), [np.sqrt(3) / 2, 0.5], atol=1e-10)

    def test_right_inverse_of_partial_trace(self):
        for seed in range(8):
            d = 2 + seed % 3
            rho = sample_state(d, rank=1 + seed % d, seed=seed)
            back = partial_trace(purify(rho).projector(), (d, d), (0,))
            assert np.abs(back - rho).max() <= 1e-9


class TestSampling:
    def test_sampled_states_valid(self):
        for seed in range(20):
            d = 2 + seed % 4
            rho = sample_state(d, rank=1 + seed % d, seed=seed)
            assert_density_operator(rho)

    def test_rank_one_is_pure(self):
        rho = sample_state(2, rank=1, seed=9)
        w = np.linalg.eigvalsh(rho)
        assert w[-1] > 1.0 - 1e-10

    def test_square_isometry_is_unitary(self):
        v = sample_isometry(2, 2, seed=0)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-10
        assert np.abs(v @ v.conj().T - np.eye(2)).max() <= 1e-10

    def test_isometry_tall(self):
        v = sample_isometry(2, 6, seed=1)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-10

    def test_seed_determinism_bitwise(self):
        assert np.array_equal(sample_state(3, seed=5), sample_state(3, seed=5))
        assert np.array_equal(sample_isometry(2, 4, seed=5), sample_isometry(2, 4, seed=5))
        assert np.array_equal(sample_pure(4, seed=5).vec, sample_pure(4, seed=5).vec)

    def test_dimension_violations(self):
        with pytest.raises(ValidationError):
            sample_state(2, rank=3, seed=0)
        with pytest.raises(ValidationError):
            sample_isometry(3, 2, seed=0)


class TestValidators:
    def test_trace_flag(self):
        assert_density_operator(np.diag([0.4, 0.3]), unit_trace=False)
        with pytest.raises(ValidationError):
            assert_density_operator(np.diag([0.4, 0.3]), unit_trace=True)
        with pytest.raises(ValidationError):
            assert_density_operator(np.diag([0.8, 0.3]), unit_trace=False)

    def test_psd_rejection(self):
        with pytest.raises(ValidationError):
            assert_density_operator(np.diag([1.5, -0.5]))

    def test_layout_mismatch(self):
        with pytest.raises(ValidationError):
            CompositeLayout((2, 3)).check_operator(np.eye(4))
