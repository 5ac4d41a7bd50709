import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrocap import (
    CompositeLayout,
    EnergyConstraint,
    SymplecticSpace,
    ValidationError,
    assert_density_operator,
    chi_capacity,
    cq_channel,
    fixed_marginal_ensemble,
    hermitian_eig,
    identity_channel,
    partial_trace,
    permute_subsystems,
    purify,
    replacement_channel,
    sample_channel,
    sample_hermitian,
    sample_isometry,
    sample_pure,
    sample_state,
    tensor,
)
from entrocap.gaussian import standard_symplectic_form
from entrocap.linalg import _eig, _spectra


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


class TestSpectralKernel:
    """The bare entry against the checked entry of the spectral kernel."""

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 5),
        batch=st.lists(st.integers(1, 3), max_size=2),
        rank=st.integers(1, 5),
        scale=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bare_and_checked_spectra_agree_on_valid_stacks(self, d, batch, rank, scale, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((*batch, d, min(rank, d))) + 1j * rng.standard_normal((*batch, d, min(rank, d)))
        s = g @ g.conj().swapaxes(-1, -2)
        s = s * (scale / np.trace(s, axis1=-2, axis2=-1).real)[..., None, None]
        s = 0.5 * (s + s.conj().swapaxes(-1, -2))  # exactly Hermitian, so both entries see the same matrices
        (w, u), (w_checked, u_checked) = _eig(s), _spectra(s, vectors=True)
        assert np.array_equal(w, w_checked) and np.array_equal(u, u_checked)
        assert np.array_equal(_spectra(s), np.maximum(np.linalg.eigvalsh(s), 0.0))
        assert (w >= 0.0).all()

    def test_bare_entry_rejects_non_finite_entries(self):
        # LAPACK returns the finite eigenvalues -1/sqrt(2), 1/sqrt(2) for this matrix, so the input is checked
        with pytest.raises(ValidationError, match="non-finite"):
            _eig(np.array([[math.nan, 0.5], [0.5, 1.0]], dtype=complex))


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

    @pytest.mark.parametrize(
        "call, match",
        [
            # int() truncated these: a 2x2 result from a (2.7, 2) layout, subsystem 0 read for index 0.5
            (lambda: CompositeLayout((2.5, 2)), "subsystem dimensions must be integers"),
            (lambda: CompositeLayout((True, 2)), "subsystem dimensions must be integers"),
            (lambda: CompositeLayout(4), "subsystem dimensions must be integers"),
            (lambda: partial_trace(np.eye(4) / 4, (2.7, 2), (0,)), "subsystem dimensions must be integers"),
            (lambda: partial_trace(np.eye(4) / 4, (2, 2), (0.5,)), "keep indices must be integers"),
            (lambda: partial_trace(np.eye(4) / 4, (2, 2), (False,)), "keep indices must be integers"),
            (lambda: permute_subsystems(np.eye(4) / 4, (2, 2), (1.0, 0)), "order must be integers"),
        ],
        ids=["float_dim", "bool_dim", "scalar_dims", "partial_trace_dims", "float_keep", "bool_keep", "float_order"],
    )
    def test_non_integer_layout_rejected(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()

    def test_numpy_integers_accepted(self):
        rho = sample_state(6, seed=8)
        layout = CompositeLayout(np.array([2, 3]))
        assert layout.dims == (2, 3) and all(type(d) is int for d in layout.dims)
        assert np.array_equal(partial_trace(rho, layout, (np.int64(1),)), partial_trace(rho, (2, 3), (1,)))
        swapped = permute_subsystems(rho, (np.int32(2), 3), np.array([1, 0]))
        assert np.array_equal(swapped, permute_subsystems(rho, (2, 3), (1, 0)))


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


QUBIT = np.diag([1.0, 0.0]).astype(complex)


@pytest.mark.parametrize(
    "build",
    [
        lambda: chi_capacity(identity_channel(2), EnergyConstraint(np.diag([0.0, 1.0]), 0.25), members=1.5),
        lambda: chi_capacity(identity_channel(2), EnergyConstraint(np.diag([0.0, 1.0]), 0.25), members=True),
        lambda: chi_capacity(identity_channel(2), EnergyConstraint(np.diag([0.0, 1.0]), 0.25), members="2"),
        lambda: sample_state(3, rank=2.5),
        lambda: replacement_channel(QUBIT, 2.7),
        lambda: cq_channel([QUBIT, np.eye(2) - QUBIT], dim_in=2.9),
        lambda: SymplecticSpace(2.7, standard_symplectic_form(1)),
        lambda: fixed_marginal_ensemble(sample_state(4, seed=1), [identity_channel(2)], [1.0], dims=(2.9, 2)),
    ],
    ids=["members-float", "members-bool", "members-str", "rank", "replacement-dim", "cq-dim", "symplectic-dim",
         "marginal-dims"],
)
def test_integer_arguments_are_checked_not_truncated(build):
    with pytest.raises(ValidationError, match="integer"):
        build()


@pytest.mark.parametrize(
    "build, blamed",
    [
        (lambda: sample_pure(2.5), "dim"),
        (lambda: sample_state(2.5), "dim"),
        (lambda: sample_isometry(2.5, 3), "d_in"),
        (lambda: sample_isometry(2, 3.5), "d_in"),
        (lambda: sample_hermitian(2.5), "dim"),
        (lambda: sample_hermitian(-1), "dim"),
        (lambda: sample_hermitian(0), "dim"),
        (lambda: sample_channel(2, 2, 1.5), "kraus_rank"),
        (lambda: sample_channel(2, 2, 0), "kraus_rank"),
        (lambda: sample_channel(2, 2.5, 2), "dim_out"),
    ],
    ids=["pure-float", "state-float", "isometry-in", "isometry-out", "hermitian-float", "hermitian-negative",
         "hermitian-zero", "channel-rank-float", "channel-rank-zero", "channel-out-float"],
)
def test_sampler_dimensions_are_positive_integers(build, blamed):
    # a float dimension reached numpy (a raw TypeError), a negative one a raw ValueError, and 0 an empty matrix;
    # a float dim_out was blamed on the isometry's output dimension dim_out * kraus_rank
    with pytest.raises(ValidationError, match=f"{blamed}.*integer|integer.*{blamed}"):
        build()
