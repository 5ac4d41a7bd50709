import numpy as np
import pytest

from entrocap import (
    KrausChannel,
    QuantumOperation,
    ValidationError,
    apply,
    complementary,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    dual_apply,
    environment_output,
    identity_channel,
    is_cq,
    is_cq_discrete,
    minimize_kraus,
    partial_trace,
    replacement_channel,
    restrict,
    sample_channel,
    sample_hermitian,
    sample_pure,
    sample_state,
    stinespring,
    tensor,
    tensor_channel,
    truncate,
    unitary_channel,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def basis_state(dim, k):
    e = np.zeros((dim, dim), dtype=complex)
    e[k, k] = 1.0
    return e


def spectrum(mat, size):
    w = np.clip(np.linalg.eigvalsh(mat)[::-1], 0.0, None)
    out = np.zeros(size)
    out[: min(size, w.size)] = w[:size]
    return out


class TestConstruction:
    def test_trace_preservation_required(self):
        with pytest.raises(ValidationError):
            KrausChannel((np.diag([1.0, 0.5]),))

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            KrausChannel(())

    def test_operation_allows_trace_decrease(self):
        op = QuantumOperation((np.diag([1.0, 0.5]),))
        assert op.dim_in == op.dim_out == 2

    def test_operation_rejects_trace_increase(self):
        with pytest.raises(ValidationError):
            QuantumOperation((np.diag([1.0, 1.5]),))

    @pytest.mark.parametrize("cls", [KrausChannel, QuantumOperation])
    def test_nan_entry_rejected(self, cls):
        with pytest.raises(ValidationError):
            cls((np.array([[np.nan, 0.0], [0.0, 1.0]]),))


class TestApply:
    def test_identity(self):
        rho = sample_state(3, seed=0)
        assert np.abs(apply(identity_channel(3), rho) - rho).max() <= 1e-12

    def test_replacement(self):
        tau = sample_state(2, seed=1)
        chan = replacement_channel(tau, dim_in=3)
        for seed in range(3):
            rho = sample_state(3, seed=seed)
            assert np.abs(apply(chan, rho) - tau).max() <= 1e-10

    def test_dephasing(self):
        rho = sample_state(2, seed=2)
        out = apply(dephasing_channel(2), rho)
        assert np.abs(out - np.diag(np.diagonal(rho))).max() <= 1e-12

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            d_in = 2 + int(rng.integers(0, 3))
            d_out = 2 + int(rng.integers(0, 3))
            rank = max(1 + int(rng.integers(0, 4)), -(-d_in // d_out))
            chan = sample_channel(d_in, d_out, rank, seed=int(rng.integers(0, 2**31)))
            rho = sample_state(chan.dim_in, seed=int(rng.integers(0, 2**31)))
            worst = max(worst, abs(np.trace(apply(chan, rho)).real - 1.0))
        assert worst <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            apply(identity_channel(2), np.eye(3) / 3)


class TestDual:
    def test_unital(self):
        chan = sample_channel(3, 4, 2, seed=5)
        assert np.abs(dual_apply(chan, np.eye(4)) - np.eye(3)).max() <= 1e-9

    def test_unitary(self):
        g = np.random.default_rng(3).standard_normal((3, 3)) + 1j * np.random.default_rng(4).standard_normal((3, 3))
        u = np.linalg.qr(g)[0]
        chan = unitary_channel(u)
        a = sample_hermitian(3, seed=6)
        assert np.abs(dual_apply(chan, a) - u.conj().T @ a @ u).max() <= 1e-10

    def test_dephasing(self):
        a = sample_hermitian(2, seed=7)
        assert np.abs(dual_apply(dephasing_channel(2), a) - np.diag(np.diagonal(a))).max() <= 1e-12

    def test_duality_pairing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            chan = sample_channel(3, 3, 2, seed=int(rng.integers(0, 2**31)))
            rho = sample_state(3, seed=int(rng.integers(0, 2**31)))
            a = sample_hermitian(3, seed=int(rng.integers(0, 2**31)))
            lhs = np.trace(apply(chan, rho) @ a)
            rhs = np.trace(rho @ dual_apply(chan, a))
            assert abs(lhs - rhs) <= 1e-9


class TestStinespring:
    def test_unitary_has_trivial_environment(self):
        dil = stinespring(unitary_channel(HADAMARD))
        assert dil.layout.dims == (2, 1)

    def test_dephasing_environment_count(self):
        dil = stinespring(dephasing_channel(2))
        assert dil.layout.dims == (2, 2)

    def test_isometry_residual_random(self):
        for seed in range(10):
            chan = sample_channel(3, 2, 3, seed=seed)
            v = stinespring(chan).isometry
            assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-10

    def test_dilation_reproduces_channel(self):
        chan = sample_channel(2, 3, 2, seed=11)
        v = stinespring(chan).isometry
        rho = sample_state(2, seed=12)
        big = v @ rho @ v.conj().T
        out = partial_trace(big, (3, 2), (0,))
        assert np.abs(out - apply(chan, rho)).max() <= 1e-9
        env = partial_trace(big, (3, 2), (1,))
        assert np.abs(env - apply(complementary(chan), rho)).max() <= 1e-9
        assert np.abs(env - environment_output(chan, rho)).max() <= 1e-9


class TestComplementary:
    def test_unitary_complement_is_constant(self):
        comp = complementary(unitary_channel(HADAMARD))
        for seed in range(3):
            rho = sample_state(2, seed=seed)
            out = apply(comp, rho)
            assert out.shape == (1, 1)
            assert abs(out[0, 0] - 1.0) <= 1e-10

    def test_kraus_reordering_spectrum_invariant(self):
        chan = sample_channel(3, 3, 3, seed=21)
        flipped = KrausChannel(tuple(reversed(chan.kraus)))
        rho = sample_state(3, seed=22)
        a = apply(complementary(chan), rho)
        b = apply(complementary(flipped), rho)
        assert np.abs(spectrum(a, 3) - spectrum(b, 3)).max() <= 1e-9

    def test_double_complement_spectra(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d_in = 2 + int(rng.integers(0, 2))
            d_out = 2 + int(rng.integers(0, 2))
            rank = max(1 + int(rng.integers(0, 3)), -(-d_in // d_out))
            chan = sample_channel(d_in, d_out, rank, seed=int(rng.integers(0, 2**31)))
            rho = sample_state(chan.dim_in, seed=int(rng.integers(0, 2**31)))
            a = apply(chan, rho)
            b = apply(complementary(complementary(chan)), rho)
            size = max(a.shape[0], b.shape[0])
            assert np.abs(spectrum(a, size) - spectrum(b, size)).max() <= 1e-8

    def test_pure_input_spectra_match(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            chan = sample_channel(3, 2 + int(rng.integers(0, 3)), 2, seed=int(rng.integers(0, 2**31)))
            v = sample_pure(3, seed=int(rng.integers(0, 2**31))).vec
            rho = np.outer(v, v.conj())
            a = apply(chan, rho)
            b = environment_output(chan, rho)
            size = max(a.shape[0], b.shape[0])
            assert np.abs(spectrum(a, size) - spectrum(b, size)).max() <= 1e-8


class TestTensorChannel:
    def test_identity_product(self):
        chan = tensor_channel(identity_channel(2), identity_channel(3))
        rho = sample_state(6, seed=31)
        assert np.abs(apply(chan, rho) - rho).max() <= 1e-12

    def test_product_action(self):
        phi = sample_channel(2, 2, 2, seed=32)
        chan = tensor_channel(phi, identity_channel(3))
        a, b = sample_state(2, seed=33), sample_state(3, seed=34)
        out = apply(chan, tensor(a, b))
        assert np.abs(out - tensor(apply(phi, a), b)).max() <= 1e-10

    def test_kraus_count_multiplies(self):
        c1 = sample_channel(2, 2, 2, seed=35)
        c2 = sample_channel(2, 2, 3, seed=36)
        assert tensor_channel(c1, c2).env_dim == 6


class TestTruncate:
    def test_full_rank_is_identity_composition(self):
        chan = sample_channel(3, 3, 2, seed=41)
        tau = sample_state(3, seed=42)
        trunc = truncate(chan, 3, tau)
        rho = sample_state(3, seed=43)
        assert np.abs(apply(trunc, rho) - apply(chan, rho)).max() <= 1e-10

    def test_formula_on_discarded_block(self):
        tau = basis_state(3, 0)
        trunc = truncate(identity_channel(3), 2, tau)
        assert np.abs(apply(trunc, basis_state(3, 2)) - tau).max() <= 1e-10

    def test_trace_preserving_random(self):
        chan = sample_channel(3, 4, 2, seed=44)
        tau = sample_state(4, seed=45)
        trunc = truncate(chan, 2, tau)
        for seed in range(5):
            rho = sample_state(3, seed=seed)
            assert abs(np.trace(apply(trunc, rho)).real - 1.0) <= 1e-10

    def test_ordering_observable(self):
        obs = np.diag([0.0, 1.0, 2.0])  # top eigenvector is |2>
        trunc = truncate(identity_channel(3), 1, basis_state(3, 2), ordering=obs)
        out = apply(trunc, basis_state(3, 2))
        assert np.abs(out - basis_state(3, 2)).max() <= 1e-10

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            truncate(identity_channel(3), 4, basis_state(3, 0))


class TestCqChannel:
    def test_orthogonal_outputs_is_classical(self):
        sigmas = [basis_state(3, k) for k in range(3)]
        chan = cq_channel(sigmas)
        rho = sample_state(3, seed=51)
        out = apply(chan, rho)
        assert np.abs(out - np.diag(np.diagonal(rho))).max() <= 1e-10

    def test_equal_outputs_is_replacement(self):
        tau = sample_state(2, seed=52)
        chan = cq_channel([tau, tau, tau])
        rho = sample_state(3, seed=53)
        assert np.abs(apply(chan, rho) - tau).max() <= 1e-9

    def test_basis_state_maps_to_sigma(self):
        sigmas = [sample_state(2, seed=60 + k) for k in range(3)]
        chan = cq_channel(sigmas)
        for j in range(3):
            assert np.abs(apply(chan, basis_state(3, j)) - sigmas[j]).max() <= 1e-9

    def test_non_state_entry_rejected(self):
        with pytest.raises(ValidationError):
            cq_channel([np.diag([1.0, 0.5]), np.eye(2) / 2])


class TestCqDetection:
    def test_cq_channel_detected(self):
        chan = cq_channel([sample_state(2, seed=70 + k) for k in range(3)])
        verdict = is_cq(chan)
        assert verdict.is_cq and verdict.max_commutator <= 1e-8

    def test_hadamard_not_cq(self):
        verdict = is_cq(unitary_channel(HADAMARD))
        assert not verdict.is_cq and verdict.max_commutator > 1e-3

    def test_depolarizing_is_cq(self):
        verdict = is_cq(depolarizing_channel(1.0, 2))
        assert verdict.is_cq

    def test_discrete_detection_with_basis(self):
        sigmas = [sample_state(2, seed=80 + k) for k in range(3)]
        chan = cq_channel(sigmas)
        res = is_cq_discrete(chan)
        assert res.is_discrete
        # every dual image is diagonal in the recovered basis
        rot = res.basis.conj().T @ dual_apply(chan, sample_hermitian(2, seed=81)) @ res.basis
        off = rot - np.diag(np.diagonal(rot))
        assert np.abs(off).max() <= 1e-7

    def test_unitary_not_discrete(self):
        res = is_cq_discrete(unitary_channel(HADAMARD))
        assert not res.is_discrete and res.basis is None

    def test_replacement_discrete_any_basis(self):
        res = is_cq_discrete(replacement_channel(sample_state(2, seed=82), dim_in=3))
        assert res.is_discrete


class TestRestrict:
    def test_full_space_restriction(self):
        chan = sample_channel(3, 2, 2, seed=90)
        same = restrict(chan, np.eye(3))
        rho = sample_state(3, seed=91)
        assert np.abs(apply(same, rho) - apply(chan, rho)).max() <= 1e-12

    def test_cq_subchannel(self):
        sigmas = [sample_state(2, seed=95 + k) for k in range(3)]
        chan = cq_channel(sigmas)
        sub = restrict(chan, np.eye(3)[:, :2])
        assert sub.dim_in == 2
        out = apply(sub, basis_state(2, 1))
        assert np.abs(out - sigmas[1]).max() <= 1e-9

    def test_restricted_channel_valid(self):
        chan = sample_channel(4, 3, 2, seed=97)
        basis = np.linalg.qr(np.random.default_rng(98).standard_normal((4, 2)))[0]
        sub = restrict(chan, basis)
        assert isinstance(sub, KrausChannel)

    def test_non_isometric_basis_rejected(self):
        with pytest.raises(ValidationError):
            restrict(identity_channel(3), np.ones((3, 2)))


class TestMinimizeKraus:
    def test_equivalence_and_reduction(self):
        chan = sample_channel(2, 2, 2, seed=100)
        padded = KrausChannel(chan.kraus + (np.zeros((2, 2)),))
        slim = minimize_kraus(padded)
        assert slim.env_dim <= 4
        rho = sample_state(2, seed=101)
        assert np.abs(apply(slim, rho) - apply(chan, rho)).max() <= 1e-9
