import copy
import math
import pickle
import sys
import threading
import tracemalloc

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
    entropy,
    environment_output,
    identity_channel,
    is_cq,
    is_cq_discrete,
    minimize_kraus,
    mutual_information,
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

from entrocap import channels
from entrocap.channels import CHANNEL_TOL, _operand, _output_and_environment, dual_environment
from entrocap.gaussian import fock_attenuator, thermal_state
from entrocap.linalg import hermitian_eig, sample_isometry

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

    def test_trace_excess_beyond_entropy_slack_rejected(self):
        # images of such a family have trace 1 + 8e-10, above the entropies' 1 + 1e-10
        with pytest.raises(ValidationError, match="not trace preserving"):
            KrausChannel((np.sqrt(1.0 + 8e-10) * np.eye(2),))

    def test_largest_accepted_excess_is_evaluable(self):
        # an accepted family's images stay valid entropy arguments
        chan = KrausChannel((np.sqrt(1.0 + 0.99 * CHANNEL_TOL) * np.eye(2),))
        image = apply(chan, np.eye(2) / 2)
        assert float(np.trace(image).real) > 1.0
        assert abs(entropy(image) - 1.0) <= 1e-9
        assert abs(mutual_information(np.eye(2) / 2, chan, route="entropies") - 2.0) <= 1e-9

    @pytest.mark.parametrize("cls", [KrausChannel, QuantumOperation])
    def test_nan_entry_rejected(self, cls):
        with pytest.raises(ValidationError):
            cls((np.array([[np.nan, 0.0], [0.0, 1.0]]),))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: cq_channel([]), "Kraus family must be"),
            (lambda: identity_channel(0), "Kraus family must be"),
            (lambda: depolarizing_channel(0.5, 0), "Kraus family must be"),
            (lambda: dephasing_channel(0), "Kraus family must be"),
            (lambda: replacement_channel(np.eye(2) / 2, dim_in=0), "Kraus family must be"),
            (lambda: KrausChannel((("a", "b"), ("c", "d"))), "expected a numeric array"),
            (lambda: KrausChannel((np.eye(2), np.eye(3))), "expected a numeric array"),
            (lambda: KrausChannel(np.eye(2)), "Kraus family must be"),
            (lambda: identity_channel(-1), "dimension must be a nonnegative integer"),
            (lambda: depolarizing_channel(0.5, -1), "dimension must be a nonnegative integer"),
            (lambda: dephasing_channel(2.5), "dimension must be a nonnegative integer"),
        ],
        ids=[
            "cq-empty",
            "identity-0",
            "depolarizing-0",
            "dephasing-0",
            "replacement-0",
            "non-numeric",
            "ragged",
            "single-matrix",
            "identity-negative",
            "depolarizing-negative",
            "dephasing-fractional",
        ],
    )
    def test_malformed_family_rejected(self, build, match):
        # each once ended in a raw IndexError, ValueError or ZeroDivisionError
        with pytest.raises(ValidationError, match=match):
            build()

    def test_trace_decreasing_family_is_an_operation_only(self):
        family = (np.diag([1.0, 0.6]), np.diag([0.0, 0.3]))
        op = QuantumOperation(family)
        assert np.allclose(op.kraus_gram(), np.diag([1.0, 0.45]))
        with pytest.raises(ValidationError, match="not trace preserving"):
            KrausChannel(family)

    @pytest.mark.parametrize("cls, match", [(KrausChannel, "not trace preserving"), (QuantumOperation, "increases trace")])
    def test_trace_increasing_family_rejected(self, cls, match):
        with pytest.raises(ValidationError, match=match):
            cls((np.diag([1.0, 0.8]), np.diag([0.0, 0.8])))

    def test_stack_and_row_tuple_build_equal_channels(self):
        stack = sample_channel(2, 3, 3, seed=7).kraus_stack()
        rho = sample_state(2, seed=8)
        from_stack, from_rows = KrausChannel(stack), KrausChannel(tuple(stack))
        assert isinstance(from_stack.kraus, tuple) and len(from_stack.kraus) == 3
        assert np.array_equal(from_stack.kraus_stack(), from_rows.kraus_stack())
        assert all(np.array_equal(a, b) for a, b in zip(from_stack.kraus, from_rows.kraus))
        assert np.array_equal(apply(from_stack, rho), apply(from_rows, rho))

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_caller_mutation_does_not_reach_the_channel(self, dtype):
        stack = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=dtype)
        rho = sample_state(2, seed=9)
        chan = KrausChannel(stack)
        before = apply(chan, rho)
        stack[:] = 0.0
        assert np.array_equal(apply(chan, rho), before)
        assert chan.kraus_stack().flags.c_contiguous and chan.kraus_stack().flags.owndata


def _reference_prepare_loop(w, u, d_in, columns):
    """Measure-and-prepare operators written out as loops: ``sqrt(w_m) u_m`` in column ``a`` for each ``a``."""
    kraus = []
    for m in range(len(w)):
        if w[m] <= 1e-14:
            continue
        for a in columns:
            k = np.zeros((len(w), d_in), dtype=complex)
            k[:, a] = np.sqrt(w[m]) * u[:, m]
            kraus.append(k)
    return kraus


def reference_replacement(tau, d_in):
    w, u = hermitian_eig(tau)
    return np.array(_reference_prepare_loop(w, u, d_in, range(d_in)))


def reference_cq(states):
    kraus = []
    for k, sigma in enumerate(states):
        w, u = hermitian_eig(sigma)
        kraus += _reference_prepare_loop(w, u, len(states), [k])
    return np.array(kraus)


def reference_truncate(channel, n, tau, ordering=None):
    w, u = hermitian_eig(tau)
    d_out = channel.dim_out
    basis = np.eye(d_out, dtype=complex) if ordering is None else hermitian_eig(ordering)[1]
    lead, rest = basis[:, :n], basis[:, n:]
    post = [lead @ lead.conj().T]
    for m in range(len(w)):
        if w[m] <= 1e-14:
            continue
        for k in range(rest.shape[1]):
            post.append(np.sqrt(w[m]) * np.outer(u[:, m], rest[:, k].conj()))
    return np.array([p @ k for p in post for k in channel.kraus])


def reference_minimize(op, cutoff=1e-12):
    vecs = np.stack([k.reshape(-1) for k in op.kraus], axis=1)
    choi = vecs @ vecs.conj().T
    w, u = np.linalg.eigh(0.5 * (choi + choi.conj().T))
    return np.array(
        [np.sqrt(w[m]) * u[:, m].reshape(op.dim_out, op.dim_in) for m in reversed(range(len(w))) if w[m] > cutoff]
    )


class TestBuilderStacks:
    """Each builder's Kraus stack, entry for entry and in order, against a reference written out as loops."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    @pytest.mark.parametrize("d_in", [1, 2, 4])
    def test_replacement(self, rank, d_in):
        tau = sample_state(3, rank=rank, seed=10 + rank)
        stack = replacement_channel(tau, dim_in=d_in).kraus_stack()
        assert stack.shape == (rank * d_in, 3, d_in)
        assert np.array_equal(stack, reference_replacement(tau, d_in))

    def test_cq_rank_deficient_states(self):
        states = [sample_state(3, rank=r, seed=20 + r) for r in (1, 3, 2)]
        stack = cq_channel(states).kraus_stack()
        assert stack.shape == (6, 3, 3)
        assert np.array_equal(stack, reference_cq(states))

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_truncate(self, n, rank, ordered):
        chan = sample_channel(2, 3, 2, seed=30 + n)
        tau = sample_state(3, rank=rank, seed=31)
        ordering = sample_hermitian(3, seed=32) if ordered else None
        trunc = truncate(chan, n, tau, ordering)
        expected = reference_truncate(chan, n, tau, ordering)
        assert trunc.kraus_stack().shape == ((1 + rank * (3 - n)) * 2, 3, 2)
        assert np.array_equal(trunc.kraus_stack(), expected)
        assert np.array_equal(minimize_kraus(trunc).kraus_stack(), reference_minimize(QuantumOperation(tuple(expected))))

    def test_complementary(self):
        chan = sample_channel(2, 3, 4, seed=40)
        ks, comp = chan.kraus_stack(), complementary(chan).kraus_stack()
        assert comp.shape == (3, 4, 2)
        for e, b, a in np.ndindex(ks.shape):
            assert comp[b, e, a] == ks[e, b, a]

    def test_restrict(self):
        chan = sample_channel(3, 2, 3, seed=41)
        v = sample_isometry(2, 3, seed=42)
        stack = restrict(chan, v).kraus_stack()
        assert np.array_equal(stack, np.array([k @ v for k in chan.kraus]))

    def test_sample_channel(self):
        v = sample_isometry(2, 3 * 4, seed=43)
        stack = sample_channel(2, 3, 4, seed=43).kraus_stack()
        for e, b, a in np.ndindex(stack.shape):
            assert stack[e, b, a] == v[b * 4 + e, a]

    @pytest.mark.parametrize("cutoff", [2, 10, 20])
    def test_fock_attenuator(self, cutoff):
        eta, dim = 0.6, cutoff + 1
        ops = np.zeros((dim, dim, dim))
        for n in range(dim):
            for ell in range(n + 1):  # K_ell |n> = amp |n - ell>
                ops[ell, n - ell, n] = math.sqrt(math.comb(n, ell) * eta ** (n - ell) * (1.0 - eta) ** ell)
        ops /= np.sqrt(np.einsum("lmn->n", ops**2))[None, None, :]
        assert np.array_equal(fock_attenuator(eta, cutoff).kraus_stack(), ops.astype(complex))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_named_channels(self, dim):
        p = 0.3
        depol = [np.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
        for i, j in np.ndindex(dim, dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = np.sqrt(p / dim)
            depol.append(k)
        assert np.array_equal(depolarizing_channel(p, dim).kraus_stack(), np.array(depol))
        assert np.array_equal(dephasing_channel(dim).kraus_stack(), np.array([np.diag(e) for e in np.eye(dim)]))
        assert np.array_equal(identity_channel(dim).kraus_stack(), np.eye(dim)[None])


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

    @pytest.mark.parametrize("action", [apply, dual_apply, environment_output, dual_environment])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([["a", "b"], ["c", "d"]], "expected a numeric array"),
            ([1, 0], "expected a square matrix"),
            (2.0, "expected a square matrix"),
        ],
    )
    def test_malformed_operand_rejected(self, action, bad, message):
        # raised a raw ValueError (non-numeric) or IndexError (1-D, scalar) before
        chan = sample_channel(2, 2, 2, seed=3)
        with pytest.raises(ValidationError, match=message):
            action(chan, bad)

    def test_complex_operand_is_not_copied(self):
        # the mutual-information kernels pass their matrices through on the hot path
        chan, rho = sample_channel(2, 3, 2, seed=4), sample_state(2, seed=5)
        assert _operand(chan, rho) is rho
        assert _operand(chan, rho.real).dtype == complex


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

    @pytest.mark.parametrize("rank", [2.7, 2.0, "2", True, np.float64(2.0), None])
    def test_non_integer_rank_rejected(self, rank):
        with pytest.raises(ValidationError, match="truncation rank must be an integer"):
            truncate(identity_channel(3), rank, basis_state(3, 0))

    def test_numpy_integer_rank_accepted(self):
        tau = basis_state(3, 0)
        trunc = truncate(identity_channel(3), np.int64(2), tau)
        assert np.array_equal(trunc.kraus_stack(), truncate(identity_channel(3), 2, tau).kraus_stack())


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

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_one_checked_spectrum_per_state(self, eig_calls, k):
        sigmas = [sample_state(2, seed=80 + j) for j in range(k)]
        eig_calls.clear()
        cq_channel(sigmas)
        assert len(eig_calls) == k + 1  # and one for the trace-preservation check

    def test_kraus_follow_descending_eigenvalues(self):
        chan = cq_channel([np.diag([0.2, 0.8]), np.diag([0.7, 0.3])])
        norms = [float(np.linalg.norm(k)) for k in chan.kraus]
        assert np.allclose(np.square(norms), [0.8, 0.2, 0.7, 0.3], atol=1e-12)


@pytest.mark.parametrize("name", ["replacement_channel", "truncate"])
def test_target_state_diagonalized_once(eig_calls, name):
    tau, ident = sample_state(3, seed=85), identity_channel(3)
    eig_calls.clear()
    if name == "truncate":
        truncate(ident, 2, tau)
    else:
        replacement_channel(tau, dim_in=2)
    assert len(eig_calls) == 2  # the checked spectrum of tau and the trace-preservation check


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

    def test_discrete_detection_maps_each_basis_operator_once(self, monkeypatch):
        # the commutator test and the basis search share one list of the d_out^2 dual images
        calls = []
        monkeypatch.setattr(channels, "dual_apply", lambda op, a: calls.append(a) or dual_apply(op, a))
        chan = dephasing_channel(3)
        res = is_cq_discrete(chan)
        assert res.is_discrete and len(calls) == 9
        assert is_cq(chan).max_commutator == res.max_commutator


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

    @pytest.mark.parametrize("bad", [[["a"], ["b"]], [1.0, 0.0]])
    def test_malformed_basis_rejected(self, bad):
        with pytest.raises(ValidationError):
            restrict(identity_channel(2), bad)


class TestMinimizeKraus:
    def test_equivalence_and_reduction(self):
        chan = sample_channel(2, 2, 2, seed=100)
        padded = KrausChannel(chan.kraus + (np.zeros((2, 2)),))
        slim = minimize_kraus(padded)
        assert slim.env_dim <= 4
        rho = sample_state(2, seed=101)
        assert np.abs(apply(slim, rho) - apply(chan, rho)).max() <= 1e-9


class TestWorkspace:
    """The channel actions and both mutual-information routes write their stack-sized temporaries into a
    workspace the channel keeps; it is taken out of the channel for each call and put back after."""

    CALLS = {
        "relative_entropy": lambda op, x: mutual_information(x, op),
        "entropies": lambda op, x: mutual_information(x, op, route="entropies"),
        "outputs": _output_and_environment,
        "apply": apply,
        "dual_apply": dual_apply,
        "environment_output": environment_output,
        "dual_environment": dual_environment,
    }

    @staticmethod
    def operand(kernel, op, rho):
        """``rho``, or for a dual map an observable of the right side built from it."""
        return {"dual_apply": apply, "dual_environment": environment_output}.get(kernel, lambda _, r: r)(op, rho)

    @pytest.mark.parametrize("kernel", CALLS)
    def test_warm_call_allocates_no_stack_sized_block(self, kernel):
        att, rho = fock_attenuator(0.6, 30), thermal_state(0.5, 30)
        call, x = self.CALLS[kernel], self.operand(kernel, att, rho)
        call(att, x)  # the first call makes the (B, E, A) copy and the workspace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call(att, x)
            grown = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # one stack is 477 KB here; Phi(rho), env and their spectra are 31 x 31
        assert grown < att.kraus_stack().nbytes

    def test_concurrent_calls_on_one_channel_match_serial_values(self):
        att, rng = fock_attenuator(0.6, 16), np.random.default_rng(21)
        states = [[sample_state(17, seed=int(s)) for s in rng.integers(0, 2**31, 50)] for _ in range(4)]

        def values(rows):
            return [(mutual_information(r, att), mutual_information(r, att, route="entropies")) for r in rows]

        serial, results, start = [values(rows) for rows in states], [None] * 4, threading.Barrier(4, timeout=60)

        def run(i):
            start.wait()
            results[i] = values(states[i])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that calls interleave inside the kernels
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_pickle_and_deepcopy_round_trip_after_a_call(self):
        att, rho = fock_attenuator(0.6, 8), thermal_state(0.5, 8)
        value = mutual_information(rho, att)
        for twin in (pickle.loads(pickle.dumps(att)), copy.deepcopy(att)):
            assert type(twin) is KrausChannel and "_work" not in vars(twin)  # the workspace holds no value
            assert np.array_equal(twin.kraus_stack(), att.kraus_stack())
            assert all(np.array_equal(k, l) for k, l in zip(twin.kraus, att.kraus, strict=True))
            assert mutual_information(rho, twin) == value == mutual_information(rho, att)
            assert np.array_equal(apply(twin, rho), apply(att, rho))

    def test_pickle_carries_the_kraus_data_once(self):
        # the rows are views of the stack and the (B, E, A) copy is rebuilt on use: neither is pickled
        att = fock_attenuator(0.6, 40)
        before = len(pickle.dumps(att))
        mutual_information(thermal_state(1.0, 40), att)
        after = len(pickle.dumps(att))
        assert max(before, after) < 1.2 * att.kraus_stack().nbytes

    @pytest.mark.parametrize("kernel", ["outputs", "apply", "dual_apply", "environment_output", "dual_environment"])
    def test_results_are_not_views_of_the_workspace(self, kernel):
        chan, call = sample_channel(3, 4, 5, seed=11), self.CALLS[kernel]
        x, y = (self.operand(kernel, chan, sample_state(3, seed=seed)) for seed in (12, 13))
        first = call(chan, x)
        first = first if isinstance(first, tuple) else (first,)
        kept = [f.copy() for f in first]
        assert not any(np.shares_memory(f, chan.__dict__["_work"]) for f in first)
        call(chan, y)
        assert all(np.array_equal(f, k) for f, k in zip(first, kept))
