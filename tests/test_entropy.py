import importlib
import math
import tracemalloc

import numpy as np
import pytest

from entrocap import (
    Ensemble,
    QuantumOperation,
    ValidationError,
    apply,
    attenuator_params,
    chi_quantity,
    chi_through,
    coherent_information,
    complementary,
    conditional_entropy,
    dephasing_channel,
    entropy,
    fixed_marginal_ensemble,
    fock_attenuator,
    gaussian_mi_oracle,
    identity_channel,
    mutual_information,
    partial_trace,
    pure_state_ensemble,
    purify,
    raw_entropy,
    relative_entropy,
    replacement_channel,
    sample_channel,
    sample_pure,
    sample_state,
    tensor,
    tensor_channel,
    thermal_gaussian_state,
    thermal_state,
    unitary_channel,
)
from entrocap.entropy import _member_terms, _spectra
from entrocap.linalg import hermitian_log2


def shannon(probabilities):
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def random_channel(rng, d_in, d_out, rank=None):
    rank = rank or int(rng.integers(max(1, -(-d_in // d_out)), 5))
    rank = max(rank, -(-d_in // d_out))
    return sample_channel(d_in, d_out, rank, seed=int(rng.integers(0, 2**31)))


def dense_mutual_information(rho, op):
    """The relative-entropy MI on the dense (d_out d)^2 joint state and product."""
    d = rho.shape[0]
    phi = purify(rho).vec.reshape(d, d)
    vecs = [(k @ phi).reshape(-1) for k in op.kraus]
    joint = sum(np.outer(v, v.conj()) for v in vecs)
    ref = phi.T @ phi.conj()
    return relative_entropy(joint, tensor(apply(op, rho), ref), support_tol=0.0, leak_tol=1e-9)


class TestEntropy:
    def test_maximally_mixed_qubit(self):
        assert abs(entropy(np.eye(2) / 2) - 1.0) <= 1e-12

    def test_pure_state(self):
        v = sample_pure(5, seed=1).vec
        assert entropy(np.outer(v, v.conj())) <= 1e-10

    def test_binary_entropy_oracle(self):
        # scalar binary-entropy formula as the independent reference
        assert abs(entropy(np.diag([0.75, 0.25])) - shannon([0.75, 0.25])) <= 1e-12
        assert abs(shannon([0.75, 0.25]) - 0.8112781244591328) <= 1e-12

    def test_bounded_by_log_dim(self):
        for seed in range(10):
            d = 2 + seed % 4
            assert -1e-12 <= entropy(sample_state(d, seed=seed)) <= math.log2(d) + 1e-12

    def test_extensions_on_subnormalized(self):
        a = 0.5 * sample_state(3, seed=2)
        # raw variant picks up the -t log2 t term; homogeneous variant scales
        assert abs(entropy(a) - 0.5 * entropy(2 * a)) <= 1e-12
        assert abs(raw_entropy(a) - (entropy(a) - 0.5 * math.log2(0.5))) <= 1e-12
        assert raw_entropy(a) >= entropy(a)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValidationError):
            entropy(np.diag([1.2, -0.2]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValidationError):
            entropy(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = sample_state(3, seed=3)
        assert abs(relative_entropy(rho, rho)) <= 1e-10

    def test_orthogonal_supports_infinite(self):
        assert relative_entropy(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf

    def test_classical_kl(self):
        val = relative_entropy(np.diag([0.5, 0.5]), np.diag([0.75, 0.25]))
        kl = 0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25)
        assert abs(val - kl) <= 1e-12
        assert abs(kl - 0.2075187496) <= 1e-9

    def test_commuting_reduction(self):
        p = np.array([0.2, 0.3, 0.5])
        q = np.array([0.4, 0.4, 0.2])
        val = relative_entropy(np.diag(p), np.diag(q))
        assert abs(val - float((p * np.log2(p / q)).sum())) <= 1e-12

    def test_nonnegative_on_states(self):
        for seed in range(20):
            a = sample_state(3, seed=seed)
            b = sample_state(3, seed=1000 + seed)
            assert relative_entropy(a, b) >= -1e-10

    def test_trace_mismatch_term(self):
        # H(A||B) = Tr A log A - Tr A log B + (Tr B - Tr A)/ln 2 on scalars
        a, b = np.array([[0.3]]), np.array([[0.7]])
        expect = 0.3 * math.log2(0.3 / 0.7) + (0.7 - 0.3) / math.log(2.0)
        assert abs(relative_entropy(a, b) - expect) <= 1e-12
        assert relative_entropy(a, b) >= 0.0


def pure_images(op, vectors):
    return np.stack([apply(op, np.outer(v, v.conj())) for v in vectors])


class TestBatchedSpectralKernel:
    """The stacked member terms against the per-member public functions."""

    def check_members(self, images, avg, cap=60.0):
        scores, entropies, logs = _member_terms(images, avg, cap)
        for img, score, ent, log in zip(images, scores, entropies, logs):
            assert abs(score - min(relative_entropy(img, avg), cap)) <= 1e-12  # min(inf, cap) is cap
            assert abs(ent - entropy(img)) <= 1e-12
            ref = hermitian_log2(img)
            # log2 of a floored kernel eigenvalue is about -100, so compare relative to the entries
            assert np.abs(log - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        return scores

    def test_matches_per_member_path_on_random_channels(self):
        rng = np.random.default_rng(61)
        for d_in in range(1, 5):
            for d_out in range(1, 5):
                for rank in (1, 2, 4):
                    op = sample_channel(d_in, d_out, max(rank, -(-d_in // d_out)), seed=int(rng.integers(2**31)))
                    m = int(rng.integers(1, 6))
                    vectors = rng.standard_normal((m, d_in)) + 1j * rng.standard_normal((m, d_in))
                    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
                    images = pure_images(op, vectors)
                    weights = rng.dirichlet(np.ones(m))
                    self.check_members(images, np.einsum("i,ibc->bc", weights, images))

    def test_leak_reads_the_cap(self):
        # the average is the first image alone, so the other members leak out of its support
        op = dephasing_channel(3)
        images = pure_images(op, np.eye(3, dtype=complex))
        scores = self.check_members(images, images[0], cap=60.0)
        assert scores[0] == pytest.approx(0.0, abs=1e-12)
        assert list(scores[1:]) == [60.0, 60.0]
        # a finite relative entropy above the cap is capped too
        avg = np.diag([1.0 - 2e-11, 1e-11, 1e-11])
        assert 10.0 < relative_entropy(images[1], avg) < math.inf
        assert list(self.check_members(images, avg, cap=10.0)[1:]) == [10.0, 10.0]

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[0.5, 0.1], [0.0, 0.5]]),  # not Hermitian
            np.diag([1.1, -0.1]),  # negative eigenvalue
            np.diag([0.7, 0.7]),  # trace above 1
            np.array([[math.nan, 0.0], [0.0, 1.0]]),  # non-finite
        ],
    )
    def test_bad_member_fails_like_the_per_member_path(self, bad):
        images = np.stack([np.eye(2) / 2, bad.astype(complex)])
        with pytest.raises(ValidationError):
            entropy(bad)
        with pytest.raises(ValidationError):
            _member_terms(images, np.eye(2) / 2, 60.0)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            _spectra(np.zeros((3, 2, 3)))


class TestConditionalEntropy:
    def test_product_state(self):
        a, b = sample_state(2, seed=4), sample_state(3, seed=5)
        val = conditional_entropy(tensor(a, b), (2, 3))
        assert abs(val - entropy(a)) <= 1e-9

    def test_maximally_entangled(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        val = conditional_entropy(np.outer(bell, bell.conj()), (2, 2))
        assert abs(val + 1.0) <= 1e-9

    def test_classical_correlated(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert abs(conditional_entropy(rho, (2, 2))) <= 1e-9

    def test_agrees_with_entropy_difference(self):
        for seed in range(20):
            rho = sample_state(6, seed=seed)
            primary = conditional_entropy(rho, (2, 3))
            diff = entropy(rho) - entropy(partial_trace(rho, (2, 3), (1,)))
            assert abs(primary - diff) <= 1e-8

    def test_monotonicity_tripartite(self):
        for seed in range(40):
            dims = (2, 2, 2) if seed % 2 else (2, 3, 2)
            rho = sample_state(int(np.prod(dims)), seed=seed)
            hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
            habc = conditional_entropy(rho, dims, sys=(0,), cond=(1, 2))
            assert habc <= hab + 1e-8

    def test_pure_state_duality(self):
        for seed in range(40):
            dims = (2, 2, 2) if seed % 2 else (2, 3, 2)
            v = sample_pure(int(np.prod(dims)), seed=seed).vec
            rho = np.outer(v, v.conj())
            hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
            hac = conditional_entropy(rho, dims, sys=(0,), cond=(2,))
            assert abs(hab + hac) <= 1e-8

    def test_bad_layout(self):
        with pytest.raises(ValidationError):
            conditional_entropy(np.eye(4) / 4, (2, 2), sys=(0,), cond=(0,))


class TestEnsembles:
    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            Ensemble(np.array([0.6, 0.6]), (np.eye(2) / 2, np.eye(2) / 2))

    def test_barycenter(self):
        mu = pure_state_ensemble([0.5, 0.5], [np.array([1, 0]), np.array([0, 1])])
        assert np.abs(mu.barycenter() - np.eye(2) / 2).max() <= 1e-12

    def test_chi_all_equal_members(self):
        rho = sample_state(2, seed=6)
        mu = Ensemble(np.array([0.3, 0.7]), (rho, rho))
        assert abs(chi_quantity(mu)) <= 1e-10

    def test_chi_orthogonal_pure(self):
        mu = pure_state_ensemble([0.5, 0.5], [np.array([1, 0]), np.array([0, 1])])
        assert abs(chi_quantity(mu) - 1.0) <= 1e-12

    def test_chi_pure_ensemble_equals_barycenter_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(m))
            vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(m)]
            mu = pure_state_ensemble(weights, vecs)
            assert abs(chi_quantity(mu) - entropy(mu.barycenter())) <= 1e-8

    def test_chi_two_forms_agree(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(m))
            states = tuple(sample_state(3, seed=int(rng.integers(0, 2**31))) for _ in range(m))
            mu = Ensemble(weights, states)
            second = entropy(mu.barycenter()) - sum(
                p * entropy(s) for p, s in zip(mu.weights, mu.states)
            )
            assert abs(chi_quantity(mu) - second) <= 1e-8
            assert -1e-10 <= chi_quantity(mu) <= entropy(mu.barycenter()) + 1e-8


class TestChiThrough:
    def test_identity_channel(self):
        mu = pure_state_ensemble([0.4, 0.6], [np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)])
        assert abs(chi_through(identity_channel(2), mu) - chi_quantity(mu)) <= 1e-10

    def test_replacement_channel(self):
        mu = pure_state_ensemble([0.4, 0.6], [np.array([1, 0]), np.array([0, 1])])
        chan = replacement_channel(sample_state(2, seed=9), dim_in=2)
        assert abs(chi_through(chan, mu)) <= 1e-10

    def test_dephasing_merges_conjugate_basis(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        mu = pure_state_ensemble([0.5, 0.5], [plus, minus])
        assert abs(chi_through(dephasing_channel(2), mu)) <= 1e-10

    def test_monotone_under_channels(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(m))
            states = tuple(sample_state(3, seed=int(rng.integers(0, 2**31))) for _ in range(m))
            mu = Ensemble(weights, states)
            chan = random_channel(rng, 3, int(rng.integers(2, 5)))
            assert chi_through(chan, mu) <= chi_quantity(mu) + 1e-8

    def test_operation_form_matches_extended_relative_entropy(self):
        rng = np.random.default_rng(11)
        proj = np.zeros((3, 3), dtype=complex)
        proj[0, 0] = proj[1, 1] = 1.0
        op = QuantumOperation((proj,))
        for _ in range(10):
            m = int(rng.integers(2, 5))
            weights = rng.dirichlet(np.ones(m))
            states = tuple(sample_state(3, seed=int(rng.integers(0, 2**31))) for _ in range(m))
            mu = Ensemble(weights, states)
            images = [apply(op, s) for s in states]
            avg = apply(op, mu.barycenter())
            direct = sum(
                p * relative_entropy(img, avg) for p, img in zip(weights, images) if p > 0
            )
            assert abs(chi_through(op, mu) - direct) <= 1e-8


class TestMutualInformation:
    def test_identity_qubit_maximally_mixed(self):
        assert abs(mutual_information(np.eye(2) / 2, identity_channel(2)) - 2.0) <= 1e-9

    def test_replacement_is_zero(self):
        chan = replacement_channel(sample_state(3, seed=12), dim_in=2)
        for seed in range(3):
            assert abs(mutual_information(sample_state(2, seed=seed), chan)) <= 1e-9

    def test_dephasing_maximally_mixed(self):
        assert abs(mutual_information(np.eye(2) / 2, dephasing_channel(2)) - 1.0) <= 1e-9

    def test_route_agreement(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(60):
            d_in = int(rng.integers(2, 5))
            d_out = int(rng.integers(2, 5))
            chan = random_channel(rng, d_in, d_out)
            rho = sample_state(d_in, rank=int(rng.integers(1, d_in + 1)), seed=int(rng.integers(0, 2**31)))
            worst = max(
                worst,
                abs(mutual_information(rho, chan) - mutual_information(rho, chan, route="entropies")),
            )
        assert worst <= 1e-8

    def test_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            chan = random_channel(rng, 3, 3)
            rho = sample_state(3, seed=int(rng.integers(0, 2**31)))
            val = mutual_information(rho, chan, route="entropies")
            assert -1e-9 <= val <= 2 * math.log2(3) + 1e-9

    def test_concavity_spot_check(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            chan = random_channel(rng, 2, 2)
            r1 = sample_state(2, seed=int(rng.integers(0, 2**31)))
            r2 = sample_state(2, seed=int(rng.integers(0, 2**31)))
            mid = mutual_information((r1 + r2) / 2, chan, route="entropies")
            ends = 0.5 * (
                mutual_information(r1, chan, route="entropies")
                + mutual_information(r2, chan, route="entropies")
            )
            assert mid >= ends - 1e-8

    def test_additivity_on_products(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            c1 = random_channel(rng, 2, 2)
            c2 = random_channel(rng, 2, 2)
            r1 = sample_state(2, seed=int(rng.integers(0, 2**31)))
            r2 = sample_state(2, seed=int(rng.integers(0, 2**31)))
            joint = mutual_information(tensor(r1, r2), tensor_channel(c1, c2), route="entropies")
            split = mutual_information(r1, c1, route="entropies") + mutual_information(r2, c2, route="entropies")
            assert abs(joint - split) <= 1e-8


class TestTensorStructuredRoute:
    """The default relative-entropy route, evaluated without the dense joint state."""

    @pytest.mark.parametrize("cutoff", [40, 80])
    def test_fock_attenuator_matches_entropies_route(self, cutoff):
        att, rho = fock_attenuator(0.6, cutoff), thermal_state(1.0, cutoff)
        value = mutual_information(rho, att)
        assert abs(value - mutual_information(rho, att, route="entropies")) <= 1e-12
        if cutoff == 80:
            oracle = gaussian_mi_oracle(attenuator_params(0.6), thermal_gaussian_state(1.0))
            assert abs(value - oracle) <= 1e-9

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(21)
        cases = []
        for d_in, d_out in [(2, 3), (3, 2), (4, 2), (2, 5), (3, 3)]:
            chan = random_channel(rng, d_in, d_out)
            cases.append((sample_state(d_in, seed=int(rng.integers(0, 2**31))), chan))
            cases.append((sample_state(d_in, rank=1, seed=int(rng.integers(0, 2**31))), chan))
        cases.append((sample_state(2, seed=22), replacement_channel(sample_state(3, seed=23), dim_in=2)))
        chan = random_channel(rng, 3, 3, rank=2)
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        cases.append((sample_state(3, seed=24), QuantumOperation(tuple(proj @ k for k in chan.kraus))))
        for rho, op in cases:
            assert abs(mutual_information(rho, op) - dense_mutual_information(rho, op)) <= 1e-12

    def test_independent_of_dense_and_environment_paths(self, monkeypatch):
        att, rho = fock_attenuator(0.6, 12), thermal_state(0.5, 12)
        expected = mutual_information(rho, att, route="entropies")

        def forbidden(*args, **kwargs):
            raise AssertionError("the relative-entropy route must not call this")

        module = importlib.import_module("entrocap.entropy")  # the package attribute is the function
        for name in ("environment_output", "tensor", "relative_entropy"):
            monkeypatch.setattr(module, name, forbidden)
        assert abs(mutual_information(rho, att) - expected) <= 1e-12

    def test_no_dense_joint_allocation(self):
        att, rho = fock_attenuator(0.6, 40), thermal_state(1.0, 40)
        tracemalloc.start()
        try:
            mutual_information(rho, att)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense (41^2)^2 joint state alone is 45 MB, 41x the Kraus stack
        assert peak <= 10 * att.kraus_stack().nbytes


class TestCoherentInformation:
    def test_identity(self):
        rho = sample_state(3, seed=17)
        assert abs(coherent_information(rho, identity_channel(3)) - entropy(rho)) <= 1e-8

    def test_replacement(self):
        rho = sample_state(2, seed=18)
        chan = replacement_channel(sample_state(2, seed=19), dim_in=2)
        assert abs(coherent_information(rho, chan) + entropy(rho)) <= 1e-8

    def test_dephasing_maximally_mixed(self):
        assert abs(coherent_information(np.eye(2) / 2, dephasing_channel(2))) <= 1e-9

    def test_entropy_difference_form(self):
        from entrocap import environment_output

        rng = np.random.default_rng(20)
        for _ in range(15):
            chan = random_channel(rng, 3, 3)
            rho = sample_state(3, seed=int(rng.integers(0, 2**31)))
            lhs = coherent_information(rho, chan)
            rhs = entropy(apply(chan, rho)) - entropy(environment_output(chan, rho))
            assert abs(lhs - rhs) <= 1e-8


class TestDecompositionIndependence:
    def test_chi_difference_same_for_all_pure_decompositions(self):
        # two different pure decompositions of one state give the same
        # receiver-minus-environment difference
        rng = np.random.default_rng(24)
        for trial in range(8):
            chan = random_channel(rng, 3, 3)
            rho = sample_state(3, seed=trial + 300)
            w, u = np.linalg.eigh(rho)
            eigen_mu = pure_state_ensemble(
                np.clip(w, 0, None) / np.clip(w, 0, None).sum(),
                [u[:, k] for k in range(3)],
            )
            m = 5  # mixed decomposition through a random isometry on the roots
            from entrocap import sample_isometry

            stiefel = sample_isometry(3, m, seed=trial + 400)
            roots = u * np.sqrt(np.clip(w, 0, None))
            rows = stiefel @ roots.T
            weights = np.array([float(np.vdot(r, r).real) for r in rows])
            other_mu = pure_state_ensemble(weights, [r for r in rows])
            assert np.abs(other_mu.barycenter() - rho).max() <= 1e-10
            d1 = chi_through(chan, eigen_mu) - chi_through(complementary(chan), eigen_mu)
            d2 = chi_through(chan, other_mu) - chi_through(complementary(chan), other_mu)
            assert abs(d1 - d2) <= 1e-8


class TestFixedMarginalEnsemble:
    def test_single_identity_encoding(self):
        omega = sample_state(4, seed=21)
        mu = fixed_marginal_ensemble(omega, [identity_channel(2)], [1.0], (2, 2))
        assert len(mu) == 1
        assert np.abs(mu.states[0] - omega).max() <= 1e-12

    def test_dense_coding_ensemble(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        omega = np.outer(bell, bell.conj())
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        ]
        encodings = [unitary_channel(p) for p in paulis]
        mu = fixed_marginal_ensemble(omega, encodings, [0.25] * 4, (2, 2))
        # four orthogonal maximally entangled states
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.trace(mu.states[i] @ mu.states[j])) <= 1e-10
        assert abs(chi_quantity(mu) - 2.0) <= 1e-8

    def test_common_marginal_residual(self):
        rng = np.random.default_rng(22)
        omega = sample_state(6, seed=23)
        encodings = [random_channel(rng, 2, 2) for _ in range(4)]
        mu = fixed_marginal_ensemble(omega, encodings, [0.25] * 4, (2, 3))
        base = partial_trace(mu.states[0], (2, 3), (1,))
        for member in mu.states:
            assert np.abs(partial_trace(member, (2, 3), (1,)) - base).max() <= 1e-10


class TestTruncationDevices:
    """Finite realizations of the projector-truncation approximation scheme."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        chan = random_channel(rng, 3, 3, rank=2)
        rho = sample_state(3, seed=seed + 50)
        w, u = np.linalg.eigh(rho)
        mu = Ensemble(
            np.clip(w[::-1], 0, None) / np.clip(w, 0, None).sum(),
            tuple(np.outer(u[:, k], u[:, k].conj()) for k in reversed(range(3))),
        )
        return chan, rho, mu

    def test_chain_identity_with_weight_term(self):
        # I(rho, op_n) = chi_n - chi-hat_n + a_n for the eigen-ensemble of rho
        for seed in range(5):
            chan, rho, mu = self._setup(seed)
            for n in (1, 2, 3):
                proj = np.zeros((3, 3), dtype=complex)
                for k in range(n):
                    proj[k, k] = 1.0
                op = QuantumOperation(tuple(proj @ k for k in chan.kraus))
                lhs = mutual_information(rho, op)
                weights = mu.weights
                a_n = 0.0
                for p, member in zip(weights, mu.states):
                    if p <= 0:
                        continue
                    a_n -= float(np.trace(apply(op, member)).real) * p * math.log2(p)
                rhs = chi_through(op, mu) - chi_through(complementary(op), mu) + a_n
                assert abs(lhs - rhs) <= 1e-8, (seed, n, lhs, rhs)

    def test_complement_chi_bound_with_trace_defect(self):
        # chi-hat_n <= chi-hat + f(Tr op_n[rho]), f(x) = -2x log2 x - (1-x) log2(1-x)
        def defect_bound(x):
            x = min(max(x, 1e-300), 1.0)
            out = -2.0 * x * math.log2(x)
            if x < 1.0:
                out -= (1.0 - x) * math.log2(1.0 - x)
            return out

        for seed in range(5):
            chan, rho, mu = self._setup(seed)
            full = chi_through(complementary(chan), mu)
            for n in (1, 2, 3):
                proj = np.zeros((3, 3), dtype=complex)
                for k in range(n):
                    proj[k, k] = 1.0
                op = QuantumOperation(tuple(proj @ k for k in chan.kraus))
                kept = float(np.trace(apply(op, rho)).real)
                assert chi_through(complementary(op), mu) <= full + defect_bound(kept) + 1e-8

    def test_truncated_chi_converges_from_below(self):
        for seed in range(5):
            chan, rho, mu = self._setup(seed)
            full = chi_through(chan, mu)
            values = []
            for n in (1, 2, 3):
                proj = np.zeros((3, 3), dtype=complex)
                for k in range(n):
                    proj[k, k] = 1.0
                op = QuantumOperation(tuple(proj @ k for k in chan.kraus))
                values.append(chi_through(op, mu))
                assert values[-1] <= full + 1e-8
            assert abs(values[-1] - full) <= 1e-10
