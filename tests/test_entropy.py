import math

import numpy as np
import pytest

from entrocap import (
    Ensemble,
    QuantumOperation,
    ValidationError,
    apply,
    chi_quantity,
    chi_through,
    coherent_information,
    complementary,
    conditional_entropy,
    dephasing_channel,
    entropy,
    fixed_marginal_ensemble,
    identity_channel,
    mutual_information,
    partial_trace,
    pure_state_ensemble,
    raw_entropy,
    relative_entropy,
    replacement_channel,
    sample_channel,
    sample_pure,
    sample_state,
    tensor,
    tensor_channel,
    unitary_channel,
)


def shannon(probabilities):
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def random_channel(rng, d_in, d_out, rank=None):
    rank = rank or int(rng.integers(max(1, -(-d_in // d_out)), 5))
    rank = max(rank, -(-d_in // d_out))
    return sample_channel(d_in, d_out, rank, seed=int(rng.integers(0, 2**31)))


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
