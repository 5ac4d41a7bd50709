import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import entrocap

from entrocap import (
    GaussianChannelParams,
    GaussianState,
    ResourceLimitError,
    SymplecticSpace,
    ValidationError,
    apply,
    attenuator_params,
    classify_gaussian,
    entropy,
    fock_attenuator,
    gaussian_mi_oracle,
    mean_photon_entropy,
    mutual_information,
    number_operator,
    partial_trace,
    thermal_gaussian_state,
    thermal_state,
    validate_gaussian,
)
from entrocap.gaussian import random_symplectic, standard_symplectic_form, symplectic_eigenvalues

SPACE = SymplecticSpace.standard(1)


def params(k, alpha):
    return GaussianChannelParams(np.asarray(k, float), np.zeros(2), np.asarray(alpha, float), SPACE, SPACE)


class TestValidity:
    def test_zero_k_with_half_identity(self):
        check = validate_gaussian(params(np.zeros((2, 2)), 0.5 * np.eye(2)))
        assert check["valid"]
        # eigenvalues of the two Hermitian forms are {0, 1}
        assert min(check["min_eig_both_signs"]) >= -1e-12
        assert abs(check["min_eig"]) <= 1e-12

    def test_attenuator_boundary(self):
        check = validate_gaussian(attenuator_params(0.6))
        assert check["valid"]
        assert abs(check["min_eig"]) <= 1e-12  # minimal noise sits on the boundary

    def test_zero_alpha_invalid(self):
        check = validate_gaussian(params(np.zeros((2, 2)), np.zeros((2, 2))))
        assert not check["valid"]

    @pytest.mark.parametrize("env_photons", [-0.5, math.nan, math.inf])
    def test_attenuator_needs_finite_environment_photons(self, env_photons):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            attenuator_params(0.6, env_photons)

    def test_attenuator_family_scan(self):
        for eta in (0.25, 0.5, 0.85):
            for n_env in (0.0, 0.3, 1.5):
                alpha = (1 - eta) * (2 * n_env + 1) / 2 * np.eye(2)
                assert validate_gaussian(params(math.sqrt(eta) * np.eye(2), alpha))["valid"]
            for n_env in (-0.02, -0.4):
                alpha = (1 - eta) * (2 * n_env + 1) / 2 * np.eye(2)
                assert not validate_gaussian(params(math.sqrt(eta) * np.eye(2), alpha))["valid"]


class TestClassification:
    def test_fully_depolarizing(self):
        v = classify_gaussian(params(np.zeros((2, 2)), 0.5 * np.eye(2)))
        assert (v["cq"], v["discrete_type"], v["no_discrete_subchannel"]) == (True, True, False)

    def test_rank_one_projection(self):
        v = classify_gaussian(params(np.diag([1.0, 0.0]), np.eye(2)))
        assert (v["cq"], v["discrete_type"], v["no_discrete_subchannel"]) == (True, False, False)

    def test_attenuator(self):
        v = classify_gaussian(attenuator_params(0.6))
        assert (v["cq"], v["discrete_type"], v["no_discrete_subchannel"]) == (False, False, True)

    def test_symplectic_invariance(self):
        cases = [
            params(np.zeros((2, 2)), 0.5 * np.eye(2)),
            params(np.diag([1.0, 0.0]), np.eye(2)),
            attenuator_params(0.6),
        ]
        delta = standard_symplectic_form(1)
        for seed in range(50):
            sa = random_symplectic(2, seed=seed)
            sb = random_symplectic(2, seed=7000 + seed)
            assert np.abs(sa.T @ delta @ sa - delta).max() <= 1e-9
            for base in cases:
                conj = params(sa.T @ base.K @ sb, base.alpha)
                a, b = classify_gaussian(base), classify_gaussian(conj)
                for key in ("cq", "discrete_type", "no_discrete_subchannel"):
                    assert a[key] == b[key]


class TestSymplectics:
    def test_package_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg is imported by random_symplectic, its only user, when first called
        code = "import sys, entrocap; print('scipy.linalg' in sys.modules)"
        src = str(Path(entrocap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_random_symplectic_preserves_form(self):
        delta = standard_symplectic_form(2)
        s = random_symplectic(4, seed=3)
        assert np.abs(s.T @ delta @ s - delta).max() <= 1e-8

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_standard_form_is_the_block_direct_sum(self, modes):
        reference = np.zeros((2 * modes, 2 * modes))
        for m in range(modes):
            reference[2 * m, 2 * m + 1], reference[2 * m + 1, 2 * m] = 1.0, -1.0
        assert np.array_equal(standard_symplectic_form(modes), reference)

    def test_symplectic_eigenvalues_thermal(self):
        cov = np.diag([0.9, 0.9, 0.5, 0.5])
        nus = symplectic_eigenvalues(cov)
        assert np.allclose(sorted(nus, reverse=True), [0.9, 0.5], atol=1e-12)

    def test_state_uncertainty_validation(self):
        with pytest.raises(ValidationError):
            thermal_gaussian_state(-0.5)


class TestFockAttenuator:
    def test_near_unit_transmission(self):
        att = fock_attenuator(1.0 - 1e-9, 6)
        assert np.abs(att.kraus[0] - np.eye(7)).max() <= 1e-4
        assert max(np.abs(k).max() for k in att.kraus[1:]) <= 1e-4

    def test_vacuum_fixed(self):
        att = fock_attenuator(0.6, 5)
        vac = np.zeros((6, 6), dtype=complex)
        vac[0, 0] = 1.0
        assert np.abs(apply(att, vac) - vac).max() <= 1e-12

    def test_single_photon(self):
        att = fock_attenuator(0.6, 5)
        one = np.zeros((6, 6), dtype=complex)
        one[1, 1] = 1.0
        out = apply(att, one)
        assert abs(out[1, 1] - 0.6) <= 1e-12
        assert abs(out[0, 0] - 0.4) <= 1e-12

    @pytest.mark.parametrize("n_in", [1, 2, 3])
    def test_beamsplitter_oracle(self, n_in):
        # brute force: two-mode beamsplitter unitary, environment traced out
        eta, cut = 0.6, 8
        d = cut + 1
        a = np.diag(np.sqrt(np.arange(1, d)), 1)
        mode_a = np.kron(a, np.eye(d))
        mode_b = np.kron(np.eye(d), a)
        theta = math.acos(math.sqrt(eta))
        bs = expm(theta * (mode_a @ mode_b.conj().T - mode_a.conj().T @ mode_b))
        psi = np.zeros(d)
        psi[n_in] = 1.0
        vac = np.zeros(d)
        vac[0] = 1.0
        out_vec = bs @ np.kron(psi, vac)
        joint = np.outer(out_vec, out_vec.conj())
        brute = partial_trace(joint, (d, d), (0,))
        direct = apply(fock_attenuator(eta, cut), np.outer(psi, psi.conj()))
        assert np.abs(brute - direct).max() <= 1e-10

    def test_eta_range(self):
        with pytest.raises(ValidationError):
            fock_attenuator(1.5, 5)

    def test_thermal_mean_scaling(self):
        for eta in (0.3, 0.6, 0.9):
            for n in (0.5, 1.0):
                cut = 30
                att = fock_attenuator(eta, cut)
                th = thermal_state(n, cut)
                out_mean = float(np.trace(apply(att, th) @ number_operator(cut)).real)
                tail = (n / (n + 1)) ** (cut + 1) * (cut + 2)
                assert abs(out_mean - eta * n) <= tail + 1e-9


class TestThermal:
    def test_vacuum(self):
        th = thermal_state(0.0, 10)
        assert abs(th[0, 0] - 1.0) <= 1e-14
        assert np.array_equal(thermal_state(0.0, 3), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    def test_mean_photons_with_tail_bound(self):
        for n, cut in ((0.5, 25), (1.0, 40), (2.0, 60)):
            th = thermal_state(n, cut)
            mean = float(np.trace(th @ number_operator(cut)).real)
            tail = (n / (n + 1)) ** (cut + 1) * (cut + 2)
            assert abs(mean - n) <= tail + 1e-12

    def test_entropy_matches_scalar_formula(self):
        assert abs(entropy(thermal_state(1.0, 40)) - mean_photon_entropy(1.0)) <= 1e-6
        assert abs(mean_photon_entropy(1.0) - 2.0) <= 1e-12

    def test_negative_mean_rejected(self):
        with pytest.raises(ValidationError):
            thermal_state(-0.2, 10)

    @pytest.mark.parametrize(
        "builder, cutoff",
        [
            ("thermal_state", -1),
            ("thermal_state", 2.7),
            ("thermal_state", True),
            ("number_operator", -3),
            ("number_operator", 2.7),
            ("fock_attenuator", 2.7),
            ("fock_attenuator", 1),
        ],
    )
    def test_cutoff_must_be_an_integer_in_range(self, builder, cutoff):
        build = {
            "thermal_state": lambda c: thermal_state(1.0, c),
            "number_operator": number_operator,
            "fock_attenuator": lambda c: fock_attenuator(0.6, c),
        }[builder]
        with pytest.raises(ValidationError, match="cutoff"):
            build(cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        assert thermal_state(1.0, np.int64(3)).shape == (4, 4)
        assert number_operator(np.int64(0)).shape == (1, 1)

    def test_huge_attenuator_cutoff_refused_before_allocating(self):
        with pytest.raises(ResourceLimitError, match="cutoff 2097152"):  # (2**21 + 1)**3 entries
            fock_attenuator(0.6, 2**21)

    @pytest.mark.parametrize(
        "build, power",
        [(lambda c: thermal_state(1.0, c), 2), (number_operator, 2), (lambda c: fock_attenuator(0.6, c), 3)],
        ids=["thermal_state", "number_operator", "fock_attenuator"],
    )
    def test_dense_size_checked_against_the_limit(self, monkeypatch, build, power):
        monkeypatch.setattr(entrocap.gaussian, "_FOCK_ENTRIES", 10**power)  # a small limit: nothing large is built
        build(9)  # exactly at the limit
        with pytest.raises(ResourceLimitError, match="cutoff 10"):
            build(np.int64(10))


class TestOracle:
    def test_attenuator_values(self):
        val = gaussian_mi_oracle(attenuator_params(0.6), thermal_gaussian_state(1.0))
        expect = (
            mean_photon_entropy(1.0)
            + mean_photon_entropy(0.6)
            - mean_photon_entropy(0.4)
        )
        assert abs(val - expect) <= 1e-12
        assert abs(expect - 2.3187256086866608) <= 1e-12

    def test_unit_transmission_limit(self):
        val = gaussian_mi_oracle(attenuator_params(1.0), thermal_gaussian_state(1.0))
        assert abs(val - 2.0 * mean_photon_entropy(1.0)) <= 1e-9

    def test_vacuum_input(self):
        assert abs(gaussian_mi_oracle(attenuator_params(0.6), thermal_gaussian_state(0.0))) <= 1e-12

    @pytest.mark.parametrize("gain", [1.5, 2.0, 4.0])
    def test_amplifier_closed_form(self, gain):
        amplifier = params(math.sqrt(gain) * np.eye(2), (gain - 1.0) / 2.0 * np.eye(2))
        for n in (0.0, 0.5, 1.0, 5.0):
            val = gaussian_mi_oracle(amplifier, thermal_gaussian_state(n))
            g = mean_photon_entropy
            assert abs(val - (g(n) + g(gain * n + gain - 1.0) - g((gain - 1.0) * (n + 1.0)))) <= 1e-12

    def test_thermal_noise_attenuator_value(self):
        val = gaussian_mi_oracle(attenuator_params(0.6, 0.5), thermal_gaussian_state(1.0))
        assert abs(val - 1.5000841337191382) <= 1e-12

    def test_two_mode_product_adds(self):
        first, second = attenuator_params(0.6, 0.5), params(math.sqrt(2.0) * np.eye(2), 0.5 * np.eye(2))
        space = SymplecticSpace.standard(2)
        k = np.zeros((4, 4))
        k[:2, :2], k[2:, 2:] = first.K, second.K
        alpha = np.zeros((4, 4))
        alpha[:2, :2], alpha[2:, 2:] = first.alpha, second.alpha
        product = GaussianChannelParams(k, np.zeros(4), alpha, space, space)
        state = GaussianState(np.zeros(4), np.diag([1.5, 1.5, 0.75, 0.75]))
        val = gaussian_mi_oracle(product, state)
        parts = gaussian_mi_oracle(first, thermal_gaussian_state(1.0)) + gaussian_mi_oracle(
            second, thermal_gaussian_state(0.25)
        )
        assert abs(val - parts) <= 1e-12

    def test_squeezed_input_rejected(self):
        squeezed = GaussianState(np.zeros(2), np.diag([1.0, 0.25]))
        with pytest.raises(ValidationError, match="thermal"):
            gaussian_mi_oracle(attenuator_params(0.6), squeezed)

    def test_mode_mismatch_rejected(self):
        two_mode = GaussianState(np.zeros(4), 0.5 * np.eye(4))
        with pytest.raises(ValidationError, match="mode count"):
            gaussian_mi_oracle(attenuator_params(0.6), two_mode)

    def test_nonstandard_form_rejected(self):
        space = SymplecticSpace(2, 2.0 * standard_symplectic_form(1))
        scaled = GaussianChannelParams(np.eye(2), np.zeros(2), np.eye(2), space, space)
        assert validate_gaussian(scaled)["valid"]
        with pytest.raises(ValidationError, match="standard symplectic form"):
            gaussian_mi_oracle(scaled, thermal_gaussian_state(1.0))

    def test_fock_truncation_converges(self):
        oracle = gaussian_mi_oracle(attenuator_params(0.6), thermal_gaussian_state(0.5))
        diffs = []
        for cut in (10, 18, 26):
            mi = mutual_information(
                thermal_state(0.5, cut), fock_attenuator(0.6, cut), route="entropies"
            )
            diffs.append(abs(mi - oracle))
        assert diffs[-1] <= 5e-3
        assert diffs[-1] <= diffs[0] + 1e-12
