import importlib
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from entrocap import (
    EnergyConstraint,
    KrausChannel,
    OptimizerOptions,
    ResourceLimitError,
    ValidationError,
    additivity_probe,
    cea_capacity,
    check_prop1,
    chi_capacity,
    coincidence_certificate,
    complementary,
    constraint_tensor,
    cq_channel,
    depolarizing_channel,
    entropy,
    feasible_linear_max,
    fock_attenuator,
    hermitian_eig,
    identity_channel,
    minimize_kraus,
    mutual_information,
    number_operator,
    replacement_channel,
    sample_channel,
    sample_hermitian,
    sample_isometry,
    sample_state,
    tensor,
    thermal_state,
    truncate,
    truncation_convergence,
)
from entrocap import capacity
from entrocap.linalg import hermitian_log2
from entrocap.specfile import load_spec

QUBIT_F = np.diag([0.0, 1.0])
CQ_QUTRIT = cq_channel([np.diag(np.eye(3)[k]).astype(complex) for k in range(3)])
CQ_CONSTRAINT = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.5)
SPECS = Path(__file__).resolve().parent.parent / "specs"


def shannon(probabilities):
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def water_filling(levels, bound):
    """Max Shannon entropy over distributions with mean level <= bound."""
    f = np.asarray(levels, dtype=float)

    def tilt(beta):
        p = np.exp(-beta * (f - f.min()))
        return p / p.sum()

    if float(tilt(0.0) @ f) <= bound:
        return shannon(tilt(0.0))
    lo, hi = 0.0, 1.0
    while float(tilt(hi) @ f) > bound:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(tilt(mid) @ f) <= bound:
            hi = mid
        else:
            lo = mid
    return shannon(tilt(hi))


def mi_gradient(channel, rho):
    """The ascent's mutual-information gradient (bits) at rho, from the fused evaluator's spectra."""
    spectra = capacity._mi_spectra(channel, rho, np.linalg.eigvalsh(rho))[1]
    return capacity._mi_gradient_from(channel, hermitian_log2(rho), spectra)


def basis_state(dim, k):
    e = np.zeros((dim, dim), dtype=complex)
    e[k, k] = 1.0
    return e


class TestEnergyConstraint:
    def test_infeasible_rejected(self):
        with pytest.raises(ValidationError):
            EnergyConstraint(np.diag([1.0, 2.0]), 0.5)

    def test_non_psd_rejected(self):
        with pytest.raises(ValidationError):
            EnergyConstraint(np.diag([-0.2, 1.0]), 0.5)

    def test_constraint_tensor_single_copy(self):
        c = EnergyConstraint(QUBIT_F, 0.3)
        c1 = constraint_tensor(c, 1)
        assert np.abs(c1.operator - c.operator).max() <= 1e-14
        assert c1.bound == c.bound

    def test_constraint_tensor_two_copies(self):
        c2 = constraint_tensor(EnergyConstraint(QUBIT_F, 0.3), 2)
        assert np.allclose(np.diagonal(c2.operator).real, [0.0, 1.0, 1.0, 2.0])
        assert abs(c2.bound - 0.6) <= 1e-14

    @pytest.mark.parametrize("n", [2.5, True, "2", 0])
    def test_constraint_tensor_rejects_a_non_integer_count(self, n):
        # 2.5 built two copies with bound 2E, and True one copy, without an error
        with pytest.raises(ValidationError, match="copy count must be an integer >= 1"):
            constraint_tensor(EnergyConstraint(QUBIT_F, 0.3), n)

    @pytest.mark.parametrize("n", [13, 40])
    def test_constraint_tensor_refuses_a_dense_blow_up(self, n):
        # 13 qubit copies built a 2^13 x 2^13 complex operator (~1 GB) before failing; 40 raised numpy's bare
        # "array is too big"; the limit is the one on dense Fock arrays, 2^24 entries
        with pytest.raises(ResourceLimitError, match=f"need 2\\*\\*{2 * n} dense entries"):
            constraint_tensor(EnergyConstraint(QUBIT_F, 0.3), n)

    def test_constraint_tensor_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(capacity, "_DENSE_ENTRIES", 4**3)  # a small limit: nothing large is built
        assert constraint_tensor(EnergyConstraint(QUBIT_F, 0.3), 3).dim == 8
        with pytest.raises(ResourceLimitError):
            constraint_tensor(EnergyConstraint(QUBIT_F, 0.3), 4)

    def test_energy_additive_on_products(self):
        rho = sample_state(2, seed=1)
        c2 = constraint_tensor(EnergyConstraint(QUBIT_F, 1.0), 2)
        single = float(np.trace(rho @ QUBIT_F).real)
        assert abs(c2.energy(tensor(rho, rho)) - 2 * single) <= 1e-12


class TestOptimizerOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("gap_tolerance", math.nan),
            ("epsilon", 1.0),
            ("epsilon", math.nan),
            ("max_iterations", 0),
            ("seed", -1),
            ("max_iterations", 2.5),
            ("restarts", 1.5),
            ("seed", 0.5),
            ("max_iterations", "3"),
            ("seed", True),
            ("gap_tolerance", "abc"),
            ("gap_tolerance", True),
            ("epsilon", None),
            ("epsilon", 1j),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"optimizer option {field} must be"):
            OptimizerOptions(**{field: value})

    def test_numpy_integers_accepted(self):
        opts = OptimizerOptions(max_iterations=np.int64(3), restarts=np.int32(2), seed=np.uint8(1))
        assert (opts.max_iterations, opts.restarts, opts.seed) == (3, 2, 1)

    def test_real_options_name_the_option(self):
        # a string or None reached the range comparison and raised a raw TypeError
        for field, value in (("gap_tolerance", "abc"), ("epsilon", None)):
            with pytest.raises(ValidationError, match=f"optimizer option {field} must be a real number, got {value!r}"):
                OptimizerOptions(**{field: value})
        opts = OptimizerOptions(gap_tolerance=np.float32(1e-3), epsilon=0)
        assert (opts.gap_tolerance, opts.epsilon) == (np.float32(1e-3), 0)


class TestFeasibleLinearMax:
    def test_forced_support(self):
        res = feasible_linear_max(np.diag([1.0, 0.0]), EnergyConstraint(QUBIT_F, 0.0))
        assert abs(res.value - 1.0) <= 1e-10
        assert np.abs(res.state - np.diag([1.0, 0.0])).max() <= 1e-9

    def test_inactive_constraint(self):
        g = sample_hermitian(3, seed=2)
        res = feasible_linear_max(g, EnergyConstraint(np.eye(3), 1.0))
        assert abs(res.value - np.linalg.eigvalsh(g).max()) <= 1e-9

    def test_matches_brute_force_oracle(self):
        # fine multiplier grid over mixtures of eigenvector pairs hitting the bound
        for trial in range(8):
            g = sample_hermitian(4, seed=10 + trial)
            f_raw = sample_hermitian(4, seed=100 + trial)
            f = f_raw @ f_raw.conj().T / 4.0
            bound = float(np.linalg.eigvalsh(f).min()) + 0.3
            con = EnergyConstraint(f, bound)
            got = feasible_linear_max(g, con)
            best = -math.inf
            for lam in np.linspace(0.0, 50.0, 2001):
                w, u = np.linalg.eigh(g - lam * f)
                fvals = [float(np.vdot(u[:, i], f @ u[:, i]).real) for i in range(4)]
                gvals = [float(np.vdot(u[:, i], g @ u[:, i]).real) for i in range(4)]
                for i in range(4):
                    if fvals[i] <= bound:
                        best = max(best, gvals[i])
                    for j in range(i + 1, 4):
                        lo, hi = sorted([(fvals[i], gvals[i]), (fvals[j], gvals[j])])
                        if lo[0] <= bound <= hi[0] and hi[0] - lo[0] > 1e-12:
                            t = (bound - lo[0]) / (hi[0] - lo[0])
                            best = max(best, (1 - t) * lo[1] + t * hi[1])
            assert got.value >= best - 1e-6
            assert got.gap <= 1e-9
            assert con.is_feasible(got.state, slack=1e-9)

    def test_certificate_and_feasibility_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            g = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
            f_raw = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
            f = f_raw @ f_raw.conj().T / d
            bound = float(np.linalg.eigvalsh(f).min()) + float(rng.uniform(0.05, 1.0))
            con = EnergyConstraint(f, bound)
            res = feasible_linear_max(g, con)
            assert res.gap <= 1e-9
            assert con.is_feasible(res.state, slack=1e-9)
            tr = float(np.trace(res.state).real)
            assert abs(tr - 1.0) <= 1e-9

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        n = 20
        con = EnergyConstraint(number_operator(n), 1.0)
        grad = mi_gradient(fock_attenuator(0.6, n), thermal_state(1.0, n))
        calls = []
        eigh = np.linalg.eigh

        def counting_eig(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eig)
        res = feasible_linear_max(grad, con)
        monkeypatch.undo()
        assert res.multiplier > 0.0
        assert len(calls) <= 80
        # the multiplier is one ulp tight: just below it the top eigenvector is infeasible
        w, u = hermitian_eig(grad - np.nextafter(res.multiplier, 0.0) * con.operator)
        _, energy = capacity._min_energy_vector(w, u, con.operator)
        assert energy > con.bound


    def test_tangent_probes_on_the_attenuator_gradient(self, monkeypatch):
        # at the Gibbs optimum the gradient is c I + lam F: the tangents meet at the kink in a few probes
        n = 20
        con = EnergyConstraint(number_operator(n), 1.0)
        grad = mi_gradient(fock_attenuator(0.6, n), thermal_state(1.0, n))
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: calls.append(a) or eigh(a, *args, **kwargs))
        res = feasible_linear_max(grad, con)
        monkeypatch.undo()
        assert res.multiplier > 0.0
        assert len(calls) <= 30
        w, u = hermitian_eig(grad - np.nextafter(res.multiplier, 0.0) * con.operator)
        _, energy = capacity._min_energy_vector(w, u, con.operator)
        assert energy > con.bound

    @pytest.mark.parametrize("coupling", [None, 1e-6, 1e-11, 1e-13])
    def test_multiplier_one_ulp_tight_without_commuting(self, monkeypatch, coupling):
        # g and F do not commute: the top eigenvector turns smoothly (random F), or through crossings
        # narrower than the tie width (diagonal F, diagonal g plus a small coupling); the search still
        # ends at float resolution within the doubling-plus-bisection budget
        rng = np.random.default_rng(21)
        eigh = np.linalg.eigh
        for trial in range(15):
            d = int(rng.integers(2, 7))
            if coupling is None:
                g = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
                f_raw = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
                f = f_raw @ f_raw.conj().T / d
            else:
                g = np.diag(rng.uniform(0.0, 3.0, d)) + coupling * sample_hermitian(d, seed=trial)
                f = np.diag(np.sort(rng.uniform(0.0, 3.0, d)))
            con = EnergyConstraint(f, float(np.linalg.eigvalsh(f).min()) + float(rng.uniform(0.05, 1.0)))
            calls = []
            monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: calls.append(a) or eigh(a, *args, **kwargs))
            res = feasible_linear_max(g, con)
            monkeypatch.undo()
            if res.multiplier == 0.0:
                continue
            assert len(calls) <= 80
            assert res.gap <= 1e-9
            w, u = hermitian_eig(g - np.nextafter(res.multiplier, 0.0) * con.operator)
            _, energy = capacity._min_energy_vector(w, u, con.operator)
            assert energy > con.bound + 1e-12 * max(1.0, con.bound)


def random_oracle_problems():
    """The non-commuting (g, constraint) pairs of the two random TestFeasibleLinearMax families."""
    for trial in range(8):
        f_raw = sample_hermitian(4, seed=100 + trial)
        f = f_raw @ f_raw.conj().T / 4.0
        yield sample_hermitian(4, seed=10 + trial), EnergyConstraint(f, float(np.linalg.eigvalsh(f).min()) + 0.3)
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        g = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
        f_raw = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
        f = f_raw @ f_raw.conj().T / d
        yield g, EnergyConstraint(f, float(np.linalg.eigvalsh(f).min()) + float(rng.uniform(0.05, 1.0)))


class TestCertificateOracle:
    @pytest.mark.parametrize("stop", [1e-7, 1e-3])
    def test_early_stop_is_sound_at_its_width(self, stop):
        # weak duality: stopping early may loosen the bound by at most the width, never cut below the optimum
        active = 0
        for g, con in random_oracle_problems():
            g = 0.5 * (g + g.conj().T)
            full = feasible_linear_max(g, con)
            scale = max(1.0, float(np.abs(np.linalg.eigvalsh(g)).max()))
            active += full.multiplier > 0.0
            for start in (0.0, 0.5 * full.multiplier, full.multiplier, 2.0 * full.multiplier):
                res = capacity._linear_max(g, con, stop, start)
                assert con.is_feasible(res.state, slack=1e-9)
                assert abs(float(np.trace(res.state).real) - 1.0) <= 1e-9
                assert 0.0 <= res.gap <= stop
                assert res.value <= full.value + 1e-12 * scale
                assert res.value + res.gap >= full.value - 1e-12 * scale
        assert active >= 20  # the families mostly need the multiplier search

    @pytest.mark.parametrize("cutoff, most", [(10, 100), (20, 44)])
    def test_certified_attenuator_eigensolves(self, monkeypatch, cutoff, most):
        # the certificate's oracle starts from the last multiplier and stops at 0.01 gap_tolerance
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: calls.append(a) or eigh(a, *args, **kwargs))
        res = cea_capacity(fock_attenuator(0.6, cutoff), EnergyConstraint(number_operator(cutoff), 1.0))
        monkeypatch.undo()
        assert res.converged
        assert len(calls) <= most


class TestCeaCapacity:
    def test_identity_qubit_closed_form(self):
        con = EnergyConstraint(QUBIT_F, 0.25)
        res = cea_capacity(identity_channel(2), con, OptimizerOptions(max_iterations=500))
        target = 2.0 * shannon([0.75, 0.25])
        assert res.gap <= 1e-4
        assert res.value - 1e-12 <= target <= res.value + res.gap + 1e-12
        # the optimum sits at the constrained max-entropy state
        w = np.linalg.eigvalsh(res.optimizer)
        assert np.abs(np.sort(w) - [0.25, 0.75]).max() <= 1e-4

    def test_depolarizing_oracle(self):
        chan = depolarizing_channel(0.5)
        oracle = mutual_information(np.eye(2) / 2, chan, route="entropies")
        res = cea_capacity(chan, EnergyConstraint(QUBIT_F, 1.0), OptimizerOptions(max_iterations=300))
        assert res.gap <= 1e-4
        assert res.value - 1e-12 <= oracle <= res.value + res.gap + 1e-12

    def test_replacement_is_zero(self):
        chan = replacement_channel(sample_state(2, seed=4), dim_in=2)
        for bound in (0.1, 0.9):
            res = cea_capacity(chan, EnergyConstraint(QUBIT_F, bound))
            assert abs(res.value) <= 1e-9
            assert res.gap <= 1e-6

    def test_feasibility_and_monotone_ascent(self):
        con = EnergyConstraint(QUBIT_F, 0.4)
        for seed in range(4):
            chan = sample_channel(2, 2, 2, seed=seed)
            res = cea_capacity(chan, con, OptimizerOptions(max_iterations=40))
            records = res.trace
            # one record per completed iteration; a run stopped by the gap test
            # does not complete its last one
            assert len(records) in (res.iterations - 1, res.iterations)
            assert all(energy <= con.bound + 1e-9 for _, energy in records)
            diffs = [records[k + 1][0] - records[k][0] for k in range(len(records) - 1)]
            assert all(d >= -1e-10 for d in diffs)

    def test_flagged_on_iteration_starvation(self):
        chan = sample_channel(3, 3, 3, seed=7)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.8)
        res = cea_capacity(chan, con, OptimizerOptions(max_iterations=2, gap_tolerance=1e-9))
        assert not res.converged
        assert res.gap > 1e-9  # wide but still certified

    @pytest.mark.parametrize(
        "cutoff, value, gap, iterations",
        [(10, 2.317926773420586, 5.895196710348216e-06, 4), (20, 2.3187248737172466, 3.462084411598454e-06, 2)],
    )
    def test_attenuator_result_is_pinned(self, cutoff, value, gap, iterations):
        # exact values, gap and iterations: sharing the Kraus product between the output and the environment
        # output changes no arithmetic
        res = cea_capacity(fock_attenuator(0.6, cutoff), EnergyConstraint(number_operator(cutoff), 1.0))
        assert (res.value, res.gap, res.iterations) == (value, gap, iterations)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            cea_capacity(identity_channel(3), EnergyConstraint(QUBIT_F, 0.5))

    def test_single_start_ignores_restarts(self):
        # the objective is concave, so the certified solver runs one start
        chan = sample_channel(3, 3, 3, seed=7)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.8)
        one, three = (
            cea_capacity(chan, con, OptimizerOptions(restarts=r, seed=5)) for r in (1, 3)
        )
        assert (one.value, one.gap, one.iterations) == (three.value, three.gap, three.iterations)
        assert np.array_equal(one.optimizer, three.optimizer)

    def test_fock_attenuator_contains_closed_form(self):
        # g(E) + g(eta E) - g((1 - eta) E), with g the thermal-state entropy
        def g(x):
            return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)

        closed_form = g(1.0) + g(0.6) - g(0.4)
        assert abs(closed_form - 2.3187256) <= 1e-7
        res = cea_capacity(fock_attenuator(0.6, 20), EnergyConstraint(number_operator(20), 1.0))
        assert res.converged
        assert res.value <= closed_form <= res.value + res.gap


class TestMirrorAscent:
    """The mirror-ascent engine: Gibbs start, adaptive Bregman step and the matrix beta search."""

    @staticmethod
    def closed_form():
        def g(x):
            return (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)

        return g(1.0) + g(0.6) - g(0.4)

    def test_rank_deficient_optimum(self):
        # rank-2 truncation of the cq qutrit: input 2 lands on input 0's output at twice the
        # energy, so the optimum diag(1/2, 1/2, 0) has a kernel and the value is 1 bit; the
        # face step solves on span{|0>, |1>} and lands on the kernel exactly
        tau = basis_state(3, 0)
        chan = minimize_kraus(truncate(CQ_QUTRIT, 2, tau))
        res = cea_capacity(chan, CQ_CONSTRAINT)
        assert res.converged
        assert res.iterations <= 3
        assert abs(res.value - 1.0) <= 1e-12
        assert res.gap <= 1e-9
        assert res.value - 1e-12 <= 1.0 <= res.value + res.gap
        assert np.trace(basis_state(3, 2) @ res.optimizer).real <= 1e-12  # weight on the kernel
        assert np.abs(res.optimizer - np.diag([0.5, 0.5, 0.0])).max() <= 1e-3

    def test_rank_deficient_optimum_work(self, eig_calls):
        # a work bound at the measured count, which host load cannot trip (without the face step: 237)
        chan = minimize_kraus(truncate(CQ_QUTRIT, 2, basis_state(3, 0)))
        eig_calls.clear()
        cea_capacity(chan, CQ_CONSTRAINT)
        assert len(eig_calls) <= 136

    def test_attenuator_cutoff_40(self, eig_calls):
        # bounds work rather than wall time, which varies with host load
        n = 40
        channel, constraint = fock_attenuator(0.6, n), EnergyConstraint(number_operator(n), 1.0)
        eig_calls.clear()
        res = cea_capacity(channel, constraint)
        assert res.converged
        assert res.value - 1e-12 <= self.closed_form() <= res.value + res.gap
        assert res.iterations <= 1
        assert len(eig_calls) <= 94

    def test_attenuator_cutoff_20_iterations(self):
        # the Gibbs start is the thermal state, the cutoff-free optimum
        n = 20
        res = cea_capacity(fock_attenuator(0.6, n), EnergyConstraint(number_operator(n), 1.0))
        assert res.converged
        assert res.iterations <= 5

    @staticmethod
    def random_problem(rng):
        d = int(rng.integers(2, 6))
        h = sample_hermitian(d, seed=int(rng.integers(0, 2**31)), scale=2.0)
        f_raw = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
        f = f_raw @ f_raw.conj().T / d
        levels = np.linalg.eigvalsh(f)
        return h, f, levels

    @staticmethod
    def gibbs(h, f, beta):
        w, u = np.linalg.eigh(h - beta * f)
        p = np.exp(w - w.max())
        rho = (u * (p / p.sum())) @ u.conj().T
        return rho, float(np.trace(rho @ f).real)

    def test_beta_search_matches_bisection(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            h, f, levels = self.random_problem(rng)
            bound = float(rng.uniform(levels[0], levels[-1]))
            con = EnergyConstraint(f, bound)
            rho, log_rho, (p, u) = capacity._gibbs_tilt(h, con)
            # reference: the least feasible rate by a 200-step bisection
            lo, hi = 0.0, 1.0
            while self.gibbs(h, f, hi)[1] > bound:
                lo, hi = hi, 2.0 * hi
            if self.gibbs(h, f, 0.0)[1] <= bound:
                hi = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if self.gibbs(h, f, mid)[1] <= bound else (mid, hi)
            assert con.energy(rho) <= bound + 1e-12
            assert np.abs(rho - self.gibbs(h, f, hi)[0]).max() <= 1e-9
            w, v = np.linalg.eigh(log_rho)  # the log is exact: exp(log_rho) = rho, unit trace
            assert np.abs((v * np.exp(w)) @ v.conj().T - rho).max() <= 1e-12
            # the returned eigenpairs are rho's, weights ascending
            assert np.all(np.diff(p) >= 0.0)
            assert np.abs((u * p) @ u.conj().T - rho).max() <= 1e-12

    def test_energy_slope_is_minus_kubo_mori_variance(self, monkeypatch):
        # capture the tilt callback the beta search is given and difference its energy excess
        tilts = []
        search = capacity._least_feasible_rate

        def spy(tilt, rounding):
            tilts.append(tilt)
            return search(tilt, rounding)

        monkeypatch.setattr(capacity, "_least_feasible_rate", spy)
        rng = np.random.default_rng(22)
        for _ in range(10):
            h, f, levels = self.random_problem(rng)
            tilts.clear()
            capacity._gibbs_tilt(h, EnergyConstraint(f, float(levels[0] + 0.1 * (levels[-1] - levels[0]))))
            beta, step = float(rng.uniform(0.0, 2.0)), 1e-6
            _, _, slope = tilts[0](beta)
            numeric = (tilts[0](beta + step)[1] - tilts[0](beta - step)[1]) / (2 * step)
            assert slope < 0.0
            assert abs(numeric - slope) <= 1e-6 * max(1.0, abs(slope))

    def test_bound_met_with_equality_by_every_state(self):
        # F = I, E = 1: every state is feasible although its computed energy may round above 1
        h = sample_hermitian(3, seed=23)
        con = EnergyConstraint(np.eye(3), 1.0)
        rho, _, _ = capacity._gibbs_tilt(h, con)
        assert np.abs(rho - self.gibbs(h, np.eye(3), 0.0)[0]).max() <= 1e-12

    def test_bound_at_least_level(self):
        # only the ground space of F is feasible; it is reached in the limit of large beta
        f = sample_state(3, seed=24) * 3.0
        levels = np.linalg.eigvalsh(f)
        f = f - levels[0] * np.eye(3)
        chan = sample_channel(3, 3, 2, seed=25)
        res = cea_capacity(chan, EnergyConstraint(f, 0.0))
        assert res.converged
        assert res.value - 1e-9 <= 0.0 <= res.value + res.gap

    def test_iterates_feasible_and_nondecreasing(self):
        rng = np.random.default_rng(26)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            chan = sample_channel(d, d, int(rng.integers(1, 4)), seed=int(rng.integers(0, 2**31)))
            f_raw = sample_hermitian(d, seed=int(rng.integers(0, 2**31)))
            f = f_raw @ f_raw.conj().T / d  # does not commute with the channel's structure
            levels = np.linalg.eigvalsh(f)
            con = EnergyConstraint(f, float(levels[0] + rng.uniform(0.1, 0.9) * (levels.mean() - levels[0])))
            res = cea_capacity(chan, con, OptimizerOptions(max_iterations=60))
            values = [v for v, _ in res.trace]
            assert all(energy <= con.bound + 1e-12 for _, energy in res.trace)
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert res.value == max([*values, res.value])

    def test_face_steps_keep_iterates_feasible_and_nondecreasing(self, monkeypatch):
        # cq truncations under random diagonal F: optima on faces, where the face step runs
        runs = []
        ascend = capacity._ascend

        def spy(channel, *args):
            runs.append(channel.dim_in)
            return ascend(channel, *args)

        monkeypatch.setattr(capacity, "_ascend", spy)
        rng = np.random.default_rng(27)
        for _ in range(12):
            d = int(rng.integers(3, 6))
            outputs = [sample_state(d, rank=int(rng.integers(1, 3)), seed=int(rng.integers(0, 2**31))) for _ in range(d)]
            cq = cq_channel(outputs)
            chan = minimize_kraus(truncate(cq, int(rng.integers(1, d)), basis_state(d, int(rng.integers(0, d)))))
            levels = rng.uniform(0.0, 3.0, d)
            levels[int(rng.integers(0, d))] = 0.0
            con = EnergyConstraint(np.diag(levels), float(rng.uniform(0.2, 1.5)))
            res = cea_capacity(chan, con, OptimizerOptions(max_iterations=60))
            values = [v for v, _ in res.trace]
            assert con.is_feasible(res.optimizer, slack=1e-12)
            assert all(energy <= con.bound + 1e-12 for _, energy in res.trace)
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert res.value == max([*values, res.value])
        assert len(runs) >= 12 + 3  # face ascents besides the one top-level ascent per run (5 measured)

    def test_asymmetric_constraint_operator_accepted(self):
        # an asymmetry within the Hermiticity tolerance is stored symmetrized
        f = np.diag([0.0, 1.0, 2.0]).astype(complex)
        f[0, 1] = 5e-11
        con = EnergyConstraint(f, 0.5)
        assert np.array_equal(con.operator, con.operator.conj().T)
        res = cea_capacity(identity_channel(3), con)
        assert res.converged

    def test_asymmetric_objective_accepted(self):
        # an asymmetry within the oracle's 1e-8 tolerance is resolved to the Hermitian part
        g = np.diag([1.0, 0.5, 2.0]).astype(complex)
        g[0, 1] = 5e-9
        res = feasible_linear_max(g, CQ_CONSTRAINT)
        hermitian = feasible_linear_max(0.5 * (g + g.conj().T), CQ_CONSTRAINT)
        assert res.gap <= 1e-9
        assert np.array_equal(res.state, hermitian.state)
        assert CQ_CONSTRAINT.is_feasible(res.state, slack=1e-9)


class TestGradientAudits:
    def test_ascent_gradient_matches_finite_differences(self):
        # the +c*I ambiguity cancels along traceless Hermitian directions
        from entrocap.capacity import mutual_information_value

        rng = np.random.default_rng(30)
        chan = sample_channel(3, 3, 2, seed=31)
        rho = sample_state(3, seed=32)
        grad = mi_gradient(chan, rho)
        eps = 1e-6
        worst = 0.0
        for _ in range(10):
            direction = sample_hermitian(3, seed=int(rng.integers(0, 2**31)))
            direction -= np.trace(direction) / 3 * np.eye(3)
            direction /= np.linalg.norm(direction)
            num = (
                mutual_information_value(chan, rho + eps * direction)
                - mutual_information_value(chan, rho - eps * direction)
            ) / (2 * eps)
            ana = float(np.trace(grad @ direction).real)
            worst = max(worst, abs(num - ana))
        assert worst <= 1e-5, worst

    def test_fused_value_matches_both_routes(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            d, d_out = (int(v) for v in rng.integers(2, 7, size=2))
            k = -(-d // d_out) + int(rng.integers(0, 3))  # the isometry needs d_out * k >= d
            chan = sample_channel(d, d_out, k, seed=int(rng.integers(0, 2**31)))
            rho = sample_state(d, seed=int(rng.integers(0, 2**31)))
            value, ((w, u), (q, v)) = capacity._mi_spectra(chan, rho, np.linalg.eigvalsh(rho))
            for route in ("entropies", "relative_entropy"):
                assert abs(value - mutual_information(rho, chan, route=route)) <= 1e-12
            # the eigenpairs are those of the output and the environment output
            assert np.abs((u * w) @ u.conj().T - chan(rho)).max() <= 1e-12
            assert np.abs((v * q) @ v.conj().T - complementary(chan)(rho)).max() <= 1e-12

    def test_certificate_shares_one_kraus_product(self, monkeypatch):
        # one product per tilt (the value of the start and of each candidate) and one per gradient: the certificate's
        # value at rho_eps comes from its gradient's product, where a second product (24 per bench body, not 18)
        # breaks the bound
        counts = Counter()
        for module, name in [
            (capacity, "_output_and_environment"),
            (importlib.import_module("entrocap.entropy"), "_output_and_environment"),
            (capacity, "_gibbs_tilt"),
            (capacity, "_linear_max"),
            (capacity, "dual_environment"),
        ]:
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        n = 20
        res = cea_capacity(fock_attenuator(0.6, n), EnergyConstraint(number_operator(n), 1.0))
        assert res.converged
        assert counts["_gibbs_tilt"] >= 1 and counts["_linear_max"] == res.iterations
        assert counts["dual_environment"] >= counts["_linear_max"]  # a gradient per certificate, and per step
        assert counts["_output_and_environment"] <= counts["_gibbs_tilt"] + counts["dual_environment"]

    @pytest.mark.parametrize(
        "problem",
        [
            (fock_attenuator(0.6, 10), EnergyConstraint(number_operator(10), 1.0)),
            (fock_attenuator(0.6, 20), EnergyConstraint(number_operator(20), 1.0)),
            (fock_attenuator(0.6, 40), EnergyConstraint(number_operator(40), 1.0)),
            (minimize_kraus(truncate(CQ_QUTRIT, 2, basis_state(3, 0))), CQ_CONSTRAINT),  # takes the face step
        ],
        ids=["attenuator-10", "attenuator-20", "attenuator-40", "cq-truncation"],
    )
    def test_one_kraus_product_per_evaluated_state(self, monkeypatch, problem):
        # every tilted state (the start, each candidate, a face start) and every certificate's rho_eps costs one
        # product, which gives its value and, once needed, its gradient; forming an accepted candidate's outputs
        # again for the step's gradient reads 13 products for 10 states at cutoff 10
        counts = Counter()
        for module, name, key in [
            (capacity, "_output_and_environment", "products"),
            (importlib.import_module("entrocap.entropy"), "_output_and_environment", "products"),
            (capacity, "_gibbs_tilt", "tilts"),
            (capacity, "_linear_max", "certificates"),
        ]:
            def counting(*args, _original=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert cea_capacity(*problem).converged
        assert counts["tilts"] >= 1 and counts["certificates"] >= 1
        assert counts["products"] == counts["tilts"] + counts["certificates"]


class TestChiCapacity:
    def test_identity_qubit_constrained(self):
        res = chi_capacity(identity_channel(2), EnergyConstraint(QUBIT_F, 0.25))
        assert abs(res.value - shannon([0.75, 0.25])) <= 5e-3
        assert res.heuristic

    def test_replacement_is_zero(self):
        chan = replacement_channel(sample_state(2, seed=12), dim_in=2)
        res = chi_capacity(chan, EnergyConstraint(QUBIT_F, 0.5))
        assert abs(res.value) <= 1e-8

    def test_cq_channel_water_filling(self):
        sigmas = [basis_state(3, k) for k in range(3)]
        chan = cq_channel(sigmas)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.5)
        res = chi_capacity(chan, con)
        assert abs(res.value - water_filling([0.0, 1.0, 2.0], 0.5)) <= 5e-3

    def test_barycenter_feasible(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            chan = sample_channel(2, 2, 2, seed=int(rng.integers(0, 2**31)))
            con = EnergyConstraint(QUBIT_F, 0.3)
            res = chi_capacity(chan, con, opts=OptimizerOptions(max_iterations=60))
            assert con.is_feasible(res.optimizer.barycenter(), slack=1e-9)


    def test_eigensolver_calls_per_iteration(self, eig_calls):
        # a stack step makes at most 2 batched calls (the re-tilted average; the candidates' images with their
        # average), as the next step takes its spectra from the accepted candidate or from its own step (b); the
        # per-member path made about 50 per iteration.  At gap_tolerance 0 the Gibbs eigen-ensemble does not end
        # the run
        opts = OptimizerOptions(restarts=1, max_iterations=50, gap_tolerance=0.0)
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)
        assert res.iterations >= 1
        # the start diagonalizes the Gibbs output, its upper bound and the first ensemble; the final check
        # validates the members in one call and takes the chi value from two
        assert len(eig_calls) <= 2 * res.iterations + 6

    @pytest.mark.parametrize("poisoned_call", [0, 1, 3, 4, 40])
    def test_nan_in_the_bare_entry_fails_closed(self, monkeypatch, poisoned_call):
        # call 0 diagonalizes the Gibbs output and its members' images, call 1 the first ensemble, then each step
        # its average and its candidates; at gap_tolerance 0 neither the Gibbs ensemble nor the bound stops the run
        # before call 40
        calls, bare = [], capacity._eig

        def poisoned(stack, *args, **kwargs):
            calls.append(1)
            if len(calls) == poisoned_call + 1:
                stack = stack.copy()
                stack[..., 0, 0] = math.nan
            return bare(stack, *args, **kwargs)

        monkeypatch.setattr(capacity, "_eig", poisoned)
        with pytest.raises(ValidationError, match="non-finite"):
            opts = OptimizerOptions(restarts=3, max_iterations=50, gap_tolerance=0.0)
            chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)

    @pytest.mark.parametrize(
        "name, seed, value, iterations, converged",
        [
            ("identity_qubit", 0, 0.8112780065977813, 300, False),
            ("identity_qubit", 1, 0.811271198872977, 300, False),
            ("identity_qubit", 5, 0.8112104442256676, 300, False),
            ("cq_qutrit", 0, 1.3002068332825512, 152, True),
            ("cq_qutrit", 1, 1.3002068332822312, 136, True),
            ("cq_qutrit", 5, 1.300206833281948, 140, True),
        ],
    )
    def test_stacked_restarts_match_sequential_runs(self, name, seed, value, iterations, converged):
        # reference numbers from the restart-by-restart optimizer this stack replaced, which had no certified stop
        spec = load_spec(str(SPECS / f"{name}.json"))
        opts = OptimizerOptions(restarts=3, max_iterations=100, seed=seed, gap_tolerance=0.0)
        res = chi_capacity(spec.channel, spec.constraint, opts=opts)
        assert abs(res.value - value) <= 1e-12
        assert (res.iterations, res.converged) == (iterations, converged)

    def test_restarts_share_eigensolver_calls(self, monkeypatch):
        # 15 iterations is below the stall window, so every restart stays in the stack throughout
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        counts = {}
        for restarts in (1, 3):
            calls.clear()
            opts = OptimizerOptions(restarts=restarts, max_iterations=15, gap_tolerance=0.0)
            res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)
            assert res.iterations == 15 * restarts
            counts[restarts] = len(calls)
        assert counts[3] <= 1.2 * counts[1]

    def test_stall_stop(self):
        opts = OptimizerOptions(restarts=3, max_iterations=160, gap_tolerance=0.0)  # no certified stop
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)
        assert res.converged
        assert res.iterations < opts.max_iterations * opts.restarts
        assert abs(res.value - water_filling([0.0, 1.0, 2.0], 0.5)) <= 5e-3

    def test_iteration_limit_is_not_converged(self):
        opts = OptimizerOptions(restarts=2, max_iterations=3, gap_tolerance=0.0)
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)
        assert not res.converged
        assert res.iterations == 6

    def test_retilt_finds_the_least_feasible_rate(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            weights = rng.dirichlet(np.ones(m))
            energies = rng.uniform(0.0, 3.0, m)
            bound = float(rng.uniform(energies.min(), weights @ energies))
            p = capacity._retilt(weights[None], energies[None], bound, np.zeros(1))[0][0]
            # reference: the exponential tilt at the bisected rate
            lo, hi = 0.0, 1.0
            tilt = lambda beta: weights * np.exp(-beta * (energies - energies.min()))
            while tilt(hi) @ energies / tilt(hi).sum() > bound:
                lo, hi = hi, 2.0 * hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if tilt(mid) @ energies / tilt(mid).sum() <= bound else (mid, hi)
            assert p @ energies <= bound
            assert np.abs(p - tilt(hi) / tilt(hi).sum()).max() <= 1e-12

    @staticmethod
    def count_tilts(monkeypatch):
        """Rates at which the beta search evaluates its tilt, recorded across every search."""
        rates = []
        search = capacity._least_feasible_rate

        def counting(tilt, rounding, *start):
            def counted(beta):
                rates.append(beta)
                return tilt(beta)

            return search(counted, rounding, *start)

        monkeypatch.setattr(capacity, "_least_feasible_rate", counting)
        return rates

    def test_retilt_warm_starts_find_the_least_feasible_rate(self, monkeypatch):
        # the problems of test_retilt_finds_the_least_feasible_rate, searched from starts around the rate
        rates = self.count_tilts(monkeypatch)
        rng = np.random.default_rng(16)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            weights = rng.dirichlet(np.ones(m))
            energies = rng.uniform(0.0, 3.0, m)
            bound = float(rng.uniform(energies.min(), weights @ energies))
            lo, hi = 0.0, 1.0
            tilt = lambda beta: weights * np.exp(-beta * (energies - energies.min()))
            while tilt(hi) @ energies / tilt(hi).sum() > bound:
                lo, hi = hi, 2.0 * hi
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if tilt(mid) @ energies / tilt(mid).sum() <= bound else (mid, hi)
            beta_star = capacity._retilt(weights[None], energies[None], bound, np.zeros(1))[1][0]  # the cold search's rate
            for factor in (0.0, 0.5, 1.0, 2.0, 50.0):
                rates.clear()
                (p,), (beta,) = capacity._retilt(weights[None], energies[None], bound, np.array([factor * beta_star]))
                assert p @ energies <= bound
                assert np.abs(p - tilt(hi) / tilt(hi).sum()).max() <= 1e-12
                assert np.abs(p - tilt(beta) / tilt(beta).sum()).max() <= 1e-14  # the rate returned is the one used
                if factor == 1.0:
                    assert len(rates) <= 2

    def test_retilt_rejects_a_support_above_the_bound(self):
        # the zero-weight member's energy is feasible, but no tilt can move weight onto it
        with pytest.raises(ValidationError, match="no re-tilt"):
            capacity._retilt(np.array([[0.0, 1.0]]), np.array([[0.0, 5.0]]), 1.0, np.zeros(1))

    def test_huge_finite_bound_changes_nothing_and_warns_nothing(self):
        # the re-tilt's second moments w c^2, c = f - E, overflowed for E above ~1.4e154 on rows that run no search
        # (a RuntimeWarning, an error in this suite); every state is feasible at E = 1e308 as at F's top level
        for chan, f in [(CQ_QUTRIT, np.diag([0.0, 1.0, 2.0])), (sample_channel(2, 2, 2, seed=0), QUBIT_F)]:
            huge, top = EnergyConstraint(f, 1e308), EnergyConstraint(f, float(np.diag(f).max()))
            chi = chi_capacity(chan, huge).value
            assert chi == chi_capacity(chan, top).value
            assert chan is not CQ_QUTRIT or abs(chi - math.log2(3)) <= 1e-9
            assert check_prop1(chan, huge)["margin"] == check_prop1(chan, top)["margin"]
            assert coincidence_certificate(chan, huge)["chi_value"] == coincidence_certificate(chan, top)["chi_value"]

    @staticmethod
    def bisected_tilt(weights, energies, bound):
        """The exponential tilt of ``weights`` at the bisected least feasible rate."""
        w = weights / weights.sum()
        if w @ energies <= bound + 1e-12:
            return w
        lo, hi = 0.0, 1.0
        above = np.maximum(energies - energies[w > 0.0].min(), 0.0)  # a zero-weight member adds 0, not inf * 0
        tilt = lambda beta: w * np.exp(-beta * above)
        while tilt(hi) @ energies / tilt(hi).sum() > bound:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if tilt(mid) @ energies / tilt(mid).sum() <= bound else (mid, hi)
        return tilt(hi) / tilt(hi).sum()

    def test_stacked_retilt_matches_the_rowwise_reference(self):
        rng = np.random.default_rng(18)
        bound, factors = 1.0, (0.0, 0.5, 1.0, 2.0, 50.0)
        searched = []  # random problems whose mean energy exceeds the bound; the least energy lies below it
        while len(searched) < 2 * len(factors):
            w, f = rng.dirichlet(np.ones(6)), rng.uniform(0.0, 3.0, 6)
            f[rng.integers(6)] = rng.uniform(0.0, bound)
            if w @ f > bound + 1e-3:
                searched.append((w, f))
        zero_member = (np.array([0.0, 0.3, 0.3, 0.2, 0.1, 0.1]), np.array([0.0, 0.5, 2.0, 3.0, 1.5, 2.5]))
        # the bound at the support's least energy; below it, a zero-weight member the tilt's exp would underflow from
        at_least = (np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2]), bound + np.array([-30.0, 0.0, 0.5, 2.0, 0.25, 3.0]))
        feasible = (rng.dirichlet(np.ones(6)), rng.uniform(0.0, bound, 6))
        rows = [feasible, *searched, zero_member, at_least, feasible]
        weights, energies = (np.array(a) for a in zip(*rows))
        cold_p, cold_rates = capacity._retilt(weights, energies, bound, np.zeros(len(rows)))
        starts = cold_rates * np.array([0.0, *factors, *factors, 1.0, 1.0, 0.0])
        p, rates = capacity._retilt(weights, energies, bound, starts)
        unchanged = weights[[0, -1]] / weights[[0, -1]].sum(axis=-1, keepdims=True)  # the feasible rows' weights
        for tilted in (cold_p, p):
            assert (tilted[[0, -1]] == unchanged).all()
            for row, (w, f) in zip(tilted, rows):
                assert row @ f <= bound + 1e-12
                assert np.abs(row - self.bisected_tilt(w, f, bound)).max() <= 1e-12
        assert rates[0] == rates[-1] == 0.0 and (rates[1:-1] > 0.0).all()
        assert p[-3][0] == p[-2][0] == 0.0 and p[-2][1] > 1.0 - 1e-12  # zero members stay zero; all goes to the least
        for r in range(len(rows)):  # an infeasible support in any row raises
            lifted = energies.copy()
            lifted[r] = np.where(weights[r] > 0.0, bound + 0.5, 0.0)
            with pytest.raises(ValidationError, match="no re-tilt"):
                capacity._retilt(weights, lifted, bound, starts)

    def test_retilt_excess_and_slope_are_the_mean_energy_and_its_derivative(self, monkeypatch):
        tilts, search = [], capacity._least_feasible_rate
        spy = lambda tilt, *args: tilts.append(tilt) or search(tilt, *args)
        monkeypatch.setattr(capacity, "_least_feasible_rate", spy)
        rng = np.random.default_rng(19)
        weights, energies, bound = rng.dirichlet(np.ones(5), size=3), rng.uniform(1.0, 3.0, (3, 5)), 0.8
        energies[:, 0] = 0.1
        capacity._retilt(weights, energies, bound, np.zeros(3))
        assert len(tilts) == 3
        for tilt, w, f in zip(tilts, weights, energies):
            for beta in (0.0, 0.3, 2.0):
                p = w * np.exp(-beta * f)
                p /= p.sum()
                _, excess, slope = tilt(beta)
                assert abs(excess - (p @ f - bound)) <= 1e-12
                assert abs(slope + p @ (f - p @ f) ** 2) <= 1e-12  # minus the variance of the energy under p

    def test_rate_search_fails_closed_on_a_non_finite_excess(self):
        with pytest.raises(ValidationError, match="non-finite"):
            capacity._least_feasible_rate(lambda beta: (None, 1.0 if beta == 0.0 else math.nan, -1.0), 1e-15)

    def test_rate_search_survives_a_subnormal_slope(self):
        # the Newton step (excess + rounding / 2) / slope overflows here; the search bisects instead and still
        # lands on the least feasible rate, 1.0
        def tilt(beta):
            return beta, np.float64(1.0 if beta < 1.0 else -0.5), np.float64(-1.3e-311)

        assert capacity._least_feasible_rate(tilt, 1e-12) == 1.0

    def test_warm_started_retilts_stay_within_budget(self, monkeypatch):
        # a cold search from beta = 0 at every re-tilt takes 3900 tilt evaluations here
        rates = self.count_tilts(monkeypatch)
        spec = load_spec(str(SPECS / "identity_qubit.json"))
        opts = OptimizerOptions(restarts=3, max_iterations=100, seed=0, gap_tolerance=0.0)
        chi_capacity(spec.channel, spec.constraint, opts=opts)
        assert len(rates) <= 2116  # 1924 plus 10%

    @pytest.mark.parametrize(
        "name, value, iterations, converged",
        [("identity_qubit", 0.8112780065977824, 300, False), ("cq_qutrit", 1.3002068332825503, 152, True)],
    )
    def test_spec_results_are_pinned(self, name, value, iterations, converged):
        # recorded before the re-tilts were stacked and before the certified stop; each restart's path must not move
        spec = load_spec(str(SPECS / f"{name}.json"))
        opts = OptimizerOptions(restarts=3, max_iterations=100, seed=0, gap_tolerance=0.0)
        res = chi_capacity(spec.channel, spec.constraint, opts=opts)
        assert abs(res.value - value) <= 1e-12
        assert (res.iterations, res.converged) == (iterations, converged)

    @pytest.mark.parametrize("name", ["identity_qubit", "cq_qutrit"])
    def test_default_tolerance_results_are_pinned(self, name):
        # on both channels the Gibbs eigen-ensemble reaches the upper bound, the closed form, so it is returned
        # certified before the stack takes a step
        reference = {"identity_qubit": shannon([0.25, 0.75]), "cq_qutrit": water_filling([0.0, 1.0, 2.0], 0.5)}[name]
        spec = load_spec(str(SPECS / f"{name}.json"))
        res = chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=0))
        assert (res.iterations, res.converged) == (0, True)
        assert abs(res.value - reference) <= 1e-12

    @pytest.mark.parametrize("name", ["identity_qubit", "cq_qutrit"])
    def test_certified_start_eigensolver_calls(self, eig_calls, name):
        # the Gibbs output with its members' images, the bound's call and the final check's three; no restart
        spec = load_spec(str(SPECS / f"{name}.json"))
        eig_calls.clear()
        res = chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=0))
        assert res.iterations == 0
        assert len(eig_calls) <= 5

    def test_gibbs_ensemble_larger_than_members_runs_the_stack(self):
        # the two-member Gibbs ensemble does not fit in one member, so the result is the stack's, as without
        # the certified start
        spec = load_spec(str(SPECS / "identity_qubit.json"))
        res = chi_capacity(spec.channel, spec.constraint, members=1)
        assert len(res.optimizer) == 1
        assert abs(res.value) <= 1e-12
        assert (res.iterations, res.converged) == (60, True)

    @pytest.mark.parametrize("case", ["identity_qubit-17", "identity_qubit-305", "isometric_qubit"])
    def test_gibbs_optimal_channels_are_certified(self, case):
        # the stack alone ended 6.0e-3 (seed 17) and 5.65e-3 bits (seed 305) short on the identity, and stalled
        # 0.077 bits short, reporting converged, on this isometric channel; chi of an isometry is the Gibbs entropy
        if case == "isometric_qubit":
            u = sample_isometry(2, 2, seed=1009)
            channel, constraint = sample_channel(2, 3, 1, seed=9), EnergyConstraint(u @ QUBIT_F @ u.conj().T, 0.25)
            opts = OptimizerOptions(restarts=3, max_iterations=160)
        else:
            spec = load_spec(str(SPECS / "identity_qubit.json"))
            channel, constraint = spec.channel, spec.constraint
            opts = OptimizerOptions(restarts=3, max_iterations=100, seed=int(case.split("-")[1]))
        res = chi_capacity(channel, constraint, opts=opts)
        assert res.converged
        assert abs(res.value - shannon([0.25, 0.75])) <= opts.gap_tolerance

    @pytest.mark.parametrize("name, steps", [("identity_qubit", 45), ("cq_qutrit", 15)])
    def test_spec_runs_stop_certified_within_budget(self, monkeypatch, name, steps):
        # each stack step scores its members once; at gap_tolerance 0 these runs take 100 and 60 steps
        taken, member_terms = [], capacity._member_terms
        monkeypatch.setattr(capacity, "_member_terms", lambda *args: taken.append(1) or member_terms(*args))
        spec = load_spec(str(SPECS / f"{name}.json"))
        res = chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=0))
        assert res.converged
        assert len(taken) <= steps

    @pytest.mark.parametrize(
        "name, seed",
        [
            (name, seed)
            for name in ("identity_qubit", "cq_qutrit")
            for seed in (*range(20), 305)
        ],
    )
    def test_seed_scan_meets_the_bench_gate(self, name, seed):
        # the gate of the benchmark's cli_specs chi runs: at most 5e-3 below the closed form, 1e-9 above
        reference = {"identity_qubit": shannon([0.25, 0.75]), "cq_qutrit": water_filling([0.0, 1.0, 2.0], 0.5)}[name]
        spec = load_spec(str(SPECS / f"{name}.json"))
        res = chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=seed))
        assert reference - 5e-3 <= res.value <= reference + 1e-9


def chi_upper_bound(channel, constraint):
    """``(bound, allowance)`` of the chi optimizer's stop, at the Gibbs output diagonalized on its own."""
    levels, vectors = constraint._eigenpairs
    (p,), (beta,) = capacity._retilt(np.ones((1, len(levels))), levels[None], constraint.bound, np.zeros(1))
    omega = np.einsum("i,ibc->bc", p, capacity._pure_images(channel.kraus_stack(), vectors.T)[1])
    beta = math.inf if (p == 0.0).any() else float(beta)
    return capacity._chi_upper_bound(channel, constraint, beta, *capacity._eig(omega))


def random_constraint(rng, d, seed):
    levels = rng.uniform(0.0, 2.0, d)
    u = sample_isometry(d, d, seed=seed)
    return EnergyConstraint((u * levels) @ u.conj().T, float(rng.uniform(levels.min(), levels.max())))


def random_bound_family():
    """``(rank, channel, constraint)`` for a random channel of each Kraus rank up to 3 on ``d_in, d_out <= 3``."""
    rng = np.random.default_rng(41)
    for d_in in (2, 3):
        for d_out in (2, 3):
            for rank in (1, 2, 3):
                if d_out * rank < d_in:
                    continue  # no channel of that Kraus rank
                seed = int(rng.integers(2**31))
                yield rank, sample_channel(d_in, d_out, rank, seed=seed), random_constraint(rng, d_in, seed + 1)


class TestChiUpperBound:
    def test_bound_holds_on_random_channels(self):
        cases = 0
        for _, channel, constraint in random_bound_family():
            bound, allowance = chi_upper_bound(channel, constraint)
            assert math.isfinite(bound) and 0.0 < allowance <= 1e-8, allowance  # far inside gap_tolerance
            for run_seed in range(3):
                opts = OptimizerOptions(restarts=1, max_iterations=40, seed=run_seed, gap_tolerance=0.0)
                assert chi_capacity(channel, constraint, opts=opts).value <= bound + allowance
                cases += 1
        assert cases == 33

    def test_certified_starts_reach_the_stop_and_are_feasible(self):
        # a run that takes no step returned the Gibbs eigen-ensemble; on this family only the isometries (rank 1),
        # where that ensemble is optimal, do so
        certified = []
        for rank, channel, constraint in random_bound_family():
            bound, allowance = chi_upper_bound(channel, constraint)
            for run_seed in range(3):
                opts = OptimizerOptions(restarts=1, max_iterations=40, seed=run_seed)
                res = chi_capacity(channel, constraint, opts=opts)
                if res.iterations == 0:
                    assert res.converged and res.value >= bound + allowance - opts.gap_tolerance
                    assert constraint.is_feasible(res.optimizer.barycenter())
                    certified.append(rank)
        assert certified == [1] * 9

    def test_bound_is_the_closed_form_where_the_gibbs_state_is_optimal(self):
        identity = load_spec(str(SPECS / "identity_qubit.json"))
        assert abs(chi_upper_bound(identity.channel, identity.constraint)[0] - shannon([0.25, 0.75])) <= 1e-12
        assert abs(chi_upper_bound(CQ_QUTRIT, CQ_CONSTRAINT)[0] - water_filling([0.0, 1.0, 2.0], 0.5)) <= 1e-12
        rng = np.random.default_rng(42)
        for seed in range(5):  # an isometric channel's chi is the Gibbs entropy of F at E
            constraint = random_constraint(rng, 2, seed + 100)
            isometry = KrausChannel((sample_isometry(2, 3, seed=seed),))
            gibbs = water_filling(np.linalg.eigvalsh(constraint.operator), constraint.bound)
            assert abs(chi_upper_bound(isometry, constraint)[0] - gibbs) <= 1e-12

    @pytest.mark.parametrize("levels", [[0.0, 1.0], [0.3, 0.7, 2.5]])
    def test_bound_fails_open_at_the_least_level(self, levels):
        # at E = min F the Gibbs state is a beta -> inf limit: no bound, so the run is the one at gap_tolerance 0
        rng = np.random.default_rng(43)
        u = sample_isometry(len(levels), len(levels), seed=7)
        constraint = EnergyConstraint((u * levels) @ u.conj().T, max(levels))
        constraint = EnergyConstraint(constraint.operator, float(constraint._eigenpairs[0][0]))
        channel = sample_channel(len(levels), 2, 2, seed=int(rng.integers(2**31)))
        assert chi_upper_bound(channel, constraint) == (math.inf, math.inf)
        runs = [
            chi_capacity(channel, constraint, opts=OptimizerOptions(restarts=2, max_iterations=30, gap_tolerance=tol))
            for tol in (1e-5, 0.0)
        ]
        certified, plain = ((r.value, r.iterations, r.converged) for r in runs)
        assert certified == plain


class TestInequalities:
    def test_cea_dominates_chi(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            chan = sample_channel(2, 2, 2, seed=int(rng.integers(0, 2**31)))
            con = EnergyConstraint(QUBIT_F, 0.6)
            cea = cea_capacity(chan, con, OptimizerOptions(max_iterations=200))
            chi = chi_capacity(chan, con, opts=OptimizerOptions(max_iterations=80))
            assert cea.value + cea.gap >= chi.value - 1e-6

    def test_chain_identity_at_optimizer_ensemble(self):
        rng = np.random.default_rng(15)
        from entrocap import chi_through

        for _ in range(5):
            chan = sample_channel(2, 2, 2, seed=int(rng.integers(0, 2**31)))
            con = EnergyConstraint(np.eye(2), 1.0)
            chi = chi_capacity(chan, con, opts=OptimizerOptions(max_iterations=80))
            mu = chi.optimizer
            avg = mu.barycenter()
            lhs = mutual_information(avg, chan)
            rhs = entropy(avg) + chi_through(chan, mu) - chi_through(complementary(chan), mu)
            assert abs(lhs - rhs) <= 1e-8


class TestProp1:
    def test_noiseless_equality(self):
        report = check_prop1(identity_channel(2), EnergyConstraint(QUBIT_F, 0.25))
        assert report["status"] == "satisfied"
        assert abs(report["margin"]) <= 5e-3  # equality for the noiseless channel

    def test_replacement(self):
        # both capacities vanish; the complement is noiseless-like, which only
        # strengthens the inequality margin
        chan = replacement_channel(sample_state(2, seed=16), dim_in=2)
        report = check_prop1(chan, EnergyConstraint(QUBIT_F, 0.5))
        assert report["status"] == "satisfied"
        assert abs(report["cea_value"]) <= 1e-8
        assert abs(report["chi_value"]) <= 1e-8
        assert report["margin"] >= -1e-6

    def test_random_channels_satisfied(self):
        for seed in range(6):
            chan = sample_channel(2, 2, 2, seed=seed)
            report = check_prop1(
                chan,
                EnergyConstraint(np.eye(2), 1.0),
                OptimizerOptions(max_iterations=120),
            )
            assert report["margin"] >= -1e-6
            assert report["status"] == "satisfied"


class TestCoincidence:
    def test_identity_qubit_has_gap_and_is_not_cq(self):
        report = coincidence_certificate(
            identity_channel(2), EnergyConstraint(QUBIT_F, 0.25)
        )
        assert report["cq_discrete"] is False
        # gap approaches H(rho*) at the constrained optimum
        assert report["gap_estimate"] >= 0.5
        assert report["barycenter_rank"] == 2

    def test_discrete_cq_with_diagonal_constraint(self):
        sigmas = [basis_state(3, k) for k in range(3)]
        chan = cq_channel(sigmas)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 0.5)
        report = coincidence_certificate(chan, con)
        assert report["cq_discrete"] is True
        assert abs(report["gap_estimate"]) <= 5e-3

    def test_replacement(self):
        chan = replacement_channel(sample_state(2, seed=17), dim_in=2)
        report = coincidence_certificate(chan, EnergyConstraint(QUBIT_F, 0.5))
        assert report["cq_discrete"] is True
        assert abs(report["gap_estimate"]) <= 1e-8


class TestTruncationConvergence:
    def test_full_rank_row_matches_untruncated(self):
        chan = sample_channel(3, 3, 2, seed=18)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        table = truncation_convergence(chan, con, [3], basis_state(3, 0))
        row, full = table["rows"][0], table["full"]
        assert abs(row["value"] - full["value"]) <= row["gap"] + full["gap"] + 1e-9

    @pytest.mark.parametrize("ranks", [[1, 2, 3], [3], [1, 1, 2], [2, 3, 3, 2], []], ids=str)
    def test_one_solve_per_distinct_rank(self, monkeypatch, ranks):
        calls = []
        solve = capacity.cea_capacity

        def spy(*args, **kwargs):
            calls.append(args[0].dim_in)
            return solve(*args, **kwargs)

        monkeypatch.setattr(capacity, "cea_capacity", spy)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        table = truncation_convergence(sample_channel(3, 3, 2, seed=18), con, ranks, basis_state(3, 0))
        assert len(calls) == len(set(ranks)) + 1  # and one for the untruncated channel
        assert [row["rank"] for row in table["rows"]] == ranks

    @pytest.mark.parametrize("ranks", [[1.9, True], ["2"], [2.0], [np.float64(2.0)], 2])
    def test_non_integer_ranks_rejected(self, ranks):
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        with pytest.raises(ValidationError, match="truncation ranks must be integers"):
            truncation_convergence(identity_channel(3), con, ranks, basis_state(3, 0))

    def test_numpy_integer_ranks_accepted(self):
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        table = truncation_convergence(identity_channel(3), con, np.array([1, 3]), basis_state(3, 0))
        assert [row["rank"] for row in table["rows"]] == [1, 3]
        assert all(type(row["rank"]) is int for row in table["rows"])

    def test_rank_one_with_matching_target_is_constant(self):
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        table = truncation_convergence(identity_channel(3), con, [1], basis_state(3, 0))
        assert abs(table["rows"][0]["value"]) <= 1e-9

    def test_monotone_within_brackets(self):
        chan = sample_channel(3, 3, 3, seed=19)
        con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
        table = truncation_convergence(
            chan, con, [1, 2, 3], basis_state(3, 0), opts=OptimizerOptions(max_iterations=200)
        )
        rows = table["rows"]
        for a, b in zip(rows, rows[1:]):
            assert b["value"] + b["gap"] >= a["value"] - 1e-9


class TestAdditivityProbe:
    def test_identity_qubit_unconstrained(self):
        report = additivity_probe(
            identity_channel(2),
            EnergyConstraint(QUBIT_F, 1.0),
            OptimizerOptions(max_iterations=300, gap_tolerance=1e-5),
        )
        assert abs(report["single_value"] - 2.0) <= 1e-4
        assert abs(report["double_value"] - 4.0) <= 1e-3
        assert report["additive_within_gaps"]

    def test_replacement(self):
        chan = replacement_channel(sample_state(2, seed=20), dim_in=2)
        report = additivity_probe(chan, EnergyConstraint(QUBIT_F, 0.5))
        assert abs(report["single_value"]) <= 1e-9
        assert abs(report["double_value"]) <= 1e-9

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            additivity_probe(identity_channel(7), EnergyConstraint(np.eye(7), 1.0))


class TestHugeEnergyLevels:
    """Levels near 1e160 squared to inf: chi raised a bare OverflowError and cea warned.  Both solvers now scale
    (F, E) by a power of two first; C_ea and chi are invariant under (F, E) -> (sF, sE)."""

    CHANNEL = sample_channel(2, 2, 2, seed=0)

    @pytest.mark.parametrize("level, bound", [(1e160, 3e159), (1e200, 3e199)])
    def test_scaled_problem_matches_the_unit_one(self, level, bound):
        unit, huge = EnergyConstraint(QUBIT_F, 0.3), EnergyConstraint(QUBIT_F * level, bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cea, chi = cea_capacity(self.CHANNEL, huge), chi_capacity(self.CHANNEL, huge)
        ref_cea, ref_chi = cea_capacity(self.CHANNEL, unit), chi_capacity(self.CHANNEL, unit)
        assert cea.value <= ref_cea.value + ref_cea.gap and ref_cea.value <= cea.value + cea.gap
        assert abs(chi.value - ref_chi.value) <= 1e-6
        energies = [energy for _, energy in cea.trace]  # in F's own units
        assert 0.5 * huge.bound <= max(energies) <= huge.bound * (1.0 + 1e-9)

    def test_ordinary_levels_are_not_rescaled(self):
        con = EnergyConstraint(QUBIT_F * 1e100, 3e99)
        assert capacity._rescaled(con) == (con, 1.0)
