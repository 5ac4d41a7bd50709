import math
import time
from pathlib import Path

import numpy as np
import pytest

from entrocap import (
    EnergyConstraint,
    OptimizerOptions,
    ResourceLimitError,
    ValidationError,
    additivity_probe,
    cea_capacity,
    check_prop1,
    chi_at_state,
    chi_capacity,
    coincidence_certificate,
    complementary,
    constraint_tensor,
    cq_channel,
    dephasing_channel,
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
    sample_state,
    tensor,
    thermal_state,
    truncate,
    truncation_convergence,
)
from entrocap import capacity
from entrocap.channels import apply
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

    def test_energy_additive_on_products(self):
        rho = sample_state(2, seed=1)
        c2 = constraint_tensor(EnergyConstraint(QUBIT_F, 1.0), 2)
        single = float(np.trace(rho @ QUBIT_F).real)
        assert abs(c2.energy(tensor(rho, rho)) - 2 * single) <= 1e-12


class TestOptimizerOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("line_search_tol", 0.0),
            ("line_search_tol", 1.0),
            ("gap_tolerance", math.nan),
            ("epsilon", 1.0),
            ("epsilon", math.nan),
            ("max_iterations", 0),
            ("seed", -1),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"optimizer option {field} must be"):
            OptimizerOptions(**{field: value})


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
        grad = capacity._mi_gradient(fock_attenuator(0.6, n), thermal_state(1.0, n))
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
        grad = capacity._mi_gradient(fock_attenuator(0.6, n), thermal_state(1.0, n))
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
        # energy, so the optimum diag(1/2, 1/2, 0) has a kernel and the value is 1 bit
        tau = basis_state(3, 0)
        chan = minimize_kraus(truncate(CQ_QUTRIT, 2, tau))
        res = cea_capacity(chan, CQ_CONSTRAINT)
        assert res.converged
        assert res.iterations <= 20
        assert res.value - 1e-12 <= 1.0 <= res.value + res.gap
        assert np.abs(res.optimizer - np.diag([0.5, 0.5, 0.0])).max() <= 1e-3

    def test_attenuator_cutoff_40(self):
        n = 40
        t0 = time.perf_counter()
        res = cea_capacity(fock_attenuator(0.6, n), EnergyConstraint(number_operator(n), 1.0))
        elapsed = time.perf_counter() - t0
        assert res.converged
        assert res.value - 1e-12 <= self.closed_form() <= res.value + res.gap
        assert elapsed < 1.0, f"{elapsed:.2f} s"

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
            rho, log_rho = capacity._gibbs_tilt(h, con, levels)
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
            w, u = np.linalg.eigh(log_rho)  # the log is exact: exp(log_rho) = rho, unit trace
            assert np.abs((u * np.exp(w)) @ u.conj().T - rho).max() <= 1e-12

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
            capacity._gibbs_tilt(h, EnergyConstraint(f, float(levels[0] + 0.1 * (levels[-1] - levels[0]))), levels)
            beta, step = float(rng.uniform(0.0, 2.0)), 1e-6
            _, _, slope = tilts[0](beta)
            numeric = (tilts[0](beta + step)[1] - tilts[0](beta - step)[1]) / (2 * step)
            assert slope < 0.0
            assert abs(numeric - slope) <= 1e-6 * max(1.0, abs(slope))

    def test_bound_met_with_equality_by_every_state(self):
        # F = I, E = 1: every state is feasible although its computed energy may round above 1
        h = sample_hermitian(3, seed=23)
        con = EnergyConstraint(np.eye(3), 1.0)
        rho, _ = capacity._gibbs_tilt(h, con, np.ones(3))
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
        from entrocap.capacity import _mi_gradient, mutual_information_value

        rng = np.random.default_rng(30)
        chan = sample_channel(3, 3, 2, seed=31)
        rho = sample_state(3, seed=32)
        grad = _mi_gradient(chan, rho)
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

    def test_decomposition_gradient_matches_finite_differences(self):
        from entrocap.channels import dual_apply
        from entrocap.linalg import hermitian_eig, hermitian_log2, sample_isometry

        rng = np.random.default_rng(33)
        chan = sample_channel(3, 3, 2, seed=34)
        rho = sample_state(3, seed=35)
        w, u = hermitian_eig(rho)
        root = u * np.sqrt(np.clip(w, 0.0, None))
        m = 5
        stiefel = sample_isometry(3, m, seed=36)

        def objective(mat):
            x = mat @ root.T
            return sum(entropy(apply(chan, np.outer(x[i], x[i].conj()))) for i in range(m))

        x = stiefel @ root.T
        rows = []
        for i in range(m):
            xi = x[i]
            tr = float(np.vdot(xi, xi).real)
            sig = apply(chan, np.outer(xi, xi.conj()))
            mat = dual_apply(chan, -hermitian_log2(sig) + math.log2(tr) * np.eye(chan.dim_out))
            rows.append(mat @ xi)
        grad = np.stack(rows, axis=0) @ root.conj()

        eps = 1e-6
        worst = 0.0
        for _ in range(10):
            direction = rng.standard_normal(stiefel.shape) + 1j * rng.standard_normal(stiefel.shape)
            direction /= np.linalg.norm(direction)
            num = (objective(stiefel + eps * direction) - objective(stiefel - eps * direction)) / (2 * eps)
            ana = 2.0 * float(np.real(np.vdot(grad, direction)))
            worst = max(worst, abs(num - ana))
        assert worst <= 1e-5, worst


class TestChiAtState:
    def test_identity_gives_input_entropy(self):
        rho = sample_state(3, seed=8)
        res = chi_at_state(identity_channel(3), rho)
        assert abs(res.value - entropy(rho)) <= 5e-3
        assert res.heuristic and res.gap is None

    def test_replacement_is_zero(self):
        chan = replacement_channel(sample_state(2, seed=9), dim_in=2)
        res = chi_at_state(chan, sample_state(2, seed=10))
        assert abs(res.value) <= 1e-8

    def test_dephasing_matches_grid_oracle(self):
        chan = dephasing_channel(2)
        res = chi_at_state(chan, np.eye(2) / 2, members=2)
        # exhaustive search over 2-member decompositions (orthonormal bases)
        best = math.inf
        for theta in np.linspace(0.0, np.pi / 2, 61):
            for phase in np.linspace(0.0, np.pi, 61):
                v1 = np.array([np.cos(theta), np.exp(1j * phase) * np.sin(theta)])
                v2 = np.array([-np.exp(-1j * phase) * np.sin(theta), np.cos(theta)])
                avg = 0.5 * (
                    entropy(apply(chan, np.outer(v1, v1.conj())))
                    + entropy(apply(chan, np.outer(v2, v2.conj())))
                )
                best = min(best, avg)
        oracle = entropy(apply(chan, np.eye(2) / 2)) - best
        assert abs(oracle - 1.0) <= 1e-6
        assert abs(res.value - oracle) <= 5e-3

    def test_member_count_validation(self):
        with pytest.raises(ValidationError):
            chi_at_state(identity_channel(2), np.eye(2) / 2, members=1)

    def test_iterations_count_steps_taken(self):
        # the gradient vanishes at once, so no restart takes a step
        res = chi_at_state(identity_channel(2), np.eye(2) / 2)
        assert res.iterations < 3 * 160

    def test_converged_reports_the_stop_rule(self):
        # the gradient vanishes at once: converged, no step taken
        res = chi_at_state(identity_channel(2), np.eye(2) / 2)
        assert res.converged and res.iterations == 0
        # two steps are not enough on a random channel: the iteration limit stops every restart
        chan = sample_channel(3, 2, 3, seed=5)
        res = chi_at_state(chan, sample_state(3, seed=105), opts=OptimizerOptions(max_iterations=2, restarts=2))
        assert not res.converged and res.iterations == 4

    def test_decomposition_reconstructs_average(self):
        rho = sample_state(3, rank=2, seed=11)
        res = chi_at_state(identity_channel(3), rho)
        assert np.abs(res.optimizer.barycenter() - rho).max() <= 1e-8


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


    def test_eigensolver_calls_per_iteration(self, monkeypatch):
        # one batched call per stack: the per-member path made about 50 per iteration
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=OptimizerOptions(restarts=1, max_iterations=50))
        assert res.iterations >= 1
        assert len(calls) <= 10 * res.iterations

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
        # reference numbers from the restart-by-restart optimizer this stack replaced
        spec = load_spec(str(SPECS / f"{name}.json"))
        res = chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=seed))
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
            res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=OptimizerOptions(restarts=restarts, max_iterations=15))
            assert res.iterations == 15 * restarts
            counts[restarts] = len(calls)
        assert counts[3] <= 1.2 * counts[1]

    def test_stall_stop(self):
        opts = OptimizerOptions(restarts=3, max_iterations=160)
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=opts)
        assert res.converged
        assert res.iterations < opts.max_iterations * opts.restarts
        assert abs(res.value - water_filling([0.0, 1.0, 2.0], 0.5)) <= 5e-3

    def test_iteration_limit_is_not_converged(self):
        res = chi_capacity(CQ_QUTRIT, CQ_CONSTRAINT, opts=OptimizerOptions(restarts=2, max_iterations=3))
        assert not res.converged
        assert res.iterations == 6

    def test_retilt_finds_the_least_feasible_rate(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            weights = rng.dirichlet(np.ones(m))
            energies = rng.uniform(0.0, 3.0, m)
            bound = float(rng.uniform(energies.min(), weights @ energies))
            p = capacity._retilt(weights, energies, bound)
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
            beta_star = capacity._retilt(weights, energies, bound, 0.0)[1]  # the cold search's rate
            for factor in (0.0, 0.5, 1.0, 2.0, 50.0):
                rates.clear()
                p, beta = capacity._retilt(weights, energies, bound, factor * beta_star)
                assert p @ energies <= bound
                assert np.abs(p - tilt(hi) / tilt(hi).sum()).max() <= 1e-12
                assert np.abs(p - tilt(beta) / tilt(beta).sum()).max() <= 1e-14  # the rate returned is the one used
                if factor == 1.0:
                    assert len(rates) <= 2

    def test_retilt_rejects_a_support_above_the_bound(self):
        # the zero-weight member's energy is feasible, but no tilt can move weight onto it
        with pytest.raises(ValidationError, match="no re-tilt"):
            capacity._retilt(np.array([0.0, 1.0]), np.array([0.0, 5.0]), 1.0)

    def test_rate_search_fails_closed_on_a_non_finite_excess(self):
        with pytest.raises(ValidationError, match="non-finite"):
            capacity._least_feasible_rate(lambda beta: (None, 1.0 if beta == 0.0 else math.nan, -1.0), 1e-15)

    def test_warm_started_retilts_stay_within_budget(self, monkeypatch):
        # a cold search from beta = 0 at every re-tilt takes 3900 tilt evaluations here
        rates = self.count_tilts(monkeypatch)
        spec = load_spec(str(SPECS / "identity_qubit.json"))
        chi_capacity(spec.channel, spec.constraint, opts=OptimizerOptions(restarts=3, max_iterations=100, seed=0))
        assert len(rates) <= 2900


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
