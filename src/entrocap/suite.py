"""Named property checks over random seeded instances.

Each check returns ``(ok, detail)``; the registry drives both the CLI
``suite`` command and parts of the test suite.  Counts are sized so the full
sweep stays in the minutes range on a laptop.
"""

from __future__ import annotations

import math

import numpy as np

from . import capacity as cap
from . import channels as ch
from . import gaussian as ga
from . import linalg as la
from .entropy import (
    chi_through,
    coherent_information,
    conditional_entropy,
    entropy,
    fixed_marginal_ensemble,
    mutual_information,
    pure_state_ensemble,
)

__all__ = ["PROPERTIES", "run_suite"]


def _random_channel(rng, d_in=None, d_out=None, rank=None):
    d_in = d_in or int(rng.integers(2, 5))
    d_out = d_out or int(rng.integers(2, 5))
    min_rank = max(1, math.ceil(d_in / d_out))
    rank = rank or int(rng.integers(min_rank, 5))
    rank = max(rank, min_rank)
    return ch.sample_channel(d_in, d_out, rank, seed=int(rng.integers(0, 2**31)))


def check_sampled_states(seed=0, count=50):
    for k in range(count):
        rho = la.sample_state(2 + k % 3, rank=1 + k % (2 + k % 3), seed=seed + k)
        la.assert_density_operator(rho)
    return True, f"{count} sampled states satisfy the state invariants"


def check_partial_trace_tensor(seed=0, count=30):
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        a = la.sample_state(da, seed=int(rng.integers(0, 2**31)))
        b = la.sample_state(db, seed=int(rng.integers(0, 2**31)))
        joint = la.tensor(a, b)
        worst = max(worst, float(np.abs(la.partial_trace(joint, (da, db), (0,)) - a).max()))
        worst = max(worst, float(np.abs(la.partial_trace(joint, (da, db), (1,)) - b).max()))
    return worst <= 1e-10, f"max factor-recovery residual {worst:.2e} (tol 1e-10)"


def check_purify_inverse(seed=0, count=30):
    worst = 0.0
    for k in range(count):
        d = 2 + k % 4
        rho = la.sample_state(d, rank=1 + k % d, seed=seed + 17 * k)
        phi = la.purify(rho)
        back = la.partial_trace(phi.projector(), (d, d), (0,))
        worst = max(worst, float(np.abs(back - rho).max()))
    return worst <= 1e-9, f"max purification round-trip residual {worst:.2e} (tol 1e-9)"


def check_eig_trace(seed=0, count=30):
    worst = 0.0
    for k in range(count):
        d = 2 + k % 5
        h = la.sample_hermitian(d, seed=seed + k)
        w, u = la.hermitian_eig(h)
        worst = max(worst, abs(float(w.sum()) - float(np.trace(h).real)) / d)
        worst = max(worst, float(np.abs((u * w) @ u.conj().T - h).max()))
    return worst <= 1e-9, f"max spectral residual {worst:.2e} (tol 1e-9)"


def check_trace_preservation(seed=0, count=100):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng)
        rho = la.sample_state(phi.dim_in, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, abs(float(np.trace(ch.apply(phi, rho)).real) - 1.0))
    return worst <= 1e-9, f"max trace drift over {count} pairs {worst:.2e} (tol 1e-9)"


def check_heisenberg_duality(seed=0, count=100):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng)
        rho = la.sample_state(phi.dim_in, seed=int(rng.integers(0, 2**31)))
        obs = la.sample_hermitian(phi.dim_out, seed=int(rng.integers(0, 2**31)))
        lhs = complex(np.trace(ch.apply(phi, rho) @ obs))
        rhs = complex(np.trace(rho @ ch.dual_apply(phi, obs)))
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-9, f"max duality residual {worst:.2e} (tol 1e-9)"


def _padded_spectrum(mat, size):
    w = np.clip(np.linalg.eigvalsh(mat)[::-1], 0.0, None)
    out = np.zeros(size)
    out[: min(w.size, size)] = w[:size]
    return out


def check_double_complement(seed=0, count=40):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng)
        rho = la.sample_state(phi.dim_in, seed=int(rng.integers(0, 2**31)))
        back = ch.complementary(ch.complementary(phi))
        a = ch.apply(phi, rho)
        b = ch.apply(back, rho)
        size = max(a.shape[0], b.shape[0])
        worst = max(worst, float(np.abs(_padded_spectrum(a, size) - _padded_spectrum(b, size)).max()))
    return worst <= 1e-8, f"max double-complement spectrum drift {worst:.2e} (tol 1e-8)"


def check_pure_schmidt(seed=0, count=40):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng)
        vec = la.sample_pure(phi.dim_in, seed=int(rng.integers(0, 2**31))).vec
        rho = np.outer(vec, vec.conj())
        a = ch.apply(phi, rho)
        b = ch.environment_output(phi, rho)
        size = max(a.shape[0], b.shape[0])
        worst = max(worst, float(np.abs(_padded_spectrum(a, size) - _padded_spectrum(b, size)).max()))
    return worst <= 1e-8, f"max output/environment spectrum mismatch {worst:.2e} (tol 1e-8)"


def check_cq_detection(seed=0, count=15):
    rng = np.random.default_rng(seed)
    for k in range(count):
        sigmas = [la.sample_state(3, seed=seed + 100 * k + j) for j in range(3)]
        verdict = ch.is_cq(ch.cq_channel(sigmas))
        if not verdict.is_cq:
            return False, f"cq channel misclassified (commutator {verdict.max_commutator:.2e})"
        u = la.sample_isometry(3, 3, seed=seed + 991 * k)
        verdict_u = ch.is_cq(ch.unitary_channel(u))
        if verdict_u.is_cq:
            return False, "unitary channel misclassified as cq"
    return True, f"{count} cq / {count} unitary channels classified correctly"


def check_mi_routes(seed=0, count=60):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng, d_in=int(rng.integers(2, 5)), d_out=int(rng.integers(2, 5)))
        rho = la.sample_state(phi.dim_in, rank=int(rng.integers(1, phi.dim_in + 1)), seed=int(rng.integers(0, 2**31)))
        worst = max(
            worst,
            abs(mutual_information(rho, phi) - mutual_information(rho, phi, route="entropies")),
        )
    return worst <= 1e-8, f"max route discrepancy over {count} pairs {worst:.2e} (tol 1e-8)"


def check_fixed_marginal_bound(seed=0, count=50):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(count):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        omega = la.sample_state(da * db, seed=int(rng.integers(0, 2**31)))
        n_enc = int(rng.integers(2, 5))
        encs = [_random_channel(rng, d_in=da, d_out=da) for _ in range(n_enc)]
        weights = rng.dirichlet(np.ones(n_enc))
        mu = fixed_marginal_ensemble(omega, encs, weights, (da, db))
        phi = _random_channel(rng, d_in=da, d_out=int(rng.integers(2, 4)))
        big = ch.tensor_channel(phi, ch.identity_channel(db))
        avg = mu.barycenter()
        bound = mutual_information(la.partial_trace(avg, (da, db), (0,)), phi)
        worst = max(worst, chi_through(big, mu) - bound)
    return worst <= 1e-8, f"max chi - mi excess {worst:.2e} (tol 1e-8)"


def check_conditional_monotonicity(seed=0, count=60):
    worst = -math.inf
    for k in range(count):
        dims = (2, 2, 2) if k % 2 else (2, 3, 2)
        rho = la.sample_state(int(np.prod(dims)), seed=seed + k)
        hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
        habc = conditional_entropy(rho, dims, sys=(0,), cond=(1, 2))
        worst = max(worst, habc - hab)
    return worst <= 1e-8, f"max H(A|BC) - H(A|B) excess {worst:.2e} (tol 1e-8)"


def check_conditional_duality(seed=0, count=60):
    worst = 0.0
    for k in range(count):
        dims = (2, 2, 2) if k % 2 else (2, 3, 2)
        vec = la.sample_pure(int(np.prod(dims)), seed=seed + k).vec
        rho = np.outer(vec, vec.conj())
        hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
        hac = conditional_entropy(rho, dims, sys=(0,), cond=(2,))
        worst = max(worst, abs(hab + hac))
    return worst <= 1e-8, f"max |H(A|B) + H(A|C)| on pure states {worst:.2e} (tol 1e-8)"


def _random_pure_ensemble(rng, dim, members):
    weights = rng.dirichlet(np.ones(members))
    vecs = []
    for _ in range(members):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vecs.append(v / np.linalg.norm(v))
    return pure_state_ensemble(weights, vecs)


def check_pure_ensemble_identity(seed=0, count=60):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng)
        mu = _random_pure_ensemble(rng, phi.dim_in, int(rng.integers(2, 9)))
        avg = mu.barycenter()
        lhs = chi_through(phi, mu) - chi_through(ch.complementary(phi), mu)
        rhs = coherent_information(avg, phi)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-8, f"max ensemble-difference identity residual {worst:.2e} (tol 1e-8)"


def check_mi_additivity(seed=0, count=25):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        p1 = _random_channel(rng, d_in=2, d_out=2)
        p2 = _random_channel(rng, d_in=2, d_out=2)
        r1 = la.sample_state(2, seed=int(rng.integers(0, 2**31)))
        r2 = la.sample_state(2, seed=int(rng.integers(0, 2**31)))
        joint = mutual_information(la.tensor(r1, r2), ch.tensor_channel(p1, p2), route="entropies")
        split = mutual_information(r1, p1, route="entropies") + mutual_information(r2, p2, route="entropies")
        worst = max(worst, abs(joint - split))
    return worst <= 1e-8, f"max product-input additivity residual {worst:.2e} (tol 1e-8)"


def check_chi_data_processing(seed=0, count=30):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(count):
        phi = _random_channel(rng, d_in=3, d_out=3)
        mu = _random_pure_ensemble(rng, 3, int(rng.integers(2, 7)))
        tau = la.sample_state(3, seed=int(rng.integers(0, 2**31)))
        n = int(rng.integers(1, 4))
        worst = max(worst, chi_through(ch.truncate(phi, n, tau), mu) - chi_through(phi, mu))
    return worst <= 1e-8, f"max data-processing excess {worst:.2e} (tol 1e-8)"


def check_cea_feasible_ascent(seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(4):
        phi = _random_channel(rng, d_in=2, d_out=2)
        con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.4)
        records = cap.cea_capacity(phi, con, cap.OptimizerOptions(max_iterations=40)).trace
        for val, energy in records:
            if energy > con.bound + 1e-9:
                return False, f"iterate energy {energy} exceeds bound"
        diffs = [records[i + 1][0] - records[i][0] for i in range(len(records) - 1)]
        if diffs and min(diffs) < -1e-10:
            return False, f"objective decreased by {-min(diffs):.2e}"
    return True, "iterates feasible and objective nondecreasing (tol 1e-10)"


def check_certificate_soundness(seed=0):
    ident = ch.identity_channel(2)
    con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.25)
    res = cap.cea_capacity(ident, con, cap.OptimizerOptions(max_iterations=300))
    truth = 2.0 * (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
    if not res.value - 1e-12 <= truth <= res.value + res.gap + 1e-12:
        return False, f"identity bracket [{res.value}, {res.value + res.gap}] misses {truth}"
    repl = ch.replacement_channel(la.sample_state(2, seed=seed))
    res2 = cap.cea_capacity(repl, con, cap.OptimizerOptions(max_iterations=50))
    if not res2.value - 1e-12 <= 0.0 <= res2.value + res2.gap + 1e-12:
        return False, f"replacement bracket [{res2.value}, {res2.value + res2.gap}] misses 0"
    return True, "closed-form optima inside certified brackets"


def check_mi_chain_identity(seed=0, count=6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        phi = _random_channel(rng, d_in=2, d_out=2)
        con = cap.EnergyConstraint(np.eye(2), 1.0)
        chi = cap.chi_capacity(phi, con, opts=cap.OptimizerOptions(max_iterations=80, restarts=1))
        mu = chi.optimizer
        avg = mu.barycenter()
        lhs = mutual_information(avg, phi)
        rhs = entropy(avg) + chi_through(phi, mu) - chi_through(ch.complementary(phi), mu)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-8, f"max chain-identity residual at optimizer ensembles {worst:.2e} (tol 1e-8)"


def check_cea_dominates_chi(seed=0, count=6):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(count):
        phi = _random_channel(rng, d_in=2, d_out=2)
        con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.7)
        cea = cap.cea_capacity(phi, con, cap.OptimizerOptions(max_iterations=200))
        chi = cap.chi_capacity(phi, con, opts=cap.OptimizerOptions(max_iterations=80, restarts=1))
        worst = max(worst, chi.value - (cea.value + cea.gap))
    return worst <= 1e-6, f"max chi excess over certified bracket {worst:.2e} (tol 1e-6)"


def check_attenuator_scaling(seed=0):
    worst = 0.0
    for eta in (0.3, 0.6, 0.9):
        for n in (0.5, 1.0):
            cut = 30
            att = ga.fock_attenuator(eta, cut)
            th = ga.thermal_state(n, cut)
            out_mean = float(np.trace(ch.apply(att, th) @ ga.number_operator(cut)).real)
            tail = (n / (n + 1.0)) ** (cut + 1) * (cut + 2)
            worst = max(worst, abs(out_mean - eta * n) - tail)
    return worst <= 1e-9, f"mean-photon scaling within tail bounds (excess {worst:.2e})"


def check_fock_oracle_agreement(seed=0):
    cut = 25
    att = ga.fock_attenuator(0.6, cut)
    th = ga.thermal_state(0.5, cut)
    mi = mutual_information(th, att, route="entropies")
    routes = abs(mi - mutual_information(th, att))
    oracle = ga.gaussian_mi_oracle(ga.attenuator_params(0.6), ga.thermal_gaussian_state(0.5))
    diff = abs(mi - oracle)
    return diff <= 5e-3 and routes <= 1e-8, f"fock MI vs oracle {diff:.2e} (tol 5e-3), routes {routes:.2e} (tol 1e-8)"


def check_classify_invariance(seed=0, count=50):
    space = ga.SymplecticSpace.standard(1)
    cases = [
        ga.GaussianChannelParams(np.zeros((2, 2)), np.zeros(2), 0.5 * np.eye(2), space, space),
        ga.GaussianChannelParams(np.diag([1.0, 0.0]), np.zeros(2), np.eye(2), space, space),
        ga.attenuator_params(0.6),
    ]
    for k in range(count):
        sa = ga.random_symplectic(2, seed=seed + k)
        sb = ga.random_symplectic(2, seed=seed + 1000 + k)
        for params in cases:
            base = ga.classify_gaussian(params)
            conj = ga.classify_gaussian(
                ga.GaussianChannelParams(sa.T @ params.K @ sb, params.l, params.alpha, space, space)
            )
            for key in ("cq", "discrete_type", "no_discrete_subchannel"):
                if base[key] != conj[key]:
                    return False, f"verdict {key} not symplectically invariant (case {k})"
    return True, f"verdicts invariant under {count} random symplectic conjugations"


def check_attenuator_family_validity(seed=0):
    space = ga.SymplecticSpace.standard(1)
    for eta in (0.3, 0.6, 0.9):
        for n_env, valid in ((0.0, True), (0.5, True), (2.0, True), (-0.05, False), (-0.5, False)):
            alpha = (1.0 - eta) * (2.0 * n_env + 1.0) / 2.0 * np.eye(2)
            params = ga.GaussianChannelParams(math.sqrt(eta) * np.eye(2), np.zeros(2), alpha, space, space)
            if ga.validate_gaussian(params)["valid"] != valid:
                verdict = "valid attenuator rejected" if valid else "invalid attenuator accepted"
                return False, f"{verdict} (eta={eta}, N_E={n_env})"
    return True, "attenuator family accepted exactly for N_E >= 0"


PROPERTIES = {
    "sampled-states-valid": check_sampled_states,
    "partial-trace-tensor": check_partial_trace_tensor,
    "purify-right-inverse": check_purify_inverse,
    "eig-reconstruction": check_eig_trace,
    "apply-trace-preserving": check_trace_preservation,
    "heisenberg-duality": check_heisenberg_duality,
    "double-complement-spectra": check_double_complement,
    "pure-input-spectra": check_pure_schmidt,
    "cq-detection": check_cq_detection,
    "mi-route-agreement": check_mi_routes,
    "fixed-marginal-bound": check_fixed_marginal_bound,
    "conditional-monotonicity": check_conditional_monotonicity,
    "conditional-duality": check_conditional_duality,
    "pure-ensemble-identity": check_pure_ensemble_identity,
    "mi-product-additivity": check_mi_additivity,
    "chi-data-processing": check_chi_data_processing,
    "cea-feasible-ascent": check_cea_feasible_ascent,
    "certificate-soundness": check_certificate_soundness,
    "mi-chain-identity": check_mi_chain_identity,
    "cea-dominates-chi": check_cea_dominates_chi,
    "attenuator-photon-scaling": check_attenuator_scaling,
    "fock-oracle-agreement": check_fock_oracle_agreement,
    "classify-symplectic-invariance": check_classify_invariance,
    "attenuator-family-validity": check_attenuator_family_validity,
}


def run_suite(seed: int = 0, names=None) -> list:
    """Run the registered property checks; returns [(name, ok, detail), ...]."""
    selected = PROPERTIES if names is None else {n: PROPERTIES[n] for n in names}
    results = []
    for name, fn in selected.items():
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
