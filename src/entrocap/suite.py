"""Named property checks over random seeded instances.

Each check returns ``(ok, detail)``; the registry drives both the CLI
``suite`` command and parts of the test suite.  Counts are sized so the full
sweep stays in the minutes range on a laptop.  Most properties are one
residual function plus one ``PROPERTIES`` row: :func:`_worst_of` turns the
residual into a check on its worst value over seeded draws.
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
from .errors import ValidationError

__all__ = ["PROPERTIES", "run_suite"]


def _draw(rng) -> int:
    return int(rng.integers(0, 2**31))


def _random_channel(rng, d_in=None, d_out=None, rank=None):
    d_in = d_in or int(rng.integers(2, 5))
    d_out = d_out or int(rng.integers(2, 5))
    min_rank = max(1, math.ceil(d_in / d_out))
    rank = rank or int(rng.integers(min_rank, 5))
    rank = max(rank, min_rank)
    return ch.sample_channel(d_in, d_out, rank, seed=_draw(rng))


def _worst_of(residual, count: int, tol: str, label: str):
    """A check that passes when the largest of ``count`` residuals is at most ``tol``.

    ``residual(rng, seed, k)`` draws instance k from the shared ``rng`` or from ``seed``; a residual may be
    signed, and a NaN one fails.  ``tol`` is the tolerance as the detail prints it; ``label`` may use
    ``{count}``."""

    def check(seed=0):
        rng = np.random.default_rng(seed)
        worst = float(np.max([residual(rng, seed, k) for k in range(count)]))
        return worst <= float(tol), f"{label.format(count=count)} {worst:.2e} (tol {tol})"

    return check


def check_sampled_states(seed=0, count=50):
    for k in range(count):
        rho = la.sample_state(2 + k % 3, rank=1 + k % (2 + k % 3), seed=seed + k)
        la.assert_density_operator(rho)
    return True, f"{count} sampled states satisfy the state invariants"


def _factor_recovery(rng, seed, k):
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    a = la.sample_state(da, seed=_draw(rng))
    b = la.sample_state(db, seed=_draw(rng))
    joint = la.tensor(a, b)
    return max(
        float(np.abs(la.partial_trace(joint, (da, db), (0,)) - a).max()),
        float(np.abs(la.partial_trace(joint, (da, db), (1,)) - b).max()),
    )


def _purify_round_trip(rng, seed, k):
    d = 2 + k % 4
    rho = la.sample_state(d, rank=1 + k % d, seed=seed + 17 * k)
    back = la.partial_trace(la.purify(rho).projector(), (d, d), (0,))
    return float(np.abs(back - rho).max())


def _spectral_residual(rng, seed, k):
    d = 2 + k % 5
    h = la.sample_hermitian(d, seed=seed + k)
    w, u = la.hermitian_eig(h)
    trace_gap = abs(float(w.sum()) - float(np.trace(h).real)) / d
    return max(trace_gap, float(np.abs((u * w) @ u.conj().T - h).max()))


def _trace_drift(rng, seed, k):
    phi = _random_channel(rng)
    rho = la.sample_state(phi.dim_in, seed=_draw(rng))
    return abs(float(np.trace(ch.apply(phi, rho)).real) - 1.0)


def _duality_residual(rng, seed, k):
    phi = _random_channel(rng)
    rho = la.sample_state(phi.dim_in, seed=_draw(rng))
    obs = la.sample_hermitian(phi.dim_out, seed=_draw(rng))
    lhs = complex(np.trace(ch.apply(phi, rho) @ obs))
    return abs(lhs - complex(np.trace(rho @ ch.dual_apply(phi, obs))))


def _spectrum_gap(a, b) -> float:
    """Largest difference of the descending, zero-padded spectra of two PSD matrices."""
    size = max(a.shape[0], b.shape[0])
    wa, wb = (np.pad(np.clip(np.linalg.eigvalsh(m)[::-1], 0.0, None), (0, size - m.shape[0])) for m in (a, b))
    return float(np.abs(wa - wb).max())


def _double_complement(rng, seed, k):
    phi = _random_channel(rng)
    rho = la.sample_state(phi.dim_in, seed=_draw(rng))
    return _spectrum_gap(ch.apply(phi, rho), ch.apply(ch.complementary(ch.complementary(phi)), rho))


def _pure_input_mismatch(rng, seed, k):
    phi = _random_channel(rng)
    vec = la.sample_pure(phi.dim_in, seed=_draw(rng)).vec
    rho = np.outer(vec, vec.conj())
    return _spectrum_gap(ch.apply(phi, rho), ch.environment_output(phi, rho))


def check_cq_detection(seed=0, count=15):
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


def _route_discrepancy(rng, seed, k):
    phi = _random_channel(rng, d_in=int(rng.integers(2, 5)), d_out=int(rng.integers(2, 5)))
    rho = la.sample_state(phi.dim_in, rank=int(rng.integers(1, phi.dim_in + 1)), seed=_draw(rng))
    return abs(mutual_information(rho, phi) - mutual_information(rho, phi, route="entropies"))


def _fixed_marginal_excess(rng, seed, k):
    da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    omega = la.sample_state(da * db, seed=_draw(rng))
    n_enc = int(rng.integers(2, 5))
    encs = [_random_channel(rng, d_in=da, d_out=da) for _ in range(n_enc)]
    weights = rng.dirichlet(np.ones(n_enc))
    mu = fixed_marginal_ensemble(omega, encs, weights, (da, db))
    phi = _random_channel(rng, d_in=da, d_out=int(rng.integers(2, 4)))
    big = ch.tensor_channel(phi, ch.identity_channel(db))
    bound = mutual_information(la.partial_trace(mu.barycenter(), (da, db), (0,)), phi)
    return chi_through(big, mu) - bound


def _monotonicity_excess(rng, seed, k):
    dims = (2, 2, 2) if k % 2 else (2, 3, 2)
    rho = la.sample_state(int(np.prod(dims)), seed=seed + k)
    habc = conditional_entropy(rho, dims, sys=(0,), cond=(1, 2))
    return habc - conditional_entropy(rho, dims, sys=(0,), cond=(1,))


def _conditional_duality(rng, seed, k):
    dims = (2, 2, 2) if k % 2 else (2, 3, 2)
    vec = la.sample_pure(int(np.prod(dims)), seed=seed + k).vec
    rho = np.outer(vec, vec.conj())
    hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
    return abs(hab + conditional_entropy(rho, dims, sys=(0,), cond=(2,)))


def _random_pure_ensemble(rng, dim, members):
    weights = rng.dirichlet(np.ones(members))
    vecs = []
    for _ in range(members):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vecs.append(v / np.linalg.norm(v))
    return pure_state_ensemble(weights, vecs)


def _ensemble_identity(rng, seed, k):
    phi = _random_channel(rng)
    mu = _random_pure_ensemble(rng, phi.dim_in, int(rng.integers(2, 9)))
    lhs = chi_through(phi, mu) - chi_through(ch.complementary(phi), mu)
    return abs(lhs - coherent_information(mu.barycenter(), phi))


def _additivity_residual(rng, seed, k):
    p1 = _random_channel(rng, d_in=2, d_out=2)
    p2 = _random_channel(rng, d_in=2, d_out=2)
    r1 = la.sample_state(2, seed=_draw(rng))
    r2 = la.sample_state(2, seed=_draw(rng))
    joint = mutual_information(la.tensor(r1, r2), ch.tensor_channel(p1, p2), route="entropies")
    split = mutual_information(r1, p1, route="entropies") + mutual_information(r2, p2, route="entropies")
    return abs(joint - split)


def _data_processing_excess(rng, seed, k):
    phi = _random_channel(rng, d_in=3, d_out=3)
    mu = _random_pure_ensemble(rng, 3, int(rng.integers(2, 7)))
    tau = la.sample_state(3, seed=_draw(rng))
    n = int(rng.integers(1, 4))
    return chi_through(ch.truncate(phi, n, tau), mu) - chi_through(phi, mu)


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


def _chain_residual(rng, seed, k):
    phi = _random_channel(rng, d_in=2, d_out=2)
    con = cap.EnergyConstraint(np.eye(2), 1.0)
    mu = cap.chi_capacity(phi, con, opts=cap.OptimizerOptions(max_iterations=80, restarts=1)).optimizer
    avg = mu.barycenter()
    rhs = entropy(avg) + chi_through(phi, mu) - chi_through(ch.complementary(phi), mu)
    return abs(mutual_information(avg, phi) - rhs)


def _chi_excess_over_cea(rng, seed, k):
    phi = _random_channel(rng, d_in=2, d_out=2)
    con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.7)
    cea = cap.cea_capacity(phi, con, cap.OptimizerOptions(max_iterations=200))
    chi = cap.chi_capacity(phi, con, opts=cap.OptimizerOptions(max_iterations=80, restarts=1))
    return chi.value - (cea.value + cea.gap)


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
    "partial-trace-tensor": _worst_of(_factor_recovery, 30, "1e-10", "max factor-recovery residual"),
    "purify-right-inverse": _worst_of(_purify_round_trip, 30, "1e-9", "max purification round-trip residual"),
    "eig-reconstruction": _worst_of(_spectral_residual, 30, "1e-9", "max spectral residual"),
    "apply-trace-preserving": _worst_of(_trace_drift, 100, "1e-9", "max trace drift over {count} pairs"),
    "heisenberg-duality": _worst_of(_duality_residual, 100, "1e-9", "max duality residual"),
    "double-complement-spectra": _worst_of(_double_complement, 40, "1e-8", "max double-complement spectrum drift"),
    "pure-input-spectra": _worst_of(_pure_input_mismatch, 40, "1e-8", "max output/environment spectrum mismatch"),
    "cq-detection": check_cq_detection,
    "mi-route-agreement": _worst_of(_route_discrepancy, 60, "1e-8", "max route discrepancy over {count} pairs"),
    "fixed-marginal-bound": _worst_of(_fixed_marginal_excess, 50, "1e-8", "max chi - mi excess"),
    "conditional-monotonicity": _worst_of(_monotonicity_excess, 60, "1e-8", "max H(A|BC) - H(A|B) excess"),
    "conditional-duality": _worst_of(_conditional_duality, 60, "1e-8", "max |H(A|B) + H(A|C)| on pure states"),
    "pure-ensemble-identity": _worst_of(_ensemble_identity, 60, "1e-8", "max ensemble-difference identity residual"),
    "mi-product-additivity": _worst_of(_additivity_residual, 25, "1e-8", "max product-input additivity residual"),
    "chi-data-processing": _worst_of(_data_processing_excess, 30, "1e-8", "max data-processing excess"),
    "cea-feasible-ascent": check_cea_feasible_ascent,
    "certificate-soundness": check_certificate_soundness,
    "mi-chain-identity": _worst_of(_chain_residual, 6, "1e-8", "max chain-identity residual at optimizer ensembles"),
    "cea-dominates-chi": _worst_of(_chi_excess_over_cea, 6, "1e-6", "max chi excess over certified bracket"),
    "attenuator-photon-scaling": check_attenuator_scaling,
    "fock-oracle-agreement": check_fock_oracle_agreement,
    "classify-symplectic-invariance": check_classify_invariance,
    "attenuator-family-validity": check_attenuator_family_validity,
}


def run_suite(seed: int = 0, names=None) -> list:
    """Run the registered property checks; returns [(name, ok, detail), ...].

    A seed that is not an integer >= 0 raises ValidationError before any check runs."""
    if not la._is_integer(seed) or seed < 0:
        raise ValidationError(f"suite seed must be an integer >= 0, got {seed!r}")
    selected = PROPERTIES if names is None else {n: PROPERTIES[n] for n in names}
    results = []
    for name, fn in selected.items():
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
