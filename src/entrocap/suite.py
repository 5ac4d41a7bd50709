"""Named property checks over random seeded instances.

Each check returns ``(ok, detail)``; the registry drives both the CLI
``suite`` command and parts of the test suite.  Counts are sized so the full
sweep stays in the minutes range on a laptop.  Every property is one
residual function plus one ``PROPERTIES`` row: :func:`_worst_of` turns the
residual into a check on its worst value over seeded draws.  A property with
two tolerances divides each term by its own and checks the larger ratio
against 1; a count of failed cases is checked against 0.
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


def _state_defect(rng, seed, k):
    d = 2 + k % 3
    rho = la.sample_state(d, rank=1 + k % d, seed=seed + k)
    herm = 0.5 * (rho + rho.conj().T)
    defects = [np.abs(rho - rho.conj().T).max(), abs(np.trace(rho).real - 1.0), -np.linalg.eigvalsh(herm)[0]]
    return float(np.max(defects))  # the state validator's Hermiticity, trace and PSD tolerances are all 1e-10


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


def _cq_misclassified(rng, seed, k):
    cq = ch.cq_channel([la.sample_state(3, seed=seed + 100 * k + j) for j in range(3)])
    unitary = ch.unitary_channel(la.sample_isometry(3, 3, seed=seed + 991 * k))
    return float(not ch.is_cq(cq).is_cq) + float(ch.is_cq(unitary).is_cq)


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


def _ascent_defect(rng, seed, k):
    """The larger of the iterates' energy excess over the bound per 1e-9 and the objective's drop per 1e-10."""
    phi = _random_channel(rng, d_in=2, d_out=2)
    con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.4)
    records = cap.cea_capacity(phi, con, cap.OptimizerOptions(max_iterations=40)).trace
    values, energies = np.array(records, dtype=float).reshape(-1, 2).T
    excess, drop = (energies - con.bound) / 1e-9, (values[:-1] - values[1:]) / 1e-10
    return float(np.max([*excess, *drop], initial=-np.inf))


def _closed_form_miss(rng, seed, k):
    """How far the closed form lies outside the certified bracket: the identity qubit (2 h(1/4)) at k = 0, a
    replacement channel (0) at k = 1."""
    if k == 0:
        phi, truth, iterations = ch.identity_channel(2), -1.5 * math.log2(0.75) - 0.5 * math.log2(0.25), 300
    else:
        phi, truth, iterations = ch.replacement_channel(la.sample_state(2, seed=seed)), 0.0, 50
    con = cap.EnergyConstraint(np.diag([0.0, 1.0]), 0.25)
    res = cap.cea_capacity(phi, con, cap.OptimizerOptions(max_iterations=iterations))
    return max(res.value - truth, truth - (res.value + res.gap))


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


_PHOTON_CASES = [(eta, n) for eta in (0.3, 0.6, 0.9) for n in (0.5, 1.0)]
_FAMILY_CASES = [(eta, n_env) for eta in (0.3, 0.6, 0.9) for n_env in (0.0, 0.5, 2.0, -0.05, -0.5)]


def _photon_excess(rng, seed, k):
    """Excess of the attenuated thermal state's mean photon number over eta N beyond the cutoff's tail bound."""
    (eta, n), cut = _PHOTON_CASES[k], 30
    out = ch.apply(ga.fock_attenuator(eta, cut), ga.thermal_state(n, cut))
    out_mean = float(np.trace(out @ ga.number_operator(cut)).real)
    return abs(out_mean - eta * n) - (n / (n + 1.0)) ** (cut + 1) * (cut + 2)


def _fock_oracle_mismatch(rng, seed, k):
    """The larger of the Fock-vs-oracle MI difference per 5e-3 and the two Fock routes' difference per 1e-8."""
    att, th = ga.fock_attenuator(0.6, 25), ga.thermal_state(0.5, 25)
    mi = mutual_information(th, att, route="entropies")
    oracle = ga.gaussian_mi_oracle(ga.attenuator_params(0.6), ga.thermal_gaussian_state(0.5))
    return float(np.max([abs(mi - oracle) / 5e-3, abs(mi - mutual_information(th, att)) / 1e-8]))


def _verdict_changes(rng, seed, k):
    """How many classification verdicts of three channels the k-th random symplectic conjugation changes."""
    space = ga.SymplecticSpace.standard(1)
    sa, sb = ga.random_symplectic(2, seed=seed + k), ga.random_symplectic(2, seed=seed + 1000 + k)
    changes = 0
    for params in (
        ga.GaussianChannelParams(np.zeros((2, 2)), np.zeros(2), 0.5 * np.eye(2), space, space),
        ga.GaussianChannelParams(np.diag([1.0, 0.0]), np.zeros(2), np.eye(2), space, space),
        ga.attenuator_params(0.6),
    ):
        conj = ga.GaussianChannelParams(sa.T @ params.K @ sb, params.l, params.alpha, space, space)
        base, conj = ga.classify_gaussian(params), ga.classify_gaussian(conj)
        changes += sum(base[key] != conj[key] for key in ("cq", "discrete_type", "no_discrete_subchannel"))
    return float(changes)


def _wrong_validity(rng, seed, k):
    """1 where the validator's verdict on an attenuator with environment photons N_E is not ``N_E >= 0``."""
    (eta, n_env), space = _FAMILY_CASES[k], ga.SymplecticSpace.standard(1)
    alpha = (1.0 - eta) * (2.0 * n_env + 1.0) / 2.0 * np.eye(2)
    params = ga.GaussianChannelParams(math.sqrt(eta) * np.eye(2), np.zeros(2), alpha, space, space)
    return float(ga.validate_gaussian(params)["valid"] != (n_env >= 0.0))


PROPERTIES = {
    "sampled-states-valid": _worst_of(_state_defect, 50, "1e-10", "max state-invariant defect"),
    "partial-trace-tensor": _worst_of(_factor_recovery, 30, "1e-10", "max factor-recovery residual"),
    "purify-right-inverse": _worst_of(_purify_round_trip, 30, "1e-9", "max purification round-trip residual"),
    "eig-reconstruction": _worst_of(_spectral_residual, 30, "1e-9", "max spectral residual"),
    "apply-trace-preserving": _worst_of(_trace_drift, 100, "1e-9", "max trace drift over {count} pairs"),
    "heisenberg-duality": _worst_of(_duality_residual, 100, "1e-9", "max duality residual"),
    "double-complement-spectra": _worst_of(_double_complement, 40, "1e-8", "max double-complement spectrum drift"),
    "pure-input-spectra": _worst_of(_pure_input_mismatch, 40, "1e-8", "max output/environment spectrum mismatch"),
    "cq-detection": _worst_of(_cq_misclassified, 15, "0", "max misclassified per cq / unitary pair"),
    "mi-route-agreement": _worst_of(_route_discrepancy, 60, "1e-8", "max route discrepancy over {count} pairs"),
    "fixed-marginal-bound": _worst_of(_fixed_marginal_excess, 50, "1e-8", "max chi - mi excess"),
    "conditional-monotonicity": _worst_of(_monotonicity_excess, 60, "1e-8", "max H(A|BC) - H(A|B) excess"),
    "conditional-duality": _worst_of(_conditional_duality, 60, "1e-8", "max |H(A|B) + H(A|C)| on pure states"),
    "pure-ensemble-identity": _worst_of(_ensemble_identity, 60, "1e-8", "max ensemble-difference identity residual"),
    "mi-product-additivity": _worst_of(_additivity_residual, 25, "1e-8", "max product-input additivity residual"),
    "chi-data-processing": _worst_of(_data_processing_excess, 30, "1e-8", "max data-processing excess"),
    "cea-feasible-ascent": _worst_of(_ascent_defect, 4, "1", "max of energy excess / 1e-9, value drop / 1e-10"),
    "certificate-soundness": _worst_of(_closed_form_miss, 2, "1e-12", "max closed-form miss outside the bracket"),
    "mi-chain-identity": _worst_of(_chain_residual, 6, "1e-8", "max chain-identity residual at optimizer ensembles"),
    "cea-dominates-chi": _worst_of(_chi_excess_over_cea, 6, "1e-6", "max chi excess over certified bracket"),
    "attenuator-photon-scaling": _worst_of(_photon_excess, 6, "1e-9", "max mean-photon excess over tail bound"),
    "fock-oracle-agreement": _worst_of(_fock_oracle_mismatch, 1, "1", "max of MI vs oracle / 5e-3, routes / 1e-8"),
    "classify-symplectic-invariance": _worst_of(_verdict_changes, 50, "0", "max verdict changes per conjugation"),
    "attenuator-family-validity": _worst_of(_wrong_validity, 15, "0", "max wrong verdict (valid iff N_E >= 0)"),
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
