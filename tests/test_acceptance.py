"""Acceptance criteria, one test per criterion.

Every expected value is computed in-test by an independent oracle (scalar
entropy formulas, water-filling by bisection, covariance-matrix evaluation)
and compared at the stated tolerance.  Run with ``pytest -s`` to see one
pass line per criterion.
"""

import math
import time

import numpy as np

from entrocap import (
    EnergyConstraint,
    OptimizerOptions,
    additivity_probe,
    attenuator_params,
    cea_capacity,
    check_prop1,
    chi_capacity,
    chi_through,
    classify_gaussian,
    coherent_information,
    complementary,
    conditional_entropy,
    cq_channel,
    dephasing_channel,
    depolarizing_channel,
    fixed_marginal_ensemble,
    fock_attenuator,
    gaussian_mi_oracle,
    identity_channel,
    mutual_information,
    partial_trace,
    pure_state_ensemble,
    sample_channel,
    sample_pure,
    sample_state,
    tensor_channel,
    thermal_gaussian_state,
    thermal_state,
    truncation_convergence,
)
from entrocap.gaussian import GaussianChannelParams, SymplecticSpace, random_symplectic

QUBIT_F = np.diag([0.0, 1.0])


def shannon(probabilities):
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def random_channel(rng, d_in=None, d_out=None, max_rank=4):
    d_in = d_in or int(rng.integers(2, 5))
    d_out = d_out or int(rng.integers(2, 5))
    min_rank = max(1, -(-d_in // d_out))
    rank = int(rng.integers(min_rank, max_rank + 1))
    return sample_channel(d_in, d_out, max(rank, min_rank), seed=int(rng.integers(0, 2**31)))


def report(n, detail):
    print(f"criterion {n:2d}: PASS — {detail}")


def test_criterion_01_pure_ensemble_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        chan = random_channel(rng)
        members = int(rng.integers(2, 9))
        weights = rng.dirichlet(np.ones(members))
        vecs = [
            rng.standard_normal(chan.dim_in) + 1j * rng.standard_normal(chan.dim_in)
            for _ in range(members)
        ]
        mu = pure_state_ensemble(weights, vecs)
        lhs = chi_through(chan, mu) - chi_through(complementary(chan), mu)
        rhs = coherent_information(mu.barycenter(), chan)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"identity residual {worst}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"200 instances, max residual {worst:.2e} <= 1e-8 in {elapsed:.1f}s")


def test_criterion_02_fixed_marginal_bound_suite():
    rng = np.random.default_rng(202)
    worst = -math.inf
    for k in range(200):
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        if k % 2:
            omega = sample_state(d_a * d_b, seed=int(rng.integers(0, 2**31)))
        else:  # pure shared states as in the encoding protocol
            vec = sample_pure(d_a * d_b, seed=int(rng.integers(0, 2**31))).vec
            omega = np.outer(vec, vec.conj())
        n_enc = int(rng.integers(2, 5))
        encodings = [random_channel(rng, d_in=d_a, d_out=d_a) for _ in range(n_enc)]
        weights = rng.dirichlet(np.ones(n_enc))
        mu = fixed_marginal_ensemble(omega, encodings, weights, (d_a, d_b))
        chan = random_channel(rng, d_in=d_a, d_out=int(rng.integers(2, 4)))
        lifted = tensor_channel(chan, identity_channel(d_b))
        omega_a = partial_trace(mu.barycenter(), (d_a, d_b), (0,))
        excess = chi_through(lifted, mu) - mutual_information(omega_a, chan)
        worst = max(worst, excess)
    assert worst <= 1e-8, f"bound violated by {worst}"
    report(2, f"200 encoded ensembles, max chi-minus-bound excess {worst:.2e} <= 1e-8")


def test_criterion_03_conditional_entropy_suite():
    worst_mono = -math.inf
    worst_dual = 0.0
    for k in range(200):
        dims = (2, 2, 2) if k % 2 else (2, 3, 2)
        total = int(np.prod(dims))
        rho = sample_state(total, seed=3000 + k)
        hab = conditional_entropy(rho, dims, sys=(0,), cond=(1,))
        habc = conditional_entropy(rho, dims, sys=(0,), cond=(1, 2))
        worst_mono = max(worst_mono, habc - hab)
        vec = sample_pure(total, seed=6000 + k).vec
        pure = np.outer(vec, vec.conj())
        pab = conditional_entropy(pure, dims, sys=(0,), cond=(1,))
        pac = conditional_entropy(pure, dims, sys=(0,), cond=(2,))
        worst_dual = max(worst_dual, abs(pab + pac))
    assert worst_mono <= 1e-8, f"monotonicity excess {worst_mono}"
    assert worst_dual <= 1e-8, f"duality residual {worst_dual}"
    report(3, f"200 states: monotonicity excess {worst_mono:.2e}, duality residual {worst_dual:.2e}")


def test_criterion_04_mutual_information_route_agreement():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        chan = random_channel(rng)
        rho = sample_state(
            chan.dim_in, rank=int(rng.integers(1, chan.dim_in + 1)), seed=int(rng.integers(0, 2**31))
        )
        worst = max(
            worst,
            abs(mutual_information(rho, chan) - mutual_information(rho, chan, route="entropies")),
        )
    assert worst <= 1e-8, f"route discrepancy {worst}"
    report(4, f"200 pairs, max route discrepancy {worst:.2e} <= 1e-8")


def test_criterion_05_certified_identity_qubit():
    target = 2.0 * shannon([0.75, 0.25])
    res = cea_capacity(
        identity_channel(2),
        EnergyConstraint(QUBIT_F, 0.25),
        OptimizerOptions(max_iterations=500, gap_tolerance=1e-5),
    )
    assert res.gap <= 1e-4, f"gap {res.gap}"
    assert res.iterations <= 500
    assert res.value - 1e-12 <= target <= res.value + res.gap + 1e-12
    report(5, f"bracket [{res.value:.7f}, {res.value + res.gap:.7f}] contains {target:.7f}, gap {res.gap:.1e}")


def test_criterion_06_certified_depolarizing():
    chan = depolarizing_channel(0.5)
    oracle = mutual_information(np.eye(2) / 2, chan, route="entropies")
    res = cea_capacity(
        chan,
        EnergyConstraint(QUBIT_F, 1.0),
        OptimizerOptions(max_iterations=300, gap_tolerance=1e-5, restarts=20, seed=6),
    )
    assert res.gap <= 1e-4, f"gap {res.gap}"
    assert res.value - 1e-12 <= oracle <= res.value + res.gap + 1e-12
    assert abs(res.value - oracle) <= 1e-4
    report(6, f"bracket [{res.value:.7f}, {res.value + res.gap:.7f}] contains oracle {oracle:.7f}")


def test_criterion_07_discrete_cq_coincidence():
    sigmas = []
    for k in range(3):
        e = np.zeros((3, 3), dtype=complex)
        e[k, k] = 1.0
        sigmas.append(e)
    chan = cq_channel(sigmas)
    levels = [0.0, 1.0, 2.0]
    bound = 0.5
    con = EnergyConstraint(np.diag(levels), bound)

    def tilt(beta):
        p = np.exp(-beta * np.asarray(levels))
        return p / p.sum()

    lo, hi = 0.0, 1.0
    while float(tilt(hi) @ np.asarray(levels)) > bound:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(tilt(mid) @ np.asarray(levels)) <= bound:
            hi = mid
        else:
            lo = mid
    waterfill = shannon(tilt(hi))

    cea = cea_capacity(chan, con, OptimizerOptions(max_iterations=400, gap_tolerance=1e-5))
    chi = chi_capacity(chan, con, opts=OptimizerOptions(max_iterations=200, restarts=3))
    assert abs(cea.value - chi.value) <= 5e-3, f"|cea - chi| = {abs(cea.value - chi.value)}"
    assert abs(cea.value - waterfill) <= 1e-3, f"cea {cea.value} vs waterfilling {waterfill}"
    assert abs(chi.value - waterfill) <= 5e-3, f"chi {chi.value} vs waterfilling {waterfill}"
    report(
        7,
        f"cea {cea.value:.6f}, chi {chi.value:.6f}, water-filling {waterfill:.6f} "
        f"(coincide within 5e-3)",
    )


def test_criterion_08_prop1_margins():
    opts = OptimizerOptions(max_iterations=150, gap_tolerance=1e-6, restarts=2)
    con = EnergyConstraint(np.eye(2), 1.0)
    worst = math.inf
    inconclusive = 0
    for seed in range(50):
        chan = sample_channel(2, 2, 2 + seed % 3, seed=800 + seed)
        rep = check_prop1(chan, con, opts)
        worst = min(worst, rep["margin"])
        if rep["status"] != "satisfied":
            inconclusive += 1
    assert worst >= -1e-6, f"worst margin {worst}"
    assert inconclusive == 0, f"{inconclusive} inconclusive instances"
    report(8, f"50 random qubit channels, min margin {worst:+.6f} >= -1e-6, 0 inconclusive")


def test_criterion_09_gaussian_attenuator_cutoff_40():
    t0 = time.perf_counter()
    oracle = gaussian_mi_oracle(attenuator_params(0.6), thermal_gaussian_state(1.0))
    mi = mutual_information(thermal_state(1.0, 40), fock_attenuator(0.6, 40))
    elapsed = time.perf_counter() - t0
    assert abs(mi - oracle) <= 5e-3, f"difference {abs(mi - oracle)}"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"
    report(9, f"fock MI {mi:.6f} vs oracle {oracle:.6f} (diff {abs(mi - oracle):.2e}) in {elapsed:.0f}s")


def test_criterion_10_gaussian_classification():
    space = SymplecticSpace.standard(1)

    def params(k, alpha):
        return GaussianChannelParams(k, np.zeros(2), alpha, space, space)

    cases = [
        (params(np.zeros((2, 2)), 0.5 * np.eye(2)), (True, True, False)),
        (params(np.diag([1.0, 0.0]), np.eye(2)), (True, False, False)),
        (attenuator_params(0.6), (False, False, True)),
    ]
    for base, expected in cases:
        v = classify_gaussian(base)
        assert (v["cq"], v["discrete_type"], v["no_discrete_subchannel"]) == expected
    for seed in range(50):
        sa = random_symplectic(2, seed=1000 + seed)
        sb = random_symplectic(2, seed=2000 + seed)
        for base, expected in cases:
            conj = params(sa.T @ base.K @ sb, base.alpha)
            v = classify_gaussian(conj)
            assert (v["cq"], v["discrete_type"], v["no_discrete_subchannel"]) == expected
    report(10, "3 canonical verdicts exact; invariant under 50 symplectic conjugations")


def test_criterion_11_truncation_convergence():
    chan = sample_channel(3, 3, 3, seed=11)
    con = EnergyConstraint(np.diag([0.0, 1.0, 2.0]), 1.0)
    tau = np.zeros((3, 3), dtype=complex)
    tau[0, 0] = 1.0
    table = truncation_convergence(
        chan, con, [1, 2, 3], tau, opts=OptimizerOptions(max_iterations=300, gap_tolerance=1e-5)
    )
    rows = table["rows"]
    for a, b in zip(rows, rows[1:]):
        assert b["value"] + b["gap"] >= a["value"] - 1e-9, (a, b)
    full = table["full"]
    last = rows[-1]
    assert last["value"] <= full["value"] + full["gap"] + 1e-9
    assert full["value"] <= last["value"] + last["gap"] + 1e-9
    values = ", ".join(f"{r['rank']}:{r['value']:.6f}" for r in rows)
    report(11, f"brackets nondecreasing ({values}); rank-3 overlaps untruncated {full['value']:.6f}")


def test_criterion_12_two_copy_additivity():
    rep = additivity_probe(
        dephasing_channel(2),
        EnergyConstraint(QUBIT_F, 1.0),
        OptimizerOptions(max_iterations=400, gap_tolerance=1e-4),
    )
    assert rep["combined_gap"] <= 5e-4, f"combined gap {rep['combined_gap']}"
    assert abs(rep["difference"]) <= rep["combined_gap"] + 1e-12
    report(
        12,
        f"|double - 2 single| = {abs(rep['difference']):.2e} <= combined gap "
        f"{rep['combined_gap']:.2e} <= 5e-4",
    )
