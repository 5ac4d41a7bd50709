"""Constrained capacity computation and certified/heuristic optimizers.

The entanglement-assisted value is the supremum of the mutual information
over the spectrahedron slice ``{rho >= 0, Tr rho = 1, Tr rho F <= E}``.  The
objective is concave, so a conditional-gradient (Frank-Wolfe) ascent with an
exact linear maximization oracle yields a certified bracket: the best iterate
is a feasible lower bound and the linearization maximum bounds the optimum
from above.  The chi-quantity optimizers are multi-start local searches
and their results are flagged heuristic lower bounds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel,
    QuantumOperation,
    apply,
    complementary,
    dual_apply,
    dual_environment,
    environment_output,
    is_cq_discrete,
    minimize_kraus,
    restrict,
    tensor_channel,
    truncate,
)
from .entropy import Ensemble, _entropy_and_slope, chi_through, entropy, relative_entropy
from .errors import ResourceLimitError, ValidationError
from .linalg import (
    assert_density_operator,
    assert_hermitian,
    hermitian_eig,
    hermitian_log2,
    sample_isometry,
    tensor,
)

__all__ = [
    "CapacityResult",
    "EnergyConstraint",
    "LinearMaxResult",
    "OptimizerOptions",
    "additivity_probe",
    "cea_capacity",
    "check_prop1",
    "chi_at_state",
    "chi_capacity",
    "coincidence_certificate",
    "constraint_tensor",
    "feasible_linear_max",
    "mutual_information_value",
    "truncation_convergence",
]

FEASIBILITY_TOL = 1e-9

_RELENT_CAP_BITS = 60.0

# Pairwise weight shifts after each Frank-Wolfe step.  Without them the Fock
# attenuator (eta 0.6, E 1) at cutoffs 10 and 20 stopped at 300 iterations
# unconverged (gaps 3.7e-3 and 6.5e-3) in 4.7 s; with them both converge in
# 15 and 30 iterations, 1.2 s (one BLAS thread, 2 vCPUs).
_POLISH_STEPS = 8


@dataclass(frozen=True)
class EnergyConstraint:
    """Linear input constraint Tr rho F <= E for a positive Hermitian F."""

    operator: np.ndarray
    bound: float

    def __post_init__(self):
        f = assert_hermitian(self.operator, name="constraint operator")
        w = np.linalg.eigvalsh(0.5 * (f + f.conj().T))
        if float(w.min()) < -1e-10:
            raise ValidationError(f"constraint operator not PSD: min eig {float(w.min()):.3e}")
        e = float(self.bound)
        if not 0.0 <= e < math.inf:
            raise ValidationError(f"constraint bound must be finite and nonnegative, got {e}")
        if float(w.min()) > e + 1e-12:
            raise ValidationError(
                f"infeasible constraint: min eig F = {float(w.min()):.6g} exceeds bound {e}"
            )
        object.__setattr__(self, "operator", f)
        object.__setattr__(self, "bound", e)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def energy(self, rho) -> float:
        return float(np.trace(np.asarray(rho) @ self.operator).real)

    def is_feasible(self, rho, slack: float = FEASIBILITY_TOL) -> bool:
        return self.energy(rho) <= self.bound + slack


def constraint_tensor(constraint: EnergyConstraint, n: int) -> EnergyConstraint:
    """n-copy constraint (F(x)I...I + ... + I...I(x)F, n*E)."""
    n = int(n)
    if n < 1:
        raise ValidationError("copy count must be at least 1")
    d = constraint.dim
    total = np.zeros((d**n, d**n), dtype=complex)
    for j in range(n):
        factors = [np.eye(d, dtype=complex)] * n
        factors[j] = constraint.operator
        total += tensor(*factors)
    return EnergyConstraint(total, n * constraint.bound)


@dataclass(frozen=True)
class OptimizerOptions:
    """Optimizer settings; ``line_search_tol`` is the tolerance on the step t in [0, 1].

    ``restarts`` and ``seed`` apply only to the heuristic chi optimizers.
    """

    max_iterations: int = 300
    gap_tolerance: float = 1e-5
    restarts: int = 1
    seed: int = 0
    epsilon: float = 1e-9
    line_search_tol: float = 1e-10


@dataclass
class CapacityResult:
    """Value in bits plus the optimizer that attained it.

    ``gap`` is the certified bracket width (true value within
    ``[value, value + gap]``) for certified runs and ``None`` for heuristic
    ones; heuristic values are lower bounds with no optimality claim.
    ``trace`` holds one ``(objective, energy)`` record per completed
    Frank-Wolfe iteration of a certified run.
    """

    value: float
    optimizer: object
    gap: float | None
    heuristic: bool
    iterations: int
    wall_time: float
    converged: bool
    trace: tuple = ()

    @property
    def upper_bound(self) -> float:
        if self.gap is None:
            return math.inf
        return self.value + self.gap


@dataclass(frozen=True)
class LinearMaxResult:
    state: np.ndarray
    value: float
    gap: float
    multiplier: float


def _min_energy_vector(g_w, g_u, f, cluster_tol=1e-10):
    """Least-energy unit vector inside the top eigenspace of a Hermitian matrix."""
    scale = max(1.0, float(np.abs(g_w).max()))
    mask = g_w >= g_w[0] - cluster_tol * scale
    block = g_u[:, mask]
    fb = block.conj().T @ f @ block
    fw, fu = np.linalg.eigh(0.5 * (fb + fb.conj().T))
    v = block @ fu[:, 0]
    return v / np.linalg.norm(v), float(fw[0])


def feasible_linear_max(g, constraint: EnergyConstraint) -> LinearMaxResult:
    """Maximize Tr(G sigma) over feasible states, certified to ~1e-10.

    Lagrangian bisection on the multiplier: the maximizer of ``G - lam F``
    over states is its top eigenvector; the feasible optimum is either the
    unconstrained one or a two-point mixture at the active breakpoint, and
    complementary slackness bounds the optimality gap.
    """
    f, e = constraint.operator, constraint.bound
    g = assert_hermitian(g, tol=1e-8, name="objective")
    if g.shape != f.shape:
        raise ValidationError("objective and constraint dims differ")
    slack = 1e-12 * max(1.0, abs(e))

    def probe(lam):
        w, u = hermitian_eig(g - lam * f)
        v, fval = _min_energy_vector(w, u, f)
        return v, fval, float(w[0])

    v0, f0, top0 = probe(0.0)
    if f0 <= e + slack:
        sigma = np.outer(v0, v0.conj())
        value = float(np.vdot(v0, g @ v0).real)
        return LinearMaxResult(sigma, value, max(top0 - value, 0.0), 0.0)

    lam_lo, v_lo, f_lo = 0.0, v0, f0
    lam_hi = 1.0
    v_hi = f_hi = top_hi = None
    for _ in range(128):
        v, fval, top = probe(lam_hi)
        if fval <= e + slack:
            v_hi, f_hi, top_hi = v, fval, top
            break
        lam_lo, v_lo, f_lo = lam_hi, v, fval
        lam_hi *= 2.0
    if v_hi is None:
        raise ValidationError("constraint bound unreachable by Lagrangian sweep")

    # bisect until lam_lo and lam_hi are adjacent floats; ties resolved
    # toward the smaller multiplier: "feasible" shrinks lam_hi
    while lam_lo < (mid := 0.5 * (lam_lo + lam_hi)) < lam_hi:
        v, fval, top = probe(mid)
        if fval <= e + slack:
            lam_hi, v_hi, f_hi, top_hi = mid, v, fval, top
        else:
            lam_lo, v_lo, f_lo = mid, v, fval

    if f_lo > f_hi + 1e-300:
        t = (e - f_hi) / (f_lo - f_hi)
    else:
        t = 0.0
    t = min(max(t, 0.0), 1.0)
    sigma = t * np.outer(v_lo, v_lo.conj()) + (1.0 - t) * np.outer(v_hi, v_hi.conj())
    sigma = 0.5 * (sigma + sigma.conj().T)
    value = float(np.trace(g @ sigma).real)
    dual = top_hi + lam_hi * e
    return LinearMaxResult(sigma, value, max(dual - value, 0.0), lam_hi)


def _maybe_prune(channel: QuantumOperation) -> QuantumOperation:
    if channel.env_dim > channel.dim_in * channel.dim_out:
        return minimize_kraus(channel)
    return channel


def mutual_information_value(channel: KrausChannel, rho) -> float:
    """Fast in-optimizer evaluation of the mutual information (bits)."""
    return (
        entropy(rho)
        + entropy(apply(channel, rho))
        - entropy(environment_output(channel, rho))
    )


def _mi_gradient(channel: KrausChannel, rho_eps) -> np.ndarray:
    grad = (
        -hermitian_log2(rho_eps)
        - dual_apply(channel, hermitian_log2(apply(channel, rho_eps)))
        + dual_environment(channel, hermitian_log2(environment_output(channel, rho_eps)))
    )
    return 0.5 * (grad + grad.conj().T)


def _mi_segment(channel: KrausChannel, base, direction):
    """``t -> (f(t), f'(t))`` for the mutual information f along ``base + t * direction``.

    The input, output and environment states are affine in t, so both ends are
    mapped once and a point costs three eigendecompositions.
    """
    ends = [0.5 * (x + x.conj().T) for x in (base, direction)]
    ends = [(x, apply(channel, x), environment_output(channel, x)) for x in ends]

    def point(t):
        (s0, g0), (s1, g1), (s2, g2) = (_entropy_and_slope(b + t * d, d) for b, d in zip(*ends))
        return s0 + s1 - s2, g0 + g1 - g2

    return point


def _segment_max(point, tol):
    """Best ``(t, f(t))`` evaluated on [0, 1] for a concave f, ``point(t) = (f(t), f'(t))``.

    Illinois regula falsi on the slope until the bracket is within ``tol``; each
    step stays ``tol / 2`` inside it, and bisects when three steps did not halve it.
    """
    f0, s0 = point(0.0)
    if s0 <= 0.0:
        return 0.0, f0
    f1, s1 = point(1.0)
    if s1 >= 0.0:
        return 1.0, f1
    best, a, sa, b, sb = max((f0, 0.0), (f1, 1.0)), 0.0, s0, 1.0, s1
    side, widths = 0, []
    while b - a > tol and sb != 0.0:  # sb == 0: a step hit the root exactly
        bisect = len(widths) >= 3 and b - a > 0.5 * widths[-3]
        t = 0.5 * (a + b) if bisect else (a * sb - b * sa) / (sb - sa)
        t = min(max(t, a + 0.5 * tol), b - 0.5 * tol)
        widths.append(b - a)
        ft, st = point(t)
        best = max(best, (ft, t))
        if st > 0.0:  # Illinois: halve the slope of an end kept twice running
            a, sa, sb = t, st, sb * (0.5 if side > 0 else 1.0)
        else:
            b, sb, sa = t, st, sa * (0.5 if side < 0 else 1.0)
        side = 1 if st > 0.0 else -1
    return best[1], best[0]


def _feasible_from(rho, constraint: EnergyConstraint) -> np.ndarray:
    """Project a state into the feasible set by mixing toward least energy."""
    if constraint.is_feasible(rho, slack=0.0):
        return rho
    w, u = hermitian_eig(constraint.operator)
    ground = np.outer(u[:, -1], u[:, -1].conj())  # least-energy eigenvector
    f_rho = constraint.energy(rho)
    f_min = float(w[-1])
    t = (f_rho - constraint.bound) / (f_rho - f_min)
    t = min(max(t, 0.0), 1.0)
    mixed = (1.0 - t) * rho + t * ground
    return 0.5 * (mixed + mixed.conj().T)


def _combine(atoms, weights):
    rho = sum(w * a for w, a in zip(weights, atoms))
    return 0.5 * (rho + rho.conj().T)


def _frank_wolfe(channel, constraint, rho0, opts: OptimizerOptions):
    """Conditional-gradient ascent with a corrective pairwise weight polish.

    The iterate is kept as a convex combination of oracle atoms (each
    feasible, so every iterate is feasible).  After the classic step toward
    the new atom, mass is shuttled between existing atoms along the gradient,
    which removes the zigzag stall of the plain method while leaving the
    duality-gap certificate untouched.  Line searches map a segment's ends once
    (:func:`_mi_segment`) and root-find the directional derivative ``Tr(grad f . Delta)``
    (:func:`_segment_max`), which returns the best point evaluated, t = 0
    included.  One ``(objective, energy)`` record per completed iteration is
    returned as the trace.
    """
    d = channel.dim_in
    eye = np.eye(d, dtype=complex) / d
    atoms = [rho0]
    weights = [1.0]
    rho = rho0
    best_val = mutual_information_value(channel, rho)
    best_rho = rho
    best_upper = math.inf
    iterations = 0
    stall = 0
    trace = []

    def line_search(base, direction, span, tol=opts.line_search_tol):
        t, val = _segment_max(_mi_segment(channel, base, span * direction), tol)
        return t * span, val

    for k in range(opts.max_iterations):
        iterations = k + 1
        rho_eps = (1.0 - opts.epsilon) * rho + opts.epsilon * eye
        grad = _mi_gradient(channel, rho_eps)
        lin = feasible_linear_max(grad, constraint)
        anchor = mutual_information_value(channel, rho_eps)
        ascent = lin.value + lin.gap - float(np.trace(grad @ rho_eps).real)
        best_upper = min(best_upper, anchor + max(ascent, 0.0))
        if best_upper - best_val <= opts.gap_tolerance:
            break

        # classic step: mix the whole iterate toward the oracle atom
        step, cur = line_search(rho, lin.state - rho, 1.0)
        weights = [w * (1.0 - step) for w in weights]
        atoms.append(lin.state)
        weights.append(step)
        rho = _combine(atoms, weights)

        # corrective polish: shuttle weight from the worst atom to the best
        for _ in range(_POLISH_STEPS):
            grad_p = _mi_gradient(channel, (1.0 - opts.epsilon) * rho + opts.epsilon * eye)
            scores = [float(np.trace(grad_p @ a).real) for a in atoms]
            active = [i for i, w in enumerate(weights) if w > 1e-15]
            i_to = max(range(len(atoms)), key=lambda i: scores[i])
            i_from = min(active, key=lambda i: scores[i])
            if scores[i_to] - scores[i_from] <= 1e-13:
                break
            shift, shift_val = line_search(
                rho, atoms[i_to] - atoms[i_from], weights[i_from], tol=1e-6
            )
            if shift <= 0.0 or shift_val <= cur:
                break
            weights[i_from] -= shift
            weights[i_to] += shift
            rho = _combine(atoms, weights)
            cur = shift_val

        keep = [i for i, w in enumerate(weights) if w > 1e-15]
        atoms = [atoms[i] for i in keep]
        weights = [weights[i] for i in keep]
        total = sum(weights)
        weights = [w / total for w in weights]
        rho = _combine(atoms, weights)

        cur = mutual_information_value(channel, rho)
        trace.append((cur, constraint.energy(rho)))
        if cur > best_val + 1e-15:
            best_val, best_rho = cur, rho
            stall = 0
        else:
            stall += 1
            if stall >= 8:
                break
    return best_val, best_rho, best_upper, iterations, tuple(trace)


def cea_capacity(channel: KrausChannel, constraint: EnergyConstraint, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Certified entanglement-assisted value: sup of mutual information.

    Frank-Wolfe ascent on the concave objective, so from one start, with
    the gradient evaluated at the boundary-regularized iterate; the returned
    bracket is ``[value, value + gap]`` and is sound regardless of
    convergence.  A non-converged run returns the last certified bracket
    with ``converged=False`` rather than raising.
    """
    opts = opts or OptimizerOptions()
    if not isinstance(channel, KrausChannel):
        raise ValidationError("capacity optimization requires a trace-preserving channel")
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel = _maybe_prune(channel)
    t0 = time.perf_counter()

    start = _feasible_from(np.eye(channel.dim_in, dtype=complex) / channel.dim_in, constraint)
    best_val, best_rho, upper, iterations, trace = _frank_wolfe(channel, constraint, start, opts)
    gap = max(upper - best_val, 0.0)

    if not constraint.is_feasible(best_rho):
        raise ValidationError("optimizer left the feasible set")  # guards the certificate
    return CapacityResult(
        value=best_val,
        optimizer=assert_density_operator(best_rho),
        gap=gap,
        heuristic=False,
        iterations=iterations,
        wall_time=time.perf_counter() - t0,
        converged=gap <= opts.gap_tolerance,
        trace=trace,
    )


def _capped_relent(a, b) -> float:
    v = relative_entropy(a, b)
    if math.isinf(v):
        return _RELENT_CAP_BITS
    return min(v, _RELENT_CAP_BITS)


def _retilt(weights, energies, bound):
    """Gibbs re-tilt of weights (bisection on the rate) to restore feasibility."""
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    w = w / w.sum()
    f = np.asarray(energies, dtype=float)
    if float(w @ f) <= bound + 1e-12:
        return w
    if float(f.min()) > bound + 1e-12:
        raise ValidationError("no re-tilt can restore feasibility")

    def mean_energy(beta):
        logits = -beta * (f - f.min())
        p = w * np.exp(logits)
        p = p / p.sum()
        return float(p @ f), p

    beta_lo, beta_hi = 0.0, 1.0
    for _ in range(200):
        val, _ = mean_energy(beta_hi)
        if val <= bound:
            break
        beta_lo = beta_hi
        beta_hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (beta_lo + beta_hi)
        val, _ = mean_energy(mid)
        if val <= bound:
            beta_hi = mid
        else:
            beta_lo = mid
    _, p = mean_energy(beta_hi)
    return p


def _pure_chi(channel, weights, vectors):
    """chi of a pure-state ensemble through a channel, entropy-difference form."""
    avg = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for p, v in zip(weights, vectors):
        avg += p * np.outer(v, v.conj())
    avg = 0.5 * (avg + avg.conj().T)
    out_avg = apply(channel, avg)
    member_term = 0.0
    for p, v in zip(weights, vectors):
        if p <= 0.0:
            continue
        member_term += p * entropy(apply(channel, np.outer(v, v.conj())))
    return entropy(out_avg) - member_term


def chi_capacity(
    channel: KrausChannel,
    constraint: EnergyConstraint,
    members: int | None = None,
    opts: OptimizerOptions | None = None,
) -> CapacityResult:
    """Heuristic lower bound on the constrained chi value.

    Alternates a Blahut-Arimoto style weight update (with a Gibbs re-tilt to
    keep the average state feasible) with projected gradient steps on the
    pure members; multi-start, merged by best value.  No optimality claim.
    """
    opts = opts or OptimizerOptions(restarts=3, max_iterations=160)
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel = _maybe_prune(channel)
    d = channel.dim_in
    m = int(members) if members is not None else d * d
    if m < 1:
        raise ValidationError("ensemble size must be positive")
    t0 = time.perf_counter()
    fw, fu = hermitian_eig(constraint.operator)
    ground = fu[:, -1]

    def run(restart: int):
        rng = np.random.default_rng(opts.seed + restart)
        vectors = []
        if restart == 0:
            for k in range(min(m, d)):
                e = np.zeros(d, dtype=complex)
                e[k] = 1.0
                vectors.append(e)
        while len(vectors) < m:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vectors.append(v / np.linalg.norm(v))
        energies = np.array([float(np.vdot(v, constraint.operator @ v).real) for v in vectors])
        if energies.min() > constraint.bound:
            vectors[-1] = ground.copy()
            energies[-1] = float(fw[-1])
        weights = _retilt(np.full(m, 1.0 / m), energies, constraint.bound)

        best = _pure_chi(channel, weights, vectors)
        best_state = (weights.copy(), [v.copy() for v in vectors])
        step = 0.25
        for _ in range(opts.max_iterations):
            # (a) weight update toward the exponential-tilt fixed point
            avg = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vectors))
            out_avg = apply(channel, 0.5 * (avg + avg.conj().T))
            scores = np.array(
                [
                    _capped_relent(apply(channel, np.outer(v, v.conj())), out_avg)
                    for v in vectors
                ]
            )
            weights = weights * np.exp2(scores - scores.max())
            weights = np.clip(weights, 1e-300, None)
            weights = weights / weights.sum()
            weights = _retilt(weights, energies, constraint.bound)

            # (b) projected gradient step on the member states
            avg = sum(p * np.outer(v, v.conj()) for p, v in zip(weights, vectors))
            log_avg = hermitian_log2(apply(channel, 0.5 * (avg + avg.conj().T)))
            candidates = []
            for p, v in zip(weights, vectors):
                if p <= 1e-14:
                    candidates.append(v)
                    continue
                log_out = hermitian_log2(apply(channel, np.outer(v, v.conj())))
                grad_mat = dual_apply(channel, log_out - log_avg)
                y = grad_mat @ v
                y = y - np.vdot(v, y) * v
                cand = v + step * y
                candidates.append(cand / np.linalg.norm(cand))
            cand_energies = np.array(
                [float(np.vdot(v, constraint.operator @ v).real) for v in candidates]
            )
            if cand_energies.min() <= constraint.bound:
                cand_weights = _retilt(weights, cand_energies, constraint.bound)
                gain = _pure_chi(channel, cand_weights, candidates)
                if gain >= best - 1e-12:
                    vectors = candidates
                    energies = cand_energies
                    weights = cand_weights
                    step = min(step * 1.25, 4.0)
                else:
                    step = max(step * 0.5, 1e-4)
            else:
                step = max(step * 0.5, 1e-4)
            cur = _pure_chi(channel, weights, vectors)
            if cur > best:
                best = cur
                best_state = (weights.copy(), [v.copy() for v in vectors])
        return best, best_state

    outcomes = []
    for r in range(max(1, opts.restarts)):
        val, state = run(r)
        outcomes.append((val, r, state))
    best_val, _, (weights, vectors) = max(outcomes, key=lambda o: (o[0], -o[1]))

    mu = Ensemble(
        weights,
        tuple(np.outer(v, v.conj()) for v in vectors),
    )
    avg = mu.barycenter()
    if not constraint.is_feasible(avg):
        raise ValidationError("heuristic ensemble left the feasible set")
    value = chi_through(channel, mu)
    return CapacityResult(
        value=value,
        optimizer=mu,
        gap=None,
        heuristic=True,
        iterations=opts.max_iterations * max(1, opts.restarts),
        wall_time=time.perf_counter() - t0,
        converged=True,
    )


def chi_at_state(
    channel: KrausChannel,
    rho,
    members: int | None = None,
    opts: OptimizerOptions | None = None,
) -> CapacityResult:
    """Heuristic chi value at a fixed average state.

    Minimizes the mean output entropy over pure decompositions of ``rho``;
    decompositions are parametrized by isometries acting on the canonical
    purification, searched by Riemannian gradient descent with restarts.
    """
    opts = opts or OptimizerOptions(restarts=3, max_iterations=160)
    rho = assert_density_operator(rho)
    if rho.shape[0] != channel.dim_in:
        raise ValidationError("state dimension does not match channel input")
    channel = _maybe_prune(channel)
    w, u = hermitian_eig(rho)
    rank = int((w > 1e-12).sum())
    m = int(members) if members is not None else max(rank * rank, rank)
    if m < rank:
        raise ValidationError(f"decomposition size {m} below state rank {rank}")
    t0 = time.perf_counter()
    root = u[:, :rank] * np.sqrt(np.clip(w[:rank], 0.0, None))  # rho = root root†

    def objective(stiefel):
        x = stiefel @ root.T  # rows are subnormalized member vectors
        total = 0.0
        for i in range(m):
            sig = apply(channel, np.outer(x[i], x[i].conj()))
            total += entropy(sig)
        return total, x

    def gradient(stiefel, x):
        rows = []
        for i in range(m):
            xi = x[i]
            tr = float(np.vdot(xi, xi).real)
            if tr <= 1e-14:
                rows.append(np.zeros_like(xi))
                continue
            sig = apply(channel, np.outer(xi, xi.conj()))
            mat = dual_apply(channel, -hermitian_log2(sig) + math.log2(tr) * np.eye(channel.dim_out))
            rows.append(mat @ xi)
        y = np.stack(rows, axis=0)  # d(objective)/d(conj X)
        g = y @ root.conj()
        sym = stiefel.conj().T @ g
        return g - stiefel @ (0.5 * (sym + sym.conj().T))

    def run(restart: int):
        if restart == 0 and m >= rank:
            stiefel = np.zeros((m, rank), dtype=complex)
            stiefel[:rank, :rank] = np.eye(rank)
        else:
            stiefel = sample_isometry(rank, m, seed=opts.seed + restart)
        val, x = objective(stiefel)
        step, taken = 0.5, 0
        for _ in range(opts.max_iterations):
            g = gradient(stiefel, x)
            if float(np.abs(g).max()) < 1e-12:
                break
            taken += 1
            cand = stiefel - step * g
            q, r = np.linalg.qr(cand)
            diag = np.diagonal(r)
            q = q * (diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))).conj()
            cand_val, cand_x = objective(q)
            if cand_val < val - 1e-14:
                stiefel, val, x = q, cand_val, cand_x
                step = min(step * 1.25, 4.0)
            else:
                step *= 0.5
                if step < 1e-8:
                    break
        return val, x, taken

    outcomes = [(*run(r), r) for r in range(max(1, opts.restarts))]
    best_hull, x, _, _ = min(outcomes, key=lambda o: (o[0], o[3]))

    weights = np.array([float(np.vdot(row, row).real) for row in x])
    keep = weights > 1e-12
    weights = weights[keep]
    weights = weights / weights.sum()
    states = tuple(
        np.outer(row / np.linalg.norm(row), (row / np.linalg.norm(row)).conj())
        for row in x[keep]
    )
    mu = Ensemble(weights, states)
    value = entropy(apply(channel, rho)) - best_hull
    return CapacityResult(
        value=value,
        optimizer=mu,
        gap=None,
        heuristic=True,
        iterations=sum(o[2] for o in outcomes),
        wall_time=time.perf_counter() - t0,
        converged=True,
    )


def check_prop1(
    channel: KrausChannel,
    constraint: EnergyConstraint,
    opts: OptimizerOptions | None = None,
    tolerance: float = 1e-6,
) -> dict:
    """Margin of the inequality C_ea >= 2 chi-value - chi-value(complement).

    The chi values are heuristic lower bounds, so a negative margin is
    reported as inconclusive rather than as a violation.
    """
    cea = cea_capacity(channel, constraint, opts)
    chi = chi_capacity(channel, constraint, opts=opts)
    chi_comp = chi_capacity(complementary(_maybe_prune(channel)), constraint, opts=opts)
    margin = cea.value - (2.0 * chi.value - chi_comp.value)
    return {
        "margin": margin,
        "cea_value": cea.value,
        "cea_gap": cea.gap,
        "chi_value": chi.value,
        "chi_complement_value": chi_comp.value,
        "status": "satisfied" if margin >= -tolerance else "inconclusive",
    }


def coincidence_certificate(
    channel: KrausChannel,
    constraint: EnergyConstraint,
    opts: OptimizerOptions | None = None,
    support_tol: float = 1e-10,
) -> dict:
    """Numerical evidence for the coincidence criterion.

    Runs the heuristic chi optimizer, restricts the channel to the support
    of the optimal average state, and reports the classical-quantum verdict
    of the restriction together with the capacity-gap estimate.  Evidence,
    not proof: the chi side carries no certificate.
    """
    chi = chi_capacity(channel, constraint, opts=opts)
    avg = chi.optimizer.barycenter()
    w, u = hermitian_eig(avg)
    mask = w > support_tol
    basis = u[:, mask]
    sub = restrict(channel, basis)
    verdict = is_cq_discrete(sub)
    cea = cea_capacity(channel, constraint, opts)
    return {
        "gap_estimate": cea.value - chi.value,
        "cea_value": cea.value,
        "cea_gap": cea.gap,
        "chi_value": chi.value,
        "cq_discrete": bool(verdict.is_discrete),
        "max_commutator": verdict.max_commutator,
        "barycenter_rank": int(mask.sum()),
    }


def truncation_convergence(
    channel: KrausChannel,
    constraint: EnergyConstraint,
    ranks,
    tau,
    ordering=None,
    opts: OptimizerOptions | None = None,
) -> dict:
    """Certified capacity brackets of output-truncated channels per rank."""
    rows = []
    for n in ranks:
        trunc = minimize_kraus(truncate(channel, int(n), tau, ordering))
        res = cea_capacity(trunc, constraint, opts)
        rows.append(
            {
                "rank": int(n),
                "value": res.value,
                "gap": res.gap,
                "converged": res.converged,
            }
        )
    full = cea_capacity(channel, constraint, opts)
    return {
        "rows": rows,
        "full": {"value": full.value, "gap": full.gap, "converged": full.converged},
    }


def additivity_probe(
    channel: KrausChannel,
    constraint: EnergyConstraint,
    opts: OptimizerOptions | None = None,
) -> dict:
    """Two-copy check: certified value of the doubled problem vs twice the single."""
    if channel.dim_in**2 > 36 or channel.dim_out**2 > 36:
        raise ResourceLimitError("two-copy problem too large for the dense optimizer")
    single = cea_capacity(channel, constraint, opts)
    doubled_channel = _maybe_prune(tensor_channel(channel, channel))
    doubled = cea_capacity(doubled_channel, constraint_tensor(constraint, 2), opts)
    combined_gap = 2.0 * single.gap + doubled.gap
    difference = doubled.value - 2.0 * single.value
    return {
        "single_value": single.value,
        "single_gap": single.gap,
        "double_value": doubled.value,
        "double_gap": doubled.gap,
        "difference": difference,
        "combined_gap": combined_gap,
        "additive_within_gaps": bool(abs(difference) <= combined_gap + 1e-12),
    }
