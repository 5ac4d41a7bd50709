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
from .entropy import Ensemble, _entropy_and_slope, _member_terms, _spectra, _spectrum_entropy, chi_through, entropy
from .errors import ResourceLimitError, ValidationError
from .linalg import (
    _log2_from_eig,
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

# A chi restart stops once its best value gains at most 1e-12 over this many iterations.
_CHI_STALL_STEPS = 20


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

    def __post_init__(self):
        for name, ok, rule in (
            ("max_iterations", self.max_iterations >= 1, ">= 1"),
            ("restarts", self.restarts >= 1, ">= 1"),
            ("seed", self.seed >= 0, ">= 0"),
            ("gap_tolerance", 0.0 <= self.gap_tolerance < math.inf, "finite and >= 0"),
            ("epsilon", 0.0 <= self.epsilon < 1.0, "in [0, 1)"),
            ("line_search_tol", 0.0 < self.line_search_tol < 1.0, "in (0, 1)"),
        ):
            if not ok:
                raise ValidationError(f"optimizer option {name} must be {rule}, got {getattr(self, name)!r}")


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


def _retilt(weights, energies, bound):
    """Gibbs re-tilt ``p ~ w exp(-beta f)`` at the least rate beta that makes the mean energy feasible.

    Newton steps from beta = 0 (the mean energy's slope is minus its variance) inside the bracket
    of infeasible and feasible rates; a step after two landings on one side is doubled, so both
    ends close in.  Stops at a feasible rate whose mean energy is the bound to rounding, or at
    adjacent-float bracket ends, and returns the weights at the feasible end.
    """
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    w = w / w.sum()
    f = np.asarray(energies, dtype=float)
    if float(w @ f) <= bound + 1e-12:
        return w
    if float(f.min()) > bound + 1e-12:
        raise ValidationError("no re-tilt can restore feasibility")
    rounding = 4.0 * np.finfo(float).eps * float(np.abs(f).max())

    def tilt(beta):
        p = w * np.exp(-beta * (f - f.min()))
        p = p / p.sum()
        mean = float(p @ f)
        return p, mean - bound, float(p @ (f - mean) ** 2)

    lo, hi, p_hi, beta, same_side = 0.0, math.inf, None, 0.0, False
    p, excess, var = tilt(beta)
    while lo < (mid := 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0) < hi:
        t = beta + (2.0 if same_side else 1.0) * excess / var if var > 0.0 else mid
        if not lo < t < hi:
            t = mid
        p, excess_t, var = tilt(t)
        same_side, beta, excess = (excess_t <= 0.0) == (excess <= 0.0), t, excess_t
        if excess > 0.0:
            lo = t
        else:
            hi, p_hi = t, p
            if excess >= -rounding:
                break
    return p if p_hi is None else p_hi


def _pure_images(kraus, vectors):
    """Amplitudes ``A[i, :, k] = K_k v_i`` and images ``A_i A_i†`` of the pure states in the rows of ``vectors``."""
    amps = np.einsum("kba,ia->ibk", kraus, vectors)
    return amps, amps @ amps.conj().swapaxes(-1, -2)


def _pure_chi(kraus, weights, vectors):
    """chi of a pure-state ensemble through a channel, entropy-difference form."""
    images = _pure_images(kraus, vectors)[1]
    avg = np.einsum("i,ibc->bc", weights, images)
    return entropy(avg) - float(weights @ _spectrum_entropy(_spectra(images, "ensemble image")))


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
    The members are the rows of one ``(m, d)`` array, so a step maps them
    with one einsum and diagonalizes their images with one batched
    eigensolver call.  A restart stops once its best value has gained at
    most 1e-12 over ``_CHI_STALL_STEPS`` iterations, or after
    ``opts.max_iterations``.  ``iterations`` sums the steps the restarts
    took; ``converged`` means the winning restart stopped on the stall test.
    """
    opts = opts or OptimizerOptions(restarts=3, max_iterations=160)
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel = _maybe_prune(channel)
    kraus, f_op, bound = channel.kraus_stack(), constraint.operator, constraint.bound
    d = channel.dim_in
    m = int(members) if members is not None else d * d
    if m < 1:
        raise ValidationError("ensemble size must be positive")
    t0 = time.perf_counter()
    fw, fu = hermitian_eig(f_op)

    def energies_of(vectors):
        return np.einsum("ia,ab,ib->i", vectors.conj(), f_op, vectors).real

    def run(restart: int):
        rng = np.random.default_rng(opts.seed + restart)
        k0 = min(m, d) if restart == 0 else 0
        rows = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m - k0)]
        vecs = np.array([*np.eye(d, dtype=complex)[:k0], *(v / np.linalg.norm(v) for v in rows)])
        energies = energies_of(vecs)
        if energies.min() > bound:
            vecs[-1], energies[-1] = fu[:, -1], float(fw[-1])
        weights = _retilt(np.full(m, 1.0 / m), energies, bound)

        best = _pure_chi(kraus, weights, vecs)
        best_state, history, step = (weights, vecs), [best], 0.25
        for taken in range(1, opts.max_iterations + 1):
            # (a) weight update toward the exponential-tilt fixed point
            amps, images = _pure_images(kraus, vecs)
            avg = np.einsum("i,ibc->bc", weights, images)
            scores, member_entropies, logs = _member_terms(images, avg, _RELENT_CAP_BITS)
            weights = np.clip(weights * np.exp2(scores - scores.max()), 1e-300, None)
            weights = _retilt(weights / weights.sum(), energies, bound)

            # (b) projected gradient step: y_i = sum_k K_k† (log2 img_i - log2 avg) K_k v_i
            avg = np.einsum("i,ibc->bc", weights, images)
            y = np.einsum("kba,ibk->ia", kraus.conj(), (logs - hermitian_log2(avg)) @ amps)
            y -= np.einsum("ia,ia->i", vecs.conj(), y)[:, None] * vecs
            cand = vecs + step * y
            cand = np.where(weights[:, None] > 1e-14, cand / np.linalg.norm(cand, axis=1, keepdims=True), vecs)
            cand_energies = energies_of(cand)
            gain = -math.inf
            if cand_energies.min() <= bound:
                cand_weights = _retilt(weights, cand_energies, bound)
                gain = _pure_chi(kraus, cand_weights, cand)
            if gain >= best - 1e-12:
                vecs, energies, weights, cur = cand, cand_energies, cand_weights, gain
                step = min(step * 1.25, 4.0)
            else:
                step = max(step * 0.5, 1e-4)
                cur = entropy(avg) - float(weights @ member_entropies)
            if cur > best:
                best, best_state = cur, (weights, vecs)
            history.append(best)
            if taken >= _CHI_STALL_STEPS and best - history[-1 - _CHI_STALL_STEPS] <= 1e-12:
                return best, best_state, taken, True
        return best, best_state, opts.max_iterations, False

    outcomes = [(*run(r), r) for r in range(opts.restarts)]
    _, (weights, vecs), _, converged, _ = max(outcomes, key=lambda o: (o[0], -o[4]))

    mu = Ensemble(weights, tuple(np.outer(v, v.conj()) for v in vecs))
    if not constraint.is_feasible(mu.barycenter()):
        raise ValidationError("heuristic ensemble left the feasible set")
    return CapacityResult(
        value=chi_through(channel, mu),
        optimizer=mu,
        gap=None,
        heuristic=True,
        iterations=sum(o[2] for o in outcomes),
        wall_time=time.perf_counter() - t0,
        converged=converged,
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
    ``iterations`` sums the steps the restarts took; ``converged`` means the
    winning restart stopped on the gradient test or the step-size floor.
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
    kraus = channel.kraus_stack()
    root = u[:, :rank] * np.sqrt(np.clip(w[:rank], 0.0, None))  # rho = root root†

    def objective(stiefel):
        x = stiefel @ root.T  # rows are subnormalized member vectors
        amps, images = _pure_images(kraus, x)
        p, u = _spectra(images, "member image", vectors=True)
        return float(_spectrum_entropy(p).sum()), (x, amps, p, u)

    def gradient(stiefel, state):
        x, amps, p, u = state
        tr = np.einsum("ia,ia->i", x.conj(), x).real
        logs = np.log2(np.where(tr > 1e-14, tr, 1.0))[:, None, None] * np.eye(channel.dim_out)
        y = np.einsum("kba,ibk->ia", kraus.conj(), (logs - _log2_from_eig(p, u)) @ amps)
        g = np.where(tr[:, None] > 1e-14, y, 0.0) @ root.conj()  # d(objective)/d(conj stiefel)
        sym = stiefel.conj().T @ g
        return g - stiefel @ (0.5 * (sym + sym.conj().T))

    def run(restart: int):
        if restart == 0 and m >= rank:
            stiefel = np.zeros((m, rank), dtype=complex)
            stiefel[:rank, :rank] = np.eye(rank)
        else:
            stiefel = sample_isometry(rank, m, seed=opts.seed + restart)
        val, state = objective(stiefel)
        step, taken, converged = 0.5, 0, False
        for _ in range(opts.max_iterations):
            g = gradient(stiefel, state)
            if float(np.abs(g).max()) < 1e-12:
                converged = True
                break
            taken += 1
            cand = stiefel - step * g
            q, r = np.linalg.qr(cand)
            diag = np.diagonal(r)
            q = q * (diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))).conj()
            cand_val, cand_state = objective(q)
            if cand_val < val - 1e-14:
                stiefel, val, state = q, cand_val, cand_state
                step = min(step * 1.25, 4.0)
            else:
                step *= 0.5
                if step < 1e-8:
                    converged = True
                    break
        return val, state[0], taken, converged

    outcomes = [(*run(r), r) for r in range(opts.restarts)]
    best_hull, x, _, converged, _ = min(outcomes, key=lambda o: (o[0], o[4]))

    weights = np.einsum("ia,ia->i", x.conj(), x).real
    keep = weights > 1e-12
    rows = x[keep] / np.sqrt(weights[keep])[:, None]
    mu = Ensemble(weights[keep] / weights[keep].sum(), tuple(np.outer(r, r.conj()) for r in rows))
    value = entropy(apply(channel, rho)) - best_hull
    return CapacityResult(
        value=value,
        optimizer=mu,
        gap=None,
        heuristic=True,
        iterations=sum(o[2] for o in outcomes),
        wall_time=time.perf_counter() - t0,
        converged=converged,
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
