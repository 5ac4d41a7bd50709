"""Constrained capacity computation and certified/heuristic optimizers.

The entanglement-assisted value is the supremum of the mutual information
over the spectrahedron slice ``{rho >= 0, Tr rho = 1, Tr rho F <= E}``.  The
objective is concave and smooth relative to the von Neumann entropy with
L = 2, so a Bregman-proximal (mirror, Blahut-Arimoto) step of size 1/2 never
lowers it and keeps the iterate feasible: the best iterate is a lower bound.
At each iterate an exact linear maximization oracle bounds the optimum from
above, which certifies the bracket (see :func:`cea_capacity`).  The chi
optimizers are multi-start local searches; their results are flagged
heuristic lower bounds.
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
from .entropy import Ensemble, _member_terms, _rowdot, _spectra, _spectrum_entropy, chi_through, entropy
from .errors import ResourceLimitError, ValidationError
from .linalg import (
    LN2,
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

# Cap on the mirror-ascent step eta, which first tries twice the last accepted step: with eta = 1/2
# alone the rank-2 truncation of the cq qutrit took 195 iterations (its useless input decays slowly).
_MAX_STEP = 64.0

# A chi restart stops once its best value gains at most 1e-12 over this many iterations.
_CHI_STALL_STEPS = 20


@dataclass(frozen=True)
class EnergyConstraint:
    """Linear input constraint Tr rho F <= E for a positive Hermitian F."""

    operator: np.ndarray
    bound: float

    def __post_init__(self):
        f = assert_hermitian(self.operator, name="constraint operator")
        f = 0.5 * (f + f.conj().T)  # stored exactly Hermitian: the solvers use unchecked eigensolvers
        w = np.linalg.eigvalsh(f)
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
    """Optimizer settings.

    ``restarts`` and ``seed`` apply only to the heuristic chi optimizers.
    ``line_search_tol`` is validated but has no effect: the certified solver
    has no line search.  It stays so that existing callers keep working.
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
    mirror-ascent iteration of a certified run.
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


def _cluster_width(g_w):
    """How far below the top eigenvalue an eigenvalue still counts as tied with it."""
    return 1e-10 * max(1.0, float(np.abs(g_w).max()))


def _min_energy_vector(g_w, g_u, f):
    """Least-energy unit vector inside the top eigenspace of a Hermitian matrix (eigenvalues descending)."""
    mask = g_w >= g_w[0] - _cluster_width(g_w)
    if mask.sum() == 1:
        v = g_u[:, 0]
        return v, float(np.vdot(v, f @ v).real)
    block = g_u[:, mask]
    fb = block.conj().T @ f @ block
    fw, fu = np.linalg.eigh(0.5 * (fb + fb.conj().T))
    v = block @ fu[:, 0]
    return v / np.linalg.norm(v), float(fw[0])


def feasible_linear_max(g, constraint: EnergyConstraint) -> LinearMaxResult:
    """Maximize Tr(G sigma) over feasible states, certified to ~1e-10.

    Lagrangian search on the multiplier: the maximizer of ``G - lam F``
    over states is its top eigenvector; the feasible optimum is either the
    unconstrained one or a two-point mixture at the active breakpoint, and
    complementary slackness bounds the optimality gap.  The search probes
    where the lines ``<v|G - lam F|v>`` of the bracket ends' vectors meet
    (tangents of the convex ``lam_max(G - lam F)``), or come within the tie
    width of :func:`_min_energy_vector`; that finds the breakpoint in a few
    eigensolves when the top eigenvector switches there.  Midpoints guard
    the search, which ends at adjacent floats like a bisection.
    """
    f, e = constraint.operator, constraint.bound
    g = assert_hermitian(g, tol=1e-8, name="objective")
    if g.shape != f.shape:
        raise ValidationError("objective and constraint dims differ")
    g = 0.5 * (g + g.conj().T)  # with F stored Hermitian, every g - lam F is exactly Hermitian
    slack = 1e-12 * max(1.0, abs(e))

    def probe(lam):
        w, u = np.linalg.eigh(g - lam * f)
        w, u = w[::-1], u[:, ::-1]
        v, fval = _min_energy_vector(w, u, f)
        return v, fval, float(w[0]), float(np.vdot(v, g @ v).real), _cluster_width(w)

    v0, f0, top0, c0, _ = probe(0.0)
    if f0 <= e + slack:
        return LinearMaxResult(np.outer(v0, v0.conj()), c0, max(top0 - c0, 0.0), 0.0)

    # Double the multiplier from 1 (up to 2^127) until feasible.  A probe's vector v has the line
    # <v|g - lam F|v> = c - lam f, a tangent of lam_max(g - lam F) unless v was picked from a tie.  Probe
    # where the lines of lam_lo and lam_hi meet (a kink); if that is at or above lam_hi, the least feasible
    # multiplier is where lam_lo's line comes within lam_hi's tie width.  A midpoint follows a probe that
    # did not halve the bracket.  Once the target lies at an end to within its rounding, step from the last
    # probe by 1, 8, 64, ... times that rounding, never past the midpoint, to adjacent floats.  "Feasible"
    # shrinks lam_hi, so ties go to the smaller multiplier.
    lam_lo, v_lo, f_lo, c_lo, lam_hi, v_hi = 0.0, v0, f0, c0, 2.0**128, None
    step, feasible, width = 0.0, False, math.inf
    while True:
        mid = 0.5 * (lam_lo + lam_hi)
        if v_hi is None:
            t = max(2.0 * lam_lo, 1.0)
        elif not step:
            slope = f_lo - f_hi  # > 0: lam_lo is infeasible, lam_hi feasible
            t = (c_lo - c_hi) / slope
            rounding = float(np.finfo(float).eps) * (abs(c_lo) + abs(c_hi) + lam_hi * (f_lo + f_hi)) / slope
            if t > lam_hi - rounding:
                t -= tie_hi / slope
            if not lam_lo + rounding < t < lam_hi - rounding:
                step = max(float(np.spacing(lam_hi)), rounding)
            elif lam_hi - lam_lo > 0.5 * width:
                t = mid
            width = lam_hi - lam_lo
        if step:
            t = max(lam_hi - step, mid) if feasible else min(lam_lo + step, mid)
            step *= 8.0
        if v_hi is not None and not lam_lo < t < lam_hi:
            t = mid
        if not lam_lo < t < lam_hi:
            break
        v, fval, top, c, tie = probe(t)
        feasible = fval <= e + slack
        if feasible:
            lam_hi, v_hi, f_hi, top_hi, c_hi, tie_hi = t, v, fval, top, c, tie
        else:
            lam_lo, v_lo, f_lo, c_lo = t, v, fval, c
    if v_hi is None:
        raise ValidationError("constraint bound unreachable by Lagrangian sweep")

    t = min(max((e - f_hi) / (f_lo - f_hi), 0.0), 1.0)  # f_lo > e + slack >= f_hi
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


def _mi_gradient(channel: KrausChannel, rho, log2_rho=None) -> np.ndarray:
    """Gradient of the mutual information in bits; ``log2_rho`` replaces the floored ``log2 rho``."""
    grad = (
        -(hermitian_log2(rho) if log2_rho is None else log2_rho)
        - dual_apply(channel, hermitian_log2(apply(channel, rho)))
        + dual_environment(channel, hermitian_log2(environment_output(channel, rho)))
    )
    return 0.5 * (grad + grad.conj().T)


def _gibbs_tilt(h, constraint: EnergyConstraint, levels):
    """``rho = exp(h - beta F) / Z`` at the least beta >= 0 with ``Tr rho F <= E``, and its exact log.

    ``levels``: F's eigenvalues, ascending.  The energy's beta-slope is minus the Kubo-Mori variance
    ``sum_ij |F_ij|^2 L(p_i, p_j) - mean^2`` in the eigenbasis of ``h - beta F`` (L: logarithmic mean).
    A bound at the least level holds only as beta -> inf, where the energy is that level to rounding,
    so the search aims up to rounding above it; with F = c I that makes every state feasible."""
    f = constraint.operator
    rounding = 4.0 * np.finfo(float).eps * len(levels) * float(np.abs(levels).max())
    target = max(constraint.bound, levels[0] + rounding)

    def tilt(beta):
        w, u = np.linalg.eigh(h - beta * f)
        p = np.exp(w - w[-1])
        z = p.sum()
        p = p / z
        fu = u.conj().T @ f @ u
        mean = float(p @ fu.diagonal().real)
        gap = np.abs(w[:, None] - w[None, :])  # L(p_i, p_j) = max(p_i, p_j) (1 - exp(-gap)) / gap
        shrink = np.where(gap > 0.0, -np.expm1(-gap) / np.maximum(gap, 1e-300), 1.0)
        variance = float((np.abs(fu) ** 2 * np.maximum(p[:, None], p[None, :]) * shrink).sum()) - mean * mean
        return (beta, w[-1] + math.log(z), u, p), mean - target, -variance

    beta, log_z, u, p = _least_feasible_rate(tilt, 2.0 * rounding)
    rho = (u * p) @ u.conj().T
    return 0.5 * (rho + rho.conj().T), h - beta * f - log_z * np.eye(len(p))


def cea_capacity(channel: KrausChannel, constraint: EnergyConstraint, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Certified entanglement-assisted value: sup of mutual information.

    *Step.*  The iterate is kept as its log ``H = ln rho``, from the Gibbs state of F at the bound E
    (the maximum-entropy feasible state).  A step is ``rho+ ~ exp(H + eta ln2 grad I(rho) - beta F)``
    (grad in bits) at the least beta >= 0 with ``Tr rho+ F <= E`` (:func:`_gibbs_tilt`).
    *Ascent.*  Each entropy obeys ``S(X) = S(X0) + <grad S(X0), X - X0> - D(X || X0)``; the
    environment term has the favourable sign and ``D(Phi rho || Phi rho0) <= D(rho || rho0)``, so
    ``I(rho) >= I(rho0) + <grad I(rho0), rho - rho0> - 2 D(rho || rho0)`` (nats).  eta = 1/2 maximizes
    this minorant over the feasible set exactly and never lowers the value; each step first tries
    twice the last eta, up to ``_MAX_STEP``, and halves it while the value drops.
    *Certificate.*  By concavity ``I(rho_eps) + max_feasible <grad I(rho_eps), sigma - rho_eps>``, with
    ``rho_eps = (1 - eps) rho + eps I/d`` and the max from :func:`feasible_linear_max`, bounds the
    optimum.  The run stops once the least such bound is within ``gap_tolerance`` of the best iterate.
    The bracket ``[value, value + gap]`` is sound regardless of convergence; a non-converged run
    returns it with ``converged=False`` rather than raising.  ``trace`` has one ``(objective,
    energy)`` record per completed iteration.
    """
    opts = opts or OptimizerOptions()
    if not isinstance(channel, KrausChannel):
        raise ValidationError("capacity optimization requires a trace-preserving channel")
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel = _maybe_prune(channel)
    t0 = time.perf_counter()
    d = channel.dim_in
    levels = np.linalg.eigvalsh(constraint.operator)
    rho, log_rho = _gibbs_tilt(np.zeros((d, d), dtype=complex), constraint, levels)
    cur = mutual_information_value(channel, rho)
    best_val, best_rho, upper, eta, trace = cur, rho, math.inf, 0.5, []

    for iterations in range(1, opts.max_iterations + 1):
        rho_eps = (1.0 - opts.epsilon) * rho + opts.epsilon * np.eye(d) / d
        grad = _mi_gradient(channel, rho_eps)
        lin = feasible_linear_max(grad, constraint)
        ascent = lin.value + lin.gap - float(np.trace(grad @ rho_eps).real)
        upper = min(upper, mutual_information_value(channel, rho_eps) + max(ascent, 0.0))
        if upper - best_val <= opts.gap_tolerance:
            break
        step = LN2 * _mi_gradient(channel, rho, log_rho / LN2)  # nats, with the exact ln rho
        eta = min(2.0 * eta, _MAX_STEP)
        while True:
            cand_rho, cand_log = _gibbs_tilt(log_rho + eta * step, constraint, levels)
            cand = mutual_information_value(channel, cand_rho)
            if cand >= cur or eta <= 0.5:
                break
            eta *= 0.5
        rho, log_rho, cur = cand_rho, cand_log, cand
        trace.append((cur, constraint.energy(rho)))
        if cur > best_val:
            best_val, best_rho = cur, rho

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
        trace=tuple(trace),
    )


def _least_feasible_rate(tilt, rounding: float, start: float = 0.0):
    """Least rate beta >= 0 at which ``tilt(beta) -> (state, excess, slope)`` has ``excess <= 0``.

    The excess falls in beta with derivative ``slope``.  Newton steps from ``start`` inside the bracket
    of infeasible and feasible rates; a step after two landings on one side is doubled, so both ends
    close in.  A ``start`` above 0 requires beta = 0 to be infeasible; from a feasible start the
    bracket closes from above.  Stops at a feasible rate whose excess is zero to ``rounding``, or at
    adjacent-float bracket ends, and returns the state at the feasible end.  A non-finite excess
    raises a ValidationError.
    """
    lo, hi, state_hi, beta, same_side = 0.0, math.inf, None, start, False
    state, excess, slope = tilt(beta)
    while True:
        if not math.isfinite(excess):
            raise ValidationError("energy search met a non-finite mean energy")
        if excess > 0.0:
            lo = beta
        else:
            hi, state_hi = beta, state
            if excess >= -rounding:
                break
        if not lo < (mid := 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0) < hi:
            break
        t = beta - (2.0 if same_side else 1.0) * excess / slope if slope < 0.0 else mid
        if not lo < t < hi:
            t = mid
        state, excess_t, slope = tilt(t)
        same_side, beta, excess = (excess_t <= 0.0) == (excess <= 0.0), t, excess_t
    return state if state_hi is None else state_hi


def _retilt(weights, energies, bound, start=None):
    """Gibbs re-tilt ``p ~ w exp(-beta f)`` at the least rate beta that makes the mean energy feasible.

    Given a ``start`` rate, the search begins there and ``(p, beta)`` is returned.  A ValidationError
    if the least energy on the support of ``weights`` exceeds the bound."""
    w = np.maximum(np.asarray(weights, dtype=float), 0.0)
    w = w / w.sum()
    f = np.asarray(energies, dtype=float)
    if float(w @ f) <= bound + 1e-12:
        return w if start is None else (w, 0.0)
    least = float(f[w > 0.0].min())  # the least energy the tilt can reach is the support's
    if least > bound + 1e-12:
        raise ValidationError("no re-tilt can restore feasibility")
    above = f - f.min()

    def tilt(beta):
        p = w * np.exp(-beta * above)
        p = p / p.sum()
        mean = float(p @ f)
        return (p, beta), mean - bound, -float(p @ (f - mean) ** 2)

    p, beta = _least_feasible_rate(tilt, 4.0 * np.finfo(float).eps * float(np.abs(f).max()), start or 0.0)
    return p if start is None else (p, beta)


def _pure_images(kraus, vectors):
    """Amplitudes ``A[..., i, :, k] = K_k v_i`` and images ``A_i A_i†`` of the pure states in the rows of
    ``vectors`` ``(..., m, d)``."""
    amps = np.einsum("kba,...ia->...ibk", kraus, vectors)
    return amps, amps @ amps.conj().swapaxes(-1, -2)


def _pure_chi(kraus, weights, vectors):
    """chi of pure-state ensembles ``(..., m)``, ``(..., m, d)`` through a channel, entropy-difference form."""
    images = _pure_images(kraus, vectors)[1]
    avg = np.einsum("...i,...ibc->...bc", weights, images)
    return _spectrum_entropy(_spectra(avg)) - _rowdot(weights, _spectrum_entropy(_spectra(images, "ensemble image")))


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
    The members of every running restart are the rows of one ``(restarts, m, d)``
    stack, so a step maps them with one einsum and diagonalizes all their
    images with one batched eigensolver call; the weight re-tilt runs per
    restart, and accept/reject masks update each restart's own step, best
    value and stall history, so each restart follows its sequential path.
    Each restart carries the rates of its last weight re-tilt and its last
    candidate re-tilt, and the next search of each kind starts there.
    A restart leaves the stack once its best value has gained at most 1e-12
    over ``_CHI_STALL_STEPS`` iterations, or after ``opts.max_iterations``.
    ``iterations`` sums the steps the restarts took; ``converged`` means the
    winning restart stopped on the stall test; ties go to the lower restart.
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
        return np.einsum("...ia,ab,...ib->...i", vectors.conj(), f_op, vectors).real

    def start(restart: int):
        rng = np.random.default_rng(opts.seed + restart)
        k0 = min(m, d) if restart == 0 else 0
        rows = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m - k0)]
        vecs = np.array([*np.eye(d, dtype=complex)[:k0], *(v / np.linalg.norm(v) for v in rows)])
        energies = energies_of(vecs)
        if energies.min() > bound:
            vecs[-1], energies[-1] = fu[:, -1], float(fw[-1])
        return vecs, energies, _retilt(np.full(m, 1.0 / m), energies, bound)

    # per running restart: members, energies, weights, best value and state, step, restart index
    vecs, energies, weights = (np.array(a) for a in zip(*map(start, range(opts.restarts))))
    best = _pure_chi(kraus, weights, vecs)
    best_w, best_v, step, ids = weights, vecs, np.full(opts.restarts, 0.25), np.arange(opts.restarts)
    history, outcomes, rate_a, rate_b = [best], [], np.zeros(opts.restarts), np.zeros(opts.restarts)
    for taken in range(1, opts.max_iterations + 1):
        # (a) weight update toward the exponential-tilt fixed point
        amps, images = _pure_images(kraus, vecs)
        avg = np.einsum("...i,...ibc->...bc", weights, images)
        scores, member_entropies, logs = _member_terms(images, avg, _RELENT_CAP_BITS)
        weights = np.clip(weights * np.exp2(scores - scores.max(axis=-1, keepdims=True)), 1e-300, None)
        tilted = [_retilt(w / w.sum(), e, bound, s) for w, e, s in zip(weights, energies, rate_a)]
        weights, rate_a = (np.array(a) for a in zip(*tilted))

        # (b) projected gradient step: y_i = sum_k K_k† (log2 img_i - log2 avg) K_k v_i
        avg = np.einsum("...i,...ibc->...bc", weights, images)
        q, v = _spectra(avg, "average image", vectors=True)
        y = np.einsum("kba,...ibk->...ia", kraus.conj(), (logs - _log2_from_eig(q, v)[:, None]) @ amps)
        y -= np.einsum("...ia,...ia->...i", vecs.conj(), y)[..., None] * vecs
        cand = vecs + step[:, None, None] * y
        cand = np.where(weights[..., None] > 1e-14, cand / np.linalg.norm(cand, axis=-1, keepdims=True), vecs)
        cand_energies = energies_of(cand)
        feasible = np.where(weights > 0.0, cand_energies, math.inf).min(axis=-1) <= bound
        cand_weights, gain = weights.copy(), np.full(len(ids), -math.inf)
        for r in np.flatnonzero(feasible):
            cand_weights[r], rate_b[r] = _retilt(weights[r], cand_energies[r], bound, rate_b[r])
        if feasible.any():
            gain[feasible] = _pure_chi(kraus, cand_weights[feasible], cand[feasible])
        accept = gain >= best - 1e-12
        cur = np.where(accept, gain, _spectrum_entropy(q) - _rowdot(weights, member_entropies))
        vecs = np.where(accept[:, None, None], cand, vecs)
        energies = np.where(accept[:, None], cand_energies, energies)
        weights = np.where(accept[:, None], cand_weights, weights)
        step = np.where(accept, np.minimum(step * 1.25, 4.0), np.maximum(step * 0.5, 1e-4))
        improved = cur > best
        best = np.where(improved, cur, best)
        best_w = np.where(improved[:, None], weights, best_w)
        best_v = np.where(improved[:, None, None], vecs, best_v)
        history = [*history[-_CHI_STALL_STEPS:], best]
        stalled = (best - history[0] <= 1e-12) & (taken >= _CHI_STALL_STEPS)
        done = stalled | (taken == opts.max_iterations)
        outcomes += [(best[i], (best_w[i], best_v[i]), taken, bool(stalled[i]), ids[i]) for i in np.flatnonzero(done)]
        if done.any():  # finished restarts leave the stack
            keep = ~done
            vecs, energies, weights, best, best_w, best_v, step, ids, rate_a, rate_b = (
                a[keep] for a in (vecs, energies, weights, best, best_w, best_v, step, ids, rate_a, rate_b)
            )
            history = [h[keep] for h in history]
            if not len(ids):
                break
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
