"""Constrained capacity computation and certified/heuristic optimizers.

The entanglement-assisted value is the supremum of the mutual information
over the spectrahedron slice ``{rho >= 0, Tr rho = 1, Tr rho F <= E}``.  The
objective is concave and smooth relative to the von Neumann entropy with
L = 2, so a Bregman-proximal (mirror, Blahut-Arimoto) step of size 1/2 never
lowers it and keeps the iterate feasible: the best iterate is a lower bound.
At each iterate an exact linear maximization oracle bounds the optimum from
above, which certifies the bracket (see :func:`cea_capacity`).  The chi
optimizer, :func:`chi_capacity`, is a multi-start local search; its results are
flagged heuristic lower bounds.  It stops early, or returns F's Gibbs
eigen-ensemble at once, where a one-shot upper bound certifies its value within
``gap_tolerance``.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .channels import (
    KrausChannel,
    QuantumOperation,
    _output_and_environment,
    complementary,
    dual_apply,
    dual_environment,
    is_cq_discrete,
    minimize_kraus,
    restrict,
    tensor_channel,
    truncate,
)
from .entropy import Ensemble, _member_terms, _rowdot, _spectrum_entropy, chi_through, mutual_information
from .errors import _DENSE_ENTRIES, ResourceLimitError, ValidationError
from .linalg import (
    HERMITICITY_TOL,
    LN2,
    _as_matrix,
    _eig,
    _hermitian_part,
    _indices,
    _is_integer,
    _log2_from_eig,
    assert_density_operator,
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

# F's top level above which the solvers rescale (F, E): squared energies overflow from about 1.3e154.
_HUGE_LEVEL = 2.0**400


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class EnergyConstraint:
    """Linear input constraint Tr rho F <= E for a positive Hermitian F, stored exactly Hermitian for the solvers."""

    operator: np.ndarray
    bound: float

    def __post_init__(self):
        f = _hermitian_part(_as_matrix(self.operator), HERMITICITY_TOL, "constraint operator")
        w, u = np.linalg.eigh(f)
        if float(w.min()) < -1e-10:
            raise ValidationError(f"constraint operator not PSD: min eig {float(w.min()):.3e}")
        e = float(self.bound)
        if not 0.0 <= e < math.inf:
            raise ValidationError(f"constraint bound must be finite and nonnegative, got {e}")
        if float(w.min()) > e + 1e-12:
            raise ValidationError(f"infeasible constraint: min eig F = {float(w.min()):.6g} exceeds bound {e}")
        object.__setattr__(self, "operator", f)
        object.__setattr__(self, "bound", e)
        object.__setattr__(self, "_eigenpairs", (np.maximum(w, 0.0), u))  # levels ascending, clipped at 0

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def energy(self, rho) -> float:
        rho = _as_matrix(rho)
        if rho.shape != self.operator.shape:
            raise ValidationError(f"state shape {rho.shape} does not match the constraint dimension {self.dim}")
        return float(np.trace(rho @ self.operator).real)

    def is_feasible(self, rho, slack: float = FEASIBILITY_TOL) -> bool:
        return self.energy(rho) <= self.bound + slack


def constraint_tensor(constraint: EnergyConstraint, n: int) -> EnergyConstraint:
    """n-copy constraint (F(x)I...I + ... + I...I(x)F, n*E)."""
    if not _is_integer(n) or n < 1:
        raise ValidationError(f"copy count must be an integer >= 1, got {n!r}")
    n, d = int(n), constraint.dim
    if d ** (2 * min(n, 24)) > _DENSE_ENTRIES:  # exact, and past 24 copies any d >= 2 is over the limit anyway
        raise ResourceLimitError(f"{n} copies of a {d}-level constraint need {d}**{2 * n} dense entries, over the limit")
    total = np.zeros((d**n, d**n), dtype=complex)
    for j in range(n):
        factors = [np.eye(d, dtype=complex)] * n
        factors[j] = constraint.operator
        total += tensor(*factors)
    return EnergyConstraint(total, n * constraint.bound)


@dataclass(frozen=True)
class OptimizerOptions:
    """Optimizer settings.

    ``restarts`` and ``seed`` apply only to the heuristic chi optimizer.
    ``gap_tolerance`` ends a certified run once its bracket is that narrow, and
    a :func:`chi_capacity` run once its best value is that close to chi's upper
    bound.
    """

    max_iterations: int = 300
    gap_tolerance: float = 1e-5
    restarts: int = 1
    seed: int = 0
    epsilon: float = 1e-9

    def __post_init__(self):
        for name, ok, rule in (  # in order: the range rows only see numbers of the right kind
            ("max_iterations", _is_integer, "an integer"),
            ("restarts", _is_integer, "an integer"),
            ("seed", _is_integer, "an integer"),
            ("gap_tolerance", _is_real, "a real number"),
            ("epsilon", _is_real, "a real number"),
            ("max_iterations", lambda v: v >= 1, ">= 1"),
            ("restarts", lambda v: v >= 1, ">= 1"),
            ("seed", lambda v: v >= 0, ">= 0"),
            ("gap_tolerance", lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
            ("epsilon", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
        ):
            if not ok(getattr(self, name)):
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
        return math.inf if self.gap is None else self.value + self.gap


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

    Lagrangian search on the multiplier: the maximizer of ``G - lam F`` over states is its top eigenvector; the
    feasible optimum is either the unconstrained one or a two-point mixture at the active breakpoint, and
    complementary slackness bounds the optimality gap.  The search probes where the lines ``<v|G - lam F|v>`` of
    the bracket ends' vectors meet (tangents of the convex ``lam_max(G - lam F)``), or come within the tie width
    of :func:`_min_energy_vector`; that finds the breakpoint in a few eigensolves when the top eigenvector switches
    there.  Midpoints guard the search, which ends at adjacent floats like a bisection.  :func:`cea_capacity`'s
    certificate runs it from its last multiplier and stops once the gap is within ``0.01 gap_tolerance``.
    """
    g = _hermitian_part(_as_matrix(g), 1e-8, "objective")  # with F stored Hermitian, every g - lam F is too
    if g.shape != constraint.operator.shape:
        raise ValidationError("objective and constraint dims differ")
    return _linear_max(g, constraint, 0.0, 0.0)


def _linear_max(g, constraint: EnergyConstraint, stop: float, start: float) -> LinearMaxResult:
    """:func:`feasible_linear_max`'s search on a Hermitian ``g``, ended once the mixture's gap (its primal read from
    the ends' lines) is at most ``stop`` (0: at adjacent floats); the first multiplier after 0 is ``start`` (0: 1)."""
    f, e = constraint.operator, constraint.bound
    slack = 1e-12 * max(1.0, abs(e))

    def probe(lam):
        w, u = np.linalg.eigh(g - lam * f)
        w, u = w[::-1], u[:, ::-1]
        v, fval = _min_energy_vector(w, u, f)
        return v, fval, float(w[0]), float(np.vdot(v, g @ v).real), _cluster_width(w)

    v0, f0, top0, c0, _ = probe(0.0)
    if f0 <= e + slack:
        return LinearMaxResult(np.outer(v0, v0.conj()), c0, max(top0 - c0, 0.0), 0.0)

    # Double the multiplier from ``start`` or 1 (up to 2^127) until feasible.  A probe's vector v has the line
    # <v|g - lam F|v> = c - lam f, a tangent of lam_max(g - lam F) unless v was picked from a tie.  Probe where the
    # lines of lam_lo and lam_hi meet (a kink); if that is at or above lam_hi, the least feasible multiplier is
    # where lam_lo's line comes within lam_hi's tie width.  A midpoint follows a probe that did not halve the
    # bracket.  Once the target lies at an end to within its rounding, step from the last probe by 1, 8, 64, ...
    # times that rounding, never past the midpoint, to adjacent floats.  "Feasible" shrinks lam_hi, so ties go to
    # the smaller multiplier.  A mixture's gap bounds its loss (weak duality): one within ``stop`` ends the search.
    lam_lo, v_lo, f_lo, c_lo, lam_hi, v_hi = 0.0, v0, f0, c0, 2.0**128, None
    step, feasible, width = 0.0, False, math.inf
    while True:
        if stop and v_hi is not None:  # the primal of the ends' mixture at the bound, from their lines
            t = min(max((e - f_hi) / (f_lo - f_hi), 0.0), 1.0)
            if top_hi + lam_hi * e - (t * c_lo + (1.0 - t) * c_hi) <= stop:
                break
        mid = 0.5 * (lam_lo + lam_hi)
        if v_hi is None:
            t = start if start and not lam_lo else max(2.0 * lam_lo, 1.0)
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
    return LinearMaxResult(sigma, value, max(top_hi + lam_hi * e - value, 0.0), lam_hi)


def _rescaled(constraint: EnergyConstraint):
    """``(constraint, s)`` with F and E times a power of two s that brings F's top level below 1 where it exceeds
    ``_HUGE_LEVEL``, else the constraint itself and s = 1.  C_ea and chi are invariant under (F, E) -> (sF, sE)."""
    top = float(constraint._eigenpairs[0][-1])
    if top <= _HUGE_LEVEL:
        return constraint, 1.0
    s = math.ldexp(1.0, -math.frexp(top)[1])
    return EnergyConstraint(constraint.operator * s, constraint.bound * s), s


def _maybe_prune(channel: QuantumOperation) -> QuantumOperation:
    if channel.env_dim > channel.dim_in * channel.dim_out:
        return minimize_kraus(channel)
    return channel


def mutual_information_value(channel: KrausChannel, rho) -> float:
    """Mutual information (bits) of a channel at a state, by the entropies route of :func:`mutual_information`."""
    return mutual_information(rho, channel, route="entropies")


def _mi_spectra(channel: KrausChannel, rho, rho_w):
    """``(I(rho) in bits, spectra)`` given rho's spectrum ``rho_w``: eigenpairs of Phi(rho) and env from one K_e rho."""
    out, env = _output_and_environment(channel, rho)
    (w, u), (q, v) = _eig(out, "channel output"), _eig(env, "environment output")
    return float(_spectrum_entropy(rho_w) + _spectrum_entropy(w) - _spectrum_entropy(q)), ((w, u), (q, v))


def _mi_gradient_from(channel: KrausChannel, log2_rho, spectra) -> np.ndarray:
    """Gradient of the mutual information in bits at a state from its ``log2 rho`` and :func:`_mi_spectra`."""
    out, env = spectra
    grad = -log2_rho - dual_apply(channel, _log2_from_eig(*out)) + dual_environment(channel, _log2_from_eig(*env))
    return 0.5 * (grad + grad.conj().T)


def _gibbs_tilt(h, constraint: EnergyConstraint):
    """``rho = exp(h - beta F) / Z`` at the least beta >= 0 with ``Tr rho F <= E``, its exact log, and its
    eigenpairs ``(p, u)``, weights ascending.

    The energy's beta-slope is minus the Kubo-Mori variance
    ``sum_ij |F_ij|^2 L(p_i, p_j) - mean^2`` in the eigenbasis of ``h - beta F`` (L: logarithmic mean).
    A bound at the least level holds only as beta -> inf, where the energy is that level to rounding,
    so the search aims up to rounding above it; with F = c I that makes every state feasible."""
    f, levels = constraint.operator, constraint._eigenpairs[0]
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
    return 0.5 * (rho + rho.conj().T), h - beta * f - log_z * np.eye(len(p)), (p, u)


def cea_capacity(channel: KrausChannel, constraint: EnergyConstraint, opts: OptimizerOptions | None = None) -> CapacityResult:
    """Certified entanglement-assisted value: sup of mutual information.

    *Step.*  The iterate is kept as its log ``H = ln rho``, from the Gibbs state of F at the bound E
    (the maximum-entropy feasible state).  A step is ``rho+ ~ exp(H + eta ln2 grad I(rho) - beta F)``
    (grad in bits) at the least beta >= 0 with ``Tr rho+ F <= E`` (:func:`_gibbs_tilt`).  An evaluated state costs one
    Kraus product and one eigendecomposition per operator: its value, and its gradient once accepted or at ``rho_eps``.
    *Ascent.*  Each entropy obeys ``S(X) = S(X0) + <grad S(X0), X - X0> - D(X || X0)``; the
    environment term has the favourable sign and ``D(Phi rho || Phi rho0) <= D(rho || rho0)``, so
    ``I(rho) >= I(rho0) + <grad I(rho0), rho - rho0> - 2 D(rho || rho0)`` (nats).  eta = 1/2 maximizes
    this minorant over the feasible set exactly and never lowers the value; each step first tries
    twice the last eta, up to ``_MAX_STEP``, and halves it while the value drops.
    *Certificate.*  By concavity ``I(rho_eps) + max_feasible <grad I(rho_eps), sigma - rho_eps>``, with
    ``rho_eps = (1 - eps) rho + eps I/d`` and the max bounded by :func:`feasible_linear_max`'s dual (from the
    last multiplier, within ``0.01 gap_tolerance``), bounds the optimum.  The run stops once the least such
    bound is within ``gap_tolerance`` of the best iterate.
    *Face step.*  The iterates ``exp(H)`` are full rank, so they only approach an optimum with a kernel.
    The oracle's Lagrangian ``G - lam F`` at ``rho_eps`` has top eigenvalue ``value + gap - lam E``; an
    eigendirection of rho whose diagonal entry lies below it by more than the current gap (upper bound
    minus best value) is dominated.  When the dominated directions are exactly the least-weight tail of
    rho's spectrum (strictly lighter than the rest), leave a face Q of dimension >= 2, and a tail of the
    same size was dominated at the previous iterate too, the log-iterate ``Q† H Q`` (before its tilt) is
    re-tilted on ``Q† F Q`` at E.  If that state's value beats both the best value and the step's
    candidate, the same ascent runs on the face (the channel restricted to Q) within the remaining
    iterations.  Its result, embedded, is a feasible state of the full problem and is certified by one
    full-problem oracle call.  If that misses ``gap_tolerance``, the full ascent goes on from the step's
    candidate, with no further face steps.
    The bracket ``[value, value + gap]`` is sound regardless of convergence; a non-converged run
    returns it with ``converged=False`` rather than raising.  ``trace`` has one ``(objective,
    energy)`` record per completed iteration, a move to a face and the face's iterations included;
    ``iterations`` counts the face's iterations too (a face that misses adds no records).
    """
    opts = opts or OptimizerOptions()
    if not isinstance(channel, KrausChannel):
        raise ValidationError("capacity optimization requires a trace-preserving channel")
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel, (constraint, scale) = _maybe_prune(channel), _rescaled(constraint)
    t0 = time.perf_counter()
    d = channel.dim_in
    h = np.zeros((d, d), dtype=complex)
    rho, log_rho, eig = _gibbs_tilt(h, constraint)
    start = (h, rho, log_rho, eig, _mi_spectra(channel, rho, eig[0]))
    best_val, best_rho, upper, iterations, trace = _ascend(channel, constraint, opts, start, opts.max_iterations)

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
        trace=tuple((value, energy / scale) for value, energy in trace),
    )


def _dominated_tail(lagrangian, top: float, gap: float, p, u) -> int:
    """How many of rho's least-weight eigendirections (eigenpairs ``(p, u)``, weights ascending) ``lagrangian``
    dominates: the k with ``<u_i|L|u_i> < top - gap`` exactly for ``i < k`` and ``p[k-1] < p[k]``.  0 where the
    dominated directions are no such tail or leave a face of dimension < 2 (a pure state has mutual information 0)."""
    dominated = np.einsum("ij,ij->j", u.conj(), lagrangian @ u).real < top - gap
    k = int(dominated.sum())
    return k if 0 < k <= len(p) - 2 and dominated[:k].all() and p[k - 1] < p[k] else 0


def _face_start(channel: KrausChannel, constraint: EnergyConstraint, h, q):
    """The channel and constraint restricted to the face spanned by the columns of ``q``, and the start
    ``(h, rho, ln rho, eigenpairs, (I(rho), spectra))`` of :func:`_ascend` re-tilted from ``h = Q† H Q`` at E; None
    where no face state is feasible."""
    try:
        face_con = EnergyConstraint(q.conj().T @ constraint.operator @ q, constraint.bound)
    except ValidationError:  # the face's least level lies above E
        return None
    face, h = restrict(channel, q), q.conj().T @ h @ q
    rho, log_rho, eig = _gibbs_tilt(h, face_con)
    return face, face_con, (h, rho, log_rho, eig, _mi_spectra(face, rho, eig[0]))


def _ascend(channel: KrausChannel, constraint: EnergyConstraint, opts: OptimizerOptions, start, budget: int):
    """:func:`cea_capacity`'s mirror ascent with face steps for at most ``budget`` iterations, from ``start = (h,
    rho, ln rho, (p, u), (I(rho), spectra))``: rho is the tilt of the log-iterate ``h``, with eigenpairs ``(p, u)``
    and :func:`_mi_spectra`.  Returns ``(value, state, upper bound, iterations, trace)``."""
    d = channel.dim_in
    h, rho, log_rho, (p, u), (cur, spectra) = start
    best_val, best_rho, upper, eta, trace, faces, last_k, lam = cur, rho, math.inf, 0.5, [], True, 0, 0.0

    def certificate(state):
        nonlocal lam  # the last certificate's multiplier, where this one's oracle starts
        rho_eps = (1.0 - opts.epsilon) * state + opts.epsilon * np.eye(d) / d
        w, v = _eig(rho_eps, "state")
        value, spectra = _mi_spectra(channel, rho_eps, w)
        grad = _mi_gradient_from(channel, _log2_from_eig(w, v), spectra)
        lin = _linear_max(grad, constraint, 0.01 * opts.gap_tolerance, lam)
        lam = lin.multiplier
        ascent = lin.value + lin.gap - float(np.trace(grad @ rho_eps).real)
        return value + max(ascent, 0.0), grad, lin

    iterations = 0
    while iterations < budget:
        iterations += 1
        bound, grad, lin = certificate(rho)
        upper = min(upper, bound)
        if upper - best_val <= opts.gap_tolerance:
            break
        k = faces and iterations < budget and _dominated_tail(
            grad - lam * constraint.operator, lin.value + lin.gap - lam * constraint.bound, upper - best_val, p, u
        )
        step = LN2 * _mi_gradient_from(channel, log_rho / LN2, spectra)  # nats, exact ln rho
        eta = min(2.0 * eta, _MAX_STEP)
        while True:
            cand_h = log_rho + eta * step
            cand_rho, cand_log, cand_eig = _gibbs_tilt(cand_h, constraint)
            cand, cand_spectra = _mi_spectra(channel, cand_rho, cand_eig[0])
            if cand >= cur or eta <= 0.5:
                break
            eta *= 0.5
        face = k and k == last_k and _face_start(channel, constraint, h, u[:, k:])  # the tail held for two iterates
        last_k = k
        if face and face[2][-1][0] > max(best_val, cand):  # the face start's value
            face_chan, face_con, face_start = face
            value, state, _, used, records = _ascend(face_chan, face_con, opts, face_start, budget - iterations)
            iterations += used
            embedded = u[:, k:] @ state @ u[:, k:].conj().T
            best_val, best_rho = value, 0.5 * (embedded + embedded.conj().T)
            upper = min(upper, certificate(best_rho)[0])
            if upper - best_val <= opts.gap_tolerance:
                trace += [(face_start[-1][0], face_con.energy(face_start[1])), *records]
                break
            faces = False
        h, rho, log_rho, (p, u), cur, spectra = cand_h, cand_rho, cand_log, cand_eig, cand, cand_spectra
        trace.append((cur, constraint.energy(rho)))
        if cur > best_val:
            best_val, best_rho = cur, rho
    return best_val, best_rho, upper, iterations, trace


def _least_feasible_rate(tilt, rounding: float, start: float = 0.0):
    """Least rate beta >= 0 at which ``tilt(beta) -> (state, excess, slope)`` has ``excess <= 0``.

    The excess falls in beta with derivative ``slope``.  Newton steps from ``start`` inside the bracket of
    infeasible and feasible rates aim at ``-rounding / 2``, mid stop window; a step after a same-side landing
    that did not halve ``|excess|`` is doubled, so both ends close in.  A ``start`` above 0 requires beta = 0
    to be infeasible; from a feasible start the bracket closes from above.  Stops at a feasible rate whose
    excess is zero to ``rounding``, or at adjacent-float bracket ends, and returns the state at the feasible
    end.  A non-finite excess raises a ValidationError.
    """
    lo, hi, state_hi, beta, slow = 0.0, math.inf, None, start, False
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
        # in Python floats a subnormal slope sends the step to inf (no numpy overflow), and the midpoint is taken
        t = beta - (2.0 if slow else 1.0) * float(excess + 0.5 * rounding) / float(slope) if slope < 0.0 else mid
        if not lo < t < hi:
            t = mid
        state, excess_t, slope = tilt(t)
        slow, beta, excess = (excess_t <= 0.0) == (excess <= 0.0) and abs(excess_t) > 0.5 * abs(excess), t, excess_t
    return state if state_hi is None else state_hi


def _retilt(weights, energies, bound, rates):
    """Gibbs re-tilts ``p_r ~ w_r exp(-beta_r f_r)`` of the rows of ``(R, m)`` stacks at the least rates beta_r
    that make each row's mean energy feasible; returns ``(p, beta)``.

    One stacked pass normalizes the weights and finds the rows above the bound and the moments ``[w, w c, w c^2]``
    of the centred energies ``c = f - bound``.  Each row above the bound runs one search from ``rates[r]``; its tilt
    is one exp and one product ``(z, s1, s2)``, with excess ``s1 / z`` and slope ``(s1 / z)^2 - s2 / z``.  A
    ValidationError if the least energy on the support of a row's weights exceeds the bound."""
    w = np.maximum(weights, 0.0)
    w = w / w.sum(axis=-1, keepdims=True)
    f = np.asarray(energies, dtype=float)
    c = f - bound
    wc = w * c
    search, least = wc.sum(axis=-1) > 1e-12, np.where(w > 0.0, c, math.inf).min(axis=-1, keepdims=True)
    if (search & (least[:, 0] > 1e-12)).any():
        raise ValidationError("no re-tilt can restore feasibility")  # the tilt reaches the support's least energy
    wc2 = np.where(search[:, None], wc, 0.0) * c  # w c^2 of the rows that search: far below a huge bound it overflows
    # measured from the support's least energy, the tilt keeps that member at exp(0) = 1, so z > 0 at every rate
    above, moments = np.maximum(c - least, 0.0), np.array([w, wc, wc2]).transpose(1, 2, 0)
    roundings = 4.0 * np.finfo(float).eps * np.abs(f).max(axis=-1)
    p, beta = w.copy(), np.zeros(len(w))
    for r in np.flatnonzero(search).tolist():

        def tilt(b, above=above[r], moments=moments[r]):
            e = np.exp(-b * above)
            z, s1, s2 = (e @ moments).tolist()
            return (b, e, z), s1 / z, (s1 / z) ** 2 - s2 / z

        beta[r], e, z = _least_feasible_rate(tilt, float(roundings[r]), float(rates[r]))
        p[r] = w[r] * e / z
    return p, beta


def _pure_images(kraus, vectors):
    """Amplitudes ``A[..., i, :, k] = K_k v_i`` and images ``A_i A_i†`` of the pure states in the rows of
    ``vectors`` ``(..., m, d)``."""
    amps = np.einsum("kba,...ia->...ibk", kraus, vectors)
    return amps, amps @ amps.conj().swapaxes(-1, -2)


def _ensemble_spectra(kraus, weights, vectors):
    """For pure-state ensembles ``(r, m)``, ``(r, m, d)`` through a channel: the amplitudes and images
    of :func:`_pure_images`, the eigenpairs of the images and of their average (one eigensolver call),
    and the chi value."""
    amps, images = _pure_images(kraus, vectors)
    avg = np.einsum("...i,...ibc->...bc", weights, images)
    r, m, k = images.shape[:3]
    w, x = _eig(np.concatenate([images.reshape(r * m, k, k), avg]), "ensemble image")
    p, u, q, v = w[:-r].reshape(r, m, k), x[:-r].reshape(r, m, k, k), w[-r:], x[-r:]
    return (amps, images, p, u, q, v), _spectrum_entropy(q) - _rowdot(weights, _spectrum_entropy(p))


def _chi_upper_bound(channel: QuantumOperation, constraint: EnergyConstraint, beta: float, w, u):
    """``(bound, allowance)``: the upper bound ``lam_max(G - lam F) + lam E`` on the constrained chi value, with
    ``G = -Phi*(log2 omega)``, ``omega`` the output with eigenpairs ``(w, u)`` and ``lam = beta / ln 2``, and the
    rounding it may carry.  For any state omega and lam >= 0, ``S(Phi(rho)) <= Tr rho G`` (Klein's inequality;
    the log floor only adds 1e-30 per level to omega's trace) and every member's output entropy is >= 0, so
    ``chi <= Tr rho G <= lam_max(G - lam F) + lam Tr rho F``.  At the output of F's Gibbs state at E the
    bound is the maximal output entropy whenever the Gibbs state attains it.  The allowance, 1e-12 relative to
    the magnitudes summed, covers the eigensolve and an average energy above E by rounding.  The bound is inf
    (the stop it drives fails open) when lam or the bound is not finite."""
    lam = beta / LN2
    if not math.isfinite(lam):
        return math.inf, math.inf
    g = -dual_apply(channel, _log2_from_eig(w, u))
    h = g - lam * constraint.operator
    if not np.isfinite(h).all():
        return math.inf, math.inf
    bound = float(np.linalg.eigvalsh(h)[-1]) + lam * constraint.bound
    top_level = float(constraint._eigenpairs[0][-1])
    allowance = 1e-12 * (1.0 + abs(bound) + float(np.abs(g).max()) + lam * (top_level + constraint.bound))
    return (bound, allowance) if math.isfinite(bound + allowance) else (math.inf, math.inf)


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
    stack, mapped by one einsum.  A step makes 2 batched eigensolver calls:
    the re-tilted average, then the candidates' images with their average,
    whose eigenpairs the next step reuses (a rejected restart keeps its own).
    Each re-tilt is one call over the stack (:func:`_retilt`); each restart's
    search starts at the rate its restart found last, and accept/reject masks
    update each restart's own step, best value and stall history, so each
    restart follows its sequential path.
    A restart leaves the stack once its best value has gained at most 1e-12
    over ``_CHI_STALL_STEPS`` iterations, or after ``opts.max_iterations``.
    *Certified stop.*  Once per call, :func:`_chi_upper_bound` bounds chi from
    above at the output of the Gibbs state of F at E (one eigensolve, plus the
    :func:`_ensemble_spectra` call on that state's eigen-ensemble).  Every
    running restart stops once the best value is within ``opts.gap_tolerance``
    of that bound plus its rounding allowance.  The bound equals chi where the
    Gibbs state maximizes the output entropy (the identity, cq channels with
    orthogonal pure outputs, isometries); elsewhere it is loose and never stops
    a run, and at ``gap_tolerance=0`` it stops none.  A certified value may lie
    up to ``gap_tolerance`` below what the run would reach without the stop.
    *Certified start.*  Before any restart is drawn, chi is evaluated at the
    Gibbs state's eigen-ensemble (F's eigenvectors at their Gibbs weights, the
    :func:`_retilt` of uniform weights), from the spectra of that call.  On the
    channels above it attains chi; if it reaches the stop with at most
    ``members`` members of positive weight, it is the result, with
    ``iterations=0``, and the restart stack never runs.
    ``iterations`` sums the steps the restarts took; ``converged`` means the
    value is certified within ``gap_tolerance`` or the winning restart stopped
    on the stall test; ties go to the lower restart.
    """
    opts = opts or OptimizerOptions(restarts=3, max_iterations=160)
    if channel.dim_in != constraint.dim:
        raise ValidationError("constraint dimension does not match channel input")
    channel, (constraint, _) = _maybe_prune(channel), _rescaled(constraint)
    kraus, f_op, bound = channel.kraus_stack(), constraint.operator, constraint.bound
    d = channel.dim_in
    m = d * d if members is None else members
    if not _is_integer(m) or m < 1:
        raise ValidationError(f"ensemble size must be a positive integer, got {m!r}")
    t0 = time.perf_counter()
    fw, fu = constraint._eigenpairs

    def energies_of(vectors):
        return np.einsum("...ia,ab,...ib->...i", vectors.conj(), f_op, vectors).real

    def start(restart: int):
        rng = np.random.default_rng(opts.seed + restart)
        k0 = min(m, d) if restart == 0 else 0
        rows = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m - k0)]
        vecs = np.array([*np.eye(d, dtype=complex)[:k0], *(v / np.linalg.norm(v) for v in rows)])
        energies = energies_of(vecs)
        if energies.min() > bound:
            vecs[-1], energies[-1] = fu[:, 0], float(fw[0])
        return vecs, energies

    # chi at the Gibbs eigen-ensemble, and chi's upper bound from the eigenpairs of its average; where a Gibbs
    # weight underflows to zero (E at F's least level), the state is the beta -> inf limit
    (gibbs_p,), (beta,) = _retilt(np.ones((1, d)), fw[None], bound, np.zeros(1))
    (*_, q, v), (gibbs_chi,) = _ensemble_spectra(kraus, gibbs_p[None], fu.T[None])
    beta = math.inf if (gibbs_p == 0.0).any() else float(beta)
    stop_at = sum(_chi_upper_bound(channel, constraint, beta, q[0], v[0])) - opts.gap_tolerance
    certified = gibbs_chi >= stop_at and int((gibbs_p > 0.0).sum()) <= m
    outcomes = [(gibbs_chi, (gibbs_p, fu.T), 0, True, 0)] if certified else []
    if not certified:  # the restart stack; it draws its random starts only here
        # per running restart: members, energies, weights, best value and state, step, restart index
        vecs, energies = (np.array(a) for a in zip(*map(start, range(opts.restarts))))
        weights, _ = _retilt(np.full(energies.shape, 1.0 / m), energies, bound, np.zeros(opts.restarts))
        state, best = _ensemble_spectra(kraus, weights, vecs)
        best_w, best_v, step, ids = weights, vecs, np.full(opts.restarts, 0.25), np.arange(opts.restarts)
        history, rate_a, rate_b = [best], np.zeros(opts.restarts), np.zeros(opts.restarts)
    for taken in range(1, 1 if certified else opts.max_iterations + 1):
        # (a) weight update toward the exponential-tilt fixed point
        amps, images, p, u, q, v = state
        scores, member_entropies, logs = _member_terms(p, u, q, v, _RELENT_CAP_BITS)
        weights = np.clip(weights * np.exp2(scores - scores.max(axis=-1, keepdims=True)), 1e-300, None)
        weights, rate_a = _retilt(weights, energies, bound, rate_a)

        # (b) projected gradient step: y_i = sum_k K_k† (log2 img_i - log2 avg) K_k v_i
        q, v = _eig(np.einsum("...i,...ibc->...bc", weights, images), "average image")
        y = np.einsum("kba,...ibk->...ia", kraus.conj(), (logs - _log2_from_eig(q, v)[:, None]) @ amps)
        y -= np.einsum("...ia,...ia->...i", vecs.conj(), y)[..., None] * vecs
        cand = vecs + step[:, None, None] * y
        cand = np.where(weights[..., None] > 1e-14, cand / np.linalg.norm(cand, axis=-1, keepdims=True), vecs)
        cand_energies = energies_of(cand)
        feasible = np.where(weights > 0.0, cand_energies, math.inf).min(axis=-1) <= bound
        cand_weights, gain = weights.copy(), np.full(len(ids), -math.inf)
        cand_weights[feasible], rate_b[feasible] = _retilt(weights[feasible], cand_energies[feasible], bound, rate_b[feasible])
        if feasible.any():
            cand_state, gain[feasible] = _ensemble_spectra(kraus, cand_weights[feasible], cand[feasible])
        accept = gain >= best - 1e-12
        cur = np.where(accept, gain, _spectrum_entropy(q) - _rowdot(weights, member_entropies))
        state = (amps, images, p, u, q, v)  # the next step's, unless its restart accepted the candidate
        for a, c in zip(state, cand_state if accept.any() else ()):
            a[accept] = c[accept[feasible]]
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
        certified = bool(best.max() >= stop_at)
        done = stalled | certified | (taken == opts.max_iterations)
        outcomes += [
            (best[i], (best_w[i], best_v[i]), taken, certified or bool(stalled[i]), ids[i]) for i in np.flatnonzero(done)
        ]
        if done.any():  # finished restarts leave the stack
            keep = ~done
            vecs, energies, weights, best, best_w, best_v, step, ids, rate_a, rate_b = (
                a[keep] for a in (vecs, energies, weights, best, best_w, best_v, step, ids, rate_a, rate_b)
            )
            history, state = [h[keep] for h in history], [a[keep] for a in state]
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
    channel = _maybe_prune(channel)
    cea = cea_capacity(channel, constraint, opts)
    chi = chi_capacity(channel, constraint, opts=opts)
    chi_comp = chi_capacity(complementary(channel), constraint, opts=opts)
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
    w, u = (a[..., ::-1] for a in _eig(avg, "barycenter"))  # eigenvalues descending
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
    """Certified capacity brackets of output-truncated channels per rank.

    Every rank, ``tau`` and ``ordering`` are checked before any solve, and each distinct rank is solved once.
    """
    ranks = _indices(ranks, "truncation ranks")
    truncated = {n: truncate(channel, n, tau, ordering) for n in ranks}
    runs = {n: cea_capacity(minimize_kraus(trunc), constraint, opts) for n, trunc in truncated.items()}
    full = cea_capacity(channel, constraint, opts)
    return {
        "rows": [
            {"rank": n, "value": runs[n].value, "gap": runs[n].gap, "converged": runs[n].converged} for n in ranks
        ],
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
    doubled = cea_capacity(tensor_channel(channel, channel), constraint_tensor(constraint, 2), opts)
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
