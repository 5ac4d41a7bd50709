"""Entropic functionals on states, trace-<=1 operators, and ensembles.

Every quantity is reported in bits (logarithms base 2); divide by
``1/ln 2 = log2(e)`` to convert to nats.  Two extensions of the von Neumann
entropy to positive operators with trace at most one are provided:

* :func:`raw_entropy`   -- ``-Tr A log2 A``
* :func:`entropy`       -- ``raw_entropy(A) + Tr A * log2(Tr A)``, the
  trace-homogeneous variant that coincides with the von Neumann entropy on
  unit-trace states.

Relative entropy follows the trace-<=1 extension
``Tr(A log2 A - A log2 B) + (Tr B - Tr A)/ln 2`` and returns ``math.inf``
as an explicit value whenever the support of the first argument leaks out of
the support of the second (eigenvalues below ``SUPPORT_TOL`` count as kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, QuantumOperation, _output_and_environment, _workspace, apply, identity_channel
from .channels import tensor_channel
from .errors import ValidationError
from .linalg import (
    LN2,
    _as_complex,
    _as_matrix,
    _coerce_layout,
    _eig,
    _indices,
    _log2_from_eig,
    _spectra,
    assert_density_operator,
    hermitian_eig,  # noqa: F401  (read as entrocap.entropy.hermitian_eig by the benchmark harness)
    partial_trace,
    permute_subsystems,
    tensor,
)

__all__ = [
    "SUPPORT_TOL",
    "Ensemble",
    "chi_quantity",
    "chi_through",
    "coherent_information",
    "conditional_entropy",
    "entropy",
    "fixed_marginal_ensemble",
    "mutual_information",
    "pure_state_ensemble",
    "raw_entropy",
    "relative_entropy",
]

SUPPORT_TOL = 1e-12

_LOG_FLOOR = 1e-300


def _xlogx(w):
    """``w log2 w`` summed over the last axis of clipped spectra, with ``0 log2 0 = 0``."""
    return (w * np.log2(np.maximum(w, _LOG_FLOOR))).sum(axis=-1)


def _spectrum_entropy(w, homogeneous: bool = True):
    """``-sum w log2 w`` over the last axis of clipped spectra of trace t, plus ``t log2 t`` if ``homogeneous``."""
    t = w.sum(axis=-1)
    raw = -_xlogx(w)
    return raw + t * np.log2(np.maximum(t, _LOG_FLOOR)) if homogeneous else raw


def _member_terms(p, u, q, v, cap: float):
    """Per member of a stack of states with ``_eig`` eigenpairs ``p, u`` ``(..., m, d)``, ``(..., m, d, d)``: the
    relative entropy to the state with eigenpairs ``q, v`` ``(..., d)``, ``(..., d, d)`` capped at ``cap`` bits
    (``cap`` where :func:`relative_entropy` is inf), the entropy, and the log2 matrix (eigenvalues floored at 1e-30)."""
    overlap = np.abs(v.conj().swapaxes(-1, -2)[..., None, :, :] @ u) ** 2
    weight = np.einsum("...ijl,...il->...ij", overlap, p)  # <v_j|images[i]|v_j>
    relent = _relative_entropy_tail(p, q[..., None, :], weight, SUPPORT_TOL, SUPPORT_TOL)
    return np.minimum(relent, cap), _spectrum_entropy(p), _log2_from_eig(p, u)


def _rowdot(a, b):
    """Dot products along the last axis, one per stack entry (a plain ``a @ b`` for vectors)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def raw_entropy(a) -> float:
    """Plain ``-Tr A log2 A`` for a PSD operator with trace at most one."""
    return float(_spectrum_entropy(_spectra(_as_matrix(a)), homogeneous=False))


def entropy(a) -> float:
    """Trace-homogeneous entropy; the von Neumann entropy on unit-trace states."""
    return float(_spectrum_entropy(_spectra(_as_matrix(a))))


def relative_entropy(a, b, support_tol: float = SUPPORT_TOL, leak_tol: float | None = None) -> float:
    """Extended relative entropy of two PSD trace-<=1 operators, in bits.

    Returns ``math.inf`` exactly when the support of ``a`` is not contained
    in the support of ``b``: eigenvalues of ``b`` at or below ``support_tol``
    count as kernel, and more than ``leak_tol`` (default: ``support_tol``)
    of ``a``-weight on that kernel reads as a support violation.  On
    commuting inputs this reduces to the classical ``sum p log2(p/q)`` plus
    the trace-mismatch term.
    """
    p, u = _spectra(_as_matrix(a), "first argument", vectors=True)
    q, w = _spectra(_as_matrix(b), "second argument", vectors=True)
    weight = (np.abs(w.conj().T @ u) ** 2) @ p  # weight[j] = <w_j|a|w_j>
    return float(_relative_entropy_tail(p, q, weight, support_tol, support_tol if leak_tol is None else leak_tol))


def _relative_entropy_tail(p, q, weight, support_tol: float, leak_tol: float):
    """Relative entropy from the clipped spectra p of a, q of b, and a's diagonal in b's eigenbasis;
    ``p``, ``q`` and ``weight`` may carry broadcasting stack axes.  Inf where over ``leak_tol`` of a lies
    on q <= support_tol."""
    leak = (weight * (q <= support_tol)).sum(axis=-1) > leak_tol
    cross = _rowdot(weight, np.log2(np.maximum(q, _LOG_FLOOR)))
    value = _xlogx(p) - cross + (q.sum(axis=-1) - p.sum(axis=-1)) / LN2
    return np.where(leak, math.inf, value)


def conditional_entropy(rho, layout, sys=(0,), cond=(1,)) -> float:
    """Conditional entropy H(sys|cond) of a multipartite state, in bits.

    Computed as ``H(rho_S) - H(rho_SC || rho_S (x) rho_C)``, which at finite
    dimension agrees with ``H(rho_SC) - H(rho_C)`` but stays meaningful when
    stated through the relative entropy.  May be negative.
    """
    sys, cond = _indices(sys, "sys"), _indices(cond, "cond")
    if not sys:
        raise ValidationError("sys must name at least one subsystem")
    if set(sys) & set(cond):
        raise ValidationError("sys and cond must be disjoint")
    rho = _as_matrix(rho)
    keep = sorted(set(sys) | set(cond))
    dims = list(_coerce_layout(layout).dims)
    reduced = partial_trace(rho, dims, keep)
    kept_dims = [dims[k] for k in keep]
    order = [keep.index(s) for s in sys] + [keep.index(c) for c in cond]
    reduced = permute_subsystems(reduced, kept_dims, order)
    d_s = int(np.prod([dims[s] for s in sys]))
    d_c = int(np.prod([dims[c] for c in cond])) if cond else 1
    marg_s = partial_trace(reduced, (d_s, d_c), (0,))
    if not cond:
        return entropy(marg_s)
    marg_c = partial_trace(reduced, (d_s, d_c), (1,))
    return entropy(marg_s) - relative_entropy(reduced, tensor(marg_s, marg_c))


@dataclass(frozen=True)
class Ensemble:
    """Finitely supported probability measure over equal-dimension states."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        try:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"ensemble weights must be real numbers: {exc}") from None
        if w.size == 0:
            raise ValidationError("ensemble must have at least one member")
        if not np.isfinite(w).all():
            raise ValidationError("ensemble weights must be finite")
        if float(w.min()) < -1e-12:
            raise ValidationError(f"negative ensemble weight {float(w.min()):.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValidationError(f"ensemble weights sum to {float(w.sum())!r}")
        states = tuple(_as_matrix(s) for s in self.states)
        if len(states) != w.size:
            raise ValidationError("weights and states must have equal length")
        dim = states[0].shape[0]
        if any(s.shape[0] != dim for s in states):
            raise ValidationError("ensemble members must share one dimension")
        _spectra(np.stack(states), "ensemble member", unit_trace=True)
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    def __len__(self) -> int:
        return len(self.states)

    def barycenter(self) -> np.ndarray:
        avg = sum(p * s for p, s in zip(self.weights, self.states))
        return 0.5 * (avg + avg.conj().T)


def pure_state_ensemble(weights, vectors) -> Ensemble:
    """Ensemble of pure states given as (unnormalized-ok) complex vectors."""
    states = []
    for v in vectors:
        v = _as_complex(v).reshape(-1)
        n = np.linalg.norm(v)
        if n <= 0:
            raise ValidationError("pure member must be a nonzero vector")
        v = v / n
        states.append(np.outer(v, v.conj()))
    return Ensemble(np.asarray(weights, dtype=float), tuple(states))


def chi_quantity(mu: Ensemble) -> float:
    """chi-quantity: sum_i pi_i H(rho_i || rho_bar), in bits."""
    return chi_through(identity_channel(mu.dim), mu)


def chi_through(op: QuantumOperation, mu: Ensemble) -> float:
    """chi-quantity of the image ensemble under a channel or operation.

    Channels use the relative-entropy form; trace-decreasing operations use
    the equivalent difference of raw entropies, which stays finite on
    subnormalized images.  The members of positive weight are mapped as one
    stack, with one bare eigensolver call for their images and one for the
    image of the barycenter; the weighted terms are summed in member order.
    """
    if mu.dim != op.dim_in:
        raise ValidationError("ensemble dimension does not match the map input")
    keep = mu.weights > 0.0
    w, ks = mu.weights[keep], op.kraus_stack()
    tmp = ks[:, None] @ np.stack(mu.states)[keep]  # K_k rho_i: (E, m, B, A)
    p, u = _eig(np.tensordot(tmp, ks.conj(), axes=([0, 3], [0, 2])), "ensemble image")  # sum_k K_k rho_i K_k†
    q, v = _eig(apply(op, mu.barycenter()), "average image")
    if isinstance(op, KrausChannel):
        return float(sum(w * _member_terms(p, u, q, v, math.inf)[0]))
    return float(_spectrum_entropy(q, homogeneous=False) - sum(w * _spectrum_entropy(p, homogeneous=False)))


def mutual_information(rho, op: QuantumOperation, route: str = "relative_entropy") -> float:
    """Mutual information between the input reference and the channel output.

    ``route="relative_entropy"`` evaluates the defining ``H((Phi (x) Id)[rho_hat] || Phi[rho] (x) ref)``
    on a canonical purification ``rho_hat`` with reference marginal ``ref``; it also covers
    trace-decreasing operations.  One checked eigendecomposition of rho gives the factor ``phi`` and
    ``ref``, diagonal in its basis.  One product on the channel-ordered (B, E, A) Kraus stack gives
    ``[m_0 m_1 ...]``, ``m_e = K_e phi``, whose Gram is ``Phi[rho]``; the joint state's nonzero spectrum
    is that of the Gram of the K x d_out d factor on its smaller side (K x K, else (d_out d)^2).  The
    cross term and the leak screen are read in the marginals' product eigenbasis: O(K d_out d (d_out +
    d + K)) time.  ``route="entropies"`` uses ``H(rho) + H(Phi[rho]) - H(env)`` (channels only): one
    checked spectrum of rho is the boundary check and H(rho), and one product ``K_e rho`` gives
    ``Phi[rho]`` and env for the bare eigensolver.  The K x K Gram equals env in exact arithmetic, but
    the relative-entropy route builds it from ``phi`` and calls none of the entropies route's code.
    """
    if route == "entropies":
        if not isinstance(op, KrausChannel):
            raise ValidationError("entropy route requires a trace-preserving channel")
        rho = _as_matrix(rho)
        h_rho = _spectrum_entropy(_spectra(rho, "state", unit_trace=True))  # the boundary check and H(rho)
        out, env = _output_and_environment(op, rho)  # also checks the input dimension
        h_out = _spectrum_entropy(_eig(out, "channel output", vectors=False))
        return float(h_rho + h_out - _spectrum_entropy(_eig(env, "environment output", vectors=False)))
    if route != "relative_entropy":
        raise ValidationError(f"unknown route {route!r}")
    w, u = _spectra(_as_matrix(rho), "state", vectors=True, unit_trace=True)  # the boundary check and the factor
    if len(w) != op.dim_in:
        raise ValidationError("state dimension does not match the channel input")
    p, ks = w / w.sum(), op._by_output  # p: the reference marginal, diagonal in the basis r
    b, k, d = ks.shape
    with _workspace(op) as work:  # every stack-sized product and copy is written into the channel's workspace
        # [m_0 m_1 ...], phi[a, r] = sqrt(p_r) u[a, r]
        m = np.matmul(ks.reshape(b * k, d), u * np.sqrt(p), out=work[0].reshape(b * k, d)).reshape(b, k * d)
        a, u_a = _eig(m @ np.conjugate(m, out=work[1].reshape(b, k * d)).T, "channel output")
        # |m_e|^2 in the product eigenbasis, summed over e
        weight = np.matmul(u_a.conj().T, m, out=work[1].reshape(b, k * d)).view(np.float64)
        weight = np.square(weight, out=weight).reshape(b, k, 2 * d).sum(axis=1).reshape(b, d, 2).sum(axis=2).ravel()
        rows = work[1].reshape(k, b * d)  # rows vec m_e
        np.copyto(rows.reshape(k, b, d), m.reshape(b, k, d).transpose(1, 0, 2))
        conj = np.conjugate(rows, out=work[0].reshape(k, b * d))
        joint = _eig(rows @ conj.T if k <= b * d else conj.T @ rows, "joint state", vectors=False)
    # support containment holds identically, so only exact kernel directions are screened: the value is finite
    return float(_relative_entropy_tail(joint, np.outer(a, p).ravel(), weight, 0.0, 1e-9))


def coherent_information(rho, op: QuantumOperation, route: str = "relative_entropy") -> float:
    """Mutual information minus input entropy; may be negative."""
    return mutual_information(rho, op, route=route) - entropy(rho)


def fixed_marginal_ensemble(omega_ab, encodings, weights, dims) -> Ensemble:
    """Ensemble of encoded bipartite states sharing one B-marginal.

    Each member is ``(E (x) Id_B)[omega_ab]``; trace preservation of the
    encodings guarantees a common B-marginal, which is validated to 1e-9.
    """
    d_a, d_b = _indices(dims, "subsystem dimensions")
    omega = assert_density_operator(omega_ab, name="shared state")
    if omega.shape[0] != d_a * d_b:
        raise ValidationError("shared state does not match dims")
    idb = identity_channel(d_b)
    members = []
    for enc in encodings:
        if enc.dim_in != d_a:
            raise ValidationError("encoding input dim must match subsystem A")
        members.append(apply(tensor_channel(enc, idb), omega))
    marginals = [partial_trace(m, (m.shape[0] // d_b, d_b), (1,)) for m in members]
    base = marginals[0]
    worst = max(float(np.abs(m - base).max()) for m in marginals)
    if worst > 1e-9:
        raise ValidationError(f"members do not share the B-marginal: deviation {worst:.3e}")
    return Ensemble(np.asarray(weights, dtype=float), tuple(members))
