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

from .channels import KrausChannel, QuantumOperation, apply, environment_output, tensor_channel, identity_channel
from .errors import ValidationError
from .linalg import (
    HERMITICITY_TOL,
    LN2,
    PSD_TOL,
    TRACE_TOL,
    _log2_from_eig,
    assert_density_operator,
    assert_hermitian,
    hermitian_eig,
    partial_trace,
    permute_subsystems,
    purify,
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


def _spectra(stack, name: str = "operator", vectors: bool = False):
    """Checked spectra of one operator or a stack ``(..., d, d)`` of them, in one eigensolver call.

    Each member must be Hermitian within ``HERMITICITY_TOL`` and have no
    eigenvalue below ``-PSD_TOL``.  Returns the eigenvalues clipped at zero
    (ascending along the last axis), and the eigenvectors if ``vectors``;
    :func:`_spectrum_entropy` checks their traces.
    """
    s = np.asarray(stack, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {s.shape}")
    h = s.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf deviations fail below
        dev = np.abs(s - h).max(initial=0.0)
    if not dev <= HERMITICITY_TOL:
        for member in s.reshape(-1, *s.shape[-2:]):
            assert_hermitian(member, name=name)  # raises for the first offending member
    s = 0.5 * (s + h)
    w, u = np.linalg.eigh(s) if vectors else (np.linalg.eigvalsh(s), None)
    w = _clip_psd(w, name)
    return (w, u) if vectors else w


def _clip_psd(w, name: str):
    """Eigenvalues clipped at zero; a ValidationError if one lies below ``-PSD_TOL``."""
    if w.size and not float(w.min()) >= -PSD_TOL:
        raise ValidationError(f"{name} has negative eigenvalue {float(w.min()):.3e}")
    return np.maximum(w, 0.0)


def _xlogx(w):
    """``w log2 w`` summed over the last axis of clipped spectra, with ``0 log2 0 = 0``."""
    return (w * np.log2(np.maximum(w, _LOG_FLOOR))).sum(axis=-1)


def _spectrum_entropy(w, homogeneous: bool = True):
    """``-sum w log2 w`` over the last axis of clipped spectra of trace t <= 1, plus ``t log2 t`` if ``homogeneous``."""
    t = w.sum(axis=-1)
    if not t.max(initial=0.0) <= 1.0 + TRACE_TOL:
        raise ValidationError(f"trace {float(t.max())!r} exceeds 1")
    raw = -_xlogx(w)
    return raw + t * np.log2(np.maximum(t, _LOG_FLOOR)) if homogeneous else raw


def _member_terms(images, avg, cap: float):
    """Per member of a stack ``(..., m, d, d)`` of states, from one :func:`_spectra` call: the relative
    entropy to its ``avg`` ``(..., d, d)`` capped at ``cap`` bits (``cap`` where :func:`relative_entropy`
    is inf), the entropy, and the log2 matrix (eigenvalues floored at 1e-30 as in ``hermitian_log2``)."""
    p, u = _spectra(images, "ensemble image", vectors=True)
    q, v = _spectra(avg, "average image", vectors=True)
    overlap = np.abs(v.conj().swapaxes(-1, -2)[..., None, :, :] @ u) ** 2
    weight = np.einsum("...ijl,...il->...ij", overlap, p)  # <v_j|images[i]|v_j>
    relent = _relative_entropy_tail(p, q[..., None, :], weight, SUPPORT_TOL, SUPPORT_TOL)
    return np.minimum(relent, cap), _spectrum_entropy(p), _log2_from_eig(p, u)


def _rowdot(a, b):
    """Dot products along the last axis, one per stack entry (a plain ``a @ b`` for vectors)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def raw_entropy(a) -> float:
    """Plain ``-Tr A log2 A`` for a PSD operator with trace at most one."""
    return float(_spectrum_entropy(_spectra(a), homogeneous=False))


def entropy(a) -> float:
    """Trace-homogeneous entropy; the von Neumann entropy on unit-trace states."""
    return float(_spectrum_entropy(_spectra(a)))


def relative_entropy(a, b, support_tol: float = SUPPORT_TOL, leak_tol: float | None = None) -> float:
    """Extended relative entropy of two PSD trace-<=1 operators, in bits.

    Returns ``math.inf`` exactly when the support of ``a`` is not contained
    in the support of ``b``: eigenvalues of ``b`` at or below ``support_tol``
    count as kernel, and more than ``leak_tol`` (default: ``support_tol``)
    of ``a``-weight on that kernel reads as a support violation.  On
    commuting inputs this reduces to the classical ``sum p log2(p/q)`` plus
    the trace-mismatch term.
    """
    p, u = hermitian_eig(a)
    q, w = hermitian_eig(b)
    p = _clip_psd(p, "first argument")
    q = _clip_psd(q, "second argument")
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
    sys = tuple(int(s) for s in sys)
    cond = tuple(int(c) for c in cond)
    if not sys:
        raise ValidationError("sys must name at least one subsystem")
    if set(sys) & set(cond):
        raise ValidationError("sys and cond must be disjoint")
    rho = np.asarray(rho, dtype=complex)
    keep = sorted(set(sys) | set(cond))
    dims = list(layout.dims) if hasattr(layout, "dims") else [int(d) for d in layout]
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
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size == 0:
            raise ValidationError("ensemble must have at least one member")
        if float(w.min()) < -1e-12:
            raise ValidationError(f"negative ensemble weight {float(w.min()):.3e}")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise ValidationError(f"ensemble weights sum to {float(w.sum())!r}")
        states = tuple(assert_density_operator(s, name="ensemble member") for s in self.states)
        if len(states) != w.size:
            raise ValidationError("weights and states must have equal length")
        dim = states[0].shape[0]
        if any(s.shape[0] != dim for s in states):
            raise ValidationError("ensemble members must share one dimension")
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
        v = np.asarray(v, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n <= 0:
            raise ValidationError("pure member must be a nonzero vector")
        v = v / n
        states.append(np.outer(v, v.conj()))
    return Ensemble(np.asarray(weights, dtype=float), tuple(states))


def chi_quantity(mu: Ensemble) -> float:
    """chi-quantity: sum_i pi_i H(rho_i || rho_bar), in bits."""
    avg = mu.barycenter()
    return float(sum(p * relative_entropy(s, avg) for p, s in zip(mu.weights, mu.states) if p > 0.0))


def chi_through(op: QuantumOperation, mu: Ensemble) -> float:
    """chi-quantity of the image ensemble under a channel or operation.

    Channels use the relative-entropy form; trace-decreasing operations use
    the equivalent difference of raw entropies, which stays finite on
    subnormalized images.
    """
    if mu.dim != op.dim_in:
        raise ValidationError("ensemble dimension does not match the map input")
    images = [apply(op, s) for s in mu.states]
    avg = apply(op, mu.barycenter())
    if isinstance(op, KrausChannel):
        return float(sum(p * relative_entropy(img, avg) for p, img in zip(mu.weights, images) if p > 0.0))
    return raw_entropy(avg) - float(
        sum(p * raw_entropy(img) for p, img in zip(mu.weights, images) if p > 0.0)
    )


def mutual_information(rho, op: QuantumOperation, route: str = "relative_entropy") -> float:
    """Mutual information between the input reference and the channel output.

    ``route="relative_entropy"`` evaluates
    ``H((Phi (x) Id)[rho_hat] || Phi[rho] (x) ref)`` on a canonical
    purification ``rho_hat`` with reference marginal ``ref``; this is the
    defining expression and also covers trace-decreasing operations.  The
    joint state has rank <= K (the Kraus count) and the second argument is a
    product, so the route reads both in the marginals' product eigenbasis:
    O(K d_out d (d_out + d + K)) time, no (d_out d)^2 array.
    ``route="entropies"`` uses ``H(rho) + H(Phi[rho]) - H(env)`` (channels
    only); the two routes share no spectrum and agree at finite dimension.
    """
    rho = assert_density_operator(rho)
    if rho.shape[0] != op.dim_in:
        raise ValidationError("state dimension does not match the channel input")
    if route == "entropies":
        if not isinstance(op, KrausChannel):
            raise ValidationError("entropy route requires a trace-preserving channel")
        return entropy(rho) + entropy(apply(op, rho)) - entropy(environment_output(op, rho))
    if route != "relative_entropy":
        raise ValidationError(f"unknown route {route!r}")
    d = rho.shape[0]
    phi = purify(rho).vec.reshape(d, d)  # phi[a, r]
    m = op.kraus_stack() @ phi  # the joint state is sum_k |vec m[k]><vec m[k]|
    a, u_a = hermitian_eig(apply(op, rho))
    b, u_b = hermitian_eig(phi.T @ phi.conj())
    q = _clip_psd(np.outer(a, b), "second argument").ravel()
    c = u_a.conj().T @ m @ u_b.conj()  # the joint state's factors in the product eigenbasis
    weight = np.einsum("kij,kij->ij", c.conj(), c).real.ravel()
    p = np.linalg.svd(m.reshape(len(m), -1), compute_uv=False) ** 2
    # support containment holds identically here, so only exact kernel
    # directions are screened; the value is finite at finite dimension
    return float(_relative_entropy_tail(p, q, weight, 0.0, 1e-9))


def coherent_information(rho, op: QuantumOperation, route: str = "relative_entropy") -> float:
    """Mutual information minus input entropy; may be negative."""
    return mutual_information(rho, op, route=route) - entropy(rho)


def fixed_marginal_ensemble(omega_ab, encodings, weights, dims) -> Ensemble:
    """Ensemble of encoded bipartite states sharing one B-marginal.

    Each member is ``(E (x) Id_B)[omega_ab]``; trace preservation of the
    encodings guarantees a common B-marginal, which is validated to 1e-9.
    """
    d_a, d_b = (int(d) for d in dims)
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
