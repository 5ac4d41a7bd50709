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
    LN2,
    PSD_TOL,
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


def _clipped_spectrum(a, name: str = "operator", vectors: bool = False):
    """Checked spectrum of a PSD operator clipped at zero, and its eigenvectors if ``vectors``."""
    m = assert_hermitian(a, name=name)
    m = 0.5 * (m + m.conj().T)
    w, u = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    if w.size and not float(w.min()) >= -PSD_TOL:
        raise ValidationError(f"{name} has negative eigenvalue {float(w.min()):.3e}")
    w = np.clip(w, 0.0, None)
    return (w, u) if vectors else w


def _spectrum_entropy(w, homogeneous: bool = True) -> float:
    """``-sum w log2 w`` of a clipped spectrum of trace t <= 1, plus ``t log2 t`` if ``homogeneous``."""
    t = float(w.sum())
    if t > 1.0 + 1e-10:
        raise ValidationError(f"trace {t!r} exceeds 1")
    nz = w[w > 0.0]
    if nz.size == 0 or t <= 0.0:
        return 0.0
    raw = float(-(nz * np.log2(nz)).sum())
    return raw + t * math.log2(t) if homogeneous else raw


def _entropy_and_slope(m, d):
    """:func:`entropy` of ``m`` and its derivative ``-Tr(d log2 m)`` along a traceless ``d``."""
    w, u = _clipped_spectrum(m, vectors=True)
    d_diag = np.einsum("ij,ij->j", u.conj(), d @ u).real
    return _spectrum_entropy(w), -float(np.log2(np.maximum(w, _LOG_FLOOR)) @ d_diag)


def raw_entropy(a) -> float:
    """Plain ``-Tr A log2 A`` for a PSD operator with trace at most one."""
    return _spectrum_entropy(_clipped_spectrum(a), homogeneous=False)


def entropy(a) -> float:
    """Trace-homogeneous entropy; the von Neumann entropy on unit-trace states."""
    return _spectrum_entropy(_clipped_spectrum(a))


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
    if p.size and float(p.min()) < -PSD_TOL:
        raise ValidationError(f"first argument has negative eigenvalue {float(p.min()):.3e}")
    if q.size and float(q.min()) < -PSD_TOL:
        raise ValidationError(f"second argument has negative eigenvalue {float(q.min()):.3e}")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)

    overlap = np.abs(w.conj().T @ u) ** 2  # overlap[j, i] = |<w_j|u_i>|^2
    kernel = q <= support_tol
    if kernel.any():
        mass = float(p @ overlap[kernel].sum(axis=0))
        if mass > (support_tol if leak_tol is None else leak_tol):
            return math.inf

    nz = p > 0.0
    term_a = float((p[nz] * np.log2(p[nz])).sum()) if nz.any() else 0.0
    log_q = np.log2(np.maximum(q, _LOG_FLOOR))
    term_cross = float(log_q @ overlap @ p)
    return term_a - term_cross + (float(q.sum()) - float(p.sum())) / LN2


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
    total = 0.0
    for p, s in zip(mu.weights, mu.states):
        if p <= 0.0:
            continue
        total += p * relative_entropy(s, avg)
    return total


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
        total = 0.0
        for p, img in zip(mu.weights, images):
            if p <= 0.0:
                continue
            total += p * relative_entropy(img, avg)
        return total
    return raw_entropy(avg) - float(
        sum(p * raw_entropy(img) for p, img in zip(mu.weights, images) if p > 0.0)
    )


def mutual_information(rho, op: QuantumOperation, route: str = "relative_entropy") -> float:
    """Mutual information between the input reference and the channel output.

    ``route="relative_entropy"`` evaluates
    ``H((Phi (x) Id)[rho_hat] || Phi[rho] (x) ref)`` on a canonical
    purification ``rho_hat`` with reference marginal ``ref``; this is the
    defining expression and also covers trace-decreasing operations.
    ``route="entropies"`` uses ``H(rho) + H(Phi[rho]) - H(env)`` (channels
    only); the two routes agree at finite dimension.
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
    outs = [(k @ phi).reshape(-1) for k in op.kraus]
    joint = np.zeros((op.dim_out * d, op.dim_out * d), dtype=complex)
    for v in outs:
        joint += np.outer(v, v.conj())
    ref = phi.T @ phi.conj()
    product = tensor(apply(op, rho), ref)
    # support containment holds identically here, so only exact kernel
    # directions are screened; the value is finite at finite dimension
    return relative_entropy(joint, product, support_tol=0.0, leak_tol=1e-9)


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
