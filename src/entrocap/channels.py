"""Quantum channels as finite Kraus families.

A channel is completely positive and trace preserving; a quantum operation is
completely positive and trace non-increasing.  The environment ordering is
fixed by the Kraus list order, so the Stinespring isometry and the
complementary channel are deterministic functions of the family.  All
contracts that could see the ordering are stated spectrum-level.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import (
    CompositeLayout,
    _as_complex,
    _as_matrix,
    _eig,
    _is_integer,
    _spectra,
    hermitian_basis,
    hermitian_eig,
    sample_isometry,
)

__all__ = [
    "CHANNEL_TOL",
    "CqDiscreteResult",
    "CqResult",
    "KrausChannel",
    "QuantumOperation",
    "StinespringDilation",
    "apply",
    "complementary",
    "cq_channel",
    "dephasing_channel",
    "depolarizing_channel",
    "dual_apply",
    "dual_environment",
    "environment_output",
    "identity_channel",
    "is_cq",
    "is_cq_discrete",
    "minimize_kraus",
    "replacement_channel",
    "restrict",
    "sample_channel",
    "stinespring",
    "tensor_channel",
    "truncate",
    "unitary_channel",
]

# Largest |Tr Phi(rho) - Tr rho| a Kraus family may cause: the operator-norm deviation of
# sum K†K from I (for a trace-decreasing operation, its excess over I).  Ten times inside the
# entropies' trace slack TRACE_TOL = 1e-10, so the image of a state whose trace is within
# 9e-11 of one stays a valid entropy argument.  The Fock attenuator's deviation is 7e-16 up
# to cutoff 120.
CHANNEL_TOL = 1e-11


@dataclass(frozen=True)
class QuantumOperation:
    """Completely positive trace-non-increasing map given by Kraus operators.

    ``kraus`` is a sequence of matrices or one ``(E, B, A)`` array; it is stored as the
    tuple of the rows of one owned complex stack.  After its first product the channel also
    keeps the stack's (B, E, A) copy and a workspace of two stack-sized complex buffers for
    the kernels' temporaries: three stacks besides its own, the transient peak of one call,
    now resident.  A kernel takes the workspace out of the channel for the call and puts it
    back, so concurrent calls on one channel are safe (one of them works in fresh buffers).
    """

    kraus: tuple

    def __post_init__(self):
        ks = _as_complex(self.kraus).copy()
        if ks.ndim != 3 or 0 in ks.shape:
            raise ValidationError(f"Kraus family must be one or more nonempty matrices of one shape, got {ks.shape}")
        object.__setattr__(self, "kraus", tuple(ks))
        object.__setattr__(self, "_stack", ks)
        g = self.kraus_gram() - np.eye(ks.shape[2])
        excess = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        preserving = isinstance(self, KrausChannel)  # a channel is held to sum K†K = I from both sides
        dev = float((np.abs(excess) if preserving else excess).max())
        if not dev <= CHANNEL_TOL:
            what = "is not trace preserving: ||sum K†K - I||" if preserving else "increases trace: max eig(sum K†K - I)"
            raise ValidationError(f"Kraus family {what} = {dev:.3e}")

    def kraus_gram(self) -> np.ndarray:
        return np.tensordot(self._stack.conj(), self._stack, axes=([0, 1], [0, 1]))

    @property
    def dim_in(self) -> int:
        return self._stack.shape[2]

    @property
    def dim_out(self) -> int:
        return self._stack.shape[1]

    @property
    def env_dim(self) -> int:
        return self._stack.shape[0]

    def kraus_stack(self) -> np.ndarray:
        """Kraus family as one (env_dim, dim_out, dim_in) array."""
        return self._stack

    @cached_property
    def _by_output(self) -> np.ndarray:
        """The Kraus stack in (B, E, A) order, copied on first use: ``[K_0 x  K_1 x ...]`` is one GEMM."""
        return np.ascontiguousarray(self._stack.transpose(1, 0, 2))

    def __call__(self, rho) -> np.ndarray:
        return apply(self, rho)

    def __reduce__(self):
        return type(self), (self._stack,)  # pickles the stack once; loading re-checks it, copy and workspace regrow


@dataclass(frozen=True)
class KrausChannel(QuantumOperation):
    """Trace-preserving Kraus family: sum K†K = I within CHANNEL_TOL."""


@dataclass(frozen=True)
class StinespringDilation:
    """Isometry V: H_A -> H_B (x) H_E with layout (B, E)."""

    isometry: np.ndarray
    layout: CompositeLayout

    def __post_init__(self):
        v = _as_complex(self.isometry)
        object.__setattr__(self, "isometry", v)
        g = v.conj().T @ v
        dev = float(np.abs(g - np.eye(v.shape[1])).max())
        if not dev <= CHANNEL_TOL:
            raise ValidationError(f"dilation is not isometric: |V†V - I| = {dev:.3e}")


def _operand(op: QuantumOperation, x, side: str = "input") -> np.ndarray:
    """``x`` as a complex square matrix of the map's ``side`` ("input", "output" or "environment") dimension."""
    x = _as_matrix(x)
    want = op.dim_in if side == "input" else op.dim_out if side == "output" else op.env_dim
    if x.shape[0] != want:
        raise ValidationError(f"operator dim {x.shape[0]} does not match channel {side} dim {want}")
    return x


@contextmanager
def _workspace(op: QuantumOperation):
    """The channel's workspace, two stack-sized complex rows, taken out of it for the block and put back after.

    A call that finds none (the first, or one running while another holds it) gets fresh rows.  The kernels
    below form the GEMM operands np.tensordot would (the same contiguous transposed copies, the same np.dot),
    but write their stack-sized temporaries into the workspace; what they return is always fresh.
    """
    work = op.__dict__.pop("_work", None)
    if work is None or work.shape[1] != op._stack.size:
        work = np.empty((2, op._stack.size), complex)
    try:
        yield work
    finally:
        op.__dict__["_work"] = work


def apply(op: QuantumOperation, rho) -> np.ndarray:
    """Act with the map: rho -> sum_i K_i rho K_i†."""
    ks, rho = op.kraus_stack(), _operand(op, rho)
    e, b, a = ks.shape
    with _workspace(op) as work:
        prod = np.matmul(ks, rho, out=work[0].reshape(e, b, a))  # K_i rho
        np.copyto(work[1].reshape(b, e, a), prod.transpose(1, 0, 2))
        np.conjugate(ks.transpose(0, 2, 1), out=work[0].reshape(e, a, b))
        return np.dot(work[1].reshape(b, e * a), work[0].reshape(e * a, b))


def dual_apply(op: QuantumOperation, a) -> np.ndarray:
    """Heisenberg-picture action on observables: a -> sum_i K_i† a K_i."""
    ks, a = op.kraus_stack(), _operand(op, a, "output")
    e, b, d = ks.shape
    with _workspace(op) as work:
        prod = np.dot(a, op._by_output.reshape(b, e * d), out=work[0].reshape(b, e * d))  # (B, E, A) = rows of a K_e
        np.copyto(work[1].reshape(e, b, d), prod.reshape(b, e, d).transpose(1, 0, 2))
        np.conjugate(ks.transpose(2, 0, 1), out=work[0].reshape(d, e, b))
        return np.dot(work[0].reshape(d, e * b), work[1].reshape(e * b, d))


def environment_output(op: QuantumOperation, rho) -> np.ndarray:
    """State reaching the environment: Gram matrix [Tr K_i rho K_j†]_ij."""
    ks, rho = op.kraus_stack(), _operand(op, rho)
    e, b, a = ks.shape
    with _workspace(op) as work:
        prod = np.matmul(ks, rho, out=work[0].reshape(e, b, a))  # K_i rho
        np.conjugate(ks.transpose(1, 2, 0), out=work[1].reshape(b, a, e))
        return np.dot(prod.reshape(e, b * a), work[1].reshape(b * a, e))


def _output_and_environment(op: QuantumOperation, rho) -> tuple[np.ndarray, np.ndarray]:
    """``(Phi(rho), env)`` of a Hermitian rho from one product K_e rho on the (B, E, A) stack: Phi = K (K rho)†."""
    ks, rho = op._by_output, _operand(op, rho)
    b, e, a = ks.shape
    with _workspace(op) as work:
        prod = np.matmul(ks.reshape(b * e, a), rho, out=work[0].reshape(b * e, a))  # rows (b, e) of K_e rho
        np.conjugate(prod, out=prod)
        out = ks.reshape(b, e * a) @ prod.reshape(b, e * a).T
        np.copyto(work[1].reshape(e, b, a), prod.reshape(b, e, a).transpose(1, 0, 2))  # rows e of (K_e rho)*
        return out, op.kraus_stack().reshape(e, b * a) @ work[1].reshape(e, b * a).T


def dual_environment(op: QuantumOperation, m) -> np.ndarray:
    """Dual of the environment map: observable on env -> observable on input."""
    ks, m = op.kraus_stack(), _operand(op, m, "environment")
    e, b, a = ks.shape
    with _workspace(op) as work:
        prod = np.dot(m, ks.reshape(e, b * a), out=work[0].reshape(e, b * a))  # (E, B, A)
        np.conjugate(ks.transpose(2, 0, 1), out=work[1].reshape(a, e, b))
        return np.dot(work[1].reshape(a, e * b), prod.reshape(e * b, a))


def stinespring(op: QuantumOperation) -> StinespringDilation:
    """Dilation V = sum_i K_i (x) |i>_E with environment index = list order."""
    ks = op.kraus_stack()  # (E, B, A)
    v = ks.transpose(1, 0, 2).reshape(op.dim_out * op.env_dim, op.dim_in)
    return StinespringDilation(v, CompositeLayout((op.dim_out, op.env_dim), ("B", "E")))


def complementary(op: QuantumOperation) -> QuantumOperation:
    """Map to the environment through the same dilation.

    The b-th Kraus operator of the complement collects row b of every K_i,
    so its output dimension equals the Kraus count of ``op``.
    """
    return type(op)(op.kraus_stack().transpose(1, 0, 2))  # (E, B, A) -> (B, E, A)


def tensor_channel(op1: QuantumOperation, op2: QuantumOperation) -> QuantumOperation:
    """Parallel composition with Kraus family {K_i (x) L_j}."""
    kraus = tuple(np.kron(k, l) for k in op1.kraus for l in op2.kraus)
    cls = KrausChannel if isinstance(op1, KrausChannel) and isinstance(op2, KrausChannel) else QuantumOperation
    return cls(kraus)


def _eye(dim) -> np.ndarray:
    """Identity on a builder's dimension argument; dimension 0 is left to the Kraus shape check."""
    if not _is_integer(dim) or dim < 0:
        raise ValidationError(f"dimension must be a nonnegative integer, got {dim!r}")
    return np.eye(dim)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((_eye(dim),))


def unitary_channel(u) -> KrausChannel:
    return KrausChannel((u,))


def _state_eig(state, name: str):
    """Eigenpairs of a public state, eigenvalues descending, from the one checked spectrum that validates it."""
    w, u = _spectra(_as_matrix(state), name, vectors=True, unit_trace=True)
    return w[::-1], u[:, ::-1]


def _prepare(w, u, bras) -> np.ndarray:
    """Measure-and-prepare operators ``sqrt(w_m) |u_m><b_k|``, eigenpairs first, as one ``(E, B, A)`` stack.

    ``u`` holds the kets as columns and ``bras`` the bras as rows; eigenpairs with ``w_m <= 1e-14`` are dropped."""
    keep = w > 1e-14
    kets = u[:, keep].T
    ops = np.sqrt(w[keep])[:, None, None, None] * (kets[:, None, :, None] * bras[None, :, None, :])
    return ops.reshape(len(kets) * len(bras), u.shape[0], bras.shape[1])


def replacement_channel(tau, dim_in: int | None = None) -> KrausChannel:
    """Channel that discards the input and prepares the fixed state ``tau``."""
    w, u = _state_eig(tau, "replacement target")
    return KrausChannel(_prepare(w, u, _eye(len(w) if dim_in is None else dim_in)))


def dephasing_channel(dim: int = 2) -> KrausChannel:
    """Complete dephasing in the computational basis."""
    return KrausChannel(np.einsum("kb,ka->kba", _eye(dim), _eye(dim)))


def depolarizing_channel(p: float, dim: int = 2) -> KrausChannel:
    """rho -> (1 - p) rho + p I/dim."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing weight must lie in [0, 1], got {p}")
    eye = _eye(dim)
    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)  # row i * dim + j is |i><j|
    # sqrt(p / dim) entrywise, so that dim = 0 reaches the Kraus shape check instead of a division by zero
    return KrausChannel(np.concatenate([np.sqrt(1.0 - p) * eye[None], np.sqrt(units * p / dim)]))


def truncate(channel: QuantumOperation, n: int, tau, ordering=None) -> QuantumOperation:
    """Compress the channel output onto an n-dimensional block.

    The output is projected onto the leading ``n`` basis vectors (computational
    basis, or the top eigenvectors of a Hermitian ``ordering`` observable) and
    the discarded weight is rerouted into the fixed state ``tau``:
    ``sigma -> P sigma P + Tr[sigma (I - P)] tau``.  The composite stays trace
    preserving and is returned in Kraus form.
    """
    d_out = channel.dim_out
    if not _is_integer(n) or not 1 <= n <= d_out:
        raise ValidationError(f"truncation rank must be an integer in [1, {d_out}], got {n!r}")
    n = int(n)
    w, u = _state_eig(tau, "truncation target")
    if len(w) != d_out:
        raise ValidationError("truncation target must live on the output space")
    if ordering is None:
        basis = np.eye(d_out, dtype=complex)
    else:
        _, basis = hermitian_eig(ordering)
        if basis.shape[0] != d_out:
            raise ValidationError("ordering observable must live on the output space")
    lead, rest = basis[:, :n], basis[:, n:]
    post = np.concatenate([(lead @ lead.conj().T)[None], _prepare(w, u, rest.conj().T)])  # (P, B, B)
    return type(channel)((post[:, None] @ channel.kraus_stack()).reshape(-1, d_out, channel.dim_in))


def cq_channel(states, dim_in: int | None = None) -> KrausChannel:
    """Discrete classical-quantum channel: rho -> sum_k <k|rho|k> sigma_k."""
    spectra = [_state_eig(s, f"sigma_{k}") for k, s in enumerate(states)]
    bras = _eye(len(spectra) if dim_in is None else dim_in)
    if len(bras) != len(spectra):
        raise ValidationError(f"need one output state per input basis vector ({len(bras)})")
    if len({len(w) for w, _ in spectra}) > 1:
        raise ValidationError("all output states must share one dimension")
    return KrausChannel([k for j, (w, u) in enumerate(spectra) for k in _prepare(w, u, bras[j : j + 1])])


class CqResult(NamedTuple):
    is_cq: bool
    max_commutator: float


class CqDiscreteResult(NamedTuple):
    is_discrete: bool
    basis: np.ndarray | None
    max_commutator: float


def _dual_images(channel: QuantumOperation) -> tuple[list, float]:
    """The dual images of the output's Hermitian basis and the largest entry of their pairwise commutators."""
    duals = [dual_apply(channel, e) for e in hermitian_basis(channel.dim_out)]
    pairs = ((a, b) for i, a in enumerate(duals) for b in duals[i + 1 :])
    return duals, max((float(np.abs(a @ b - b @ a).max()) for a, b in pairs), default=0.0)


def is_cq(channel: QuantumOperation, tol: float = 1e-8) -> CqResult:
    """Test whether the dual images of an operator basis all commute.

    Reports the largest commutator entry so borderline verdicts can be
    audited against the tolerance.
    """
    worst = _dual_images(channel)[1]
    return CqResult(worst <= tol, worst)


def is_cq_discrete(
    channel: QuantumOperation,
    tol: float = 1e-8,
    seed: int = 0,
    attempts: int = 4,
) -> CqDiscreteResult:
    """Test for a common input eigenbasis of all dual images.

    A commuting dual image family is simultaneously diagonalizable; the common
    basis is recovered from a random Hermitian combination (redrawn on
    degeneracy trouble) and certified by the residual off-diagonal mass.
    """
    duals, worst = _dual_images(channel)
    if not worst <= tol:  # the verdict of is_cq
        return CqDiscreteResult(False, None, worst)
    rng = np.random.default_rng(seed)
    for _ in range(max(1, attempts)):
        coeffs = rng.standard_normal(len(duals))
        probe = sum(c * d for c, d in zip(coeffs, duals))
        _, u = hermitian_eig(probe)
        rots = (u.conj().T @ d @ u for d in duals)
        off = max(float(np.abs(rot - np.diag(np.diagonal(rot))).max()) for rot in rots)
        if off <= max(tol, 10 * worst + 1e-12):
            return CqDiscreteResult(True, u, worst)
    return CqDiscreteResult(False, None, worst)


def restrict(channel: QuantumOperation, basis) -> QuantumOperation:
    """Subchannel on the subspace spanned by the (isometric) ``basis`` columns."""
    v = _as_complex(basis)
    if v.ndim != 2 or v.shape[0] != channel.dim_in or v.shape[1] > v.shape[0]:
        raise ValidationError("basis must be dim_in x k with k <= dim_in")
    g = v.conj().T @ v
    if float(np.abs(g - np.eye(v.shape[1])).max()) > CHANNEL_TOL:
        raise ValidationError("basis columns are not orthonormal")
    return type(channel)(channel.kraus_stack() @ v)


def minimize_kraus(op: QuantumOperation, cutoff: float = 1e-12) -> QuantumOperation:
    """Canonical minimal Kraus family from the Choi eigendecomposition."""
    d_in, d_out = op.dim_in, op.dim_out
    vecs = np.stack([k.reshape(-1) for k in op.kraus], axis=1)  # (d_out*d_in, E)
    choi = vecs @ vecs.conj().T
    w, u = _eig(0.5 * (choi + choi.conj().T), "Choi matrix")  # exactly Hermitian: the product is only to rounding
    keep = np.flatnonzero(w > cutoff)[::-1]  # eigenvalues descending
    if not keep.size:
        raise ValidationError("map vanished below the Kraus cutoff")
    return type(op)((np.sqrt(w[keep]) * u[:, keep]).T.reshape(-1, d_out, d_in))


def sample_channel(dim_in: int, dim_out: int, kraus_rank: int, seed=0) -> KrausChannel:
    """Random channel from a Haar isometry into output (x) environment."""
    if not all(_is_integer(v) and v >= 1 for v in (dim_out, kraus_rank)):  # dim_in: sample_isometry checks it
        raise ValidationError(f"dim_out and kraus_rank must be integers >= 1, got ({dim_out!r}, {kraus_rank!r})")
    v = sample_isometry(dim_in, dim_out * kraus_rank, seed)
    return KrausChannel(v.reshape(dim_out, kraus_rank, dim_in).transpose(1, 0, 2))
