"""Quantum channels as finite Kraus families.

A channel is completely positive and trace preserving; a quantum operation is
completely positive and trace non-increasing.  The environment ordering is
fixed by the Kraus list order, so the Stinespring isometry and the
complementary channel are deterministic functions of the family.  All
contracts that could see the ordering are stated spectrum-level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .linalg import (
    CompositeLayout,
    assert_density_operator,
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

CHANNEL_TOL = 1e-9


@dataclass(frozen=True)
class QuantumOperation:
    """Completely positive trace-non-increasing map given by Kraus operators."""

    kraus: tuple

    def __post_init__(self):
        if not self.kraus:
            raise ValidationError("Kraus list must be nonempty")
        ks = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        shape = ks[0].shape
        if len(shape) != 2:
            raise ValidationError("Kraus operators must be matrices")
        if any(k.shape != shape for k in ks):
            raise ValidationError("all Kraus operators must share one shape")
        object.__setattr__(self, "kraus", ks)
        object.__setattr__(self, "_stack", np.stack(ks, axis=0))
        self._check_normalization()

    def _check_normalization(self):
        g = self.kraus_gram()
        slack = np.eye(self.dim_in) - g
        w_min = float(np.linalg.eigvalsh(0.5 * (slack + slack.conj().T)).min())
        if not w_min >= -CHANNEL_TOL:
            raise ValidationError(
                f"operation increases trace: min eig(I - sum K†K) = {w_min:.3e}"
            )

    def kraus_gram(self) -> np.ndarray:
        return sum(k.conj().T @ k for k in self.kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    @property
    def env_dim(self) -> int:
        return len(self.kraus)

    def kraus_stack(self) -> np.ndarray:
        """Kraus family as one (env_dim, dim_out, dim_in) array."""
        return self._stack

    def __call__(self, rho) -> np.ndarray:
        return apply(self, rho)


@dataclass(frozen=True)
class KrausChannel(QuantumOperation):
    """Trace-preserving Kraus family: sum K†K = I within CHANNEL_TOL."""

    def _check_normalization(self):
        g = self.kraus_gram()
        dev = float(np.abs(g - np.eye(self.dim_in)).max())
        if not dev <= CHANNEL_TOL:
            raise ValidationError(
                f"Kraus family is not trace preserving: |sum K†K - I| = {dev:.3e}"
            )


@dataclass(frozen=True)
class StinespringDilation:
    """Isometry V: H_A -> H_B (x) H_E with layout (B, E)."""

    isometry: np.ndarray
    layout: CompositeLayout

    def __post_init__(self):
        v = np.asarray(self.isometry, dtype=complex)
        object.__setattr__(self, "isometry", v)
        g = v.conj().T @ v
        dev = float(np.abs(g - np.eye(v.shape[1])).max())
        if not dev <= CHANNEL_TOL:
            raise ValidationError(f"dilation is not isometric: |V†V - I| = {dev:.3e}")


def _check_input_dim(op: QuantumOperation, rho: np.ndarray, side: str = "input"):
    if rho.shape[0] != (op.dim_in if side == "input" else op.dim_out):
        want = op.dim_in if side == "input" else op.dim_out
        raise ValidationError(f"operator dim {rho.shape[0]} does not match channel {side} dim {want}")


def apply(op: QuantumOperation, rho) -> np.ndarray:
    """Act with the map: rho -> sum_i K_i rho K_i†."""
    rho = np.asarray(rho, dtype=complex)
    _check_input_dim(op, rho)
    ks = op.kraus_stack()
    tmp = ks @ rho  # (E, B, A)
    return np.tensordot(tmp, ks.conj(), axes=([0, 2], [0, 2]))


def dual_apply(op: QuantumOperation, a) -> np.ndarray:
    """Heisenberg-picture action on observables: a -> sum_i K_i† a K_i."""
    a = np.asarray(a, dtype=complex)
    _check_input_dim(op, a, side="output")
    ks = op.kraus_stack()
    tmp = np.tensordot(a, ks, axes=([1], [1]))  # (B, E, A) = rows of a K_e
    return np.tensordot(ks.conj(), tmp.transpose(1, 0, 2), axes=([0, 1], [0, 1]))


def environment_output(op: QuantumOperation, rho) -> np.ndarray:
    """State reaching the environment: Gram matrix [Tr K_i rho K_j†]_ij."""
    rho = np.asarray(rho, dtype=complex)
    _check_input_dim(op, rho)
    ks = op.kraus_stack()
    tmp = ks @ rho
    return np.tensordot(tmp, ks.conj(), axes=([1, 2], [1, 2]))


def dual_environment(op: QuantumOperation, m) -> np.ndarray:
    """Dual of the environment map: observable on env -> observable on input."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != op.env_dim:
        raise ValidationError("observable dim does not match environment dim")
    ks = op.kraus_stack()
    tmp = np.tensordot(m, ks, axes=([1], [0]))  # (E, B, A)
    return np.tensordot(ks.conj(), tmp, axes=([0, 1], [0, 1]))


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
    ks = op.kraus_stack()  # (E, B, A)
    comp = ks.transpose(1, 0, 2)  # (B, E, A)
    return type(op)(tuple(comp[b] for b in range(comp.shape[0])))


def tensor_channel(op1: QuantumOperation, op2: QuantumOperation) -> QuantumOperation:
    """Parallel composition with Kraus family {K_i (x) L_j}."""
    kraus = tuple(np.kron(k, l) for k in op1.kraus for l in op2.kraus)
    cls = KrausChannel if isinstance(op1, KrausChannel) and isinstance(op2, KrausChannel) else QuantumOperation
    return cls(kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def unitary_channel(u) -> KrausChannel:
    return KrausChannel((np.asarray(u, dtype=complex),))


def replacement_channel(tau, dim_in: int | None = None) -> KrausChannel:
    """Channel that discards the input and prepares the fixed state ``tau``."""
    tau = assert_density_operator(tau, name="replacement target")
    d_in = tau.shape[0] if dim_in is None else int(dim_in)
    w, u = hermitian_eig(tau)
    kraus = []
    for m in range(len(w)):
        if w[m] <= 1e-14:
            continue
        for a in range(d_in):
            k = np.zeros((tau.shape[0], d_in), dtype=complex)
            k[:, a] = np.sqrt(w[m]) * u[:, m]
            kraus.append(k)
    return KrausChannel(tuple(kraus))


def dephasing_channel(dim: int = 2) -> KrausChannel:
    """Complete dephasing in the computational basis."""
    kraus = []
    for k in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[k, k] = 1.0
        kraus.append(e)
    return KrausChannel(tuple(kraus))


def depolarizing_channel(p: float, dim: int = 2) -> KrausChannel:
    """rho -> (1 - p) rho + p I/dim."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing weight must lie in [0, 1], got {p}")
    kraus = [np.sqrt(1.0 - p) * np.eye(dim, dtype=complex)]
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = np.sqrt(p / dim)
            kraus.append(k)
    return KrausChannel(tuple(kraus))


def truncate(channel: QuantumOperation, n: int, tau, ordering=None) -> QuantumOperation:
    """Compress the channel output onto an n-dimensional block.

    The output is projected onto the leading ``n`` basis vectors (computational
    basis, or the top eigenvectors of a Hermitian ``ordering`` observable) and
    the discarded weight is rerouted into the fixed state ``tau``:
    ``sigma -> P sigma P + Tr[sigma (I - P)] tau``.  The composite stays trace
    preserving and is returned in Kraus form.
    """
    d_out = channel.dim_out
    n = int(n)
    if n < 1 or n > d_out:
        raise ValidationError(f"truncation rank must lie in [1, {d_out}], got {n}")
    tau = assert_density_operator(tau, name="truncation target")
    if tau.shape[0] != d_out:
        raise ValidationError("truncation target must live on the output space")
    if ordering is None:
        basis = np.eye(d_out, dtype=complex)
    else:
        _, basis = hermitian_eig(ordering)
        if basis.shape[0] != d_out:
            raise ValidationError("ordering observable must live on the output space")
    lead, rest = basis[:, :n], basis[:, n:]
    proj_kraus = [lead @ lead.conj().T]
    w, u = hermitian_eig(tau)
    for m in range(len(w)):
        if w[m] <= 1e-14:
            continue
        for k in range(rest.shape[1]):
            proj_kraus.append(np.sqrt(w[m]) * np.outer(u[:, m], rest[:, k].conj()))
    kraus = tuple(m @ k for m in proj_kraus for k in channel.kraus)
    return type(channel)(kraus)


def cq_channel(states, dim_in: int | None = None) -> KrausChannel:
    """Discrete classical-quantum channel: rho -> sum_k <k|rho|k> sigma_k."""
    sigmas = [assert_density_operator(s, name=f"sigma_{k}") for k, s in enumerate(states)]
    d_in = len(sigmas) if dim_in is None else int(dim_in)
    if d_in != len(sigmas):
        raise ValidationError(f"need one output state per input basis vector ({d_in})")
    d_out = sigmas[0].shape[0]
    if any(s.shape[0] != d_out for s in sigmas):
        raise ValidationError("all output states must share one dimension")
    kraus = []
    for k, sigma in enumerate(sigmas):
        w, u = hermitian_eig(sigma)
        for m in range(len(w)):
            if w[m] <= 1e-14:
                continue
            op = np.zeros((d_out, d_in), dtype=complex)
            op[:, k] = np.sqrt(w[m]) * u[:, m]
            kraus.append(op)
    return KrausChannel(tuple(kraus))


class CqResult(NamedTuple):
    is_cq: bool
    max_commutator: float


class CqDiscreteResult(NamedTuple):
    is_discrete: bool
    basis: np.ndarray | None
    max_commutator: float


def is_cq(channel: QuantumOperation, tol: float = 1e-8) -> CqResult:
    """Test whether the dual images of an operator basis all commute.

    Reports the largest commutator entry so borderline verdicts can be
    audited against the tolerance.
    """
    duals = [dual_apply(channel, e) for e in hermitian_basis(channel.dim_out)]
    worst = 0.0
    for i in range(len(duals)):
        for j in range(i + 1, len(duals)):
            comm = duals[i] @ duals[j] - duals[j] @ duals[i]
            worst = max(worst, float(np.abs(comm).max()))
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
    cq, worst = is_cq(channel, tol)
    if not cq:
        return CqDiscreteResult(False, None, worst)
    duals = [dual_apply(channel, e) for e in hermitian_basis(channel.dim_out)]
    rng = np.random.default_rng(seed)
    for _ in range(max(1, attempts)):
        coeffs = rng.standard_normal(len(duals))
        probe = sum(c * d for c, d in zip(coeffs, duals))
        _, u = hermitian_eig(probe)
        off = 0.0
        for d in duals:
            rot = u.conj().T @ d @ u
            off = max(off, float(np.abs(rot - np.diag(np.diagonal(rot))).max()))
        if off <= max(tol, 10 * worst + 1e-12):
            return CqDiscreteResult(True, u, worst)
    return CqDiscreteResult(False, None, worst)


def restrict(channel: QuantumOperation, basis) -> QuantumOperation:
    """Subchannel on the subspace spanned by the (isometric) ``basis`` columns."""
    v = np.asarray(basis, dtype=complex)
    if v.ndim != 2 or v.shape[0] != channel.dim_in or v.shape[1] > v.shape[0]:
        raise ValidationError("basis must be dim_in x k with k <= dim_in")
    g = v.conj().T @ v
    if float(np.abs(g - np.eye(v.shape[1])).max()) > CHANNEL_TOL:
        raise ValidationError("basis columns are not orthonormal")
    return type(channel)(tuple(k @ v for k in channel.kraus))


def minimize_kraus(op: QuantumOperation, cutoff: float = 1e-12) -> QuantumOperation:
    """Canonical minimal Kraus family from the Choi eigendecomposition."""
    d_in, d_out = op.dim_in, op.dim_out
    vecs = np.stack([k.reshape(-1) for k in op.kraus], axis=1)  # (d_out*d_in, E)
    choi = vecs @ vecs.conj().T
    w, u = hermitian_eig(choi)
    kraus = tuple(
        np.sqrt(w[m]) * u[:, m].reshape(d_out, d_in)
        for m in range(len(w))
        if w[m] > cutoff
    )
    if not kraus:
        raise ValidationError("map vanished below the Kraus cutoff")
    return type(op)(kraus)


def sample_channel(dim_in: int, dim_out: int, kraus_rank: int, seed=0) -> KrausChannel:
    """Random channel from a Haar isometry into output (x) environment."""
    if kraus_rank < 1:
        raise ValidationError("kraus_rank must be positive")
    v = sample_isometry(dim_in, dim_out * kraus_rank, seed)
    blocks = v.reshape(dim_out, kraus_rank, dim_in)
    return KrausChannel(tuple(blocks[:, e, :] for e in range(kraus_rank)))
