"""Dense complex-matrix substrate: states, spectral calculus, tensor algebra.

All operators are plain ``numpy`` arrays.  A density operator is a Hermitian
positive-semidefinite complex matrix; "unit trace" means a state proper,
"sub-unit trace" admits Tr <= 1 (the relaxation used by the extended
entropies).  Validators raise :class:`ValidationError` instead of silently
repairing bad inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "CompositeLayout",
    "PureVector",
    "assert_density_operator",
    "assert_hermitian",
    "hermitian_basis",
    "hermitian_eig",
    "hermitian_log2",
    "partial_trace",
    "permute_subsystems",
    "purify",
    "sample_hermitian",
    "sample_isometry",
    "sample_pure",
    "sample_state",
    "tensor",
]

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10

LN2 = np.log(2.0)


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class CompositeLayout:
    """Ordered subsystem dimensions (and optional names) of a composite space."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be positive: {dims}")
        if self.labels:
            labels = tuple(self.labels)
            if len(labels) != len(dims):
                raise ValidationError("labels and dims must have equal length")
            object.__setattr__(self, "labels", labels)
        else:
            object.__setattr__(self, "labels", tuple(f"S{i}" for i in range(len(dims))))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def check_operator(self, x: np.ndarray):
        if x.shape[0] != self.total_dim:
            raise ValidationError(
                f"operator dim {x.shape[0]} does not match layout product {self.total_dim}"
            )


@dataclass(frozen=True)
class PureVector:
    """Unit-norm complex vector on a composite space."""

    vec: np.ndarray
    layout: CompositeLayout

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        object.__setattr__(self, "vec", v)
        if v.shape[0] != self.layout.total_dim:
            raise ValidationError("vector length does not match layout")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValidationError("pure vector must have unit norm")

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def _coerce_layout(layout) -> CompositeLayout:
    if isinstance(layout, CompositeLayout):
        return layout
    return CompositeLayout(tuple(int(d) for d in layout))


def assert_hermitian(a, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within max-norm ``tol`` and return the array."""
    m = _as_matrix(a)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf deviations fail below
        dev = np.abs(m - m.conj().T).max() if m.size else 0.0
    if not dev <= tol:  # a NaN deviation fails too
        if not np.isfinite(m).all():
            raise ValidationError(f"{name} contains non-finite entries")
        raise ValidationError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return m


def assert_density_operator(
    rho,
    unit_trace: bool = True,
    tol: float = TRACE_TOL,
    name: str = "state",
) -> np.ndarray:
    """Validate a density operator (Hermitian, PSD, unit or sub-unit trace)."""
    m = assert_hermitian(rho, name=name)
    eig_min = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()) if m.size else 0.0
    if not eig_min >= -PSD_TOL:
        raise ValidationError(f"{name} is not PSD: min eigenvalue {eig_min:.3e}")
    tr = float(np.trace(m).real)
    if unit_trace:
        if not abs(tr - 1.0) <= tol:
            raise ValidationError(f"{name} trace {tr!r} deviates from 1 beyond {tol:.1e}")
    elif not tr <= 1.0 + tol:
        raise ValidationError(f"{name} trace {tr!r} exceeds 1 beyond {tol:.1e}")
    return m


def hermitian_eig(a, tol: float = HERMITICITY_TOL):
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, u)`` with ``a = u @ diag(w) @ u†`` and ``u`` unitary; the
    columns of ``u`` follow the descending order of ``w``.
    """
    m = assert_hermitian(a, tol=tol)
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    return w[::-1].copy(), u[:, ::-1].copy()


def hermitian_log2(a, floor: float = 1e-30) -> np.ndarray:
    """Matrix log base 2 of a PSD matrix, flooring eigenvalues at ``floor``.

    The floor keeps the log finite on (numerically) singular inputs; callers
    rely on structural-kernel contributions cancelling downstream.
    """
    return _log2_from_eig(*hermitian_eig(a), floor)


def _log2_from_eig(w, u, floor: float = 1e-30) -> np.ndarray:
    """Matrix log base 2 of one or a stack of matrices from eigenvalues ``w`` and eigenvectors ``u``."""
    return (u * np.log2(np.maximum(w, floor))[..., None, :]) @ u.conj().swapaxes(-1, -2)


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more operators (or vectors)."""
    if not ops:
        raise ValidationError("tensor() needs at least one operand")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace(x, layout, keep) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    ``layout`` is a :class:`CompositeLayout` or a plain sequence of dims;
    ``keep`` is an iterable of subsystem indices, preserved in their original
    order.
    """
    lay = _coerce_layout(layout)
    m = _as_matrix(x)
    lay.check_operator(m)
    dims = lay.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    # contract row/col indices of every traced subsystem
    for k in reversed([i for i in range(n) if i not in keep]):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def permute_subsystems(x, layout, order) -> np.ndarray:
    """Reorder the tensor factors of an operator according to ``order``."""
    lay = _coerce_layout(layout)
    m = _as_matrix(x)
    lay.check_operator(m)
    dims = lay.dims
    n = len(dims)
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValidationError(f"order {order} is not a permutation of {n} subsystems")
    t = m.reshape(dims + dims)
    t = t.transpose(order + [i + n for i in order])
    d = lay.total_dim
    return t.reshape(d, d)


def purify(rho) -> PureVector:
    """Canonical eigen-purification of a unit-trace state.

    For ``rho = sum_k p_k |v_k><v_k|`` the result is
    ``sum_k sqrt(p_k) |v_k> (x) |k>`` with a reference factor of the same
    dimension; tracing out the reference recovers ``rho``.
    """
    m = assert_density_operator(rho, unit_trace=True)
    d = m.shape[0]
    w, u = hermitian_eig(m)
    w = np.clip(w.real, 0.0, None)
    phi = (u * np.sqrt(w)).reshape(-1)  # phi[a*d + k] = sqrt(p_k) u[a, k]
    phi = phi / np.linalg.norm(phi)
    return PureVector(phi, CompositeLayout((d, d), ("A", "R")))


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the d x d matrix algebra (d^2 elements)."""
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            f = np.zeros((d, d), dtype=complex)
            f[i, j] = 1j / np.sqrt(2.0)
            f[j, i] = -1j / np.sqrt(2.0)
            basis.append(f)
    return basis


def sample_pure(dim: int, seed=0) -> PureVector:
    """Haar-random pure state from normalized complex Gaussian entries."""
    if dim < 1:
        raise ValidationError("dim must be positive")
    rng = _rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return PureVector(v, CompositeLayout((dim,)))


def sample_state(dim: int, rank: int | None = None, seed=0) -> np.ndarray:
    """Random density operator of the given rank (default: full rank).

    Obtained as the partial trace of a random pure vector on ``dim x rank``,
    which is the standard unitarily invariant construction.
    """
    if dim < 1:
        raise ValidationError("dim must be positive")
    rank = dim if rank is None else int(rank)
    if rank < 1 or rank > dim:
        raise ValidationError(f"rank must lie in [1, {dim}], got {rank}")
    rng = _rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def sample_isometry(d_in: int, d_out: int, seed=0) -> np.ndarray:
    """Random isometry ``V`` (d_out x d_in) with ``V† V = I``.

    QR orthonormalization of a complex Gaussian matrix, with column phases
    fixed so the factor is Haar-distributed and reproducible.
    """
    if d_out < d_in or d_in < 1:
        raise ValidationError(f"need d_out >= d_in >= 1, got ({d_in}, {d_out})")
    rng = _rng(seed)
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))
    return q * phases.conj()


def sample_hermitian(dim: int, seed=0, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE-type)."""
    rng = _rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)
