"""Dense complex-matrix substrate: states, spectral calculus, tensor algebra.

All operators are plain ``numpy`` arrays.  A density operator is a Hermitian
positive-semidefinite complex matrix; "unit trace" means a state proper,
"sub-unit trace" admits Tr <= 1 (the relaxation used by the extended
entropies).  Validators raise :class:`ValidationError` instead of silently
repairing bad inputs.
"""

from __future__ import annotations

import numbers
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


def _as_complex(a) -> np.ndarray:
    """``a`` as a complex array; a ragged nested list or a non-numeric entry raises a ValidationError."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected a numeric array: {exc}") from None


def _as_matrix(a) -> np.ndarray:
    m = _as_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def _is_integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _indices(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a ValidationError unless it is an iterable of integers (numpy's too, no bool)."""
    ints = tuple(values) if np.iterable(values) else (None,)
    if not all(_is_integer(v) for v in ints):
        raise ValidationError(f"{what} must be integers: {values!r}")
    return tuple(int(v) for v in ints)


@dataclass(frozen=True)
class CompositeLayout:
    """Ordered subsystem dimensions (and optional names) of a composite space."""

    dims: tuple[int, ...]
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        dims = _indices(self.dims, "subsystem dimensions")
        object.__setattr__(self, "dims", dims)
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be positive: {dims}")
        labels = tuple(self.labels) or tuple(f"S{i}" for i in range(len(dims)))
        if len(labels) != len(dims):
            raise ValidationError("labels and dims must have equal length")
        object.__setattr__(self, "labels", labels)

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
        v = _as_complex(self.vec).reshape(-1)
        object.__setattr__(self, "vec", v)
        if v.shape[0] != self.layout.total_dim:
            raise ValidationError("vector length does not match layout")
        if abs(np.linalg.norm(v) - 1.0) > 1e-10:
            raise ValidationError("pure vector must have unit norm")

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def _coerce_layout(layout) -> CompositeLayout:
    return layout if isinstance(layout, CompositeLayout) else CompositeLayout(layout)


def assert_hermitian(a, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within max-norm ``tol`` and return the array."""
    m = _as_matrix(a)
    _hermitian_part(m, tol, name)
    return m


def _hermitian_part(s, tol: float, name: str) -> np.ndarray:
    """``(s + s†) / 2`` of one matrix or a stack ``s``, once every entry is finite and within ``tol`` of ``s†``."""
    h = s.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf deviations fail below
        dev = np.abs(s - h).max(initial=0.0)
    if not dev <= tol:  # a NaN deviation fails too
        if not np.isfinite(s).all():
            raise ValidationError(f"{name} contains non-finite entries")
        raise ValidationError(f"{name} is not Hermitian: max deviation {dev:.3e} > {tol:.1e}")
    return 0.5 * (s + h)


def assert_density_operator(rho, unit_trace: bool = True, tol: float = TRACE_TOL, name: str = "state") -> np.ndarray:
    """Validate a density operator (Hermitian, PSD, unit or sub-unit trace) with one checked eigensolver call."""
    m = _as_matrix(rho)
    _spectra(m, name, unit_trace=unit_trace, tol=tol)
    return m


def _spectra(stack, name: str = "operator", vectors: bool = False, unit_trace: bool = False, tol: float = TRACE_TOL):
    """Checked entry of the spectral kernel, for operators from outside the library: one or a stack ``(..., d, d)``
    of them must be finite, Hermitian within ``HERMITICITY_TOL``, PSD within ``PSD_TOL`` and of trace 1 within
    ``tol`` (``unit_trace``) or at most ``1 + tol``.  Returns what :func:`_eig` does, without vectors unless asked."""
    s = _as_complex(stack)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {s.shape}")
    h = _hermitian_part(s, HERMITICITY_TOL, name)
    w, u = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    w, t = _clip_psd(w, name), np.trace(s, axis1=-2, axis2=-1).real
    ok = abs(t - 1.0) <= tol if unit_trace else t <= 1.0 + tol
    if not ok.all():
        tr = float(t[~ok].flat[0])
        raise ValidationError(f"{name} trace {tr!r} {'deviates from' if unit_trace else 'exceeds'} 1 beyond {tol:.1e}")
    return (w, u) if vectors else w


def _eig(stack, name: str = "operator", vectors: bool = True):
    """Bare entry of the spectral kernel, for operators the library built: eigenvalues (ascending, clipped at 0)
    and, if ``vectors``, eigenvectors of one Hermitian PSD matrix or a stack ``(..., d, d)`` from one eigensolver
    call on the lower triangle.  A non-finite entry or an eigenvalue below ``-PSD_TOL`` raises a ValidationError."""
    if not np.isfinite(stack.sum()):  # LAPACK may return finite spectra of a NaN matrix
        raise ValidationError(f"{name} contains non-finite entries")
    w, u = np.linalg.eigh(stack) if vectors else (np.linalg.eigvalsh(stack), None)
    return (_clip_psd(w, name), u) if vectors else _clip_psd(w, name)


def _clip_psd(w, name: str):
    """Eigenvalues clipped at zero; a ValidationError if one lies below ``-PSD_TOL``."""
    if w.size and not float(w.min()) >= -PSD_TOL:
        raise ValidationError(f"{name} has negative eigenvalue {float(w.min()):.3e}")
    return np.maximum(w, 0.0)


def hermitian_eig(a, tol: float = HERMITICITY_TOL):
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, u)`` with ``a = u @ diag(w) @ u†`` and ``u`` unitary; the
    columns of ``u`` follow the descending order of ``w``.
    """
    w, u = np.linalg.eigh(_hermitian_part(_as_matrix(a), tol, "matrix"))
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
    keep = sorted(set(_indices(keep, "keep indices")))
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
    order = list(_indices(order, "order"))
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
    w, u = _spectra(_as_matrix(rho), "state", vectors=True, unit_trace=True)
    phi = (u[:, ::-1] * np.sqrt(w[::-1] / w.sum())).reshape(-1)  # phi[a*d + k] = sqrt(p_k) u[a, k], p descending
    return PureVector(phi, CompositeLayout((len(w), len(w)), ("A", "R")))


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the d x d matrix algebra (d^2 elements)."""
    eye = np.eye(d, dtype=complex)
    basis = [np.outer(e, e) for e in eye]
    for i in range(d):
        for j in range(i + 1, d):
            ij, ji = np.outer(eye[i], eye[j]), np.outer(eye[j], eye[i])
            basis += [(ij + ji) / np.sqrt(2.0), 1j * (ij - ji) / np.sqrt(2.0)]
    return basis


def sample_pure(dim: int, seed=0) -> PureVector:
    """Haar-random pure state from normalized complex Gaussian entries."""
    if not _is_integer(dim) or dim < 1:
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return PureVector(v, CompositeLayout((dim,)))


def sample_state(dim: int, rank: int | None = None, seed=0) -> np.ndarray:
    """Random density operator of the given rank (default: full rank).

    Obtained as the partial trace of a random pure vector on ``dim x rank``,
    which is the standard unitarily invariant construction.
    """
    if not _is_integer(dim) or dim < 1:
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    rank = dim if rank is None else rank
    if not _is_integer(rank) or not 1 <= rank <= dim:
        raise ValidationError(f"rank must be an integer in [1, {dim}], got {rank!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def sample_isometry(d_in: int, d_out: int, seed=0) -> np.ndarray:
    """Random isometry ``V`` (d_out x d_in) with ``V† V = I``.

    QR orthonormalization of a complex Gaussian matrix, with column phases
    fixed so the factor is Haar-distributed and reproducible.
    """
    if not (_is_integer(d_in) and _is_integer(d_out) and 1 <= d_in <= d_out):
        raise ValidationError(f"need integers d_out >= d_in >= 1, got ({d_in!r}, {d_out!r})")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    phases = diag / np.abs(np.where(np.abs(diag) > 0, diag, 1.0))
    return q * phases.conj()


def sample_hermitian(dim: int, seed=0, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE-type)."""
    if not _is_integer(dim) or dim < 1:
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)
