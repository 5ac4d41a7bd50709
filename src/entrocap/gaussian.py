"""Bosonic Gaussian channel parameters, validity, classification, a
covariance-matrix MI oracle for any valid channel on a thermal product
input, and the Fock-truncated single-mode pure-loss attenuator.

Conventions: the symplectic form is the block form [[0, 1], [-1, 0]] per
mode and the vacuum covariance is I/2, so channel validity reads
``alpha >= +/- (i/2)(Delta_B - K^T Delta_A K)`` as two Hermitian PSD
conditions.  ``K`` maps the output symplectic space into the input one,
matching the dual action on Weyl generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .errors import _DENSE_ENTRIES, ResourceLimitError, ValidationError
from .linalg import _is_integer

__all__ = [
    "GaussianChannelParams",
    "GaussianState",
    "SymplecticSpace",
    "attenuator_params",
    "classify_gaussian",
    "fock_attenuator",
    "gaussian_mi_oracle",
    "mean_photon_entropy",
    "number_operator",
    "random_symplectic",
    "standard_symplectic_form",
    "symplectic_eigenvalues",
    "thermal_gaussian_state",
    "thermal_state",
    "validate_gaussian",
]


def standard_symplectic_form(modes: int) -> np.ndarray:
    """Direct sum of [[0, 1], [-1, 0]] blocks."""
    if modes < 1:
        raise ValidationError("mode count must be positive")
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class SymplecticSpace:
    """Even-dimensional real space with a nondegenerate skew-symmetric form."""

    dim: int
    form: np.ndarray

    def __post_init__(self):
        if not _is_integer(self.dim) or self.dim < 2 or self.dim % 2:
            raise ValidationError(f"symplectic dimension must be an even integer >= 2, got {self.dim!r}")
        d = int(self.dim)
        delta = np.asarray(self.form, dtype=float)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "form", delta)
        if delta.shape != (d, d):
            raise ValidationError("form shape does not match dimension")
        if np.abs(delta + delta.T).max() > 1e-12:
            raise ValidationError("symplectic form must be skew-symmetric")
        if abs(np.linalg.det(delta)) < 1e-12:
            raise ValidationError("symplectic form must be nondegenerate")

    @classmethod
    def standard(cls, modes: int) -> "SymplecticSpace":
        return cls(2 * modes, standard_symplectic_form(modes))

    @property
    def modes(self) -> int:
        return self.dim // 2


@dataclass(frozen=True)
class GaussianChannelParams:
    """Gaussian channel data (K, l, alpha) between two symplectic spaces.

    ``K`` is a real (dim_A x dim_B) matrix acting on output-side symplectic
    vectors, ``l`` a real output-side vector, ``alpha`` a real symmetric
    output-side matrix.
    """

    K: np.ndarray
    l: np.ndarray
    alpha: np.ndarray
    space_in: SymplecticSpace
    space_out: SymplecticSpace

    def __post_init__(self):
        k = np.asarray(self.K, dtype=float)
        vec = np.asarray(self.l, dtype=float).reshape(-1)
        alpha = np.asarray(self.alpha, dtype=float)
        da, db = self.space_in.dim, self.space_out.dim
        if k.shape != (da, db):
            raise ValidationError(f"K must be {da} x {db}, got {k.shape}")
        if vec.shape != (db,):
            raise ValidationError(f"l must have length {db}")
        if alpha.shape != (db, db):
            raise ValidationError(f"alpha must be {db} x {db}")
        if np.abs(alpha - alpha.T).max() > 1e-12:
            raise ValidationError("alpha must be symmetric")
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "l", vec)
        object.__setattr__(self, "alpha", alpha)


def attenuator_params(eta: float, env_photons: float = 0.0) -> GaussianChannelParams:
    """Single-mode attenuator: K = sqrt(eta) I, alpha = (1-eta)(2N_E+1)/2 I."""
    if not 0.0 < eta <= 1.0:
        raise ValidationError(f"attenuation must satisfy 0 < eta <= 1, got {eta}")
    if not 0.0 <= env_photons < math.inf:
        raise ValidationError(f"environment photon number must be finite and nonnegative, got {env_photons!r}")
    space = SymplecticSpace.standard(1)
    k = math.sqrt(eta) * np.eye(2)
    alpha = (1.0 - eta) * (2.0 * env_photons + 1.0) / 2.0 * np.eye(2)
    return GaussianChannelParams(k, np.zeros(2), alpha, space, space)


def validate_gaussian(params: GaussianChannelParams, tol: float = 1e-10) -> dict:
    """Check alpha -/+ (i/2)(Delta_B - K^T Delta_A K) >= 0 for both signs."""
    mism = params.space_out.form - params.K.T @ params.space_in.form @ params.K
    mins = []
    for sign in (1.0, -1.0):
        h = params.alpha.astype(complex) + sign * 0.5j * mism
        mins.append(float(np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min()))
    binding = min(mins)
    return {
        "valid": binding >= -tol,
        "min_eig_both_signs": tuple(mins),
        "min_eig": binding,
    }


def classify_gaussian(params: GaussianChannelParams, tol: float = 1e-12, rank_tol: float = 1e-10) -> dict:
    """Commutativity classification of the dual image of the Weyl generators.

    ``cq`` iff K^T Delta_A K = 0; among those, ``discrete_type`` iff K = 0
    (complete depolarization); ``no_discrete_subchannel`` iff K has full rank
    equal to the input symplectic dimension.
    """
    twisted = params.K.T @ params.space_in.form @ params.K
    cq = float(np.abs(twisted).max()) <= tol
    discrete = cq and float(np.abs(params.K).max()) <= tol
    rank = int((np.linalg.svd(params.K, compute_uv=False) > rank_tol).sum())
    return {
        "cq": bool(cq),
        "discrete_type": bool(discrete),
        "no_discrete_subchannel": bool(rank == params.space_in.dim),
        "twisted_norm": float(np.abs(twisted).max()),
        "rank_K": rank,
    }


def random_symplectic(dim: int, seed=0, scale: float = 0.4) -> np.ndarray:
    """Random symplectic matrix exp(Delta Q) with Q symmetric Gaussian."""
    from scipy.linalg import expm  # imported here: it is most of the package's import time

    if dim < 2 or dim % 2:
        raise ValidationError("dimension must be even")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    q = scale * 0.5 * (q + q.T)
    delta = standard_symplectic_form(dim // 2)
    return expm(delta @ q)


def symplectic_eigenvalues(cov, delta=None) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix (each value >= 1/2 if valid)."""
    cov = np.asarray(cov, dtype=float)
    if delta is None:
        delta = standard_symplectic_form(cov.shape[0] // 2)
    ev = np.linalg.eigvals(np.linalg.inv(delta) @ cov)
    nus = np.sort(np.abs(ev.imag))[::-1]
    return nus[::2]  # eigenvalues come in +/- i nu pairs


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of a Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        d = mean.shape[0]
        if d < 2 or d % 2:
            raise ValidationError("Gaussian state dimension must be even")
        if cov.shape != (d, d) or np.abs(cov - cov.T).max() > 1e-10:
            raise ValidationError("covariance must be symmetric of matching shape")
        delta = standard_symplectic_form(d // 2)
        h = cov.astype(complex) + 0.5j * delta
        if float(np.linalg.eigvalsh(0.5 * (h + h.conj().T)).min()) < -1e-10:
            raise ValidationError("covariance violates the uncertainty condition")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.shape[0] // 2


def thermal_gaussian_state(mean_photons: float) -> GaussianState:
    if not 0.0 <= mean_photons < math.inf:
        raise ValidationError(f"mean photon number must be finite and nonnegative, got {mean_photons!r}")
    v = (2.0 * mean_photons + 1.0) / 2.0
    return GaussianState(np.zeros(2), v * np.eye(2))


def mean_photon_entropy(n: float) -> float:
    """g(N) = (N+1) log2(N+1) - N log2 N, the thermal-state entropy in bits."""
    if n < 1e-300:  # also clips a slightly negative n from rounding
        return 0.0
    return float((n + 1.0) * math.log2(n + 1.0) - n * math.log2(n))


_FOCK_ENTRIES = _DENSE_ENTRIES  # one dense Fock array: cutoff <= 255 (attenuator), <= 4095 (state)


def _fock_dim(cutoff, least: int, power: int) -> int:
    """``cutoff + 1`` for an integer cutoff >= ``least`` whose dense ``(cutoff + 1)**power`` array fits the limit."""
    if not _is_integer(cutoff) or cutoff < least:
        raise ValidationError(f"cutoff must be an integer >= {least}, got {cutoff!r}")
    dim = int(cutoff) + 1  # a Python int: dim**power must not wrap
    if dim**power > _FOCK_ENTRIES:
        raise ResourceLimitError(f"cutoff {cutoff} needs {dim**power} dense entries, over the limit of {_FOCK_ENTRIES}")
    return dim


def fock_attenuator(eta: float, cutoff: int) -> KrausChannel:
    """Pure-loss channel on the Fock space truncated at ``cutoff`` photons.

    Kraus operator ell removes ell photons with binomial amplitudes; photon
    loss never leaves the truncated space, so after normalizing the columns
    the family is exactly trace preserving on it.
    """
    if not 0.0 < eta < 1.0:
        raise ValidationError(f"attenuation must satisfy 0 < eta < 1, got {eta}")
    dim = _fock_dim(cutoff, 2, 3)
    ops = np.zeros((dim, dim, dim))  # (ell, m, n)
    for n in range(dim):
        for ell in range(n + 1):
            amp = math.sqrt(math.comb(n, ell) * eta ** (n - ell) * (1.0 - eta) ** ell)
            ops[ell, n - ell, n] = amp
    col_norm = np.sqrt(np.einsum("lmn->n", ops**2))
    ops /= col_norm[None, None, :]
    return KrausChannel(ops)


def thermal_state(mean_photons: float, cutoff: int) -> np.ndarray:
    """Truncated and renormalized thermal state diag((N/(N+1))^n)."""
    if not 0.0 <= mean_photons < math.inf:
        raise ValidationError(f"mean photon number must be finite and nonnegative, got {mean_photons!r}")
    dim = _fock_dim(cutoff, 0, 2)
    # at N = 0 the ratio is 0 and 0.0**0 = 1, so this is the vacuum
    probs = (mean_photons / (mean_photons + 1.0)) ** np.arange(dim, dtype=float)
    probs /= probs.sum()
    return np.diag(probs).astype(complex)


def number_operator(cutoff: int) -> np.ndarray:
    """Photon-number observable diag(0, 1, ..., cutoff)."""
    return np.diag(np.arange(_fock_dim(cutoff, 0, 2), dtype=float)).astype(complex)


def _entropy_bits(cov) -> float:
    """Von Neumann entropy of a Gaussian state: the sum of g(nu - 1/2) over its symplectic spectrum."""
    return sum(mean_photon_entropy(nu - 0.5) for nu in symplectic_eigenvalues(cov))


def gaussian_mi_oracle(params: GaussianChannelParams, state: GaussianState) -> float:
    """Mutual information of a Gaussian channel on a thermal product input, in bits.

    Accepts any valid (K, alpha) between standard symplectic spaces and an
    input of thermal modes, as many as the channel takes; anything else is a
    ValidationError.  I = S(A) + S(B) - S(BR): A is the input V with thermal
    variances nu, B the output ``K^T V K + alpha``, BR the output joined to
    the purifying reference (cross block ``K^T (diag sqrt(nu^2 - 1/4) (x) Z)``,
    Z = diag(1, -1); reference block V), which has the environment's entropy,
    so no dilation is built.  Pure loss gives ``g(N) + g(eta N) - g((1-eta) N)``.
    """
    if not validate_gaussian(params)["valid"]:
        raise ValidationError("invalid Gaussian channel parameters")
    for space in (params.space_in, params.space_out):
        if not np.array_equal(space.form, standard_symplectic_form(space.modes)):
            raise ValidationError("oracle supports the standard symplectic form only")
    if state.modes != params.space_in.modes:
        raise ValidationError(f"input mode count {state.modes} differs from the channel's {params.space_in.modes}")
    cov = state.cov
    nus = np.diag(cov)[::2]
    if np.abs(cov - np.diag(np.repeat(nus, 2))).max() > 1e-10:
        raise ValidationError("oracle supports thermal product inputs only")
    # the clip absorbs a vacuum variance that passed the uncertainty check just below 1/2
    cross = params.K.T @ np.kron(np.diag(np.sqrt(np.maximum(nus**2 - 0.25, 0.0))), np.diag([1.0, -1.0]))
    out = params.K.T @ cov @ params.K + params.alpha
    joint = np.block([[out, cross], [cross.T, cov]])
    return sum(mean_photon_entropy(nu - 0.5) for nu in nus) + _entropy_bits(out) - _entropy_bits(joint)
