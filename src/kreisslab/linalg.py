"""Dense linear-algebra kernels used by every other module.

Thin, contract-checked wrappers around LAPACK-backed numpy/scipy routines:
the maximal singular block of an SVD, Lyapunov solves, the spectral
abscissa and the Hurwitz test.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NumericalError, StabilityError

__all__ = [
    "SvdTriple",
    "svd_triple",
    "solve_lyapunov",
    "spectral_abscissa",
    "is_hurwitz",
    "as_square",
]

#: relative width of the top singular-value cluster returned in Q/P blocks
SV_CLUSTER_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class SvdTriple:
    """Maximal singular block of an SVD.

    Q and P hold the left/right singular vectors of every singular value
    within a relative tolerance of sigma_max, so that near-multiple top
    blocks are treated as one cluster.
    """

    Q: np.ndarray
    P: np.ndarray
    sigma_max: float


def as_square(M, name: str = "M") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} has non-finite entries")
    return M


def svd_triple(M) -> SvdTriple:
    """SVD restricted to the maximal singular cluster.

    Accepts real or complex M; Q/P span all singular directions with
    sigma >= (1 - SV_CLUSTER_RTOL) * sigma_max.
    """
    M = np.asarray(M)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    U, s, Vh = np.linalg.svd(M)
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max == 0.0:
        k = s.size
    else:
        k = int(np.sum(s >= (1.0 - SV_CLUSTER_RTOL) * sigma_max))
        k = max(k, 1)
    return SvdTriple(Q=U[:, :k], P=Vh[:k, :].conj().T, sigma_max=sigma_max)


def solve_lyapunov(A, W) -> np.ndarray:
    """Solve A Q + Q A^T + W = 0 for Hurwitz A and symmetric W."""
    A = as_square(A, "A")
    W = as_square(W, "W")
    if A.shape != W.shape:
        raise DimensionError(f"A {A.shape} and W {W.shape} must agree")
    if not np.allclose(W, W.T, rtol=1e-10, atol=1e-12 * (1 + np.abs(W).max())):
        raise DimensionError("W must be symmetric")
    if not is_hurwitz(A):
        raise StabilityError("A must be Hurwitz for the Lyapunov solve")
    Q = scipy.linalg.solve_continuous_lyapunov(A, -W)
    Q = 0.5 * (Q + Q.T)
    resid = np.linalg.norm(A @ Q + Q @ A.T + W)
    if resid > 1e-9 * max(1.0, np.linalg.norm(W)):
        raise NumericalError(f"Lyapunov residual {resid:.3e} too large")
    return Q


def spectral_abscissa(M) -> float:
    """Maximal real part of the eigenvalues of M."""
    M = as_square(M)
    if M.shape[0] == 0:
        return -np.inf
    return float(np.max(np.linalg.eigvals(M).real))


def is_hurwitz(M) -> bool:
    M = as_square(M)
    if M.shape[0] == 0:
        return True
    return bool(np.max(np.linalg.eigvals(M).real) < 0.0)
