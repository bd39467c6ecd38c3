"""Dense linear-algebra kernels used by every other module.

Contract-checked kernels on numpy's LAPACK routines alone: the maximal
singular block of an SVD, Lyapunov solves (one dense solve of the
Kronecker-sum system), the matrix exponential of a stack of matrices
(scaling and squaring with the degree-13 Pade approximant of Higham, SIAM
J. Matrix Anal. Appl. 26(4), 2005), the diagonal balancing of Parlett and
Reinsch (Numer. Math. 13, 1969) by powers of two, which numpy does not
expose, block-diagonal assembly, the spectral abscissa and the Hurwitz
test.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError, StabilityError

__all__ = [
    "SvdTriple",
    "svd_triple",
    "solve_lyapunov",
    "expm",
    "balance",
    "block_diag",
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
    Q = _kron_lyapunov(A, W)
    Q = 0.5 * (Q + Q.T)
    resid = np.linalg.norm(A @ Q + Q @ A.T + W)
    if resid > 1e-9 * max(1.0, np.linalg.norm(W)):
        raise NumericalError(f"Lyapunov residual {resid:.3e} too large")
    return Q


def _kron_lyapunov(A, W) -> np.ndarray:
    """X with A X + X A^T + W = 0, from one dense solve of
    (A (x) I + I (x) A) vec X = -vec W: n^2 unknowns, 144 at n = 12."""
    eye = np.eye(A.shape[0])
    K = np.kron(A, eye) + np.kron(eye, A)
    return np.linalg.solve(K, -W.ravel()).reshape(A.shape)


# numerator coefficients b_0..b_13 of the degree-13 Pade approximant to e^x
# and the 1-norm up to which it is accurate to double precision (Higham 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """e^A of every matrix of a stack A, shaped (..., n, n).

    Each matrix is scaled by 2^-s, with s the least s >= 0 that brings its
    1-norm to at most theta_13, gets the degree-13 Pade approximant and
    then only its own s squarings, so its value does not depend on the rest
    of the stack.  Raises NumericalError when a 1-norm is not finite.
    """
    A = np.asarray(A, dtype=float)
    shape = A.shape
    A = A.reshape(int(np.prod(shape[:-2])), shape[-1], shape[-1])
    norm = np.abs(A).sum(axis=1).max(axis=1, initial=0.0)
    if not np.isfinite(norm).all():
        raise NumericalError("expm of a matrix whose 1-norm is not finite")
    with np.errstate(divide="ignore"):
        s = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0)
    A = A * np.exp2(-s)[:, None, None]
    b = _PADE13
    eye = np.eye(shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0.0))):
        more = s > j
        R[more] = R[more] @ R[more]
    return R.reshape(shape)


def balance(A) -> np.ndarray:
    """d, powers of two, such that diag(d)^{-1} A diag(d) is balanced.

    Parlett and Reinsch's sweeps: state i is rescaled by the power of two
    that brings the off-diagonal 1-norms of its column and row closest to
    each other, and only while that lowers their sum by at least 5 %.  A
    state whose off-diagonal column or row is zero keeps d_i = 1.  Every
    scaling is exact, so the similarity adds no rounding.
    """
    A = as_square(A, "A").copy()
    d = np.ones(A.shape[0])
    done = False
    while not done:
        done = True
        for i in range(A.shape[0]):
            c = np.abs(A[:, i]).sum() - abs(A[i, i])
            r = np.abs(A[i]).sum() - abs(A[i, i])
            if c == 0.0 or r == 0.0:
                continue
            f, total = 1.0, c + r
            while c < r / 2.0:
                f, c = 2.0 * f, 4.0 * c
            while c >= 2.0 * r:
                f, c = f / 2.0, c / 4.0
            if c + r < 0.95 * total * f:
                done = False
                d[i] *= f
                A[:, i] *= f
                A[i] /= f
    return d


def block_diag(*blocks) -> np.ndarray:
    """The block-diagonal matrix of 2-D blocks, zero off the blocks."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


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
