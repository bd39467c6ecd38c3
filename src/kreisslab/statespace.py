"""State-space containers and realization algebra.

A StateSpace holds real matrices (A, B, C, D) for G(s) = C(sI-A)^{-1}B + D
with n states, p inputs and m outputs.  Helpers build SISO realizations from
transfer-function coefficients and compose series / feedback loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, StabilityError
from .linalg import as_square, is_hurwitz

__all__ = ["StateSpace", "tf_to_ss", "series"]


def _as_matrix(M, rows=None, cols=None, name="matrix"):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} has non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise DimensionError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise DimensionError(f"{name} must have {cols} cols, got {M.shape[1]}")
    return M


@dataclass(frozen=True, eq=False)
class StateSpace:
    """G(s) = C(sI - A)^{-1} B + D with a zero D by default."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        A = as_square(self.A, "A")
        B = _as_matrix(self.B, rows=A.shape[0], name="B")
        C = _as_matrix(self.C, cols=A.shape[0], name="C")
        D = self.D
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        D = _as_matrix(D, rows=C.shape[0], cols=B.shape[1], name="D")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def transfer(self, s: complex) -> np.ndarray:
        """Evaluate G(s) at a single complex point."""
        resolvent = np.linalg.solve(s * np.eye(self.n) - self.A, self.B)
        return self.C @ resolvent + self.D

    def is_stable(self) -> bool:
        return is_hurwitz(self.A)

    def require_stable(self, what: str = "operation") -> None:
        if not self.is_stable():
            raise StabilityError(f"{what} requires a Hurwitz A matrix")


def tf_to_ss(num, den) -> StateSpace:
    """Controllable-companion realization of a SISO transfer function.

    num/den are coefficient lists, highest power first.  Biproper transfer
    functions (deg num == deg den) produce a nonzero D by long division.
    """
    num = np.atleast_1d(np.asarray(num, dtype=float))
    den = np.atleast_1d(np.asarray(den, dtype=float))
    den = np.trim_zeros(den, "f")
    if den.size == 0:
        raise DimensionError("denominator is zero")
    num = num / den[0]
    den = den / den[0]
    n = den.size - 1
    if num.size > den.size:
        raise DimensionError("improper transfer function (deg num > deg den)")
    num = np.concatenate([np.zeros(den.size - num.size), num])
    d = num[0]
    rem = num[1:] - d * den[1:]          # strictly proper remainder
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)),
                          np.zeros((1, 0)), np.array([[d]]))
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[1:][::-1]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = rem[::-1].reshape(1, n)
    return StateSpace(A, B, C, np.array([[d]]))


def series(first: StateSpace, second: StateSpace) -> StateSpace:
    """Realization of second(s) @ first(s): input -> first -> second."""
    if first.m != second.p:
        raise DimensionError("series dimensions do not match")
    n1, n2 = first.n, second.n
    A = np.block([
        [first.A, np.zeros((n1, n2))],
        [second.B @ first.C, second.A],
    ])
    B = np.vstack([first.B, second.B @ first.D])
    C = np.hstack([second.D @ first.C, second.C])
    D = second.D @ first.D
    return StateSpace(A, B, C, D)


