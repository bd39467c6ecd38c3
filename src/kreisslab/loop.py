"""Structured controller realizations and closed-loop assembly.

A controller u = C_K x_K + D_K y with state dim n_K >= 0 closes the loop
around a plant (A, B, C).  With Theta = [[A_K, B_K], [C_K, D_K]] and the
states ordered (x, x_K), the closed-loop matrix is affine in Theta
(Gahinet & Apkarian 1994):

    A_cl = Ahat + Bhat Theta Chat = [[A + B D_K C, B C_K],
                                     [B_K C,       A_K ]],
    Ahat = [[A, 0], [0, 0]], Bhat = [[0, B], [I, 0]], Chat = [[0, I], [C, 0]].

closed_loop_map builds (Ahat, Bhat, Chat); assembly, the complementary
sensitivity, the gradient pull-back onto theta and the LMI controller
reconstruction all use it.  The restriction matrix J = [I_n; 0] selects
the physical plant states for the transient channel J^T (sI - A_cl)^{-1} J.
A ControllerStructure fixes which entries of Theta are free decision
variables (the flat vector theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, PreconditionError
from .statespace import StateSpace, tf_to_ss

__all__ = [
    "ControllerRealization",
    "ControllerStructure",
    "ClosedLoop",
    "closed_loop_map",
    "assemble_closed_loop",
    "restriction_matrix",
    "complementary_sensitivity",
]

@dataclass(frozen=True, eq=False)
class ControllerRealization:
    """State-space controller data (A_K, B_K, C_K, D_K); n_K = 0 is static."""

    A_K: np.ndarray
    B_K: np.ndarray
    C_K: np.ndarray
    D_K: np.ndarray

    def __post_init__(self):
        A_K = np.atleast_2d(np.asarray(self.A_K, dtype=float))
        if A_K.size == 0:
            A_K = A_K.reshape(0, 0)
        if A_K.shape[0] != A_K.shape[1]:
            raise DimensionError("A_K must be square")
        n_K = A_K.shape[0]
        D_K = np.atleast_2d(np.asarray(self.D_K, dtype=float))
        if n_K:
            B_K = np.asarray(self.B_K, dtype=float).reshape(n_K, -1)
            C_K = np.asarray(self.C_K, dtype=float).reshape(-1, n_K)
            if C_K.shape[0] != D_K.shape[0] or B_K.shape[1] != D_K.shape[1]:
                raise DimensionError("controller block dimensions disagree")
        else:
            B_K = np.zeros((0, D_K.shape[1]))
            C_K = np.zeros((D_K.shape[0], 0))
        object.__setattr__(self, "A_K", A_K)
        object.__setattr__(self, "B_K", B_K)
        object.__setattr__(self, "C_K", C_K)
        object.__setattr__(self, "D_K", D_K)

    @property
    def n_K(self) -> int:
        return self.A_K.shape[0]

    @property
    def n_meas(self) -> int:
        return self.D_K.shape[1]

    @property
    def n_ctrl(self) -> int:
        return self.D_K.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """Theta = [[A_K, B_K], [C_K, D_K]]."""
        return np.concatenate([np.concatenate([self.A_K, self.B_K], axis=1),
                               np.concatenate([self.C_K, self.D_K], axis=1)])

    @classmethod
    def from_theta(cls, Theta, n_K: int) -> "ControllerRealization":
        Theta = np.atleast_2d(np.asarray(Theta, dtype=float))
        return cls(Theta[:n_K, :n_K], Theta[:n_K, n_K:], Theta[n_K:, :n_K],
                   Theta[n_K:, n_K:])

    @classmethod
    def static(cls, K) -> "ControllerRealization":
        return cls.from_theta(K, 0)

    @classmethod
    def from_tf(cls, num, den) -> "ControllerRealization":
        """SISO controller from transfer-function coefficients."""
        sys = tf_to_ss(num, den)
        return cls(sys.A, sys.B, sys.C, sys.D)

    def dc_gain(self) -> np.ndarray:
        """K(0) = D_K - C_K A_K^{-1} B_K (A_K must be invertible)."""
        if self.n_K == 0:
            return self.D_K.copy()
        if abs(np.linalg.det(self.A_K)) < 1e-300:
            raise PreconditionError("A_K is singular; DC gain undefined")
        return self.D_K - self.C_K @ np.linalg.solve(self.A_K, self.B_K)


@dataclass(frozen=True, eq=False)
class ControllerStructure:
    """Free entries of Theta = [[A_K, B_K], [C_K, D_K]].

    mask is a boolean array shaped like Theta (True = free decision
    variable); fixed entries are zero.  theta stacks the free entries in
    block order A_K, B_K, C_K, D_K, each block row-major.
    """

    n_K: int
    mask: np.ndarray

    @classmethod
    def full(cls, n_K: int, n_meas: int, n_ctrl: int) -> "ControllerStructure":
        return cls(n_K, np.ones((n_K + n_ctrl, n_K + n_meas), dtype=bool))

    @classmethod
    def static(cls, n_meas: int, n_ctrl: int) -> "ControllerStructure":
        return cls.full(0, n_meas, n_ctrl)

    @property
    def n_theta(self) -> int:
        return int(self.mask.sum())

    @cached_property
    def _free(self) -> np.ndarray:
        """Flat indices into Theta of the free entries, in theta's order."""
        rows, cols = np.nonzero(self.mask)
        # 0, 1, 2, 3 for an entry of A_K, B_K, C_K, D_K
        block = 2 * (rows >= self.n_K) + (cols >= self.n_K)
        order = np.argsort(block, kind="stable")
        return (rows * self.mask.shape[1] + cols)[order]

    def pack(self, controller: ControllerRealization) -> np.ndarray:
        return controller.theta.ravel()[self._free]

    def unpack(self, theta) -> ControllerRealization:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_theta:
            raise DimensionError(
                f"theta has {theta.size} entries, structure needs {self.n_theta}")
        Theta = np.zeros(self.mask.shape)
        Theta.flat[self._free] = theta
        return ControllerRealization.from_theta(Theta, self.n_K)

    def grad_from_closed_loop(self, G_A: np.ndarray,
                              plant: StateSpace) -> np.ndarray:
        """Pull a gradient w.r.t. A_cl entries back onto theta.

        G_A[i, j] = d f / d A_cl[i, j]; A_cl = Ahat + Bhat Theta Chat gives
        df/dTheta = Bhat^T G_A Chat^T.
        """
        _, B_hat, C_hat = closed_loop_map(plant, self.n_K)
        return (B_hat.T @ G_A @ C_hat.T).ravel()[self._free]


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop matrix with the plant-state restriction channel."""

    A_cl: np.ndarray
    J: np.ndarray
    B_w_cl: np.ndarray

    def channel(self) -> StateSpace:
        """Transient channel J^T (sI - A_cl)^{-1} J."""
        return StateSpace(self.A_cl, self.J, self.J.T)


def restriction_matrix(n: int, n_K: int) -> np.ndarray:
    return np.vstack([np.eye(n), np.zeros((n_K, n))])


def closed_loop_map(plant: StateSpace, n_K: int):
    """(Ahat, Bhat, Chat) with A_cl = Ahat + Bhat Theta Chat on (x, x_K)."""
    n, p, m = plant.n, plant.p, plant.m
    A_hat = np.zeros((n + n_K, n + n_K))
    A_hat[:n, :n] = plant.A
    B_hat = np.zeros((n + n_K, n_K + p))
    B_hat[:n, n_K:] = plant.B
    B_hat[n:, :n_K] = np.eye(n_K)
    C_hat = np.zeros((n_K + m, n + n_K))
    C_hat[:n_K, n:] = np.eye(n_K)
    C_hat[n_K:, :n] = plant.C
    return A_hat, B_hat, C_hat


def assemble_closed_loop(plant: StateSpace,
                         controller: ControllerRealization,
                         B_w: np.ndarray | None = None) -> ClosedLoop:
    """A_cl = Ahat + Bhat Theta Chat with u = K y.

    B_w, when given, is the plant disturbance channel; B_w_cl stacks it
    over zero rows for the controller states.  Otherwise B_w_cl = J.
    """
    n = plant.n
    if controller.n_meas != plant.m or controller.n_ctrl != plant.p:
        raise DimensionError(
            f"controller ({controller.n_ctrl}x{controller.n_meas}) does not "
            f"match plant ({plant.p} inputs, {plant.m} outputs)")
    n_K = controller.n_K
    A_hat, B_hat, C_hat = closed_loop_map(plant, n_K)
    A_cl = A_hat + (B_hat @ controller.theta) @ C_hat
    J = restriction_matrix(n, n_K)
    if B_w is None:
        B_w_cl = J.copy()
    else:
        B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
        if B_w.shape[0] != n:
            raise DimensionError("B_w must have one row per plant state")
        B_w_cl = np.vstack([B_w, np.zeros((n_K, B_w.shape[1]))])
    return ClosedLoop(A_cl=A_cl, J=J, B_w_cl=B_w_cl)


def complementary_sensitivity(plant: StateSpace,
                              controller: ControllerRealization) -> StateSpace:
    """T = G K (I - G K)^{-1} for the loop closed with u = +K y.

    T has the states (x, x_K) and the A matrix of assemble_closed_loop.
    """
    n_K = controller.n_K
    A_hat, B_hat, C_hat = closed_loop_map(plant, n_K)
    B_theta = B_hat @ controller.theta
    return StateSpace(A_hat + B_theta @ C_hat, B_theta[:, n_K:], C_hat[n_K:])
