"""Structured controller realizations and closed-loop assembly.

A controller u = C_K x_K + D_K y with state dim n_K >= 0 closes the loop
around a plant (A, B, C), giving

    A_cl = [[A + B D_K C, B C_K],
            [B_K C,       A_K ]].

The restriction matrix J = [I_n; 0] selects the physical plant states for
the transient channel J^T (sI - A_cl)^{-1} J.  A ControllerStructure fixes
which controller entries are free decision variables (the flat vector
theta) and maps gradients with respect to A_cl back onto theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PreconditionError
from .statespace import StateSpace, tf_to_ss

__all__ = [
    "ControllerRealization",
    "ControllerStructure",
    "ClosedLoop",
    "assemble_closed_loop",
    "restriction_matrix",
    "complementary_sensitivity",
]

_BLOCKS = ("A_K", "B_K", "C_K", "D_K")


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

    @classmethod
    def static(cls, K) -> "ControllerRealization":
        K = np.atleast_2d(np.asarray(K, dtype=float))
        return cls(np.zeros((0, 0)), np.zeros((0, K.shape[1])),
                   np.zeros((K.shape[0], 0)), K)

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
    """Free/fixed entry masks for each controller block.

    masks[name] is a boolean array (True = free decision variable); fixed
    values elsewhere come from base[name].  theta stacks the free entries
    in block order A_K, B_K, C_K, D_K, row-major.
    """

    n_K: int
    n_meas: int
    n_ctrl: int
    masks: dict
    base: dict

    @classmethod
    def full(cls, n_K: int, n_meas: int, n_ctrl: int) -> "ControllerStructure":
        shapes = _shapes(n_K, n_meas, n_ctrl)
        masks = {k: np.ones(s, dtype=bool) for k, s in shapes.items()}
        base = {k: np.zeros(s) for k, s in shapes.items()}
        return cls(n_K, n_meas, n_ctrl, masks, base)

    @classmethod
    def static(cls, n_meas: int, n_ctrl: int) -> "ControllerStructure":
        return cls.full(0, n_meas, n_ctrl)

    @classmethod
    def static_masked(cls, mask) -> "ControllerStructure":
        """Static feedback with a sparsity pattern on D_K."""
        mask = np.atleast_2d(np.asarray(mask, dtype=bool))
        out = cls.full(0, mask.shape[1], mask.shape[0])
        out.masks["D_K"][:] = mask
        return out

    @property
    def n_theta(self) -> int:
        return int(sum(m.sum() for m in self.masks.values()))

    def pack(self, controller: ControllerRealization) -> np.ndarray:
        vals = {"A_K": controller.A_K, "B_K": controller.B_K,
                "C_K": controller.C_K, "D_K": controller.D_K}
        return np.concatenate([vals[k][self.masks[k]] for k in _BLOCKS])

    def unpack(self, theta) -> ControllerRealization:
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.n_theta:
            raise DimensionError(
                f"theta has {theta.size} entries, structure needs {self.n_theta}")
        out = {}
        at = 0
        for k in _BLOCKS:
            block = self.base[k].copy()
            cnt = int(self.masks[k].sum())
            block[self.masks[k]] = theta[at:at + cnt]
            at += cnt
            out[k] = block
        return ControllerRealization(out["A_K"], out["B_K"], out["C_K"],
                                     out["D_K"])

    def grad_from_closed_loop(self, G_A: np.ndarray,
                              plant: StateSpace) -> np.ndarray:
        """Pull a gradient w.r.t. A_cl entries back onto theta.

        G_A[i, j] = d f / d A_cl[i, j]; the A_cl block layout gives
        df/dD_K = B^T G11 C^T, df/dC_K = B^T G12, df/dB_K = G21 C^T,
        df/dA_K = G22.
        """
        n = plant.n
        G11 = G_A[:n, :n]
        G12 = G_A[:n, n:]
        G21 = G_A[n:, :n]
        G22 = G_A[n:, n:]
        grads = {
            "A_K": G22,
            "B_K": G21 @ plant.C.T,
            "C_K": plant.B.T @ G12,
            "D_K": plant.B.T @ G11 @ plant.C.T,
        }
        return np.concatenate([grads[k][self.masks[k]] for k in _BLOCKS])


def _shapes(n_K, n_meas, n_ctrl):
    return {"A_K": (n_K, n_K), "B_K": (n_K, n_meas),
            "C_K": (n_ctrl, n_K), "D_K": (n_ctrl, n_meas)}


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """Closed-loop matrix with the plant-state restriction channel."""

    A_cl: np.ndarray
    J: np.ndarray
    B_w_cl: np.ndarray
    n: int
    n_K: int

    def channel(self) -> StateSpace:
        """Transient channel J^T (sI - A_cl)^{-1} J."""
        return StateSpace(self.A_cl, self.J, self.J.T)


def restriction_matrix(n: int, n_K: int) -> np.ndarray:
    return np.vstack([np.eye(n), np.zeros((n_K, n))])


def assemble_closed_loop(plant: StateSpace,
                         controller: ControllerRealization,
                         B_w: np.ndarray | None = None) -> ClosedLoop:
    """A_cl = [[A + B D_K C, B C_K], [B_K C, A_K]] with u = K y.

    B_w, when given, is the plant disturbance channel; B_w_cl stacks it
    over zero rows for the controller states.  Otherwise B_w_cl = J.
    """
    n = plant.n
    if controller.n_meas != plant.m or controller.n_ctrl != plant.p:
        raise DimensionError(
            f"controller ({controller.n_ctrl}x{controller.n_meas}) does not "
            f"match plant ({plant.p} inputs, {plant.m} outputs)")
    n_K = controller.n_K
    A_cl = np.block([
        [plant.A + plant.B @ controller.D_K @ plant.C,
         plant.B @ controller.C_K],
        [controller.B_K @ plant.C, controller.A_K],
    ]) if n_K else plant.A + plant.B @ controller.D_K @ plant.C
    A_cl = np.atleast_2d(A_cl)
    J = restriction_matrix(n, n_K)
    if B_w is None:
        B_w_cl = J.copy()
    else:
        B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
        if B_w.shape[0] != n:
            raise DimensionError("B_w must have one row per plant state")
        B_w_cl = np.vstack([B_w, np.zeros((n_K, B_w.shape[1]))])
    return ClosedLoop(A_cl=A_cl, J=J, B_w_cl=B_w_cl, n=n, n_K=n_K)


def complementary_sensitivity(plant: StateSpace,
                              controller: ControllerRealization) -> StateSpace:
    """T = G K (I - G K)^{-1} for the loop closed with u = +K y.

    States are ordered (x_K, x); the A matrix is affine in the controller
    data and shares its spectrum with the closed-loop matrix of
    assemble_closed_loop.
    """
    n, n_K = plant.n, controller.n_K
    A = np.block([
        [controller.A_K, controller.B_K @ plant.C],
        [plant.B @ controller.C_K,
         plant.A + plant.B @ controller.D_K @ plant.C],
    ]) if n_K else plant.A + plant.B @ controller.D_K @ plant.C
    B = np.vstack([controller.B_K, plant.B @ controller.D_K])
    C = np.hstack([np.zeros((plant.m, n_K)), plant.C])
    return StateSpace(np.atleast_2d(A), B, C)
