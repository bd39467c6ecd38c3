"""Clarke subgradients and directional derivatives.

Covers the maximum singular value, the largest eigenvalue of a symmetric
matrix, the H-infinity norm at its (finitely many) peak frequencies, and
the closed-loop Kreiss norm as a function of structured controller
parameters (chain rule through the resolvent of the active family member).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import PreconditionError, StabilityError
from .linalg import svd_triple
from .loop import ClosedLoop, ControllerStructure, assemble_closed_loop
from .norms import (
    KreissOptions,
    family_instability_eta,
    kreiss_family_matrix,
    kreiss_norm,
)
from .statespace import StateSpace

__all__ = [
    "SubgradientSet",
    "ActivePoint",
    "KreissSubgradient",
    "sigma_directional",
    "lambda_max_subgradient",
    "hinf_subgradient_set",
    "hinf_directional",
    "kreiss_subgradient",
]


@dataclass(frozen=True, eq=False)
class SubgradientSet:
    """{sum_k Q_k Y_k P_k^H : Y_k >= 0, sum_k Tr(Y_k) = 1}.

    pairs holds the active (Q_k, P_k) singular blocks; multipliers, when
    set, select one element of the set.
    """

    pairs: list
    multipliers: list | None = None

    def element(self, multipliers=None) -> np.ndarray:
        ys = multipliers if multipliers is not None else self.multipliers
        if ys is None:
            # uniform trace split over the active blocks
            ys = []
            total = sum(q.shape[1] for q, _ in self.pairs)
            for q, _ in self.pairs:
                ys.append(np.eye(q.shape[1]) / total)
        trace = sum(float(np.trace(Y)) for Y in ys)
        if abs(trace - 1.0) > 1e-10:
            raise PreconditionError("multiplier traces must sum to 1")
        out = None
        for (Q, P), Y in zip(self.pairs, ys):
            term = Q @ Y @ P.conj().T
            out = term if out is None else out + term
        return out


def sigma_directional(G, D) -> float:
    """Clarke directional derivative of sigma_max at G in direction D.

    Equals (1/2) lambda_max(Q^H D P + P^H D^H Q) over the maximal singular
    block (Q, P) of G.
    """
    G = np.atleast_2d(np.asarray(G))
    D = np.atleast_2d(np.asarray(D))
    if G.shape != D.shape:
        raise PreconditionError("G and D must have identical shapes")
    triple = svd_triple(G)
    M = triple.Q.conj().T @ D @ triple.P
    H = M + M.conj().T
    return float(0.5 * np.max(scipy.linalg.eigvalsh(H)))


def lambda_max_subgradient(S, cluster_rtol: float = 1e-8):
    """(lambda_max, V) for symmetric S; V spans the top eigenvalue cluster."""
    S = np.atleast_2d(np.asarray(S, dtype=float))
    w, V = scipy.linalg.eigh(S)
    top = w[-1]
    width = cluster_rtol * max(1.0, abs(top))
    keep = w >= top - width
    return float(top), V[:, keep][:, ::-1]


def hinf_subgradient_set(sys: StateSpace, peaks) -> SubgradientSet:
    """Active singular blocks of G(j omega_k) at the peak frequencies."""
    peaks = list(peaks)
    if not peaks:
        raise PreconditionError("peak frequency list is empty")
    pairs = []
    for w in peaks:
        triple = svd_triple(sys.transfer(1j * float(w)))
        pairs.append((triple.Q, triple.P))
    return SubgradientSet(pairs=pairs)


def hinf_directional(sys: StateSpace, peaks, directions) -> float:
    """max over active peaks of the sigma_max directional derivative.

    directions is either a callable omega -> dG(j omega) or a sequence of
    direction matrices aligned with peaks.
    """
    peaks = list(peaks)
    if not peaks:
        raise PreconditionError("peak frequency list is empty")
    best = -np.inf
    for k, w in enumerate(peaks):
        D = directions(float(w)) if callable(directions) else directions[k]
        best = max(best, sigma_directional(sys.transfer(1j * float(w)), D))
    return float(best)


@dataclass
class ActivePoint:
    eta: float
    omega: float
    value: float
    gradient: np.ndarray


@dataclass
class KreissSubgradient:
    value: float
    gradient: np.ndarray
    active: list = field(default_factory=list)
    closed_loop: ClosedLoop | None = None


def closed_loop_gradient(A_cl: np.ndarray, J: np.ndarray, eta: float,
                         omega: float) -> tuple[float, np.ndarray]:
    """(value, d sigma_max / d A_cl) of the channel at a family point.

    At s = j omega the family member c A_cl - I, c = eta/(2-eta), has
    resolvent M = s I - (c A_cl - I); the gradient is
    c Re(M^{-1} J p q^H J^T M^{-1})^T for the top singular pair (q, p) of
    J^T M^{-1} J.
    """
    c = eta / (2.0 - eta)
    M = 1j * omega * np.eye(A_cl.shape[0]) - kreiss_family_matrix(A_cl, eta)
    X = np.linalg.solve(M, J.astype(complex))        # M^{-1} J
    Y = np.linalg.solve(M.T, J.astype(complex)).T    # J^T M^{-1}
    G = J.T @ X
    triple = svd_triple(G)
    q = triple.Q[:, :1]
    p = triple.P[:, :1]
    W = c * (X @ p @ q.conj().T @ Y)
    return float(triple.sigma_max), np.real(W).T


def kreiss_subgradient(plant: StateSpace, structure: ControllerStructure,
                       theta, opts: KreissOptions | None = None,
                       B_w: np.ndarray | None = None) -> KreissSubgradient:
    """Clarke subgradient of theta -> K(J^T (sI - A_cl(theta))^{-1} J).

    The inner maximization supplies the active (eta, omega) pairs; each is
    pulled back through the resolvent derivative and the controller
    structure mask.  The leading gradient belongs to the best active point;
    the full active list supports max-rule convex combinations.
    """
    opts = opts or KreissOptions()
    controller = structure.unpack(theta)
    cl = assemble_closed_loop(plant, controller, B_w=B_w)
    eta_bad = family_instability_eta(cl.A_cl)
    if not np.isinf(eta_bad):
        raise StabilityError(
            f"closed loop loses family stability at eta = {eta_bad:.6g}")
    rep = kreiss_norm(cl.channel(), opts)
    actives = []
    for act in rep.maximizer["actives"]:
        val, G_A = closed_loop_gradient(cl.A_cl, cl.J, act["eta"], act["omega"])
        grad = structure.grad_from_closed_loop(G_A, plant)
        actives.append(ActivePoint(eta=act["eta"], omega=act["omega"],
                                   value=val, gradient=grad))
    best = max(actives, key=lambda a: a.value)
    return KreissSubgradient(value=rep.value, gradient=best.gradient,
                             active=actives, closed_loop=cl)
