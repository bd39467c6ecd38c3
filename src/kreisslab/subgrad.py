"""Clarke subgradients of the H-infinity and closed-loop Kreiss norms.

Covers the H-infinity norm at its (finitely many) peak frequencies and
the closed-loop Kreiss norm as a function of structured controller
parameters (chain rule through the resolvent of each active family member
that kreiss_norm reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .linalg import svd_triple
from .loop import ClosedLoop, ControllerStructure
from .norms import KreissOptions, kreiss_family_matrix, kreiss_norm
from .statespace import StateSpace

__all__ = [
    "SubgradientSet",
    "ActivePoint",
    "KreissSubgradient",
    "hinf_subgradient_set",
    "kreiss_subgradient",
]


@dataclass(frozen=True, eq=False)
class SubgradientSet:
    """{sum_k Q_k Y_k P_k^H : Y_k >= 0, sum_k Tr(Y_k) = 1}.

    pairs holds the active (Q_k, P_k) singular blocks; element(multipliers)
    selects one element of the set.
    """

    pairs: list

    def element(self, multipliers=None) -> np.ndarray:
        if multipliers is None:
            # uniform trace split over the active blocks
            total = sum(q.shape[1] for q, _ in self.pairs)
            multipliers = [np.eye(q.shape[1]) / total for q, _ in self.pairs]
        trace = sum(float(np.trace(Y)) for Y in multipliers)
        if abs(trace - 1.0) > 1e-10:
            raise PreconditionError("multiplier traces must sum to 1")
        out = None
        for (Q, P), Y in zip(self.pairs, multipliers):
            term = Q @ Y @ P.conj().T
            out = term if out is None else out + term
        return out


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
                       cl: ClosedLoop,
                       opts: KreissOptions | None = None) -> KreissSubgradient:
    """Clarke subgradient of theta -> K(J^T (sI - A_cl(theta))^{-1} J).

    cl is the loop assembled at theta.  kreiss_norm of its channel supplies
    the active (eta, omega) pairs and raises StabilityError for a
    non-Hurwitz A_cl; each pair is pulled back through the resolvent
    derivative and the controller structure mask.  The leading gradient
    belongs to the best active point; the full active list supports
    max-rule convex combinations.
    """
    worst = kreiss_norm(cl.channel(), opts)
    actives = []
    for act in worst.maximizer["actives"]:
        val, G_A = closed_loop_gradient(cl.A_cl, cl.J, act["eta"], act["omega"])
        grad = structure.grad_from_closed_loop(G_A, plant)
        actives.append(ActivePoint(eta=act["eta"], omega=act["omega"],
                                   value=val, gradient=grad))
    best = max(actives, key=lambda a: a.value)
    return KreissSubgradient(value=worst.value, gradient=best.gradient,
                             active=actives)
