"""Clarke subgradient of the closed-loop Kreiss norm.

The closed-loop Kreiss norm is a function of structured controller
parameters; its gradient at each active family member that kreiss_norm
reports comes by the chain rule through the member's resolvent at its
polished peak (``norms._peak_point``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .loop import ClosedLoop, ControllerStructure
from .norms import _family_matrix, _peak_point, kreiss_norm
from .statespace import StateSpace

__all__ = [
    "ActivePoint",
    "KreissSubgradient",
    "kreiss_subgradient",
]


@dataclass
class ActivePoint:
    eta: float
    c: float
    omega: float
    value: float
    gradient: np.ndarray


@dataclass
class KreissSubgradient:
    value: float
    gradient: np.ndarray
    active: list = field(default_factory=list)


def kreiss_subgradient(plant: StateSpace, structure: ControllerStructure,
                       cl: ClosedLoop, tol: float = 1e-8) -> KreissSubgradient:
    """Clarke subgradient of theta -> K(J^T (sI - A_cl(theta))^{-1} J).

    cl is the loop assembled at theta.  kreiss_norm of its channel at tol
    supplies the active points (eta, c, omega) and raises StabilityError
    for a non-Hurwitz A_cl.  At each point ``norms._peak_point`` polishes
    omega to the peak of the member c A_cl - I, so an active's
    omega and value are the polished peak and sigma_max there; the
    gradient d sigma / d A_cl = c Re(X v u^H Y)^T is pulled back through
    the controller structure mask.  The leading gradient belongs to the
    best active point; the full active list supports max-rule convex
    combinations.
    """
    channel = cl.channel()
    worst = kreiss_norm(channel, tol)
    actives = []
    for act in worst.maximizer["actives"]:
        c = act["c"]
        omega, val, u, v, X, Y = _peak_point(
            _family_matrix(channel.A, c), channel.B, channel.C, channel.D,
            act["omega"])
        G_A = np.real(c * np.outer(X @ v, u.conj() @ Y)).T
        grad = structure.grad_from_closed_loop(G_A, plant)
        actives.append(ActivePoint(eta=act["eta"], c=c, omega=omega,
                                   value=val, gradient=grad))
    best = max(actives, key=lambda a: a.value)
    return KreissSubgradient(value=worst.value, gradient=best.gradient,
                             active=actives)
