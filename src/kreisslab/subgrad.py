"""Clarke subgradient of the closed-loop Kreiss norm.

The closed-loop Kreiss norm is a function of structured controller
parameters; at each active family member that kreiss_norm reports, its
gradient is the member's gradient by A_cl from kreiss_norm's own polished
peak, pulled back through the controller structure by the chain rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .loop import ClosedLoop, ControllerStructure
from .norms import kreiss_norm
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
    supplies the active points, with their eta, c, omega and value, and
    raises StabilityError for a non-Hurwitz A_cl.  Its gradients, d sigma
    / d A_cl = c Re(X v u^H Y)^T at each active's polished peak, are
    pulled back through the controller structure mask.  The leading
    gradient belongs to the best active point; the full active list
    supports max-rule convex combinations.
    """
    worst = kreiss_norm(cl.channel(), tol)
    pull_back = structure.grad_from_closed_loop
    actives = [ActivePoint(**act, gradient=pull_back(G_A, plant))
               for act, G_A in zip(worst.maximizer["actives"],
                                   worst.gradients)]
    best = max(actives, key=lambda a: a.value)
    return KreissSubgradient(value=worst.value, gradient=best.gradient,
                             active=actives)
