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
from .norms import (KreissOptions, _peak_point, kreiss_family_matrix,
                    kreiss_norm)
from .statespace import StateSpace

__all__ = [
    "ActivePoint",
    "KreissSubgradient",
    "kreiss_subgradient",
]


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


def kreiss_subgradient(plant: StateSpace, structure: ControllerStructure,
                       cl: ClosedLoop,
                       opts: KreissOptions | None = None) -> KreissSubgradient:
    """Clarke subgradient of theta -> K(J^T (sI - A_cl(theta))^{-1} J).

    cl is the loop assembled at theta.  kreiss_norm of its channel supplies
    the active (eta, omega) pairs and raises StabilityError for a
    non-Hurwitz A_cl.  At each pair ``norms._peak_point`` polishes omega to
    the peak of the member c A_cl - I, c = eta/(2-eta), so an active's
    omega and value are the polished peak and sigma_max there; the
    gradient d sigma / d A_cl = c Re(X v u^H Y)^T is pulled back through
    the controller structure mask.  The leading gradient belongs to the
    best active point; the full active list supports max-rule convex
    combinations.
    """
    channel = cl.channel()
    worst = kreiss_norm(channel, opts)
    actives = []
    for act in worst.maximizer["actives"]:
        eta = act["eta"]
        omega, val, u, v, X, Y = _peak_point(
            kreiss_family_matrix(channel.A, eta), channel.B, channel.C,
            channel.D, act["omega"])
        G_A = np.real(eta / (2.0 - eta) * np.outer(X @ v, u.conj() @ Y)).T
        grad = structure.grad_from_closed_loop(G_A, plant)
        actives.append(ActivePoint(eta=eta, omega=omega, value=val,
                                   gradient=grad))
    best = max(actives, key=lambda a: a.value)
    return KreissSubgradient(value=worst.value, gradient=best.gradient,
                             active=actives)
