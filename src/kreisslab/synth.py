"""Structured controller synthesis minimizing the closed-loop Kreiss norm.

Solves min over theta of K(J^T (sI - A_cl(theta))^{-1} J) subject to a
spectral-abscissa decay constraint and an optional roll-off bound
||W T||_inf <= 1, by nonsmooth descent: the search direction is the
negated minimum-norm element of the convex hull of active subgradients
(Kreiss actives through the resolvent chain rule, tied rightmost
eigenvalues, weighted roll-off gradient), exact by Wolfe's finite
algorithm, with an Armijo line search on an exact-penalty function of
fixed weight.  Each seeded restart runs one descent loop in two phases
from a random start: phase I drives the spectral abscissa below a decay
target, and phase II minimizes the penalized Kreiss objective.  The best
result that meets the constraints is reported after a dense
re-evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    NumericalError,
    StabilityError,
    SynthesisError,
)
from .loop import (
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
    complementary_sensitivity,
)
from .norms import (
    KreissOptions,
    NormReport,
    _family_hinf,
    hinf_norm,
    kreiss_norm,
)
from .statespace import StateSpace, series
from .subgrad import kreiss_subgradient

__all__ = [
    "SynthesisSpec",
    "ConstraintReport",
    "SynthesisResult",
    "rolloff_norm",
    "minimize_kreiss",
]


#: accepted-step cap of one descent
_MAX_ITER = 100
#: exact-penalty weight on the decay and roll-off excesses
_PENALTY = 10.0
#: Armijo sufficient-decrease constant
_ARMIJO_C1 = 0.05
#: first line-search step, and the step below which a search gives up
_STEP0 = 0.5
_STEP_MIN = 1e-12
#: a descent stops when the min-norm subgradient falls below this (relative)
_STAT_TOL = 1e-7
#: the closed loop must decay at least this fast even without a rate bound
_STAB_MARGIN = 1e-2
#: restart k draws its start with standard deviation _INIT_SCALES[k % 5]
_INIT_SCALES = (0.5, 2.0, 8.0, 32.0, 128.0)
#: eigenvalues within this relative distance of the spectral abscissa tie
_TIE_TOL = 1e-7
#: a row enters the min-norm corral when g . x < x . x - this * max |g|^2
_MIN_NORM_TOL = 1e-12
#: relative step of the roll-off's finite-difference gradient
_FD_STEP = 1e-6
#: H-infinity tolerance of the roll-off norm
_ROLLOFF_TOL = 1e-7
#: the coarse eta grid of the descent's Kreiss evaluations
_DESCENT_KREISS = KreissOptions(grid_points=48, hinf_tol=1e-7)
#: the Kreiss floor sigma_max(CB) of every closed-loop channel
#: J^T (sI - A_cl)^{-1} J, whose CB = J^T J is the identity
_KREISS_FLOOR = 1.0


@dataclass(eq=False)
class SynthesisSpec:
    """Plant (control channel), decay rate, roll-off weight, and the
    number of seeded restarts with the seed of their random starts."""

    plant: StateSpace
    eta_rate: float = 0.0
    rolloff_weight: StateSpace | None = None
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.eta_rate < 0:
            raise SynthesisError("decay rate must be nonnegative")
        if self.restarts < 1:
            raise ArgumentError("restarts", "must be at least 1")
        if self.seed < 0:
            raise ArgumentError("seed", "must be at least 0")
        if self.rolloff_weight is not None:
            self.rolloff_weight.require_stable("roll-off weight")

    @property
    def alpha_limit(self) -> float:
        """Largest admissible closed-loop spectral abscissa: the descent
        enforces it and the result's constraint report judges it."""
        return -max(self.eta_rate, _STAB_MARGIN)


@dataclass
class ConstraintReport:
    alpha: float
    alpha_limit: float
    rolloff: float | None
    rolloff_limit: float | None

    @property
    def satisfied(self) -> bool:
        ok = self.alpha <= self.alpha_limit + 1e-8
        if self.rolloff is not None:
            ok = ok and self.rolloff <= self.rolloff_limit + 1e-8
        return bool(ok)


@dataclass(eq=False)
class SynthesisResult:
    controller: ControllerRealization
    report: NormReport
    constraints: ConstraintReport
    restarts_used: int
    history: list


def rolloff_norm(plant: StateSpace, controller: ControllerRealization,
                 weight: StateSpace) -> float:
    """||W T||_inf with T = G K (I - G K)^{-1} for the loop u = +K y."""
    if not (np.any(controller.D_K) or np.any(controller.C_K)
            or np.any(controller.B_K)):
        return 0.0  # K = 0 gives T = 0 identically
    T = complementary_sensitivity(plant, controller)
    if not T.is_stable():
        raise StabilityError("closed loop is unstable; roll-off undefined")
    return hinf_norm(series(T, weight), tol=_ROLLOFF_TOL).value


# ---------------------------------------------------------------------------
# Gradient pieces
# ---------------------------------------------------------------------------

def _min_norm_element(grads):
    """Minimum-norm point x of the hull of the rows of grads and its weights
    lam (x = lam @ grads), exact by Wolfe's finite algorithm (Wolfe 1976).
    Minor cycles solve least squares, so affinely dependent rows are fine.
    Each major cycle ends at the affine minimizer of a row subset and must
    lower |x|^2 strictly, so none repeats and the loop ends under rounding."""
    G = np.atleast_2d(np.asarray(grads, dtype=float))
    sq = np.einsum("ij,ij->i", G, G)
    S, lam = np.array([np.argmin(sq)]), np.ones(1)
    x = G[S[0]]
    while True:
        gx = G @ x
        if gx.min() >= x @ x - _MIN_NORM_TOL * sq.max():
            break
        T, mu = np.append(S, np.argmin(gx)), np.append(lam, 0.0)
        while True:  # to the affine minimizer of T inside its hull
            P = G[T]
            b = np.linalg.lstsq((P[1:] - P[0]).T, -P[0], rcond=None)[0]
            alpha = np.concatenate([[1.0 - b.sum()], b])
            neg = alpha < 0
            if neg.any():  # walk toward alpha until a weight reaches zero
                ratio = mu[neg] / (mu[neg] - alpha[neg])
                alpha = mu + ratio.min() * (alpha - mu)
                alpha[np.flatnonzero(neg)[np.argmin(ratio)]] = 0.0
            T, mu = T[alpha > 0], alpha[alpha > 0]
            if not neg.any():
                break
        y = mu @ G[T]
        if y @ y >= x @ x:
            break
        S, lam, x = T, mu, y
    return x, np.bincount(S, weights=lam, minlength=len(G))


def _loop_eig(spec: SynthesisSpec, structure: ControllerStructure, theta):
    """(cl, w, V): the closed loop at theta and its eigendecomposition.  A
    screen hands it to the full evaluation of the same point."""
    cl = assemble_closed_loop(spec.plant, structure.unpack(theta))
    w, V = np.linalg.eig(cl.A_cl)
    return cl, w, V


def _abscissa_with_grads(plant: StateSpace, structure: ControllerStructure,
                         w: np.ndarray, V: np.ndarray):
    """Spectral abscissa of A_cl, from its eigenvalues w and eigenvectors V
    (np.linalg.eig), and subgradients of tied eigenvalues: d lambda_i =
    u_i^T dA v_i with u_i^T row i of pinv(V), which is V^{-1} unless A_cl
    is defective and then keeps the gradients finite."""
    U = np.linalg.pinv(V)
    alpha = float(np.max(w.real))
    grads = []
    for idx in np.argsort(-w.real):
        lam = w[idx]
        if lam.real < alpha - _TIE_TOL * (1.0 + abs(alpha)):
            break
        if lam.imag < -1e-12:  # conjugate partner gives the same Re-gradient
            continue
        G_A = np.real(np.outer(U[idx], V[:, idx]))
        grads.append(structure.grad_from_closed_loop(G_A, plant))
    return alpha, grads


def _rolloff_grad(plant: StateSpace, structure: ControllerStructure,
                  theta: np.ndarray, base: float, weight: StateSpace):
    """Central finite-difference gradient of ||W T||_inf at theta, whose
    value there is base.

    Perturbations that cross the stability boundary fall back to one-sided
    differences from the stable side.
    """
    def value(th):
        try:
            return rolloff_norm(plant, structure.unpack(th), weight)
        except StabilityError:
            return None

    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = _FD_STEP * (1.0 + abs(theta[i]))
        e = np.zeros_like(theta)
        e[i] = step
        up = value(theta + e)
        dn = value(theta - e)
        if up is not None and dn is not None:
            grad[i] = (up - dn) / (2.0 * step)
        elif up is not None:
            grad[i] = (up - base) / step
        elif dn is not None:
            grad[i] = (base - dn) / step
    return grad


# ---------------------------------------------------------------------------
# Descent objectives: phase I (decay) and phase II (penalized Kreiss)
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _Violation:
    """Phase I: F = max(alpha - target, 0), the abscissa's excess."""

    spec: SynthesisSpec
    structure: ControllerStructure
    target: float

    def full(self, theta, state=None):
        """(F, data) with the tied eigenvalues' gradients while F > 0; the
        pinv of the eigenvectors is taken only then."""
        _, w, V = state or _loop_eig(self.spec, self.structure, theta)
        F = max(float(np.max(w.real)) - self.target, 0.0)
        if F == 0:  # feasible: a zero generator stops the descent
            grads = [np.zeros_like(theta)]
        else:
            grads = _abscissa_with_grads(self.spec.plant, self.structure,
                                         w, V)[1]
        return F, {"grads": grads, "screen": None}

    def quick(self, theta, screen):
        """(F, state) from one assembly and one eig: F is exact here, and
        full reuses the state at an accepted point."""
        state = _loop_eig(self.spec, self.structure, theta)
        return max(float(np.max(state[1].real)) - self.target, 0.0), state

    def subgradients(self, data):
        return data["grads"]


class _Penalized:
    """Exact penalty F = K + _PENALTY (alpha excess + rolloff excess)."""

    def __init__(self, spec: SynthesisSpec, structure: ControllerStructure):
        self.spec = spec
        self.structure = structure

    def _objective(self, kreiss, alpha, rolloff):
        """F from the Kreiss value, the abscissa and the roll-off norm."""
        F = kreiss
        a_excess = alpha - self.spec.alpha_limit
        if a_excess > 0:
            F += _PENALTY * a_excess
        if rolloff is not None and rolloff > 1.0:
            F += _PENALTY * (rolloff - 1.0)
        return F

    def full(self, theta, state=None):
        """(F, data) with every subgradient piece evaluated; state is the
        screen's (cl, w, V, roll-off value) at theta, if it ran."""
        plant, weight = self.spec.plant, self.spec.rolloff_weight
        if state is None:  # the start, which no screen saw
            state = _loop_eig(self.spec, self.structure, theta) + (None,)
        cl, w, V, r_val = state
        alpha, a_grads = _abscissa_with_grads(plant, self.structure, w, V)
        if alpha >= 0:
            return math.inf, None
        try:
            ks = kreiss_subgradient(plant, self.structure, cl,
                                    opts=_DESCENT_KREISS)
        except (NumericalError, StabilityError):
            return math.inf, None
        r_grad = None
        if weight is not None:
            if r_val is None:
                r_val = rolloff_norm(plant, self.structure.unpack(theta),
                                     weight)
            r_grad = _rolloff_grad(plant, self.structure, theta, r_val,
                                   weight)
        data = {"kreiss": ks, "alpha": alpha, "alpha_grads": a_grads,
                "rolloff": r_val, "rolloff_grad": r_grad,
                "screen": np.array([a.eta for a in ks.active])}
        return self._objective(ks.value, alpha, r_val), data

    def quick(self, theta, etas):
        """(F, state): the penalty with the inner max restricted to given
        etas, and the (cl, w, V, roll-off value) that full reuses at an
        accepted point."""
        plant, weight = self.spec.plant, self.spec.rolloff_weight
        cl, w, V = _loop_eig(self.spec, self.structure, theta)
        alpha = float(np.max(w.real))
        if alpha >= 0:
            return math.inf, None
        try:
            # one lockstep call over the etas; each value is that family
            # member's own, whatever the other etas, within tol of hinf_norm
            values = _family_hinf(cl.channel(), etas, 1e-6)[0]
            r_val = (None if weight is None
                     else rolloff_norm(plant, self.structure.unpack(theta),
                                       weight))
        except (NumericalError, StabilityError):
            return math.inf, None
        kreiss = float(np.max(values, initial=0.0))
        return self._objective(kreiss, alpha, r_val), (cl, w, V, r_val)

    def subgradients(self, data):
        """Convex-hull generators of the penalized objective at a point."""
        out = []
        a_excess = data["alpha"] - self.spec.alpha_limit
        r_active = (data["rolloff"] is not None and data["rolloff"] > 1.0)
        for active in data["kreiss"].active:
            g = active.gradient
            if r_active:
                g = g + _PENALTY * data["rolloff_grad"]
            if a_excess > 0:
                out.extend(g + _PENALTY * ga for ga in data["alpha_grads"])
            else:
                out.append(g)
        return out


def _descend(pen, theta0: np.ndarray):
    """Armijo descent on the objective pen (a _Violation or a _Penalized)
    from one start; each trial point is screened by pen.quick first, and
    pen.full of a point that passes reuses the screen's state: its loop and
    eig, and phase II's roll-off value.

    Returns (theta, data, history) at the last accepted point, or None when
    the start itself cannot be evaluated.
    """
    theta = theta0.copy()
    F, data = pen.full(theta)
    if data is None:
        return None
    step = _STEP0
    history = [F]
    for _ in range(_MAX_ITER):
        grads = pen.subgradients(data)
        g = _min_norm_element(grads)[0]
        ng = np.linalg.norm(g)
        if ng <= _STAT_TOL * (1.0 + abs(F)):
            break
        d = -g / ng
        while step >= _STEP_MIN:
            cand = theta + step * d
            F_quick, state = pen.quick(cand, data["screen"])
            if F_quick <= F - _ARMIJO_C1 * step * ng:
                F_cand, data_cand = pen.full(cand, state)
                if data_cand is not None and \
                        F_cand <= F - 0.5 * _ARMIJO_C1 * step * ng:
                    theta, F, data = cand, F_cand, data_cand
                    history.append(F)
                    step = min(step * 2.0, 10.0)
                    break
            step *= 0.5
        else:  # no step was accepted
            break
    return theta, data, history


def minimize_kreiss(spec: SynthesisSpec,
                    structure: ControllerStructure) -> SynthesisResult:
    """Best locally optimal structured controller over seeded restarts.

    Each restart draws a random start and runs one descent in two phases:
    phase I lowers the abscissa's excess over the decay target to zero,
    phase II the penalized Kreiss objective at the fixed weight _PENALTY.
    A restart that stops short of the target in phase I, or that ends
    violating a constraint, is dropped.  A later restart replaces the best
    only with a strictly smaller Kreiss value, so the first feasible
    restart at the floor _KREISS_FLOOR ends the search, and restarts_used
    counts the restarts that ran.  The winner is re-evaluated with the
    dense eta grid; constraint satisfaction is mandatory.  history holds
    the F sequence of each phase II.
    """
    rng = np.random.default_rng(spec.seed)
    n_theta = structure.n_theta
    viol = _Violation(spec, structure, -(spec.eta_rate * 0.5 + _STAB_MARGIN))
    best = None
    history_all = []
    for restart in range(spec.restarts):
        scale = _INIT_SCALES[restart % len(_INIT_SCALES)]
        theta0 = scale * rng.standard_normal(n_theta)
        theta_s, _, phase1 = _descend(viol, theta0)
        if phase1[-1] > 0:  # the loop does not decay at the target
            continue
        out = _descend(_Penalized(spec, structure), theta_s)
        if out is None:
            continue
        theta, data, history = out
        history_all.append(history)
        rep = ConstraintReport(
            alpha=data["alpha"],
            alpha_limit=spec.alpha_limit,
            rolloff=data["rolloff"],
            rolloff_limit=None if spec.rolloff_weight is None else 1.0)
        value = data["kreiss"].value
        if rep.satisfied and (best is None or value < best[1]):
            best = (theta.copy(), value, rep)
            if value <= _KREISS_FLOOR:
                break
    if best is None:
        raise SynthesisError(
            "no stabilizing/feasible controller found within the restart cap")
    theta, _, constraints = best
    controller = structure.unpack(theta)
    cl = assemble_closed_loop(spec.plant, controller)
    final = kreiss_norm(cl.channel())
    return SynthesisResult(controller=controller, report=final,
                           constraints=constraints,
                           restarts_used=restart + 1, history=history_all)
