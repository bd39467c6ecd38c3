"""Structured controller synthesis minimizing the closed-loop Kreiss norm.

Solves min over theta of K(J^T (sI - A_cl(theta))^{-1} J) subject to a
spectral-abscissa decay constraint and an optional roll-off bound
||W T||_inf <= 1, by nonsmooth descent: the search direction is the
negated minimum-norm element of the convex hull of active subgradients
(Kreiss actives through the resolvent chain rule, tied rightmost
eigenvalues, weighted roll-off gradient), with an Armijo line search on an
exact-penalty function.  A randomized stabilization phase (spectral
abscissa descent) supplies feasible starts; restarts are seeded and the
best feasible result is reported after a dense re-evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, StabilityError, SynthesisError
from .loop import (
    ClosedLoop,
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
    complementary_sensitivity,
)
from .norms import (
    KreissOptions,
    NormReport,
    _family_hinf,
    family_instability_eta,
    hinf_norm,
    kreiss_norm,
)
from .statespace import StateSpace, series
from .subgrad import kreiss_subgradient

__all__ = [
    "SynthOptions",
    "SynthesisSpec",
    "ConstraintReport",
    "SynthesisResult",
    "WorstCaseReport",
    "rolloff_norm",
    "worst_case_delta",
    "minimize_kreiss",
]


@dataclass
class SynthOptions:
    restarts: int = 10
    seed: int = 0
    max_iter: int = 100


#: spectral-abscissa descent steps of the stabilization phase
_STAB_MAX_ITER = 200
#: initial exact-penalty weight, multiplied by 4 on each constrained retry
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
#: the coarse eta grid of the descent's Kreiss evaluations
_DESCENT_KREISS = KreissOptions(grid_points=48, hinf_tol=1e-7,
                                max_local_maxima=4)


@dataclass(eq=False)
class SynthesisSpec:
    """Plant (control channel), decay rate, roll-off weight and options."""

    plant: StateSpace
    eta_rate: float = 0.0
    rolloff_weight: StateSpace | None = None
    options: SynthOptions = field(default_factory=SynthOptions)

    def __post_init__(self):
        if self.eta_rate < 0:
            raise SynthesisError("decay rate must be nonnegative")
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
    theta: np.ndarray
    report: NormReport
    constraints: ConstraintReport
    restarts_used: int
    history: list


@dataclass
class WorstCaseReport:
    eta_star: float
    value: float
    omega_star: float
    actives: list


def rolloff_norm(plant: StateSpace, controller: ControllerRealization,
                 weight: StateSpace, tol: float = 1e-7) -> float:
    """||W T||_inf with T = G K (I - G K)^{-1} for the loop u = +K y."""
    if not (np.any(controller.D_K) or np.any(controller.C_K)
            or np.any(controller.B_K)):
        return 0.0  # K = 0 gives T = 0 identically
    T = complementary_sensitivity(plant, controller)
    if not T.is_stable():
        raise StabilityError("closed loop is unstable; roll-off undefined")
    return hinf_norm(series(T, weight), tol=tol).value


def worst_case_delta(cl: ClosedLoop,
                     opts: KreissOptions | None = None) -> WorstCaseReport:
    """Inner maximization over the resolvent family for a fixed loop.

    Returns the worst eta with its inner frequency and every near-active
    family point.  Raises with the offending eta when the family loses
    stability.
    """
    eta_bad = family_instability_eta(cl.A_cl)
    if not math.isinf(eta_bad):
        raise StabilityError(
            f"family member at eta = {eta_bad:.6g} is not Hurwitz")
    rep = kreiss_norm(cl.channel(), opts)
    return WorstCaseReport(eta_star=rep.maximizer["eta"], value=rep.value,
                           omega_star=rep.maximizer["omega"],
                           actives=rep.maximizer["actives"])


# ---------------------------------------------------------------------------
# Gradient pieces
# ---------------------------------------------------------------------------

def _min_norm_element(grads):
    """Minimum-norm convex combination of the rows of grads."""
    G = np.atleast_2d(np.asarray(grads, dtype=float))
    J = G.shape[0]
    if J == 1:
        return G[0]
    gram = G @ G.T
    lam = np.full(J, 1.0 / J)
    lip = max(np.linalg.norm(gram, 2), 1e-300)
    for _ in range(500):
        grad = gram @ lam
        new = _project_simplex(lam - grad / lip)
        if np.max(np.abs(new - lam)) < 1e-14:
            lam = new
            break
        lam = new
    return lam @ G


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.clip(v - tau, 0.0, None)


def _abscissa_with_grads(plant: StateSpace, structure: ControllerStructure,
                         theta: np.ndarray, tie_tol: float = 1e-7):
    """Spectral abscissa of A_cl(theta) and subgradients of tied eigenvalues."""
    controller = structure.unpack(theta)
    cl = assemble_closed_loop(plant, controller)
    A = cl.A_cl
    w, V = np.linalg.eig(A)
    wl, U = np.linalg.eig(A.T)
    alpha = float(np.max(w.real))
    grads = []
    order = np.argsort(-w.real)
    for idx in order:
        lam = w[idx]
        if lam.real < alpha - tie_tol * (1.0 + abs(alpha)):
            break
        if lam.imag < -1e-12:  # conjugate partner gives the same Re-gradient
            continue
        v = V[:, idx]
        j = int(np.argmin(np.abs(wl - lam)))
        u = U[:, j]
        s = u.T @ v if abs(u.T @ v) > 1e-14 else 1e-14
        G_A = np.real(np.outer(u, v) / s)
        grads.append(structure.grad_from_closed_loop(G_A, plant))
    return alpha, grads, cl


def _rolloff_with_grad(plant: StateSpace, structure: ControllerStructure,
                       theta: np.ndarray, weight: StateSpace,
                       h: float = 1e-6):
    """||W T||_inf(theta) and a central finite-difference gradient.

    Perturbations that cross the stability boundary fall back to one-sided
    differences from the stable side.
    """
    def value(th):
        try:
            return rolloff_norm(plant, structure.unpack(th), weight)
        except StabilityError:
            return None

    base = value(theta)
    if base is None:
        raise StabilityError("closed loop is unstable; roll-off undefined")
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = h * (1.0 + abs(theta[i]))
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
    return base, grad


# ---------------------------------------------------------------------------
# Stabilization phase
# ---------------------------------------------------------------------------

def _stabilize(plant: StateSpace, structure: ControllerStructure,
               theta0: np.ndarray, target: float) -> np.ndarray | None:
    """Descend the spectral abscissa of A_cl(theta) below target."""
    theta = theta0.copy()
    alpha, grads, _ = _abscissa_with_grads(plant, structure, theta)
    step = _STEP0
    for _ in range(_STAB_MAX_ITER):
        if alpha <= target:
            return theta
        d = -_min_norm_element(grads)
        nd = np.linalg.norm(d)
        if nd < 1e-14:
            return None
        d = d / nd
        improved = False
        while step >= _STEP_MIN:
            cand = theta + step * d
            a_new, g_new, _ = _abscissa_with_grads(plant, structure, cand)
            if a_new < alpha - _ARMIJO_C1 * step * nd:
                theta, alpha, grads = cand, a_new, g_new
                step = min(step * 2.0, 100.0)
                improved = True
                break
            step *= 0.5
        if not improved:
            return theta if alpha <= target else None
    return theta if alpha <= target else None


# ---------------------------------------------------------------------------
# Penalized descent
# ---------------------------------------------------------------------------

class _Penalized:
    """Exact-penalty objective F = K + rho (alpha excess + rolloff excess)."""

    def __init__(self, spec: SynthesisSpec, structure: ControllerStructure,
                 rho: float):
        self.spec = spec
        self.structure = structure
        self.rho = rho
        self.evals = 0

    def full(self, theta):
        """(F, data) with every subgradient piece evaluated."""
        alpha, a_grads, cl = _abscissa_with_grads(self.spec.plant,
                                                  self.structure, theta)
        if alpha >= 0:
            return math.inf, None
        try:
            ks = kreiss_subgradient(self.spec.plant, self.structure, theta,
                                    opts=_DESCENT_KREISS)
        except (NumericalError, StabilityError):
            return math.inf, None
        self.evals += 1
        F = ks.value
        a_excess = alpha - self.spec.alpha_limit
        if a_excess > 0:
            F += self.rho * a_excess
        r_val = r_grad = None
        if self.spec.rolloff_weight is not None:
            r_val, r_grad = _rolloff_with_grad(self.spec.plant, self.structure,
                                               theta, self.spec.rolloff_weight)
            if r_val > 1.0:
                F += self.rho * (r_val - 1.0)
        data = {"kreiss": ks, "alpha": alpha, "alpha_grads": a_grads,
                "rolloff": r_val, "rolloff_grad": r_grad, "cl": cl}
        return F, data

    def quick(self, theta, actives):
        """Penalty evaluated with the inner max restricted to given etas."""
        alpha, _, cl = _abscissa_with_grads(self.spec.plant, self.structure,
                                            theta)
        if alpha >= 0:
            return math.inf
        try:
            # one lockstep call over the active etas; each value equals
            # hinf_norm of that family member
            eta = np.array([act["eta"] for act in actives])
            values = _family_hinf(cl.channel(), eta, 1e-6)[0]
            self.evals += 1
            F = float(np.max(values, initial=0.0))
            a_excess = alpha - self.spec.alpha_limit
            if a_excess > 0:
                F += self.rho * a_excess
            if self.spec.rolloff_weight is not None:
                r_val = rolloff_norm(self.spec.plant,
                                     self.structure.unpack(theta),
                                     self.spec.rolloff_weight)
                if r_val > 1.0:
                    F += self.rho * (r_val - 1.0)
        except (NumericalError, StabilityError):
            return math.inf
        return F

    def subgradients(self, data):
        """Convex-hull generators of the penalized objective at a point."""
        combos = [a.gradient for a in data["kreiss"].active]
        out = []
        a_excess = data["alpha"] - self.spec.alpha_limit
        r_active = (data["rolloff"] is not None and data["rolloff"] > 1.0)
        for gk in combos:
            g = gk.copy()
            if r_active:
                g = g + self.rho * data["rolloff_grad"]
            if a_excess > 0:
                for ga in data["alpha_grads"]:
                    out.append(g + self.rho * ga)
            else:
                out.append(g)
        return out


def _descend(spec: SynthesisSpec, structure: ControllerStructure,
             theta0: np.ndarray, rho: float):
    """Armijo descent on the penalized objective from one start."""
    pen = _Penalized(spec, structure, rho)
    theta = theta0.copy()
    F, data = pen.full(theta)
    if data is None:
        return None
    step = _STEP0
    history = [F]
    for _ in range(spec.options.max_iter):
        grads = pen.subgradients(data)
        g = _min_norm_element(grads)
        ng = np.linalg.norm(g)
        if ng <= _STAT_TOL * (1.0 + abs(F)):
            break
        d = -g / ng
        actives = [{"eta": a.eta} for a in data["kreiss"].active]
        accepted = False
        while step >= _STEP_MIN:
            cand = theta + step * d
            F_quick = pen.quick(cand, actives)
            if F_quick <= F - _ARMIJO_C1 * step * ng:
                F_cand, data_cand = pen.full(cand)
                if data_cand is not None and \
                        F_cand <= F - 0.5 * _ARMIJO_C1 * step * ng:
                    theta, F, data = cand, F_cand, data_cand
                    history.append(F)
                    step = min(step * 2.0, 10.0)
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            break
    return theta, F, data, history, pen.evals


def minimize_kreiss(spec: SynthesisSpec,
                    structure: ControllerStructure) -> SynthesisResult:
    """Best locally optimal structured controller over seeded restarts.

    Each restart draws a random start, stabilizes it by spectral-abscissa
    descent, then runs the penalized nonsmooth descent; violated runs get a
    doubled penalty retry.  The winner is re-evaluated with the dense eta
    grid; constraint satisfaction is mandatory.
    """
    opts = spec.options
    rng = np.random.default_rng(opts.seed)
    n_theta = structure.n_theta
    target = -(spec.eta_rate * 0.5 + _STAB_MARGIN)
    best = None
    history_all = []
    used = 0
    for restart in range(opts.restarts):
        used = restart + 1
        scale = _INIT_SCALES[restart % len(_INIT_SCALES)]
        theta0 = scale * rng.standard_normal(n_theta)
        theta_s = _stabilize(spec.plant, structure, theta0, target)
        if theta_s is None:
            continue
        rho = _PENALTY
        for _ in range(3):
            out = _descend(spec, structure, theta_s, rho)
            if out is None:
                break
            theta, F, data, history, evals = out
            history_all.append(history)
            rep = ConstraintReport(
                alpha=data["alpha"],
                alpha_limit=spec.alpha_limit,
                rolloff=data["rolloff"],
                rolloff_limit=None if spec.rolloff_weight is None else 1.0)
            if rep.satisfied:
                value = data["kreiss"].value
                if best is None or value < best[1]:
                    best = (theta.copy(), value, rep)
                break
            theta_s = theta
            rho *= 4.0
    if best is None:
        raise SynthesisError(
            "no stabilizing/feasible controller found within the restart cap")
    theta, _, constraints = best
    controller = structure.unpack(theta)
    cl = assemble_closed_loop(spec.plant, controller)
    final = kreiss_norm(cl.channel())
    return SynthesisResult(controller=controller, theta=theta, report=final,
                           constraints=constraints, restarts_used=used,
                           history=history_all)
