"""Benchmark nonlinear plants and closed-loop simulation.

Ships the Lorenz system and the 2nd/4th-order oscillator models with their
quadratic/cubic nonlinearities, fixed-point and limit-cycle geometry, the
closed-loop vector field and its Jacobian (built on assemble_closed_loop,
evaluated on one state or a batch of states), switched-on closed-loop
integration of that field (an in-house Dormand-Prince 5(4) stepper that
takes scipy's RK45 steps, restarted exactly at the switch time, whose
samples stop before the first one beyond the blow-up radius) and
transient-amplification curves.

The stepper and the single-state field are written for low numpy call
overhead on vectors of a few entries, under a bitwise contract: every
reduction is the same BLAS call on the same operands as the plain
``A @ z`` / ``y + h * np.dot(K, b)`` form (ndarray.dot, not matmul, in
preallocated buffers), and only exact elementwise operations are
reordered.  Python float ``x ** 2`` is libm pow like numpy's scalar power;
``x * x`` is not.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    PreconditionError,
    StabilityError,
)
from .linalg import block_diag, is_hurwitz
from .loop import ControllerRealization, assemble_closed_loop
from .norms import _Impulse, _sigma_max
from .statespace import StateSpace

__all__ = [
    "closed_loop_field",
    "LorenzParams",
    "Brunton2Params",
    "Brunton4Params",
    "NonlinearModel",
    "Trajectory",
    "lorenz_model",
    "brunton2_model",
    "brunton4_model",
    "lorenz_fixed_points",
    "model_as_statespace",
    "limit_cycle_radius",
    "simulate_closed_loop",
    "transient_curve",
]


@dataclass(frozen=True)
class LorenzParams:
    p: float = 10.0
    R: float = 28.0
    b: float = 1.0

    def __post_init__(self):
        if self.p <= 0 or self.b <= 0:
            raise PreconditionError("Lorenz parameters p, b must be positive")


@dataclass(frozen=True)
class Brunton2Params:
    sigma_u: float = 0.1
    omega_u: float = 1.0
    alpha_u: float = 1.0
    beta_u: float = 1.0
    gamma_u: float = 0.0
    g: float = 1.0

    def __post_init__(self):
        if self.alpha_u <= 0 or self.beta_u <= 0:
            raise PreconditionError("alpha_u and beta_u must be positive")


@dataclass(frozen=True)
class Brunton4Params:
    """Fourth-order oscillator data.

    The numeric parameter set is external to this toolkit and must be
    supplied by the caller (e.g. through a problem file); `provenance`
    records where it came from.
    """

    sigma_u: float
    omega_u: float
    sigma_a: float
    omega_a: float
    alpha_u: float
    alpha_a: float
    g: float
    beta: dict = field(default_factory=dict)    # keys uu, au, ua, aa
    gamma: dict = field(default_factory=dict)   # keys uu, au, ua, aa
    provenance: str = "external"


#: NonlinearModel.check_origin accepts residual norms up to this
_ORIGIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class NonlinearModel:
    """dx/dt = A x + B_w phi(x) + B_u u, y = C_y x.

    phi has vector dimension n_phi; phi(0) = 0 and phi'(0) = 0 so the
    linearization at the origin is (A, B_u, C_y).  phi and phi_jacobian
    take one state or a batch x of shape (n, N), batch last, and return
    (n_phi, N) and (n_phi, n, N): lmi.lossless_check calls phi on one
    batch of all its samples, and the sampling certificates call both.
    """

    name: str
    A: np.ndarray
    B_w: np.ndarray
    B_u: np.ndarray
    C_y: np.ndarray
    n_phi: int
    phi: object            # callable x -> R^{n_phi}
    phi_jacobian: object   # callable x -> R^{n_phi x n}
    params: object = None

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def control_channel(self) -> StateSpace:
        """Linear channel (A, B_u, C_y) that a controller closes."""
        return StateSpace(self.A, self.B_u, self.C_y)

    def check_origin(self) -> bool:
        """Numeric check of B_w phi(0) = 0 and B_u phi'(0) C_y = 0."""
        z = np.zeros(self.n)
        ok = np.linalg.norm(self.B_w @ self.phi(z)) <= _ORIGIN_TOL
        ok = ok and np.linalg.norm(self.phi_jacobian(z)) <= _ORIGIN_TOL
        return bool(ok)


def lorenz_model(params: LorenzParams = LorenzParams(),
                 measurement: str = "x") -> NonlinearModel:
    """Lorenz system with actuation on the second state.

    measurement selects C_y: "x" (first state), "y" (second state), or
    "state" (full state feedback).
    """
    p, R, b = params.p, params.R, params.b
    A = np.array([[-p, p, 0.0], [R, -1.0, 0.0], [0.0, 0.0, -b]])
    B_w = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    B_u = np.array([[0.0], [1.0], [0.0]])
    if measurement == "x":
        C_y = np.array([[1.0, 0.0, 0.0]])
    elif measurement == "y":
        C_y = np.array([[0.0, 1.0, 0.0]])
    elif measurement == "state":
        C_y = np.eye(3)
    else:
        raise PreconditionError(f"unknown measurement '{measurement}'")

    def phi(x):
        return np.array([-x[0] * x[2], x[0] * x[1]])

    def phi_jac(x):
        zero = np.zeros_like(x[0])
        return np.array([[-x[2], zero, -x[0]], [x[1], x[0], zero]])

    return NonlinearModel(name="lorenz", A=A, B_w=B_w, B_u=B_u, C_y=C_y,
                          n_phi=2, phi=phi, phi_jacobian=phi_jac,
                          params=params)


def brunton2_model(params: Brunton2Params = Brunton2Params()) -> NonlinearModel:
    """Second-order oscillator with cubic saturation and limit cycle."""
    s, w = params.sigma_u, params.omega_u
    a, bb, gg, g = params.alpha_u, params.beta_u, params.gamma_u, params.g
    A = np.array([[s, -w], [w, s]])
    B_w = np.eye(2)
    B_u = np.array([[0.0], [g]])
    C_y = np.array([[0.0, 1.0]])
    M = np.array([[-bb, -gg], [gg, -bb]])

    M_dot = M.dot

    def phi(x):
        if x.ndim == 1:     # one state: Python floats, bitwise the array path
            xy = x[:2]
            x0, x1 = xy.tolist()
            return a * (x0 ** 2 + x1 ** 2) * M_dot(xy)
        return a * (x[0] ** 2 + x[1] ** 2) * (M @ x[:2])

    def phi_jac(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return a * (2.0 * (M @ x[:2])[:, None] * x[None, :2]
                    + np.multiply.outer(M, r2))

    return NonlinearModel(name="brunton2", A=A, B_w=B_w, B_u=B_u, C_y=C_y,
                          n_phi=2, phi=phi, phi_jacobian=phi_jac,
                          params=params)


def brunton4_model(params: Brunton4Params) -> NonlinearModel:
    """Fourth-order two-oscillator model; parameters supplied externally."""
    for key in ("uu", "au", "ua", "aa"):
        if key not in params.beta or key not in params.gamma:
            raise PreconditionError(
                f"fourth-order model needs beta/gamma '{key}' entries")

    def rot(sig, om):
        return np.array([[sig, -om], [om, sig]])

    def damp(b, gdm):
        return np.array([[-b, -gdm], [gdm, -b]])

    A = block_diag(rot(params.sigma_u, params.omega_u),
                   rot(params.sigma_a, params.omega_a))
    A5 = block_diag(damp(params.beta["uu"], params.gamma["uu"]),
                    damp(params.beta["au"], params.gamma["au"]))
    A6 = block_diag(damp(params.beta["ua"], params.gamma["ua"]),
                    damp(params.beta["aa"], params.gamma["aa"]))
    B_w = np.eye(4)
    B_u = np.array([[0.0], [params.g], [0.0], [params.g]])
    C_y = np.array([[1.0, 0.0, 1.0, 0.0]])

    def phi(x):
        ru = x[0] ** 2 + x[1] ** 2
        ra = x[2] ** 2 + x[3] ** 2
        return params.alpha_u * ru * (A5 @ x) + params.alpha_a * ra * (A6 @ x)

    def phi_jac(x):
        ru = x[0] ** 2 + x[1] ** 2
        ra = x[2] ** 2 + x[3] ** 2
        base = (np.multiply.outer(A5, params.alpha_u * ru)
                + np.multiply.outer(A6, params.alpha_a * ra))
        xu = np.zeros_like(x)
        xu[:2] = x[:2]
        xa = x - xu
        du = 2.0 * (params.alpha_u * (A5 @ x))[:, None] * xu[None, :]
        da = 2.0 * (params.alpha_a * (A6 @ x))[:, None] * xa[None, :]
        return base + du + da

    return NonlinearModel(name="brunton4", A=A, B_w=B_w, B_u=B_u, C_y=C_y,
                          n_phi=4, phi=phi, phi_jacobian=phi_jac,
                          params=params)


def lorenz_fixed_points(params: LorenzParams):
    """The steady states: origin plus (+-sqrt(R-1), +-sqrt(R-1), R-1).

    For R <= 1 only the origin exists; the second return value flags
    whether the off-origin pair is present.
    """
    origin = np.zeros(3)
    if params.R <= 1.0:
        return [origin], False
    r = math.sqrt(params.R - 1.0)
    return [origin, np.array([r, r, params.R - 1.0]),
            np.array([-r, -r, params.R - 1.0])], True


def model_as_statespace(model: NonlinearModel) -> StateSpace:
    """Linear channel (A, B_w, C_y) for disturbance-to-measurement analysis."""
    return StateSpace(model.A, model.B_w, model.C_y)


def limit_cycle_radius(params: Brunton2Params):
    """Open-loop limit cycle radius sqrt(sigma_u / (alpha_u beta_u)).

    Returns (radius, exists); sigma_u <= 0 means no limit cycle.
    """
    if params.sigma_u <= 0:
        return 0.0, False
    return math.sqrt(params.sigma_u / (params.alpha_u * params.beta_u)), True


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

#: the integrator's relative and absolute tolerances
_SIM_RTOL = 1e-9
_SIM_ATOL = 1e-12
#: samples of the uniform output grid over [0, t_final] (t_on is added)
_SIM_POINTS = 2001
#: a trajectory whose ||z|| crosses this radius has blown up
_BLOWUP_RADIUS = 1e9


@dataclass(eq=False)
class Trajectory:
    t: np.ndarray
    x: np.ndarray          # plant states, shape (n, len(t))
    x_K: np.ndarray        # controller states, shape (n_K, len(t))
    u: np.ndarray          # control input, shape (p, len(t))
    y: np.ndarray          # measurement, shape (m, len(t))
    diverged: bool
    final_state: np.ndarray
    nfev: int = 0          # field evaluations of both segments

    def final_plant_norm(self) -> float:
        return float(np.linalg.norm(self.x[:, -1]))


def closed_loop_field(model: NonlinearModel,
                      controller: ControllerRealization | None):
    """(f, J_f) of the autonomous closed loop in the stacked state z = (x, x_K).

    With (A_cl, B_w_cl, J) from assemble_closed_loop,
    f(z) = A_cl z + B_w_cl phi(x) and J_f(z) = A_cl + B_w_cl phi'(x) J^T;
    controller None is the static zero gain.  z is (n_z,) or a batch
    (n_z, N) with the batch on the last axis: f returns (n_z, N) and J_f
    (n_z, n_z, N).  f is bitwise ``A_cl @ z + B_w_cl @ phi(x)``: it binds
    A_cl.dot, B_w_cl.dot and phi once and keeps the two products and the
    one add (merging A_cl and B_w_cl into one map would reorder the sums).
    """
    if controller is None:
        controller = ControllerRealization.static(
            np.zeros((model.B_u.shape[1], model.C_y.shape[0])))
    cl = assemble_closed_loop(model.control_channel(), controller,
                              B_w=model.B_w)
    n = model.n
    A_dot, B_dot, phi = cl.A_cl.dot, cl.B_w_cl.dot, model.phi

    def f(z):
        fz = A_dot(z)
        fz += B_dot(phi(z[:n]))
        return fz

    def jac(z):
        batch = (np.newaxis,) * (np.ndim(z) - 1)
        return cl.A_cl[(...,) + batch] + np.einsum(
            "ij,jk...,lk->il...", cl.B_w_cl, model.phi_jacobian(z[:n]), cl.J)

    return f, jac


# Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput. Appl. Math. 6(1),
# 1980), first same as last, with Shampine's 4th-order dense output (Math.
# Comp. 46(173), 1986): the tableau of scipy's RK45.  The closed-loop field
# is autonomous, so the nodes c_i are not needed.
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step control of Hairer, Norsett & Wanner, Solving ODEs I, II.4: the
# new step is h * SAFETY * err^(-1/5), clipped to [MIN, MAX] factors
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERR_EXPONENT = -1 / 5
_EPS = float(np.finfo(float).eps)
#: step attempts, accepted or rejected, one integration may take: about 15
#: times the longest integration of the tests and benchmarks (open-loop
#: Lorenz to t = 50, about 6,850 steps)
_MAX_STEPS = 100_000


def _norm(v) -> float:
    """Euclidean norm of a real vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _dopri5(field, t0, t_bound, z0, t_eval, rtol, atol, radius):
    """Integrate z' = field(z) from z(t0) = z0 to t_bound > t0.

    Runs the algorithm of scipy's ``solve_ivp(method="RK45")`` on the
    numpy and BLAS calls of scipy 1.17's RK45, so its steps and field
    evaluations are bitwise those of that call with a terminal, upward
    blow-up event ||z|| - radius; what it leaves out is solve_ivp's
    per-step machinery.  Needs ||z0|| < radius.  Returns (t, z, nfev,
    diverged), the samples at the sorted times t_eval in [t0, t_bound]
    that the integration reached, shaped (k,) and (n, k).  diverged is set
    when a step ends at or beyond the radius (its dense-output samples
    stop before the first one beyond it: solve_ivp's samples, which stop
    at the event's root, unless one lies within a few ulp of the crossing
    or the norm crosses the radius more than once inside the step) or when
    the step size fell below 10 ulp(t) or became NaN (an overflowed field,
    on which solve_ivp steps forever).  Raises NumericalError after
    _MAX_STEPS step attempts.

    Every step, solution, error and dense-output value is bitwise that of
    the plain form ``y + np.dot(K, a) * h``: the same BLAS products
    (ndarray.dot), with the elementwise scaling and sums in place in
    preallocated buffers.  Each step with samples keeps (t_old, h, y_old,
    Q); after the loop the powers ((t - t_old) / h)^k of all samples are
    formed in one pass, and only y_old + h Q P stays per step.
    """
    rtol = max(rtol, 100 * _EPS)
    n = z0.size
    sqrt_n = n ** 0.5
    y = z0
    f = field(y)
    # initial step (Hairer, Norsett & Wanner, II.4)
    span = t_bound - t0
    abs_y = np.abs(y)
    scale = atol + abs_y * rtol
    # numpy scalars: an overflowed state gives inf or NaN here, not an error
    d0 = np.linalg.norm(y / scale) / sqrt_n
    d1 = np.linalg.norm(f / scale) / sqrt_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = np.linalg.norm((field(y + h0 * f) - f) / scale) / sqrt_n / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span)
    nfev = 2

    K = np.empty((7, n))    # the stages; the last one is f at the step's end
    arg = np.empty(n)       # a stage's argument y + h K a
    stages = [(K[s], K[:s].T.dot, _DP_A[s, :s]) for s in range(1, 6)]
    sol_dot, all_dot = K[:-1].T.dot, K.T.dot
    abs_new, scale, err_v = np.empty(n), np.empty(n), np.empty(n)
    # 0-d arrays: numpy multiplies by them with less overhead than by floats
    h_arr, rtol_arr = np.empty(()), np.array(rtol)
    atol_arr = np.array(atol, dtype=float)
    times = t_eval.tolist()
    i = 0
    # the r-th step with samples: its samples end at ends[r], and its dense
    # output y_old + h Q (x, x^2, x^3, x^4), x = (t - t_old) / h
    m = len(times)
    ends, t_olds, hs = np.empty(m, dtype=np.intp), np.empty(m), np.empty(m)
    y_olds, Qs = np.empty((m, n)), np.empty((m, n, 4))
    r = 0
    cut = None      # the first sample of a step that ends beyond the radius
    t = t0
    diverged = False
    steps = 0
    while t < t_bound and not diverged:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:    # False also for a NaN step size
            steps += 1
            if steps > _MAX_STEPS:
                raise NumericalError(
                    f"integration stopped at t = {t:.6g} after {_MAX_STEPS} "
                    f"steps (t_final {t_bound:g}): the loop is too stiff "
                    "or too fast there")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            h_arr[()] = h
            K[0] = f
            for row, KT_dot, a in stages:
                KT_dot(a, out=arg)
                arg *= h_arr
                arg += y
                row[...] = field(arg)
            y_new = sol_dot(_DP_B)
            y_new *= h_arr
            y_new += y
            f_new = field(y_new)
            K[6] = f_new
            nfev += 6
            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol_arr
            scale += atol_arr
            all_dot(_DP_E, out=err_v)
            err_v *= h_arr
            err_v /= scale
            err = _norm(err_v) / sqrt_n
            if err < 1:
                factor = (_MAX_FACTOR if err == 0 else
                          min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXPONENT)
            rejected = True
        else:
            diverged = True
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        abs_y, abs_new = abs_new, abs_y
        # every step starts inside the radius, so this is an upward crossing
        diverged = _norm(y) >= radius
        j = bisect.bisect_right(times, t, i)
        if j > i:
            ends[r], t_olds[r], hs[r] = j, t_old, h
            y_olds[r] = y_old
            all_dot(_DP_P, out=Qs[r])
            r += 1
            if diverged:
                cut = i
            i = j
    # the powers of every sample in one pass, then one product per step
    counts = np.diff(ends[:r], prepend=0)
    P = np.empty((4, i))
    P[:] = (t_eval[:i] - t_olds[:r].repeat(counts)) / hs[:r].repeat(counts)
    P.cumprod(axis=0, out=P)
    z = np.empty((n, i))
    i = 0
    for j, h, y_old, Q in zip(ends[:r].tolist(), hs[:r].tolist(), y_olds, Qs):
        zk = z[:, i:j]
        np.multiply(Q.dot(P[:, i:j]), h, out=zk)
        zk += y_old[:, None]
        i = j
    if cut is not None:     # stop before the first sample beyond the radius
        beyond = np.linalg.norm(z[:, cut:], axis=0) > radius
        if beyond.any():
            z = z[:, :cut + int(beyond.argmax())]
    return t_eval[:z.shape[1]], z, nfev, diverged


def simulate_closed_loop(model: NonlinearModel,
                         controller: ControllerRealization | None,
                         x0, t_on: float, t_final: float) -> Trajectory:
    """Integrate the loop with u = 0 before t_on and u = K y after.

    The integration restarts exactly at t_on (controller state starts at
    zero there) and ends at t_final.  Each segment runs the module's
    Dormand-Prince 5(4) stepper at the fixed tolerances _SIM_RTOL and
    _SIM_ATOL, which takes the steps and field evaluations of scipy's
    ``solve_ivp(method="RK45")``; the samples are _SIM_POINTS uniform times
    and t_on.  Finite-time blowup (a step ending with ||z|| at or beyond
    _BLOWUP_RADIUS, or a step below 10 ulp(t)) is reported as a diverged
    trajectory; its samples stop before the first one beyond the radius,
    and its final_state is the last of them.  Raises PreconditionError
    unless x0 and the times are finite, x0 has one entry per plant state,
    0 <= t_on <= t_final, t_final > 0 and ||x0|| < _BLOWUP_RADIUS, and
    NumericalError when a segment needs more than _MAX_STEPS (100,000)
    step attempts, as a start far out on a fast loop can.  The
    trajectory's nfev counts the field evaluations of both segments.
    """
    if not (math.isfinite(t_on) and math.isfinite(t_final)):
        raise PreconditionError("t_on and t_final must be finite")
    if not 0.0 <= t_on <= t_final or t_final <= 0.0:
        raise PreconditionError(
            "times must satisfy 0 <= t_on <= t_final and t_final > 0")
    if controller is not None and (controller.n_meas != model.C_y.shape[0]
                                   or controller.n_ctrl != model.B_u.shape[1]):
        raise DimensionError("controller dimensions do not match the model")
    n = model.n
    n_K = controller.n_K if controller is not None else 0
    p, m = model.B_u.shape[1], model.C_y.shape[0]
    # before t_on: a zero controller of the same order keeps x_K at 0, u = 0
    off = ControllerRealization(np.zeros((n_K, n_K)), np.zeros((n_K, m)),
                                np.zeros((p, n_K)), np.zeros((p, m)))
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != n:
        raise PreconditionError(f"x0 must have {n} entries")
    if not np.isfinite(x0).all():
        raise PreconditionError("x0 must be finite")
    # _dopri5 reads a step ending beyond the radius as an upward crossing
    if math.hypot(*x0) >= _BLOWUP_RADIUS:
        raise PreconditionError("x0 must lie inside the blow-up radius")

    t_grid = np.linspace(0.0, t_final, _SIM_POINTS)
    t_grid = np.unique(np.concatenate([t_grid, [t_on]]))
    segs = []
    diverged = False
    nfev = 0
    z = np.concatenate([x0, np.zeros(n_K)])
    for (a, b, ctrl) in ((0.0, t_on, off), (t_on, t_final, controller)):
        if b <= a:
            continue
        field = closed_loop_field(model, ctrl)[0]
        t_eval = t_grid[(t_grid >= a) & (t_grid <= b)]
        t_seg, z_seg, seg_nfev, diverged = _dopri5(
            field, a, b, z, t_eval, _SIM_RTOL, _SIM_ATOL, _BLOWUP_RADIUS)
        nfev += seg_nfev
        segs.append((t_seg, z_seg))
        if t_seg.size:
            z = z_seg[:, -1]
        if diverged:
            break
    if not segs[0][0].size:     # the first step failed: keep the start
        segs[0] = (np.zeros(1), z[:, None])
    t_all = np.concatenate([s[0] for s in segs])
    z_all = np.hstack([s[1] for s in segs])
    # drop the duplicated junction point
    keep = np.concatenate([[True], np.diff(t_all) > 0])
    t_all = t_all[keep]
    z_all = z_all[:, keep]
    x = z_all[:n, :]
    xk = z_all[n:, :]
    y = model.C_y @ x
    u = np.zeros((p, len(t_all)))
    if controller is not None:
        after = t_all >= t_on
        u[:, after] = (controller.C_K @ xk[:, after]
                       + controller.D_K @ y[:, after])
    return Trajectory(t=t_all, x=x, x_K=xk, u=u, y=y, diverged=diverged,
                      final_state=z_all[:, -1], nfev=nfev)


def transient_curve(A_cl, J, t_grid):
    """sigma_max(J^T e^{A_cl t} J) sampled on a time grid."""
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if not is_hurwitz(A_cl):
        raise StabilityError("transient curve requires a Hurwitz matrix")
    t_grid = np.asarray(t_grid, dtype=float)
    return _sigma_max(_Impulse(StateSpace(A_cl, J, J.T)).matrices(t_grid))
