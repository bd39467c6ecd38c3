"""Analytic global-stability criteria for the oscillator closed loop.

Static gain windows from steady-state uniqueness plus the Bendixson
condition, the DC-gain condition for dynamic controllers, radius bounds by
the comparison lemma, and sampling verification of printed polynomial
Lyapunov certificates (V = V1 + dV2/dt with dV/dt < 0).  Sampling
falsifies; a pass is evidence, not a proof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, PreconditionError, SchemaError
from .loop import ControllerRealization
from .models import Brunton2Params, _norm
from .norms import _decay_envelope  # shared with the M0 horizon

__all__ = [
    "GainWindow",
    "BendixsonReport",
    "PolyCertificate",
    "YorkeSampleReport",
    "static_gain_window",
    "bendixson_sign",
    "dc_gain_condition",
    "yorke_sample_check",
    "boundedness_bound",
    "load_certificate",
]

@dataclass(frozen=True)
class GainWindow:
    """Open interval of static gains (-2 omega/g, -2 sigma/g)."""

    lower: float
    upper: float

    @property
    def empty(self) -> bool:
        return not self.lower < self.upper

    def classify(self, K: float) -> str:
        """"inside" / "boundary" / "outside" with strict endpoints."""
        if self.empty:
            return "outside"
        if K in (self.lower, self.upper):
            return "boundary"
        if self.lower < K < self.upper:
            return "inside"
        return "outside"


def static_gain_window(params: Brunton2Params) -> GainWindow:
    """Gains with a unique steady state and no periodic orbit.

    Both inequalities are strict: K < -2 sigma/g (Bendixson) and
    -K < 2 omega/g (steady-state uniqueness); the window is empty when
    sigma >= omega.
    """
    if params.g <= 0:
        raise PreconditionError("actuation gain g must be positive")
    return GainWindow(lower=-2.0 * params.omega_u / params.g,
                      upper=-2.0 * params.sigma_u / params.g)


@dataclass(frozen=True)
class BendixsonReport:
    """Sign report of the divergence 2 sigma - 4 alpha beta r^2 + g K."""

    sup_divergence: float
    certified: bool
    boundary: bool


def bendixson_sign(params: Brunton2Params, K: float) -> BendixsonReport:
    """No periodic orbit when 2 sigma + g K < 0 (strict).

    The divergence of the closed planar field is
    2 sigma - 4 alpha beta r^2 + g K, maximal at r = 0.
    """
    sup = 2.0 * params.sigma_u + params.g * K
    return BendixsonReport(sup_divergence=sup, certified=bool(sup < 0.0),
                           boundary=bool(sup == 0.0))


def dc_gain_condition(controller: ControllerRealization,
                      params: Brunton2Params):
    """|K(0)| < 2 omega/g, the steady-state uniqueness test for dynamic K.

    Returns (ok, |K(0)|).  A_K must be invertible.
    """
    dc = controller.dc_gain()
    value = float(np.abs(dc).max())
    bound = 2.0 * params.omega_u / params.g
    return bool(value < bound), value


# ---------------------------------------------------------------------------
# Polynomial certificate sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyCertificate:
    """Degree-2 polynomials V1, V2 as coefficient maps {exponents: coeff}."""

    V1: dict
    V2: dict
    n_vars: int

    def __post_init__(self):
        for name, poly in (("V1", self.V1), ("V2", self.V2)):
            for mono, coeff in poly.items():
                if len(mono) != self.n_vars:
                    raise SchemaError(f"{name} monomial {mono} has wrong arity")
                if sum(mono) != 2:
                    raise SchemaError(f"{name} must be homogeneous degree 2")
                if not math.isfinite(coeff):
                    raise SchemaError(f"{name} coefficient not finite")

    def matrix(self, which: str) -> np.ndarray:
        """Symmetric matrix S with V(x) = x^T S x."""
        poly = self.V1 if which == "V1" else self.V2
        S = np.zeros((self.n_vars, self.n_vars))
        for mono, coeff in poly.items():
            idx = [i for i, e in enumerate(mono) for _ in range(e)]
            i, j = idx
            if i == j:
                S[i, i] += coeff
            else:
                S[i, j] += coeff / 2.0
                S[j, i] += coeff / 2.0
        return S


def load_certificate(path) -> PolyCertificate:
    """Read a certificate file: {"variables": [...], "V1": {...}, "V2": {...}}.

    Monomial keys are comma-separated exponent tuples, e.g. "1,0,1".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        n_vars = len(payload["variables"])

        def parse(block):
            out = {}
            for key, coeff in block.items():
                mono = tuple(int(v) for v in key.split(","))
                out[mono] = float(coeff)
            return out

        return PolyCertificate(V1=parse(payload["V1"]),
                               V2=parse(payload["V2"]), n_vars=n_vars)
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SchemaError(f"bad certificate file: {exc}") from exc


@dataclass(frozen=True)
class YorkeSampleReport:
    min_neg_vdot: float
    passed: bool
    samples: int
    worst_state: np.ndarray


#: yorke_sample_check draws states with radius in this annulus
_YORKE_ANNULUS = (1e-3, 1e2)


def _annulus_states(rng, n, samples):
    """(n, samples) states r d / ||d|| with d standard normal, log r uniform.

    Each sample draws d, then log r, in that order.  The scaling runs in
    place on all samples after the draws: bitwise the per-sample
    (d / ||d||) r, with ||d|| as np.linalg.norm computes it (models._norm).
    """
    log_lo, log_hi = (math.log(v) for v in _YORKE_ANNULUS)
    X = np.empty((n, samples))
    norms = np.empty(samples)
    radii = np.empty(samples)
    for k in range(samples):
        d = rng.standard_normal(n)
        X[:, k] = d
        norms[k] = _norm(d)
        radii[k] = math.exp(rng.uniform(log_lo, log_hi))
    X /= norms
    X *= radii
    return X


def yorke_sample_check(cert: PolyCertificate, field, jacobian,
                       samples: int = 100000,
                       seed: int = 0) -> YorkeSampleReport:
    """Sample dV/dt < 0 for V = V1 + dV2/dt along the closed-loop field.

    With quadratic V1, V2 the derivative is
    dV/dt = (2 S1 x + 2 S2 f(x) + J_f(x)^T 2 S2 x) . f(x).
    States are drawn from the annulus with log-uniform radius; pass
    requires dV/dt < 0 at every sample.  field and jacobian are called
    once, on all states as one (n, samples) array with the batch on the
    last axis; they return (n, samples) and (n, n, samples), or an (n, n)
    Jacobian that is the same at every state.  Raises ArgumentError for
    samples < 1 (no sample is no evidence) or seed < 0.
    """
    if samples < 1:
        raise ArgumentError("samples", "must be at least 1")
    if seed < 0:
        raise ArgumentError("seed", "must be at least 0")
    S1 = cert.matrix("V1")
    S2 = cert.matrix("V2")
    X = _annulus_states(np.random.default_rng(seed), cert.n_vars, samples)
    F = np.asarray(field(X), dtype=float)
    Jf = np.asarray(jacobian(X), dtype=float)
    grad = (2.0 * (S1 @ X) + 2.0 * (S2 @ F)
            + np.einsum("ij...,i...->j...", Jf, 2.0 * (S2 @ X)))
    neg_vdot = -np.einsum("ij,ij->j", grad, F)
    # the first minimizer; a NaN sample is the minimum and fails
    k = int(np.argmin(neg_vdot))
    min_neg = float(neg_vdot[k])
    return YorkeSampleReport(min_neg_vdot=min_neg, passed=bool(min_neg > 0.0),
                             samples=samples, worst_state=X[:, k].copy())


# ---------------------------------------------------------------------------
# Comparison-lemma radius bound
# ---------------------------------------------------------------------------

def boundedness_bound(params: Brunton2Params,
                      controller: ControllerRealization) -> float:
    """Radius bound sqrt((sigma + g max(0, D_K) + g ||C_K|| c) / (alpha beta)).

    c = ||B_K|| integral of ||e^{t A_K}|| bounds the controller-state gain;
    the dominated scalar equation r' = (...) r - alpha beta r^3 then caps
    every trajectory radius that starts below the bound.  A_K must be
    Hurwitz.  The integral is the closed form sum_{k<n_K} nu^k /
    |alpha|^{k+1} of Van Loan's decay envelope e^{alpha t} sum_{k<n_K}
    (nu t)^k / k!, nu Henrici's departure from normality of A_K
    (norms._decay_envelope): exact for n_K = 1, where nu is not used, an
    upper bound above, so the radius stays a bound.  Negative static gains add
    nothing (their radial term is nonpositive), recovering the open-loop
    radius.
    """
    if controller.n_K:
        _, alpha, nu = _decay_envelope(controller.A_K)
        if alpha >= 0:
            raise PreconditionError("boundedness bound needs Hurwitz A_K")
        c_gain = sum(nu ** k / (-alpha) ** (k + 1)
                     for k in range(controller.n_K))
        ck = float(np.linalg.norm(controller.C_K, 2))
        bk = float(np.linalg.norm(controller.B_K, 2))
        drive = params.g * max(0.0, float(controller.D_K.max())) \
            + params.g * ck * bk * c_gain
    else:
        drive = params.g * max(0.0, float(controller.D_K.max()))
    rate = params.sigma_u + drive
    return math.sqrt(max(rate, 0.0) / (params.alpha_u * params.beta_u))
