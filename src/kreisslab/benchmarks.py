"""Benchmark plants, reference controllers and certificate data.

The controller gains reproduce published closed-loop results for the
oscillator and Lorenz benchmarks; printed transfer functions are realized
with B_K = 1 so the remaining numerator weight sits in C_K.  Catalog
entries carry notes where the printed source was typographically ambiguous
and a resolution had to be fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .loop import ControllerRealization
from .models import Brunton2Params, LorenzParams, brunton2_model, lorenz_model
from .statespace import StateSpace, tf_to_ss

__all__ = [
    "CatalogEntry",
    "brunton2_default",
    "brunton_plant",
    "rolloff_weight",
    "BRUNTON_CONTROLLERS",
    "lorenz_chaos",
    "lorenz_fixed_point",
    "lorenz_plant",
    "LORENZ_CHAOS_QC",
    "LORENZ_CHAOS_KREISS",
    "LORENZ_FP_QC",
    "LORENZ_FP_KREISS",
    "first_order_lyapunov_coefficients",
]


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    controller: ControllerRealization
    measurement: str = "x"
    notes: str = ""


# ---------------------------------------------------------------------------
# Second-order oscillator benchmark
# ---------------------------------------------------------------------------

def brunton2_default() -> Brunton2Params:
    return Brunton2Params(sigma_u=0.1, omega_u=1.0, alpha_u=1.0, beta_u=1.0,
                          gamma_u=0.0, g=1.0)


def brunton_plant(params: Brunton2Params | None = None) -> StateSpace:
    """Control channel (A, B_u, C_y) of the oscillator model."""
    return brunton2_model(params or brunton2_default()).control_channel()


def rolloff_weight() -> StateSpace:
    """High-pass weight enforcing controller roll-off via ||W T||_inf <= 1."""
    return tf_to_ss([1e6, 1e4, 24.99], [1.0, 1e4, 2.5e7])


#: static gain whose closed loop reproduces the published decay
#: alpha(A_cl) = -1.9899e-4 exactly; the printed two-decimal value -0.20
#: sits exactly on the Appendix gain-window boundary and gives alpha = 0.
BRUNTON_STATIC_GAIN = -0.2 + 2.0 * (-1.9899e-4)
BRUNTON_STATIC_PRINTED = -0.20

BRUNTON_CONTROLLERS = {
    "static": CatalogEntry(
        name="static",
        controller=ControllerRealization.static([[BRUNTON_STATIC_GAIN]]),
        measurement="y",
        notes="gain back-solved from the published closed-loop decay; the "
              "printed -0.20 is the rounded boundary value"),
    "first_order": CatalogEntry(
        name="first_order",
        controller=ControllerRealization.from_tf([0.001071, -2.247],
                                                 [1.0, 1.483]),
        measurement="y",
        notes="denominator read as (s + 1.483); source parentheses "
              "unbalanced"),
    "third_order": CatalogEntry(
        name="third_order",
        controller=ControllerRealization.from_tf(
            [-0.008068, -6.391, 83.2, -1673.0],
            [1.0, 27.97, 252.8, 1333.0]),
        measurement="y"),
}

#: fourth-order oscillator reference controllers (model data is external)
BRUNTON4_CONTROLLERS = {
    "kreiss": CatalogEntry(
        name="kreiss",
        controller=ControllerRealization.from_tf([0.03538, -0.5306],
                                                 [1.0, 0.667])),
    "mixed_sensitivity": CatalogEntry(
        name="mixed_sensitivity",
        controller=ControllerRealization.from_tf([34.31, 168.1],
                                                 [1.0, 32.47])),
}


# ---------------------------------------------------------------------------
# Lorenz benchmarks
# ---------------------------------------------------------------------------

def lorenz_chaos() -> LorenzParams:
    return LorenzParams(p=10.0, R=28.0, b=1.0)


def lorenz_fixed_point() -> LorenzParams:
    return LorenzParams(p=10.0, R=10.0, b=1.0)


def lorenz_plant(params: LorenzParams | None = None,
                 measurement: str = "x") -> StateSpace:
    return lorenz_model(params or lorenz_chaos(),
                        measurement=measurement).control_channel()


def _neg_first_order(n1: float, n0: float, d0: float) -> ControllerRealization:
    """K(s) = -(n1 s + n0)/(s + d0)."""
    return ControllerRealization.from_tf([-n1, -n0], [1.0, d0])


LORENZ_CHAOS_QC = {
    "dynamic_x": CatalogEntry(
        name="dynamic_x", controller=_neg_first_order(306.5, 2809.0, 0.1044),
        measurement="x",
        notes="numerator read as -(306.5 s + 2809); the printed form lacks "
              "the s"),
    "state": CatalogEntry(
        name="state",
        controller=ControllerRealization.static([[-154.40, 0.245, 0.0]]),
        measurement="state",
        notes="first gain read as -154.40; printed with a comma as decimal "
              "separator"),
    "static_x": CatalogEntry(
        name="static_x",
        controller=ControllerRealization.static([[-27.01]]), measurement="x"),
    "static_y": CatalogEntry(
        name="static_y",
        controller=ControllerRealization.static([[-27.01]]), measurement="y"),
}

LORENZ_CHAOS_KREISS = {
    "dynamic_x": CatalogEntry(
        name="dynamic_x", controller=_neg_first_order(47.06, 715.7, 17.95),
        measurement="x"),
    "state": CatalogEntry(
        name="state",
        controller=ControllerRealization.static([[-41.07, -13.78, 0.0]]),
        measurement="state"),
    "static_x": CatalogEntry(
        name="static_x",
        controller=ControllerRealization.static([[-34.70]]), measurement="x"),
    "static_y": CatalogEntry(
        name="static_y",
        controller=ControllerRealization.static([[-32.55]]), measurement="y"),
}

LORENZ_FP_QC = {
    "dynamic_x": CatalogEntry(
        name="dynamic_x", controller=_neg_first_order(288.5, 2807.0, 0.104),
        measurement="x"),
    "state": CatalogEntry(
        name="state",
        controller=ControllerRealization.static([[-136.40, 0.24, 0.0]]),
        measurement="state"),
    "static_x": CatalogEntry(
        name="static_x",
        controller=ControllerRealization.static([[-9.01]]), measurement="x"),
    "static_y": CatalogEntry(
        name="static_y",
        controller=ControllerRealization.static([[-9.01]]), measurement="y"),
}

LORENZ_FP_KREISS = {
    "dynamic_x": CatalogEntry(
        name="dynamic_x", controller=_neg_first_order(12.23, 67.63, 5.541),
        measurement="x"),
    "state": CatalogEntry(
        name="state",
        controller=ControllerRealization.static([[-4.47, -6.92, 0.0]]),
        measurement="state"),
    "static_x": CatalogEntry(
        name="static_x",
        controller=ControllerRealization.static([[-26.32]]), measurement="x"),
    "static_y": CatalogEntry(
        name="static_y",
        controller=ControllerRealization.static([[-11.53]]), measurement="y"),
}


# ---------------------------------------------------------------------------
# Published degree-2 Lyapunov certificate (oscillator + first-order loop)
# ---------------------------------------------------------------------------

#: controller-state scale of the published certificate relative to B_K = 1
FIRST_ORDER_CERT_STATE_SCALE = 15.0


def first_order_certificate_controller() -> ControllerRealization:
    """first_order controller realized in the certificate's coordinates.

    Same transfer function as the catalog entry, with the controller state
    scaled so that the published V1/V2 coefficients certify dV/dt < 0; the
    publication does not print the realization it used.
    """
    c = FIRST_ORDER_CERT_STATE_SCALE
    residue = -2.247 - 0.001071 * 1.483
    return ControllerRealization([[-1.483]], [[c]], [[residue / c]],
                                 [[0.001071]])


def first_order_lyapunov_coefficients():
    """(V1, V2) coefficient maps over monomials in (x, y, x_K).

    Keys are exponent tuples; the certificate frame is the realization
    returned by first_order_certificate_controller().
    """
    V1 = {
        (2, 0, 0): 2.556,
        (1, 1, 0): -1.389,
        (1, 0, 1): -0.02803,
        (0, 2, 0): 2.897,
        (0, 1, 1): -3.846e-5,
        (0, 0, 2): 0.003159,
    }
    V2 = {
        (2, 0, 0): -0.2061,
        (1, 1, 0): 0.008941,
        (1, 0, 1): -1.324e-6,
        (0, 2, 0): -0.1787,
        (0, 1, 1): 1.641e-5,
        (0, 0, 2): -0.008169,
    }
    return V1, V2
