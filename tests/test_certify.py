import json

import numpy as np
import pytest

from kreisslab.benchmarks import (
    BRUNTON_STATIC_PRINTED,
    brunton2_default,
    first_order_certificate_controller,
    first_order_lyapunov_coefficients,
)
from kreisslab.certify import (
    PolyCertificate,
    bendixson_sign,
    boundedness_bound,
    dc_gain_condition,
    load_certificate,
    static_gain_window,
    yorke_sample_check,
)
from kreisslab.errors import PreconditionError, SchemaError
from kreisslab.loop import ControllerRealization
from kreisslab.models import (
    Brunton2Params,
    SimulationOptions,
    brunton2_model,
    closed_loop_field,
    simulate_closed_loop,
)


def test_static_gain_window_default_parameters():
    window = static_gain_window(Brunton2Params(sigma_u=0.1, omega_u=1.0, g=1.0))
    assert window.lower == pytest.approx(-2.0)
    assert window.upper == pytest.approx(-0.2)
    assert not window.empty


def test_static_gain_window_empty_when_sigma_reaches_omega():
    window = static_gain_window(Brunton2Params(sigma_u=1.0, omega_u=1.0))
    assert window.empty


def test_printed_static_gain_sits_on_boundary():
    window = static_gain_window(brunton2_default())
    assert window.classify(BRUNTON_STATIC_PRINTED) == "boundary"
    assert window.classify(-1.0) == "inside"
    assert window.classify(-0.1) == "outside"


def test_bendixson_certificates():
    params = brunton2_default()
    assert bendixson_sign(params, -1.0).certified
    assert not bendixson_sign(params, 0.0).certified
    boundary = bendixson_sign(params, -0.2)
    assert not boundary.certified
    assert boundary.boundary


def test_dc_gain_condition_first_order():
    ctrl = ControllerRealization.from_tf([0.001071, -2.247], [1.0, 1.483])
    ok, value = dc_gain_condition(ctrl, brunton2_default())
    assert ok
    assert value == pytest.approx(abs(-2.247 / 1.483), rel=1e-9)


def test_dc_gain_condition_static_branch():
    ok, value = dc_gain_condition(ControllerRealization.static([[-0.5]]),
                                  brunton2_default())
    assert ok and value == pytest.approx(0.5)
    ok2, value2 = dc_gain_condition(ControllerRealization.static([[-2.5]]),
                                    brunton2_default())
    assert not ok2 and value2 == pytest.approx(2.5)


def test_dc_gain_condition_zero_CK():
    ctrl = ControllerRealization([[-1.0]], [[1.0]], [[0.0]], [[0.7]])
    ok, value = dc_gain_condition(ctrl, brunton2_default())
    assert value == pytest.approx(0.7)
    assert ok


def test_dc_gain_needs_invertible_AK():
    ctrl = ControllerRealization([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(PreconditionError):
        dc_gain_condition(ctrl, brunton2_default())


def test_poly_certificate_rejects_wrong_degree():
    with pytest.raises(SchemaError):
        PolyCertificate(V1={(1, 0, 0): 1.0}, V2={}, n_vars=3)


def test_certificate_file_roundtrip(tmp_path):
    V1, V2 = first_order_lyapunov_coefficients()
    path = tmp_path / "cert.json"
    payload = {
        "variables": ["x", "y", "x_K"],
        "V1": {",".join(map(str, k)): v for k, v in V1.items()},
        "V2": {",".join(map(str, k)): v for k, v in V2.items()},
    }
    path.write_text(json.dumps(payload))
    cert = load_certificate(path)
    assert cert.n_vars == 3
    assert cert.V1[(2, 0, 0)] == pytest.approx(2.556)


def test_yorke_published_certificate_passes():
    model = brunton2_model(brunton2_default())
    ctrl = first_order_certificate_controller()
    V1, V2 = first_order_lyapunov_coefficients()
    cert = PolyCertificate(V1=V1, V2=V2, n_vars=3)
    field, jac = closed_loop_field(model, ctrl)
    rep = yorke_sample_check(cert, field, jac, samples=20000, seed=0)
    assert rep.passed
    assert rep.min_neg_vdot > 0


def test_yorke_fails_for_sign_flipped_certificate():
    model = brunton2_model(brunton2_default())
    ctrl = first_order_certificate_controller()
    cert = PolyCertificate(V1={(2, 0, 0): -1.0, (0, 2, 0): -1.0,
                               (0, 0, 2): -1.0}, V2={}, n_vars=3)
    field, jac = closed_loop_field(model, ctrl)
    rep = yorke_sample_check(cert, field, jac, samples=200, seed=0)
    assert not rep.passed


def test_yorke_passes_for_linear_contraction():
    # V = |x|^2 with field -x: Vdot = -2|x|^2 < 0
    cert = PolyCertificate(V1={(2, 0): 1.0, (0, 2): 1.0}, V2={}, n_vars=2)
    rep = yorke_sample_check(cert, lambda x: -x, lambda x: -np.eye(2),
                             samples=500, seed=1)
    assert rep.passed


def test_yorke_determinism_given_seed():
    model = brunton2_model(brunton2_default())
    ctrl = first_order_certificate_controller()
    V1, V2 = first_order_lyapunov_coefficients()
    cert = PolyCertificate(V1=V1, V2=V2, n_vars=3)
    field, jac = closed_loop_field(model, ctrl)
    a = yorke_sample_check(cert, field, jac, samples=2000, seed=9)
    b = yorke_sample_check(cert, field, jac, samples=2000, seed=9)
    assert a.min_neg_vdot == b.min_neg_vdot


def test_boundedness_bound_static_and_zero():
    params = brunton2_default()
    r0 = np.sqrt(params.sigma_u / (params.alpha_u * params.beta_u))
    assert boundedness_bound(params,
                             ControllerRealization.static([[-0.7]])) == \
        pytest.approx(r0)
    assert boundedness_bound(params,
                             ControllerRealization.static([[0.0]])) == \
        pytest.approx(r0)


def test_boundedness_bound_requires_hurwitz_AK():
    ctrl = ControllerRealization([[0.5]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(PreconditionError):
        boundedness_bound(brunton2_default(), ctrl)


def _quad_radius(params, ctrl):
    """The radius bound with the integral of ||e^{t A_K}||_2 by quadrature."""
    import scipy.integrate
    import scipy.linalg

    c_gain = scipy.integrate.quad(
        lambda t: np.linalg.norm(scipy.linalg.expm(ctrl.A_K * t), 2),
        0.0, np.inf, limit=400)[0]
    drive = params.g * max(0.0, float(ctrl.D_K.max())) + params.g * \
        np.linalg.norm(ctrl.C_K, 2) * np.linalg.norm(ctrl.B_K, 2) * c_gain
    return np.sqrt((params.sigma_u + drive) / (params.alpha_u * params.beta_u))


def test_boundedness_bound_first_order_is_exact():
    params = brunton2_default()
    for ctrl in (first_order_certificate_controller(),
                 ControllerRealization([[-0.3]], [[2.0]], [[-1.5]], [[0.4]])):
        assert boundedness_bound(params, ctrl) == \
            pytest.approx(_quad_radius(params, ctrl), rel=1e-13)


def test_boundedness_bound_covers_a_non_normal_AK():
    # ||e^{t A_K}|| rises well above 1 before it decays; the Schur envelope
    # integral bounds its integral from above
    params = brunton2_default()
    ctrl = ControllerRealization([[-1.0, 25.0], [0.0, -2.0]], [[0.0], [1.0]],
                                 [[1.0, 0.0]], [[0.0]])
    assert boundedness_bound(params, ctrl) >= _quad_radius(params, ctrl)


def test_boundedness_bound_dominates_simulations():
    params = brunton2_default()
    model = brunton2_model(params)
    ctrl = first_order_certificate_controller()
    bound = boundedness_bound(params, ctrl)
    assert np.isfinite(bound) and bound > 0
    rng = np.random.default_rng(4)
    for _ in range(10):
        x0 = rng.uniform(-bound / 2, bound / 2, size=2)
        traj = simulate_closed_loop(model, ctrl, x0, t_on=0.0, t_final=60.0,
                                    options=SimulationOptions(n_points=601))
        radii = np.linalg.norm(traj.x, axis=0)
        assert np.max(radii) <= bound * (1.0 + 1e-6)


def test_window_soundness_inside_converges_outside_recaptures():
    params = brunton2_default()
    model = brunton2_model(params)
    r0 = np.sqrt(params.sigma_u)
    rng = np.random.default_rng(11)
    for K in (-1.5, -0.9, -0.3):
        for _ in range(3):
            x0 = rng.uniform(-1.5 * r0, 1.5 * r0, size=2)
            traj = simulate_closed_loop(
                model, ControllerRealization.static([[K]]), x0,
                t_on=0.0, t_final=300.0,
                options=SimulationOptions(n_points=601))
            assert np.linalg.norm(traj.x[:, -1]) <= 1e-4
    # unstable side: the limit cycle captures
    traj = simulate_closed_loop(model, ControllerRealization.static([[-0.1]]),
                                [0.2, 0.0], t_on=0.0, t_final=300.0,
                                options=SimulationOptions(n_points=601))
    assert np.linalg.norm(traj.x[:, -1]) > 0.05
