from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kreisslab.benchmarks import (
    BRUNTON_CONTROLLERS,
    LORENZ_CHAOS_KREISS,
    brunton2_default,
    lorenz_chaos,
)
from kreisslab import models
from kreisslab.errors import NumericalError, PreconditionError, StabilityError
from kreisslab.loop import ControllerRealization, assemble_closed_loop
from kreisslab.models import (
    Brunton4Params,
    LorenzParams,
    SimulationOptions,
    Trajectory,
    _dopri5,
    brunton2_model,
    brunton4_model,
    closed_loop_field,
    limit_cycle_radius,
    lorenz_fixed_points,
    lorenz_model,
    model_as_statespace,
    simulate_closed_loop,
    transient_curve,
)
from kreisslab.norms import transient_peak_m0
from kreisslab.problemio import load_problem, trajectory_to_csv
from kreisslab.statespace import StateSpace

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _anti_damped_brunton():
    """Open-loop oscillator with a destabilizing cubic: finite-time blowup."""
    def phi_bad(x):
        return +1.0 * (x[0] ** 2 + x[1] ** 2) * np.array([x[0], x[1]])

    return replace(brunton2_model(brunton2_default()), phi=phi_bad)


def test_lorenz_fixed_points_chaos_regime():
    pts, has_pair = lorenz_fixed_points(LorenzParams(R=28.0))
    assert has_pair
    r = np.sqrt(27.0)
    assert np.allclose(pts[1], [r, r, 27.0])
    assert np.allclose(pts[2], [-r, -r, 27.0])


def test_lorenz_fixed_points_r10():
    pts, has_pair = lorenz_fixed_points(LorenzParams(R=10.0))
    assert has_pair
    assert np.allclose(pts[1], [3.0, 3.0, 9.0])


def test_lorenz_fixed_points_degenerate():
    pts, has_pair = lorenz_fixed_points(LorenzParams(R=1.0))
    assert not has_pair
    assert len(pts) == 1


def test_lorenz_fixed_points_are_steady_states():
    model = lorenz_model(LorenzParams(R=28.0))
    pts, _ = lorenz_fixed_points(LorenzParams(R=28.0))
    for pt in pts:
        rate = model.A @ pt + model.B_w @ model.phi(pt)
        assert np.linalg.norm(rate) <= 1e-10


def test_lorenz_linear_part():
    model = lorenz_model(LorenzParams(p=10.0, R=28.0, b=1.0))
    assert np.allclose(model.A, [[-10.0, 10.0, 0.0], [28.0, -1.0, 0.0],
                                 [0.0, 0.0, -1.0]])
    assert np.allclose(model.B_w, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_brunton_channels():
    model = brunton2_model(brunton2_default())
    sys = model_as_statespace(model)
    assert np.allclose(sys.A, [[0.1, -1.0], [1.0, 0.1]])
    assert np.allclose(sys.B, np.eye(2))
    assert np.allclose(sys.C, [[0.0, 1.0]])


def test_origin_conditions_hold():
    for model in (lorenz_model(lorenz_chaos()),
                  brunton2_model(brunton2_default())):
        assert model.check_origin()


def test_brunton4_requires_full_parameter_set():
    with pytest.raises(PreconditionError):
        brunton4_model(Brunton4Params(sigma_u=0.1, omega_u=1.0, sigma_a=0.1,
                                      omega_a=2.0, alpha_u=1.0, alpha_a=1.0,
                                      g=1.0))


def test_limit_cycle_radius_values():
    assert limit_cycle_radius(brunton2_default())[0] == pytest.approx(
        np.sqrt(0.1))
    one = limit_cycle_radius(brunton2_default().__class__(sigma_u=1.0))
    assert one[0] == pytest.approx(1.0)
    none = limit_cycle_radius(brunton2_default().__class__(sigma_u=-0.1))
    assert not none[1]


def test_limit_cycle_radius_against_long_simulation():
    params = brunton2_default()
    model = brunton2_model(params)
    r0 = limit_cycle_radius(params)[0]
    for x0 in ([0.05, 0.0], [0.8, 0.0]):
        traj = simulate_closed_loop(model, None, x0, t_on=250.0, t_final=250.0,
                                    options=SimulationOptions(n_points=501))
        r_end = np.linalg.norm(traj.x[:, -1])
        assert r_end == pytest.approx(r0, rel=0.01)


def test_brunton_open_loop_radius_monotone_from_outside():
    params = brunton2_default()
    model = brunton2_model(params)
    r0 = limit_cycle_radius(params)[0]
    traj = simulate_closed_loop(model, None, [1.2, 0.0], t_on=200.0,
                                t_final=200.0,
                                options=SimulationOptions(n_points=2001))
    radii = np.linalg.norm(traj.x, axis=0)
    # states beyond r0 are never re-entered from below
    crossed = np.where(radii <= r0 * 1.001)[0]
    if crossed.size:
        after = radii[crossed[0]:]
        assert np.max(after) <= r0 * 1.01


def test_simulation_switch_event_and_convergence():
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = ControllerRealization.static([[-27.01]])
    traj = simulate_closed_loop(model, ctrl, [1.0, 1.0, 1.0], t_on=15.0,
                                t_final=40.0)
    assert not traj.diverged
    assert np.any(traj.t == 15.0)
    before = traj.t < 15.0
    assert np.allclose(traj.u[:, before], 0.0)
    assert traj.final_plant_norm() <= 1e-6


def test_open_loop_lorenz_stays_on_attractor():
    model = lorenz_model(lorenz_chaos())
    traj = simulate_closed_loop(model, None, [1.0, 1.0, 1.0], t_on=50.0,
                                t_final=50.0)
    assert not traj.diverged
    radii = np.linalg.norm(traj.x, axis=0)
    assert np.max(radii) < 100.0
    assert np.linalg.norm(traj.x[:, -1]) > 1.0  # no convergence to origin


def _brunton4_synthetic():
    params = Brunton4Params(
        sigma_u=0.1, omega_u=1.0, sigma_a=-0.05, omega_a=2.5, alpha_u=1.0,
        alpha_a=0.7, g=1.0,
        beta={"uu": 1.0, "au": 0.3, "ua": 0.2, "aa": 0.8},
        gamma={"uu": 0.1, "au": -0.4, "ua": 0.5, "aa": -0.2},
        provenance="synthetic test values")
    return brunton4_model(params), ControllerRealization.static([[-0.3]])


@pytest.mark.parametrize("case", ["lorenz_static", "lorenz_dynamic",
                                  "lorenz_none", "brunton2_first_order",
                                  "brunton4"])
def test_closed_loop_field_batch_equals_columns(case):
    lorenz = lorenz_model(lorenz_chaos(), measurement="x")
    model, ctrl = {
        "lorenz_static": (lorenz, ControllerRealization.static([[-27.01]])),
        "lorenz_dynamic": (lorenz, LORENZ_CHAOS_KREISS["dynamic_x"].controller),
        "lorenz_none": (lorenz, None),
        "brunton2_first_order": (brunton2_model(brunton2_default()),
                                 BRUNTON_CONTROLLERS["first_order"].controller),
        "brunton4": _brunton4_synthetic(),
    }[case]
    f, jac = closed_loop_field(model, ctrl)
    n_z = model.n + (ctrl.n_K if ctrl is not None else 0)
    Z = np.random.default_rng(3).uniform(-2.0, 2.0, size=(n_z, 7))
    F, J = f(Z), jac(Z)
    assert F.shape == (n_z, 7) and J.shape == (n_z, n_z, 7)
    h = 1e-6
    for k in range(Z.shape[1]):
        z = Z[:, k]
        assert np.allclose(F[:, k], f(z), rtol=1e-13, atol=1e-13)
        assert np.allclose(J[..., k], jac(z), rtol=1e-13, atol=1e-13)
        # central differences of f reproduce the single-state Jacobian
        fd = np.column_stack([(f(z + h * e) - f(z - h * e)) / (2.0 * h)
                              for e in np.eye(n_z)])
        assert np.allclose(jac(z), fd, rtol=1e-6, atol=1e-6)


def test_controller_state_frozen_before_switch():
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = LORENZ_CHAOS_KREISS["dynamic_x"].controller
    traj = simulate_closed_loop(model, ctrl, [1.0, 1.0, 1.0], t_on=5.0,
                                t_final=8.0,
                                options=SimulationOptions(n_points=301))
    before = traj.t < 5.0
    assert before.sum() > 100 and traj.x_K.shape[0] == 1
    assert np.all(traj.x_K[:, before] == 0.0)
    assert np.all(traj.u[:, before] == 0.0)
    assert np.any(traj.x_K[:, ~before] != 0.0)


def test_lossless_identity_along_trajectory():
    model = lorenz_model(lorenz_chaos())
    traj = simulate_closed_loop(model, None, [1.0, 1.0, 1.0], t_on=20.0,
                                t_final=20.0)
    for k in range(0, traj.x.shape[1], 50):
        x = traj.x[:, k]
        inner = abs(x @ model.B_w @ model.phi(x))
        assert inner <= 1e-10 * max(np.linalg.norm(x) ** 3, 1e-6)


def test_simulation_rejects_bad_times():
    model = lorenz_model(lorenz_chaos())
    with pytest.raises(PreconditionError):
        simulate_closed_loop(model, None, [1, 1, 1], t_on=10.0, t_final=5.0)


def test_simulation_step_budget(monkeypatch):
    # the switched Lorenz loop to t = 2 takes a few hundred steps: a smaller
    # budget stops it with NumericalError, a larger one leaves it bitwise
    model = lorenz_model(lorenz_chaos())
    ctrl = LORENZ_CHAOS_KREISS["static_x"].controller

    def run():
        return simulate_closed_loop(model, ctrl, [1.0, 1.0, 1.0], t_on=1.0,
                                    t_final=2.0)

    ref = run()
    monkeypatch.setattr(models, "_MAX_STEPS", 20)
    with pytest.raises(NumericalError, match="after 20 steps"):
        run()
    monkeypatch.setattr(models, "_MAX_STEPS", 2000)
    traj = run()
    assert np.array_equal(traj.t, ref.t) and np.array_equal(traj.x, ref.x)


def test_simulation_failed_first_step_keeps_the_start():
    model = replace(lorenz_model(lorenz_chaos()),
                    phi=lambda x: np.full(2, np.nan))
    traj = simulate_closed_loop(model, None, [1.0, 2.0, 3.0], t_on=1.0,
                                t_final=2.0)
    assert traj.diverged
    assert traj.t.tolist() == [0.0]
    assert traj.final_state.tolist() == [1.0, 2.0, 3.0]


def _stepper_case(case):
    """(field, z0, t_final, blowup_radius) of the solve_ivp comparisons."""
    lorenz = lorenz_model(lorenz_chaos(), measurement="x")
    if case == "open_lorenz":
        return closed_loop_field(lorenz, None)[0], [1.0, 1.0, 1.0], 15.0, 1e9
    if case == "lorenz_k":
        ctrl = ControllerRealization.static([[-27.01]])
        return closed_loop_field(lorenz, ctrl)[0], [1.0, 1.0, 1.0], 25.0, 1e9
    if case == "brunton_certframe":
        problem = load_problem(PROBLEMS / "brunton2_first_order_certframe.json")
        field = closed_loop_field(problem.model, problem.controller)[0]
        return field, [0.3, -0.2, 0.0], 40.0, 1e9
    return (closed_loop_field(_anti_damped_brunton(), None)[0], [1.5, 0.0],
            50.0, 1e6)


@pytest.mark.parametrize("case", ["open_lorenz", "lorenz_k",
                                  "brunton_certframe", "blowup"])
def test_stepper_matches_solve_ivp_rk45(case):
    from scipy.integrate import solve_ivp
    field, z0, t_final, radius = _stepper_case(case)
    z0 = np.asarray(z0)
    t_eval = np.linspace(0.0, t_final, 2001)

    def blowup(t, z):
        return float(np.linalg.norm(z) - radius)

    blowup.terminal = True
    blowup.direction = 1.0
    ref = solve_ivp(lambda t, z: field(z), (0.0, t_final), z0,
                    method="RK45", rtol=1e-9, atol=1e-12, t_eval=t_eval,
                    events=blowup)
    t, z, nfev, diverged = _dopri5(field, 0.0, t_final, z0, t_eval,
                                   1e-9, 1e-12, radius)
    assert np.array_equal(t, ref.t)
    assert nfev == ref.nfev
    assert diverged == (ref.status != 0)
    assert diverged == (case == "blowup")
    # chaos amplifies last-bit differences on the open-loop attractor
    tol = 1e-9 if case == "open_lorenz" else 1e-12
    assert np.max(np.abs(z - ref.y)) <= tol * np.max(np.abs(ref.y))


def test_trajectory_csv_matches_per_element_format(tmp_path):
    import csv as csvmod
    t = np.array([0.0, 0.5, 1.0])
    traj = Trajectory(
        t=t, x=np.array([[-0.0, 1.0 / 3.0, np.inf], [2e-310, -np.inf, 7.0]]),
        x_K=np.array([[np.nan, 1e300, -1e-300]]),
        u=np.array([[0.1, 0.2, -0.0], [1.0, 2.0, 3.0]]),
        y=np.array([[5.0, np.nan, 6.0], [-7.5, 8.25, 123456789.123456789]]),
        t_on=0.5, diverged=False, final_state=np.zeros(3))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csvmod.writer(fh)
        writer.writerow(["t", "x_1", "x_2", "x_K1", "u_1", "u_2", "y_1",
                         "y_2"])
        for k in range(len(t)):
            writer.writerow([f"{v:.12g}" for v in np.concatenate(
                [t[k:k + 1], traj.x[:, k], traj.x_K[:, k], traj.u[:, k],
                 traj.y[:, k]])])
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0," in path.read_bytes() and b"nan" in path.read_bytes()


def test_simulation_reports_blowup():
    # open-loop oscillator with destabilizing anti-damping nonlinearity
    bad = _anti_damped_brunton()
    traj = simulate_closed_loop(bad, None, [1.5, 0.0], t_on=50.0,
                                t_final=50.0,
                                options=SimulationOptions(blowup_radius=1e6))
    assert traj.diverged
    assert np.isfinite(traj.final_state).all()


def test_integrator_step_scaling_matches_fifth_order():
    model = lorenz_model(lorenz_chaos())
    x0 = [1.0, 1.0, 1.0]
    ref = simulate_closed_loop(model, None, x0, t_on=5.0, t_final=5.0,
                               options=SimulationOptions(rtol=1e-12,
                                                         atol=1e-14,
                                                         n_points=11))
    errs = []
    steps = []
    for rtol in (1e-5, 1e-10):
        import scipy.integrate as si
        sol = si.solve_ivp(
            lambda t, z: model.A @ z + model.B_w @ model.phi(z),
            (0.0, 5.0), np.asarray(x0, dtype=float), method="RK45",
            rtol=rtol, atol=rtol * 1e-3)
        errs.append(np.linalg.norm(sol.y[:, -1] - ref.final_state))
        steps.append(len(sol.t))
    assert errs[1] < errs[0] / 10.0
    # embedded 4/5 pair: steps scale like tol^(-1/5); 1e5 tol ratio -> ~10x
    ratio = steps[1] / steps[0]
    assert 3.0 <= ratio <= 33.0


def test_energy_decay_rate_with_controller_on():
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = ControllerRealization.static([[-34.70]])
    traj = simulate_closed_loop(model, ctrl, [0.5, -0.3, 0.2], t_on=0.0,
                                t_final=12.0)
    plant = StateSpace(model.A, model.B_u, model.C_y)
    cl = assemble_closed_loop(plant, ctrl)
    alpha = float(np.max(np.linalg.eigvals(cl.A_cl).real))
    radii = np.linalg.norm(traj.x, axis=0)
    # asymptotic decay at least |alpha|/2
    half = len(traj.t) // 2
    fit = np.polyfit(traj.t[half:], np.log(radii[half:] + 1e-300), 1)[0]
    assert fit <= alpha / 2.0 + 1e-3


def test_transient_curve_monotone_for_contraction():
    ts = np.linspace(0.0, 3.0, 50)
    vals = transient_curve(-np.eye(2), np.eye(2), ts)
    assert vals[0] == pytest.approx(1.0)
    assert np.all(np.diff(vals) <= 1e-12)


def test_transient_curve_peak_matches_m0():
    plant = StateSpace([[0.1, -1.0], [1.0, 0.1]], [[0.0], [1.0]],
                       [[0.0, 1.0]])
    ctrl = BRUNTON_CONTROLLERS["first_order"].controller
    cl = assemble_closed_loop(plant, ctrl)
    ts = np.linspace(0.0, 30.0, 1500)
    vals = transient_curve(cl.A_cl, cl.J, ts)
    assert vals[0] == pytest.approx(1.0, abs=1e-9)  # sigma(J^T J) = 1
    m0 = transient_peak_m0(cl.channel())
    assert np.max(vals) == pytest.approx(m0.value, rel=1e-3)


def test_transient_curve_requires_stability():
    with pytest.raises(StabilityError):
        transient_curve(np.eye(2), np.eye(2), [0.0, 1.0])


def test_default_horizon_tracks_slowest_mode():
    from kreisslab.models import default_horizon
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = ControllerRealization.static([[-27.01]])
    plant = StateSpace(model.A, model.B_u, model.C_y)
    alpha = np.max(np.linalg.eigvals(
        assemble_closed_loop(plant, ctrl).A_cl).real)
    horizon = default_horizon(model, ctrl, t_on=15.0)
    assert horizon == pytest.approx(15.0 + 3.0 / abs(alpha))
    traj = simulate_closed_loop(model, ctrl, [1.0, 1.0, 1.0], t_on=15.0)
    assert traj.t[-1] == pytest.approx(horizon)


def test_trajectory_and_curve_csv_formats(tmp_path):
    from kreisslab.problemio import curve_to_csv, trajectory_to_csv
    import csv as csvmod
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = ControllerRealization.static([[-27.01]])
    traj = simulate_closed_loop(model, ctrl, [1.0, 1.0, 1.0], t_on=1.0,
                                t_final=2.0,
                                options=SimulationOptions(n_points=21))
    tpath = tmp_path / "traj.csv"
    trajectory_to_csv(traj, tpath)
    with open(tpath) as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "x_3", "u", "y"]
    assert len(rows) == len(traj.t) + 1
    cpath = tmp_path / "curve.csv"
    ts = np.linspace(0.0, 1.0, 5)
    vals = transient_curve(-np.eye(2), np.eye(2), ts)
    curve_to_csv(ts, vals, cpath)
    with open(cpath) as fh:
        rows = list(csvmod.reader(fh))
    assert rows[0] == ["t", "sigma"]
    assert float(rows[1][1]) == pytest.approx(1.0)
