import numpy as np
import pytest

from kreisslab.benchmarks import (
    BRUNTON_CONTROLLERS,
    brunton_plant,
    lorenz_chaos,
    lorenz_plant,
    rolloff_weight,
)
from kreisslab.errors import StabilityError, SynthesisError
from kreisslab.loop import (
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
)
from kreisslab.linalg import spectral_abscissa
from kreisslab.norms import KreissOptions, hinf_norm, kreiss_family_matrix
from kreisslab.oracles import kreiss_halfplane_grid
from kreisslab.statespace import StateSpace
from kreisslab.synth import (
    SynthOptions,
    SynthesisSpec,
    minimize_kreiss,
    _Penalized,
    rolloff_norm,
    worst_case_delta,
)


def test_rolloff_zero_controller_is_zero():
    val = rolloff_norm(brunton_plant(), ControllerRealization.static([[0.0]]),
                       rolloff_weight())
    assert val <= 1e-10


def test_rolloff_static_violation_level():
    ctrl = BRUNTON_CONTROLLERS["static"].controller
    val = rolloff_norm(brunton_plant(), ctrl, rolloff_weight())
    assert val == pytest.approx(20.03, abs=0.3)


def test_rolloff_first_order_meets_constraint():
    ctrl = BRUNTON_CONTROLLERS["first_order"].controller
    val = rolloff_norm(brunton_plant(), ctrl, rolloff_weight())
    assert val <= 1.0


def test_rolloff_unstable_loop_raises():
    ctrl = ControllerRealization.static([[5.0]])
    with pytest.raises(StabilityError):
        rolloff_norm(brunton_plant(), ctrl, rolloff_weight())


def test_worst_case_contraction_family():
    cl = assemble_closed_loop(
        StateSpace(-np.eye(2), np.eye(2), np.eye(2)),
        ControllerRealization.static(np.zeros((2, 2))))
    rep = worst_case_delta(cl, KreissOptions(grid_points=80))
    assert rep.value == pytest.approx(1.0, rel=1e-6)
    # the eta = 0 endpoint already contributes sigma_max(J^T J) = 1
    assert min(a["eta"] for a in rep.actives) == pytest.approx(0.0, abs=1e-6)


def test_worst_case_first_order_brunton_value():
    ctrl = BRUNTON_CONTROLLERS["first_order"].controller
    cl = assemble_closed_loop(brunton_plant(), ctrl)
    rep = worst_case_delta(cl)
    assert rep.value == pytest.approx(1.005, abs=0.02)


def test_worst_case_matches_dense_eta_grid(rng):
    from kreisslab.norms import kreiss_family_matrix, hinf_norm
    from conftest import random_stable_statespace
    plant = random_stable_statespace(rng, 3, p=1, m=1)
    ctrl = ControllerRealization.static([[0.0]])
    cl = assemble_closed_loop(plant, ctrl)
    rep = worst_case_delta(cl)
    etas = np.linspace(0.0, 2.0 - 1e-6, 10000)
    dense = 0.0
    for eta in etas:
        fam = StateSpace(kreiss_family_matrix(cl.A_cl, eta), cl.J, cl.J.T)
        dense = max(dense, hinf_norm(fam, tol=1e-7).value)
    assert rep.value == pytest.approx(dense, rel=1e-3)


def test_worst_case_raises_with_witness_eta():
    cl = assemble_closed_loop(
        StateSpace([[0.5]], [[1.0]], [[1.0]]),
        ControllerRealization.static([[0.0]]))
    with pytest.raises(StabilityError) as err:
        worst_case_delta(cl)
    assert "eta" in str(err.value)


def test_quick_penalty_is_max_of_per_eta_hinf():
    plant = brunton_plant()
    ctrl = BRUNTON_CONTROLLERS["static"].controller
    structure = ControllerStructure.static(1, 1)
    pen = _Penalized(SynthesisSpec(plant=plant), structure, rho=10.0)
    etas = [0.0, 0.35, 1.2, 1.97]
    channel = assemble_closed_loop(plant, ctrl).channel()
    kreiss_part = max(hinf_norm(StateSpace(
        kreiss_family_matrix(channel.A, eta), channel.B, channel.C),
        tol=1e-6).value for eta in etas)
    excess = spectral_abscissa(channel.A) - pen.spec.alpha_limit
    expected = kreiss_part + (pen.rho * excess if excess > 0 else 0.0)
    F = pen.quick(structure.pack(ctrl), [{"eta": e} for e in etas])
    assert F == expected


def test_minimize_normal_plant_reaches_floor():
    # normal stable plant with full static state feedback and no constraints:
    # the identity-restriction floor sigma(J^T J) = 1 is attainable
    plant = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    spec = SynthesisSpec(plant=plant,
                         options=SynthOptions(restarts=2, seed=1,
                                              max_iter=40))
    res = minimize_kreiss(spec, ControllerStructure.static(2, 2))
    assert res.report.value == pytest.approx(1.0, abs=1e-3)
    assert res.report.value >= 1.0 - 1e-8  # objective floor


def test_minimize_lorenz_static_reaches_unit_value():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         options=SynthOptions(restarts=3, seed=0,
                                              max_iter=60))
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.report.value <= 1.02
    assert res.constraints.satisfied
    oracle = kreiss_halfplane_grid(
        assemble_closed_loop(spec.plant, res.controller).channel())
    assert res.report.value == pytest.approx(oracle.value, rel=1e-3)


def test_minimize_monotone_history():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         options=SynthOptions(restarts=2, seed=3,
                                              max_iter=40))
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    for hist in res.history:
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_minimize_infeasible_actuation_fails():
    plant = StateSpace([[0.5]], [[0.0]], [[1.0]])  # zero control channel
    spec = SynthesisSpec(plant=plant,
                         options=SynthOptions(restarts=2, seed=0,
                                              max_iter=10))
    with pytest.raises(SynthesisError):
        minimize_kreiss(spec, ControllerStructure.static(1, 1))


def test_minimize_respects_decay_constraint():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         eta_rate=0.5,
                         options=SynthOptions(restarts=3, seed=0,
                                              max_iter=60))
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.constraints.alpha <= -0.5 + 1e-8


def test_minimize_judges_the_decay_limit_it_enforced():
    # below the built-in stability margin 0.01 the descent enforces
    # alpha <= -0.01, and the constraint report must judge that same limit
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]])
    spec = SynthesisSpec(plant=plant, eta_rate=0.005,
                         options=SynthOptions(restarts=1, seed=0,
                                              max_iter=20))
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.constraints.alpha_limit == -0.01
    assert res.constraints.satisfied
    assert res.constraints.alpha <= -0.01 + 1e-8
