import json

import numpy as np
import pytest

from kreisslab.errors import DimensionError, PreconditionError, SchemaError
from kreisslab.loop import (
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
    closed_loop_map,
    complementary_sensitivity,
    restriction_matrix,
)
from kreisslab.problemio import load_problem
from kreisslab.statespace import StateSpace

BRUNTON = StateSpace([[0.1, -1.0], [1.0, 0.1]], [[0.0], [1.0]], [[0.0, 1.0]])


def test_zero_controller_keeps_plant():
    cl = assemble_closed_loop(BRUNTON, ControllerRealization.static([[0.0]]))
    assert np.allclose(cl.A_cl, BRUNTON.A)
    assert np.allclose(cl.J, np.eye(2))


def test_static_gain_assembly():
    K = -0.20
    cl = assemble_closed_loop(BRUNTON, ControllerRealization.static([[K]]))
    assert np.allclose(cl.A_cl, BRUNTON.A + BRUNTON.B * K @ BRUNTON.C)


def test_dynamic_assembly_block_layout():
    ctrl = ControllerRealization([[-17.95]], [[1.0]], [[129.027]], [[-47.06]])
    plant = StateSpace([[-10.0, 10.0, 0.0], [28.0, -1.0, 0.0],
                        [0.0, 0.0, -1.0]], [[0.0], [1.0], [0.0]],
                       [[1.0, 0.0, 0.0]])
    cl = assemble_closed_loop(plant, ctrl)
    assert cl.A_cl.shape == (4, 4)
    assert np.allclose(cl.A_cl[:3, :3],
                       plant.A + plant.B @ ctrl.D_K @ plant.C)
    assert np.allclose(cl.A_cl[:3, 3:], plant.B @ ctrl.C_K)
    assert np.allclose(cl.A_cl[3:, :3], ctrl.B_K @ plant.C)
    assert cl.A_cl[3, 3] == pytest.approx(-17.95)
    assert np.max(np.linalg.eigvals(cl.A_cl).real) < 0
    assert np.allclose(cl.J, restriction_matrix(3, 1))


def test_assembly_dimension_mismatch():
    ctrl = ControllerRealization.static([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        assemble_closed_loop(BRUNTON, ctrl)


def test_controller_from_tf_and_dc_gain():
    ctrl = ControllerRealization.from_tf([0.001071, -2.247], [1.0, 1.483])
    assert ctrl.n_K == 1
    assert ctrl.D_K[0, 0] == pytest.approx(0.001071)
    assert ctrl.dc_gain()[0, 0] == pytest.approx(-2.247 / 1.483, rel=1e-9)


@pytest.mark.parametrize("tf, valid", [
    ({"num": [0.001071, -2.247], "den": [1.0, 1.483]}, True),
    ({"num": [1.0, 0.0, 2.0], "den": [1.0, 1.0]}, False),   # improper
    ({"num": [1.0], "den": [0.0]}, False),                  # zero denominator
    ({"num": [1.0]}, False),                                # no denominator
])
def test_problem_tf_controller_is_from_tf(tmp_path, tf, valid):
    path = tmp_path / "tf.json"
    # a key the schema does not know is ignored
    path.write_text(json.dumps({"version": 1, "controller": {"tf": tf},
                                "options": {"restarts": 3}}))
    if not valid:
        with pytest.raises(SchemaError):
            load_problem(path)
        return
    got = load_problem(path).controller
    want = ControllerRealization.from_tf(tf["num"], tf["den"])
    for block in ("A_K", "B_K", "C_K", "D_K"):
        assert np.array_equal(getattr(got, block), getattr(want, block))


def test_dc_gain_needs_invertible_A_K():
    ctrl = ControllerRealization([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(PreconditionError):
        ctrl.dc_gain()


def test_structure_pack_unpack_roundtrip(rng):
    st = ControllerStructure.full(2, 1, 1)
    theta = rng.standard_normal(st.n_theta)
    ctrl = st.unpack(theta)
    assert np.allclose(st.pack(ctrl), theta)


def test_structure_theta_order_is_block_by_block():
    # theta lists A_K, B_K, C_K, D_K in turn, each block row-major
    ctrl = ControllerRealization([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]],
                                 [[7.0, 8.0]], [[9.0]])
    st = ControllerStructure.full(2, 1, 1)
    assert np.array_equal(st.pack(ctrl), np.arange(1.0, 10.0))
    assert np.array_equal(ctrl.theta, [[1, 2, 5], [3, 4, 6], [7, 8, 9]])
    back = ControllerRealization.from_theta(ctrl.theta, 2)
    for block in ("A_K", "B_K", "C_K", "D_K"):
        assert np.array_equal(getattr(back, block), getattr(ctrl, block))


def test_structure_masked_entries_stay_zero():
    st = ControllerStructure(0, np.array([[True, False, True]]))
    ctrl = st.unpack([2.0, -3.0])
    assert np.allclose(ctrl.D_K, [[2.0, 0.0, -3.0]])
    assert st.n_theta == 2


def test_structure_unpack_length_check():
    st = ControllerStructure.static(1, 1)
    with pytest.raises(DimensionError):
        st.unpack([1.0, 2.0])


def test_grad_mapping_matches_fd(rng):
    # random smooth scalar function of A_cl: f = trace(W A_cl); gradient
    # through structure must match direct finite differences in theta
    st = ControllerStructure.full(1, 1, 1)
    theta = rng.standard_normal(st.n_theta)
    W = rng.standard_normal((3, 3))

    def f(th):
        cl = assemble_closed_loop(BRUNTON, st.unpack(th))
        return float(np.sum(W * cl.A_cl))

    grad = st.grad_from_closed_loop(W, BRUNTON)
    h = 1e-7
    for i in range(st.n_theta):
        e = np.zeros(st.n_theta)
        e[i] = h
        fd = (f(theta + e) - f(theta - e)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_complementary_sensitivity_shares_closed_loop_spectrum():
    ctrl = ControllerRealization.from_tf([0.001071, -2.247], [1.0, 1.483])
    T = complementary_sensitivity(BRUNTON, ctrl)
    cl = assemble_closed_loop(BRUNTON, ctrl)
    # the same states (x, x_K) as the closed loop, so the same matrix
    assert np.array_equal(T.A, cl.A_cl)


def test_closed_loop_map_rebuilds_assembly_and_gradient(rng):
    plant = StateSpace(rng.standard_normal((3, 3)),
                       rng.standard_normal((3, 2)),
                       rng.standard_normal((1, 3)))
    st = ControllerStructure.full(2, 1, 2)
    ctrl = st.unpack(rng.standard_normal(st.n_theta))
    A_hat, B_hat, C_hat = closed_loop_map(plant, 2)
    assert (A_hat.shape, B_hat.shape, C_hat.shape) == ((5, 5), (5, 4), (3, 5))
    cl = assemble_closed_loop(plant, ctrl)
    assert np.array_equal(cl.A_cl, A_hat + B_hat @ ctrl.theta @ C_hat)
    G = rng.standard_normal((5, 5))
    want = B_hat.T @ G @ C_hat.T
    assert np.array_equal(st.grad_from_closed_loop(G, plant),
                          st.pack(ControllerRealization.from_theta(want, 2)))


def test_complementary_sensitivity_zero_controller():
    T = complementary_sensitivity(BRUNTON, ControllerRealization.static([[0.0]]))
    # K = 0 gives T = 0
    s = 0.7 + 0.3j
    assert abs(T.transfer(s)[0, 0]) <= 1e-12
