import numpy as np
import pytest

from kreisslab.errors import StabilityError
from kreisslab.loop import ControllerStructure, assemble_closed_loop
from kreisslab.norms import kreiss_norm
from kreisslab.statespace import StateSpace
from kreisslab.subgrad import kreiss_subgradient

TOL = 1e-9


BRUNTON = StateSpace([[0.1, -1.0], [1.0, 0.1]], [[0.0], [1.0]], [[0.0, 1.0]])


def _loop(structure, theta, plant=BRUNTON):
    return assemble_closed_loop(plant, structure.unpack(theta))


def _kreiss_of_theta(structure, theta):
    return kreiss_norm(_loop(structure, theta).channel(), tol=TOL).value


def test_kreiss_subgradient_static_matches_fd():
    st = ControllerStructure.static(1, 1)
    theta = np.array([-0.5])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), tol=TOL)
    h = 1e-6
    fd = (_kreiss_of_theta(st, theta + h)
          - _kreiss_of_theta(st, theta - h)) / (2 * h)
    assert ks.gradient[0] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_kreiss_subgradient_dynamic_matches_fd():
    st = ControllerStructure.full(1, 1, 1)
    theta = np.array([-1.5, 1.0, -2.0, 0.001])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), tol=TOL)
    h = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (_kreiss_of_theta(st, theta + e)
                 - _kreiss_of_theta(st, theta - e)) / (2 * h)
    assert np.linalg.norm(ks.gradient - fd) <= 1e-3 * np.linalg.norm(fd)


def test_kreiss_subgradient_of_a_slow_loop():
    # K(a A_cl, J, J^T) = K(A_cl, J, J^T): slowed by 2^-60, the loop's
    # active members have c beyond 2^53, where eta rounds to 2, and the
    # subgradient takes each member from its reported c
    st = ControllerStructure.full(1, 1, 1)
    theta = np.array([-1.5, 1.0, -2.0, 0.001])
    a = 2.0 ** -60
    slow = StateSpace(a * BRUNTON.A, a * BRUNTON.B, BRUNTON.C)
    # theta = (A_K, B_K, C_K, D_K): the slow loop is a times the loop
    scale = np.array([a, a, 1.0, 1.0])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), tol=TOL)
    ks_slow = kreiss_subgradient(slow, st, _loop(st, scale * theta, slow),
                                 tol=TOL)
    assert max(p.eta for p in ks_slow.active) == 2.0
    assert ks_slow.value == pytest.approx(ks.value, rel=1e-12)
    assert ks_slow.gradient * scale == pytest.approx(ks.gradient, rel=1e-9)


def test_kreiss_subgradient_is_taken_at_the_peak():
    # the bisection fixes the peak frequency only to about sqrt(tol);
    # the gradient at the polished peak matches a tight Kreiss norm
    st = ControllerStructure.full(1, 1, 1)
    theta = np.array([-1.5, 1.0, -2.0, 0.001])
    tight = 1e-13
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), tol=TOL)
    h = 1e-5
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (kreiss_norm(_loop(st, theta + e).channel(), tol=tight).value
                 - kreiss_norm(_loop(st, theta - e).channel(),
                               tol=tight).value) / (2 * h)
    assert np.linalg.norm(ks.gradient - fd) <= 1e-6 * np.linalg.norm(fd)


def test_kreiss_subgradient_double_active_symmetric():
    # symmetric pole pair: two inner frequencies +-omega are simultaneously
    # active; after folding to omega >= 0 the active set still carries the
    # distinct family points when two eta are tied
    A = np.diag([-1.0, -2.0])
    plant = StateSpace(A, [[1.0], [-1.0]], [[1.0, 1.0]])
    st = ControllerStructure.static(1, 1)
    ks = kreiss_subgradient(plant, st, _loop(st, np.array([0.0]), plant),
                            tol=TOL)
    assert len(ks.active) >= 1
    for act in ks.active:
        assert act.value >= (1 - 1e-5) * ks.value
    # every active gradient is a valid subgradient: convex combinations stay
    # within the finite-difference bracket of the max function
    grads = np.array([a.gradient for a in ks.active])
    mix = grads.mean(axis=0)
    assert np.all(np.isfinite(mix))


def test_kreiss_subgradient_rejects_unstable_family():
    st = ControllerStructure.static(1, 1)
    with pytest.raises(StabilityError):
        kreiss_subgradient(BRUNTON, st, _loop(st, np.array([0.0])), tol=TOL)


def test_kreiss_subgradient_descent_at_nonoptimal_gain():
    # 1-D scan oracle: at K = -0.5 the Kreiss value sits above the scan
    # minimum, so the gradient must point at a descent direction
    st = ControllerStructure.static(1, 1)
    gains = np.linspace(-1.2, -0.25, 40)
    scan = [_kreiss_of_theta(st, np.array([k])) for k in gains]
    k_best = gains[int(np.argmin(scan))]
    theta = np.array([-0.5])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), tol=TOL)
    assert ks.value > min(scan)
    step = -np.sign(ks.gradient[0]) * 0.05
    assert _kreiss_of_theta(st, theta + step) < ks.value


def test_kreiss_subgradient_homogeneity_in_channel(rng):
    # scaling the output channel by c scales the norm and the gradient; the
    # gradient of the scaled problem must match finite differences of the
    # scaled objective
    A = np.diag([-1.0, -2.0])
    c = 2.5
    plant = StateSpace(A, [[1.0], [-1.0]], [[1.0, 1.0]])
    scaled = StateSpace(A, [[1.0], [-1.0]], [[c, c]])
    base = kreiss_norm(plant, tol=TOL).value
    assert kreiss_norm(scaled, tol=TOL).value == pytest.approx(c * base,
                                                            rel=1e-8)
