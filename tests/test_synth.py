import threading

import numpy as np
import pytest

from kreisslab import synth
from kreisslab.benchmarks import (
    BRUNTON_CONTROLLERS,
    brunton_plant,
    lorenz_chaos,
    lorenz_fixed_point,
    lorenz_plant,
    rolloff_weight,
)
from kreisslab.errors import (
    PreconditionError,
    StabilityError,
    SynthesisError,
)
from kreisslab.loop import (
    ControllerRealization,
    ControllerStructure,
    assemble_closed_loop,
    complementary_sensitivity,
)
from kreisslab.linalg import spectral_abscissa
from kreisslab.norms import (
    KreissOptions,
    _family_hinf,
    cb_lower_bound,
    kreiss_norm,
)
from kreisslab.oracles import hinf_frequency_grid, kreiss_halfplane_grid
from kreisslab.statespace import StateSpace, series
from kreisslab.synth import (
    _PENALTY,
    _STAB_MARGIN,
    SynthesisSpec,
    minimize_kreiss,
    _Penalized,
    _Violation,
    _descend,
    _abscissa_with_grads,
    _min_norm_element,
    rolloff_norm,
)


def _bundle_corpus(count=3000, seed=7):
    """Bundles of 1-8 rows in 1-9 columns at scales 1e-3 to 1e3: a third
    generic, a third near-parallel, a third affinely dependent (low rank,
    duplicate rows, the origin inside the hull)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows, cols = rng.integers(1, 9), rng.integers(1, 10)
        if k % 3 == 0:
            G = rng.standard_normal((rows, cols))
        elif k % 3 == 1:
            G = rng.standard_normal(cols) + 10.0 ** rng.uniform(-9, -2) \
                * rng.standard_normal((rows, cols))
        else:
            rank = rng.integers(1, max(2, min(rows, cols)))
            G = rng.standard_normal((rows, rank)) \
                @ rng.standard_normal((rank, cols))
            G[-1] = G[0]
            if k % 2:
                G = G - G.mean(axis=0)
        yield G * 10.0 ** rng.uniform(-3, 3)


def test_min_norm_element_near_parallel_pair_is_exact():
    x, lam = _min_norm_element([[1.0, 0.0], [1.0, 0.01]])
    assert np.allclose(x, [1.0, 0.0], rtol=0, atol=1e-12)
    assert np.allclose(lam, [1.0, 0.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("grads", [
    [[1.0, 2.0], [-1.0, -2.0]],
    [[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]],
])
def test_min_norm_element_origin_in_hull(grads):
    x, lam = _min_norm_element(grads)
    assert np.allclose(x, 0.0, rtol=0, atol=1e-14)
    assert np.allclose(lam @ np.array(grads), x, rtol=0, atol=1e-14)


def test_min_norm_element_is_optimal_on_a_corpus():
    # Wolfe's optimality test: no row beats x . x, so x is the min-norm
    # point; the corpus must finish, affinely dependent bundles included
    bad, done = [], []

    def check():
        for G in _bundle_corpus():
            x, lam = _min_norm_element(G)
            big = np.max(np.einsum("ij,ij->i", G, G))
            if not (lam.min() >= 0 and abs(lam.sum() - 1) <= 1e-12
                    and np.allclose(lam @ G, x, rtol=0,
                                    atol=1e-12 * np.sqrt(big))
                    and np.min(G @ x) >= x @ x - 1e-9 * big):
                bad.append(G)
        done.append(True)

    worker = threading.Thread(target=check, daemon=True)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive(), "min-norm kernel did not finish"
    assert done and not bad


def test_abscissa_grads_of_a_repeated_eigenvalue():
    # A_cl = -I_2: each tied eigenvalue moves with its own diagonal entry
    plant = StateSpace(-np.eye(2), np.eye(2), np.eye(2))
    structure = ControllerStructure.static(2, 2)
    cl = assemble_closed_loop(plant, structure.unpack(np.zeros(4)))
    alpha, grads = _abscissa_with_grads(plant, structure,
                                        *np.linalg.eig(cl.A_cl))
    assert alpha == -1.0
    assert np.allclose(grads, [[1, 0, 0, 0], [0, 0, 0, 1]], rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("n_K", [0, 1])
def test_abscissa_grads_match_central_differences(n_K):
    from conftest import random_stable_statespace
    rng = np.random.default_rng(2024 + n_K)
    checked = 0
    while checked < 12:
        plant = random_stable_statespace(rng, 3, p=1, m=1)
        structure = ControllerStructure.full(n_K, 1, 1)
        theta = 0.3 * rng.standard_normal(structure.n_theta)
        cl = assemble_closed_loop(plant, structure.unpack(theta))
        w = np.sort_complex(np.linalg.eigvals(cl.A_cl))[::-1]
        # a simple real rightmost eigenvalue or one complex pair, apart
        # from the rest of the spectrum
        top = 2 if w[0].imag else 1
        if w[0].real >= 0 or w[0].real - w[top].real < 0.05:
            continue
        alpha, grads = _abscissa_with_grads(plant, structure,
                                            *np.linalg.eig(cl.A_cl))
        assert len(grads) == 1
        d = rng.standard_normal(structure.n_theta)
        h = 1e-6

        def abscissa(th):
            A = assemble_closed_loop(plant, structure.unpack(th)).A_cl
            return spectral_abscissa(A)

        fd = (abscissa(theta + h * d) - abscissa(theta - h * d)) / (2 * h)
        assert fd == pytest.approx(grads[0] @ d, rel=1e-6,
                                   abs=1e-6 * np.linalg.norm(grads[0])
                                   * np.linalg.norm(d))
        checked += 1


@pytest.mark.parametrize("A", [
    [[1.0, 4.0], [-1.0, -3.0]],     # eig returns two equal eigenvectors
    [[-1.0, 1.0], [0.0, -1.0]],     # and two 2e-16 apart
])
def test_abscissa_grads_of_a_jordan_block_are_finite(A):
    plant = StateSpace(A, np.eye(2), np.eye(2))
    structure = ControllerStructure.static(2, 2)
    theta = np.zeros(4)
    cl = assemble_closed_loop(plant, structure.unpack(theta))
    alpha, grads = _abscissa_with_grads(plant, structure,
                                        *np.linalg.eig(cl.A_cl))
    assert alpha == pytest.approx(-1.0, abs=1e-6)
    assert grads and np.all(np.isfinite(grads))
    F, _ = _Penalized(SynthesisSpec(plant=plant), structure).full(theta)
    assert F >= 1.0


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


@pytest.mark.parametrize("name", [
    "static",
    pytest.param("first_order", marks=pytest.mark.xfail(strict=True, reason=(
        "rolloff_norm gives 0.175367 against the grid's 0.181845 at "
        "omega = 1.719 rad/s (3.6 % low): the level test of the H-infinity "
        "kernel stops at 0.17537 (1 + 1e-7), where the Hamiltonian "
        "eigenvalues near 1.89j and 1.57j have real parts of 3.0e-3 and "
        "4.2e-3, far outside the 4.6e-6 that counts as on the axis; the "
        "weight's realization (C = [-2.5e13, -1e10], D = 1e6, "
        "|W(j1.7)| = 0.12) cancels about 7 digits"))),
    "third_order",
])
def test_rolloff_norm_reaches_the_frequency_grid(name):
    # one-sided: the grid misses the static loop's narrow resonance
    # (20.04026 against the grid's 20.03980)
    plant, weight = brunton_plant(), rolloff_weight()
    ctrl = BRUNTON_CONTROLLERS[name].controller
    grid = hinf_frequency_grid(
        series(complementary_sensitivity(plant, ctrl), weight))
    assert rolloff_norm(plant, ctrl, weight) >= (1 - 1e-6) * grid.value


def test_rolloff_unstable_loop_raises():
    ctrl = ControllerRealization.static([[5.0]])
    with pytest.raises(StabilityError):
        rolloff_norm(brunton_plant(), ctrl, rolloff_weight())


def test_worst_case_contraction_family():
    cl = assemble_closed_loop(
        StateSpace(-np.eye(2), np.eye(2), np.eye(2)),
        ControllerRealization.static(np.zeros((2, 2))))
    rep = kreiss_norm(cl.channel(), KreissOptions(grid_points=80))
    assert rep.value == pytest.approx(1.0, rel=1e-6)
    # the eta = 0 endpoint already contributes sigma_max(J^T J) = 1
    assert min(a["eta"] for a in rep.maximizer["actives"]) \
        == pytest.approx(0.0, abs=1e-6)


def test_worst_case_first_order_brunton_value():
    ctrl = BRUNTON_CONTROLLERS["first_order"].controller
    cl = assemble_closed_loop(brunton_plant(), ctrl)
    rep = kreiss_norm(cl.channel())
    assert rep.value == pytest.approx(1.005, abs=0.02)


def test_worst_case_matches_dense_eta_grid(rng):
    from conftest import random_stable_statespace
    plant = random_stable_statespace(rng, 3, p=1, m=1)
    ctrl = ControllerRealization.static([[0.0]])
    cl = assemble_closed_loop(plant, ctrl)
    rep = kreiss_norm(cl.channel())
    etas = np.linspace(0.0, 2.0 - 1e-6, 10000)
    # one batched call; each value is within tol = 1e-7 of hinf_norm of the
    # family member (A_eta, J, J^T) at that eta
    dense = float(np.max(_family_hinf(cl.channel(), etas, 1e-7)[0],
                         initial=0.0))
    assert rep.value == pytest.approx(dense, rel=1e-3)


def test_worst_case_raises_on_unstable_loop():
    cl = assemble_closed_loop(
        StateSpace([[0.5]], [[1.0]], [[1.0]]),
        ControllerRealization.static([[0.0]]))
    with pytest.raises(StabilityError):
        kreiss_norm(cl.channel())


def test_quick_penalty_is_max_of_per_eta_hinf():
    plant = brunton_plant()
    ctrl = BRUNTON_CONTROLLERS["static"].controller
    structure = ControllerStructure.static(1, 1)
    pen = _Penalized(SynthesisSpec(plant=plant), structure)
    etas = [0.0, 0.35, 1.2, 1.97]
    channel = assemble_closed_loop(plant, ctrl).channel()
    # each family member alone: the screen's value may not depend on the
    # other etas of its call
    kreiss_part = max(_family_hinf(channel, np.array([eta]), 1e-6)[0][0]
                      for eta in etas)
    excess = spectral_abscissa(channel.A) - pen.spec.alpha_limit
    expected = kreiss_part + (_PENALTY * excess if excess > 0 else 0.0)
    F, _ = pen.quick(structure.pack(ctrl), np.array(etas))
    assert F == expected


def test_phase_one_leaves_a_decaying_start_untouched():
    plant = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    structure = ControllerStructure.static(2, 2)
    theta0 = np.array([0.1, -0.2, 0.05, 0.3])
    viol = _Violation(SynthesisSpec(plant=plant), structure, -_STAB_MARGIN)
    theta, _, history = _descend(viol, theta0)
    assert theta.tobytes() == theta0.tobytes()
    assert history == [0.0]


def test_phase_one_stabilizes_the_lorenz_chaos_plant():
    # measured by x, the open loop's abscissa is 11.8
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"))
    structure = ControllerStructure.static(1, 1)
    target = -_STAB_MARGIN
    theta0 = np.zeros(structure.n_theta)
    assert spectral_abscissa(assemble_closed_loop(
        spec.plant, structure.unpack(theta0)).A_cl) > 11.0
    theta, _, history = _descend(_Violation(spec, structure, target), theta0)
    assert history[-1] == 0.0
    cl = assemble_closed_loop(spec.plant, structure.unpack(theta))
    assert spectral_abscissa(cl.A_cl) <= target


def test_phase_one_assembles_each_trial_point_once(monkeypatch):
    # the screen's loop and eig serve the full evaluation of an accepted
    # point, and a feasible point takes no pinv
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"))
    structure = ControllerStructure.static(1, 1)
    viol = _Violation(spec, structure, -_STAB_MARGIN)
    counts = {"assemble": 0, "pinv": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(synth, "assemble_closed_loop",
                        counting("assemble", assemble_closed_loop))
    monkeypatch.setattr(synth.np.linalg, "pinv",
                        counting("pinv", np.linalg.pinv))
    quick = []
    monkeypatch.setattr(viol, "quick", lambda theta, screen: quick.append(
        theta) or _Violation.quick(viol, theta, screen))
    _, _, history = _descend(viol, np.zeros(structure.n_theta))
    assert history[-1] == 0.0 and len(history) > 2
    assert counts["assemble"] == len(quick) + 1
    # every accepted point but the last, feasible one, and the start
    assert counts["pinv"] == len(history) - 1


def test_minimize_stops_at_the_floor():
    # restart 0 already reaches K = 1 = sigma_max(J^T J) on the Lorenz
    # static loop and on the fixed-point state feedback, and no later
    # restart can replace it; the latter's family takes the residue gains,
    # whose rounding the eta = 0 value must not carry above the floor
    fp = lorenz_plant(lorenz_fixed_point(), "x")
    for plant in (lorenz_plant(lorenz_chaos(), "x"),
                  StateSpace(fp.A, fp.B, np.eye(fp.n))):
        structure = ControllerStructure.static(plant.m, plant.p)
        res = minimize_kreiss(SynthesisSpec(plant=plant, restarts=10),
                              structure)
        one = minimize_kreiss(SynthesisSpec(plant=plant, restarts=1),
                              structure)
        cl = assemble_closed_loop(plant, res.controller)
        assert cb_lower_bound(cl.channel()) == synth._KREISS_FLOOR
        assert res.report.value == synth._KREISS_FLOOR
        assert res.restarts_used == 1 and len(res.history) == 1
        assert res.controller.D_K.tobytes() == one.controller.D_K.tobytes()


def test_minimize_unstabilizable_plant_fails():
    # the unstable mode x_1 is not reachable from the input
    plant = StateSpace(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.eye(2))
    with pytest.raises(SynthesisError):
        minimize_kreiss(SynthesisSpec(plant=plant),
                        ControllerStructure.static(2, 1))


def test_minimize_normal_plant_reaches_floor():
    # normal stable plant with full static state feedback and no constraints:
    # the identity-restriction floor sigma(J^T J) = 1 is attainable
    plant = StateSpace(np.diag([-1.0, -2.0]), np.eye(2), np.eye(2))
    spec = SynthesisSpec(plant=plant, restarts=2, seed=1)
    res = minimize_kreiss(spec, ControllerStructure.static(2, 2))
    assert res.report.value == pytest.approx(1.0, abs=1e-3)
    assert res.report.value >= 1.0 - 1e-8  # objective floor


def test_minimize_lorenz_static_reaches_unit_value():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         restarts=3, seed=0)
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.report.value <= 1.02
    assert res.constraints.satisfied
    assert len(res.history) <= spec.restarts
    oracle = kreiss_halfplane_grid(
        assemble_closed_loop(spec.plant, res.controller).channel())
    assert res.report.value == pytest.approx(oracle.value, rel=1e-3)


def test_minimize_monotone_history():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         restarts=2, seed=3)
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    for hist in res.history:
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_minimize_runs_one_descent_per_restart(monkeypatch):
    # Brunton with decay rate 0.1 and roll-off is infeasible for a static
    # gain: no restart may retry its phase-II descent from where it ended
    calls = []
    descend = synth._descend

    def counting(pen, theta0):
        if isinstance(pen, _Penalized):
            calls.append(theta0)
        return descend(pen, theta0)

    monkeypatch.setattr(synth, "_descend", counting)
    spec = SynthesisSpec(plant=brunton_plant(), eta_rate=0.1,
                         rolloff_weight=rolloff_weight(),
                         restarts=2, seed=0)
    with pytest.raises(SynthesisError):
        minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert 1 <= len(calls) <= spec.restarts


@pytest.mark.parametrize("restarts", [0, -2])
def test_spec_needs_a_restart(restarts):
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]])
    with pytest.raises(PreconditionError, match="at least 1"):
        SynthesisSpec(plant=plant, restarts=restarts)


def test_spec_needs_a_nonnegative_seed():
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]])
    with pytest.raises(PreconditionError, match="seed must be at least 0"):
        SynthesisSpec(plant=plant, seed=-1)


def test_minimize_infeasible_actuation_fails():
    plant = StateSpace([[0.5]], [[0.0]], [[1.0]])  # zero control channel
    spec = SynthesisSpec(plant=plant, restarts=2, seed=0)
    with pytest.raises(SynthesisError):
        minimize_kreiss(spec, ControllerStructure.static(1, 1))


def test_minimize_respects_decay_constraint():
    spec = SynthesisSpec(plant=lorenz_plant(lorenz_chaos(), "x"),
                         eta_rate=0.5,
                         restarts=3, seed=0)
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.constraints.alpha <= -0.5 + 1e-8


def test_minimize_judges_the_decay_limit_it_enforced():
    # below the built-in stability margin 0.01 the descent enforces
    # alpha <= -0.01, and the constraint report must judge that same limit
    plant = StateSpace([[0.5]], [[1.0]], [[1.0]])
    spec = SynthesisSpec(plant=plant, eta_rate=0.005, restarts=1, seed=0)
    res = minimize_kreiss(spec, ControllerStructure.static(1, 1))
    assert res.constraints.alpha_limit == -0.01
    assert res.constraints.satisfied
    assert res.constraints.alpha <= -0.01 + 1e-8


def test_no_rolloff_value_is_computed_twice(monkeypatch):
    # the screen's roll-off value is the full evaluation's finite-difference
    # base, so no controller is evaluated twice
    seen = []

    def recording(plant, controller, weight):
        seen.append(b"".join(M.tobytes() for M in (
            controller.A_K, controller.B_K, controller.C_K, controller.D_K)))
        return rolloff_norm(plant, controller, weight)

    rolloff_norm = synth.rolloff_norm
    monkeypatch.setattr(synth, "rolloff_norm", recording)
    spec = SynthesisSpec(plant=brunton_plant(), eta_rate=0.1,
                         rolloff_weight=rolloff_weight(), restarts=1, seed=0)
    try:
        minimize_kreiss(spec, ControllerStructure.full(1, 1, 1))
    except SynthesisError:
        pass  # restart 0 ends infeasible; its descent is what counts here
    assert len(seen) > 0
    assert len(set(seen)) == len(seen)
