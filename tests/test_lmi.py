import math

import numpy as np
import pytest
import scipy.linalg

from kreisslab import lmi
from kreisslab.errors import DimensionError, PreconditionError
from kreisslab.lmi import (
    LmiBlock,
    LmiProblem,
    lossless_check,
    null_space_basis,
    of_existence,
    qc_analysis,
    qc_analysis_closed_loop,
    qc_problem,
    reconstruct_controller,
    sdp_feasibility,
    sf_synthesis,
    strict_margin,
)
from kreisslab.loop import ControllerRealization, assemble_closed_loop
from kreisslab.models import brunton2_model, lorenz_model
from kreisslab.benchmarks import lorenz_chaos
from kreisslab.statespace import StateSpace


def lorenz_A(R=28.0):
    return np.array([[-10.0, 10.0, 0.0], [R, -1.0, 0.0], [0.0, 0.0, -1.0]])


B_LORENZ = np.array([[0.0], [1.0], [0.0]])
C_X = np.array([[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Engine basics
# ---------------------------------------------------------------------------

def test_sdp_scalar_interval_feasible():
    # diag(y - 1, -y) < 0 is feasible exactly on 0 < y < 1
    blk = LmiBlock(F0=np.diag([-1.0, 0.0]), coeffs=[np.diag([1.0, -1.0])],
                   margin=1e-7)
    res = sdp_feasibility(LmiProblem(blocks=[blk]))
    assert res.feasible
    assert 0.0 < res.y[0] < 1.0
    assert res.margin < 0


def test_sdp_constant_identity_infeasible():
    blk = LmiBlock(F0=np.eye(2), coeffs=[], margin=1e-7)
    res = sdp_feasibility(LmiProblem(blocks=[blk]))
    assert res.status == "infeasible"
    assert res.reason == "no variables"
    X = res.certificate[0]
    assert np.trace(X) == pytest.approx(1.0)
    assert np.sum((blk.F0 + blk.margin * np.eye(2)) * X) > 0.0
    # a variable that appears in no block leaves a constant problem too
    blk = LmiBlock(F0=-np.eye(2), coeffs=[np.zeros((2, 2))], margin=1e-7)
    res = sdp_feasibility(LmiProblem(blocks=[blk]))
    assert (res.status, res.reason, res.certificate) == \
        ("feasible", "no variables", None)


def test_sdp_infeasible_carries_checked_farkas_certificate():
    # destabilizing static gain: the structured Lyapunov LMI has no solution
    A_cl = lorenz_A() + B_LORENZ @ np.array([[-10.0]]) @ C_X
    problem = qc_problem(A_cl, (1, 2, 0), 1e-3)
    res = sdp_feasibility(problem)
    assert res.status == "infeasible"
    assert res.reason == "farkas certificate"
    X = res.certificate
    assert len(X) == len(problem.blocks)
    for Xb in X:  # positive semidefinite up to rounding at trace 1
        assert np.allclose(Xb, Xb.T)
        assert np.linalg.eigvalsh(Xb)[0] >= -1e-12
    assert sum(np.trace(Xb) for Xb in X) == pytest.approx(1.0, abs=1e-12)
    for i in range(problem.n_vars):
        inner = sum(np.sum(blk.coeffs[i] * Xb)
                    for blk, Xb in zip(problem.blocks, X))
        assert abs(inner) <= 1e-10
    value = sum(np.sum((blk.F0 + blk.margin * np.eye(len(blk.F0))) * Xb)
                for blk, Xb in zip(problem.blocks, X))
    assert value > 0.0


def test_sdp_rejects_asymmetric_blocks():
    with pytest.raises(DimensionError):
        LmiProblem(blocks=[LmiBlock(F0=np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    coeffs=[], margin=0.0)])


def test_problem_derives_its_variable_count_from_the_blocks():
    # each block owns its coefficient stack, with a zero matrix for a
    # variable it omits; the blocks must agree on the count
    blk = LmiBlock(F0=-np.eye(2), coeffs=[np.eye(2), np.zeros((2, 2))],
                   margin=0.0)
    assert blk.coeffs.shape == (2, 2, 2)
    assert LmiProblem(blocks=[blk]).n_vars == 2
    assert LmiProblem(blocks=[]).n_vars == 0
    with pytest.raises(DimensionError):
        LmiProblem(blocks=[blk, LmiBlock(F0=[[-1.0]], coeffs=[[[1.0]]],
                                         margin=0.0)])


@pytest.mark.parametrize("d", range(5))
def test_sym_unpack_inverts_triu_packing(d, rng):
    S = rng.standard_normal((d, d))
    S = S + S.T
    assert np.array_equal(lmi._sym_unpack(S[np.triu_indices(d)], d), S)


@pytest.mark.parametrize("dim,at,d", [(1, 0, 1), (3, 0, 2), (4, 1, 2),
                                      (5, 2, 3), (3, 3, 0)])
def test_sym_vars_sum_is_the_embedded_unpack(dim, at, d, rng):
    E = lmi._sym_vars(dim, at, d)
    y = rng.standard_normal(d * (d + 1) // 2)
    embedded = np.zeros((dim, dim))
    embedded[at:at + d, at:at + d] = lmi._sym_unpack(y, d)
    assert E.shape == (len(y), dim, dim)
    assert np.array_equal(np.tensordot(y, E, 1), embedded)


def test_null_space_basis():
    N = null_space_basis(C_X)
    assert N.shape == (3, 2)
    assert np.allclose(C_X @ N, 0.0, atol=1e-12)
    assert np.allclose(N.T @ N, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# Lossless identity
# ---------------------------------------------------------------------------

def test_lossless_identity_pointwise():
    model = lorenz_model(lorenz_chaos())
    x = np.array([1.0, 2.0, 3.0])
    w = model.phi(x)
    assert x @ model.B_w @ w == pytest.approx(0.0, abs=1e-12)


def test_lossless_identity_sampled():
    model = lorenz_model(lorenz_chaos())
    _, max_rel = lossless_check(model, samples=100000, seed=0)
    assert max_rel <= 1e-12


def test_lossless_violated_by_perturbed_nonlinearity():
    model = lorenz_model(lorenz_chaos())
    from dataclasses import replace

    def phi_bad(x):  # x is one state or a batch of states, batch last
        return model.phi(x) + np.stack([np.zeros_like(x[0]), x[0]])

    bad = replace(model, phi=phi_bad)
    _, max_rel = lossless_check(bad, samples=2000, seed=0)
    assert max_rel > 1e-3


@pytest.mark.parametrize("samples", [0, -5])
def test_lossless_check_needs_a_sample(samples):
    with pytest.raises(PreconditionError, match="at least 1"):
        lossless_check(lorenz_model(lorenz_chaos()), samples=samples)


def test_lossless_check_needs_a_nonnegative_seed():
    with pytest.raises(PreconditionError, match="seed must be at least 0"):
        lossless_check(lorenz_model(lorenz_chaos()), samples=10, seed=-1)


# ---------------------------------------------------------------------------
# QC analysis
# ---------------------------------------------------------------------------

def test_qc_static_x_gain_feasible():
    A_cl = lorenz_A() + B_LORENZ @ np.array([[-27.01]]) @ C_X
    cert = qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3)
    assert cert.feasible
    # direct numeric recheck of the certificate
    X = cert.X_cl
    resid = A_cl.T @ X + X @ A_cl + cert.epsilon * X
    assert np.max(np.linalg.eigvalsh(resid)) <= 0.0
    assert np.min(np.linalg.eigvalsh(X)) > 0.0
    # enforced partition zeros
    assert np.allclose(X[1:3, 1:3], np.eye(2), atol=1e-12)
    assert np.allclose(X[0, 1:3], 0.0, atol=1e-12)


def test_qc_open_loop_infeasible():
    cert = qc_analysis(lorenz_A(), (1, 2, 0), epsilon=1e-3)
    assert cert.status == "infeasible"


@pytest.mark.parametrize("gain", [0.0, -20.0])
def test_qc_abscissa_shortcut_skips_engine(monkeypatch, gain):
    # open loop (gain 0) and a destabilizing gain: alpha >= -eps/2 decides
    # infeasibility exactly, so the LMI engine must not run
    def engine(*args, **kwargs):
        raise AssertionError("sdp_feasibility called")

    monkeypatch.setattr(lmi, "sdp_feasibility", engine)
    A_cl = lorenz_A() + B_LORENZ @ np.array([[gain]]) @ C_X
    cert = qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3)
    assert (cert.status, cert.reason, cert.iterations) == \
        ("infeasible", "spectral abscissa", 0)
    assert cert.X_cl is None
    assert cert.margin >= 0.0


def test_qc_kreiss_static_gain_feasible():
    A_cl = lorenz_A() + B_LORENZ @ np.array([[-34.70]]) @ C_X
    assert qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3).feasible


def test_qc_closed_loop_wrapper_dynamic():
    model = lorenz_model(lorenz_chaos(), measurement="x")
    ctrl = ControllerRealization.from_tf([-306.5, -2809.0], [1.0, 0.1044])
    cert = qc_analysis_closed_loop(model, ctrl, epsilon=1e-3)
    assert cert.feasible


def test_qc_brunton_static_never_certifies():
    # the oscillator has n_phi = n, an unstable linear part, and a pinned
    # identity middle block, so no structured certificate can exist
    model = brunton2_model()
    ctrl = ControllerRealization.static([[-1.0]])
    cert = qc_analysis_closed_loop(model, ctrl, epsilon=1e-3)
    assert not cert.feasible


def test_qc_partition_mismatch():
    with pytest.raises(DimensionError):
        qc_analysis(lorenz_A(), (2, 2, 2), epsilon=1e-3)


@pytest.mark.parametrize("eps", [-20.0, -1e-3, math.nan, math.inf])
def test_lmi_routes_need_a_finite_nonnegative_epsilon(eps):
    # with eps < 0, A^T X + X A + eps X < 0 admits an unstable A: the gain
    # -20 leaves the Lorenz loop an eigenvalue at +4.51
    A = lorenz_A()
    routes = [
        lambda: qc_analysis(A + B_LORENZ @ np.array([[-20.0]]) @ C_X,
                            (1, 2, 0), epsilon=eps),
        lambda: sf_synthesis(A, B_LORENZ, n_phi=2, epsilon=eps),
        lambda: of_existence(A, B_LORENZ, C_X, n_phi=2, epsilon=eps),
        lambda: reconstruct_controller(A, B_LORENZ, C_X, np.eye(1),
                                       np.eye(1), n_K=1, epsilon=eps),
    ]
    for route in routes:
        with pytest.raises(PreconditionError,
                           match="epsilon must be finite and at least 0"):
            route()


# ---------------------------------------------------------------------------
# Elimination soundness: full form with mu0 = -1 vs reduced structure
# ---------------------------------------------------------------------------

def _full_qc_feasibility(A_cl, B_w_cl, eps):
    """Full inequality with the S-procedure multiplier fixed at -1.

    The zero lower-right block forces X B_w = B_w; that linear constraint is
    eliminated exactly, leaving the Lyapunov block over the remaining
    symmetric degrees of freedom.
    """
    dim = A_cl.shape[0]
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]

    def emb(i, j):
        E = np.zeros((dim, dim))
        E[i, j] = E[j, i] = 1.0
        return E

    rows = []
    rhs = []
    for col in range(B_w_cl.shape[1]):
        for r in range(dim):
            coef = np.zeros(len(pairs))
            for k, (i, j) in enumerate(pairs):
                coef[k] = emb(i, j)[r, :] @ B_w_cl[:, col]
            rows.append(coef)
            rhs.append(B_w_cl[r, col])
    Aeq = np.asarray(rows)
    beq = np.asarray(rhs)
    sol, *_ = np.linalg.lstsq(Aeq, beq, rcond=None)
    if np.linalg.norm(Aeq @ sol - beq) > 1e-9:
        return "infeasible"
    null = scipy.linalg.null_space(Aeq)

    def xmat(z):
        v = sol + null @ z
        X = np.zeros((dim, dim))
        for k, (i, j) in enumerate(pairs):
            X[i, j] = X[j, i] = v[k]
        return X

    X0 = xmat(np.zeros(null.shape[1]))
    lyap0 = A_cl.T @ X0 + X0 @ A_cl + eps * X0
    coeffs_l = []
    coeffs_p = []
    for c in range(null.shape[1]):
        z = np.zeros(null.shape[1])
        z[c] = 1.0
        E = xmat(z) - X0
        coeffs_l.append(A_cl.T @ E + E @ A_cl + eps * E)
        coeffs_p.append(-E)
    blocks = [LmiBlock(F0=lyap0, coeffs=coeffs_l, margin=strict_margin(lyap0)),
              LmiBlock(F0=-X0, coeffs=coeffs_p, margin=1e-8)]
    res = sdp_feasibility(LmiProblem(blocks=blocks))
    return res.status


def test_elimination_soundness_on_random_instances(rng):
    model = lorenz_model(lorenz_chaos(), measurement="x")
    B_w_cl = np.vstack([model.B_w, np.zeros((0, 2))])
    agree = 0
    for trial in range(10):
        K = float(rng.uniform(-60.0, 10.0))
        A_cl = model.A + model.B_u @ np.array([[K]]) @ model.C_y
        reduced = qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3).status
        full = _full_qc_feasibility(A_cl, model.B_w, 1e-3)
        assert {reduced, full} <= {"feasible", "infeasible"}
        assert reduced == full
        agree += 1
    assert agree == 10


# ---------------------------------------------------------------------------
# State-feedback synthesis
# ---------------------------------------------------------------------------

def test_sf_synthesis_chaos_regime():
    K, res = sf_synthesis(lorenz_A(28.0), B_LORENZ, n_phi=2, epsilon=1e-3)
    assert res.feasible
    A_cl = lorenz_A(28.0) + B_LORENZ @ K
    assert qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3).feasible


def test_sf_synthesis_fixed_point_regime():
    K, res = sf_synthesis(lorenz_A(10.0), B_LORENZ, n_phi=2, epsilon=1e-3)
    assert res.feasible
    A_cl = lorenz_A(10.0) + B_LORENZ @ K
    assert qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3).feasible


def test_sf_synthesis_zero_gain_admissible_when_A_certifies():
    A = np.array([[-1.0, 0.3], [0.3, -1.0]])
    B = np.array([[0.0], [1.0]])
    K, res = sf_synthesis(A, B, n_phi=1, epsilon=1e-3)
    assert res.feasible
    # A alone satisfies the structured inequality, so W = 0 is admissible
    cert = qc_analysis(A, (1, 1, 0), epsilon=1e-3)
    assert cert.feasible


def test_congruence_equivalence_sf_forms(rng):
    # X-form: (A+BK)^T diag(X,I) + diag(X,I)(A+BK) + eps diag(X,I) < 0
    # Y-form: same with the congruence diag(Y,I) = diag(X,I)^{-1}
    def form_status(A, K, B, transpose):
        n = A.shape[0]
        A_cl = A + B @ K
        d1 = n - 1
        const = np.zeros((n, n))
        const[d1:, d1:] = np.eye(1)
        mats = []
        for i in range(d1):
            for j in range(i, d1):
                E = np.zeros((n, n))
                E[i, j] = E[j, i] = 1.0
                mats.append(E)

        def lyap(M):
            if transpose:
                return A_cl.T @ M + M @ A_cl + 1e-3 * M
            return A_cl @ M + M @ A_cl.T + 1e-3 * M

        blocks = [LmiBlock(F0=lyap(const), coeffs=[lyap(M) for M in mats],
                           margin=strict_margin(lyap(const))),
                  LmiBlock(F0=-const, coeffs=[-M for M in mats],
                           margin=1e-8)]
        return sdp_feasibility(LmiProblem(blocks=blocks)).status

    for _ in range(8):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        K = rng.standard_normal((1, 3))
        x_form = form_status(A, K, B, True)
        y_form = form_status(A, K, B, False)
        assert "indeterminate" not in (x_form, y_form)
        assert x_form == y_form


# ---------------------------------------------------------------------------
# Output-feedback existence and reconstruction
# ---------------------------------------------------------------------------

def test_of_existence_lorenz_order_bound():
    res = of_existence(lorenz_A(28.0), B_LORENZ, C_X, n_phi=2, epsilon=1e-3)
    assert res.feasible
    assert res.max_order <= 1


def test_of_existence_nphi_equals_n_reduces_to_numerical_abscissa():
    # n_phi = n leaves no X/Y freedom: feasibility is a constant-matrix test
    model = brunton2_model()
    res = of_existence(model.A, model.B_u, model.C_y, n_phi=2, epsilon=1e-3)
    assert not res.feasible  # sigma_u > 0 makes the projected block positive
    assert res.max_order == 0
    stable = np.array([[-1.0, 0.4], [0.0, -2.0]])
    res2 = of_existence(stable, np.array([[0.0], [1.0]]),
                        np.array([[1.0, 0.0]]), n_phi=2, epsilon=1e-3)
    assert res2.feasible


def test_of_existence_linear_plant_full_order():
    A = np.array([[0.5, 1.0], [0.0, -2.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    res = of_existence(A, B, C, n_phi=0, epsilon=1e-3)
    assert res.feasible
    assert res.max_order <= 2


def test_reconstruct_controller_lorenz_chaos():
    A = lorenz_A(28.0)
    res = of_existence(A, B_LORENZ, C_X, n_phi=2, epsilon=1e-3)
    ctrl, theta_res = reconstruct_controller(A, B_LORENZ, C_X, res.X, res.Y,
                                             n_K=1, epsilon=1e-3)
    assert theta_res.feasible
    plant = StateSpace(A, B_LORENZ, C_X)
    cl = assemble_closed_loop(plant, ctrl)
    cert = qc_analysis(cl.A_cl, (1, 2, 1), epsilon=1e-3)
    assert cert.feasible


def test_reconstruct_controller_fixed_point_regime():
    A = lorenz_A(10.0)
    res = of_existence(A, B_LORENZ, C_X, n_phi=2, epsilon=1e-3)
    ctrl, theta_res = reconstruct_controller(A, B_LORENZ, C_X, res.X, res.Y,
                                             n_K=1, epsilon=1e-3)
    assert theta_res.feasible
    plant = StateSpace(A, B_LORENZ, C_X)
    cl = assemble_closed_loop(plant, ctrl)
    assert qc_analysis(cl.A_cl, (1, 2, 1), epsilon=1e-3).feasible


def test_reconstruct_static_agrees_with_sf_route():
    # degenerate n_K = 0 with C = I: both routes must certify
    A = lorenz_A(28.0)
    C = np.eye(3)
    res = of_existence(A, B_LORENZ, C, n_phi=2, epsilon=1e-3)
    assert res.feasible
    ctrl, theta_res = reconstruct_controller(A, B_LORENZ, C, res.X,
                                             np.atleast_2d(1.0 / res.X),
                                             n_K=0, epsilon=1e-3)
    assert theta_res.feasible
    A_cl = A + B_LORENZ @ ctrl.D_K
    assert qc_analysis(A_cl, (1, 2, 0), epsilon=1e-3).feasible
    K_sf, res_sf = sf_synthesis(A, B_LORENZ, n_phi=2, epsilon=1e-3)
    assert res_sf.feasible
    assert qc_analysis(A + B_LORENZ @ K_sf, (1, 2, 0), epsilon=1e-3).feasible
