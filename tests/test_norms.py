import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from kreisslab import norms
from kreisslab.errors import (
    ArgumentError,
    EnumerationError,
    PreconditionError,
    StabilityError,
)
from kreisslab.linalg import expm, spectral_abscissa
from kreisslab.norms import (
    attainment_check,
    cb_lower_bound,
    entrywise_kreiss,
    hankel_singular_values,
    hinf_norm,
    kreiss_matrix,
    kreiss_norm,
    l2_to_peak,
    peak_gain,
    sign_pattern_kreiss,
    transient_peak_m0,
)
from kreisslab.oracles import (
    certification_interval,
    hinf_frequency_grid,
    kreiss_halfplane_grid,
    l2_to_peak_sampled,
    m0_time_grid,
)
from kreisslab.statespace import StateSpace, tf_to_ss

from conftest import random_stable_statespace, random_suite

EX3 = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [-1.0]], [[1.0, 1.0]])
EX3_EPS = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [-0.75]], [[1.0, 1.0]])
EX8 = StateSpace([[-0.0939, 1.0], [0.0, -0.0939]],
                 [[0.4722, 0.7973], [0.0339, 0.5553]], np.eye(2))
EX4 = tf_to_ss([1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.9608])
#: a 200-point eta grid: the family kernel checks take more members than
#: kreiss_norm's own grid
ETA_200 = np.unique(np.clip(1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 200)),
                            0.0, 2.0 - 1e-6))
# a Jordan pair of rotations: impulse response t e^{-0.1 t} sin(40 t)
_ROT = np.array([[-0.1, 40.0], [-40.0, -0.1]])
JORDAN_OSC = StateSpace(
    np.block([[_ROT, np.eye(2)], [np.zeros((2, 2)), _ROT]]),
    np.eye(4)[:, 3:], np.eye(4)[:1])


# ---------------------------------------------------------------------------
# H-infinity
# ---------------------------------------------------------------------------

def test_hinf_first_order_lag():
    rep = hinf_norm(StateSpace([[-1.0]], [[1.0]], [[1.0]]))
    assert rep.value == pytest.approx(1.0, rel=1e-8)
    assert rep.maximizer["omega"] == pytest.approx(0.0, abs=1e-6)


def test_hinf_static_channel_scaling():
    # (s+1)^{-1} CB with scalar CB = c gives |c|
    for c in (2.5, -0.3):
        rep = hinf_norm(StateSpace([[-1.0]], [[1.0]], [[c]]))
        assert rep.value == pytest.approx(abs(c), rel=1e-8)


def test_hinf_peak_between_the_pole_probes():
    # s/((s + 1)(s + 1000)) peaks at 1/1001 at omega = sqrt(1000), away
    # from every probe (0, 1, 1000): the level test alone reaches tol
    sys = StateSpace([[-1.0, 0.0], [0.0, -1000.0]], [[1.0], [1.0]],
                     [[-1.0 / 999.0, 1000.0 / 999.0]])
    rep = hinf_norm(sys)
    assert rep.value == pytest.approx(1.0 / 1001.0, rel=1e-8)
    assert rep.maximizer["omega"] == pytest.approx(math.sqrt(1000.0),
                                                   rel=1e-2)


def test_hinf_peak_with_a_zero_at_every_pole_probe():
    # s (s^2 + 1)/(s + 1)^4 on a Jordan block vanishes at both pole probes,
    # 0 and 1; its peak is sin(4 theta)/4 = 1/4 at omega = tan(pi/8)
    A = -np.eye(4) + np.diag(np.ones(3), 1)
    sys = StateSpace(A, [[0.0], [0.0], [0.0], [1.0]], [[-2.0, 4.0, -3.0, 1.0]])
    rep = hinf_norm(sys)
    assert rep.value == pytest.approx(0.25, rel=1e-8)
    assert rep.maximizer["omega"] == pytest.approx(math.tan(math.pi / 8),
                                                   rel=1e-2)


def test_hinf_requires_stability():
    with pytest.raises(StabilityError):
        hinf_norm(StateSpace([[1.0]], [[1.0]], [[1.0]]))


def test_hinf_matches_dense_grid_oracle(rng):
    for _ in range(5):
        sys = random_stable_statespace(rng, 4)
        rep = hinf_norm(sys, tol=1e-9)
        oracle = hinf_frequency_grid(sys, n_grid=100000)
        assert rep.value == pytest.approx(oracle.value, rel=2e-6)


def test_hinf_with_direct_transmission(rng):
    sys = random_stable_statespace(rng, 3)
    sys = StateSpace(sys.A, sys.B, sys.C, [[0.7]])
    rep = hinf_norm(sys, tol=1e-9)
    oracle = hinf_frequency_grid(sys, n_grid=100000)
    assert rep.value == pytest.approx(oracle.value, rel=2e-6)


# ---------------------------------------------------------------------------
# Kreiss norm
# ---------------------------------------------------------------------------

def test_kreiss_contraction_semigroup_floor():
    rep = kreiss_norm(StateSpace(-np.eye(2), np.eye(2), np.eye(2)))
    assert rep.value == pytest.approx(1.0, rel=1e-6)


def test_kreiss_example3():
    rep = kreiss_norm(EX3)
    assert rep.value == pytest.approx(0.1716, abs=2e-3)


def test_kreiss_example8():
    rep = kreiss_norm(EX8)
    assert rep.value == pytest.approx(1.9634, abs=2e-2)


def test_kreiss_matrix_contraction():
    assert kreiss_matrix(-np.eye(2)).value == pytest.approx(1.0, rel=1e-6)


def test_kreiss_matrix_companion():
    assert kreiss_matrix(EX4.A).value == pytest.approx(1.17, abs=2e-2)


def test_kreiss_matrix_normal_diag():
    assert kreiss_matrix(np.diag([-1.0, -2.0])).value == pytest.approx(
        1.0, rel=1e-6)


def test_kreiss_attained_bound_with_large_transient():
    # upper-triangular pair: the bound sigma(CB) = 1 is attained by the
    # Kreiss norm while the transient peak reaches 1.72
    sys = StateSpace([[-0.6509, 0.8746], [0.0, -0.6509]],
                     [[-0.2592], [0.2126]], [[-19.5450, -19.1251]])
    cb = cb_lower_bound(sys)
    assert cb == pytest.approx(1.0, abs=1e-3)
    assert kreiss_norm(sys).value == pytest.approx(cb, rel=1e-6)
    assert transient_peak_m0(sys).value == pytest.approx(1.72, abs=5e-3)


def test_kreiss_attained_bound_diagonalizable_case():
    # SISO with real distinct poles: K = sigma(CB) = 1 yet M0 > 1
    sys = tf_to_ss([1.0, -2.032], [1.0, 0.8456, 0.1769])
    assert cb_lower_bound(sys) == pytest.approx(1.0)
    assert kreiss_norm(sys).value == pytest.approx(1.0, rel=1e-6)
    assert transient_peak_m0(sys).value > 1.5


def test_kreiss_rejects_direct_transmission():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(PreconditionError):
        kreiss_norm(sys)


def test_kreiss_requires_stability():
    with pytest.raises(StabilityError):
        kreiss_norm(StateSpace([[0.1]], [[1.0]], [[1.0]]))


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
def test_hinf_tolerance_must_be_positive(tol):
    # a NaN tolerance passed a "tol <= 0" test and reached LAPACK
    with pytest.raises(PreconditionError, match="tol must be positive"):
        hinf_norm(EX3, tol=tol)
    with pytest.raises(PreconditionError, match="tol must be positive"):
        kreiss_norm(EX3, tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_peak_gain_tolerance_must_be_positive(tol):
    # tol -1 and nan returned 0.0 (the peak gain is 0.5): the tail horizon
    # never met a target that is not positive
    with pytest.raises(ArgumentError, match="tol must be positive"):
        peak_gain(EX3, tol=tol)


def test_kreiss_similarity_invariance(rng):
    sys = random_stable_statespace(rng, 3, p=2, m=2)
    base = kreiss_norm(sys).value
    base_m0 = transient_peak_m0(sys).value
    T = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    Ti = np.linalg.inv(T)
    sim = StateSpace(T @ sys.A @ Ti, T @ sys.B, sys.C @ Ti)
    assert kreiss_norm(sim).value == pytest.approx(base, rel=1e-6)
    assert transient_peak_m0(sim).value == pytest.approx(base_m0, rel=1e-6)


def test_kreiss_norm_scales_with_time():
    # K(a A, a B, C) = a K(A, B, C): a grid tied to one time scale missed
    # the maxima of 8 of these 200 rescaled systems
    for sys in random_suite(seed=2024, count=100):
        base = kreiss_norm(sys).value
        for a in (1e-4, 1e4):
            value = kreiss_norm(StateSpace(a * sys.A, a * sys.B, sys.C)).value
            assert value == pytest.approx(a * base, rel=1e-9)


def _stiff_jordan(scale=1.0):
    """blockdiag(-1e4, [[-1e-3, 1], [0, -1e-3]]) times scale, B = C = I:
    eigenvalues 1e7 apart, and the slow Jordan block peaks at Re s = 1e-3
    with K = max_x x a (a + sqrt(a^2 + 4)) / 2, a = 1 / (x + 1e-3)."""
    A = np.zeros((3, 3))
    A[0, 0] = -1e4
    A[1:, 1:] = [[-1e-3, 1.0], [0.0, -1e-3]]
    return StateSpace(scale * A, np.eye(3), np.eye(3))


def _stiff_jordan_kreiss():
    def value(log_x):
        a = 1.0 / (math.exp(log_x) + 1e-3)
        return -math.exp(log_x) * a * (a + math.sqrt(a * a + 4.0)) / 2.0
    best = scipy.optimize.minimize_scalar(
        value, bounds=(math.log(1e-4), math.log(1e-2)), method="bounded",
        options={"xatol": 1e-10})
    return -best.fun


def test_kreiss_norm_of_a_stiff_system():
    # one window near the spectral radius stopped at Re s = 4e-3 and read
    # 37 % low; the slow block takes its own window
    sys = _stiff_jordan()
    rep = kreiss_norm(sys)
    oracle = kreiss_halfplane_grid(sys)
    assert rep.value >= certification_interval(oracle)[0]
    assert rep.value == pytest.approx(_stiff_jordan_kreiss(), rel=1e-9)
    # the windows form one grid, so the peak is refined and reported once;
    # separate windows found, refined and reported it twice
    assert len(rep.maximizer["actives"]) == 1


def test_kreiss_actives_carry_their_member():
    # slowed by 2^-60, the peak's member c A - I has c near 1e21, whose
    # eta = 2 c / (1 + c) rounds to 2; the reported c still gives the
    # member bitwise, and with it the value
    sys = _stiff_jordan(2.0 ** -60)
    rep = kreiss_norm(sys)
    assert rep.value == kreiss_norm(_stiff_jordan()).value
    assert rep.maximizer["eta"] == 2.0
    for act in rep.maximizer["actives"]:
        assert act["eta"] == 2.0 * act["c"] / (1.0 + act["c"])
        value = norms._family_hinf(sys, np.array([act["c"]]), 1e-8)[0][0]
        assert value == pytest.approx(act["value"], rel=1e-12)


@pytest.mark.parametrize("k", [9, 74])
def test_kreiss_reports_one_active_per_peak(k):
    # systems of the criterion-6 suite with one peak, which the grid
    # maximum and its refined point, within the active tolerance of each
    # other, listed twice; only refined points are reported
    sys = list(random_suite(seed=77, count=100))[k]
    rep = kreiss_norm(sys)
    [act] = rep.maximizer["actives"]
    assert (act["value"], act["eta"], act["omega"]) \
        == (rep.value, rep.maximizer["eta"], rep.maximizer["omega"])


def test_kreiss_of_a_zero_channel_reports_one_active():
    # every grid value is 0: one run of equal values, one start at c = 0
    sys = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[0.0, 0.0]])
    rep = kreiss_norm(sys)
    assert (rep.value, rep.maximizer["eta"]) == (0.0, 0.0)
    assert rep.maximizer["actives"] == [
        {"eta": 0.0, "c": 0.0, "value": 0.0, "omega": 0.0}]


def test_kreiss_homogeneity_and_triangle(rng):
    sys = random_stable_statespace(rng, 3, p=1, m=2)
    k0 = kreiss_norm(sys).value
    scaled = StateSpace(sys.A, sys.B, 3.0 * sys.C)
    assert kreiss_norm(scaled).value == pytest.approx(3.0 * k0, rel=1e-6)
    other = random_stable_statespace(rng, 3, p=1, m=2)
    C2 = other.C
    k1 = kreiss_norm(StateSpace(sys.A, sys.B, C2)).value
    k_sum = kreiss_norm(StateSpace(sys.A, sys.B, sys.C + C2)).value
    assert k_sum <= k0 + k1 + 1e-8


# ---------------------------------------------------------------------------
# Lockstep kernel consistency and independent attainment checks
# ---------------------------------------------------------------------------

def _lightly_damped_n11():
    return random_stable_statespace(np.random.default_rng(5), 11, p=2, m=2,
                                    margin=0.01)


def _biproper():
    # (s^2 + 0.2 s + 4) / (s^2 + 0.4 s + 1): D = 1, resonant peak near 1 rad/s
    return tf_to_ss([1.0, 0.2, 4.0], [1.0, 0.4, 1.0])


@pytest.mark.parametrize("name",
                         ["example3", "example8", "light_n11", "stiff"])
def test_kreiss_grid_equals_hinf_of_family_member(name, monkeypatch):
    sys = {"example3": EX3, "example8": EX8, "stiff": _stiff_jordan(),
           "light_n11": _lightly_damped_n11()}[name]
    calls, refinements = [], []
    family_hinf, refine_maxima = norms._family_hinf, norms._refine_maxima

    def recording(sys_, c, tol, imp=None):
        out = family_hinf(sys_, c, tol, imp)
        calls.append((sys_, c, tuple(a.copy() for a in out), tol))
        return out

    def refining(probe, grid_slopes, grid, vals, payloads, xtol,
                 still=None):
        refinements.append((vals.copy(), payloads.copy()))
        return refine_maxima(probe, grid_slopes, grid, vals, payloads, xtol,
                             still)

    monkeypatch.setattr(norms, "_family_hinf", recording)
    monkeypatch.setattr(norms, "_refine_maxima", refining)
    kreiss_norm(sys)
    lam = np.linalg.eigvals(sys.A)
    # one grid in one call and one refinement, ascending from c = 0
    # without repeats
    [(sys_, c, (values, omegas, evals), tol)] = calls
    [(refined_vals, refined_at)] = refinements
    # the refinement reads that grid, with sigma_max(CB) exactly at c = 0
    assert np.array_equal(refined_vals[1:], values[1:])
    assert refined_vals[0] == cb_lower_bound(sys)
    assert np.array_equal(refined_at, np.column_stack([c, omegas]))
    assert sys_ is sys and c[0] == 0.0 and np.all(np.diff(c) > 0.0)
    # each member c > 0 is c' / rho for exactly one c' of the grid and a
    # power of two rho: the c' of equal mantissa (all 47 differ)
    windows = {}
    for i, c_i in enumerate(c[1:], 1):
        [k] = [k for k, g in enumerate(norms._C_GRID)
               if k and math.frexp(g)[0] == math.frexp(c_i)[0]]
        rho = norms._C_GRID[k] / c_i
        assert math.frexp(rho)[0] == 0.5 and norms._C_GRID[k] / rho == c_i
        windows.setdefault(rho, []).append((k, i))
    rhos = sorted(windows, reverse=True)
    windows[rhos[0]].insert(0, (0, 0))
    # the first window lies nearest the spectral radius and takes the whole
    # grid; a stiff A takes more, down to Re s = |alpha| / n
    assert rhos[0] == 2.0 ** round(math.log2(np.abs(lam).max()))
    assert [k for k, _ in windows[rhos[0]]] == list(range(norms._C_GRID.size))
    assert rhos[-1] / norms._C_GRID[-2] <= -lam.real.max() / lam.size
    assert (len(rhos) > 1) == (name in ("light_n11", "stiff"))
    for above, rho in zip(rhos, rhos[1:]):
        # at most 2^10 lower, from the last point that the one before
        # reaches at its last inner point, to the grid's end
        start = windows[rho][0][0]
        assert [k for k, _ in windows[rho]] == list(range(start,
                                                          norms._C_GRID.size))
        assert above * 2.0 ** -10 <= rho < above
        reach = above / norms._C_GRID[-2]
        assert (rho / norms._C_GRID[start] >= reach
                > rho / norms._C_GRID[start + 1])
    for rho, members in windows.items():
        # bitwise the members of the grid on A divided exactly by rho
        ks, idx = map(list, zip(*members))
        assert np.array_equal(norms._family_matrix(sys.A, c[idx]),
                              norms._family_matrix(sys.A / rho,
                                                   norms._C_GRID[ks]))
    for i, (c_i, value, omega, count) in enumerate(zip(c, values, omegas,
                                                       evals)):
        # bitwise: the stacked kernel takes each member's own steps
        alone = family_hinf(sys, c[i:i + 1], tol)
        assert (alone[0][0], alone[1][0], alone[2][0]) \
            == (value, omega, count)
        # the residue gains of a modal A round differently from the
        # dense solves of hinf_norm, far below tol
        rep = hinf_norm(StateSpace(norms._family_matrix(sys.A, c_i),
                                   sys.B, sys.C), tol=tol)
        assert value == pytest.approx(rep.value, rel=1e-12, abs=0.0)
        assert rep.evaluations == count
        if name == "example8":          # a Jordan block: the dense path
            assert (rep.value, rep.maximizer["omega"]) == (value, omega)


def test_residue_gains_match_dense_gains(rng):
    grid = ETA_200
    for sys in random_suite(seed=2024, count=100):
        imp = norms._Impulse(sys)
        poles = (grid / (2.0 - grid))[:, None] * imp.lam - 1.0
        member = rng.integers(0, grid.size, 40)
        s = 1j * 10.0 ** rng.uniform(-3.0, 3.0, 40)
        got = norms._residue_gains(s, poles[member], imp.res[0], sys.D)
        want = norms._gains(norms._family_matrix(sys.A, grid / (2.0 - grid)),
                            member, s, sys.B, sys.C, sys.D)
        assert np.max(np.abs(got - want) / want) <= 1e-12


def _split_jordan(cond):
    """A 4 x 4 Jordan block at -1 split by d into distinct poles, with d
    chosen so that the eigenvector basis has about the given cond(V)."""
    d = (1.5 / cond) ** (1.0 / 3.0)
    A = -np.eye(4) + np.diag(np.ones(3), 1) - d * np.diag(np.arange(4.0))
    return StateSpace(A, np.ones((4, 1)), np.ones((1, 4)))


@pytest.mark.parametrize("tol", [1e-8, 1e-6])
@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
def test_residue_path_gate(cond, tol):
    sys = _split_jordan(cond)
    imp = norms._Impulse(sys)
    assert cond / 3.0 < imp.cond < 3.0 * cond
    grid = ETA_200
    family = norms._family_hinf(sys, grid / (2.0 - grid), tol)
    dense = norms._hinf_lockstep(
        norms._family_matrix(sys.A, grid / (2.0 - grid)), sys.B, sys.C,
        sys.D, tol)
    if imp.cond * norms._EPS <= 1e-3 * tol:
        assert np.max(np.abs(family[0] - dense[0]) / dense[0]) \
            <= 1e-3 * tol
    else:
        assert all(np.array_equal(f, d) for f, d in zip(family, dense))


def test_kreiss_family_takes_no_dense_step_per_member(monkeypatch):
    sys = _lightly_damped_n11()
    gain_stacks, eig_stacks = [], []
    gains, eigvals = norms._gains, np.linalg.eigvals

    def recording_gains(A, *args):
        gain_stacks.append(A.shape[0])
        return gains(A, *args)

    def recording_eigvals(M):
        if M.ndim == 3 and M.shape[-1] == sys.n:   # not a Hamiltonian
            eig_stacks.append(M.shape[0])
        return eigvals(M)

    monkeypatch.setattr(norms, "_gains", recording_gains)
    monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
    kreiss_norm(sys)
    # the refinement's one-member hinf_norm calls
    assert gain_stacks and set(gain_stacks) == {1}
    assert set(eig_stacks) <= {1}


def test_kreiss_of_a_system_without_states():
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)))
    assert kreiss_norm(sys).value == 0.0


def test_gain_chunk_size_leaves_reports_identical(monkeypatch):
    rng = np.random.default_rng(5)
    mimo = random_stable_statespace(rng, 5, p=2, m=3)
    cases = [(kreiss_norm, EX8), (kreiss_norm, mimo),
             (kreiss_norm, _lightly_damped_n11()),
             (hinf_norm, mimo), (hinf_norm, _biproper())]
    default = [fn(sys).as_dict() for fn, sys in cases]
    monkeypatch.setattr(norms, "_GAIN_CHUNK", 7)
    assert [fn(sys).as_dict() for fn, sys in cases] == default


def _kreiss_gain(sys, eta, omega):
    """Re(s) sigma_max(G(s)) at s = (1 + j omega) / c, c = eta / (2 - eta),
    the point the family member at eta maps j omega to."""
    c = eta / (2.0 - eta)
    s = (1.0 + 1j * omega) / c
    return s.real * np.linalg.svd(sys.transfer(s), compute_uv=False)[0]


@pytest.mark.parametrize("name", ["example3", "example8", "mimo",
                                  "light_n11"])
def test_kreiss_maximizer_reproduces_value(name):
    sys = {"example3": EX3, "example8": EX8,
           "mimo": random_stable_statespace(np.random.default_rng(14), 4,
                                            p=2, m=2),
           "light_n11": _lightly_damped_n11()}[name]
    rep = kreiss_norm(sys)
    assert rep.value > cb_lower_bound(sys)
    gain = _kreiss_gain(sys, rep.maximizer["eta"], rep.maximizer["omega"])
    assert gain == pytest.approx(rep.value, rel=1e-12)
    for act in rep.maximizer["actives"]:
        assert _kreiss_gain(sys, act["eta"], act["omega"]) \
            == pytest.approx(act["value"], rel=1e-12)


@pytest.mark.parametrize("name", ["example8", "mimo", "light_n11",
                                  "biproper"])
def test_hinf_maximizer_reproduces_value(name):
    sys = {"example8": EX8,
           "mimo": random_stable_statespace(np.random.default_rng(8), 4,
                                            p=2, m=3),
           "light_n11": _lightly_damped_n11(),
           "biproper": _biproper()}[name]
    rep = hinf_norm(sys)
    omega = rep.maximizer["omega"]
    assert np.isfinite(omega)
    gain = np.linalg.svd(sys.transfer(1j * omega), compute_uv=False)[0]
    assert gain == pytest.approx(rep.value, rel=1e-12)
    if name == "biproper":
        assert np.any(sys.D) and rep.value > abs(sys.D[0, 0])


# ---------------------------------------------------------------------------
# Transient peak M0
# ---------------------------------------------------------------------------

def test_m0_contraction_at_time_zero():
    rep = transient_peak_m0(StateSpace(-np.eye(2), np.eye(2), np.eye(2)))
    assert rep.value == pytest.approx(1.0, rel=1e-9)
    assert rep.maximizer["t"] == pytest.approx(0.0, abs=1e-6)


def test_m0_example3_peak_at_log2():
    rep = transient_peak_m0(EX3)
    assert rep.value == pytest.approx(0.25, abs=2e-3)
    assert rep.maximizer["t"] == pytest.approx(np.log(2.0), abs=1e-6)


def test_m0_eps_variant():
    rep = transient_peak_m0(EX3_EPS)
    assert rep.value == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_m0_rejects_unstable():
    with pytest.raises(StabilityError):
        transient_peak_m0(StateSpace([[0.0]], [[1.0]], [[1.0]]))


def test_m0_of_a_non_normal_jordan_hump_meets_its_bounds():
    # cond(V) = 1.25e13, and 9.9e12 once balanced: M0 comes from the anchored
    # propagator, whose steps never square through the transient hump
    J = -0.05 * np.eye(6) + np.eye(6, k=1)
    T = np.random.default_rng(0).standard_normal((6, 6))
    sys = StateSpace(T @ J @ np.linalg.inv(T), np.eye(6), np.eye(6))
    value = transient_peak_m0(sys).value
    assert value <= np.e * sys.n * kreiss_norm(sys).value
    lo, hi = certification_interval(m0_time_grid(sys))
    assert lo <= value <= hi


def _henrici_cases(rng):
    """(name, A): random, symmetric (normal), nearly normal and Jordan."""
    for n in range(2, 13):
        R = rng.standard_normal((n, n))
        yield "random", R - (spectral_abscissa(R) + 0.2) * np.eye(n)
        S = -0.5 * (R @ R.T) - 0.1 * np.eye(n)
        yield "symmetric", S
        for size in (1e-12, 1e-8, 1e-4):
            yield "near-normal", S + size * rng.standard_normal((n, n))
        J = -0.5 * np.eye(n) + np.eye(n, k=1)
        Q = np.linalg.qr(R)[0]
        yield "jordan", J
        yield "rotated jordan", Q @ J @ Q.T
    yield "example8", EX8.A
    yield "jordan oscillator", JORDAN_OSC.A


def test_henrici_nu_bounds_the_schur_departure(rng):
    import scipy.linalg  # the reference only: the package does not use it
    for name, A in _henrici_cases(rng):
        T = scipy.linalg.schur(A.astype(complex), output="complex")[0]
        schur_nu = np.linalg.norm(np.triu(T, 1), 2)
        _, alpha, nu = norms._decay_envelope(A)
        assert nu >= schur_nu, name
        assert alpha == spectral_abscissa(A)


def test_decay_envelope_bounds_the_propagator(rng):
    for name, A in _henrici_cases(rng):
        env, _, _ = norms._decay_envelope(A)
        ts = np.linspace(0.0, norms._tail_horizon(A, 1e-12), 1001)
        gains = np.linalg.norm(expm(A * ts[:, None, None]), 2, axis=(1, 2))
        bound = np.array([env(t) for t in ts])
        # the reference e^{At} itself carries rounding of a few ulp
        assert np.all(bound >= gains * (1 - 1e-12)), name


# ---------------------------------------------------------------------------
# Lower bound and attainment
# ---------------------------------------------------------------------------

def test_cb_lower_bound_values():
    assert cb_lower_bound(EX3) == pytest.approx(0.0, abs=1e-14)
    assert cb_lower_bound(EX3_EPS) == pytest.approx(0.25)
    assert cb_lower_bound(
        StateSpace(-np.eye(2), np.eye(2), np.eye(2))) == pytest.approx(1.0)


def test_kreiss_dominates_cb(rng):
    for _ in range(10):
        sys = random_stable_statespace(rng, 4, p=2, m=2)
        assert cb_lower_bound(sys) <= kreiss_norm(sys).value + 1e-8


def test_attainment_first_printed_example():
    sys = StateSpace([[0.0, 1.0], [-6.0, -5.0]], [[0.0], [1.0]],
                     [[-10.0, 1.0]])
    chk = attainment_check(sys)
    assert chk.sigma_cb == pytest.approx(1.0)
    assert chk.Y_sym_max == pytest.approx(-30.0, abs=1e-9)
    assert chk.necessary_ok
    # necessary but not sufficient for the transient peak
    assert transient_peak_m0(sys).value == pytest.approx(1.5148, abs=2e-3)
    assert kreiss_norm(sys).value == pytest.approx(1.0, abs=5e-3)


def test_attainment_second_printed_example():
    sys = StateSpace([[0.0, 1.0], [-5.0, -1.0]], [[0.0], [1.0]],
                     [[-8.0, 1.0]])
    chk = attainment_check(sys)
    assert chk.Y_sym_max == pytest.approx(-18.0, abs=1e-9)
    assert kreiss_norm(sys).value == pytest.approx(1.13, abs=2e-2)


def test_attainment_identity_channels_recover_numerical_abscissa():
    sys = StateSpace(-np.eye(2), np.eye(2), np.eye(2))
    chk = attainment_check(sys)
    assert chk.Y_sym_max == pytest.approx(-2.0)  # 2 omega(A)
    assert chk.necessary_ok


def test_attainment_requires_nonzero_cb():
    with pytest.raises(PreconditionError):
        attainment_check(EX3)


def test_attainment_holds_whenever_bound_attained(rng):
    # a residual gap g = K - sigma(CB) bounds the slope at eta = 0 by
    # lambda_max(Y + Y^T) <= 4 sigma(CB) g / eta_1 (first grid step), so the
    # necessity check is asserted at that resolution-consistent tolerance;
    # eta_1 is that of the smallest nonzero member of kreiss_norm's grid,
    # and at least that of an 80-point grid on A
    hits = 0
    for _ in range(30):
        sys = random_stable_statespace(rng, 3, p=1, m=1, oscillatory=False)
        sigma_cb = cb_lower_bound(sys)
        if sigma_cb <= 1e-9:
            continue
        k = kreiss_norm(sys).value
        gap = abs(k - sigma_cb)
        if gap <= 1e-4 * max(1.0, k):
            hits += 1
            c1 = norms._time_scales(np.linalg.eigvals(sys.A))[0][1]
            eta1 = max(2.0 * c1 / (1.0 + c1), 1.0 - np.cos(np.pi / 79))
            tol = 2.0 * 4.0 * sigma_cb * max(gap, 1e-12) / eta1 + 1e-9
            assert attainment_check(sys, tol=tol).necessary_ok
    assert hits > 0  # the regime was actually exercised


# ---------------------------------------------------------------------------
# Entry-wise and sign-pattern variants
# ---------------------------------------------------------------------------

def test_entrywise_reduces_to_siso():
    rep = entrywise_kreiss(EX3)
    assert rep.value == pytest.approx(kreiss_norm(EX3).value, rel=1e-9)
    assert rep.maximizer["channel"] == [0, 0]


def test_entrywise_example8_channels_against_oracle():
    rep = entrywise_kreiss(EX8)
    best = 0.0
    for i in range(2):
        for k in range(2):
            sub = StateSpace(EX8.A, EX8.B[:, k:k + 1], EX8.C[i:i + 1, :])
            best = max(best, kreiss_halfplane_grid(sub, n_x=200,
                                                   n_omega=500).value)
    assert rep.value == pytest.approx(best, rel=1e-3)


def test_entrywise_upper_bound_on_channel_peaks():
    rep = entrywise_kreiss(EX8)
    n = EX8.n
    worst_peak = 0.0
    for i in range(2):
        for k in range(2):
            sub = StateSpace(EX8.A, EX8.B[:, k:k + 1], EX8.C[i:i + 1, :])
            worst_peak = max(worst_peak, transient_peak_m0(sub).value)
    assert worst_peak <= np.e * n * rep.value + 1e-9


def test_sign_pattern_single_input_equals_kreiss():
    rep = sign_pattern_kreiss(EX3)
    assert rep.value == pytest.approx(kreiss_norm(EX3).value, rel=1e-9)


def test_sign_pattern_duplicated_column_doubles():
    b = np.array([[1.0], [-1.0]])
    sys = StateSpace(np.diag([-1.0, -2.0]), np.hstack([b, b]), [[1.0, 1.0]])
    rep = sign_pattern_kreiss(sys)
    siso = kreiss_norm(EX3).value
    assert rep.value == pytest.approx(2.0 * siso, rel=1e-6)
    assert rep.maximizer["sign_pattern"] in ([1, 1], [-1, -1])


def test_sign_pattern_matches_enumeration_oracle(rng):
    sys = random_stable_statespace(rng, 3, p=2, m=2)
    rep = sign_pattern_kreiss(sys)
    best = 0.0
    for r in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        sub = StateSpace(sys.A, (sys.B @ np.array(r, dtype=float)).reshape(-1, 1),
                         sys.C)
        best = max(best, kreiss_halfplane_grid(sub, n_x=200,
                                               n_omega=500).value)
    assert rep.value == pytest.approx(best, rel=1e-3)


def test_sign_pattern_enumeration_bound():
    sys = StateSpace(-np.eye(2), np.ones((2, 17)), [[1.0, 0.0]])
    with pytest.raises(EnumerationError):
        sign_pattern_kreiss(sys)


# ---------------------------------------------------------------------------
# Peak gain
# ---------------------------------------------------------------------------

def test_peak_gain_first_order_lag():
    assert peak_gain(StateSpace([[-1.0]], [[1.0]], [[1.0]])).value == \
        pytest.approx(1.0, rel=1e-8)


def test_peak_gain_example3_channel_closed_form():
    # integral of e^{-t} - e^{-2t} over [0, inf) = 1/2
    assert peak_gain(EX3).value == pytest.approx(0.5, rel=1e-8)


def test_peak_gain_static_transmission_only(rng):
    A = random_stable_statespace(rng, 3).A
    D = np.array([[1.0, -2.0], [0.5, 0.25]])
    sys = StateSpace(A, np.zeros((3, 2)), np.zeros((2, 3)), D)
    assert peak_gain(sys).value == pytest.approx(3.0, rel=1e-12)


def test_peak_gain_matches_grid_oracle(rng):
    from kreisslab.oracles import certification_interval, peak_gain_grid
    for _ in range(3):
        sys = random_stable_statespace(rng, 4, p=2, m=2)
        got = peak_gain(sys).value
        want = peak_gain_grid(sys, n_grid=100000).value
        assert got == pytest.approx(want, rel=1e-5)
    # lightly damped: thousands of sign changes per channel, and the
    # trapezoid oracle is only as close as its own bracket
    sys = random_stable_statespace(rng, 10, p=2, m=2, margin=0.01)
    lo, hi = certification_interval(peak_gain_grid(sys, n_grid=100000))
    assert lo <= peak_gain(sys).value <= hi


def test_peak_gain_grid_jordan_block_matches_closed_form():
    # example8's A is a Jordan block: there is no residue form to sum
    from kreisslab.oracles import peak_gain_grid
    want = peak_gain(EX8).value
    got = peak_gain_grid(EX8, n_grid=100000).value
    assert want == pytest.approx(80.3436, rel=1e-6)
    assert got == pytest.approx(want, rel=1e-6)


def test_peak_gain_resolves_oscillating_jordan_block():
    # a defective A gets the same oscillation-resolving grid as a modal one
    from kreisslab.oracles import peak_gain_grid
    got = peak_gain(JORDAN_OSC).value
    want = peak_gain_grid(JORDAN_OSC, n_grid=400000).value
    assert got == pytest.approx(want, rel=1e-6)
    # int_0^inf t e^{-a t} |sin(w t)| dt -> 2 / (pi a^2) for w >> a
    assert got == pytest.approx(2.0 / (np.pi * 0.1 ** 2), rel=1e-5)


# ---------------------------------------------------------------------------
# Impulse-response kernel
# ---------------------------------------------------------------------------

# scipy's expm(A t) drifts by 1e-11 of the peak on the oscillator once
# 40 t >> 1, so it is the reference there only on [0, 2]; the closed form
# checks the oscillator's whole peak-gain horizon below
@pytest.mark.parametrize("name, t_max", [("modal", 30.0), ("example8", 30.0),
                                         ("jordan_oscillator", 2.0)])
def test_impulse_kernel_matches_expm(rng, name, t_max):
    sys = {"modal": random_stable_statespace(rng, 5, p=2, m=3),
           "example8": EX8, "jordan_oscillator": JORDAN_OSC}[name]
    imp = norms._Impulse(sys)
    assert imp.modal == (name == "modal")
    random_times = np.sort(rng.uniform(0.0, t_max, 40))
    grid = np.linspace(0.0, t_max, 601)
    channel = rng.integers(0, sys.m * sys.p, random_times.size)
    row, col = np.divmod(channel, sys.p)
    for ts, got in ((random_times, imp.matrices(random_times)),
                    (grid, imp.matrices(grid))):
        want = np.array([sys.C @ scipy.linalg.expm(sys.A * t) @ sys.B
                         for t in ts])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # single channels (k = 0) and their derivatives (k = 1)
    entries = imp.channels(random_times, channel)
    for k in (0, 1):
        left = sys.C @ np.linalg.matrix_power(sys.A, k)
        want = np.array([left @ scipy.linalg.expm(sys.A * t) @ sys.B
                         for t in random_times])[np.arange(row.size), row, col]
        assert np.abs(entries[k] - want).max() <= 1e-12 * np.abs(want).max()


def test_impulse_kernel_jordan_oscillator_grid_closed_form():
    # the propagator over peak_gain's horizon and grid: 2,249 anchors
    ts = np.linspace(0.0, 281.0, 87504)
    want = ts * np.exp(-0.1 * ts) * np.sin(40.0 * ts)
    got = norms._Impulse(JORDAN_OSC).matrices(ts)[:, 0, 0]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_impulse_kernel_jordan_oscillator_times_closed_form(rng):
    # times off any grid, over 1,200 radians of the oscillation: e^{At}
    # must not drift as ||A t|| grows
    ts = rng.uniform(0.0, 30.0, 1000)
    decay, wave = np.exp(-0.1 * ts), 40.0 * ts
    want = (ts * decay * np.sin(wave),
            decay * ((1.0 - 0.1 * ts) * np.sin(wave) + wave * np.cos(wave)))
    imp = norms._Impulse(JORDAN_OSC)
    assert not imp.modal
    entries = imp.channels(ts, np.zeros(ts.size, dtype=int))
    assert np.abs(imp.matrices(ts)[:, 0, 0] - want[0]).max() \
        <= 1e-12 * np.abs(want[0]).max()
    for k in (0, 1):
        assert np.abs(entries[k] - want[k]).max() \
            <= 1e-12 * np.abs(want[k]).max()


@pytest.mark.parametrize("name", ["modal", "biproper", "example8"])
def test_sigma_transfer_matches_lapack_svd(rng, name):
    if name == "example8":
        sys = EX8
    else:
        base = random_stable_statespace(rng, 6, p=2, m=3)
        D = rng.standard_normal((3, 2)) if name == "biproper" else None
        sys = StateSpace(base.A, base.B, base.C, D)
    imp = norms._Impulse(sys)
    assert imp.modal == (name != "example8")
    # the oracles' points: the closed right half-plane, axis included
    s = rng.uniform(0.0, 5.0, 60) + 1j * rng.uniform(-30.0, 30.0, 60)
    s[:10] = 1j * s[:10].imag
    want = np.array([np.linalg.svd(sys.transfer(z), compute_uv=False)[0]
                     for z in s])
    assert np.max(np.abs(imp.sigma_transfer(s) - want) / want) <= 1e-12


# ---------------------------------------------------------------------------
# Derivative refinement of the Kreiss and M0 maxima
# ---------------------------------------------------------------------------

def _slope_cases():
    return {"example8": EX8, "light_n11": _lightly_damped_n11(),
            "mimo": random_stable_statespace(np.random.default_rng(14), 4,
                                             p=2, m=3)}


@pytest.mark.parametrize("name", ["example8", "light_n11", "mimo"])
def test_family_slope_matches_central_differences(name):
    sys = _slope_cases()[name]

    def member(eta, tol):
        return hinf_norm(StateSpace(
            norms._family_matrix(sys.A, eta / (2.0 - eta)), sys.B, sys.C),
            tol=tol)

    step = 1e-5
    for eta in (0.3, 0.9, 1.5):
        # from the peak frequency kreiss_norm has, good to about sqrt(tol);
        # d/d eta = d/dc 2 / (2 - eta)^2
        slope, _ = norms._family_slope(
            sys, eta / (2.0 - eta), member(eta, 1e-8).maximizer["omega"])
        slope = slope * 2.0 / (2.0 - eta) ** 2
        central = (member(eta + step, 1e-13).value
                   - member(eta - step, 1e-13).value) / (2.0 * step)
        assert slope == pytest.approx(central, rel=1e-5)


@pytest.mark.parametrize("name", ["example8", "light_n11", "mimo"])
def test_impulse_slope_matches_central_differences(name):
    sys = _slope_cases()[name]

    def peak(t):       # sigma_max(C e^{At} B) from scipy's expm
        return np.linalg.svd(sys.C @ scipy.linalg.expm(sys.A * t) @ sys.B,
                             compute_uv=False)[0]

    ts = np.array([0.2, 0.7, 1.9])
    values, slopes = norms._impulse_slopes(norms._Impulse(sys), ts)
    step = 1e-5
    for t, value, slope in zip(ts, values, slopes):
        assert value == pytest.approx(peak(t), rel=1e-12)
        central = (peak(t + step) - peak(t - step)) / (2.0 * step)
        assert slope == pytest.approx(central, rel=1e-5)


def test_kreiss_maximum_at_eta_zero_takes_no_step(monkeypatch):
    # 1/(s + 1) + 1/(s + 2): CB = 2 and Y = (CAB)(CB) = -6, so the family's
    # value falls from sigma_max(CB) at eta = 0
    sys = StateSpace(np.diag([-1.0, -2.0]), [[1.0], [1.0]], [[1.0, 1.0]])
    assert attainment_check(sys).Y_sym_max < 0
    calls = []
    monkeypatch.setattr(norms, "hinf_norm",
                        lambda *a, **k: calls.append(a) or hinf_norm(*a, **k))
    rep = kreiss_norm(sys)
    assert calls == []
    assert rep.evaluations == norms._ETA_GRID.size
    assert rep.value == cb_lower_bound(sys)
    assert rep.maximizer["eta"] == 0.0
    assert [act["eta"] for act in rep.maximizer["actives"]] == [0.0]


def test_refined_values_reach_their_grid_maxima(monkeypatch):
    # the grid values are what _local_maxima receives
    seen = []
    local_maxima = norms._local_maxima
    monkeypatch.setattr(norms, "_local_maxima",
                        lambda vals: seen.append(vals.max())
                        or local_maxima(vals))
    for sys in random_suite(seed=2024, count=100):
        for norm in (kreiss_norm, transient_peak_m0):
            seen.clear()
            value = norm(sys).value
            assert len(seen) == 1 and value >= seen[0]


def test_local_maxima_matches_the_neighbour_rule(rng):
    # small integers give plateaus: a run of equal values is one point, at
    # its first index, and a maximum when the runs beside it are lower
    for size in (1, 2, 3, 40):
        vals = rng.integers(0, 4, size).astype(float)
        runs = [(i, v) for i, v in enumerate(vals)
                if i == 0 or v != vals[i - 1]]
        want = [i for r, (i, v) in enumerate(runs)
                if (r == 0 or v > runs[r - 1][1])
                and (r == len(runs) - 1 or v > runs[r + 1][1])]
        assert norms._local_maxima(vals).tolist() == want
    # a shoulder is no maximum, a plateau one, a flat grid one at its start
    assert norms._local_maxima(np.array([1.0, 2, 2, 3])).tolist() == [3]
    assert norms._local_maxima(np.array([1.0, 3, 3, 2])).tolist() == [1]
    assert norms._local_maxima(np.zeros(5)).tolist() == [0]


def test_time_chunk_leaves_reports_bitwise_identical(monkeypatch, rng):
    systems = [EX4, EX8, random_stable_statespace(rng, 6, p=2, m=3)]

    def reports():
        return [(peak_gain(s).as_dict(), transient_peak_m0(s).as_dict())
                for s in systems]

    before = reports()
    monkeypatch.setattr(norms, "_TIME_CHUNK", 7)
    assert reports() == before


# ---------------------------------------------------------------------------
# Largest-singular-value kernel
# ---------------------------------------------------------------------------

_SHAPES = [(m, p) for m in range(1, 5) for p in range(1, 5)]


def _random_stack(rng, n, m, p, cplx):
    M = rng.standard_normal((n, m, p))
    return M + 1j * rng.standard_normal((n, m, p)) if cplx else M


def _lapack_sigma(M):
    return np.linalg.svd(M, compute_uv=False)[:, 0]


def _with_singular_values(rng, sv, m, p, cplx):
    """U diag(sv) V^H with Haar-random unitary (orthogonal) U and V."""
    def unitary(n):
        return np.linalg.qr(_random_stack(rng, 1, n, n, cplx)[0])[0]

    S = np.zeros((m, p))
    S[range(len(sv)), range(len(sv))] = sv
    return unitary(m) @ S @ unitary(p).conj().T


def _rel(got, want):
    return float(np.max(np.abs(got - want) / want))


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m,p", _SHAPES)
def test_sigma_max_matches_lapack(m, p, cplx):
    rng = np.random.default_rng(100 * m + 10 * p + cplx)
    chunk = norms._SIGMA_CHUNK
    for n in (1, chunk - 1, chunk + 1, 2000):
        M = _random_stack(rng, n, m, p, cplx)
        assert _rel(norms._sigma_max(M), _lapack_sigma(M)) <= 1e-14


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m,p", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)])
def test_sigma_max_near_ties_and_clusters(m, p, cplx):
    """Constructed singular values: the top two 1e-1 ... 1e-12 apart, all
    of them within 1e-3 ... 1e-13 of each other or equal.  The reference
    is the constructed value: on the 1e-13 clusters LAPACK's own sigma_max
    is up to 1.2e-14 off it."""
    rng = np.random.default_rng(10 * m + p + 100 * cplx)
    k = min(m, p)
    gaps, want = [], []
    for gap in 10.0 ** -np.arange(1, 13):
        for _ in range(20):
            sv = np.sort(rng.uniform(0.1, 1.0 - gap, k))[::-1]
            sv[:2] = (1.0, 1.0 - gap)
            gaps.append(_with_singular_values(rng, sv, m, p, cplx))
            want.append(1.0)
    M = np.array(gaps)
    got = norms._sigma_max(M)
    assert _rel(got, np.array(want)) <= 1e-14
    assert _rel(got, _lapack_sigma(M)) <= 1e-14
    clusters, want = [], []
    for spread in (1e-3, 1e-8, 1e-13, 0.0):
        for _ in range(50):
            sv = np.sort(1.0 + spread * rng.uniform(-1.0, 1.0, k))[::-1]
            clusters.append(_with_singular_values(rng, sv, m, p, cplx))
            want.append(sv[0])
    assert _rel(norms._sigma_max(np.array(clusters)), np.array(want)) <= 1e-14


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("m,p", _SHAPES)
def test_sigma_max_rank_one_and_zero(m, p, cplx):
    rng = np.random.default_rng(7 * m + p + 50 * cplx)
    u = _random_stack(rng, 200, m, 1, cplx)
    v = _random_stack(rng, 200, 1, p, cplx)
    want = np.linalg.norm(u, axis=(1, 2)) * np.linalg.norm(v, axis=(1, 2))
    assert _rel(norms._sigma_max(u @ v), want) <= 1e-14
    zero = np.zeros((3, m, p), dtype=complex if cplx else float)
    assert np.array_equal(norms._sigma_max(zero), np.zeros(3))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("m,p", _SHAPES)
def test_sigma_max_scaled_entries(m, p, scale):
    rng = np.random.default_rng(3 * m + p)
    M = _random_stack(rng, 200, m, p, True)
    for part in (M, M.real):
        got = norms._sigma_max(part * scale) / scale
        assert _rel(got, _lapack_sigma(part)) <= 1e-14


@pytest.mark.parametrize("m,p", _SHAPES)
def test_sigma_max_nonfinite_entry_is_never_finite(m, p):
    rng = np.random.default_rng(m + 10 * p)
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan),
                complex(0.0, -np.inf)):
        M = _random_stack(rng, 5, m, p, True)
        M[2, m - 1, 0] = bad
        got = norms._sigma_max(M)
        assert not np.isfinite(got[2])
        keep = [0, 1, 3, 4]
        assert np.array_equal(got[keep], norms._sigma_max(M[keep]))
    real = _random_stack(rng, 3, m, p, False)
    real[1, 0, p - 1] = np.nan
    assert not np.isfinite(norms._sigma_max(real)[1])


@pytest.mark.parametrize("m,p", [(1, 3), (2, 2), (3, 2), (3, 3), (4, 4)])
def test_sigma_max_entry_independent_of_stack(m, p, monkeypatch):
    """Every value is a function of its own matrix: alone, in any order,
    in any block size, and among near-tie matrices that take the SVD."""
    rng = np.random.default_rng(m * p)
    M = np.concatenate([
        _random_stack(rng, 2000, m, p, True),
        [_with_singular_values(rng, [1.0, 1.0 - 1e-9, 0.5, 0.2][:min(m, p)],
                               m, p, True) for _ in range(40)]])
    whole = norms._sigma_max(M)
    assert np.array_equal(norms._sigma_max(M[::-1]), whole[::-1])
    for i in (0, 1, 999, 2000, 2039):
        assert norms._sigma_max(M[i:i + 1])[0] == whole[i]
    monkeypatch.setattr(norms, "_SIGMA_CHUNK", 7)
    assert np.array_equal(norms._sigma_max(M), whole)


# ---------------------------------------------------------------------------
# Gramian-based norms
# ---------------------------------------------------------------------------

def test_hankel_first_order():
    data = hankel_singular_values(StateSpace([[-1.0]], [[1.0]], [[1.0]]))
    assert data.sigma[0] == pytest.approx(0.5)
    assert np.allclose(data.W_c, 0.5)
    assert np.allclose(data.W_o, 0.5)


def test_hankel_below_hinf(rng):
    for _ in range(10):
        sys = random_stable_statespace(rng, 4, p=2, m=2)
        data = hankel_singular_values(sys)
        assert data.sigma[0] <= hinf_norm(sys).value + 1e-8
        assert np.min(np.linalg.eigvalsh(data.W_c)) >= -1e-10
        assert np.min(np.linalg.eigvalsh(data.W_o)) >= -1e-10


def test_peak_gain_hankel_sum_bound(rng):
    for _ in range(5):
        sys = random_stable_statespace(rng, 4, p=2, m=2)
        data = hankel_singular_values(sys)
        bound = 2.0 * np.sqrt(sys.p) * np.sum(data.sigma)
        assert peak_gain(sys).value <= bound + 1e-8


def test_l2_to_peak_first_order():
    assert l2_to_peak(StateSpace([[-1.0]], [[1.0]], [[1.0]])) == \
        pytest.approx(0.5)


def test_l2_to_peak_quadratic_in_C():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]])
    sys2 = StateSpace([[-1.0]], [[1.0]], [[2.0]])
    assert l2_to_peak(sys2) == pytest.approx(4.0 * l2_to_peak(sys))


def test_l2_to_peak_rejects_direct_transmission():
    with pytest.raises(PreconditionError):
        l2_to_peak(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))


def test_l2_to_peak_matches_sampled_inputs(rng):
    sys = random_stable_statespace(rng, 3, p=2, m=2)
    value = l2_to_peak(sys)
    oracle = l2_to_peak_sampled(sys).value
    assert oracle <= value * (1.0 + 1e-6)
    assert oracle == pytest.approx(value, rel=0.05)


# ---------------------------------------------------------------------------
# Cross-norm sandwiches (quick versions; the 100-trial runs are acceptance)
# ---------------------------------------------------------------------------

def test_kreiss_sandwich_small_sample(rng):
    for _ in range(8):
        n = int(rng.integers(2, 5))
        sys = random_stable_statespace(rng, n, p=2, m=2)
        k = kreiss_norm(sys).value
        m0 = m0_time_grid(sys, n_grid=50000).value
        assert k <= m0 + 1e-6 + 1e-6 * m0
        assert m0 <= np.e * n * k + 1e-6
