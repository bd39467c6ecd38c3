"""The Kreiss half-plane grid oracle skips rows without changing its report.

``kreiss_halfplane_grid`` enumerates only the rows whose member
(A/x - I, B, C) can reach the floor sigma_max(CB).  ``_full_grid`` below is
the enumeration of every row; the oracle must return its report bitwise.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from kreisslab import oracles
from kreisslab.cli import _structure_for
from kreisslab.loop import assemble_closed_loop
from kreisslab.norms import _Impulse
from kreisslab.problemio import load_problem
from kreisslab.statespace import StateSpace
from kreisslab.synth import SynthesisSpec, minimize_kreiss

from conftest import random_stable_statespace

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"

#: the grid of ``analyze --certify --norm kreiss`` at its default --grid
CLI_GRID = {"n_x": 141, "n_omega": 707}


def _full_grid(sys, n_x=400, n_omega=2000):
    """kreiss_halfplane_grid with every row enumerated."""
    lam = np.linalg.eigvals(sys.A)
    alpha = float(np.max(lam.real))
    x_lo = max(1e-6, abs(alpha) * 1e-4)
    x_hi = 1e4 * max(1.0, float(np.abs(lam).max()))
    xs = np.geomspace(x_lo, x_hi, n_x)
    w_hi = 1e2 * max(1.0, float(np.abs(lam.imag).max()) + 1.0)
    omegas = np.concatenate([[0.0], np.geomspace(w_hi * 1e-6, w_hi,
                                                 n_omega - 1)])
    channel = _Impulse(sys)
    value = float(np.linalg.svd(sys.C @ sys.B, compute_uv=False)[0])
    arg = {"x": math.inf, "omega": 0.0}
    coarse = value
    for i, x in enumerate(xs):
        vals = x * channel.sigma_transfer(x + 1j * omegas)
        k = int(np.argmax(vals))
        if vals[k] > value:
            value = float(vals[k])
            arg = {"x": float(x), "omega": float(omegas[k])}
        if i % 2 == 0:
            coarse = max(coarse, float(np.max(vals[::2])))
    unc = 3.0 * abs(value - coarse) + 1e-9 * max(1.0, value)
    return oracles.OracleReport(value=float(value), uncertainty=unc,
                                argmax=arg,
                                grid={"n_x": n_x, "n_omega": n_omega})


def _assert_full_grid(sys, **grid):
    got = oracles.kreiss_halfplane_grid(sys, **grid)
    want = _full_grid(sys, **grid)
    assert got.value == want.value
    assert got.uncertainty == want.uncertainty
    assert got.argmax == want.argmax
    assert got.grid == want.grid
    return got


def _rows_enumerated(sys, n_x=400):
    """How many rows the oracle enumerates."""
    lam = np.linalg.eigvals(sys.A)
    xs = np.geomspace(max(1e-6, abs(float(np.max(lam.real))) * 1e-4),
                      1e4 * max(1.0, float(np.abs(lam).max())), n_x)
    floor = float(np.linalg.svd(sys.C @ sys.B, compute_uv=False)[0])
    return int(oracles._rows_above(sys, xs, floor * (1.0 - 1e-9)).sum())


#: (problem, structure, seed): the synthesize benchmark's templates; the
#: Brunton plant drops its decay and roll-off constraints, which no static
#: gain meets, so that a loop comes out
SYNTH_TEMPLATES = [
    ("lorenz_chaos_synth.json", "static", 11),
    ("lorenz_fp_static_x.json", "statefb", 12),
    ("brunton2_synth.json", "static", 13),
    ("lorenz_fp_static_x.json", "static", 14),
]


def _synthesized_loop(fname, structure, seed):
    problem = load_problem(PROBLEMS / fname)
    plant, controller_structure = _structure_for(problem, structure)
    eta, rolloff = problem.eta, problem.rolloff_weight
    if fname.startswith("brunton"):
        eta, rolloff = 0.0, None
    spec = SynthesisSpec(plant=plant, eta_rate=eta, rolloff_weight=rolloff,
                         restarts=1, seed=seed)
    res = minimize_kreiss(spec, controller_structure)
    return assemble_closed_loop(plant, res.controller).channel()


@pytest.mark.parametrize("template", SYNTH_TEMPLATES,
                         ids=[f"{f[:-5]}-{s}" for f, s, _ in SYNTH_TEMPLATES])
def test_kreiss_grid_equals_full_grid_on_synthesized_loops(template):
    loop = _synthesized_loop(*template)
    _assert_full_grid(loop)
    assert _rows_enumerated(loop) < 400


def test_kreiss_grid_equals_full_grid_on_random_suite():
    # criterion 5's generator: n = 2..6, 1-3 inputs and outputs
    rng = np.random.default_rng(2024)
    skipped = 0
    for k in range(30):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sys_ = random_stable_statespace(rng, n, p=p, m=m,
                                        oscillatory=bool(k % 2))
        _assert_full_grid(sys_, **CLI_GRID)
        skipped += _rows_enumerated(sys_, n_x=CLI_GRID["n_x"]) \
            < CLI_GRID["n_x"]
    assert skipped > 0


@pytest.mark.parametrize("name", [
    "example3", "example3_eps", "example4", "example4_matrix", "example8",
    "contraction"])
def test_kreiss_grid_equals_full_grid_on_bundled_systems(name):
    # example8's A is defective: its gains come from dense solves
    sys_ = load_problem(PROBLEMS / f"{name}.json").require_system()
    _assert_full_grid(sys_, **CLI_GRID)


def test_kreiss_grid_skips_nothing_when_cb_is_zero():
    sys_ = StateSpace(np.array([[-1.0, 1.0], [0.0, -2.0]]),
                      np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
    assert not np.any(sys_.C @ sys_.B)
    rep = _assert_full_grid(sys_, n_x=100, n_omega=500)
    assert rep.value > 0.0 and math.isfinite(rep.argmax["x"])


def test_kreiss_grid_skips_every_row_of_a_first_order_lag():
    # 1/(s + 1): x |G(x + j omega)| = x / |x + 1 + j omega| < 1 = CB
    sys_ = StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                      np.array([[1.0]]))
    assert _rows_enumerated(sys_) == 0
    rep = _assert_full_grid(sys_)
    assert rep.value == 1.0
    assert rep.argmax == {"x": math.inf, "omega": 0.0}


def test_kreiss_grid_enumerates_rows_peaking_at_zero_frequency():
    # on the real axis x G(x) = CB + CAB/x + CA^2B/x^2 + ... with CB = 1,
    # CAB = 1e-3 and CA^2B = -3.004: the maximum, about 1 + 8.3e-8, sits
    # at omega = 0 near x = 6000, just above the floor
    sys_ = StateSpace(np.diag([-1.0, -3.0]), np.array([[1.0], [1.0]]),
                      np.array([[1.5005, -0.5005]]))
    rep = _assert_full_grid(sys_)
    assert rep.argmax["omega"] == 0.0
    assert 1.0 + 1e-8 < rep.value < 1.0 + 1e-7
    assert 0 < _rows_enumerated(sys_) < 400
