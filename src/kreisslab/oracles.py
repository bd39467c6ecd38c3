"""Brute-force reference evaluations for a-posteriori certification.

Every optimizing norm in this toolkit is a heuristic maximization; these
oracles recompute the same quantities by dense enumeration (time grids,
frequency grids, right-half-plane rectangles, sampled inputs) so results
can be checked independently of the search path.  Each oracle returns
(value, uncertainty), where the uncertainty is a grid-gap estimate, three
times the change from a half-resolution pass.  It is not a proved bound: a
peak narrower than the grid spacing can lie outside value + uncertainty.

The Kreiss rectangle skips the rows that cannot change its result.  It
starts from the limit sigma_max(CB), and one stacked Hamiltonian level
test (the test behind ``norms.hinf_norm``) shows which rows stay below
that floor on the whole line Re s = x; the report is the full grid's,
bit for bit.  The test uses only the system, never a norm's result, so
the oracle stays independent of the search path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OversizeError, PreconditionError
from .norms import (_Impulse, _on_imaginary_axis, _sigma_max,  # shared kernels
                    _tail_horizon, _write_hamiltonians, cb_lower_bound)
from .statespace import StateSpace

__all__ = [
    "OracleReport",
    "m0_time_grid",
    "hinf_frequency_grid",
    "kreiss_halfplane_grid",
    "peak_gain_grid",
    "l2_to_peak_sampled",
    "certification_interval",
]

#: systems above this order are refused (dense oracles only)
MAX_ORACLE_ORDER = 12
#: output directions l2_to_peak_sampled draws, and the seed of its draws
_L2PEAK_SAMPLES = 24
_L2PEAK_SEED = 0


@dataclass
class OracleReport:
    value: float
    uncertainty: float
    argmax: dict
    grid: dict


def _check_size(sys: StateSpace):
    if sys.n > MAX_ORACLE_ORDER:
        raise OversizeError(
            f"oracle supports n <= {MAX_ORACLE_ORDER}, got {sys.n}")


def _check_grid(n_grid: int):
    if n_grid < 2:
        raise PreconditionError(
            f"oracle grid needs at least 2 points, got {n_grid}")


def _grid_gap(value: float, coarse: float) -> float:
    """Uncertainty of a grid maximum: three times its change from the
    half-resolution pass, plus a relative floor of 1e-9."""
    return 3.0 * abs(value - coarse) + 1e-9 * max(1.0, value)


def m0_time_grid(sys: StateSpace, n_grid: int = 200000) -> OracleReport:
    """Dense time-grid maximum of sigma_max(C e^{At} B)."""
    _check_size(sys)
    _check_grid(n_grid)
    sys.require_stable("M0 oracle")
    imp = _Impulse(sys)
    horizon = _tail_horizon(imp.sys.A, 1e-12, imp.lam)
    ts = np.linspace(0.0, horizon, n_grid)
    vals = _sigma_max(imp.matrices(ts))
    coarse = float(np.max(vals[::2]))
    value = float(np.max(vals))
    t_star = float(ts[int(np.argmax(vals))])
    return OracleReport(value=value, uncertainty=_grid_gap(value, coarse),
                        argmax={"t": t_star},
                        grid={"n": n_grid, "horizon": horizon})


def _frequency_span(sys: StateSpace):
    lam = np.linalg.eigvals(sys.A)
    mags = np.abs(lam)
    lo = max(float(mags.min()) * 1e-4, 1e-9)
    hi = max(float(mags.max()) * 1e4, 10.0)
    return lo, hi


def hinf_frequency_grid(sys: StateSpace, n_grid: int = 100000) -> OracleReport:
    """Dense log-frequency grid maximum of sigma_max(G(j omega))."""
    _check_size(sys)
    _check_grid(n_grid)
    sys.require_stable("H-infinity oracle")
    lo, hi = _frequency_span(sys)
    omegas = np.concatenate([[0.0], np.geomspace(lo, hi, n_grid - 1)])
    vals = _Impulse(sys).sigma_transfer(1j * omegas)
    value = float(np.max(vals))
    w_star = float(omegas[int(np.argmax(vals))])
    coarse = float(np.max(vals[::2]))
    sigma_d = float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size \
        else 0.0
    if sigma_d > value:
        value, w_star = sigma_d, math.inf
    return OracleReport(value=value, uncertainty=_grid_gap(value, coarse),
                        argmax={"omega": w_star},
                        grid={"n": n_grid, "span": (lo, hi)})


def _rows_above(sys: StateSpace, xs: np.ndarray, level: float) -> np.ndarray:
    """Per x: whether the Hamiltonian of (A/x - I, B, C) at level has an
    eigenvalue on the imaginary axis, i.e. whether the member's gain can
    reach level; one stacked eigvals for all x."""
    n = sys.n
    H = np.empty((xs.size, 2 * n, 2 * n))
    _write_hamiltonians(H, sys.A / xs[:, None, None] - np.eye(n),
                        np.full(xs.size, level), sys.B, sys.C, sys.D)
    return _on_imaginary_axis(np.linalg.eigvals(H)).any(axis=1)


def kreiss_halfplane_grid(sys: StateSpace, n_x: int = 400,
                          n_omega: int = 2000) -> OracleReport:
    """Dense rectangle in {Re s > 0} for sup Re(s) sigma_max(C(sI-A)^{-1}B).

    The rectangle plus the sigma_max(CB) limit as Re(s) -> inf estimate
    the supremum: large Re(s) tends to that limit and large frequencies
    decay like the resolvent, but nothing proves that the supremum lies
    inside the rectangle or between its grid points.

    Row x samples x sigma_max(G(x + j omega)), which is the gain of the
    Hurwitz member (A/x - I, B, C) at frequency omega/x.  The search starts
    at the floor sigma_max(CB), so a row changes neither the value, the
    argmax nor the coarse maximum unless some gain in it exceeds the
    floor.  Before enumerating, one stacked eigvals of every member's
    Hamiltonian at the level floor (1 - 1e-9) finds the rows whose
    member has no eigenvalue on the imaginary axis (frequency 0
    included): each has an H-infinity norm below that level, so all of
    its grid gains lie below the floor, and it is skipped.  Every other
    row is enumerated as in the full grid, so the report is the full
    grid's.  With a zero floor (CB = 0) no row is skipped.
    """
    _check_size(sys)
    sys.require_stable("Kreiss oracle")
    if np.any(sys.D):
        raise PreconditionError("Kreiss oracle needs a strictly proper system")
    lam = np.linalg.eigvals(sys.A)
    alpha = float(np.max(lam.real))
    x_lo = max(1e-6, abs(alpha) * 1e-4)
    x_hi = 1e4 * max(1.0, float(np.abs(lam).max()))
    xs = np.geomspace(x_lo, x_hi, n_x)
    w_hi = 1e2 * max(1.0, float(np.abs(lam.imag).max()) + 1.0)
    omegas = np.concatenate([[0.0], np.geomspace(w_hi * 1e-6, w_hi,
                                                 n_omega - 1)])
    channel = _Impulse(sys)
    value = cb_lower_bound(sys)
    arg = {"x": math.inf, "omega": 0.0}
    coarse = value
    rows = (_rows_above(sys, xs, value * (1.0 - 1e-9)) if value > 0
            else np.ones(n_x, dtype=bool))
    for i, x in enumerate(xs):
        if not rows[i]:
            continue
        vals = x * channel.sigma_transfer(x + 1j * omegas)
        k = int(np.argmax(vals))
        if vals[k] > value:
            value = float(vals[k])
            arg = {"x": float(x), "omega": float(omegas[k])}
        if i % 2 == 0:
            coarse = max(coarse, float(np.max(vals[::2])))
    return OracleReport(value=float(value),
                        uncertainty=_grid_gap(value, coarse), argmax=arg,
                        grid={"n_x": n_x, "n_omega": n_omega})


def peak_gain_grid(sys: StateSpace, n_grid: int = 200000) -> OracleReport:
    """Trapezoid integration of |impulse response| entries on a dense grid."""
    _check_size(sys)
    _check_grid(n_grid)
    sys.require_stable("peak-gain oracle")
    imp = _Impulse(sys)
    horizon = _tail_horizon(imp.sys.A, 1e-12, imp.lam)
    ts = np.linspace(0.0, horizon, n_grid)
    g = np.abs(imp.matrices(ts))                               # N x m x p
    rows = np.trapezoid(g, ts, axis=0).sum(axis=1)
    rows_c = np.trapezoid(g[::2], ts[::2], axis=0).sum(axis=1)
    rows += np.abs(sys.D).sum(axis=1)
    rows_c += np.abs(sys.D).sum(axis=1)
    value = float(rows.max())
    return OracleReport(value=value,
                        uncertainty=_grid_gap(value, float(rows_c.max())),
                        argmax={"row": int(np.argmax(rows))},
                        grid={"n": n_grid, "horizon": horizon})


def l2_to_peak_sampled(sys: StateSpace) -> OracleReport:
    """Sampled-input estimate of max over unit-energy w of peak |z(t)|^2.

    Inputs are matched filters B^T e^{A^T (T - t)} C^T v for random output
    directions v (the worst input family), each normalized to unit energy
    and applied over a long window; the peak response energy approaches
    lambda_max(C Q C^T) from below.  It draws _L2PEAK_SAMPLES directions
    from a generator seeded with _L2PEAK_SEED.
    """
    _check_size(sys)
    sys.require_stable("L2-to-peak oracle")
    if np.any(sys.D):
        raise PreconditionError("L2-to-peak oracle needs D = 0")
    rng = np.random.default_rng(_L2PEAK_SEED)
    alpha = abs(float(np.max(np.linalg.eigvals(sys.A).real)))
    T = 40.0 / alpha
    n_t = 4000
    ts = np.linspace(0.0, T, n_t)
    # H[k] = C e^{A (T - t_k)} B: the matched filter is u(t_k) = H[k]^T v
    H = _Impulse(sys).matrices(ts)[::-1]
    wgt = np.full(n_t, ts[1] - ts[0])
    wgt[[0, -1]] /= 2.0
    best = 0.0
    for _ in range(_L2PEAK_SAMPLES):
        v = rng.standard_normal(sys.m)
        v /= np.linalg.norm(v)
        u = v @ H                                   # n_t x p
        energy = np.trapezoid(np.sum(u * u, axis=1), ts)
        if energy <= 0:
            continue
        u /= math.sqrt(energy)
        # z(T) = int_0^T C e^{A (T - t)} B u(t) dt
        z = np.einsum("k,kij,kj->i", wgt, H, u)
        best = max(best, float(z @ z))
    return OracleReport(value=best, uncertainty=0.05 * best + 1e-12,
                        argmax={"horizon": T},
                        grid={"n_samples": _L2PEAK_SAMPLES, "n_t": n_t})


def certification_interval(report: OracleReport):
    """(value - uncertainty, value + uncertainty), the lower end >= 0."""
    return (max(report.value - report.uncertainty, 0.0),
            report.value + report.uncertainty)
