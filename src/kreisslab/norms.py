"""System norms assessing transient behavior of stable LTI systems.

Implements the H-infinity norm, the Kreiss system norm through its
parametric H-infinity representation, the worst-case transient peak M0,
entry-wise and sign-pattern Kreiss variants, the peak-gain (L-infinity
induced) norm, Hankel singular values and the L2-to-peak norm, together
with the sigma_max(CB) lower bound and its attainment test.

Every H-infinity norm here comes from one kernel, ``_hinf_lockstep``:
the Hamiltonian bisection with midpoint acceleration of Bruinsma and
Steinbuch (Systems & Control Letters 14(4), 1990), run in lockstep on a
stack of members (A_e, B, C, D).  Gains at all (member, frequency) pairs
come from stacked dense solves and SVDs in chunks of ``_GAIN_CHUNK``
pairs, and the Hamiltonians of the members still iterating from one
stacked eigvals.  The dense solve needs no eigenvector basis, so a
defective A (a Jordan block) is handled like any other.  Each member
takes exactly the steps it would take alone: ``hinf_norm`` is the
one-member call, and the value ``kreiss_norm`` computes at a grid point
is bitwise the ``hinf_norm`` of that family member.

Every time-domain value comes from one impulse-response kernel,
``_Impulse``: C A^k e^{At} B (k = 0, 1) on a whole batch of times, from
the residues of a well-conditioned eigenvector basis in chunks of
``_TIME_CHUNK`` time points, from one expm per time for a defective A,
or, on a uniform grid, from the recurrence X_{q+1} = expm(A dt) X_q.
``transient_peak_m0`` takes its grid values from one call and one stacked
SVD; ``peak_gain`` evaluates every channel on its grid in one call,
polishes all sign changes of all channels in lockstep with safeguarded
Newton steps (the derivative is k = 1) and integrates each channel's
segments from the same residues.  The oracles and
``models.transient_curve`` use the same kernel.  The same class also
evaluates sigma_max(C (sI - A)^{-1} B + D) on a batch of complex points s,
the oracles' frequency grids: from the same residues for a modal A, and
from ``_gains``'s stacked dense solves for a defective one.

Every largest singular value of a stack of matrices comes from one
kernel, ``_sigma_max``.  With k = min(m, p) <= 3 it builds the k x k
Gram matrix entrywise, after scaling each matrix by the power of two
just above its largest entry so that squaring neither overflows nor
underflows, and takes the largest eigenvalue in closed form: the
squared vector norm for k = 1, (a + c)/2 + sqrt(((a - c)/2)^2 + |b|^2) for
k = 2, and Smith's trigonometric formula for k = 3 (O. K. Smith,
"Eigenvalues of a symmetric 3 x 3 matrix", Comm. ACM 4(4), 1961).  The
LAPACK SVD stays for k >= 4 and for the 3 x 3 Gram matrices whose top
two eigenvalues nearly tie (r = q / p^{3/2} within ``_TIE_GAP`` of -1),
where the formula loses accuracy.  Every value depends on its own matrix
alone, never on the rest of the stack, so the Kreiss grid stays bitwise
the H-infinity norm of each family member; for that reason short stacks
take the closed form too, although one LAPACK call is faster below about
thirty 3 x 3 matrices.  ``_gains``, the M0 grid and refinement, the
oracles and ``models.transient_curve`` call it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConsistencyError,
    EnumerationError,
    NumericalError,
    PreconditionError,
)
from .linalg import solve_lyapunov, spectral_abscissa, svd_triple
from .statespace import StateSpace

__all__ = [
    "NormReport",
    "KreissOptions",
    "HankelData",
    "AttainmentCheck",
    "hinf_norm",
    "kreiss_norm",
    "kreiss_matrix",
    "kreiss_family_matrix",
    "family_instability_eta",
    "transient_peak_m0",
    "cb_lower_bound",
    "attainment_check",
    "entrywise_kreiss",
    "sign_pattern_kreiss",
    "peak_gain",
    "hankel_singular_values",
    "l2_to_peak",
]


@dataclass
class NormReport:
    """Norm value plus where it is attained.

    maximizer keys depend on the norm: "omega" (frequency), "t" (time),
    "eta" (resolvent family parameter), "channel", "sign_pattern", "row".
    certification, when present, is an oracle (lower, upper) pair that must
    bracket value.  evaluations counts inner norm/decomposition calls.
    """

    value: float
    maximizer: dict
    certification: tuple | None = None
    evaluations: int = 0

    def as_dict(self) -> dict:
        out = {"value": self.value, "maximizer": self.maximizer,
               "evaluations": self.evaluations}
        if self.certification is not None:
            out["certification"] = {"lower": self.certification[0],
                                    "upper": self.certification[1]}
        return out


@dataclass(frozen=True)
class KreissOptions:
    """Tuning for the outer eta maximization of the Kreiss norm."""

    grid_points: int = 200
    hinf_tol: float = 1e-8
    max_local_maxima: int = 8


@dataclass
class HankelData:
    W_c: np.ndarray
    W_o: np.ndarray
    sigma: np.ndarray


@dataclass
class AttainmentCheck:
    """Necessary condition for K(G) = sigma_max(CB)."""

    sigma_cb: float
    Y_sym_max: float
    necessary_ok: bool


# ---------------------------------------------------------------------------
# Largest singular value of a stack of small matrices
# ---------------------------------------------------------------------------

#: matrices per block of ``_sigma_max``'s closed form
_SIGMA_CHUNK = 2048

#: a 3 x 3 Gram matrix whose r = q / p^{3/2} lies within this of -1 has two
#: nearly equal top eigenvalues; the trigonometric form's rounding error
#: grows like eps / sqrt(1 + r) there, so these matrices take the SVD
_TIE_GAP = 1e-3


def _row_sums(P: np.ndarray) -> np.ndarray:
    """P[:, 0] + P[:, 1] + ..., added in that order into P[:, 0]."""
    acc = P[:, 0]
    for row in range(1, P.shape[1]):
        acc += P[:, row]
    return acc


def _sigma_max(M: np.ndarray) -> np.ndarray:
    """sigma_max of every matrix of a real or complex (N, m, p) stack.

    For min(m, p) <= 3 this is the closed form of the module docstring,
    in blocks of ``_SIGMA_CHUNK`` matrices; every entry is a function of
    its own matrix alone, so no value depends on the stack or the block.
    """
    N, rows, cols = M.shape
    if M.size == 0:
        return np.zeros(N)
    if min(rows, cols) > 3:
        out = np.full(N, np.nan)
        finite = np.isfinite(M).all(axis=(1, 2))
        out[finite] = np.linalg.svd(M[finite], compute_uv=False)[:, 0]
        return out
    if rows > cols:
        M = M.transpose(0, 2, 1)             # sigma_max(M) = sigma_max(M^T)
    out = np.empty(N)
    for lo in range(0, N, _SIGMA_CHUNK):
        out[lo:lo + _SIGMA_CHUNK] = _sigma_max_closed(M[lo:lo + _SIGMA_CHUNK])
    return out


def _sigma_max_closed(M: np.ndarray) -> np.ndarray:
    """_sigma_max of an (N, k, L) stack with k <= L and k <= 3."""
    N, k, L = M.shape
    cplx = np.iscomplexobj(M)
    # W[i, c, l, q]: Re (c = 0) and Im (c = 1) of entry (i, l) of matrix q
    W = np.empty((k, 1 + cplx, L, N))
    W[:, 0] = M.real.transpose(1, 2, 0)
    if cplx:
        W[:, 1] = M.imag.transpose(1, 2, 0)
    # scale by the power of two just above the largest |Re|, |Im|: exact,
    # so the bits are those of the unscaled arithmetic wherever that
    # neither overflows nor underflows (a zero, NaN or inf largest entry
    # leaves the matrix as it is)
    big = np.abs(W).reshape(-1, N).max(axis=0)
    expo = np.maximum(np.frexp(big)[1], -1021)
    W *= np.ldexp(1.0, -expo)
    # Gram entries g_ij = sum_l m_il conj(m_jl): G holds Re g_ii, then
    # Re g_ij for i < j in row order, Gi the matching Im g_ij
    R = W.reshape(k, -1, N)
    G = np.empty((k * (k + 1) // 2, N))
    Gi = np.zeros((k * (k - 1) // 2, N))
    G[:k] = _row_sums(R * R)
    X, Y = W[:, 0], W[:, -1]
    row = 0
    for i in range(k - 1):
        pairs = slice(row, row + k - 1 - i)
        G[k:][pairs] = _row_sums(R[i:i + 1] * R[i + 1:])
        if cplx:
            Q = Y[i:i + 1] * X[i + 1:]
            Q -= X[i:i + 1] * Y[i + 1:]
            Gi[pairs] = _row_sums(Q)
        row += k - 1 - i
    tie = None
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if k == 1:
            lam = G[0]
        elif k == 2:
            h = 0.5 * (G[0] - G[1])
            lam = 0.5 * (G[0] + G[1]) + np.sqrt(h * h + G[2] * G[2]
                                                + Gi[0] * Gi[0])
        else:
            # Smith (1961): the eigenvalues of G are mean + 2 sqrt(p)
            # cos(phi + 2 pi j / 3) with cos(3 phi) = r, j = 0 the largest
            mean = (G[0] + G[1] + G[2]) / 3.0
            a, b, c = G[:3] - mean
            # |g_01|^2, |g_02|^2, |g_12|^2
            dd, ee, ff = G[3:] * G[3:] + Gi * Gi
            p = (a * a + b * b + c * c + 2.0 * (dd + ee + ff)) / 6.0
            (dr, er, fr), (di, ei, fi) = G[3:], Gi
            # det(G - mean I), with Re(g_01 g_12 conj(g_02)) in the middle
            tri = (dr * fr - di * fi) * er + (dr * fi + di * fr) * ei
            det = a * b * c + 2.0 * tri - a * ff - b * ee - c * dd
            root = np.sqrt(p)
            r = det / (2.0 * p * root)
            tie = ~(r > _TIE_GAP - 1.0)           # also p = 0 and NaN
            lam = mean + 2.0 * root * np.cos(np.arccos(np.minimum(r, 1.0))
                                             / 3.0)
        # a zero matrix gives 0, and a NaN or inf entry NaN
        out = np.ldexp(np.sqrt(lam), expo)
    if tie is not None:
        redo = np.flatnonzero(tie & np.isfinite(big))
        if redo.size:
            out[redo] = np.linalg.svd(M[redo], compute_uv=False)[:, 0]
    return out


# ---------------------------------------------------------------------------
# H-infinity norm
# ---------------------------------------------------------------------------

#: (member, frequency) pairs per stacked solve in ``_gains``
_GAIN_CHUNK = 128


def _gains(A: np.ndarray, member: np.ndarray, s: np.ndarray,
           B: np.ndarray, C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """sigma_max(C (s_k I - A[member_k])^{-1} B + D) for every pair k."""
    G = np.empty((s.size, C.shape[0], B.shape[1]), dtype=complex)
    eye = np.eye(A.shape[-1])
    for lo in range(0, s.size, _GAIN_CHUNK):
        sl = slice(lo, lo + _GAIN_CHUNK)
        M = s[sl][:, None, None] * eye - A[member[sl]]
        G[sl] = C @ np.linalg.solve(M, B) + D
    return _sigma_max(G)


def _probe_frequencies(A: np.ndarray) -> np.ndarray:
    """Per member: 0, the pole magnitudes and imaginary parts, and a
    geometric sweep around them; rows sorted, repeats and padding NaN."""
    lam = np.linalg.eigvals(A)
    mags = np.abs(lam)
    imag = np.abs(lam.imag)
    lo = np.maximum(mags.min(axis=1) * 1e-3, 1e-8)
    hi = np.maximum(mags.max(axis=1) * 1e3, 1.0)
    probes = np.concatenate([
        np.zeros((A.shape[0], 1)),
        np.where(imag > 0, imag, np.nan),
        np.where(mags > 0, mags, np.nan),
        np.geomspace(lo, hi, 25, axis=1),
    ], axis=1)
    probes.sort(axis=1)
    repeat = probes[:, 1:] == probes[:, :-1]
    probes[:, 1:][repeat] = np.nan
    return probes


def _write_hamiltonians(H: np.ndarray, A: np.ndarray, gamma: np.ndarray,
                        B: np.ndarray, C: np.ndarray, D: np.ndarray) -> None:
    """H[e] = Hamiltonian of (A[e], B, C, D) at level gamma[e]."""
    n, p, m = A.shape[-1], B.shape[1], C.shape[0]
    R = (gamma * gamma)[:, None, None] * np.eye(p) - D.T @ D
    Rinv = np.linalg.inv(R)
    BR = B @ Rinv
    H11 = A + BR @ D.T @ C
    H[:, :n, :n] = H11
    H[:, :n, n:] = BR @ B.T
    H[:, n:, :n] = -C.T @ (np.eye(m) + D @ Rinv @ D.T) @ C
    H[:, n:, n:] = -H11.transpose(0, 2, 1)


def _hinf_lockstep(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                   D: np.ndarray, tol: float):
    """H-infinity norms of the members (A[e], B, C, D) of a stack, e < E.

    Runs the bisection of hinf_norm on every member in lockstep: each
    round evaluates the gains of all members at once and the Hamiltonians
    of the members still iterating in one stacked eigvals.  Every member
    takes exactly the steps it would take alone, so its value, frequency
    and evaluation count do not depend on the rest of the stack.  Returns
    (values, omegas, evaluations), one entry per member.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    E, n = A.shape[0], A.shape[-1]
    sigma_d = float(np.linalg.svd(D, compute_uv=False)[0]) if D.size else 0.0
    best = np.full(E, sigma_d)
    omega_best = np.full(E, math.inf if sigma_d > 0 else 0.0)
    if n == 0 or not np.any(B) or not np.any(C):
        return best, omega_best, np.ones(E, dtype=int)

    probes = _probe_frequencies(A)
    valid = ~np.isnan(probes)
    evals = valid.sum(axis=1)
    g = np.full(probes.shape, -np.inf)
    g[valid] = _gains(A, np.nonzero(valid)[0], 1j * probes[valid], B, C, D)
    first = g.argmax(axis=1)                  # the first of equal maxima
    g_max = g[np.arange(E), first]
    raised = g_max > best
    best[raised] = g_max[raised]
    omega_best[raised] = probes[raised, first[raised]]

    # members with a zero gain everywhere are done at (0, 0)
    active = np.flatnonzero(best > 0.0)
    step = np.full(E, max(tol / 2.0, 1e-12))
    H = np.empty((active.size, 2 * n, 2 * n))
    for it in range(200):
        if active.size == 0:
            break
        k = active.size
        _write_hamiltonians(H[:k], A[active], best[active]
                            * (1.0 + 2.0 * step[active]), B, C, D)
        w = np.linalg.eigvals(H[:k])
        evals[active] += 1
        scale = 1.0 + np.abs(w).max(axis=1)
        on_axis = (np.abs(w.real) <= 1e-9 * scale[:, None]) & (w.imag > 0)
        # no crossing: the test level bounds the norm and the member is done
        keep = on_axis.any(axis=1)
        active, w, on_axis = active[keep], w[keep], on_axis[keep]
        if active.size == 0:
            break
        crossings = np.sort(np.where(on_axis, w.imag, np.nan), axis=1)
        crossings = crossings[:, :on_axis.sum(axis=1).max()]
        cand = np.concatenate(
            [crossings, 0.5 * (crossings[:, :-1] + crossings[:, 1:])], axis=1)
        valid = ~np.isnan(cand)
        evals[active] += valid.sum(axis=1)
        g = np.full(cand.shape, -np.inf)
        g[valid] = _gains(A, active[np.nonzero(valid)[0]], 1j * cand[valid],
                          B, C, D)
        # candidates in order, each against the level raised so far
        b, om = best[active], omega_best[active]
        improved = np.zeros(active.size, dtype=bool)
        for j in range(cand.shape[1]):
            up = g[:, j] > b * (1.0 + 1e-14)
            b = np.where(up, g[:, j], b)
            om = np.where(up, cand[:, j], om)
            improved |= up
        best[active], omega_best[active] = b, om
        # crossings no longer raise the level: gamma already brackets
        active = active[improved]
        if it >= 30:
            # near-singular peaks: widen the bracket so the loop terminates;
            # the value stays an attained gain at a known frequency
            step[active] *= 2.0
    if active.size:
        raise NumericalError("H-infinity iteration failed to converge")
    return best, omega_best, evals


def hinf_norm(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """H-infinity norm by imaginary-eigenvalue tests on the Hamiltonian.

    Bruinsma-Steinbuch bisection with midpoint acceleration: the gain is
    first maximized over a probe set built from the poles; then, while the
    Hamiltonian at the test level best*(1+tol) still has imaginary-axis
    eigenvalues, the gain is re-evaluated at the crossing frequencies and
    their midpoints.  The returned value is an attained lower bound within
    relative tol of the true norm; the attaining frequency is reported
    (inf when only D attains it).  This is the one-member call of the
    lockstep kernel that kreiss_norm runs over its whole eta grid.

    A gain that moves by one ulp can change the bisection's steps, so the
    value and the evaluation count reproduce only to tol, not bitwise,
    across numpy and LAPACK builds.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    sys.require_stable("H-infinity norm")
    value, omega, evals = _hinf_lockstep(sys.A[None], sys.B, sys.C, sys.D,
                                         tol)
    return NormReport(float(value[0]), {"omega": float(omega[0])},
                      evaluations=int(evals[0]))


# ---------------------------------------------------------------------------
# Kreiss system norm
# ---------------------------------------------------------------------------

#: the eta grid stops here, short of the pole of eta/(2-eta) at 2
_ETA_CAP = 2.0 - 1e-6

#: golden-section refinement stops at eta brackets this narrow
_REFINE_XTOL = 1e-7

#: a refined point is active when it reaches this fraction of the maximum
_ACTIVE_RTOL = 1e-6


def kreiss_family_matrix(A: np.ndarray, eta) -> np.ndarray:
    """Shifted/scaled member (eta/(2-eta)) A - I of the resolvent family;
    an array of etas gives the members stacked along a leading axis."""
    c = np.asarray(eta / (2.0 - eta))
    return c[..., None, None] * A - np.eye(A.shape[0])


def family_instability_eta(A: np.ndarray) -> float:
    """Smallest eta in (0, 2] at which kreiss_family_matrix(A, eta) is not
    Hurwitz: 2/(1 + r) for the spectral abscissa r >= 0 of A, where the
    member's abscissa r eta/(2-eta) - 1 reaches 0; inf for a Hurwitz A."""
    r = spectral_abscissa(A)
    return 2.0 / (1.0 + r) if r >= 0 else math.inf


def _family_hinf(sys: StateSpace, eta: np.ndarray, tol: float):
    """_hinf_lockstep over kreiss_family_matrix(sys.A, eta_e) with the
    B, C, D of sys, for every eta_e in one call.  Each member is Hurwitz
    whenever sys.A is, so none is checked again."""
    return _hinf_lockstep(kreiss_family_matrix(sys.A, eta), sys.B, sys.C,
                          sys.D, tol)


def _golden_max(f, a: float, b: float, xtol: float, max_iter: int = 60):
    """Golden-section maximization; f returns (value, payload)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, p1 = f(x1)
    f2, p2 = f(x2)
    evals = 2
    while b - a > xtol and evals < max_iter:
        if f1 >= f2:
            b = x2
            x2, f2, p2 = x1, f1, p1
            x1 = b - invphi * (b - a)
            f1, p1 = f(x1)
        else:
            a = x1
            x1, f1, p1 = x2, f2, p2
            x2 = a + invphi * (b - a)
            f2, p2 = f(x2)
        evals += 1
    if f1 >= f2:
        return x1, f1, p1, evals
    return x2, f2, p2, evals


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Indices i, ascending, with vals[i] >= each neighbour it has."""
    up = np.ones(vals.size, dtype=bool)
    down = np.ones(vals.size, dtype=bool)
    up[1:] = vals[1:] >= vals[:-1]
    down[:-1] = vals[:-1] >= vals[1:]
    return np.flatnonzero(up & down)


def _strictly_proper_channel(sys: StateSpace, what: str) -> None:
    if np.any(sys.D):
        raise PreconditionError(f"{what} requires a strictly proper system (D = 0)")


def _eta_grid(n_points: int) -> np.ndarray:
    u = np.linspace(0.0, 1.0, n_points)
    eta = 1.0 - np.cos(math.pi * u)
    eta = np.clip(eta, 0.0, _ETA_CAP)
    return np.unique(eta)


def kreiss_norm(sys: StateSpace, opts: KreissOptions | None = None) -> NormReport:
    """Kreiss system norm sup_{Re s > 0} Re(s) sigma_max(C (sI-A)^{-1} B).

    Computed as the maximum over eta in [0, 2) of the H-infinity norm of
    the family member (eta/(2-eta) A - I, B, C), which is Hurwitz whenever
    A is.  One lockstep kernel call evaluates the whole endpoint-clustered
    eta grid, each value equal to hinf_norm of that member; each local
    maximum is then refined by golden section over hinf_norm.  The
    maximizer records the active eta, the inner peak frequency and every
    near-active grid point.
    """
    opts = opts or KreissOptions()
    _strictly_proper_channel(sys, "Kreiss norm")
    sys.require_stable("Kreiss norm")
    sigma_cb = cb_lower_bound(sys)

    def value_at(eta: float):
        fam = StateSpace(kreiss_family_matrix(sys.A, eta), sys.B, sys.C)
        rep = hinf_norm(fam, tol=opts.hinf_tol)
        return rep.value, rep.maximizer["omega"]

    grid = _eta_grid(opts.grid_points)
    vals, omegas, _ = _family_hinf(sys, grid, opts.hinf_tol)
    evals = len(grid)

    order = np.argsort(vals)[::-1]
    local_max = _local_maxima(vals)
    # largest first, ties in grid order
    local_max = local_max[np.argsort(-vals[local_max], kind="stable")]
    local_max = local_max[: opts.max_local_maxima]

    best_val = float(vals[order[0]])
    best_eta = float(grid[order[0]])
    best_omega = float(omegas[order[0]])
    refined = []
    for i in local_max:
        a = grid[i - 1] if i > 0 else grid[0]
        b = grid[i + 1] if i < len(grid) - 1 else grid[-1]
        if b - a <= _REFINE_XTOL:
            refined.append((float(grid[i]), float(vals[i]), float(omegas[i])))
            continue
        eta_r, val_r, om_r, used = _golden_max(value_at, float(a), float(b),
                                               xtol=_REFINE_XTOL)
        evals += used
        refined.append((eta_r, val_r, om_r))
        if val_r > best_val:
            best_val, best_eta, best_omega = val_r, eta_r, om_r

    actives = [
        {"eta": e, "value": v, "omega": om}
        for e, v, om in sorted(
            set(refined) | {(float(grid[i]), float(vals[i]), float(omegas[i]))
                            for i in local_max},
            key=lambda t: t[0])
        if v >= (1.0 - _ACTIVE_RTOL) * best_val
    ]

    tol_floor = 10 * opts.hinf_tol * max(1.0, sigma_cb) + 1e-12
    if best_val < sigma_cb - tol_floor:
        raise ConsistencyError(
            f"Kreiss value {best_val:.6g} fell below the sigma_max(CB) lower "
            f"bound {sigma_cb:.6g}")
    best_val = max(best_val, sigma_cb)
    return NormReport(best_val,
                      {"eta": best_eta, "omega": best_omega, "actives": actives},
                      evaluations=evals)


def kreiss_matrix(A, opts: KreissOptions | None = None) -> NormReport:
    """Kreiss constant of a matrix: the system norm with B = C = I."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    eye = np.eye(A.shape[0])
    return kreiss_norm(StateSpace(A, eye, eye), opts)


# ---------------------------------------------------------------------------
# Impulse response
# ---------------------------------------------------------------------------

#: time points per chunk of a batched impulse-response evaluation
_TIME_CHUNK = 1024

#: an eigenvector basis V with cond(V) below this gives the residue form
_MODAL_COND = 1e8


def _mode_sum(E: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Sum over the leading (mode) axis of Re(E R), added in mode order."""
    return np.add.accumulate(E.real * R.real - E.imag * R.imag, axis=0)[-1]


class _Impulse:
    """The impulse response C A^k e^{At} B, k = 0 or 1, on batches of times,
    and the transfer gains sigma_max(G(s)) on batches of complex points.

    When cond(V) of the eigenvector basis V of A is below ``_MODAL_COND``,
    every entry is the residue sum of Re(r_l lam_l^k e^{lam_l t}) over the
    eigenvalues lam_l, formed in chunks of ``_TIME_CHUNK`` time points and
    added in mode order, so a value does not depend on the chunking, and
    G(s) = sum_l r_l / (s - lam_l) + D.  For a defective A each time takes
    one expm, a uniform grid takes the recurrence X_{q+1} = expm(A dt) X_q
    from X_0 = B, and G(s) takes ``_gains``'s dense solves.  Channel c is
    the entry (c // p, c % p).
    """

    def __init__(self, sys: StateSpace):
        self.sys = sys
        w, V = np.linalg.eig(sys.A)
        self.modal = bool(np.linalg.cond(V) < _MODAL_COND)
        if self.modal:
            self.lam = w
            left = sys.C @ V                           # m x n
            right = np.linalg.solve(V, sys.B)          # n x p
            # res[l, i p + j] = left[i, l] right[l, j]
            res = (left.T[:, :, None] * right[:, None, :]).reshape(sys.n, -1)
            self.res = (res, res * w[:, None])
        self.output = (sys.C, sys.C @ sys.A)            # C A^k, k = 0, 1

    def matrices(self, t: np.ndarray, k: int = 0) -> np.ndarray:
        """C A^k e^{A t_q} B for every time t_q: (T, m, p)."""
        sys = self.sys
        out = np.empty((t.size, sys.m, sys.p))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            if self.modal:
                E = np.exp(np.outer(self.lam, t[sl]))[:, None, :]
                out[sl] = _mode_sum(E, self.res[k][:, :, None]).T.reshape(
                    -1, sys.m, sys.p)
            else:
                out[sl] = (self.output[k] @ scipy.linalg.expm(
                    sys.A * t[sl, None, None])) @ sys.B
        return out

    def sigma_transfer(self, s: np.ndarray) -> np.ndarray:
        """sigma_max(C (s_q I - A)^{-1} B + D) for every complex point s_q."""
        sys = self.sys
        if not self.modal:
            return _gains(sys.A[None], np.zeros(s.size, dtype=int), s,
                          sys.B, sys.C, sys.D)
        G = (1.0 / (s[:, None] - self.lam)) @ self.res[0]
        G = G.reshape(-1, sys.m, sys.p)
        G += sys.D                # in place: a copy slows the oracle grids
        return _sigma_max(G)

    def grid(self, ts: np.ndarray, k: int = 0) -> np.ndarray:
        """matrices(ts, k) on a uniform grid ts of at least two points
        from 0."""
        if self.modal:
            return self.matrices(ts, k)
        sys = self.sys
        step = scipy.linalg.expm(sys.A * (ts[1] - ts[0]))
        out = np.empty((ts.size, sys.m, sys.p))
        X = np.empty((min(_TIME_CHUNK, ts.size), sys.n, sys.p))
        for lo in range(0, ts.size, _TIME_CHUNK):
            size = min(_TIME_CHUNK, ts.size - lo)
            # X[-1] still holds the last state of the previous chunk
            X[0] = sys.B if lo == 0 else step @ X[-1]
            for q in range(1, size):
                X[q] = step @ X[q - 1]
            out[lo:lo + size] = self.output[k] @ X[:size]
        return out

    def channels(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Channel c_q of k = 0 (row 0) and k = 1 (row 1) at every t_q."""
        out = np.empty((2, t.size))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            if self.modal:
                E = np.exp(np.outer(self.lam, t[sl]))
                for k in (0, 1):
                    out[k, sl] = _mode_sum(E, self.res[k][:, c[sl]])
            else:
                X = scipy.linalg.expm(self.sys.A * t[sl, None, None])
                i, j = np.divmod(c[sl], self.sys.p)
                for k in (0, 1):
                    M = (self.output[k] @ X) @ self.sys.B
                    out[k, sl] = M[np.arange(i.size), i, j]
        return out

    def integrals(self, knots: np.ndarray, c: int) -> np.ndarray:
        """Integrals of channel c over [knots[q], knots[q + 1]] and, last,
        over [knots[-1], inf), from the antiderivative C A^{-1} e^{At} B."""
        sys = self.sys
        if self.modal:
            out = np.empty(knots.size)
            w = (self.res[0][:, c] / self.lam)[:, None]
            for lo in range(0, knots.size, _TIME_CHUNK):
                P = np.exp(np.outer(self.lam, knots[lo:lo + _TIME_CHUNK + 1]))
                if lo + _TIME_CHUNK >= knots.size:
                    # e^{lam t} vanishes as t -> inf
                    P = np.hstack([P, np.zeros((sys.n, 1))])
                out[lo:lo + _TIME_CHUNK] = _mode_sum(P[:, 1:] - P[:, :-1], w)
            return out
        i, j = divmod(c, sys.p)
        left = sys.C[i] @ np.linalg.inv(sys.A)
        F = np.zeros(knots.size + 1)                  # F(inf) = 0
        for lo in range(0, knots.size, _TIME_CHUNK):
            sl = slice(lo, min(lo + _TIME_CHUNK, knots.size))
            F[sl] = left @ scipy.linalg.expm(sys.A * knots[sl, None, None]) \
                @ sys.B[:, j]
        return np.diff(F)


# ---------------------------------------------------------------------------
# Worst-case transient peak M0
# ---------------------------------------------------------------------------

def _decay_envelope(A: np.ndarray):
    """(env, alpha, nu): env(t) = e^{alpha t} sum_{k<n} (nu t)^k / k! bounds
    ||e^{At}||_2 (Van Loan, SIAM J. Numer. Anal. 14(6), 1977), alpha the
    spectral abscissa, nu the 2-norm of the complex Schur form's strictly
    upper part."""
    alpha = spectral_abscissa(A)
    T, _ = scipy.linalg.schur(A.astype(complex), output="complex")
    N = np.triu(T, 1)
    nu = float(np.linalg.norm(N, 2))
    n = A.shape[0]

    def env(t: float) -> float:
        s, term = 1.0, 1.0
        for k in range(1, n):
            term *= nu * t / k
            s += term
        return math.exp(alpha * t) * s

    return env, alpha, nu


def _tail_horizon(A: np.ndarray, tail_eps: float) -> float:
    env, alpha, _ = _decay_envelope(A)
    if alpha >= 0:
        raise PreconditionError("horizon needs a Hurwitz matrix")
    t = 1.0 / abs(alpha)
    for _ in range(200):
        if env(t) <= tail_eps:
            break
        t *= 1.6
    return t


#: time samples of each half of the M0 grid, one geometric, one uniform
_M0_HALF_SAMPLES = 600

#: the M0 horizon is where the decay envelope falls below this
_M0_TAIL_EPS = 1e-12

#: M0 golden-section refinement stops at this fraction of the horizon
_M0_XTOL_REL = 1e-9


def transient_peak_m0(sys: StateSpace) -> NormReport:
    """Worst-case transient peak M0(G) = sup_{t>=0} sigma_max(C e^{At} B).

    The horizon is chosen from a Schur-based decay envelope so that the
    remaining tail cannot exceed the sampled maximum; grid maxima are then
    sharpened by golden section.  Ties report the smallest t.
    """
    _strictly_proper_channel(sys, "transient peak")
    sys.require_stable("transient peak")
    imp = _Impulse(sys)
    horizon = _tail_horizon(sys.A, _M0_TAIL_EPS)
    grid = np.unique(np.concatenate([
        [0.0],
        np.geomspace(horizon * 1e-6, horizon, _M0_HALF_SAMPLES),
        np.linspace(0.0, horizon, _M0_HALF_SAMPLES),
    ]))
    vals = _sigma_max(imp.matrices(grid))
    evals = len(grid)

    def at(t: float):
        return float(_sigma_max(imp.matrices(np.array([t])))[0]), None

    best_val = float(vals.max())
    best_t = float(grid[int(np.argmax(vals))])
    for i in _local_maxima(vals):
        if vals[i] < 0.5 * best_val:
            continue
        a = grid[max(i - 1, 0)]
        b = grid[min(i + 1, len(grid) - 1)]
        if b - a <= 0:
            continue
        t_r, v_r, _, used = _golden_max(at, float(a), float(b),
                                        xtol=_M0_XTOL_REL * horizon)
        evals += used
        if v_r > best_val * (1 + 1e-12) or (
                abs(v_r - best_val) <= 1e-9 * best_val and t_r < best_t):
            best_val, best_t = v_r, t_r
    return NormReport(float(best_val), {"t": float(best_t)}, evaluations=evals)


# ---------------------------------------------------------------------------
# Lower bound and attainment
# ---------------------------------------------------------------------------

def cb_lower_bound(sys: StateSpace) -> float:
    """sigma_max(CB), a lower bound for both the Kreiss norm and M0."""
    CB = sys.C @ sys.B
    return float(np.linalg.svd(CB, compute_uv=False)[0]) if CB.size else 0.0


def attainment_check(sys: StateSpace, tol: float | None = None) -> AttainmentCheck:
    """Necessary condition lambda_max(Y + Y^T) <= 0 for K(G) = sigma_max(CB).

    Y = Q^T (C A B B^T C^T) Q with Q an orthonormal basis of the maximal
    eigenspace of C B B^T C^T.
    """
    CB = sys.C @ sys.B
    triple = svd_triple(CB)
    if triple.sigma_max <= 0.0:
        raise PreconditionError("attainment check requires sigma_max(CB) > 0")
    Q = triple.Q
    Y = Q.T @ (sys.C @ sys.A @ sys.B) @ CB.T @ Q
    y_sym_max = float(np.max(scipy.linalg.eigvalsh(Y + Y.T)))
    if tol is None:
        tol = 1e-8 * (1.0 + abs(y_sym_max))
    return AttainmentCheck(sigma_cb=float(triple.sigma_max),
                           Y_sym_max=y_sym_max,
                           necessary_ok=bool(y_sym_max <= tol))


# ---------------------------------------------------------------------------
# Entry-wise and sign-pattern variants
# ---------------------------------------------------------------------------

def entrywise_kreiss(sys: StateSpace,
                     opts: KreissOptions | None = None) -> NormReport:
    """max over scalar channels (i, k) of the SISO Kreiss norm of (A, b_k, c_i)."""
    _strictly_proper_channel(sys, "entry-wise Kreiss norm")
    sys.require_stable("entry-wise Kreiss norm")
    best = None
    evals = 0
    for i in range(sys.m):
        for k in range(sys.p):
            sub = StateSpace(sys.A, sys.B[:, k:k + 1], sys.C[i:i + 1, :])
            rep = kreiss_norm(sub, opts)
            evals += rep.evaluations
            if best is None or rep.value > best[0]:
                best = (rep.value, (i, k), rep.maximizer)
    value, channel, inner = best
    maximizer = {"channel": list(channel), "eta": inner["eta"],
                 "omega": inner["omega"]}
    return NormReport(float(value), maximizer, evaluations=evals)


def sign_pattern_kreiss(sys: StateSpace,
                        opts: KreissOptions | None = None,
                        max_inputs: int = 16) -> NormReport:
    """max over sign vectors r in {-1,1}^p of the Kreiss norm of (A, B r, C)."""
    _strictly_proper_channel(sys, "sign-pattern Kreiss norm")
    sys.require_stable("sign-pattern Kreiss norm")
    if sys.p > max_inputs:
        raise EnumerationError(
            f"{sys.p} inputs exceed the enumeration bound {max_inputs}")
    best = None
    evals = 0
    # sigma_max is sign-symmetric, so fix the first sign to +1
    for tail in itertools.product((1.0, -1.0), repeat=sys.p - 1):
        r = np.array((1.0,) + tail)
        sub = StateSpace(sys.A, (sys.B @ r).reshape(-1, 1), sys.C)
        rep = kreiss_norm(sub, opts)
        evals += rep.evaluations
        if best is None or rep.value > best[0]:
            best = (rep.value, r, rep.maximizer)
    value, r, inner = best
    maximizer = {"sign_pattern": [int(v) for v in r], "eta": inner["eta"],
                 "omega": inner["omega"]}
    return NormReport(float(value), maximizer, evaluations=evals)


# ---------------------------------------------------------------------------
# Peak-gain norm
# ---------------------------------------------------------------------------

def _polish_roots(imp: _Impulse, lo: np.ndarray, hi: np.ndarray,
                  g_lo: np.ndarray, g_hi: np.ndarray, c: np.ndarray,
                  xtol: float) -> np.ndarray:
    """Roots of the impulse-response channels c_q in the brackets
    (lo_q, hi_q) across which they change sign, all polished in lockstep:
    Newton steps from the secant point, with the derivative from k = 1,
    and a bisection wherever a step would leave the shrinking bracket."""
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    active = np.arange(x.size)
    for _ in range(100):
        if active.size == 0:
            break
        xa, la, ha = x[active], lo[active], hi[active]
        g, dg = imp.channels(xa, c[active])
        right = (g < 0.0) == (g_lo[active] < 0.0)   # the root lies above xa
        la = np.where(right, xa, la)
        ha = np.where(right, ha, xa)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - g / dg
        xn = np.where((xn > la) & (xn < ha), xn, 0.5 * (la + ha))
        done = (g == 0.0) | (np.abs(xn - xa) <= xtol) | (ha - la <= xtol)
        x[active] = np.where(g == 0.0, xa, xn)
        lo[active], hi[active] = la, ha
        active = active[~done]
    return x


def peak_gain(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """Peak-to-peak norm: max_i sum_j ||g_ij||_L1 + row sums of |D|.

    Impulse-response entries are integrated exactly between their sign
    changes (resolvent antiderivative) with an exponential tail bound
    choosing the horizon.  One kernel call evaluates every channel on an
    oscillation-resolving grid; the sign changes of all channels are then
    polished together to 1e-14 horizon, and each channel's segments and
    tail are integrated in one call.
    """
    sys.require_stable("peak-gain norm")
    if sys.n == 0:
        value = float(np.abs(sys.D).sum(axis=1).max())
        return NormReport(value, {"row": 0}, evaluations=1)
    imp = _Impulse(sys)
    horizon = _tail_horizon(sys.A, min(tol, 1e-10))
    lam = np.linalg.eigvals(sys.A)
    omega_max = float(np.abs(lam.imag).max())
    n_grid = int(max(2000, min(200000, 16 * math.ceil(horizon * omega_max / math.pi)
                               if omega_max > 0 else 0)))
    grid = np.linspace(0.0, horizon, n_grid)
    vals = imp.grid(grid).reshape(n_grid, -1)        # one column per channel
    live = np.abs(vals).max(axis=0) > 0.0           # the rest integrate to 0
    a, b = vals[:-1], vals[1:]
    on_grid_q, on_grid_c = np.nonzero((a == 0.0) & live)
    q, c = np.nonzero(a * b < 0.0)
    roots = _polish_roots(imp, grid[q], grid[q + 1], a[q, c], b[q, c], c,
                          1e-14 * horizon)
    totals = np.zeros(vals.shape[1])
    for ch in np.flatnonzero(live):
        knots = np.unique(np.concatenate([
            [0.0], grid[on_grid_q[on_grid_c == ch]], roots[c == ch],
            [horizon]]))
        totals[ch] = np.abs(imp.integrals(knots, ch)).sum()
    row_sums = totals.reshape(sys.m, sys.p).sum(axis=1) \
        + np.abs(sys.D).sum(axis=1)
    row = int(np.argmax(row_sums))
    return NormReport(float(row_sums[row]), {"row": row},
                      evaluations=vals.size)


# ---------------------------------------------------------------------------
# Gramian-based norms
# ---------------------------------------------------------------------------

def hankel_singular_values(sys: StateSpace) -> HankelData:
    """Hankel singular values: sqrt of eigenvalues of W_c W_o."""
    sys.require_stable("Hankel singular values")
    W_c = solve_lyapunov(sys.A, sys.B @ sys.B.T)
    W_o = solve_lyapunov(sys.A.T, sys.C.T @ sys.C)
    ev = np.linalg.eigvals(W_c @ W_o).real
    ev = np.clip(ev, 0.0, None)
    sigma = np.sqrt(np.sort(ev)[::-1])
    return HankelData(W_c=W_c, W_o=W_o, sigma=sigma)


def l2_to_peak(sys: StateSpace) -> float:
    """lambda_max(C Q C^T) with A Q + Q A^T + B B^T = 0 (finite-energy to peak)."""
    if np.any(sys.D):
        raise PreconditionError("L2-to-peak norm is defined for D = 0 only")
    sys.require_stable("L2-to-peak norm")
    Q = solve_lyapunov(sys.A, sys.B @ sys.B.T)
    return float(np.max(scipy.linalg.eigvalsh(sys.C @ Q @ sys.C.T)))
