"""System norms assessing transient behavior of stable LTI systems.

Implements the H-infinity norm, the Kreiss system norm through its
parametric H-infinity representation, the worst-case transient peak M0,
entry-wise and sign-pattern Kreiss variants, the peak-gain (L-infinity
induced) norm, Hankel singular values and the L2-to-peak norm, together
with the sigma_max(CB) lower bound and its attainment test.

Every H-infinity norm here comes from one kernel, ``_hinf_lockstep``:
the Hamiltonian bisection with midpoint acceleration of Bruinsma and
Steinbuch (Systems & Control Letters 14(4), 1990), run in lockstep on a
stack of members (A_e, B, C, D), the Hamiltonians of the members still
iterating from one stacked eigvals.  ``hinf_norm``, the one-member call,
takes its pole probes from eigvals and its gains from stacked dense
solves (``_gains``), which need no eigenvector basis.  The Kreiss family
c A - I shares A's eigenvectors: ``_family_hinf`` takes every member's
poles c lam - 1 and gains (``_residue_gains``) from one eigendecomposition
of A where cond(V) eps <= 1e-3 tol, and ``_gains`` otherwise.  Each member
takes exactly the steps it would take alone, so a Kreiss grid value does
not depend on the rest of the grid and lies within tol of ``hinf_norm``
of that member (bitwise on the dense path).

The Kreiss norm does not depend on the time unit: C (sI - A / rho)^{-1} B
= rho G(rho s), so K(A / rho, B, C) = K(A, B, C).  ``kreiss_norm``
searches one grid of members c A - I (``_time_scales``): windows c = c' /
rho of the 48 points c' of ``_C_GRID``, bitwise c' (A / rho) - I for rho a
power of two, the first nearest the spectral radius and for a stiff A more,
each at most 2^10 lower, down to its slow modes.  It refines in x =
log1p(rho c), rho the first window's.  Each point carries its c; its eta =
2 c / (1 + c) rounds to 2 for c beyond 2^53.

The Kreiss norm and M0 are maxima over one parameter, c and t.  Each
reads only the points of ``_refine_maxima``, one per grid maximum within
half of the largest, each refined with exact derivatives: a safeguarded
secant on the slope inside its grid bracket, for M0 in x = log1p(t /
t_1), t_1 the first nonzero time, which finds an early peak to a fraction
of its time.  Every refined value is attained: ``hinf_norm`` of a family
member, or sigma_max(C e^{At} B) at a time.  One polish per Kreiss
point, ``_peak_point``, serves both the Kreiss slope and the synthesis
subgradient: Newton steps on d sigma / d omega move a bisection's
frequency to the peak (Benner and Mitchell, SIAM J. Sci. Comput. 40(5),
2018), and the resolvent products there give the derivatives by c and by
A, which ``kreiss_norm`` hands out for its actives.  The Kreiss slope is
the envelope derivative at the member's polished peak; at c = 0 its sign
is that of ``attainment_check``'s Y_sym_max, so a maximum there with
Y_sym_max < 0 takes no step.  The M0 slope is Re(q^T C A e^{At} B p), and
all local maxima of one system step in lockstep, with one impulse
evaluation per round.

Every time-domain value comes from one impulse-response kernel,
``_Impulse``: C A^k e^{At} B (k = 0, 1) on a whole batch of times, from
the residues of a well-conditioned eigenvector basis or, for a system that
fails that test even once balanced (``linalg.balance``), from one
propagator that never squares through a transient hump (Moler and Van
Loan, SIAM Rev. 45(1), 2003).  The M0 horizon comes from Van Loan's decay
envelope of the balanced A with Henrici's departure from normality
(``_decay_envelope``).  The peak gain's is at most that envelope's, and
where its grid lies above the floor ``_propagator_horizon`` tightens it
from computed norms of e^{A h j} and the semigroup property.
``transient_peak_m0`` takes its grid values from one call and one stacked
SVD; ``peak_gain`` evaluates every channel on its grid in one call,
polishes all sign changes of all
channels in lockstep with safeguarded Newton steps (the derivative is
k = 1) and integrates each channel's segments from the antiderivative
C A^{-1} e^{At} B.  The oracles and ``models.transient_curve`` use the
same kernel, whose sigma_max(C (sI - A)^{-1} B + D) on batches of complex
points gives the oracles' frequency grids.

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
alone, never on the rest of the stack, so no Kreiss grid value depends
on the rest of the grid; for that reason short stacks take the closed
form too, although one LAPACK call is faster below about thirty 3 x 3
matrices.  ``_gains``, ``_residue_gains``, the M0 grid and refinement,
the oracles and ``models.transient_curve`` call it.  The refinement's slopes
need the top singular vectors too, and take them from LAPACK.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    ConsistencyError,
    EnumerationError,
    NumericalError,
    PreconditionError,
)
from .linalg import (_THETA13, balance, expm, solve_lyapunov,
                     spectral_abscissa, svd_triple)
from .statespace import StateSpace

__all__ = [
    "NormReport",
    "HankelData",
    "AttainmentCheck",
    "hinf_norm",
    "kreiss_norm",
    "kreiss_matrix",
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
    evaluations counts the steps of the norm's own search: gains plus
    Hamiltonian tests (hinf_norm); eta points whose H-infinity norm it took,
    grid plus derivative refinement, not the work inside those norms nor
    the slopes at points already taken (kreiss_norm, summed over subsystems
    by its variants); time samples, grid plus derivative refinement
    (transient_peak_m0); impulse-response channel samples, grid plus root
    polish (peak_gain).  gradients
    (kreiss_norm's, left out of as_dict) holds each active's dh/dA.
    """

    value: float
    maximizer: dict
    evaluations: int = 0
    gradients: list = field(default_factory=list, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {"value": self.value, "maximizer": self.maximizer,
                "evaluations": self.evaluations}


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


def _residue_gains(s: np.ndarray, poles: np.ndarray, res: np.ndarray,
                   D: np.ndarray) -> np.ndarray:
    """sigma_max(sum_l res[l] / (s_k - poles[k, l]) + D) for every point
    s_k, res[l] the residue of mode l flattened row by row; poles holds one
    row for all points or one row per point."""
    G = ((1.0 / (s[:, None] - poles)) @ res).reshape(-1, *D.shape)
    G += D                # in place: a copy slows the oracle grids
    return _sigma_max(G)


def _probe_frequencies(poles: np.ndarray) -> np.ndarray:
    """Per row of an (E, n) stack of poles, Bruinsma and Steinbuch's test
    frequencies: 0, the pole magnitudes and nonzero imaginary parts; rows
    sorted, repeats and padding NaN.  No sweep is needed: _hinf_lockstep's
    level test bounds the value from any positive start."""
    mags = np.abs(poles)
    imag = np.abs(poles.imag)
    probes = np.concatenate([
        np.zeros((poles.shape[0], 1)),
        np.where(imag > 0, imag, np.nan),
        np.where(mags > 0, mags, np.nan),
    ], axis=1)
    probes.sort(axis=1)
    repeat = probes[:, 1:] == probes[:, :-1]
    probes[:, 1:][repeat] = np.nan
    return probes


def _zero_start_probes(poles: np.ndarray) -> np.ndarray:
    """n + 1 geometric frequencies per row of an (E, n) stack of Hurwitz
    poles, 1e-3 times its smallest to 1e3 times its largest magnitude: the
    entries of C adj(sI - A) B have degree below n, so with D = 0, the only
    case with a start of 0, a gain that vanishes at all of them vanishes
    everywhere."""
    mags = np.abs(poles)
    return np.geomspace(mags.min(axis=1) * 1e-3, mags.max(axis=1) * 1e3,
                        poles.shape[-1] + 1, axis=1)


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


def _on_imaginary_axis(w: np.ndarray) -> np.ndarray:
    """Which eigenvalues of each row of an (E, k) stack lie on the
    imaginary axis: |Re w| within 1e-9 of 1 + the row's largest |w|."""
    scale = 1.0 + np.abs(w).max(axis=1)
    return np.abs(w.real) <= 1e-9 * scale[:, None]


def _hinf_lockstep(A: np.ndarray, B: np.ndarray, C: np.ndarray,
                   D: np.ndarray, tol: float, modal=None):
    """H-infinity norms of the members (A[e], B, C, D) of a stack, e < E.

    Runs the bisection of hinf_norm on every member in lockstep: each
    round evaluates the gains of all members at once and the Hamiltonians
    of the members still iterating in one stacked eigvals.  The pole
    probes and gains come from eigvals and ``_gains``'s dense solves, or,
    given modal = (poles, res) with poles[e] the eigenvalues of A[e] and
    res the residues all members share, from ``_residue_gains``.  Every
    member takes exactly the steps it would take alone, so its value,
    frequency and evaluation count do not depend on the rest of the stack.
    Returns (values, omegas, evaluations), one entry per member, and
    raises NumericalError on a gain that is not finite."""
    if not tol > 0:
        raise ArgumentError("tol", "must be positive")
    E, n = A.shape[0], A.shape[-1]
    sigma_d = float(np.linalg.svd(D, compute_uv=False)[0]) if D.size else 0.0
    best = np.full(E, sigma_d)
    omega_best = np.full(E, math.inf if sigma_d > 0 else 0.0)
    if n == 0 or not np.any(B) or not np.any(C):
        return best, omega_best, np.ones(E, dtype=int)

    poles, res = (np.linalg.eigvals(A), None) if modal is None else modal

    def gains(member, s):
        g = (_gains(A, member, s, B, C, D) if res is None
             else _residue_gains(s, poles[member], res, D))
        if not np.isfinite(g).all():
            raise NumericalError("H-infinity norm: a gain is not finite")
        return g

    # every probe of a member can sit on a transmission zero, a start of 0
    # that no level test raises: such members take a second probe set
    evals = np.zeros(E, dtype=int)
    members = np.arange(E)
    for probe_set in (_probe_frequencies, _zero_start_probes):
        probes = probe_set(poles[members])
        valid = ~np.isnan(probes)
        evals[members] += valid.sum(axis=1)
        g = np.full(probes.shape, -np.inf)
        g[valid] = gains(members[np.nonzero(valid)[0]], 1j * probes[valid])
        first = g.argmax(axis=1)              # the first of equal maxima
        g_max = g[np.arange(members.size), first]
        raised = g_max > best[members]
        best[members[raised]] = g_max[raised]
        omega_best[members[raised]] = probes[raised, first[raised]]
        members = np.flatnonzero(best == 0.0)
        if members.size == 0:
            break

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
        on_axis = _on_imaginary_axis(w) & (w.imag > 0)
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
        g[valid] = gains(active[np.nonzero(valid)[0]], 1j * cand[valid])
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
    lockstep kernel that kreiss_norm runs over its whole c grid, with
    dense gains.

    A gain that moves by one ulp can change the bisection's steps, so the
    value and the evaluation count reproduce only to tol, not bitwise,
    across numpy and LAPACK builds.  Raises ArgumentError unless tol is
    positive, and NumericalError when a gain is not finite.
    """
    sys.require_stable("H-infinity norm")
    value, omega, evals = _hinf_lockstep(sys.A[None], sys.B, sys.C, sys.D,
                                         tol)
    return NormReport(float(value[0]), {"omega": float(omega[0])},
                      evaluations=int(evals[0]))


# ---------------------------------------------------------------------------
# Kreiss system norm
# ---------------------------------------------------------------------------

#: the endpoint-clustered eta grid behind every Kreiss window, short of
#: the pole at 2 (np.unique here would import numpy.ma with the package)
_ETA_GRID = np.minimum(1.0 - np.cos(math.pi * np.linspace(0.0, 1.0, 48)),
                       2.0 - 1e-6)

#: c' = eta'/(2-eta') of every grid point
_C_GRID = _ETA_GRID / (2.0 - _ETA_GRID)

#: each further window of a stiff A lies at most this factor below the last
_WINDOW_STEP = 2.0 ** -10

#: derivative refinement stops at brackets this narrow in x = log1p(rho c)
_REFINE_XTOL = 1e-7

#: a refined point is active when it reaches this fraction of the maximum
_ACTIVE_RTOL = 1e-6

#: rounds of _refine_maxima; a bracket shrinks to its xtol in far fewer
_REFINE_MAX_ROUNDS = 100

#: Newton steps of _peak_point that polish a peak frequency
_POLISH_STEPS = 8


def _family_matrix(A: np.ndarray, c) -> np.ndarray:
    """The member c A - I; an array of c stacks the members."""
    return np.asarray(c)[..., None, None] * A - np.eye(A.shape[0])


def _family_hinf(sys: StateSpace, c: np.ndarray, tol: float, imp=None):
    """_hinf_lockstep over the members c_e A - I (Hurwitz whenever A =
    sys.A is) with the B, C, D of sys, all c_e in one call.  They share A's
    eigenvectors V, poles c lam_l - 1 and residues r_l (imp, the
    ``_Impulse`` of sys), which give every member's probes and gains where
    their rounding, cond(V) eps, is at most 1e-3 tol; any other A (a
    Jordan block, a nearly defective A) takes the dense path."""
    imp, modal = imp or _Impulse(sys), None
    if imp.modal and imp.cond * _EPS <= 1e-3 * tol:
        modal = (c[:, None] * imp.lam - 1.0, imp.res[0])
    return _hinf_lockstep(_family_matrix(sys.A, c), sys.B, sys.C, sys.D,
                          tol, modal)


def _refine_maxima(probe, grid_slopes, grid, vals, payloads, xtol: float,
                   still=None):
    """Local maxima of a function h of one variable, refined in lockstep.

    Starts at each maximum of ``_local_maxima(vals)`` within half of the
    largest: x = grid[i], with value vals[i], payload payloads[i] and
    slope grid_slopes([i]), or 0 for i = still, which takes no step.  Its
    far end is the grid neighbour the slope points to, whose value is no
    higher, with slope grid_slopes([index]); a boundary maximum whose
    slope points off the grid has none.  Each round takes one trial point
    per unfinished maximum between its near end (whose slope points into
    the bracket) and its far end: the secant root of h' when the slopes of
    the two ends point at each other, the midpoint otherwise, and never
    closer than xtol / 2 to an end.  A trial whose slope points onward
    becomes the near end when the ends' slopes point at each other or when
    it is at least as high as the near end; otherwise it becomes the far
    end.  Either way the bracket keeps a local maximum inside, and a
    maximum is done when its bracket is narrower than xtol or a trial's
    slope is 0.  An end kept twice in a row halves the other end's slope
    (the Illinois rule), so the secant closes both sides.  probe(t)
    returns (values, slopes, payloads) at the points t.  Returns the best
    point of each start's bracket, the start where nothing is higher, as
    (x, value, payload) in ascending x, and the number of probed points.
    """
    peaks = _local_maxima(vals)
    peaks = peaks[vals[peaks] >= 0.5 * vals.max()]
    moves = peaks != still
    d = np.zeros(peaks.size)
    d[moves] = grid_slopes(peaks[moves])
    j = peaks + np.sign(d).astype(int)
    has_far = (d != 0.0) & (j >= 0) & (j < grid.size)
    far = np.where(has_far, grid[np.clip(j, 0, grid.size - 1)], np.nan)
    d_far = np.zeros(peaks.size)
    d_far[has_far] = grid_slopes(j[has_far])
    x, fx, px = grid[peaks], vals[peaks], payloads[peaks]
    near, f_near, d_near = x.copy(), fx.copy(), d.copy()
    best_x, best_f, best_p = x.copy(), fx.copy(), px.copy()
    moved = np.zeros(x.size)      # +1 near, -1 far: the end replaced last
    active = np.flatnonzero(np.abs(far - near) > xtol)
    evals = 0
    for _ in range(_REFINE_MAX_ROUNDS):
        if active.size == 0:
            break
        a = active
        width = far[a] - near[a]
        facing = d_near[a] * d_far[a] < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(facing, d_near[a] / (d_near[a] - d_far[a]), 0.5)
        margin = 0.5 * xtol / np.abs(width)
        t = near[a] + np.clip(frac, margin, 1.0 - margin) * width
        f, d, p = probe(t)
        evals += t.size
        up = f > best_f[a]
        best_x[a[up]], best_f[a[up]], best_p[a[up]] = t[up], f[up], p[up]
        onward = (d * d_near[a] > 0.0) & (facing | (f >= f_near[a]))
        step = np.where(onward, 1.0, -1.0)
        # Illinois: the end that stayed twice has a stale slope
        stale = facing & (moved[a] == step)
        d_far[a[stale & onward]] *= 0.5
        d_near[a[stale & ~onward]] *= 0.5
        moved[a] = step
        n, r = a[onward], a[~onward]
        near[n], f_near[n], d_near[n] = t[onward], f[onward], d[onward]
        far[r], d_far[r] = t[~onward], d[~onward]
        active = a[(np.abs(far[a] - near[a]) > xtol) & (d != 0.0)]
    return best_x, best_f, best_p, evals


def _sigma_derivatives(G: np.ndarray, G1: np.ndarray, G2: np.ndarray):
    """(sigma, sigma', sigma'', u, v) of sigma = sigma_max(G(x)) at a point
    where G(x) = G, G'(x) = G1 and G''(x) = G2, with (u, v) its top
    singular pair.  sigma is the top eigenvalue of the Hermitian dilation
    [[0, G], [G^H, 0]], whose other eigenvectors are [u_k; +-v_k] / sqrt(2)
    for +-sigma_k, k >= 2, [u_1; -v_1] / sqrt(2) for -sigma_1, and [u_k; 0]
    or [0; v_k] for the zeros beyond min(m, p); sigma'' is the second-order
    perturbation sum over them.  Valid where sigma_1 is simple and
    positive."""
    U, s, Vh = np.linalg.svd(G)
    u, v = U[:, 0], Vh[0].conj()
    a = U.conj().T @ G1 @ Vh.conj().T           # a[k, l] = u_k^H G1 v_l
    r = s.size - 1
    col, row = a[1:, 0], a[0, 1:].conj()
    # the -sigma_1 and zero eigenvalues, then the pairs +-sigma_k
    far = (a[0, 0].imag ** 2 + np.sum(np.abs(col[r:]) ** 2)
           + np.sum(np.abs(row[r:]) ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        pairs = (np.abs(col[:r] + row[:r]) ** 2 / (s[0] - s[1:])
                 + np.abs(col[:r] - row[:r]) ** 2 / (s[0] + s[1:]))
        d2 = (u.conj() @ G2 @ v).real + far / s[0] + 0.5 * np.sum(pairs)
    return s[0], a[0, 0].real, d2, u, v


def _peak_point(A: np.ndarray, B: np.ndarray, C: np.ndarray, D: np.ndarray,
                omega: float):
    """(omega, sigma, u, v, X, Y) at the peak of sigma_max(G(j omega)),
    G(s) = C (sI - A)^{-1} B + D, near the given omega.

    With R = (j omega I - A)^{-1}, d/d omega of C R B is -j C R^2 B and its
    second derivative -2 C R^3 B.  Newton steps on d sigma / d omega move
    omega to the peak, which a bisection fixes only to about sqrt(tol).
    Returns the polished omega, sigma there with its top singular pair
    (u, v), X = R B and Y = C R: the derivative of sigma by any matrix that
    moves A is then Re(u^H Y dA X v)."""
    eye = np.eye(A.shape[0])
    for it in range(_POLISH_STEPS):
        M = 1j * omega * eye - A
        X = np.linalg.solve(M, B)                        # R B
        Y = np.linalg.solve(M.T, C.T).T                  # C R
        sigma, d1, d2, u, v = _sigma_derivatives(
            C @ X + D, -1j * (Y @ X), -2.0 * (Y @ np.linalg.solve(M, X)))
        step = -d1 / d2 if d2 < 0.0 else 0.0
        if it == _POLISH_STEPS - 1 \
                or not abs(step) > 1e-13 * (1.0 + abs(omega)):
            break
        omega += step
    return float(omega), float(sigma), u, v, X, Y


def _family_slope(sys: StateSpace, c: float, omega: float):
    """(h'(c), dh/dA) of the H-infinity norm h(c) of the member c A - I,
    whose peak hinf_norm put near omega: at the peak that ``_peak_point``
    polishes, h'(c) = Re(u^H C R A R B v) and dh/dA = c Re(X v u^H Y)^T."""
    _, _, u, v, X, Y = _peak_point(_family_matrix(sys.A, c), sys.B, sys.C,
                                   sys.D, omega)
    return (float((u.conj() @ (Y @ sys.A @ X) @ v).real),
            np.real(c * np.outer(X @ v, u.conj() @ Y)).T)


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the local maxima of vals: a run of equal
    values counts once, at its first point, and is a maximum when the
    runs beside it are lower."""
    first = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
    run = np.concatenate([[-np.inf], vals[first], [-np.inf]])
    return first[(run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])]


def _strictly_proper_channel(sys: StateSpace, what: str) -> None:
    if np.any(sys.D):
        raise PreconditionError(f"{what} requires a strictly proper system (D = 0)")


def _time_scales(lam: np.ndarray):
    """(c, rho): the members c of kreiss_norm's windows for a Hurwitz A with
    eigenvalues lam, ascending without repeats, and the first window's rho
    (1 for n = 0).  Window rho takes c' / rho for c' in ``_C_GRID[start:]``
    and reaches Re s = rho / c' at its last inner point.  The first, rho
    the power of two nearest the spectral radius, takes all of ``_C_GRID``;
    each next lies at most ``_WINDOW_STEP`` below the last, until one
    reaches |alpha| / n (a Jordan block of order k at -a peaks at Re s = a /
    (k - 1)), and starts at the last point inside the last one's reach."""
    if lam.size == 0:
        return _C_GRID, 1.0
    low = -float(lam.real.max()) / lam.size * _C_GRID[-2]
    last = 2.0 ** math.floor(math.log2(low))
    first = above = 2.0 ** round(math.log2(np.abs(lam).max()))
    cs = [_C_GRID / first]
    while above > low:
        rho = max(above * _WINDOW_STEP, last)
        start = int(np.searchsorted(_C_GRID, _C_GRID[-2] * rho / above,
                                    side="right")) - 1
        cs.append(_C_GRID[start:] / rho)
        above = rho
    c = np.sort(np.concatenate(cs))
    return c[np.diff(c, prepend=-1.0) > 0.0], first


def kreiss_norm(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """Kreiss system norm sup_{Re s > 0} Re(s) sigma_max(C (sI-A)^{-1} B).

    The maximum over c >= 0 of the H-infinity norm h(c) of the member
    (c A - I, B, C), Hurwitz whenever A is, at frequency omega: s = (1 + j
    omega) / c.  One lockstep call (``_family_hinf``) evaluates the grid of
    ``_time_scales``, each value within tol of hinf_norm of that member,
    sigma_max(CB) exactly at c = 0.  One ``_refine_maxima`` call refines
    the grid's local maxima within half of the largest in x = log1p(rho
    c), rho the first window's, with values from hinf_norm and slopes
    dh/dx = h'(c) (c + 1 / rho) from ``_family_slope``; c = 0 takes no step
    when Y_sym_max < 0 (see ``attainment_check``).  The maximizer holds
    the eta and omega of the best refined point, the least c of equal
    values, and as "actives" every refined point within ``_ACTIVE_RTOL``
    of it, one per peak, ascending in c, and gradients their dh/dA from the
    polish of their slopes.  Raises ArgumentError unless tol is positive,
    and NumericalError when a grid value is not finite."""
    _strictly_proper_channel(sys, "Kreiss norm")
    sys.require_stable("Kreiss norm")
    sigma_cb = cb_lower_bound(sys)
    imp = _Impulse(sys)
    c, rho = _time_scales(imp.lam)
    grads = {}        # dh/dA at every (c, omega) whose slope was taken

    def slopes(at):
        """dh/dx = h'(c) (c + 1 / rho) at the rows (c, omega) of at."""
        out = []
        for ci, w in at.tolist():
            slope, grads[ci, w] = _family_slope(sys, ci, w)
            out.append(slope * (ci + 1.0 / rho))
        return np.array(out)

    def probe(xs):
        cs = np.expm1(xs) / rho
        reps = [hinf_norm(StateSpace(_family_matrix(sys.A, ci), sys.B, sys.C),
                          tol=tol) for ci in cs]
        at = np.column_stack([cs, [r.maximizer["omega"] for r in reps]])
        return np.array([r.value for r in reps]), slopes(at), at

    vals, omegas, _ = _family_hinf(sys, c, tol, imp)
    # the member at c = 0 is CB/(s + 1), whose norm is sigma_max(CB); its
    # grid value has the bisection's tol and the residues' rounding
    if vals[0] < sigma_cb - 10 * tol * max(1.0, sigma_cb) - 1e-12:
        raise ConsistencyError(
            f"Kreiss value {vals[0]:.6g} at eta = 0 fell below the "
            f"sigma_max(CB) lower bound {sigma_cb:.6g}")
    vals[0] = sigma_cb
    if not np.isfinite(vals).all():
        raise NumericalError("Kreiss norm: a grid value is not finite")
    at_grid = np.column_stack([c, omegas])
    # c = 0 may take no step, and its member -I does not depend on A
    grads[0.0, float(omegas[0])] = np.zeros_like(sys.A)
    # the member at c = 0 takes no step when CB/(s + 1) falls off there
    falls = sigma_cb > 0 and attainment_check(sys).Y_sym_max < 0
    _, val_r, at_r, used = _refine_maxima(
        probe, lambda idx: slopes(at_grid[idx]), np.log1p(rho * c), vals,
        at_grid, _REFINE_XTOL, 0 if falls else None)
    actives = [{"eta": 2.0 * cp / (1.0 + cp), "c": cp, "value": v,
                "omega": om}
               for (cp, om), v in zip(at_r.tolist(), val_r.tolist())
               if v >= (1.0 - _ACTIVE_RTOL) * val_r.max()]
    best = max(actives, key=lambda act: act["value"])    # least c of ties
    maximizer = {"eta": best["eta"], "omega": best["omega"],
                 "actives": actives}
    return NormReport(best["value"], maximizer, evaluations=c.size + used,
                      gradients=[grads[a["c"], a["omega"]] for a in actives])


def kreiss_matrix(A, tol: float = 1e-8) -> NormReport:
    """Kreiss constant of a matrix: the system norm with B = C = I."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    eye = np.eye(A.shape[0])
    return kreiss_norm(StateSpace(A, eye, eye), tol)


# ---------------------------------------------------------------------------
# Impulse response
# ---------------------------------------------------------------------------

#: time points per chunk of a batched impulse-response evaluation
_TIME_CHUNK = 1024

#: an eigenvector basis V with cond(V) below this gives the residue form
_MODAL_COND = 1e8

#: the most anchors ``_Impulse._response`` takes to its first call's last time
_MAX_ANCHORS = 2 ** 16


def _mode_sum(E: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Sum over the leading (mode) axis of Re(E R), added in mode order."""
    P = E.real * R.real
    P -= E.imag * R.imag
    acc = P[0]
    for row in P[1:]:
        acc += row
    return acc


class _Impulse:
    """The impulse response C e^{At} B and its channels' derivatives on
    batches of times, and sigma_max(G(s)) on batches of complex points.

    When cond(V) of the eigenvector basis V of A is below ``_MODAL_COND``,
    every entry is the residue sum of Re(r_l lam_l^k e^{lam_l t}) over the
    eigenvalues lam_l, formed in chunks of ``_TIME_CHUNK`` time points and
    added in mode order, so a value does not depend on the chunking, and
    G(s) = sum_l r_l / (s - lam_l) + D.  Otherwise sys, which the horizons
    read too, is (A, B, C) balanced once (``linalg.balance``) and tested
    again; if still not modal, every time comes from one propagator,
    ``_response``, and G(s) from ``_gains``'s dense solves.  Channel c is
    the entry (c // p, c % p)."""

    def __init__(self, sys: StateSpace):
        for attempt in range(2):
            w, V = np.linalg.eig(sys.A)
            # an empty basis (n = 0) is perfectly conditioned
            self.cond = float(np.linalg.cond(V)) if sys.n else 1.0
            self.modal = self.cond < _MODAL_COND
            if self.modal or attempt:
                break
            d = balance(sys.A)
            sys = StateSpace(sys.A / d[:, None] * d, sys.B / d[:, None],
                             sys.C * d, sys.D)
        self.sys, self.lam = sys, w
        if self.modal:
            left = sys.C @ V                           # m x n
            right = np.linalg.solve(V, sys.B)          # n x p
            # res[l, i p + j] = left[i, l] right[l, j]
            res = (left.T[:, :, None] * right[:, None, :]).reshape(
                sys.n, sys.m * sys.p)
            self.res = (res, res * w[:, None])
        self.output = (sys.C, sys.C @ sys.A)            # C A^k, k = 0, 1
        self._anchors = None

    def _response(self, t: np.ndarray, left: np.ndarray) -> np.ndarray:
        """left e^{A t_q} B for every time t_q >= 0, (T, rows, p): the
        anchor X_k = e^{A k h} B, k = floor(t_q / h), extended by X_{k+1} =
        e^{A h} X_k as times need it, times the step e^{A (t_q - k h)} from
        one stacked ``linalg.expm`` call per chunk.  The first call fixes h,
        the largest power of two with ||A h||_1 <= theta_13 so that no expm
        squares, coarsened if its last time would need more anchors than
        ``_MAX_ANCHORS``."""
        A, B = self.sys.A, self.sys.B
        if self._anchors is None:
            h = 2.0 ** math.floor(math.log2(_THETA13 / np.linalg.norm(A, 1)))
            if t.max(initial=0.0) > _MAX_ANCHORS * h:
                h = 2.0 ** math.ceil(math.log2(t.max() / _MAX_ANCHORS))
            self._h, self._leap, self._anchors = h, expm(A * h), B[None]
        k = (t // self._h).astype(int)
        X, have = self._anchors, len(self._anchors)
        if k.max(initial=0) >= have:
            X = self._anchors = np.resize(X, (k.max() + 1, *B.shape))
            for q in range(have, len(X)):
                X[q] = self._leap @ X[q - 1]
        out = np.empty((t.size, left.shape[0], B.shape[1]))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            tau = t[sl] - k[sl] * self._h                # exact: h is 2^j
            out[sl] = left @ (expm(A * tau[:, None, None]) @ X[k[sl]])
        return out

    def matrices(self, t: np.ndarray, k: int = 0) -> np.ndarray:
        """C A^k e^{A t_q} B (k = 0, 1) for every time t_q: (T, m, p)."""
        sys = self.sys
        if not self.modal:
            return self._response(t, self.output[k])
        out = np.empty((t.size, sys.m, sys.p))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            E = np.exp(np.outer(self.lam, t[sl]))[:, None, :]
            out[sl] = _mode_sum(E, self.res[k][:, :, None]).T.reshape(
                -1, sys.m, sys.p)
        return out

    def sigma_transfer(self, s: np.ndarray) -> np.ndarray:
        """sigma_max(C (s_q I - A)^{-1} B + D) for every complex point s_q:
        the residue gains of the Kreiss family at its one member A, or
        ``_gains``'s dense solves for a system that is not modal."""
        sys = self.sys
        if not self.modal:
            return _gains(sys.A[None], np.zeros(s.size, dtype=int), s,
                          sys.B, sys.C, sys.D)
        return _residue_gains(s, self.lam, self.res[0], sys.D)

    def channels(self, t: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Channel c_q of k = 0 (row 0) and k = 1 (row 1) at every t_q."""
        if not self.modal:
            i, j = np.divmod(c, self.sys.p)
            M = self._response(t, np.vstack(self.output))    # rows C, C A
            return M[np.arange(t.size), [i, self.sys.m + i], j]
        out = np.empty((2, t.size))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            E = np.exp(np.outer(self.lam, t[sl]))
            for k in (0, 1):
                out[k, sl] = _mode_sum(E, self.res[k][:, c[sl]])
        return out

    def integrals(self, knots: np.ndarray, c: int) -> np.ndarray:
        """Integrals of channel c over [knots[q], knots[q + 1]] and, last,
        over [knots[-1], inf), from the antiderivative C A^{-1} e^{At} B."""
        sys = self.sys
        if not self.modal:
            i, j = divmod(c, sys.p)
            F = self._response(knots, sys.C[i:i + 1] @ np.linalg.inv(sys.A))
            return np.diff(F[:, 0, j], append=0.0)           # F(inf) = 0
        out = np.empty(knots.size)
        w = (self.res[0][:, c] / self.lam)[:, None]
        for lo in range(0, knots.size, _TIME_CHUNK):
            P = np.exp(np.outer(self.lam, knots[lo:lo + _TIME_CHUNK + 1]))
            if lo + _TIME_CHUNK >= knots.size:
                # e^{lam t} vanishes as t -> inf
                P = np.hstack([P, np.zeros((sys.n, 1))])
            out[lo:lo + _TIME_CHUNK] = _mode_sum(P[:, 1:] - P[:, :-1], w)
        return out


# ---------------------------------------------------------------------------
# Worst-case transient peak M0
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _decay_envelope(A: np.ndarray, lam: np.ndarray | None = None):
    """(env, alpha, nu): env(t) = e^{alpha t} sum_{k<n} (nu t)^k / k! bounds
    ||e^{At}||_2 (Van Loan, SIAM J. Numer. Anal. 14(6), 1977) for alpha the
    spectral abscissa and any nu >= ||N||_2, N the strictly upper part of a
    complex Schur form of A.  nu is Henrici's departure from normality
    ||N||_F = sqrt(||A||_F^2 - sum |lambda_i|^2) (Numer. Math. 4, 1962),
    which needs only the eigenvalues.  (4 n)^2 eps ||A||_F^2 is added under
    the root for the rounding in that difference, which cancels for a normal
    or nearly normal A, so that nu stays above ||N||_2 there too (about 9
    times the largest shortfall seen on 30,000 random, nearly normal and
    rotated Jordan matrices with n = 2..12).  lam, the eigenvalues of A,
    come from eigvals unless given."""
    lam = np.linalg.eigvals(A) if lam is None else lam
    alpha = float(np.max(lam.real))
    n = A.shape[0]
    fro2 = float(np.sum(A * A))
    departure = fro2 - float(np.sum(lam.real ** 2 + lam.imag ** 2))
    nu = math.sqrt(max(departure, 0.0) + 16 * n * n * _EPS * fro2)

    def env(t: float) -> float:
        s, term = 1.0, 1.0
        for k in range(1, n):
            term *= nu * t / k
            s += term
        return math.exp(alpha * t) * s

    return env, alpha, nu


def _tail_horizon(A: np.ndarray, tail_eps: float,
                  lam: np.ndarray | None = None) -> float:
    env, alpha, _ = _decay_envelope(A, lam)
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

#: M0 refinement stops at brackets this narrow in x = log1p(t / t_1)
_M0_XTOL_REL = 1e-9

#: the peak-gain grid takes this many samples per half period of the
#: fastest mode, and at least and at most these many in all
_PEAK_HALF_PERIOD_SAMPLES = 16
_PEAK_MIN_SAMPLES = 2000
_PEAK_MAX_SAMPLES = 200000

#: the propagator horizon's bound on ||e^{At}||_2, as a share of the
#: envelope's tail tolerance
_PEAK_TAIL_FACTOR = 1e-4


def _impulse_slopes(imp: _Impulse, t: np.ndarray):
    """(sigma, sigma') with sigma = sigma_max(F) for F = C e^{A t_q} B at
    every time t_q, from one stacked _sigma_max, and its slope sigma' =
    Re(q^T C A e^{A t_q} B p) with (q, p) the top singular pair of F."""
    F = imp.matrices(t)
    U, _, Vh = np.linalg.svd(F)
    return _sigma_max(F), np.einsum("qi,qij,qj->q", U[:, :, 0],
                                    imp.matrices(t, 1), Vh[:, 0])


def transient_peak_m0(sys: StateSpace) -> NormReport:
    """Worst-case transient peak M0(G) = sup_{t>=0} sigma_max(C e^{At} B).

    The horizon is chosen from Van Loan's decay envelope so that the
    remaining tail cannot exceed the sampled maximum.  Every grid maximum
    within half of the largest is then refined inside its grid bracket by
    ``_refine_maxima``, all in lockstep, in x = log1p(t / t_1), t_1 the
    grid's first nonzero time, with the slope (t + t_1) Re(q^T C A e^{At}
    B p) for the top singular pair (q, p) of C e^{At} B.  The largest
    refined value is reported, at the least t of equal values.  Raises
    NumericalError when the impulse response is not finite on the grid.
    """
    _strictly_proper_channel(sys, "transient peak")
    sys.require_stable("transient peak")
    imp = _Impulse(sys)
    horizon = _tail_horizon(imp.sys.A, _M0_TAIL_EPS, imp.lam)
    grid = np.unique(np.concatenate([
        [0.0],
        np.geomspace(horizon * 1e-6, horizon, _M0_HALF_SAMPLES),
        np.linspace(0.0, horizon, _M0_HALF_SAMPLES),
    ]))
    vals = _sigma_max(imp.matrices(grid))
    if not np.isfinite(vals).all():
        raise NumericalError("transient peak: the impulse response is not "
                             "finite on the time grid")

    t1 = grid[1]

    def probe(x):
        t = np.expm1(x) * t1
        v, slope = _impulse_slopes(imp, t)
        return v, slope * (t + t1), t

    def grid_slopes(idx):
        return _impulse_slopes(imp, grid[idx])[1] * (grid[idx] + t1)

    _, v_r, t_r, used = _refine_maxima(
        probe, grid_slopes, np.log1p(grid / t1), vals, grid, _M0_XTOL_REL)
    best = int(np.argmax(v_r))                   # the least t of equal values
    return NormReport(float(v_r[best]), {"t": float(t_r[best])},
                      evaluations=grid.size + used)


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
    y_sym_max = float(np.max(np.linalg.eigvalsh(Y + Y.T)))
    if tol is None:
        tol = 1e-8 * (1.0 + abs(y_sym_max))
    return AttainmentCheck(sigma_cb=float(triple.sigma_max),
                           Y_sym_max=y_sym_max,
                           necessary_ok=bool(y_sym_max <= tol))


# ---------------------------------------------------------------------------
# Entry-wise and sign-pattern variants
# ---------------------------------------------------------------------------

def _max_kreiss(key: str, subsystems, tol: float) -> NormReport:
    """kreiss_norm maximized over (label, StateSpace) pairs.

    The first maximum wins; its label goes under maximizer[key], and the
    evaluations of every subsystem are summed.
    """
    best = None
    evals = 0
    for label, sub in subsystems:
        rep = kreiss_norm(sub, tol)
        evals += rep.evaluations
        if best is None or rep.value > best[0].value:
            best = (rep, label)
    rep, label = best
    maximizer = {key: label, "eta": rep.maximizer["eta"],
                 "omega": rep.maximizer["omega"]}
    return NormReport(float(rep.value), maximizer, evaluations=evals)


def entrywise_kreiss(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """max over scalar channels (i, k) of the SISO Kreiss norm of (A, b_k, c_i)."""
    _strictly_proper_channel(sys, "entry-wise Kreiss norm")
    sys.require_stable("entry-wise Kreiss norm")
    return _max_kreiss("channel", (
        ([i, k], StateSpace(sys.A, sys.B[:, k:k + 1], sys.C[i:i + 1, :]))
        for i in range(sys.m) for k in range(sys.p)), tol)


#: sign_pattern_kreiss enumerates 2^(p-1) sign vectors and refuses p above this
_SIGN_PATTERN_MAX_INPUTS = 16


def sign_pattern_kreiss(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """max over sign vectors r in {-1,1}^p of the Kreiss norm of (A, B r, C)."""
    _strictly_proper_channel(sys, "sign-pattern Kreiss norm")
    sys.require_stable("sign-pattern Kreiss norm")
    if sys.p > _SIGN_PATTERN_MAX_INPUTS:
        raise EnumerationError(f"{sys.p} inputs exceed the enumeration "
                               f"bound {_SIGN_PATTERN_MAX_INPUTS}")
    # sigma_max is sign-symmetric, so fix the first sign to +1
    signs = ((1.0,) + tail
             for tail in itertools.product((1.0, -1.0), repeat=sys.p - 1))
    return _max_kreiss("sign_pattern", (
        ([int(v) for v in r],
         StateSpace(sys.A, (sys.B @ np.array(r)).reshape(-1, 1), sys.C))
        for r in signs), tol)


# ---------------------------------------------------------------------------
# Peak-gain norm
# ---------------------------------------------------------------------------

def _polish_roots(imp: _Impulse, lo: np.ndarray, hi: np.ndarray,
                  g_lo: np.ndarray, g_hi: np.ndarray, c: np.ndarray,
                  xtol: float) -> np.ndarray:
    """Roots of the impulse-response channels c_q in the brackets
    (lo_q, hi_q) across which they change sign, all polished in lockstep:
    Newton steps from the secant point, with the derivative from k = 1,
    and a bisection wherever a step would leave the shrinking bracket.
    Returns the roots and the number of channel samples taken."""
    x = lo - g_lo * (hi - lo) / (g_hi - g_lo)
    active = np.arange(x.size)
    used = 0
    for _ in range(100):
        if active.size == 0:
            break
        used += active.size
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
    return x, used


def _peak_grid_size(horizon: float, omega_max: float) -> int:
    """Samples of the peak-gain grid over [0, horizon], omega_max the
    largest |Im lambda|: ``_PEAK_HALF_PERIOD_SAMPLES`` per half period,
    within [``_PEAK_MIN_SAMPLES``, ``_PEAK_MAX_SAMPLES``]."""
    half_periods = math.ceil(horizon * omega_max / math.pi) \
        if omega_max > 0 else 0
    return int(max(_PEAK_MIN_SAMPLES,
                   min(_PEAK_MAX_SAMPLES,
                       _PEAK_HALF_PERIOD_SAMPLES * half_periods)))


def _propagator_horizon(A: np.ndarray, tail_eps: float, cap: float) -> float:
    """A time T <= cap with ||e^{At}||_2 <= tail_eps for every t >= T, from
    computed norms of the propagator of the balanced A~ = D^{-1} A D
    (``linalg.balance``); ||e^{At}||_2 <= kappa ||e^{A~t}||_2, kappa =
    max d / min d.  The walk X_j = e^{A~ h j}, h = 1 / (32 |alpha|), stops
    at the first J >= 32 with ||X_J||_F < 1/2, t0 = J h, and S = kappa
    max_j ||X_j||_F e^{mu h}, mu = max(lambda_max((A~ + A~^T) / 2), 0),
    bounds ||e^{As}||_2 on [0, t0].  By the semigroup property, and as
    ||X_J||_F < 1/2, ||e^{A (k t0 + s)}||_2 <= ||X_J^k||_F S for s >= 0, so
    T = k t0 for the first k with ||X_J^k||_F S <= tail_eps.  cap, Van Loan's horizon,
    is returned when the walk passes it first or e^{mu h} would overflow."""
    h = 1.0 / (32.0 * abs(spectral_abscissa(A)))
    d = balance(A)
    At = A / d[:, None] * d
    mu = max(float(np.linalg.eigvalsh(0.5 * (At + At.T))[-1]), 0.0)
    if mu * h >= math.log(np.finfo(float).max):
        return cap
    step = expm(At * h)
    X = np.eye(A.shape[0])
    top = f = np.linalg.norm(X)
    J = 0
    while J < 32 or not f < 0.5:                 # NaN walks on to the cap
        J += 1
        if J * h > cap:
            return cap
        X = step @ X
        f = np.linalg.norm(X)
        top = max(top, f)
    S = float(d.max() / d.min()) * top * math.exp(mu * h)
    t0, P, k = J * h, X, 1
    while not np.linalg.norm(P) * S <= tail_eps:
        if k * t0 >= cap:
            return cap
        P, k = P @ X, k + 1
    return min(cap, k * t0)


def peak_gain(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """Peak-to-peak norm: max_i sum_j ||g_ij||_L1 + row sums of |D|.

    Impulse-response entries are integrated exactly between their sign
    changes (resolvent antiderivative), and past the horizon to infinity,
    so the horizon only sets how far the sign changes are sought.  It is
    Van Loan's, where ||e^{At}||_2 <= min(tol, 1e-10), unless that grid
    lies above ``_PEAK_MIN_SAMPLES``: then ``_propagator_horizon`` bounds
    ||e^{At}||_2 by ``_PEAK_TAIL_FACTOR`` times as much from computed
    norms, most often far earlier.  One kernel call evaluates every channel
    on an oscillation-resolving grid (``_peak_grid_size``); the sign changes
    of all channels are then polished together to 1e-14 horizon, and each
    channel's segments and tail are integrated in one call.  evaluations
    counts the grid's and the polish's channel samples.  Raises
    ArgumentError unless tol is positive.
    """
    if not tol > 0:
        raise ArgumentError("tol", "must be positive")
    sys.require_stable("peak-gain norm")
    if sys.n == 0:
        value = float(np.abs(sys.D).sum(axis=1).max())
        return NormReport(value, {"row": 0}, evaluations=1)
    imp = _Impulse(sys)
    tail_eps = min(tol, 1e-10)
    horizon = _tail_horizon(imp.sys.A, tail_eps, imp.lam)
    omega_max = float(np.abs(imp.lam.imag).max())
    # on the floor a shorter horizon removes no sample
    if _peak_grid_size(horizon, omega_max) > _PEAK_MIN_SAMPLES:
        horizon = _propagator_horizon(
            imp.sys.A, _PEAK_TAIL_FACTOR * tail_eps, horizon)
    n_grid = _peak_grid_size(horizon, omega_max)
    grid = np.linspace(0.0, horizon, n_grid)
    vals = imp.matrices(grid).reshape(n_grid, -1)    # one column per channel
    live = np.abs(vals).max(axis=0) > 0.0           # the rest integrate to 0
    a, b = vals[:-1], vals[1:]
    on_grid_q, on_grid_c = np.nonzero((a == 0.0) & live)
    q, c = np.nonzero(a * b < 0.0)
    roots, polished = _polish_roots(imp, grid[q], grid[q + 1], a[q, c],
                                    b[q, c], c, 1e-14 * horizon)
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
                      evaluations=vals.size + polished)


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
    return float(np.max(np.linalg.eigvalsh(sys.C @ Q @ sys.C.T)))
