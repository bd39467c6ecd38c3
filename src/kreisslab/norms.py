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
= rho G(rho s), so K(A / rho, B, C) = K(A, B, C).  ``kreiss_norm`` runs
one 48-point grid, ``_ETA_GRID``, in windows: window rho takes the members
c A - I, c = (eta' / (2 - eta')) / rho, bitwise those of c' (A / rho) - I
for rho a power of two: the first nearest the spectral radius, and for a
stiff A more, each at most 2^10 lower on the grid below the reach of the
one before, down to its slow modes (``_time_scales``).  Each point carries
its c; its eta = 2 c / (1 + c) rounds to 2 for c beyond 2^53.

The Kreiss norm and M0 are maxima over one parameter, eta and t.  Each
takes its local maxima on a grid and refines them with exact
derivatives in ``_refine_maxima``: a safeguarded secant on the slope,
inside the grid bracket of each maximum, until the bracket is narrower
than its tolerance.  Every refined value is attained: ``hinf_norm`` of a
family member, or sigma_max(C e^{At} B) at a time.  One kernel,
``_peak_point``, polishes a peak for both the Kreiss slope and the
synthesis subgradient (``subgrad.kreiss_subgradient``): Newton steps on
d sigma / d omega move a bisection's frequency to the peak (Benner and
Mitchell, SIAM J. Sci. Comput. 40(5), 2018), and the resolvent products
there give the derivative by A.  The Kreiss slope is the envelope
derivative at the member's polished peak; at eta = 0 its sign is that of
``attainment_check``'s Y_sym_max, so a maximum there with Y_sym_max < 0
takes no step.  The M0 slope is Re(q^T C A e^{At} B p), and all local
maxima of one system step in lockstep, with one impulse evaluation per
round.

Every time-domain value comes from one impulse-response kernel,
``_Impulse``: C A^k e^{At} B (k = 0, 1) on a whole batch of times, from
the residues of a well-conditioned eigenvector basis in chunks of
``_TIME_CHUNK`` time points, from ``linalg.expm`` (scaling and squaring
with the degree-13 Pade approximant, one stacked call per chunk) for a
defective A, or, on a uniform grid, from the recurrence
X_{q+1} = expm(A dt) X_q.  The horizons of M0 and the peak gain come from
Van Loan's decay envelope with Henrici's departure from normality, which
needs the eigenvalues alone (``_decay_envelope``).
``transient_peak_m0`` takes its grid values from one call and one stacked
SVD; ``peak_gain`` evaluates every channel on its grid in one call,
polishes all sign changes of all channels in lockstep with safeguarded
Newton steps (the derivative is k = 1) and integrates each channel's
segments from the same residues.  The oracles and
``models.transient_curve`` use the same kernel.  The same class also
evaluates sigma_max(C (sI - A)^{-1} B + D) on a batch of complex points s,
the oracles' frequency grids: from the same residues through
``_residue_gains``, the Kreiss family's gain kernel, for a modal A, and
from ``_gains``'s stacked dense solves for a defective one.  Every mode
sum in time adds its modes in order (``_mode_sum``).

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ConsistencyError,
    EnumerationError,
    NumericalError,
    PreconditionError,
)
from .linalg import expm, solve_lyapunov, svd_triple
from .statespace import StateSpace

__all__ = [
    "NormReport",
    "HankelData",
    "AttainmentCheck",
    "hinf_norm",
    "kreiss_norm",
    "kreiss_matrix",
    "kreiss_family_matrix",
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
    (transient_peak_m0); impulse-response samples (peak_gain).
    """

    value: float
    maximizer: dict
    evaluations: int = 0

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
    Returns (values, omegas, evaluations), one entry per member.
    """
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
        if res is None:
            return _gains(A, member, s, B, C, D)
        return _residue_gains(s, poles[member], res, D)

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
    lockstep kernel that kreiss_norm runs over its whole eta grid, with
    dense gains.

    A gain that moves by one ulp can change the bisection's steps, so the
    value and the evaluation count reproduce only to tol, not bitwise,
    across numpy and LAPACK builds.  Raises ArgumentError unless tol is
    positive.
    """
    sys.require_stable("H-infinity norm")
    value, omega, evals = _hinf_lockstep(sys.A[None], sys.B, sys.C, sys.D,
                                         tol)
    return NormReport(float(value[0]), {"omega": float(omega[0])},
                      evaluations=int(evals[0]))


# ---------------------------------------------------------------------------
# Kreiss system norm
# ---------------------------------------------------------------------------

#: the endpoint-clustered eta grid of every Kreiss window, short of the
#: pole at 2 (np.unique here would import numpy.ma with the package)
_ETA_GRID = np.minimum(1.0 - np.cos(math.pi * np.linspace(0.0, 1.0, 48)),
                       2.0 - 1e-6)

#: c' = eta'/(2-eta') of every grid point
_C_GRID = _ETA_GRID / (2.0 - _ETA_GRID)

#: each further window of a stiff A lies at most this factor below the last
_WINDOW_STEP = 2.0 ** -10

#: derivative refinement stops at eta brackets this narrow
_REFINE_XTOL = 1e-7

#: a refined point is active when it reaches this fraction of the maximum
_ACTIVE_RTOL = 1e-6

#: derivative refinement runs from at most this many local maxima
_MAX_LOCAL_MAXIMA = 8

#: rounds of _refine_maxima; a bracket shrinks to its xtol in far fewer
_REFINE_MAX_ROUNDS = 100

#: Newton steps of _peak_point that polish a peak frequency
_POLISH_STEPS = 8


def kreiss_family_matrix(A: np.ndarray, eta) -> np.ndarray:
    """Member (eta/(2-eta)) A - I of the resolvent family; etas stack."""
    return _family_matrix(A, eta / (2.0 - eta))


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


def _refine_maxima(probe, grid_slopes, grid, vals, payloads, peaks, d,
                   xtol: float):
    """Local maxima of a function h of one variable, refined in lockstep.

    Maximum j starts at the grid point x = grid[peaks_j], with value
    vals[peaks_j], payload payloads[peaks_j] and slope d_j (0 where it
    takes no step).  Its far end is the grid neighbour the slope points
    to, whose value is no higher, with slope grid_slopes([index]); a
    boundary maximum whose slope points off the grid has none.  Each round
    takes one trial point per unfinished maximum between its near end
    (whose slope points into the bracket) and its far end: the secant root
    of h' when the slopes of the two ends point at each other, the
    midpoint otherwise, and never closer than xtol / 2 to an end.  A trial
    whose slope points onward becomes the near end when the ends' slopes
    point at each other or when it is at least as high as the near end;
    otherwise it becomes the far end.  Either way the bracket keeps a
    local maximum inside, and a maximum is done when its bracket is
    narrower than xtol or a trial's slope is 0.  An end kept twice in a
    row halves the other end's slope (the Illinois rule), so the secant
    closes both sides.  probe(t) returns (values, slopes, payloads) at the
    points t.  Returns the best point of each maximum, the first of equal
    values, as (x, value, payload), and the number of probed points.
    """
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


def _family_slope(sys: StateSpace, c: float, omega: float) -> float:
    """d/dc of the H-infinity norm h(c) of the member c A - I, whose peak
    hinf_norm put near omega: at the peak that ``_peak_point`` polishes,
    d/dc C R B = C R A R B gives h'(c) = Re(u^H C R A R B v)."""
    _, _, u, v, X, Y = _peak_point(_family_matrix(sys.A, c), sys.B, sys.C,
                                   sys.D, omega)
    return float((u.conj() @ (Y @ sys.A @ X) @ v).real)


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


def _time_scales(lam: np.ndarray) -> list:
    """The windows (rho, start) of kreiss_norm for a Hurwitz A with
    eigenvalues lam: [(1.0, 0)] for n = 0.  Window rho takes the grid from
    index start and reaches Re s = rho / c' at its last inner point.  The
    first, nearest the spectral radius, takes the whole grid; each next
    lies at most ``_WINDOW_STEP`` below the last, until one reaches |alpha|
    / n (a Jordan block of order k at -a peaks at Re s = a / (k - 1)), and
    starts at the last point inside the reach of the window before it."""
    if lam.size == 0:
        return [(1.0, 0)]
    low = -float(lam.real.max()) / lam.size * _C_GRID[-2]
    last = 2.0 ** math.floor(math.log2(low))
    wins = [(2.0 ** round(math.log2(np.abs(lam).max())), 0)]
    while wins[-1][0] > low:
        rho = max(wins[-1][0] * _WINDOW_STEP, last)
        wins.append((rho, int(np.searchsorted(
            _C_GRID, _C_GRID[-2] * rho / wins[-1][0], side="right")) - 1))
    return wins


def _kreiss_window(sys: StateSpace, imp, rho, start, sigma_cb, tol: float):
    """kreiss_norm's search over the members c A - I, c = c' / rho, on
    ``_C_GRID[start:]`` and refined in eta': the set of (c, value, omega)
    of its grid maxima and refined points, and the number of eta' taken."""
    def c_of(etas):
        return etas / (2.0 - etas) / rho

    def slopes(etas, oms):
        return np.array([_family_slope(sys, c, w) * 2.0 / (2.0 - e) ** 2 / rho
                         for e, c, w in zip(etas, c_of(etas), oms)])

    def probe(etas):
        reps = [hinf_norm(StateSpace(_family_matrix(sys.A, c), sys.B, sys.C),
                          tol=tol) for c in c_of(etas)]
        oms = np.array([r.maximizer["omega"] for r in reps])
        return np.array([r.value for r in reps]), slopes(etas, oms), oms

    grid, c_grid = _ETA_GRID[start:], _C_GRID[start:] / rho
    vals, omegas, _ = _family_hinf(sys, c_grid, tol, imp)
    if start == 0:
        # the member at eta = 0 is CB/(s + 1), whose norm is sigma_max(CB);
        # its grid value has the bisection's tol and the residues' rounding
        if vals[0] < sigma_cb - 10 * tol * max(1.0, sigma_cb) - 1e-12:
            raise ConsistencyError(
                f"Kreiss value {vals[0]:.6g} at eta = 0 fell below the "
                f"sigma_max(CB) lower bound {sigma_cb:.6g}")
        vals[0] = sigma_cb

    local_max = _local_maxima(vals)     # largest first, ties in grid order
    local_max = local_max[np.argsort(-vals[local_max], kind="stable")][
        :_MAX_LOCAL_MAXIMA]

    def grid_slopes(idx):
        return slopes(grid[idx], omegas[idx])

    # a maximum at eta = 0 takes no step when CB/(s + 1) falls off there
    falls = (start == 0 and sigma_cb > 0 and 0 in local_max
             and attainment_check(sys).Y_sym_max < 0)
    steps = ~((local_max == 0) & falls)
    d = np.zeros(local_max.size)
    d[steps] = grid_slopes(local_max[steps])
    eta_r, val_r, om_r, used = _refine_maxima(
        probe, grid_slopes, grid, vals, omegas, local_max, d, _REFINE_XTOL)
    points = {(float(c_grid[i]), float(vals[i]), float(omegas[i]))
              for i in local_max}
    points.update(zip(c_of(eta_r).tolist(), val_r.tolist(), om_r.tolist()))
    return points, grid.size + used


def kreiss_norm(sys: StateSpace, tol: float = 1e-8) -> NormReport:
    """Kreiss system norm sup_{Re s > 0} Re(s) sigma_max(C (sI-A)^{-1} B).

    The maximum over c >= 0 of the H-infinity norm of the member (c A - I,
    B, C), Hurwitz whenever A is, at frequency omega: s = (1 + j omega) / c.
    Each window of ``_time_scales`` evaluates ``_ETA_GRID`` in one lockstep
    call (``_family_hinf``), each value within tol of hinf_norm of that
    member, sigma_max(CB) exactly at eta = 0, and ``_refine_maxima`` takes
    each local maximum's values from hinf_norm and slopes from
    ``_family_slope``; one at eta = 0 with Y_sym_max < 0 (see
    ``attainment_check``) takes no step.  The maximizer holds the eta and
    omega of the best point, the least c of equal values, and as "actives"
    every near-active point with its c.  Raises ArgumentError unless tol is
    positive."""
    _strictly_proper_channel(sys, "Kreiss norm")
    sys.require_stable("Kreiss norm")
    sigma_cb = cb_lower_bound(sys)
    imp = _Impulse(sys)
    wins = [_kreiss_window(sys, imp, rho, start, sigma_cb, tol)
            for rho, start in _time_scales(imp.lam)]
    points = sorted(set().union(*(w[0] for w in wins)), key=lambda t: t[0])
    best_c, best_val, best_omega = max(points, key=lambda t: t[1])
    actives = [{"eta": 2.0 * c / (1.0 + c), "c": c, "value": v, "omega": om}
               for c, v, om in points if v >= (1.0 - _ACTIVE_RTOL) * best_val]
    return NormReport(best_val, {"eta": 2.0 * best_c / (1.0 + best_c),
                                 "omega": best_omega, "actives": actives},
                      evaluations=sum(w[1] for w in wins))


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
    G(s) = sum_l r_l / (s - lam_l) + D.  For a defective A each time takes
    its own e^{A t} from one stacked ``linalg.expm`` call per chunk, whose
    values do not depend on the chunking either, a uniform grid takes the
    recurrence X_{q+1} = expm(A dt) X_q from X_0 = B, and G(s) takes
    ``_gains``'s dense solves.  Channel c is the entry (c // p, c % p).
    """

    def __init__(self, sys: StateSpace):
        self.sys = sys
        w, V = np.linalg.eig(sys.A)
        # an empty basis (n = 0) is perfectly conditioned
        self.cond = float(np.linalg.cond(V)) if sys.n else 1.0
        self.modal = self.cond < _MODAL_COND
        self.lam = w
        if self.modal:
            left = sys.C @ V                           # m x n
            right = np.linalg.solve(V, sys.B)          # n x p
            # res[l, i p + j] = left[i, l] right[l, j]
            res = (left.T[:, :, None] * right[:, None, :]).reshape(
                sys.n, sys.m * sys.p)
            self.res = (res, res * w[:, None])
        self.output = (sys.C, sys.C @ sys.A)            # C A^k, k = 0, 1

    def matrices(self, t: np.ndarray, k: int = 0) -> np.ndarray:
        """C A^k e^{A t_q} B (k = 0, 1) for every time t_q: (T, m, p)."""
        sys = self.sys
        out = np.empty((t.size, sys.m, sys.p))
        for lo in range(0, t.size, _TIME_CHUNK):
            sl = slice(lo, lo + _TIME_CHUNK)
            if self.modal:
                E = np.exp(np.outer(self.lam, t[sl]))[:, None, :]
                out[sl] = _mode_sum(E, self.res[k][:, :, None]).T.reshape(
                    -1, sys.m, sys.p)
            else:
                out[sl] = (self.output[k] @ expm(
                    sys.A * t[sl, None, None])) @ sys.B
        return out

    def sigma_transfer(self, s: np.ndarray) -> np.ndarray:
        """sigma_max(C (s_q I - A)^{-1} B + D) for every complex point s_q:
        the residue gains of the Kreiss family at its one member A, or
        ``_gains``'s dense solves for a defective A."""
        sys = self.sys
        if not self.modal:
            return _gains(sys.A[None], np.zeros(s.size, dtype=int), s,
                          sys.B, sys.C, sys.D)
        return _residue_gains(s, self.lam, self.res[0], sys.D)

    def grid(self, ts: np.ndarray) -> np.ndarray:
        """matrices(ts) on a uniform grid ts of at least two points
        from 0."""
        if self.modal:
            return self.matrices(ts)
        sys = self.sys
        step = expm(sys.A * (ts[1] - ts[0]))
        out = np.empty((ts.size, sys.m, sys.p))
        X = np.empty((min(_TIME_CHUNK, ts.size), sys.n, sys.p))
        for lo in range(0, ts.size, _TIME_CHUNK):
            size = min(_TIME_CHUNK, ts.size - lo)
            # X[-1] still holds the last state of the previous chunk
            X[0] = sys.B if lo == 0 else step @ X[-1]
            for q in range(1, size):
                X[q] = step @ X[q - 1]
            out[lo:lo + size] = sys.C @ X[:size]
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
                X = expm(self.sys.A * t[sl, None, None])
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
            F[sl] = left @ expm(sys.A * knots[sl, None, None]) \
                @ sys.B[:, j]
        return np.diff(F)


# ---------------------------------------------------------------------------
# Worst-case transient peak M0
# ---------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)


def _decay_envelope(A: np.ndarray):
    """(env, alpha, nu): env(t) = e^{alpha t} sum_{k<n} (nu t)^k / k! bounds
    ||e^{At}||_2 (Van Loan, SIAM J. Numer. Anal. 14(6), 1977) for alpha the
    spectral abscissa and any nu >= ||N||_2, N the strictly upper part of a
    complex Schur form of A.  nu is Henrici's departure from normality
    ||N||_F = sqrt(||A||_F^2 - sum |lambda_i|^2) (Numer. Math. 4, 1962),
    which needs only the eigenvalues.  (4 n)^2 eps ||A||_F^2 is added under
    the root for the rounding in that difference, which cancels for a normal
    or nearly normal A, so that nu stays above ||N||_2 there too (about 9
    times the largest shortfall seen on 30,000 random, nearly normal and
    rotated Jordan matrices with n = 2..12)."""
    lam = np.linalg.eigvals(A)
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

#: M0 derivative refinement stops at brackets this fraction of the horizon
_M0_XTOL_REL = 1e-9


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
    ``_refine_maxima``, all in lockstep, with the slope d/dt sigma_max(C
    e^{At} B) = Re(q^T C A e^{At} B p) for the top singular pair (q, p).
    Ties report the smallest t.  Raises NumericalError when the impulse
    response is not finite on the grid.
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
    if not np.isfinite(vals).all():
        raise NumericalError("transient peak: the impulse response is not "
                             "finite on the time grid")
    evals = len(grid)

    def grid_slopes(idx):
        return _impulse_slopes(imp, grid[idx])[1]

    best_val = float(vals.max())
    best_t = float(grid[int(np.argmax(vals))])
    peaks = _local_maxima(vals)
    peaks = peaks[vals[peaks] >= 0.5 * best_val]
    t_r, v_r, _, used = _refine_maxima(
        lambda t: (*_impulse_slopes(imp, t), t), grid_slopes, grid, vals,
        grid, peaks, grid_slopes(peaks), _M0_XTOL_REL * horizon)
    evals += used
    for t, v in zip(t_r, v_r):
        if v > best_val * (1 + 1e-12) or (
                abs(v - best_val) <= 1e-9 * best_val and t < best_t):
            best_val, best_t = float(v), float(t)
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
    tail are integrated in one call.  Raises ArgumentError unless tol is
    positive.
    """
    if not tol > 0:
        raise ArgumentError("tol", "must be positive")
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
    return float(np.max(np.linalg.eigvalsh(sys.C @ Q @ sys.C.T)))
