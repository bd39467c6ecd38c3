"""Dense LMI feasibility and the quadratic-constraint stability machinery.

The engine minimizes the worst scaled, margin-shifted top eigenvalue t of
a family of affine symmetric blocks, a small dense SDP, by a primal-dual
interior-point method (HKM directions, Mehrotra predictor-corrector).  Each
verdict carries a witness checked apart from the solver: a point y for
"feasible", a Farkas matrix X for "infeasible".  On top of it sit the
structured Lyapunov analysis for lossless nonlinearities, state-feedback
synthesis, output-feedback existence via the projection lemma, and
controller reconstruction from a completed Lyapunov matrix; each of these
raises ArgumentError unless its decay rate eps is finite and at least 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError, PreconditionError
from .linalg import _kron_lyapunov, block_diag, spectral_abscissa
from .loop import ControllerRealization, assemble_closed_loop, closed_loop_map
from .statespace import StateSpace

__all__ = [
    "LmiBlock",
    "LmiProblem",
    "FeasibilityResult",
    "QcCertificate",
    "sdp_feasibility",
    "lossless_check",
    "qc_analysis",
    "qc_analysis_closed_loop",
    "sf_synthesis",
    "of_existence",
    "reconstruct_controller",
    "null_space_basis",
]


# ---------------------------------------------------------------------------
# Problem containers
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LmiBlock:
    """One affine symmetric block F0 + sum_i y_i F_i.

    ``coeffs`` holds one F_i per variable, a zero matrix where the block
    omits it; the block keeps F0 and the F_i symmetrized, the F_i stacked
    as one (n_vars, d, d) array.  Feasibility requires lambda_max <=
    -margin; non-strict blocks use a small negative margin so that
    boundary solutions are accepted.
    """

    F0: np.ndarray
    coeffs: np.ndarray
    margin: float

    def __post_init__(self):
        self.F0 = _sym(self.F0)
        coeffs = [_sym(F) for F in self.coeffs]
        self.coeffs = np.array(coeffs).reshape((len(coeffs),) + self.F0.shape)

    def value(self, y: np.ndarray) -> np.ndarray:
        return _affine(self.F0, self.coeffs, y)


def _affine(F0, coeffs, y) -> np.ndarray:
    """F0 + sum_i y_i F_i, summed in order and skipping y_i = 0."""
    S = F0.copy()
    for yi, Fi in zip(y, coeffs):
        if yi != 0.0:
            S = S + yi * Fi
    return S


@dataclass(eq=False)
class LmiProblem:
    blocks: list

    def __post_init__(self):
        if len({len(b.coeffs) for b in self.blocks}) > 1:
            raise DimensionError("blocks disagree on the variable count")

    @property
    def n_vars(self) -> int:
        return len(self.blocks[0].coeffs) if self.blocks else 0

    def dimension(self) -> int:
        return sum(b.F0.shape[0] for b in self.blocks)


def _sym(M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise DimensionError("LMI blocks must be square")
    if not np.allclose(M, M.T, atol=1e-10 * (1.0 + np.abs(M).max())):
        raise DimensionError("LMI blocks must be symmetric")
    return 0.5 * (M + M.T)


def strict_margin(F0) -> float:
    """Default strictness margin 1e-7 of the constant-block scale."""
    return 1e-7 * max(1.0, float(np.linalg.norm(np.atleast_2d(F0), 2)))


# ---------------------------------------------------------------------------
# Primal-dual interior-point engine
# ---------------------------------------------------------------------------

#: stop once every scaled block sits this far inside its cone
_INTERIOR_PUSH = 0.02
_MAX_ITER = 60
#: fraction of the distance to the cone boundary taken per step
_STEP_FRACTION = 0.95
#: absolute tolerance on the equalities <F_i, X> = 0 of a Farkas certificate
_CERT_TOL = 1e-10
#: eigenvalue floor of a Farkas certificate (trace 1): rounding on a face
_PSD_TOL = 1e-12
#: Gauss-Newton steps that polish a certificate on a face of the cone
_FACE_STEPS = 16


@dataclass
class FeasibilityResult:
    status: str                 # "feasible" | "infeasible" | "indeterminate"
    y: np.ndarray
    margin: float               # max over blocks of lambda_max(S_b(y))
    iterations: int
    reason: str                 # why the engine stopped (see sdp_feasibility)
    certificate: list | None    # Farkas blocks X_b for "infeasible", else None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _by_order(blocks) -> list:
    """Index lists of the blocks of each order, each in block order."""
    groups = {}
    for i, B in enumerate(blocks):
        groups.setdefault(len(B), []).append(i)
    return list(groups.values())


def _unstack(groups, stacks) -> list:
    """One entry per block, in block order, from one stack per group."""
    out = [None] * sum(len(idx) for idx in groups)
    for idx, S in zip(groups, stacks):
        for i, S_i in zip(idx, S):
            out[i] = S_i
    return out


def _chol_inv(S: np.ndarray) -> np.ndarray:
    """L^{-1} of the Cholesky factor L of each block of a stack."""
    return np.linalg.inv(np.linalg.cholesky(S))


def _max_steps(Linv: np.ndarray, D: np.ndarray) -> list:
    """Largest alpha with S_b + alpha D_b positive semidefinite, for each
    block of a stack with S_b = L L^T > 0 and Linv = L^{-1}."""
    lam = np.linalg.eigvalsh(Linv @ D @ Linv.transpose(0, 2, 1))[:, 0]
    return [math.inf if lam_b >= 0 else -1.0 / lam_b for lam_b in lam]


def _schur_terms(A, X, Zinv) -> np.ndarray:
    """M_b[i, j] = tr(A_{b,i} X_b A_{b,j} Z_b^-1) for a stack of blocks."""
    k = A.shape[1]
    XAZ = X[:, None] @ A @ Zinv[:, None]
    return A.reshape(len(A), k, -1) @ XAZ.reshape(len(A), k, -1) \
        .transpose(0, 2, 1)


def _predictor_corrector(A, rhs, X, Z):
    """One Mehrotra predictor-corrector step with HKM directions: (dX, dz,
    alpha_p, alpha_d), or None when Z is numerically singular.  The Schur
    complement M_ij = sum_b tr(A_i X A_j Z^-1) is pseudo-inverted, so
    linearly dependent variables take the least-norm step.

    Blocks of one order are stacked.  The Cholesky inverses of X and Z are
    taken once per step: Z's gives Z^-1, and both serve the step lengths of
    both directions, each of which takes one eigvalsh per order."""
    groups = _by_order(X)

    def stacked(blocks):
        return [np.stack([blocks[i] for i in idx]) for idx in groups]

    A_g, X_g, Z_g = stacked(A), stacked(X), stacked(Z)
    try:
        LZ = [_chol_inv(S) for S in Z_g]
    except np.linalg.LinAlgError:
        return None
    Zinv_g = [L.transpose(0, 2, 1) @ L for L in LZ]
    Zinv = _unstack(groups, Zinv_g)
    M = sum(_unstack(groups, [_schur_terms(*g)
                              for g in zip(A_g, X_g, Zinv_g)]))
    Minv = np.linalg.pinv(0.5 * (M + M.T), hermitian=True)
    try:  # X's factors, then Z's, in one stack per order
        L_XZ = [np.concatenate([_chol_inv(S), L]) for S, L in zip(X_g, LZ)]
    except np.linalg.LinAlgError:
        L_XZ = None

    def direction(R):
        """Newton step towards X Z = R, symmetrized (HKM)."""
        RZi = [Rb @ Zi for Rb, Zi in zip(R, Zinv)]
        dz = Minv @ (rhs - sum(Ab.reshape(len(Ab), -1) @ W.ravel()
                               for Ab, W in zip(A, RZi)))
        dZ = [-np.tensordot(dz, Ab, 1) for Ab in A]
        dX = [RZ - Xb - Xb @ dZb @ Zi
              for RZ, Xb, dZb, Zi in zip(RZi, X, dZ, Zinv)]
        dX = [0.5 * (D + D.T) for D in dX]
        a_p = a_d = 0.0
        try:  # a failed factorization or eigvalsh leaves both at 0
            if L_XZ is not None:
                steps = [_max_steps(L, np.concatenate([D, E])) for L, D, E
                         in zip(L_XZ, stacked(dX), stacked(dZ))]
                a_p = min(_unstack(groups, [s[:len(idx)] for s, idx
                                            in zip(steps, groups)]))
                a_d = min(_unstack(groups, [s[len(idx):] for s, idx
                                            in zip(steps, groups)]))
        except np.linalg.LinAlgError:
            pass
        return dX, dz, dZ, a_p, a_d

    N = sum(len(Xb) for Xb in X)
    mu = sum(np.vdot(Xb, Zb) for Xb, Zb in zip(X, Z)) / N
    dX, _, dZ, a_p, a_d = direction([np.zeros_like(Xb) for Xb in X])
    a_p, a_d = min(1.0, a_p), min(1.0, a_d)
    mu_aff = sum(np.vdot(Xb + a_p * D, Zb + a_d * E)
                 for Xb, D, Zb, E in zip(X, dX, Z, dZ)) / N
    sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
    dX, dz, _, a_p, a_d = direction(
        [sigma * mu * np.eye(len(D)) - D @ E for D, E in zip(dX, dZ)])
    return (dX, dz, min(1.0, _STEP_FRACTION * a_p),
            min(1.0, _STEP_FRACTION * a_d))


def _interior_point(problem: LmiProblem, active, y0):
    """Minimize t subject to (S_b(y) + margin_b I)/scale_b <= t I; returns
    (y, certificate or None, iterations, stop reason).

    This is the dual max -t s.t. Z = C - sum_i z_i A_i >= 0, z = (y, t),
    C_b = -(F0_b + margin_b I)/scale_b, A_{b,i} = F_{b,i}/scale_b and
    A_{b,t} = -I, of min <C, X> s.t. tr X = 1, <A_{.,i}, X> = 0, X >= 0; a
    primal X with <C, X> < 0 is a candidate Farkas certificate.  Starts
    from X = I/N (infeasible) and t = max_b lambda_max + 1 (feasible).
    """
    blocks = problem.blocks
    scales = [max(1.0, float(np.linalg.norm(b.F0, 2))) for b in blocks]
    dims = [b.F0.shape[0] for b in blocks]
    N = sum(dims)
    C = [-(b.F0 + b.margin * np.eye(d)) / s
         for b, d, s in zip(blocks, dims, scales)]
    A = [np.concatenate([b.coeffs[active] / s, -np.eye(d)[None]])
         for b, d, s in zip(blocks, dims, scales)]
    rhs = np.zeros(len(active) + 1)
    rhs[-1] = -1.0

    def slack(z):
        return [Cb - np.tensordot(z, Ab, 1) for Cb, Ab in zip(C, A)]

    y = np.asarray(y0, dtype=float).copy()
    z = np.append(y[active], 0.0)
    z[-1] = max(-np.linalg.eigvalsh(Zb)[0] for Zb in slack(z)) + 1.0
    Z = slack(z)
    X = [np.eye(d) / N for d in dims]
    for it in range(_MAX_ITER + 1):
        y[active] = z[:-1]
        if z[-1] <= -_INTERIOR_PUSH:
            return y, None, it, "interior"  # verified by the caller
        gap = sum(np.vdot(Xb, Zb) for Xb, Zb in zip(X, Z))
        if sum(np.vdot(Cb, Xb) for Cb, Xb in zip(C, X)) < 0:
            W = [Xb / s for Xb, s in zip(X, scales)]
            total = sum(np.trace(Wb) for Wb in W)
            cert = _farkas_certificate(problem, [Wb / total for Wb in W],
                                       math.sqrt(max(gap, 0.0) / N))
            if cert is not None:
                return y, cert, it, "farkas certificate"
        if it == _MAX_ITER:
            break
        step = None
        if gap > 1e-12 * (1.0 + abs(z[-1])):  # else converged with t near 0
            step = _predictor_corrector(A, rhs, X, Z)
        if step is None or max(step[2], step[3]) < 1e-10:
            return y, None, it, "stalled"
        dX, dz, a_p, a_d = step
        X = [Xb + a_p * D for Xb, D in zip(X, dX)]
        z = z + a_d * dz
        Z = slack(z)
    return y, None, _MAX_ITER, "iteration cap"


def _farkas_certificate(problem: LmiProblem, W, face_tol: float):
    """A checked Farkas certificate near the primal iterate W, or None.

    Interior iterates never meet the equalities when every certificate is
    singular (an unstable mode), so X keeps the rank k_b of W_b above
    ``face_tol`` and solves sum_b <F_{b,i}, X_b> = 0, tr X = 1 by
    Gauss-Newton steps in the tangent space {H - Q H Q}, Q = I - U U^T, of
    the rank-k_b matrices, each followed by a rank-k_b truncation.  X is
    kept only if it is positive semidefinite within _PSD_TOL, meets the
    equalities within _CERT_TOL and has <F0 + margin I, X> > 0: then no y
    makes every S_b(y) + margin_b I negative definite.
    """
    F = [np.concatenate([b.coeffs, np.eye(len(b.F0))[None]])
         for b in problem.blocks]
    target = np.zeros(problem.n_vars + 1)
    target[-1] = 1.0

    def residual(X):
        return sum(Fb.reshape(len(Fb), -1) @ Xb.ravel()
                   for Fb, Xb in zip(F, X)) - target

    ranks = [int(np.sum(np.linalg.eigvalsh(Wb) > face_tol)) for Wb in W]
    X = W
    for _ in range(_FACE_STEPS):
        faces = [np.linalg.eigh(0.5 * (Xb + Xb.T)) for Xb in X]
        faces = [(V[:, len(w) - k:], w[len(w) - k:])
                 for (w, V), k in zip(faces, ranks)]
        X = [(U * w) @ U.T for U, w in faces]
        r = residual(X)
        if np.all(np.abs(r) <= 0.1 * _CERT_TOL):
            break
        T = [Fb - Q @ Fb @ Q for Fb, Q
             in zip(F, [np.eye(len(U)) - U @ U.T for U, _ in faces])]
        Phi = np.concatenate([Tb.reshape(len(Tb), -1) for Tb in T], axis=1)
        mu = np.linalg.lstsq(Phi @ Phi.T, -r, rcond=None)[0]
        X = [Xb + np.tensordot(mu, Tb, 1) for Xb, Tb in zip(X, T)]
    value = sum(np.vdot(b.F0 + b.margin * np.eye(len(b.F0)), Xb)
                for b, Xb in zip(problem.blocks, X))
    if (np.all(np.abs(residual(X)) <= _CERT_TOL)
            and all(np.linalg.eigvalsh(Xb)[0] >= -_PSD_TOL for Xb in X)
            and value > 0.0):
        return X
    return None


def sdp_feasibility(problem: LmiProblem, y0=None) -> FeasibilityResult:
    """Decide feasibility of {y : every block has lambda_max <= -margin}.

    Minimizes the worst scaled block value t by a primal-dual interior-point
    method, stopping once t <= -0.02.  Every verdict is checked
    independently of the path that produced it:

    - "feasible" only when eigvalsh at the returned y shows
      lambda_max(S_b(y)) + margin_b < 0 for every block
      (reason "interior point verified");
    - "infeasible" only with a checked Farkas certificate X in
      ``certificate`` (reason "farkas certificate");
    - "indeterminate" otherwise (reason "iteration cap" or "stalled").

    Problems whose variables appear in no block are decided by eigvalsh of
    the constant blocks alone (reason "no variables").
    """
    if problem.dimension() > 200:
        raise PreconditionError("LMI engine is limited to small dense problems")
    y = np.zeros(problem.n_vars) if y0 is None else np.asarray(y0, dtype=float)
    active = [i for i in range(problem.n_vars)
              if any(b.coeffs[i].any() for b in problem.blocks)]
    if active:
        y, certificate, iterations, reason = _interior_point(problem, active,
                                                             y)
    else:
        certificate, iterations, reason = None, 0, "no variables"
    margin, worst, worst_blk = -math.inf, -math.inf, None
    for blk in problem.blocks:
        lam, V = np.linalg.eigh(blk.value(y))
        margin = max(margin, float(lam[-1]))
        if lam[-1] + blk.margin > worst:
            worst, worst_blk, v = lam[-1] + blk.margin, blk, V[:, -1]
    if worst < 0:
        return FeasibilityResult(
            "feasible", y, margin, iterations,
            "interior point verified" if active else "no variables", None)
    if not active and worst > 0:
        certificate = [np.outer(v, v) if b is worst_blk
                       else np.zeros_like(b.F0) for b in problem.blocks]
    return FeasibilityResult(
        "indeterminate" if certificate is None else "infeasible", y, margin,
        iterations, "stalled" if reason == "interior" else reason,
        certificate)


# ---------------------------------------------------------------------------
# Structured Lyapunov (QC) analysis
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class QcCertificate:
    """Certificate for A_cl^T X_cl + X_cl A_cl + eps X_cl < 0 with the
    partition X_cl = [[X, 0, X13], [0, I, 0], [X13^T, 0, X33]].  After the
    abscissa test (reason "spectral abscissa") margin is 2 alpha + eps."""

    X_cl: np.ndarray | None
    epsilon: float
    status: str
    margin: float
    iterations: int
    reason: str

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _sym_vars(dim, at, d):
    """Basis of a symmetric d x d variable at rows and columns at..at+d of
    a dim x dim matrix: one matrix per entry of np.triu_indices(d)."""
    i, j = np.triu_indices(d)
    k = np.arange(len(i))
    E = np.zeros((len(i), dim, dim))
    E[k, at + i, at + j] = E[k, at + j, at + i] = 1.0
    return E


def _sym_unpack(y, d):
    """The symmetric d x d matrix whose np.triu_indices entries are y."""
    i, j = np.triu_indices(d)
    M = np.zeros((d, d))
    M[i, j] = M[j, i] = y
    return M


def _coordinates(mats, M):
    """Coordinates of a symmetric M in a basis of unit pairs: its entry at
    the upper unit of each basis matrix."""
    _, i, j = np.nonzero(np.triu(mats))
    return M[i, j]


def _units(rows, cols):
    """The rows * cols unit matrices of a rows x cols variable, row-major."""
    return np.eye(rows * cols).reshape(rows * cols, rows, cols)


def _lyap(A, M, eps):
    """The shifted Lyapunov operator A^T M + M A + eps M (M may be a stack)."""
    return A.T @ M + M @ A + eps * M


def _qc_variables(partition):
    """Constant and variable basis (X, X13 row-major, X33) of the
    structured X_cl."""
    d1, d2, d3 = partition
    dim = d1 + d2 + d3
    X13 = np.zeros((d1 * d3, dim, dim))
    X13[:, :d1, d1 + d2:] = _units(d1, d3)
    const = np.zeros((dim, dim))
    const[d1:d1 + d2, d1:d1 + d2] = np.eye(d2)
    return const, np.concatenate([_sym_vars(dim, 0, d1),
                                  X13 + X13.transpose(0, 2, 1),
                                  _sym_vars(dim, d1 + d2, d3)])


def _check_epsilon(epsilon: float) -> None:
    """eps < 0 proves nothing: A^T X + X A + eps X < 0 admits unstable A."""
    if not 0.0 <= epsilon < math.inf:
        raise ArgumentError("epsilon", "must be finite and at least 0")


def qc_problem(A_cl: np.ndarray, partition, epsilon: float) -> LmiProblem:
    """LMI problem for the reduced structured Lyapunov inequality."""
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    d1, d2, d3 = partition
    if d1 + d2 + d3 != A_cl.shape[0]:
        raise DimensionError("partition does not match A_cl")
    const, mats = _qc_variables(partition)
    F0 = _lyap(A_cl, const, epsilon)
    blk_stab = LmiBlock(F0=F0, coeffs=_lyap(A_cl, mats, epsilon),
                        margin=strict_margin(F0))
    blk_pd = LmiBlock(F0=-const, coeffs=-mats, margin=1e-8)
    return LmiProblem(blocks=[blk_stab, blk_pd])


def _qc_warm_start(A_cl, partition, epsilon):
    """Project the unstructured Lyapunov solution onto the X_cl structure.

    Solves (A_cl + eps/2 I)^T P + P (A_cl + eps/2 I) = -I, rescales so the
    pinned middle block has unit trace average, and keeps only the
    structured entries.  For lossless channels this usually lands inside
    the feasible set already.  Needs spectral_abscissa(A_cl) < -eps/2, so
    that P > 0; without a pinned block it starts from the identity.
    """
    d1, d2, _ = partition
    dim = A_cl.shape[0]
    shifted = A_cl + 0.5 * epsilon * np.eye(dim)
    P = _kron_lyapunov(shifted.T, np.eye(dim))
    trace = float(np.trace(P[d1:d1 + d2, d1:d1 + d2]))
    P = 0.5 * (P + P.T) * (d2 / trace) if trace > 0 else np.eye(dim)
    return _coordinates(_qc_variables(partition)[1], P)


def qc_analysis(A_cl, partition, epsilon: float = 1e-3) -> QcCertificate:
    """Global-stability certificate for a lossless nonlinearity channel.

    partition = (n - n_phi, n_phi, n_K) orders the states as (states not
    driven by the nonlinearity | driven states | controller states); the
    middle Lyapunov block is pinned to the identity.

    A loop with spectral abscissa alpha >= -eps/2 is infeasible without the
    engine: A v = lambda v gives v^* (A^T X + X A + eps X) v
    = (2 Re lambda + eps) v^* X v >= 0 for every X > 0.
    """
    _check_epsilon(epsilon)
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    problem = qc_problem(A_cl, partition, epsilon)
    alpha = spectral_abscissa(A_cl)
    if alpha >= -0.5 * epsilon:
        return QcCertificate(X_cl=None, epsilon=epsilon, status="infeasible",
                             margin=2.0 * alpha + epsilon, iterations=0,
                             reason="spectral abscissa")
    res = sdp_feasibility(problem, y0=_qc_warm_start(A_cl, partition, epsilon))
    X_cl, margin = None, res.margin
    if res.feasible:
        X_cl = _affine(*_qc_variables(partition), res.y)
        margin = float(np.max(np.linalg.eigvalsh(
            _lyap(A_cl, X_cl, epsilon))))
    return QcCertificate(X_cl=X_cl, epsilon=epsilon, status=res.status,
                         margin=margin, iterations=res.iterations,
                         reason=res.reason)


def qc_analysis_closed_loop(model, controller: ControllerRealization,
                            epsilon: float = 1e-3) -> QcCertificate:
    """qc_analysis for a benchmark model closed with a controller.

    The model supplies (A, B_u, C_y, B_w, n_phi); states are permuted so
    that the nonlinearity-driven block sits in the middle of the partition.
    """
    A_cl = assemble_closed_loop(model.control_channel(), controller).A_cl
    perm = _losslessness_permutation(model.B_w, controller.n_K)
    A_p = A_cl[np.ix_(perm, perm)]
    partition = (model.n - model.n_phi, model.n_phi, controller.n_K)
    return qc_analysis(A_p, partition, epsilon=epsilon)


def _losslessness_permutation(B_w, n_K):
    """State order (undriven | driven-by-w | controller)."""
    B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
    n = B_w.shape[0]
    driven = [i for i in range(n) if np.any(B_w[i, :])]
    undriven = [i for i in range(n) if i not in driven]
    return undriven + driven + [n + k for k in range(n_K)]


#: lossless_check draws each state coordinate from [-this, this]
_LOSSLESS_RADIUS = 100.0


def lossless_check(model, samples: int = 100000, seed: int = 0):
    """max over random states of |x^T B_w phi(x)|, raw and relative.

    All states are drawn at once and phi is called on the (n, samples)
    batch.  Sampling is falsification-only: a zero maximum is evidence of the
    lossless identity, not a proof.  Raises ArgumentError for samples < 1
    or seed < 0.
    """
    if samples < 1:
        raise ArgumentError("samples", "must be at least 1")
    if seed < 0:
        raise ArgumentError("seed", "must be at least 0")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-_LOSSLESS_RADIUS, _LOSSLESS_RADIUS,
                    size=(samples, model.A.shape[0])).T
    BW = model.B_w @ model.phi(X)
    inner = np.abs(np.sum(X * BW, axis=0))
    denom = np.linalg.norm(X, axis=0) * np.linalg.norm(BW, axis=0) + 1e-300
    return float(np.max(inner)), float(np.max(inner / denom))


# ---------------------------------------------------------------------------
# State-feedback synthesis (lossless channel)
# ---------------------------------------------------------------------------

def sf_synthesis(A, B, n_phi: int, epsilon: float = 1e-3):
    """State-feedback gain certifying the structured Lyapunov inequality.

    Solves A Ytil + B W + (.)^T < -eps Ytil over Ytil = diag(Y, I_{n_phi}),
    Y > 0 and W, then returns K = W Ytil^{-1} together with (Y, W).  The
    returned gain is re-verified through qc_analysis on A + B K.
    """
    _check_epsilon(epsilon)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    p = B.shape[1]
    d1 = n - n_phi
    if d1 < 0:
        raise DimensionError("n_phi exceeds the state dimension")
    constY, matsY = _qc_variables((d1, n_phi, 0))   # diag(Y, I)
    n_y = len(matsY)
    n_w = p * n
    BW = B @ _units(p, n)
    F0 = _lyap(A.T, constY, epsilon)
    blk_main = LmiBlock(F0=F0, coeffs=np.concatenate([
        _lyap(A.T, matsY, epsilon), BW + BW.transpose(0, 2, 1)]),
        margin=strict_margin(F0))
    blk_pd = LmiBlock(F0=-constY, coeffs=np.concatenate([
        -matsY, np.zeros((n_w, n, n))]), margin=1e-8)
    problem = LmiProblem(blocks=[blk_main, blk_pd])
    y0 = np.concatenate([_coordinates(matsY, np.eye(n)), np.zeros(n_w)])
    res = sdp_feasibility(problem, y0=y0)
    if not res.feasible:
        return None, res
    Ytil = _affine(constY, matsY, res.y[:n_y])
    W = res.y[n_y:].reshape(p, n)
    K = W @ np.linalg.inv(Ytil)
    return K, res


# ---------------------------------------------------------------------------
# Output-feedback existence and reconstruction
# ---------------------------------------------------------------------------

#: singular values at most this fraction of the largest count as zero
_NULL_RTOL = 1e-10


def null_space_basis(M) -> np.ndarray:
    """Orthonormal basis of the null space of M via SVD."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    U, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > _NULL_RTOL * s[0]))
    return Vh[rank:, :].T


@dataclass(eq=False)
class OfExistence:
    X: np.ndarray
    Y: np.ndarray
    max_order: int
    status: str

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def of_existence(A, B, C, n_phi: int, epsilon: float = 1e-3) -> OfExistence:
    """Projection-lemma solvability of the structured output-feedback LMIs.

    Returns symmetric (X, Y) blocks of size n - n_phi satisfying the two
    null-space-projected inequalities and the coupling [[X, I], [I, Y]] >= 0;
    max_order = rank(I - Y X) bounds the certifiable controller order.
    """
    _check_epsilon(epsilon)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    d1 = n - n_phi
    if d1 < 0:
        raise DimensionError("n_phi exceeds the state dimension")
    N_C = null_space_basis(C)
    N_B = null_space_basis(B.T)
    constX, matsX = _qc_variables((d1, n_phi, 0))   # diag(X, I)
    n_each = len(matsX)

    blocks = []

    def add_projected(N, A_, first):
        if N.shape[1] == 0:
            return
        F0 = N.T @ _lyap(A_, constX, epsilon) @ N
        coeffs = N.T @ _lyap(A_, matsX, epsilon) @ N
        skip = np.zeros_like(coeffs)
        blocks.append(LmiBlock(F0=F0, coeffs=np.concatenate(
            [coeffs, skip] if first else [skip, coeffs]),
            margin=strict_margin(F0)))

    add_projected(N_C, A, True)
    add_projected(N_B, A.T, False)

    if d1 > 0:
        coeffs = np.concatenate([_sym_vars(2 * d1, 0, d1),
                                 _sym_vars(2 * d1, d1, d1)])
        blocks.append(LmiBlock(F0=-np.kron([[0.0, 1.0], [1.0, 0.0]],
                                           np.eye(d1)),
                               coeffs=-coeffs, margin=-1e-9))

    problem = LmiProblem(blocks=blocks)
    res = sdp_feasibility(problem, y0=np.tile(
        _coordinates(matsX, 2.0 * np.eye(n)), 2))
    X = _sym_unpack(res.y[:n_each], d1)
    Y = _sym_unpack(res.y[n_each:], d1)
    if d1 == 0:
        max_order = 0
    else:
        s = np.linalg.svd(np.eye(d1) - Y @ X, compute_uv=False)
        max_order = int(np.sum(s > 1e-7 * max(1.0, s[0])))
    return OfExistence(X=X, Y=Y, max_order=max_order, status=res.status)


def reconstruct_controller(A, B, C, X, Y, n_K: int, epsilon: float = 1e-3):
    """Controller from feasible (X, Y): complete X_cl, solve the Theta LMI.

    X and Y are of_existence's blocks of size n - n_phi, which gives n_phi.
    X_cl = [[Xtil, L], [L^T, I]] with L L^T = Xtil - Ytil^{-1} (rank <= n_K
    required); with X_cl fixed the Lyapunov inequality is linear in
    Theta = [[A_K, B_K], [C_K, D_K]] and is solved by sdp_feasibility.
    """
    _check_epsilon(epsilon)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = A.shape[0]
    d1 = X.shape[0]
    n_phi = n - d1
    if n_phi < 0 or Y.shape[0] != d1:
        raise DimensionError("X and Y must have one size, at most n")

    Xtil = block_diag(X, np.eye(n_phi)) if d1 else np.eye(n)
    Ytil = block_diag(Y, np.eye(n_phi)) if d1 else np.eye(n)
    S = Xtil - np.linalg.inv(Ytil)
    w, V = np.linalg.eigh(_sym(S))
    w = w[::-1]
    V = V[:, ::-1]
    tol = 1e-7 * max(1.0, abs(w[0]) if len(w) else 1.0)
    rank = int(np.sum(w > tol))
    if rank > n_K:
        raise PreconditionError(
            f"rank(Xtil - Ytil^-1) = {rank} exceeds requested order {n_K}")
    L = V[:, :n_K] * np.sqrt(np.clip(w[:n_K], 0.0, None))
    X_cl = np.block([[Xtil, L], [L.T, np.eye(n_K)]])
    # fixed X_cl: Psi + P^T Theta Q + Q^T Theta^T P < 0, linear in Theta
    Ahat, Bhat, Chat = closed_loop_map(StateSpace(A, B, C), n_K)
    Psi = _lyap(Ahat, X_cl, epsilon)
    rows, cols = Bhat.shape[1], Chat.shape[0]
    M = (Bhat.T @ X_cl).T @ _units(rows, cols) @ Chat
    blk = LmiBlock(F0=Psi, coeffs=M + M.transpose(0, 2, 1),
                   margin=strict_margin(Psi))
    problem = LmiProblem(blocks=[blk])
    res = sdp_feasibility(problem)
    if not res.feasible:
        return None, res
    Theta = res.y.reshape(rows, cols)
    return ControllerRealization.from_theta(Theta, n_K), res
