"""Dense LMI feasibility and the quadratic-constraint stability machinery.

The engine minimizes the worst scaled, margin-shifted top eigenvalue t of
a family of affine symmetric blocks, a small dense SDP, by a primal-dual
interior-point method (HKM directions, Mehrotra predictor-corrector).  Each
verdict carries a witness checked apart from the solver: a point y for
"feasible", a Farkas matrix X for "infeasible".  On top of it sit the
structured Lyapunov analysis for lossless nonlinearities, state-feedback
synthesis, output-feedback existence via the projection lemma, and
controller reconstruction from a completed Lyapunov matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionError, PreconditionError
from .linalg import spectral_abscissa
from .loop import ControllerRealization, assemble_closed_loop
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

    Feasibility requires lambda_max <= -margin; non-strict blocks use a
    small negative margin so that boundary solutions are accepted.
    """

    F0: np.ndarray
    coeffs: list
    margin: float
    name: str = ""

    def value(self, y: np.ndarray) -> np.ndarray:
        S = self.F0.copy()
        for yi, Fi in zip(y, self.coeffs):
            if yi != 0.0 and Fi is not None:
                S = S + yi * Fi
        return S


@dataclass(eq=False)
class LmiProblem:
    blocks: list
    n_vars: int
    var_names: list = field(default_factory=list)

    def __post_init__(self):
        for blk in self.blocks:
            blk.F0 = _sym(blk.F0)
            if len(blk.coeffs) != self.n_vars:
                raise DimensionError("coefficient count must match variables")
            blk.coeffs = [None if F is None else _sym(F) for F in blk.coeffs]

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
    block_values: dict
    iterations: int
    reason: str                 # why the engine stopped (see sdp_feasibility)
    certificate: list | None    # Farkas blocks X_b for "infeasible", else None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _coefficient_stack(problem: LmiProblem, variables) -> list:
    """Per block, the coefficients of ``variables`` as a (k, d, d) array
    (zeros where a block omits a variable)."""
    out = []
    for blk in problem.blocks:
        zero = np.zeros_like(blk.F0)
        out.append(np.stack([zero if blk.coeffs[i] is None else blk.coeffs[i]
                             for i in variables]))
    return out


def _max_step(X: np.ndarray, dX: np.ndarray) -> float:
    """Largest alpha with X + alpha dX positive semidefinite (X > 0)."""
    Linv = np.linalg.inv(np.linalg.cholesky(X))
    lam = np.linalg.eigvalsh(Linv @ dX @ Linv.T)[0]
    return math.inf if lam >= 0 else -1.0 / lam


def _predictor_corrector(A, rhs, X, Z):
    """One Mehrotra predictor-corrector step with HKM directions: (dX, dz,
    alpha_p, alpha_d), or None when Z is numerically singular.  The Schur
    complement M_ij = sum_b tr(A_i X A_j Z^-1) is pseudo-inverted, so
    linearly dependent variables take the least-norm step."""
    try:
        Zinv = [np.linalg.inv(np.linalg.cholesky(Zb)) for Zb in Z]
    except np.linalg.LinAlgError:
        return None
    Zinv = [L.T @ L for L in Zinv]
    M = sum(Ab.reshape(len(Ab), -1) @ (Xb @ Ab @ Zi).reshape(len(Ab), -1).T
            for Ab, Xb, Zi in zip(A, X, Zinv))
    Minv = np.linalg.pinv(0.5 * (M + M.T), hermitian=True)

    def direction(R):
        """Newton step towards X Z = R, symmetrized (HKM)."""
        RZi = [Rb @ Zi for Rb, Zi in zip(R, Zinv)]
        dz = Minv @ (rhs - sum(Ab.reshape(len(Ab), -1) @ W.ravel()
                               for Ab, W in zip(A, RZi)))
        dZ = [-np.tensordot(dz, Ab, 1) for Ab in A]
        dX = [RZ - Xb - Xb @ dZb @ Zi
              for RZ, Xb, dZb, Zi in zip(RZi, X, dZ, Zinv)]
        dX = [0.5 * (D + D.T) for D in dX]
        try:
            a_p = min(_max_step(Xb, D) for Xb, D in zip(X, dX))
            a_d = min(_max_step(Zb, D) for Zb, D in zip(Z, dZ))
        except np.linalg.LinAlgError:
            a_p = a_d = 0.0
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
    A = [np.concatenate([F / s, -np.eye(d)[None]])
         for F, d, s in zip(_coefficient_stack(problem, active), dims, scales)]
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
    F = [np.concatenate([Fb, np.eye(len(Fb[0]))[None]]) for Fb
         in _coefficient_stack(problem, range(problem.n_vars))]
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
              if any(b.coeffs[i] is not None and np.any(b.coeffs[i])
                     for b in problem.blocks)]
    if active:
        y, certificate, iterations, reason = _interior_point(problem, active,
                                                             y)
    else:
        certificate, iterations, reason = None, 0, "no variables"
    raw, worst, worst_blk = {}, -math.inf, None
    for blk in problem.blocks:
        lam, V = scipy.linalg.eigh(blk.value(y))
        raw[blk.name or f"block{len(raw)}"] = float(lam[-1])
        if lam[-1] + blk.margin > worst:
            worst, worst_blk, v = lam[-1] + blk.margin, blk, V[:, -1]
    margin = max(raw.values())
    if worst < 0:
        return FeasibilityResult(
            "feasible", y, margin, raw, iterations,
            "interior point verified" if active else "no variables", None)
    if not active and worst > 0:
        certificate = [np.outer(v, v) if b is worst_blk
                       else np.zeros_like(b.F0) for b in problem.blocks]
    return FeasibilityResult(
        "indeterminate" if certificate is None else "infeasible", y, margin,
        raw, iterations, "stalled" if reason == "interior" else reason,
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
    partition: tuple
    iterations: int
    reason: str

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _sym_basis(d):
    """Symmetric basis matrices for a d x d block."""
    out = []
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0
            out.append(E)
    return out


def _qc_variables(partition):
    """Embedding matrices for the free entries of the structured X_cl."""
    d1, d2, d3 = partition
    dim = d1 + d2 + d3
    mats = []
    names = []
    for E in _sym_basis(d1):
        M = np.zeros((dim, dim))
        M[:d1, :d1] = E
        mats.append(M)
        names.append("X")
    for i in range(d1):
        for j in range(d3):
            M = np.zeros((dim, dim))
            M[i, d1 + d2 + j] = M[d1 + d2 + j, i] = 1.0
            mats.append(M)
            names.append("X13")
    for E in _sym_basis(d3):
        M = np.zeros((dim, dim))
        M[d1 + d2:, d1 + d2:] = E
        mats.append(M)
        names.append("X33")
    const = np.zeros((dim, dim))
    const[d1:d1 + d2, d1:d1 + d2] = np.eye(d2)
    return const, mats, names


def qc_problem(A_cl: np.ndarray, partition, epsilon: float) -> LmiProblem:
    """LMI problem for the reduced structured Lyapunov inequality."""
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    d1, d2, d3 = partition
    if d1 + d2 + d3 != A_cl.shape[0]:
        raise DimensionError("partition does not match A_cl")
    const, mats, names = _qc_variables(partition)

    def lyap(M):
        return A_cl.T @ M + M @ A_cl + epsilon * M

    blk_stab = LmiBlock(F0=lyap(const), coeffs=[lyap(M) for M in mats],
                        margin=strict_margin(lyap(const)), name="lyapunov")
    blk_pd = LmiBlock(F0=-const, coeffs=[-M for M in mats],
                      margin=1e-8, name="positivity")
    return LmiProblem(blocks=[blk_stab, blk_pd], n_vars=len(mats),
                      var_names=names)


def _qc_assemble_X(partition, y):
    const, mats, _ = _qc_variables(partition)
    X = const.copy()
    for yi, M in zip(y, mats):
        X += yi * M
    return X


def _qc_warm_start(A_cl, partition, epsilon):
    """Project the unstructured Lyapunov solution onto the X_cl structure.

    Solves (A_cl + eps/2 I)^T P + P (A_cl + eps/2 I) = -I, rescales so the
    pinned middle block has unit trace average, and keeps only the
    structured entries.  For lossless channels this usually lands inside
    the feasible set already.  Needs spectral_abscissa(A_cl) < -eps/2, so
    that P > 0; without a pinned block it starts from the identity.
    """
    d1, d2, d3 = partition
    dim = A_cl.shape[0]
    shifted = A_cl + 0.5 * epsilon * np.eye(dim)
    P = scipy.linalg.solve_continuous_lyapunov(shifted.T, -np.eye(dim))
    trace = float(np.trace(P[d1:d1 + d2, d1:d1 + d2]))
    P = 0.5 * (P + P.T) * (d2 / trace) if trace > 0 else np.eye(dim)
    tail = slice(d1 + d2, dim)
    return np.concatenate([P[:d1, :d1][np.triu_indices(d1)],
                           P[:d1, tail].ravel(),
                           P[tail, tail][np.triu_indices(d3)]])


def qc_analysis(A_cl, partition, epsilon: float = 1e-3) -> QcCertificate:
    """Global-stability certificate for a lossless nonlinearity channel.

    partition = (n - n_phi, n_phi, n_K) orders the states as (states not
    driven by the nonlinearity | driven states | controller states); the
    middle Lyapunov block is pinned to the identity.

    A loop with spectral abscissa alpha >= -eps/2 is infeasible without the
    engine: A v = lambda v gives v^* (A^T X + X A + eps X) v
    = (2 Re lambda + eps) v^* X v >= 0 for every X > 0.
    """
    A_cl = np.atleast_2d(np.asarray(A_cl, dtype=float))
    problem = qc_problem(A_cl, partition, epsilon)
    alpha = spectral_abscissa(A_cl)
    if alpha >= -0.5 * epsilon:
        return QcCertificate(X_cl=None, epsilon=epsilon, status="infeasible",
                             margin=2.0 * alpha + epsilon,
                             partition=tuple(partition), iterations=0,
                             reason="spectral abscissa")
    res = sdp_feasibility(problem, y0=_qc_warm_start(A_cl, partition, epsilon))
    X_cl, margin = None, res.margin
    if res.feasible:
        X_cl = _qc_assemble_X(partition, res.y)
        resid = A_cl.T @ X_cl + X_cl @ A_cl + epsilon * X_cl
        margin = float(np.max(scipy.linalg.eigvalsh(resid)))
    return QcCertificate(X_cl=X_cl, epsilon=epsilon, status=res.status,
                         margin=margin, partition=tuple(partition),
                         iterations=res.iterations, reason=res.reason)


def qc_analysis_closed_loop(model, controller: ControllerRealization,
                            epsilon: float = 1e-3) -> QcCertificate:
    """qc_analysis for a benchmark model closed with a controller.

    The model supplies (A, B_u, C_y, B_w, n_phi); states are permuted so
    that the nonlinearity-driven block sits in the middle of the partition.
    """
    plant = StateSpace(model.A, model.B_u, model.C_y)
    cl = assemble_closed_loop(plant, controller, B_w=model.B_w)
    perm = _losslessness_permutation(model.B_w, cl.n_K)
    A_p = cl.A_cl[np.ix_(perm, perm)]
    n = model.A.shape[0]
    partition = (n - model.n_phi, model.n_phi, cl.n_K)
    return qc_analysis(A_p, partition, epsilon=epsilon)


def _losslessness_permutation(B_w, n_K):
    """State order (undriven | driven-by-w | controller)."""
    B_w = np.atleast_2d(np.asarray(B_w, dtype=float))
    n = B_w.shape[0]
    driven = [i for i in range(n) if np.any(B_w[i, :])]
    undriven = [i for i in range(n) if i not in driven]
    return undriven + driven + [n + k for k in range(n_K)]


def lossless_check(model, samples: int = 100000, seed: int = 0,
                   radius: float = 100.0):
    """max over random states of |x^T B_w phi(x)|, raw and relative.

    Sampling is falsification-only: a zero maximum is evidence of the
    lossless identity, not a proof.
    """
    rng = np.random.default_rng(seed)
    n = model.A.shape[0]
    max_abs = 0.0
    max_rel = 0.0
    for _ in range(samples):
        x = rng.uniform(-radius, radius, size=n)
        w = model.phi(x)
        inner = float(x @ model.B_w @ w)
        denom = float(np.linalg.norm(x) * np.linalg.norm(model.B_w @ w)) + 1e-300
        max_abs = max(max_abs, abs(inner))
        max_rel = max(max_rel, abs(inner) / denom)
    return max_abs, max_rel


# ---------------------------------------------------------------------------
# State-feedback synthesis (lossless channel)
# ---------------------------------------------------------------------------

def _diagY_embed(n, d1):
    """Variable embedding for diag(Y, I_{n-d1}) with Y symmetric d1 x d1."""
    mats = []
    for E in _sym_basis(d1):
        M = np.zeros((n, n))
        M[:d1, :d1] = E
        mats.append(M)
    const = np.zeros((n, n))
    const[d1:, d1:] = np.eye(n - d1)
    return const, mats


def sf_synthesis(A, B, n_phi: int, epsilon: float = 1e-3):
    """State-feedback gain certifying the structured Lyapunov inequality.

    Solves A Ytil + B W + (.)^T < -eps Ytil over Ytil = diag(Y, I_{n_phi}),
    Y > 0 and W, then returns K = W Ytil^{-1} together with (Y, W).  The
    returned gain is re-verified through qc_analysis on A + B K.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    p = B.shape[1]
    d1 = n - n_phi
    if d1 < 0:
        raise DimensionError("n_phi exceeds the state dimension")
    constY, matsY = _diagY_embed(n, d1)
    n_y = len(matsY)
    n_w = p * n
    n_vars = n_y + n_w

    def wmat(idx):
        W = np.zeros((p, n))
        W[idx // n, idx % n] = 1.0
        return W

    F0 = A @ constY + constY @ A.T + epsilon * constY
    coeffs = []
    for M in matsY:
        coeffs.append(A @ M + M @ A.T + epsilon * M)
    for k in range(n_w):
        BW = B @ wmat(k)
        coeffs.append(BW + BW.T)
    blk_main = LmiBlock(F0=_sym(F0), coeffs=coeffs,
                        margin=strict_margin(F0), name="sf")
    blk_pd = LmiBlock(F0=-constY, coeffs=[-M for M in matsY] + [None] * n_w,
                      margin=1e-8, name="Y_pd")
    problem = LmiProblem(blocks=[blk_main, blk_pd], n_vars=n_vars)
    y0 = np.zeros(n_vars)
    at = 0
    for i in range(d1):
        for j in range(i, d1):
            y0[at] = 1.0 if i == j else 0.0
            at += 1
    res = sdp_feasibility(problem, y0=y0)
    if not res.feasible:
        return None, res
    Ytil = constY.copy()
    for yi, M in zip(res.y[:n_y], matsY):
        Ytil += yi * M
    W = res.y[n_y:].reshape(p, n)
    K = W @ np.linalg.inv(Ytil)
    return K, res


# ---------------------------------------------------------------------------
# Output-feedback existence and reconstruction
# ---------------------------------------------------------------------------

def null_space_basis(M, rtol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the null space of M via SVD."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0 or not np.any(M):
        return np.eye(M.shape[1])
    U, s, Vh = np.linalg.svd(M)
    rank = int(np.sum(s > rtol * s[0]))
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
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    d1 = n - n_phi
    if d1 < 0:
        raise DimensionError("n_phi exceeds the state dimension")
    N_C = null_space_basis(C)
    N_B = null_space_basis(B.T)
    constX, matsX = _diagY_embed(n, d1)
    n_each = len(matsX)
    n_vars = 2 * n_each

    blocks = []

    def add_projected(N, transpose, offset, name):
        if N.shape[1] == 0:
            return
        if transpose:
            base = A.T @ constX + constX @ A + epsilon * constX
            cf = [A.T @ M + M @ A + epsilon * M for M in matsX]
        else:
            base = A @ constX + constX @ A.T + epsilon * constX
            cf = [A @ M + M @ A.T + epsilon * M for M in matsX]
        F0 = N.T @ base @ N
        coeffs = [None] * n_vars
        for k, Mc in enumerate(cf):
            coeffs[offset + k] = N.T @ Mc @ N
        blocks.append(LmiBlock(F0=_sym(F0), coeffs=coeffs,
                               margin=strict_margin(F0), name=name))

    add_projected(N_C, True, 0, "proj_X")
    add_projected(N_B, False, n_each, "proj_Y")

    if d1 > 0:
        dim = 2 * d1
        F0 = np.zeros((dim, dim))
        F0[:d1, d1:] = np.eye(d1)
        F0[d1:, :d1] = np.eye(d1)
        coeffs = [None] * n_vars
        for k, E in enumerate(_sym_basis(d1)):
            MX = np.zeros((dim, dim))
            MX[:d1, :d1] = E
            MY = np.zeros((dim, dim))
            MY[d1:, d1:] = E
            coeffs[k] = -MX
            coeffs[n_each + k] = -MY
        blocks.append(LmiBlock(F0=-F0, coeffs=coeffs, margin=-1e-9,
                               name="coupling"))

    problem = LmiProblem(blocks=blocks, n_vars=n_vars)
    y0 = np.zeros(n_vars)
    at = 0
    for i in range(d1):
        for j in range(i, d1):
            val = 2.0 if i == j else 0.0
            y0[at] = val
            y0[n_each + at] = val
            at += 1
    res = sdp_feasibility(problem, y0=y0)

    def unpackXY(y, offset):
        M = np.zeros((d1, d1))
        at = offset
        for i in range(d1):
            for j in range(i, d1):
                M[i, j] = M[j, i] = y[at]
                at += 1
        return M

    X = unpackXY(res.y, 0)
    Y = unpackXY(res.y, n_each)
    if d1 == 0:
        max_order = 0
    else:
        s = np.linalg.svd(np.eye(d1) - Y @ X, compute_uv=False)
        max_order = int(np.sum(s > 1e-7 * max(1.0, s[0])))
    return OfExistence(X=X, Y=Y, max_order=max_order, status=res.status)


def _theta_hat_matrices(A, B, C, n_K):
    """A_cl = Ahat + Bhat Theta Chat for Theta = [[A_K, B_K], [C_K, D_K]]."""
    n = A.shape[0]
    p = B.shape[1]
    m = C.shape[0]
    Ahat = np.block([[A, np.zeros((n, n_K))],
                     [np.zeros((n_K, n)), np.zeros((n_K, n_K))]])
    Bhat = np.block([[np.zeros((n, n_K)), B],
                     [np.eye(n_K), np.zeros((n_K, p))]])
    Chat = np.block([[np.zeros((n_K, n)), np.eye(n_K)],
                     [C, np.zeros((m, n_K))]])
    return Ahat, Bhat, Chat


def reconstruct_controller(A, B, C, X, Y, n_K: int, epsilon: float = 1e-3,
                           n_phi: int | None = None):
    """Controller from feasible (X, Y): complete X_cl, solve the Theta LMI.

    X_cl = [[Xtil, L], [L^T, I]] with L L^T = Xtil - Ytil^{-1} (rank <= n_K
    required); with X_cl fixed the Lyapunov inequality is linear in
    Theta = [[A_K, B_K], [C_K, D_K]] and is solved by sdp_feasibility.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = A.shape[0]
    d1 = X.shape[0]
    if n_phi is None:
        n_phi = n - d1
    if d1 != n - n_phi or Y.shape[0] != d1:
        raise DimensionError("X/Y blocks do not match n - n_phi")

    Xtil = scipy.linalg.block_diag(X, np.eye(n_phi)) if d1 else np.eye(n)
    Ytil = scipy.linalg.block_diag(Y, np.eye(n_phi)) if d1 else np.eye(n)
    S = Xtil - np.linalg.inv(Ytil)
    w, V = scipy.linalg.eigh(_sym(S))
    w = w[::-1]
    V = V[:, ::-1]
    tol = 1e-7 * max(1.0, abs(w[0]) if len(w) else 1.0)
    rank = int(np.sum(w > tol))
    if rank > n_K:
        raise PreconditionError(
            f"rank(Xtil - Ytil^-1) = {rank} exceeds requested order {n_K}")
    L = V[:, :n_K] * np.sqrt(np.clip(w[:n_K], 0.0, None))
    if n_K:
        X_cl = np.block([[Xtil, L], [L.T, np.eye(n_K)]])
    else:
        X_cl = Xtil
    # fixed X_cl: Psi + P^T Theta Q + Q^T Theta^T P < 0, linear in Theta
    Ahat, Bhat, Chat = _theta_hat_matrices(A, B, C, n_K)
    Psi = Ahat.T @ X_cl + X_cl @ Ahat + epsilon * X_cl
    P = Bhat.T @ X_cl
    Q = Chat
    p = B.shape[1]
    m = C.shape[0]
    rows = n_K + p
    cols = n_K + m
    coeffs = []
    for r in range(rows):
        for c in range(cols):
            E = np.zeros((rows, cols))
            E[r, c] = 1.0
            M = P.T @ E @ Q
            coeffs.append(M + M.T)
    blk = LmiBlock(F0=_sym(Psi), coeffs=coeffs, margin=strict_margin(Psi),
                   name="theta")
    problem = LmiProblem(blocks=[blk], n_vars=rows * cols)
    res = sdp_feasibility(problem)
    if not res.feasible:
        return None, res
    Theta = res.y.reshape(rows, cols)
    A_K = Theta[:n_K, :n_K]
    B_K = Theta[:n_K, n_K:]
    C_K = Theta[n_K:, :n_K]
    D_K = Theta[n_K:, n_K:]
    return ControllerRealization(A_K, B_K, C_K, D_K), res
