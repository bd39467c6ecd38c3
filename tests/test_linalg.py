import numpy as np
import pytest

from kreisslab.errors import NumericalError, StabilityError
from kreisslab.linalg import (
    balance,
    block_diag,
    expm,
    is_hurwitz,
    solve_lyapunov,
    spectral_abscissa,
    svd_triple,
)

from conftest import random_stable_statespace


def test_svd_identity():
    triple = svd_triple(np.eye(3))
    assert triple.sigma_max == pytest.approx(1.0)
    assert triple.Q.shape == (3, 3)  # full cluster at a triple singular value


def test_svd_row_vector():
    triple = svd_triple(np.array([[1.0, 1.0]]))
    assert triple.sigma_max == pytest.approx(np.sqrt(2.0))


def test_svd_example8_cb():
    B = np.array([[0.4722, 0.7973], [0.0339, 0.5553]])
    triple = svd_triple(np.eye(2) @ B)
    assert triple.sigma_max == pytest.approx(1.0577, abs=1e-3)


def test_svd_orthonormality_and_reconstruction(rng):
    for _ in range(20):
        M = rng.standard_normal((4, 3))
        triple = svd_triple(M)
        assert np.allclose(triple.Q.T @ triple.Q,
                           np.eye(triple.Q.shape[1]), atol=1e-10)
        assert np.allclose(triple.P.T @ triple.P,
                           np.eye(triple.P.shape[1]), atol=1e-10)
        U, s, Vt = np.linalg.svd(M)
        recon = (U[:, :len(s)] * s) @ Vt[:len(s), :]
        assert np.linalg.norm(M - recon) <= 1e-10 * np.linalg.norm(M)
        assert triple.sigma_max == s[0]


def test_lyapunov_scalar_cases():
    assert solve_lyapunov([[-1.0]], [[2.0]])[0, 0] == pytest.approx(1.0)
    assert solve_lyapunov([[-1.0]], [[1.0]])[0, 0] == pytest.approx(0.5)


def test_lyapunov_matches_kronecker_oracle(rng):
    A = random_stable_statespace(rng, 4).A
    W = rng.standard_normal((4, 4))
    W = W + W.T
    Q = solve_lyapunov(A, W)
    # vectorized oracle: (I (x) A + A (x) I) vec(Q) = -vec(W)
    K = np.kron(np.eye(4), A) + np.kron(A, np.eye(4))
    q_oracle = np.linalg.solve(K, -W.ravel(order="F")).reshape(4, 4, order="F")
    assert np.allclose(Q, q_oracle, atol=1e-9 * max(1, np.abs(W).max()))


def test_lyapunov_matches_bartels_stewart(rng):
    import scipy.linalg  # the reference only: the package does not use it
    for n in range(1, 13):
        A = random_stable_statespace(rng, n).A
        B = rng.standard_normal((n, 2))
        want = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
        got = solve_lyapunov(A, B @ B.T)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_lyapunov_psd_for_psd_input(rng):
    for _ in range(10):
        A = random_stable_statespace(rng, 4).A
        B = rng.standard_normal((4, 2))
        Q = solve_lyapunov(A, B @ B.T)
        assert np.min(np.linalg.eigvalsh(Q)) >= -1e-10


def test_lyapunov_requires_hurwitz():
    with pytest.raises(StabilityError):
        solve_lyapunov([[1.0]], [[1.0]])


def test_expm_matches_scipy(rng):
    import scipy.linalg  # the reference only: the package does not use it
    for _ in range(300):
        n = int(rng.integers(2, 13))
        A = rng.standard_normal((n, n))
        A *= np.exp(rng.uniform(np.log(0.1), np.log(20.0))) \
            / np.abs(A).sum(axis=0).max()               # ||A||_1 in [0.1, 20]
        want = scipy.linalg.expm(A)
        assert np.linalg.norm(expm(A) - want) <= 1e-10 * np.linalg.norm(want)


def test_expm_stack_member_is_its_own_call(rng):
    # stable matrices with 1-norms from 1e-3 to 1e3: 0 to 8 squarings
    A = rng.standard_normal((4, 6, 5, 5))
    A -= (np.linalg.eigvals(A).real.max(axis=-1) + 0.1)[..., None, None] \
        * np.eye(5)
    A *= np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (4, 6, 1, 1))) \
        / np.abs(A).sum(axis=-2).max(axis=-1)[..., None, None]
    A[0, 0] = 0.0
    E = expm(A)
    assert np.abs(E[0, 0] - np.eye(5)).max() <= 1e-15
    for idx in np.ndindex(4, 6):
        assert np.array_equal(E[idx], expm(A[idx]))
        assert np.array_equal(E[idx], expm(A[idx][None])[0])


def test_expm_refuses_a_norm_that_is_not_finite():
    # finite entries whose column sum overflows, alone and in a stack
    A = np.array([[-1.0, 1e308], [0.0, 1e308]])
    for M in (A, np.stack([-np.eye(2), A])):
        with pytest.raises(NumericalError), np.errstate(over="ignore"):
            expm(M)


@pytest.mark.xfail(strict=True, reason=(
    "expm takes its squarings from ||A||_1 alone, which overscales a "
    "non-normal A: scaling by ||A^k||^{1/k} (Al-Mohy and Higham, SIAM J. "
    "Matrix Anal. Appl. 31(3), 2009) would take far fewer"))
@pytest.mark.parametrize("coupling", [1e8, 1e20])
def test_expm_of_a_scaled_shift_keeps_its_corner(coupling):
    # e^{2A} = e^{-2} (I + 2 c N + 2 c^2 N^2) for A = -I + c N, N the shift;
    # the corner reads 0.0 at c = 1e20 and is 7.4e-9 off at c = 1e8
    A = -np.eye(3) + coupling * np.eye(3, k=1)
    assert expm(2.0 * A)[0, 2] == pytest.approx(
        2.0 * coupling ** 2 * np.exp(-2.0), rel=1e-12)


def test_balance_undoes_a_diagonal_scaling(rng):
    for n in range(2, 13):
        A = rng.standard_normal((n, n))
        d = 10.0 ** rng.uniform(-5.5, 5.5, n)
        scaled = A / d[:, None] * d
        e = balance(scaled)
        assert np.array_equal(np.frexp(e)[0], np.full(n, 0.5))  # powers of 2
        M = scaled / e[:, None] * e
        # exact: the scaled entries are those of a balanced matrix
        assert np.array_equal(M * e[:, None] / e, scaled)
        off = np.abs(M - np.diag(np.diag(M)))
        ratio = off.sum(axis=0) / off.sum(axis=1)
        assert np.all((ratio > 0.4) & (ratio < 2.5))
        assert np.linalg.norm(M, 1) <= np.linalg.norm(A, 1) * 4.0 * n


def test_balance_keeps_a_state_with_a_zero_column_or_row():
    # a Jordan block: the first column and last row are zero off the diagonal
    J = -np.eye(4) + 1e6 * np.eye(4, k=1)
    assert np.array_equal(balance(J)[[0, -1]], [1.0, 1.0])
    assert np.array_equal(balance(np.diag([-1.0, -2.0])), [1.0, 1.0])


def test_block_diag_places_blocks():
    M = block_diag(np.ones((2, 3)), 2.0 * np.eye(1), np.zeros((0, 0)))
    assert M.shape == (3, 4)
    assert np.array_equal(M, [[1, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 2]])


def test_spectral_abscissa_examples():
    assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    assert spectral_abscissa([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(0.0,
                                                                        abs=1e-12)


def _cubic_roots_oracle(a2, a1, a0):
    """Roots of s^3 + a2 s^2 + a1 s + a0 by bisection plus deflation."""
    def f(x):
        return ((x + a2) * x + a1) * x + a0

    lo, hi = -1e6, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    r = 0.5 * (lo + hi)
    # deflate: s^2 + (a2 + r) s + (a1 + r(a2 + r))
    b1 = a2 + r
    b0 = a1 + r * b1
    disc = complex(b1 * b1 - 4 * b0) ** 0.5
    return [r, (-b1 + disc) / 2, (-b1 - disc) / 2]


def test_eig_companion_cubic_matches_root_oracle():
    a2, a1, a0 = 1.0, 1.0, 0.9608
    A = np.array([[0, 1, 0], [0, 0, 1], [-a0, -a1, -a2]], dtype=float)
    want = max(z.real for z in _cubic_roots_oracle(a2, a1, a0))
    assert abs(spectral_abscissa(A) - want) <= 1e-8


def test_numerical_abscissa_examples():
    # the numerical abscissa 0.5 lambda_max(A + A^T) is the directional
    # derivative of sigma_max at the identity in direction A
    h = 1e-7
    for A, slope in ((-np.eye(2), -1.0), ([[0.0, 1.0], [0.0, 0.0]], 0.5)):
        A = np.asarray(A)
        assert 0.5 * np.max(np.linalg.eigvalsh(A + A.T)) == slope
        fd = (svd_triple(np.eye(2) + h * A).sigma_max - 1.0) / h
        assert fd == pytest.approx(slope, abs=1e-6)


def test_abscissa_field_of_values_containment(rng):
    for _ in range(100):
        A = rng.standard_normal((4, 4))
        # the numerical abscissa: the field of values contains the spectrum
        numerical = 0.5 * np.max(np.linalg.eigvalsh(A + A.T))
        assert spectral_abscissa(A) <= numerical + 1e-12


def test_is_hurwitz():
    assert is_hurwitz(-np.eye(2))
    assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])
