import numpy as np
import pytest

from kreisslab.statespace import StateSpace


def random_stable_statespace(rng, n, p=1, m=1, margin=0.3, oscillatory=True):
    """Random Hurwitz system; oscillatory keeps lightly damped modes around."""
    A = rng.standard_normal((n, n))
    if oscillatory:
        A = A - (np.max(np.linalg.eigvals(A).real) + margin) * np.eye(n)
    else:
        A = -0.5 * (A @ A.T) - margin * np.eye(n)
    B = rng.standard_normal((n, p))
    C = rng.standard_normal((m, n))
    return StateSpace(A, B, C)


def random_suite(seed, count):
    """The criterion-5 (seed 2024) and criterion-6 (seed 77) suites."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        yield random_stable_statespace(rng, n, p=p, m=m,
                                       oscillatory=bool(k % 2))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
