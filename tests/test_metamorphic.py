"""Metamorphic checks: a change of realization leaves every norm as it is.

A diagonal similarity (A, B, C) -> (D^-1 A D, D^-1 B, C D) keeps the
transfer function and the impulse response, so the Kreiss norm, the
H-infinity norm, M0 and the peak gain must not move with it.  The systems
have the analyze benchmark's mix of n, p, m and damping (its seed-1
suite); the scalings 10^U(-5.5, 5.5) per state come from a generator of
their own, so each system's D is fixed.
"""

import numpy as np
import pytest

from kreisslab.norms import (hinf_norm, kreiss_norm, peak_gain,
                             transient_peak_m0)
from kreisslab.statespace import StateSpace

from conftest import random_stable_statespace


def _scaled_pairs(count=40):
    systems, scalings = np.random.default_rng(1), np.random.default_rng(0)
    for k in range(count):
        sys = random_stable_statespace(
            systems, 2 + k % 11, p=1 + k % 3, m=1 + (k // 3) % 3,
            margin=0.01 if k % 5 == 4 else 0.3, oscillatory=bool(k % 2))
        d = 10.0 ** scalings.uniform(-5.5, 5.5, sys.n)
        yield sys, StateSpace(sys.A / d[:, None] * d, sys.B / d[:, None],
                              sys.C * d)


@pytest.mark.parametrize("sys, scaled", list(_scaled_pairs()))
def test_norms_do_not_move_under_a_diagonal_similarity(sys, scaled):
    # M0 refines in x = log1p(t / t_1), so an early peak is located to a
    # fraction of its own time, whatever horizon the realization gives
    for norm, rel in ((kreiss_norm, 1e-9), (hinf_norm, 1e-9),
                      (transient_peak_m0, 1e-12), (peak_gain, 1e-9)):
        want = norm(sys).value
        assert norm(scaled).value == pytest.approx(want, rel=rel, abs=0.0), \
            norm.__name__
