"""Property tests of the shared finite-difference gradient path.

The pairwise bracket, the involution matrix and the completeness Jacobian
all take their gradients from one central-difference route, so they must
agree bit for bit.  The observables are dense quadratic forms in z = (q, p)
plus a sine term, f(z) = z.A z / 2 + b.sin(z), which couple every
coordinate with every momentum and have the analytic gradient
A_sym z + b cos(z).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.canonical import (
    CanonicalState,
    Observable,
    ObservableSet,
    _observable_gradient,
    completeness_jacobian,
    involution_matrix,
    poisson_bracket,
)

H_FD = 1e-5
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
CASES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))


def make_case(dim, n_obs, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_obs, 2 * dim, 2 * dim))
    b = rng.normal(size=(n_obs, 2 * dim))

    def make(i):
        def fn(s):
            z = np.concatenate([s.q, s.p])
            return 0.5 * float(z @ A[i] @ z) + float(b[i] @ np.sin(z))

        return Observable(f"f{i}", fn)

    obs = ObservableSet([make(i) for i in range(n_obs)])
    state = CanonicalState(rng.normal(size=dim), rng.normal(size=dim), t=0.7)
    z = np.concatenate([state.q, state.p])
    grads = np.stack([0.5 * (A[i] + A[i].T) @ z + b[i] * np.cos(z) for i in range(n_obs)])
    return obs, state, grads


@SETTINGS
@given(CASES)
def test_involution_matrix_exactly_antisymmetric(case):
    obs, s, _ = make_case(*case)
    B = involution_matrix(obs, s, H_FD)
    assert np.array_equal(B, -B.T)
    assert np.all(np.diag(B) == 0.0)


@SETTINGS
@given(CASES)
def test_involution_matrix_equals_pairwise_bracket(case):
    obs, s, _ = make_case(*case)
    B = involution_matrix(obs, s, H_FD)
    fs = obs.observables
    for i in range(len(fs)):
        for j in range(len(fs)):
            if i != j:
                assert B[i, j] == poisson_bracket(fs[i], fs[j], s, H_FD)


@SETTINGS
@given(CASES)
def test_jacobian_is_the_p_gradients(case):
    obs, s, grads = make_case(*case)
    J = completeness_jacobian(obs, s, H_FD)
    rows = np.stack([_observable_gradient(o, s, H_FD, "p") for o in obs])
    assert np.array_equal(J, rows)
    dim = s.dim
    assert np.max(np.abs(J - grads[:, dim:])) < 1e-7
