"""Property tests of the shared finite-difference gradient path and of the
one Stormer-Verlet stepper.

The pairwise bracket and the involution matrix and completeness Jacobian
of ``involution_and_jacobian`` all take their gradients from one
central-difference route, so they must agree bit for bit.  The
observables are dense quadratic forms in z = (q, p) plus a sine term,
f(z) = z.A z / 2 + b.sin(z), which couple every coordinate with every
momentum and have the analytic gradient A_sym z + b cos(z).

``evolve`` and ``symplectic_step`` run the same kick-drift-kick loop, so a
trajectory's end state equals chained single steps bit for bit; the step
is time-reversible and its one-step map is symplectic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlab.canonical import (
    CanonicalState,
    Observable,
    ObservableSet,
    _gradients,
    evolve,
    involution_and_jacobian,
    poisson_bracket,
    symplectic_step,
)
from hamlab.string import string_hamiltonian

H_FD = 1e-5
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
CASES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))


def make_case(dim, n_obs, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n_obs, 2 * dim, 2 * dim))
    b = rng.normal(size=(n_obs, 2 * dim))

    def make(i):
        def fn(q, p):
            z = np.concatenate([q, p])
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
    B = involution_and_jacobian(obs, s, H_FD)[0]
    assert np.array_equal(B, -B.T)
    assert np.all(np.diag(B) == 0.0)


@SETTINGS
@given(CASES)
def test_involution_matrix_equals_pairwise_bracket(case):
    obs, s, _ = make_case(*case)
    B = involution_and_jacobian(obs, s, H_FD)[0]
    fs = obs.observables
    for i in range(len(fs)):
        for j in range(len(fs)):
            if i != j:
                assert B[i, j] == poisson_bracket(fs[i], fs[j], s, H_FD)


@SETTINGS
@given(CASES)
def test_jacobian_is_the_p_gradients(case):
    obs, s, grads = make_case(*case)
    J = involution_and_jacobian(obs, s, H_FD)[1]
    rows = np.stack([_gradients([o], s.q, s.p, H_FD, "p")[0] for o in obs])
    assert np.array_equal(J, rows)
    dim = s.dim
    assert np.max(np.abs(J - grads[:, dim:])) < 1e-7


@SETTINGS
@given(CASES)
def test_one_table_pair_gives_matrix_and_jacobian(case):
    # each observable is differentiated once per side: 2 dim evaluations a side
    obs, s, _ = make_case(*case)
    calls = [0] * len(obs)

    def counted(i, o):
        def fn(q, p):
            calls[i] += 1
            return o.fn(q, p)

        return Observable(o.name, fn)

    B, J = involution_and_jacobian(ObservableSet([counted(i, o) for i, o in enumerate(obs)]), s, H_FD)
    assert calls == [4 * s.dim] * len(obs)
    B_plain, J_plain = involution_and_jacobian(obs, s, H_FD)
    assert np.array_equal(B, B_plain) and np.array_equal(J, J_plain)


# (modes N, steps, seed, dt): dt * N <= 0.8 keeps every mode inside the
# Verlet stability limit dt * n < 2
STEPPER_CASES = st.tuples(
    st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1e-3, 0.1)
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return CanonicalState(rng.normal(size=n), rng.normal(size=n), t=rng.uniform(-1.0, 1.0))


@SETTINGS
@given(STEPPER_CASES)
def test_evolve_equals_chained_steps(case):
    n, steps, seed, dt = case
    H, s = string_hamiltonian(n), random_state(n, seed)
    t, q, p = evolve(H, s, dt, steps, record_stride=7)
    cur = s
    for _ in range(steps):
        cur = symplectic_step(H, cur, dt)
    assert np.array_equal(q[-1], cur.q)
    assert np.array_equal(p[-1], cur.p)
    assert t[-1] == cur.t


@SETTINGS
@given(STEPPER_CASES)
def test_forward_then_backward_returns(case):
    n, steps, seed, dt = case
    H, s = string_hamiltonian(n), random_state(n, seed)
    cur = s
    for _ in range(steps):
        cur = symplectic_step(H, cur, dt)
    for _ in range(steps):
        cur = symplectic_step(H, cur, -dt)
    assert np.max(np.abs(cur.q - s.q)) < 1e-12
    assert np.max(np.abs(cur.p - s.p)) < 1e-12
    assert abs(cur.t - s.t) < 1e-12


@SETTINGS
@given(st.integers(1, 8), st.floats(1e-3, 0.1))
def test_one_step_map_is_symplectic(n, dt):
    # the string system is linear, so the step is z -> M z with column j of
    # M the image of the j-th unit vector of z = (q, p)
    H = string_hamiltonian(n)
    M = np.empty((2 * n, 2 * n))
    for j, z in enumerate(np.eye(2 * n)):
        out = symplectic_step(H, CanonicalState(z[:n], z[n:]), dt)
        M[:, j] = np.concatenate([out.q, out.p])
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    assert np.max(np.abs(M.T @ omega @ M - omega)) < 1e-13
