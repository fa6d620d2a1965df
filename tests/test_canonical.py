"""Tests for the truncated canonical phase-space core."""

import math

import numpy as np
import pytest

from hamlab import (
    BlowUpError,
    CanonicalState,
    CompletenessError,
    DivergenceError,
    EvaluationError,
    Observable,
    ObservableSet,
    check_gradients,
    conservation_drift,
    evolve,
    involution_and_jacobian,
    numerical_rank,
    poisson_bracket,
    poisson_bracket_analytic,
    recover_momenta,
    symplectic_step,
)
from hamlab.string import string_hamiltonian

H_FD = 1e-5
# Canonical relations hold to O(h^2) for central differences.
FD_TOL = 10 * H_FD**2


def coord(i):
    return Observable(f"q{i+1}", lambda q, p, i=i: q[i])


def momentum(i):
    return Observable(f"p{i+1}", lambda q, p, i=i: p[i])


def quadratic_energies(n):
    """f_k = (p_k^2 + k^2 q_k^2) / 2, the independent-oscillator family."""

    def make(k):
        return Observable(f"f{k}", lambda q, p, k=k: 0.5 * (p[k - 1] ** 2 + k**2 * q[k - 1] ** 2))

    return ObservableSet([make(k) for k in range(1, n + 1)])


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return CanonicalState(rng.normal(size=n), rng.normal(size=n), t=0.3)


def oscillator():
    return Observable(
        "oscillator",
        lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
        grad_q=lambda q, p: q,
        grad_p=lambda q, p: p,
    )


def counted_oscillator(calls):
    """The oscillator, appending each gradient call's side to ``calls``."""

    def counted(side, grad):
        def fn(q, p):
            calls.append(side)
            return grad(q, p)

        return fn

    return Observable(
        "oscillator",
        lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
        grad_q=counted("grad_q", lambda q, p: q),
        grad_p=counted("grad_p", lambda q, p: p),
    )


class TestCanonicalState:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CanonicalState([1.0, 2.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CanonicalState([np.inf], [0.0])
        with pytest.raises(ValueError):
            CanonicalState([0.0], [0.0], t=np.nan)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CanonicalState([], [])

    def test_arrays_are_read_only(self):
        s = CanonicalState([1.0], [2.0])
        with pytest.raises(ValueError):
            s.q[0] = 5.0

    def test_input_mutation_does_not_leak(self):
        q = np.array([1.0, 2.0])
        s = CanonicalState(q, [0.0, 0.0])
        q[0] = 99.0
        assert s.q[0] == 1.0


class TestObservableSet:
    def test_bare_callable_rejected(self):
        def energy(q, p):
            return 0.5 * (p[0] ** 2 + q[0] ** 2)

        with pytest.raises(ValueError, match="entry 1 is a function, not an Observable"):
            ObservableSet([coord(0), energy])


class TestEvaluate:
    # math.exp raises OverflowError where numpy would return inf
    @pytest.mark.parametrize(
        "call",
        [
            lambda obs, s: obs.evaluate(s),
            lambda obs, s: conservation_drift(obs, s.q[None], s.p[None]),
            lambda obs, s: recover_momenta(obs, [1.0], s.q, s.p),
        ],
        ids=["evaluate", "conservation_drift", "recover_momenta"],
    )
    def test_overflow_names_observable(self, call):
        obs = ObservableSet([Observable("grows", lambda q, p: math.exp(1e3 * q[0]))])
        with pytest.raises(EvaluationError, match="grows"):
            call(obs, CanonicalState([1.0], [0.0]))


class TestPoissonBracket:
    def test_canonical_pair(self):
        s = random_state(2, seed=1)
        assert poisson_bracket(coord(0), momentum(0), s, H_FD) == pytest.approx(1.0, abs=FD_TOL)

    def test_coordinates_commute(self):
        s = random_state(2, seed=2)
        assert poisson_bracket(coord(0), coord(1), s, H_FD) == pytest.approx(0.0, abs=FD_TOL)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_canonical_relations_delta(self, i, j):
        s = random_state(2, seed=3)
        want = 1.0 if i == j else 0.0
        assert poisson_bracket(coord(i), momentum(j), s, H_FD) == pytest.approx(want, abs=FD_TOL)
        assert poisson_bracket(momentum(i), momentum(j), s, H_FD) == pytest.approx(0.0, abs=FD_TOL)

    def test_antisymmetry_bit_exact(self):
        s = random_state(3, seed=4)
        f = Observable("f", lambda q, p: math.sin(q[0]) * p[1] + q[2] ** 3)
        g = Observable("g", lambda q, p: p[0] * p[2] + math.cos(q[1]))
        assert poisson_bracket(f, g, s, H_FD) == -poisson_bracket(g, f, s, H_FD)

    def test_nonzero_bracket_value(self):
        # [q1^2, p1] = 2 q1 and central differences are exact on quadratics.
        s = CanonicalState([0.7], [0.2])
        f = Observable("q1sq", lambda q, p: q[0] ** 2)
        assert poisson_bracket(f, momentum(0), s, H_FD) == pytest.approx(1.4, abs=1e-10)

    def test_nonfinite_evaluation_names_observable(self):
        s = CanonicalState([0.0], [0.0])
        bad = Observable("blows_up", lambda q, p: math.inf)
        with pytest.raises(EvaluationError, match="blows_up"):
            poisson_bracket(bad, momentum(0), s, H_FD)

    def test_rejects_nonpositive_step(self):
        s = random_state(1, seed=5)
        with pytest.raises(ValueError):
            poisson_bracket(coord(0), momentum(0), s, 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_rejects_nonfinite_step(self, h):
        # a usage error (ValueError), never an EvaluationError
        s = random_state(2, seed=5)
        with pytest.raises(ValueError, match="fd step h"):
            poisson_bracket(coord(0), momentum(0), s, h)
        with pytest.raises(ValueError, match="fd step h"):
            involution_and_jacobian(quadratic_energies(2), s, h)

    @pytest.mark.parametrize("bracket", [poisson_bracket, poisson_bracket_analytic])
    @pytest.mark.parametrize("arg", ["f", "g"])
    def test_bare_function_rejected(self, bracket, arg):
        def energy(q, p):
            return 0.5 * (p[0] ** 2 + q[0] ** 2)

        args = {"f": oscillator(), "g": oscillator(), arg: energy}
        with pytest.raises(ValueError, match=f"^{arg} is a function, not an Observable$"):
            bracket(args["f"], args["g"], CanonicalState([1.0], [0.5]))

    @pytest.mark.parametrize("bracket", [poisson_bracket, poisson_bracket_analytic])
    def test_bracket_of_an_observable_with_itself_is_zero(self, bracket):
        # unlike an ObservableSet, a bracket takes the same observable twice
        f = oscillator()
        assert bracket(f, f, CanonicalState([1.0], [0.5])) == 0.0

    def test_stencil_leaves_state_untouched(self):
        s = random_state(3, seed=6)
        q, p = s.q.copy(), s.p.copy()
        involution_and_jacobian(quadratic_energies(3), s, H_FD)
        assert np.array_equal(s.q, q) and np.array_equal(s.p, p)


class TestCompletenessJacobian:
    def test_momenta_give_identity(self):
        n = 4
        s = random_state(n, seed=6)
        obs = ObservableSet([momentum(i) for i in range(n)])
        J = involution_and_jacobian(obs, s, H_FD)[1]
        assert np.allclose(J, np.eye(n), atol=FD_TOL)

    def test_quadratic_energies_give_diag_p(self):
        n = 5
        s = random_state(n, seed=7)
        J = involution_and_jacobian(quadratic_energies(n), s, H_FD)[1]
        assert np.allclose(J, np.diag(s.p), atol=1e-9)

    def test_removed_first_energy_zero_column(self):
        n = 4
        s = random_state(n, seed=8)
        obs = quadratic_energies(n).without("f1")
        J = involution_and_jacobian(obs, s, H_FD)[1]
        assert J.shape == (n - 1, n)
        assert np.allclose(J[:, 0], 0.0, atol=FD_TOL)


class TestNumericalRank:
    def test_identity_complete(self):
        _, rank = numerical_rank(np.eye(4), rank_tol=1e-10)
        assert rank == 4

    def test_explicit_zero_singular_value(self):
        sigma, rank = numerical_rank(np.diag([1.0, 1.0, 1.0, 0.0]))
        assert rank == 3
        assert sigma[-1] == pytest.approx(0.0, abs=1e-15)

    def test_singular_values_sorted_descending(self):
        rng = np.random.default_rng(9)
        sigma, _ = numerical_rank(rng.normal(size=(5, 5)))
        assert np.all(np.diff(sigma) <= 0)
        assert np.all(sigma >= 0)

    def test_removed_energy_incomplete_rank_nm1(self):
        n = 4
        s = random_state(n, seed=10)
        J = involution_and_jacobian(quadratic_energies(n).without("f2"), s, H_FD)[1]
        _, rank = numerical_rank(J)
        assert rank == n - 1 < J.shape[1]

    def test_full_energy_set_complete_when_p_nonzero(self):
        n = 4
        rng = np.random.default_rng(11)
        s = CanonicalState(rng.normal(size=n), rng.uniform(0.5, 1.5, size=n))
        J = involution_and_jacobian(quadratic_energies(n), s, H_FD)[1]
        assert numerical_rank(J)[1] == n

    def test_zero_momentum_point_flagged_incomplete(self):
        # p_2 = 0 makes the energy Jacobian singular at this state only.
        s = CanonicalState([0.4, 0.8, 0.1], [1.0, 0.0, 2.0])
        J = involution_and_jacobian(quadratic_energies(3), s, H_FD)[1]
        assert numerical_rank(J)[1] < 3

    def test_wide_matrix_can_be_complete(self):
        # more observables than momenta: rank 3 of 3 columns
        assert numerical_rank(np.vstack([np.eye(3), np.ones((1, 3))]))[1] == 3

    def test_zero_matrix_has_rank_zero(self):
        sigma, rank = numerical_rank(np.zeros((3, 2)))
        assert rank == 0
        assert np.array_equal(sigma, [0.0, 0.0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonempty 2-d matrix"):
            numerical_rank(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_entry_rejected(self, bad):
        J = np.eye(3)
        J[1, 2] = bad
        with pytest.raises(ValueError, match="jacobian entries must be finite"):
            numerical_rank(J)

    def test_caller_jacobian_stays_unchanged_and_writable(self):
        rng = np.random.default_rng(12)
        J = rng.normal(size=(4, 3))
        given = J.copy()
        sigma, _ = numerical_rank(J)
        assert J.flags.writeable
        assert np.array_equal(J, given)
        J[0, 0] += 1.0  # the singular values do not alias J
        assert np.array_equal(sigma, np.linalg.svd(given, compute_uv=False))

    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5)])
    def test_properties_agree_with_direct_svd(self, shape):
        rng = np.random.default_rng(41)
        J = rng.normal(size=shape)
        J[:, -1] = J[:, 0]  # rank one short of full
        sigma, rank = numerical_rank(J, rank_tol=1e-8)
        assert np.array_equal(sigma, np.linalg.svd(J, compute_uv=False))
        expected = min(shape[0], shape[1] - 1)
        assert rank == np.count_nonzero(sigma > 1e-8 * sigma[0]) == expected
        assert type(rank) is int
        assert rank < shape[1]  # not complete

    @pytest.mark.parametrize("rank_tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_bad_rank_tol_rejected(self, rank_tol):
        words = "positive" if math.isfinite(rank_tol) else "finite"
        with pytest.raises(ValueError, match=f"rank_tol must be {words}"):
            numerical_rank(np.eye(2), rank_tol=rank_tol)


class TestInvolutionMatrix:
    def test_canonical_pair_matrix(self):
        s = random_state(1, seed=12)
        B = involution_and_jacobian(ObservableSet([coord(0), momentum(0)]), s, H_FD)[0]
        assert B[0, 0] == 0.0 and B[1, 1] == 0.0
        assert B[0, 1] == pytest.approx(1.0, abs=FD_TOL)
        assert B[1, 0] == -B[0, 1]

    def test_single_observable_zero(self):
        s = random_state(1, seed=13)
        B = involution_and_jacobian(ObservableSet([coord(0)]), s, H_FD)[0]
        assert B.shape == (1, 1) and B[0, 0] == 0.0

    def test_exact_antisymmetry(self):
        s = random_state(3, seed=14)
        obs = ObservableSet(
            [Observable(f"g{k}", lambda q, p, k=k: math.sin(q[k]) * p[(k + 1) % 3]) for k in range(3)]
        )
        B = involution_and_jacobian(obs, s, H_FD)[0]
        assert np.array_equal(B, -B.T)

    def test_quadratic_energies_in_involution(self):
        s = random_state(5, seed=15)
        B = involution_and_jacobian(quadratic_energies(5), s, H_FD)[0]
        assert np.max(np.abs(B)) < 1e-6


class TestRecoverMomenta:
    def test_zero_momentum_fixed_point(self):
        n = 3
        rng = np.random.default_rng(16)
        q = rng.normal(size=n)
        alpha = 0.5 * np.arange(1, n + 1) ** 2 * q**2
        p = recover_momenta(quadratic_energies(n), alpha, q, np.zeros(n))
        assert np.allclose(p, 0.0, atol=1e-12)

    def test_recovers_known_state(self):
        n = 4
        rng = np.random.default_rng(17)
        q = rng.normal(size=n)
        p_true = rng.uniform(0.5, 2.0, size=n)
        obs = quadratic_energies(n)
        alpha = obs.evaluate(CanonicalState(q, p_true))
        p = recover_momenta(obs, alpha, q, p_true + 0.01)
        assert np.max(np.abs(p - p_true)) < 1e-10

    def test_ten_percent_perturbed_guess_in_basin(self):
        n = 5
        rng = np.random.default_rng(18)
        q = rng.normal(size=n)
        p_true = rng.uniform(0.5, 2.0, size=n)
        obs = quadratic_energies(n)
        alpha = obs.evaluate(CanonicalState(q, p_true))
        p, info = recover_momenta(obs, alpha, q, 1.1 * p_true, full_output=True)
        assert np.max(np.abs(p - p_true)) < 1e-10
        assert info["iterations"] >= 1

    def test_sign_branch_follows_guess(self):
        q = np.array([0.2])
        p_true = np.array([-1.3])
        obs = quadratic_energies(1)
        alpha = obs.evaluate(CanonicalState(q, p_true))
        p = recover_momenta(obs, alpha, q, np.array([-1.0]))
        assert p[0] == pytest.approx(-1.3, abs=1e-10)

    def test_removed_observable_raises_completeness_error(self):
        n = 3
        rng = np.random.default_rng(19)
        q = rng.normal(size=n)
        p_true = rng.uniform(0.5, 2.0, size=n)
        full = quadratic_energies(n)
        alpha = full.evaluate(CanonicalState(q, p_true))
        obs = full.without("f1")
        with pytest.raises(CompletenessError) as err:
            recover_momenta(obs, alpha[1:], q, 1.1 * p_true)
        assert err.value.rank == n - 1
        assert err.value.dim == n
        assert "2 observables cannot determine 3 momenta" in str(err.value)

    def test_singular_newton_matrix_raises_completeness_error(self):
        # p_2 = 0 in the guess makes the energy Jacobian diag(p) singular there
        obs = quadratic_energies(3)
        q = np.array([0.4, 0.8, 0.1])
        alpha = obs.evaluate(CanonicalState(q, [1.0, 0.7, 2.0]))
        with pytest.raises(CompletenessError, match="singular Jacobian at iteration 0") as err:
            recover_momenta(obs, alpha, q, [1.1, 0.0, 2.1])
        assert (err.value.rank, err.value.dim) == (2, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_alpha_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            recover_momenta(quadratic_energies(2), [bad, 1.0], [0.3, 0.4], [1.0, 1.0])

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            recover_momenta(quadratic_energies(2), [1.0, 1.0], [0.3, 0.4], [1.0, 1.0], tol=tol)

    def test_divergence_reports_residual(self):
        obs = quadratic_energies(1)
        with pytest.raises(DivergenceError) as err:
            recover_momenta(obs, [2.0], [0.0], [1.0], max_iter=0)
        assert err.value.residual > 0


class TestSymplecticStep:
    def test_free_particle_exact(self):
        H = Observable(
            "free",
            lambda q, p: 0.5 * p[0] ** 2,
            grad_q=lambda q, p: np.zeros(1),
            grad_p=lambda q, p: p,
        )
        s = CanonicalState([1.5], [0.75])
        out = symplectic_step(H, s, 0.125)
        assert out.q[0] == pytest.approx(1.5 + 0.75 * 0.125, abs=1e-14)
        assert out.p[0] == pytest.approx(0.75, abs=1e-14)
        assert out.t == pytest.approx(0.125)

    def test_oscillator_period_return(self):
        H = oscillator()
        dt = 2 * np.pi / 2000
        s = CanonicalState([1.0], [0.0])
        for _ in range(2000):
            s = symplectic_step(H, s, dt)
        # second-order scheme: endpoint error O(dt^2)
        assert abs(s.q[0] - 1.0) < 100 * dt**2
        assert abs(s.p[0]) < 100 * dt**2

    def test_two_step_reversibility(self):
        H = oscillator()
        s0 = CanonicalState([0.8], [-0.3])
        back = symplectic_step(H, symplectic_step(H, s0, 0.05), -0.05)
        assert abs(back.q[0] - s0.q[0]) < 1e-12
        assert abs(back.p[0] - s0.p[0]) < 1e-12

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            symplectic_step(oscillator(), CanonicalState([1.0], [0.0]), 0.0)

    def test_fd_gradients_match_analytic(self):
        assert check_gradients(oscillator(), random_state(1, seed=20)) < 1e-9

    @pytest.mark.parametrize("side", ["grad_q", "grad_p"])
    def test_nan_analytic_gradient_fails_check(self, side):
        grads = {"grad_q": lambda q, p: q, "grad_p": lambda q, p: p}
        grads[side] = lambda q, p: np.array([math.nan])
        H = Observable("oscillator", lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2), **grads)
        with pytest.raises(ValueError, match="disagree"):
            check_gradients(H, random_state(1, seed=21))

    def test_nan_hamiltonian_on_stencil_fails_check(self):
        H = Observable(
            "hamiltonian",
            lambda q, p: math.sqrt(q[0]) if q[0] >= 0.5 else math.nan,
            grad_q=lambda q, p: 0.5 / np.sqrt(q),
            grad_p=lambda q, p: np.zeros(1),
        )
        with pytest.raises(EvaluationError, match="hamiltonian"):
            check_gradients(H, CanonicalState([0.5], [0.0]))


class TestAnalyticGradients:
    CALLS = {
        "evolve": lambda H, s: evolve(H, s, 0.01, 3),
        "symplectic_step": lambda H, s: symplectic_step(H, s, 0.01),
        "check_gradients": check_gradients,
        "poisson_bracket_analytic": lambda H, s: poisson_bracket_analytic(oscillator(), H, s),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("missing", ["grad_q", "grad_p", "both"])
    def test_observable_without_gradients_rejected(self, call, missing):
        grads = {"grad_q": lambda q, p: q, "grad_p": lambda q, p: p}
        for side in ["grad_q", "grad_p"] if missing == "both" else [missing]:
            del grads[side]
        H = Observable("no_grads", lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2), **grads)
        with pytest.raises(ValueError, match="'no_grads' has no analytic gradients"):
            self.CALLS[call](H, CanonicalState([1.0], [0.0]))


class TestEvolve:
    def test_zero_steps_returns_initial(self):
        s = CanonicalState([1.0], [2.0], t=0.5)
        t, q, p = evolve(oscillator(), s, 0.01, 0)
        assert np.array_equal(t, [0.5])
        assert np.array_equal(q, [s.q]) and np.array_equal(p, [s.p])

    @pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])
    def test_bad_dt_rejected_before_any_gradient_call(self, dt):
        calls = []
        with pytest.raises(ValueError, match=r"dt=.*symplectic_step for a backward step"):
            evolve(counted_oscillator(calls), CanonicalState([1.0], [0.0]), dt, 10)
        assert calls == []

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, "3"])
    def test_non_integral_n_steps_rejected_before_any_gradient_call(self, n_steps):
        calls = []
        with pytest.raises(ValueError, match=f"n_steps must be an integer >= 0, got {n_steps!r}"):
            evolve(counted_oscillator(calls), CanonicalState([1.0], [0.0]), 0.01, n_steps)
        assert calls == []

    @pytest.mark.parametrize("stride", [1.5, 2.0, None])
    def test_non_integral_record_stride_rejected_before_any_gradient_call(self, stride):
        calls = []
        with pytest.raises(ValueError, match=f"record_stride must be an integer >= 1, got {stride!r}"):
            evolve(counted_oscillator(calls), CanonicalState([1.0], [0.0]), 0.01, 10, stride)
        assert calls == []

    def test_numpy_integer_counts_accepted(self):
        s = CanonicalState([1.0], [0.0])
        got = evolve(oscillator(), s, 0.01, np.int64(10), record_stride=np.int32(3))
        want = evolve(oscillator(), s, 0.01, 10, record_stride=3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_stride_records_endpoints(self):
        t, q, p = evolve(oscillator(), CanonicalState([1.0], [0.0]), 0.01, 10, record_stride=3)
        # steps 3, 6, 9 plus forced endpoints 0 and 10
        assert t.shape == (5,) and q.shape == p.shape == (5, 1)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(0.1)

    def test_oscillator_period_endpoint(self):
        dt = 2 * np.pi / 4000
        _, q, _ = evolve(oscillator(), CanonicalState([1.0], [0.0]), dt, 4000)
        assert abs(q[-1, 0] - 1.0) < 100 * dt**2

    def test_blow_up_reports_last_finite_time(self):
        # Verlet on the oscillator is unstable for dt > 2: at dt = 2.5 the
        # step map has an eigenvalue -4, so |q| overflows after ~500 steps
        s = CanonicalState([1.0], [0.0], t=1.0)
        with pytest.raises(BlowUpError) as exc:
            evolve(oscillator(), s, 2.5, 10000, record_stride=1000)
        err = exc.value
        assert err.stepper == "evolve"
        assert err.start_time == 1.0
        assert 1 < err.step < 10000
        assert err.last_time == 1.0 + 2.5 * (err.step - 1)
        assert "step" in str(err) and "evolve call" in str(err)

    @pytest.mark.parametrize("t0, dt", [(1e20, 1.0), (1.7e308, 1e308)], ids=["stalled", "overflow"])
    def test_recorded_times_must_increase_and_stay_finite(self, t0, dt):
        # t0 + dt rounds back to t0, or overflows to inf; the state rests
        s = CanonicalState([0.0], [0.0], t=t0)
        with pytest.raises(ValueError, match="state times must be strictly increasing"):
            evolve(oscillator(), s, dt, 2)


def reference_verlet(H, s, dt, n_steps, stride):
    """Kick-drift-kick with three gradient calls and a finiteness check per
    step; returns the recorded (q, p, t) or raises what the first bad step
    raises."""
    half = 0.5 * dt
    q, p, t = s.q, s.p, s.t
    out = [(q, p, t)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            p_half = p - half * H.grad_q(q, p)
            q = q + dt * H.grad_p(q, p_half)
            p = p_half - half * H.grad_q(q, p_half)
            if not (np.isfinite(q).all() and np.isfinite(p).all()):
                raise BlowUpError(t, k, s.t, "evolve")
            t = t + dt
            if k % stride == 0 or k == n_steps:
                out.append((q, p, t))
    return out


def pendulum():
    return Observable(
        "pendulum",
        lambda q, p: 0.5 * p[0] ** 2 - math.cos(q[0]),
        grad_q=lambda q, p: np.sin(q),
        grad_p=lambda q, p: p,
    )


def blow_up(call):
    with pytest.raises(BlowUpError) as exc:
        call()
    return exc.value.step, exc.value.last_time


class TestVerletLoop:
    @pytest.mark.parametrize("stride", [1, 7, 1000])
    @pytest.mark.parametrize("n_steps", [2500, 3000])
    @pytest.mark.parametrize("system", ["string8", "pendulum"])
    def test_equals_reference_loop(self, system, n_steps, stride):
        if system == "string8":
            H, s = string_hamiltonian(8), random_state(8, seed=30)
        else:
            H, s = pendulum(), CanonicalState([2.5], [0.4], t=0.3)
        t, q, p = evolve(H, s, 1e-2, n_steps, record_stride=stride)
        want = reference_verlet(H, s, 1e-2, n_steps, stride)
        assert len(t) == len(want)
        for k, (wq, wp, wt) in enumerate(want):
            assert np.array_equal(q[k], wq) and np.array_equal(p[k], wp) and t[k] == wt

    @pytest.mark.parametrize("n_steps", [0, 1, 25])
    def test_one_grad_q_call_per_step_plus_one(self, n_steps):
        calls = {"grad_q": 0, "grad_p": 0}

        def counted(name, grad):
            def fn(q, p):
                calls[name] += 1
                return grad(q, p)

            return fn

        H = Observable(
            "oscillator",
            lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
            grad_q=counted("grad_q", lambda q, p: q),
            grad_p=counted("grad_p", lambda q, p: p),
        )
        evolve(H, CanonicalState([1.0], [0.0]), 0.01, n_steps, record_stride=7)
        assert calls == {"grad_q": n_steps + 1 if n_steps else 0, "grad_p": n_steps}

    @pytest.mark.parametrize("stride", [1, 1000, 10000])
    def test_blow_up_step_and_time_equal_reference(self, stride):
        s = CanonicalState([1.0], [0.0], t=1.0)
        got = blow_up(lambda: evolve(oscillator(), s, 2.5, 10000, record_stride=stride))
        assert got == blow_up(lambda: reference_verlet(oscillator(), s, 2.5, 10000, stride))

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    @pytest.mark.parametrize("on_non_finite", ["raise", "return 0"])
    def test_gradient_past_blow_up_keeps_first_bad_step(self, on_non_finite, stride):
        # q**3 overflows while q is finite, so p leaves the finite range
        # first; the steps after it hand grad_q a non-finite q
        def grad_q(q, p):
            if np.isfinite(q).all():
                return q**3
            if on_non_finite == "raise":
                raise ValueError("non-finite q")
            return np.zeros(1)

        H = Observable(
            "quartic",
            lambda q, p: 0.5 * p[0] ** 2 + 0.25 * q[0] ** 4,
            grad_q=grad_q,
            grad_p=lambda q, p: p,
        )
        s = CanonicalState([10.0], [0.0])
        got = blow_up(lambda: evolve(H, s, 1.0, 100, record_stride=stride))
        assert got == blow_up(lambda: reference_verlet(H, s, 1.0, 100, stride))

    def test_gradient_length_checked_on_every_call(self):
        # the wrong length comes only once q turns negative, mid-block
        H = Observable(
            "oscillator",
            lambda q, p: 0.5 * (p[0] ** 2 + q[0] ** 2),
            grad_q=lambda q, p: q if q[0] >= 0 else np.zeros(2),
            grad_p=lambda q, p: p,
        )
        with pytest.raises(ValueError, match="'oscillator' grad_q returned length 2, expected 1"):
            evolve(H, CanonicalState([1.0], [0.0]), 0.01, 1000, record_stride=1000)

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1)], ids=["row", "column"])
    @pytest.mark.parametrize("call", ["evolve", "symplectic_step"])
    def test_gradient_of_another_shape_rejected(self, call, shape):
        # the right length, so the length check passes, but q + dt * v
        # broadcasts q out of its (2,) shape
        H = Observable(
            "oscillator2",
            lambda q, p: 0.5 * float(np.dot(p, p) + np.dot(q, q)),
            grad_q=lambda q, p: q,
            grad_p=lambda q, p: p.reshape(shape),
        )
        s = CanonicalState([1.0, 0.5], [0.0, 0.1])
        with pytest.raises(ValueError, match="'oscillator2' gradients made q and p of shapes"):
            if call == "evolve":
                evolve(H, s, 0.01, 10, 5)
            else:
                symplectic_step(H, s, 0.01)

    @pytest.mark.parametrize("wrong", [np.zeros(1), np.float64(0.0)], ids=["length-1", "0-d"])
    @pytest.mark.parametrize("side", ["grad_q", "grad_p"])
    def test_broadcastable_gradient_result_caught_mid_block(self, side, wrong):
        # NumPy broadcasts a length-1 or 0-d result against 8 entries without
        # error; the wrong result comes only once q[0] turns negative, at
        # about step 158 of a 1000-step block
        base = string_hamiltonian(8)
        grads = {"grad_q": base.grad_q, "grad_p": base.grad_p}
        right = grads[side]
        grads[side] = lambda q, p: right(q, p) if q[0] >= 0 else wrong
        H = Observable("string8", base.fn, **grads)
        s = CanonicalState(np.eye(8)[0], np.zeros(8))
        with pytest.raises(ValueError, match=f"'string8' {side} returned length 1, expected 8"):
            evolve(H, s, 0.01, 1000, record_stride=1000)

    @pytest.mark.parametrize(
        "result",
        [
            list,
            lambda g: g.astype(np.float32),
            lambda g: g.astype(np.longdouble),
            lambda g: np.ma.masked_array(g, mask=np.arange(g.size) == 2),
        ],
        ids=["list", "float32", "longdouble", "masked"],
    )
    @pytest.mark.parametrize("stride", [1, 7, 1000])
    def test_gradient_result_type_equals_its_float64_conversion(self, result, stride):
        # a trajectory is that of the gradients converted to float64 arrays,
        # whichever route (unchecked, or the checked replay) its blocks take
        base = string_hamiltonian(8)
        H = Observable(
            "string8",
            base.fn,
            grad_q=lambda q, p: result(base.grad_q(q, p)),
            grad_p=lambda q, p: result(base.grad_p(q, p)),
        )
        doubles = Observable(
            "string8",
            base.fn,
            grad_q=lambda q, p: np.asarray(H.grad_q(q, p), dtype=float),
            grad_p=lambda q, p: np.asarray(H.grad_p(q, p), dtype=float),
        )
        s = random_state(8, seed=31)
        got = evolve(H, s, 1e-2, 2500, record_stride=stride)
        want = evolve(doubles, s, 1e-2, 2500, record_stride=stride)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestConservationDrift:
    def test_constant_trajectory_zero_drift(self):
        q, p = np.tile([1.0, 2.0], (3, 1)), np.tile([3.0, 4.0], (3, 1))
        drift = conservation_drift(quadratic_energies(2), q, p)
        assert np.all(drift == 0.0)

    def test_energy_conserved_along_verlet_flow(self):
        H = oscillator()
        _, q, p = evolve(H, CanonicalState([1.0], [0.0]), 1e-3, 5000)
        energy = ObservableSet([H])
        assert conservation_drift(energy, q, p)[0] < 1e-6

    def test_non_integral_observable_drifts(self):
        _, q, p = evolve(oscillator(), CanonicalState([1.0], [0.0]), 0.01, 400)
        drift = conservation_drift(ObservableSet([coord(0)]), q, p)
        assert drift[0] > 0.5

    def test_floor_handles_zero_reference(self):
        q, p = np.array([[0.0], [1e-3]]), np.zeros((2, 1))
        drift = conservation_drift(ObservableSet([coord(0)]), q, p)
        assert drift[0] == pytest.approx(1e-3)

    @pytest.mark.parametrize(
        "q, p, shapes",
        [
            (np.ones(2), np.ones(2), r"\(2,\), \(2,\)"),
            (np.ones((3, 2)), np.ones((2, 2)), r"\(3, 2\), \(2, 2\)"),
            (np.ones((3, 2)), np.ones((3, 1)), r"\(3, 2\), \(3, 1\)"),
            (np.ones((0, 2)), np.ones((0, 2)), r"\(0, 2\), \(0, 2\)"),
            (np.ones((3, 0)), np.ones((3, 0)), r"\(3, 0\), \(3, 0\)"),
        ],
        ids=["1-d", "rows-differ", "columns-differ", "no-rows", "no-columns"],
    )
    def test_rows_must_be_matching_nonempty_2d(self, q, p, shapes):
        calls = []
        counted = Observable("counted", lambda q, p: calls.append(q) or 0.0)
        with pytest.raises(ValueError, match=f"2-d arrays of rows, got shapes {shapes}"):
            conservation_drift(ObservableSet([counted]), q, p)
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rows_rejected(self, bad):
        q = np.array([[1.0, 0.0], [1.0, bad]])
        with pytest.raises(ValueError, match="q and p entries must be finite"):
            conservation_drift(quadratic_energies(1), q, np.ones((2, 2)))

    def test_observables_see_read_only_private_rows(self):
        q, p = np.ones((2, 1)), np.ones((2, 1))

        def writes(q, p):
            q[0] = 5.0
            return q[0]

        with pytest.raises(ValueError, match="read-only"):
            conservation_drift(ObservableSet([Observable("writes", writes)]), q, p)
        assert np.all(q == 1.0)
