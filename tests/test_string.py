"""Tests for the finite vibrating string module."""

import math

import numpy as np
import pytest

from hamlab import (
    CanonicalState,
    check_gradients,
    DomainExitError,
    conservation_drift,
    evolve,
    involution_and_jacobian,
    poisson_bracket,
    poisson_bracket_analytic,
)
from hamlab.canonical import numerical_rank
from hamlab.string import (
    exact_mode_evolution,
    hj_action,
    hj_constants,
    hj_trajectory,
    string_hamiltonian,
    string_observable_set,
)

H_FD = 1e-5


def random_modes(n, seed, t=0.0):
    rng = np.random.default_rng(seed)
    return CanonicalState(rng.normal(size=n), rng.normal(size=n), t)


def energies(m):
    return string_observable_set(m.dim).evaluate(m)


class TestModeEnergy:
    def test_pure_displacement(self):
        assert energies(CanonicalState([0.0, 1.0], [0.0, 0.0]))[1] == pytest.approx(2.0)

    def test_pure_velocity(self):
        assert energies(CanonicalState([0.0], [3.0]))[0] == pytest.approx(4.5)

    def test_sum_equals_hamiltonian(self):
        m = random_modes(7, seed=22)
        total = sum(0.5 * (m.p[n - 1] ** 2 + (n * m.q[n - 1]) ** 2) for n in range(1, 8))
        assert string_hamiltonian(7).fn(m.q, m.p) == pytest.approx(total, rel=1e-14)


class TestExactModeEvolution:
    def test_zero_dt_identity(self):
        m = random_modes(5, seed=26)
        q, p = exact_mode_evolution(m, m.t)
        assert np.array_equal(q, m.q) and np.array_equal(p, m.p)

    def test_quarter_period_first_mode(self):
        m = CanonicalState([1.0], [0.0])
        q, p = exact_mode_evolution(m, np.pi / 2)
        assert q[0] == pytest.approx(0.0, abs=1e-15)
        assert p[0] == pytest.approx(-1.0, abs=1e-15)

    def test_common_period(self):
        m = random_modes(6, seed=27)
        q, p = exact_mode_evolution(m, 2 * np.pi)
        assert np.max(np.abs(q - m.q)) < 1e-13
        assert np.max(np.abs(p - m.p)) < 1e-13

    def test_energies_invariant_to_machine_precision(self):
        m = random_modes(8, seed=28)
        e0 = energies(m)
        for t in (0.1, 2.7, 15.0):
            e = energies(CanonicalState(*exact_mode_evolution(m, t), t))
            assert np.max(np.abs(e - e0)) < 1e-12


# the two flows of a mode state, each a function of a time or an array of times
FLOWS = {
    "exact": lambda m: lambda t: exact_mode_evolution(m, t),
    "hj": lambda m: hj_trajectory(*hj_constants(m)),
}


@pytest.mark.parametrize("flow", FLOWS)
class TestArrayOfTimes:
    @pytest.mark.parametrize("T", [1, 2, 121, 1000])
    @pytest.mark.parametrize("N", [1, 8, 16])
    def test_rows_equal_the_per_time_calls(self, flow, N, T):
        at = FLOWS[flow](random_modes(N, seed=100 + N, t=0.4))
        times = np.linspace(-2.0, 50.0, T)
        q, p = at(times)
        assert q.shape == p.shape == (T, N)
        for i, t in enumerate(times):
            q_t, p_t = at(float(t))
            assert q_t.shape == p_t.shape == (N,)
            assert np.array_equal(q[i], q_t) and np.array_equal(p[i], p_t), i

    @pytest.mark.parametrize(
        "t, match",
        [
            (np.inf, "t entries must be finite"),
            (np.nan, "t entries must be finite"),
            ([0.0, -np.inf], "t entries must be finite"),
            (1e308, "q and p entries must be finite"),
        ],
        ids=["inf", "nan", "array-with-inf", "past-double-range"],
    )
    def test_nonfinite_rejected(self, flow, t, match):
        at = FLOWS[flow](random_modes(2, seed=50))
        # n * t past the range of a double warns on its way to the error
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=match):
            at(t)


class TestHJAction:
    def test_zero_at_origin(self):
        assert hj_action(3, 0.0, 2.5) == 0.0

    def test_turning_point_value(self):
        E = 2.3
        n = 2
        a_turn = math.sqrt(E) / n
        assert hj_action(n, a_turn, E) == pytest.approx(np.pi * E / (4 * n), rel=1e-12)

    def test_derivative_matches_integrand(self):
        # dS/da = sqrt(E - n^2 a^2); at a = 0, E = 4, n = 2 this is 2.
        h = 1e-6
        fd = (hj_action(2, h, 4.0) - hj_action(2, -h, 4.0)) / (2 * h)
        assert fd == pytest.approx(2.0, abs=1e-9)

    def test_derivative_matches_inside_region(self):
        E, n = 3.0, 1
        for a in (-1.2, 0.4, 1.5):
            h = 1e-6
            fd = (hj_action(n, a + h, E) - hj_action(n, a - h, E)) / (2 * h)
            assert fd == pytest.approx(math.sqrt(E - n**2 * a**2), abs=1e-8)

    def test_beyond_turning_point_rejected(self):
        with pytest.raises(DomainExitError):
            hj_action(2, 2.0, 1.0)

    @pytest.mark.parametrize(
        "a, E_n, name",
        [(math.nan, 1.0, "a"), (math.inf, 1.0, "a"), (0.1, math.nan, "E_n"), (0.1, math.inf, "E_n")],
    )
    def test_nonfinite_argument_rejected(self, a, E_n, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            hj_action(1, a, E_n)

    def test_zero_energy(self):
        assert hj_action(1, 0.0, 0.0) == 0.0
        with pytest.raises(DomainExitError):
            hj_action(1, 0.5, 0.0)


class TestSeparationData:
    """The separation constants E and phases beta from hj_constants."""

    def test_from_mode_state(self):
        m = random_modes(6, seed=29)
        E, beta = hj_constants(m)
        assert np.array_equal(E, 2.0 * energies(m))
        assert beta.shape == (6,)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            hj_trajectory([-0.1], [0.0])

    def test_zero_energy_mode_gets_zero_phase(self):
        m = CanonicalState([0.0, 0.3], [0.0, -0.2], 1.5)
        E, beta = hj_constants(m)
        assert E[0] == 0.0 and beta[0] == 0.0
        with pytest.warns(UserWarning, match=r"modes \[1\] are stationary"):
            q, p = hj_trajectory(E, beta)(m.t)
        assert np.max(np.abs(q - m.q)) < 1e-15 and np.max(np.abs(p - m.p)) < 1e-15


class TestHJTrajectory:
    def test_single_mode_cosine_phase(self):
        # beta = pi/4 puts mode 1 at a(t) = sin(t + pi/2) = cos t
        traj = hj_trajectory([1.0], [np.pi / 4])
        for t in (0.0, 0.3, 1.7):
            q, p = traj(t)
            assert q[0] == pytest.approx(math.cos(t), abs=1e-14)
            assert p[0] == pytest.approx(-math.sin(t), abs=1e-14)

    def test_all_zero_energy_gives_zero_solution(self):
        with pytest.warns(UserWarning, match="stationary"):
            traj = hj_trajectory([0.0, 0.0], [0.0, 0.0])
        q, p = traj(1.3)
        assert np.all(q == 0.0) and np.all(p == 0.0)

    def test_matches_exact_evolution(self):
        m0 = random_modes(6, seed=30)
        traj = hj_trajectory(*hj_constants(m0))
        for t in (0.0, 0.9, 4.2):
            want_q, want_p = exact_mode_evolution(m0, t)
            got_q, got_p = traj(t)
            assert np.max(np.abs(got_q - want_q)) < 1e-10
            assert np.max(np.abs(got_p - want_p)) < 1e-10

    def test_wave_equation_residual_band_limited(self):
        # u_tt - u_xx on the field u = sum_n a_n sin(n x) via a five-point
        # stencil in t; the spatial derivative is exact through the sine series.
        m0 = random_modes(4, seed=31)
        traj = hj_trajectory(*hj_constants(m0))
        t0, dt, M = 0.8, 1e-3, 64
        x = np.linspace(0, 2 * np.pi, M + 1)
        n = np.arange(1, 5)
        modes = np.sin(np.outer(x, n))
        snaps = [modes @ traj(t0 + k * dt)[0] for k in (-2, -1, 0, 1, 2)]
        u_tt = (
            -snaps[0] / 12 + 4 * snaps[1] / 3 - 5 * snaps[2] / 2 + 4 * snaps[3] / 3 - snaps[4] / 12
        ) / dt**2
        u_xx = modes @ (-(n**2) * traj(t0)[0])
        assert np.max(np.abs(u_tt - u_xx)) < 1e-8

    def test_hamilton_equations_residual(self):
        m0 = random_modes(5, seed=32)
        traj = hj_trajectory(*hj_constants(m0))
        t0, dt = 1.1, 1e-5
        (plus_q, plus_p), (minus_q, minus_p), (mid_q, mid_p) = traj(t0 + dt), traj(t0 - dt), traj(t0)
        da = (plus_q - minus_q) / (2 * dt)
        dadot = (plus_p - minus_p) / (2 * dt)
        n2 = np.arange(1, 6, dtype=float) ** 2
        assert np.max(np.abs(da - mid_p)) < 1e-8
        assert np.max(np.abs(dadot + n2 * mid_q)) < 1e-8


    def test_keeps_private_copies(self):
        E, beta = np.array([1.0, 4.0]), np.array([0.1, -0.2])
        traj = hj_trajectory(E, beta)
        before_q, before_p = traj(0.7)
        E[:] = 9.0
        beta[:] = 0.5
        after_q, after_p = traj(0.7)
        assert E.flags.writeable and beta.flags.writeable
        assert np.array_equal(after_q, before_q) and np.array_equal(after_p, before_p)

    @pytest.mark.parametrize(
        "E, beta, match",
        [
            ([1.0, np.nan], [0.0, 0.0], "finite"),
            ([1.0, np.inf], [0.0, 0.0], "finite"),
            ([1.0, 2.0], [0.0, np.inf], "finite"),
            ([1.0, 2.0], [0.0], "length"),
            ([1.0, 2.0], [[0.0, 0.0]], "length"),
            ([], [], "nonempty"),
            ([[1.0, 2.0]], [[0.0, 0.0]], "nonempty"),
        ],
        ids=["nan-E", "inf-E", "inf-beta", "short-beta", "2d-beta", "empty", "2d-E"],
    )
    def test_bad_constants_rejected(self, E, beta, match):
        with pytest.raises(ValueError, match=match):
            hj_trajectory(E, beta)


class TestStringObservables:
    def test_involution_matrix_vanishes(self):
        obs = string_observable_set(8)
        s = random_modes(8, seed=33)
        B = involution_and_jacobian(obs, s, H_FD)[0]
        assert np.max(np.abs(B)) < 1e-6

    def test_cross_module_bracket_f2_f3(self):
        obs = string_observable_set(4)
        s = random_modes(4, seed=34)
        b = poisson_bracket(obs.observables[1], obs.observables[2], s, H_FD)
        assert abs(b) < 1e-6

    def test_fd_matches_analytic_brackets(self):
        obs = string_observable_set(6)
        s = random_modes(6, seed=35)
        for i in range(6):
            for j in range(i + 1, 6):
                fd = poisson_bracket(obs.observables[i], obs.observables[j], s, H_FD)
                exact = poisson_bracket_analytic(obs.observables[i], obs.observables[j], s)
                assert exact == 0.0
                assert abs(fd - exact) < 10 * H_FD**2

    def test_jacobian_is_diag_p(self):
        n = 6
        rng = np.random.default_rng(36)
        s = CanonicalState(rng.normal(size=n), rng.uniform(0.5, 2.0, size=n))
        J = involution_and_jacobian(string_observable_set(n), s, H_FD)[1]
        assert np.allclose(J, np.diag(s.p), atol=1e-9)

    def test_complete_with_nonzero_momenta(self):
        n = 8
        rng = np.random.default_rng(37)
        s = CanonicalState(rng.normal(size=n), rng.uniform(0.5, 2.0, size=n))
        J = involution_and_jacobian(string_observable_set(n), s, H_FD)[1]
        assert numerical_rank(J)[1] == n

    def test_incomplete_with_f1_removed(self):
        n = 8
        rng = np.random.default_rng(38)
        s = CanonicalState(rng.normal(size=n), rng.uniform(0.5, 2.0, size=n))
        obs = string_observable_set(n).without("mode_energy_1")
        _, rank = numerical_rank(involution_and_jacobian(obs, s, H_FD)[1])
        assert rank == n - 1


class TestStringSystem:
    def test_hamiltonian_matches_mode_sum(self):
        m = random_modes(5, seed=39)
        H = string_hamiltonian(5)
        assert H.name == "hamiltonian"
        assert H.fn(m.q, m.p) == pytest.approx(np.sum(energies(m)), rel=1e-14)

    def test_gradients_consistent(self):
        assert check_gradients(string_hamiltonian(6), random_modes(6, seed=40)) < 1e-8

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_mode_energy_gradients_consistent(self, n):
        # the gradients poisson_bracket_analytic uses, each checked
        # against the finite-difference stencil
        obs = string_observable_set(n)
        for seed in range(3):
            s = random_modes(n, seed=60 + seed)
            for o in obs:
                assert check_gradients(o, s) < 1e-8, o.name

    def test_verlet_matches_exact_evolution_at_second_order(self):
        n, horizon = 8, 2.0
        m0 = random_modes(n, seed=41)
        want_q, want_p = exact_mode_evolution(m0, horizon)
        errs = []
        for steps in (2000, 4000):
            dt = horizon / steps
            _, q, p = evolve(string_hamiltonian(n), m0, dt, steps, record_stride=steps)
            errs.append(max(np.max(np.abs(q[-1] - want_q)), np.max(np.abs(p[-1] - want_p))))
        # halving dt must cut the endpoint error by about 4 (second order)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
        assert errs[1] < 1e-3

    def test_energy_drift_bounded_decaying_spectrum(self):
        n = 8
        idx = np.arange(1, n + 1, dtype=float)
        m0 = CanonicalState(4.0 ** (1 - idx), np.zeros(n))
        _, q, p = evolve(string_hamiltonian(n), m0, 1e-3, 20000, record_stride=100)
        drift = conservation_drift(string_observable_set(n), q, p)
        assert np.max(drift) < 1e-6

    def test_mode_energy_drift_zero_on_exact_trajectory(self):
        m0 = random_modes(6, seed=42)
        times = np.linspace(0.0, 5.0, 40)
        drift = conservation_drift(string_observable_set(6), *exact_mode_evolution(m0, times))
        assert np.max(drift) < 1e-12

    @pytest.mark.parametrize("n", [1, 8, 16])
    def test_drift_on_exact_rows_equals_per_state_formula(self, n):
        # the floored formula string-modes used to write out by hand, one
        # state per sample time, against the drift of the flow's rows
        m0 = random_modes(n, seed=43)
        obs = string_observable_set(n)
        times = np.linspace(0.0, 5.0, 101)
        e0 = obs.evaluate(m0)
        rows = zip(*exact_mode_evolution(m0, times), times)
        et = np.array([obs.evaluate(CanonicalState(q, p, t)) for q, p, t in rows])
        want = np.max(np.abs(et - e0) / np.maximum(np.abs(e0), 1.0), axis=0)
        got = conservation_drift(obs, *exact_mode_evolution(m0, times))
        assert np.array_equal(got, want)
