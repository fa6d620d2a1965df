"""KdV module tests: evolution, conserved densities, scattering, actions.

The analytic backbone is the one-soliton family
u = -2 kappa^2 sech^2(kappa (x - x0 - 4 kappa^2 t)) with
a(k) = (k - i kappa)/(k + i kappa), bound state at kappa, and
invariants I_1 = 4 kappa, I_2 = 16 kappa^3 / 3, I_3 = 64 kappa^5 / 5.
"""

import math
import re
import warnings

import numpy as np
import pytest

from hamlab import kdv
from hamlab.errors import BlowUpError, ConvergenceError, DecayError
from hamlab.kdv import (
    LinePotential,
    PeriodicField,
    analytic_soliton_a,
    bound_states,
    cfl_timestep,
    continuum_actions,
    direct_hamiltonian,
    hamiltonian_from_actions,
    kdv_evolve,
    kdv_grid,
    kdv_invariants,
    line_window,
    periodic_integral,
    riccati_densities,
    riccati_residual,
    scattering_a,
    schrodinger_a,
    soliton,
    soliton_field,
    spectral_derivative,
)


def sech2_potential(kappa=1.0, x0=0.0):
    return lambda x: -2.0 * kappa**2 / np.cosh(kappa * (np.asarray(x) - x0)) ** 2


@pytest.fixture(scope="module")
def generic_field():
    x = kdv_grid()
    u = -1.2 * np.exp(-((x - 15.0) ** 2) / 4.0) - 0.8 * np.exp(-((x - 25.0) ** 2) / 6.0)
    return PeriodicField(u)


@pytest.fixture(scope="module")
def sech_pot():
    return LinePotential(sech2_potential(), -20.0, 20.0)


@pytest.fixture(scope="module")
def evolved_soliton():
    f0 = soliton_field(1.0)
    return f0, kdv_evolve(f0, 1e-4, 10000)


@pytest.fixture(scope="module")
def half_evolved_soliton():
    # t = 0.5: the trough has moved 2, between grid nodes
    return kdv_evolve(soliton_field(1.0), 1e-4, 5000)


@pytest.fixture(scope="module")
def two_soliton_run():
    L, M = 80.0, 1024
    x = kdv_grid(L, M)
    u0 = soliton(x, 1.0, 30.0) + soliton(x, 0.5, 50.0)
    f0 = PeriodicField(u0, L)
    return f0, kdv_evolve(f0, 5e-4, 24000)  # t = 12, well past the collision


@pytest.fixture(scope="module")
def sech_data(sech_pot):
    """(k, a, n(k), kappas) of the kappa = 1 soliton on kdv-action-hamiltonian's
    default k grid."""
    k = np.linspace(0.05, 4.0, 60)
    a = scattering_a(sech_pot, k)
    return k, a, continuum_actions(k, a), bound_states(sech_pot, 1.5)


@pytest.fixture
def fft_calls(monkeypatch):
    """The names of the public ``np.fft.rfft`` / ``irfft`` calls, in order."""
    calls = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def transform(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, transform)
    return calls


class TestPeriodicField:
    def test_grid_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            PeriodicField(np.zeros(100))

    def test_non_finite_rejected(self):
        u = np.zeros(64)
        u[3] = np.nan
        with pytest.raises(ValueError):
            PeriodicField(u)

    def test_samples_read_only(self):
        f = PeriodicField(np.zeros(64))
        with pytest.raises(ValueError):
            f.u[0] = 1.0

    def test_grid_properties(self):
        f = PeriodicField(np.zeros(128), L_domain=16.0)
        assert f.M == 128
        assert f.h == pytest.approx(0.125)
        assert f.x[0] == 0.0
        assert f.x[-1] == pytest.approx(16.0 - 0.125)


class TestKdvEvolve:
    def test_zero_field_fixed_point(self):
        f = PeriodicField(np.zeros(64))
        g = kdv_evolve(f, 1e-3, 50)
        assert np.all(g.u == 0.0)
        assert g.t == pytest.approx(0.05)

    def test_soliton_translates(self, evolved_soliton):
        f0, f1 = evolved_soliton
        exact = soliton(f1.x, 1.0, f0.L_domain / 2.0, 1.0)
        assert np.max(np.abs(f1.u - exact)) < 1e-6

    def test_mass_exactly_conserved(self, evolved_soliton):
        f0, f1 = evolved_soliton
        m0 = periodic_integral(f0.u, f0.L_domain)
        m1 = periodic_integral(f1.u, f1.L_domain)
        assert m0 == m1

    def test_blow_up_reports_last_stable_time(self):
        f = PeriodicField(soliton_field(1.0).u, t=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BlowUpError) as exc:
                kdv_evolve(f, 2e-2, 2000)
        assert exc.value.step >= 1
        assert exc.value.start_time == 0.5
        assert exc.value.last_time == pytest.approx(0.5 + 2e-2 * (exc.value.step - 1))
        assert "kdv_evolve call that began at t=0.5;" in str(exc.value)

    def test_blow_up_past_the_first_block(self):
        # the steps are checked once per block; a failure in a later block
        # is replayed step by step and still names the first bad step
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BlowUpError) as exc:
                kdv_evolve(soliton_field(1.0), 0.012, 3000)
        assert exc.value.step == 158
        assert exc.value.last_time == pytest.approx(157 * 0.012)

    def test_oversized_step_warns(self):
        f = soliton_field(1.0)
        guard = cfl_timestep(f)
        with pytest.warns(UserWarning, match="stability guard"):
            with pytest.raises(BlowUpError):
                kdv_evolve(f, 4.0 * guard, 500)

    def test_quiet_field_guard_is_infinite(self):
        assert cfl_timestep(PeriodicField(np.zeros(64))) == math.inf

    def test_step_validation(self):
        f = PeriodicField(np.zeros(64))
        with pytest.raises(ValueError):
            kdv_evolve(f, -1e-3, 10)
        with pytest.raises(ValueError):
            kdv_evolve(f, 1e-3, -1)

    def test_zero_steps_returns_field(self):
        f = soliton_field(1.0)
        assert kdv_evolve(f, 1e-4, 0) is f

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, "3"])
    def test_non_integral_steps_rejected_before_any_transform(self, n_steps, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform before the step count was checked")

        f = soliton_field(1.0)
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, no_transform)
        for name in ("rfft_n_even", "irfft"):
            monkeypatch.setattr(np.fft._pocketfft_umath, name, no_transform)
        with pytest.raises(ValueError, match=f"n_steps must be an integer >= 0, got {n_steps!r}"):
            kdv_evolve(f, 1e-4, n_steps)

    def test_numpy_integer_steps_accepted(self):
        f = soliton_field(1.0)
        assert np.array_equal(kdv_evolve(f, 1e-4, np.int64(70)).u, kdv_evolve(f, 1e-4, 70).u)

    def test_public_fft_only_at_entry_and_exit(self, fft_calls):
        # the steps call pocketfft's gufuncs; np.fft runs once each way
        kdv_evolve(soliton_field(1.0), 1e-4, 130)
        assert fft_calls == ["rfft", "irfft"]

    @pytest.mark.parametrize("M, L", [(8, 40.0), (64, 16.0), (512, 40.0), (1024, 60.0)])
    def test_equals_reference_loop(self, M, L):
        # the buffered gufunc steps give the same doubles as the plain
        # IF-RK4 expressions on public np.fft; 130 steps cross two 64-step
        # blocks of the check
        f, dt, n_steps = soliton_field(1.0, L_domain=L, M=M), 1e-4, 130
        k = 2.0 * np.pi * np.fft.rfftfreq(M, d=f.L_domain / M)
        E = np.exp(1j * k**3 * (dt / 2.0))
        E2 = E * E
        keep = np.arange(k.size) <= M // 3

        def N(v):
            return dt * (3j * k * (np.fft.rfft(np.fft.irfft(v, M) ** 2) * keep))

        v = np.fft.rfft(f.u)
        for _ in range(n_steps):
            a = N(v)
            b = N(E * (v + a / 2))
            c = N(E * v + b / 2)
            d = N(E2 * v + E * c)
            v = E2 * v + (E2 * a + 2.0 * E * (b + c) + d) / 6
        assert np.array_equal(kdv_evolve(f, dt, n_steps).u, np.fft.irfft(v, M))


class TestTwoSolitonCollision:
    """After the fast soliton passes the slow one, both shapes are restored
    up to the classical forward/backward phase shifts."""

    @staticmethod
    def _trough(u, x, i, L):
        h = x[1] - x[0]
        ym, y0, yp = u[(i - 1) % u.size], u[i], u[(i + 1) % u.size]
        return x[i] + 0.5 * h * (ym - yp) / (ym - 2.0 * y0 + yp)

    def test_shapes_restored_with_phase_shifts(self, two_soliton_run):
        f0, g = two_soliton_run
        L, x = g.L_domain, g.x
        x_fast = self._trough(g.u, x, int(np.argmin(g.u)), L)
        d_fast = (x - x_fast + L / 2.0) % L - L / 2.0
        masked = np.where(np.abs(d_fast) > 8.0, g.u, 0.0)
        x_slow = self._trough(g.u, x, int(np.argmin(masked)), L)
        d_slow = (x - x_slow + L / 2.0) % L - L / 2.0

        err_fast = np.max(np.abs(g.u + 2.0 / np.cosh(d_fast) ** 2)[np.abs(d_fast) < 6.0])
        err_slow = np.max(np.abs(g.u + 0.5 / np.cosh(0.5 * d_slow) ** 2)[np.abs(d_slow) < 6.0])
        assert err_fast < 1e-4
        assert err_slow < 1e-4

        # free-flight crossing positions are 78 and 62; the interaction
        # advances the fast soliton by ln 3 and retards the slow one by 2 ln 3
        shift_fast = x_fast - (30.0 + 4.0 * 12.0)
        shift_slow = x_slow - (50.0 + 1.0 * 12.0)
        assert shift_fast == pytest.approx(math.log(3.0), abs=5e-3)
        assert shift_slow == pytest.approx(-2.0 * math.log(3.0), abs=5e-3)

    def test_invariants_survive_collision(self, two_soliton_run):
        f0, g = two_soliton_run
        (I0, _), (I1, _) = kdv_invariants(f0), kdv_invariants(g)
        assert np.max(np.abs(I1 - I0) / np.abs(I0)) < 1e-6


class TestRiccatiDensities:
    def test_first_density_is_minus_u(self, generic_field):
        d = riccati_densities(generic_field, 1)
        assert d.shape == (1, generic_field.M)
        assert np.array_equal(d[0], -generic_field.u)

    def test_low_order_closed_forms(self, generic_field):
        f = generic_field
        d = riccati_densities(f, 3)
        ux = spectral_derivative(f, 1)
        uxx = spectral_derivative(f, 2)
        assert np.max(np.abs(d[1] + ux)) < 1e-12
        assert np.max(np.abs(d[2] - (-uxx + f.u**2))) < 1e-12

    def test_higher_order_closed_forms(self, generic_field):
        f = generic_field
        d = riccati_densities(f, 5)
        u, ux = f.u, spectral_derivative(f, 1)
        uxx, uxxx = spectral_derivative(f, 2), spectral_derivative(f, 3)
        u4 = spectral_derivative(f, 4)
        assert np.max(np.abs(d[3] - (-uxxx + 4.0 * u * ux))) < 1e-10
        chi5 = -u4 + 5.0 * ux**2 + 6.0 * u * uxx - 2.0 * u**3
        assert np.max(np.abs(d[4] - chi5)) < 1e-10

    def test_high_order_warns(self, generic_field):
        with pytest.warns(UserWarning, match="order 8"):
            riccati_densities(generic_field, 9)

    def test_order_validation(self, generic_field):
        with pytest.raises(ValueError):
            riccati_densities(generic_field, 0)


class TestConservedIntegrals:
    def test_first_invariant_is_minus_mass(self, generic_field):
        I, _ = kdv_invariants(generic_field)
        mass = periodic_integral(generic_field.u, generic_field.L_domain)
        assert I[0] == pytest.approx(-mass, abs=1e-12)

    def test_second_invariant_is_l2_norm(self, generic_field):
        I, _ = kdv_invariants(generic_field)
        l2 = periodic_integral(generic_field.u**2, generic_field.L_domain)
        assert I[1] == pytest.approx(l2, rel=1e-12)

    def test_third_invariant_doubles_hamiltonian(self, generic_field):
        I, _ = kdv_invariants(generic_field)
        assert I[2] == pytest.approx(-2.0 * direct_hamiltonian(generic_field), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1.0, 0.7])
    def test_soliton_values(self, kappa):
        I, _ = kdv_invariants(soliton_field(kappa))
        exact = [4.0 * kappa, 16.0 * kappa**3 / 3.0, 64.0 * kappa**5 / 5.0]
        assert np.allclose(I, exact, rtol=1e-10)

    def test_even_integrals_vanish(self, generic_field):
        _, even = kdv_invariants(generic_field)
        assert np.max(np.abs(even)) < 1e-10

    def test_invariants_conserved_along_flow(self, evolved_soliton):
        f0, f1 = evolved_soliton
        (I0, _), (I1, even1) = kdv_invariants(f0), kdv_invariants(f1)
        assert np.max(np.abs(I1 - I0) / np.abs(I0)) < 1e-6
        assert np.max(np.abs(even1)) < 1e-10

    def test_count_follows_order(self, generic_field):
        I, even = kdv_invariants(generic_field, 4)
        assert I.shape == even.shape == (4,)

    def test_overflowing_density_rejected(self):
        # chi_5 holds a u**3 term, past the range of a double at |u| ~ 1e120
        f = PeriodicField(1e120 * soliton_field(1.0).u)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="I and even entries must be finite"
        ):
            kdv_invariants(f)


class TestDirectHamiltonian:
    def test_soliton_value(self):
        assert direct_hamiltonian(soliton_field(1.0)) == pytest.approx(-32.0 / 5.0, rel=1e-10)

    def test_drift_along_flow(self, evolved_soliton):
        f0, f1 = evolved_soliton
        h0, h1 = direct_hamiltonian(f0), direct_hamiltonian(f1)
        assert abs(h1 - h0) / abs(h0) < 1e-8


class TestRiccatiResidual:
    @pytest.mark.parametrize("order", [4, 6])
    def test_decay_exponent_matches_order(self, order):
        f = soliton_field(1.0)
        r1 = riccati_residual(f, order, 6.0)
        r2 = riccati_residual(f, order, 9.0)
        exponent = math.log(r1 / r2) / math.log(9.0 / 6.0)
        assert exponent == pytest.approx(order, abs=0.1)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            riccati_residual(soliton_field(1.0), 4, 0.0)


def window_knots(f):
    """The sample positions line_window puts under the rolled field."""
    return (np.arange(f.M) - f.M // 2) * f.h


class TestLinePotential:
    def test_edge_decay_enforced(self):
        with pytest.raises(DecayError):
            LinePotential(lambda x: 0.1 * np.cos(x), -20.0, 20.0)

    def test_nan_edge_rejected(self):
        # NaN fails every comparison, so it must not pass as decayed
        with pytest.raises(DecayError, match="window edge"):
            LinePotential(lambda x: np.full_like(x, np.nan), -1.0, 1.0)

    def test_window_of_non_decaying_field_rejected(self):
        x = kdv_grid()
        with pytest.raises(DecayError):
            line_window(PeriodicField(0.1 * np.cos(2.0 * np.pi * x / 40.0)))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="below x_right"):
            LinePotential(np.zeros_like, 1.0, 1.0)

    def test_window_recenters_soliton(self):
        f = soliton_field(1.0, x0=7.0)
        w = line_window(f)
        x = window_knots(f)
        assert (w.x_left, w.x_right) == (x[0], x[-1])
        u = w.fn(x)
        assert abs(u[0]) < 1e-10 and abs(u[-1]) < 1e-10
        assert x[np.argmin(u)] == pytest.approx(0.0, abs=f.h)

    def test_window_values_match_profile(self):
        # center on a grid node so the integer roll lands exactly
        h = 40.0 / 512
        f = soliton_field(1.0, x0=168 * h)
        x = window_knots(f)
        assert np.max(np.abs(line_window(f).fn(x) - soliton(x, 1.0, 0.0))) < 1e-10

    @pytest.mark.parametrize("kappa", [0.8, 1.0, 1.3])
    def test_window_interpolates_between_samples(self, kappa):
        # between the samples the window is the band-limited field itself
        w = line_window(soliton_field(kappa))
        x = np.linspace(w.x_left, w.x_right, 10007)
        assert np.max(np.abs(w.fn(x) - soliton(x, kappa, 0.0))) < 1e-12

    def test_transforms_once_per_window(self, fft_calls):
        # the window's interpolant is built once, by line_window; the
        # bound-state scan, its refinement steps and later sweeps reuse it
        for kappa in (1.0, 1.3):
            w = line_window(soliton_field(kappa))
            assert fft_calls == ["rfft", "irfft"]
            assert bound_states(w, 1.5).size == 1
            scattering_a(w, [1.3])
            assert fft_calls == ["rfft", "irfft"]
            fft_calls.clear()


class TestSchrodingerA:
    def test_free_potential_gives_unity(self):
        zero = LinePotential(np.zeros_like, -20.0, 20.0)
        assert abs(schrodinger_a(zero, 1.3) - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [0.3, 0.7, 1.3, 2.0])
    def test_soliton_matches_analytic(self, sech_pot, k):
        a = schrodinger_a(sech_pot, k)
        assert abs(a - analytic_soliton_a(k, [1.0])) < 1e-6

    def test_windowed_field_matches_analytic(self):
        w = line_window(soliton_field(1.0))
        a = schrodinger_a(w, 1.3)
        assert abs(a - analytic_soliton_a(1.3, [1.0])) < 1e-6

    def test_invariant_along_flow(self, evolved_soliton, half_evolved_soliton):
        f0, f1 = evolved_soliton
        f_half = half_evolved_soliton
        values = [schrodinger_a(line_window(f), 1.3) for f in (f0, f_half, f1)]
        assert max(abs(v - values[0]) for v in values) < 1e-4

    def test_imaginary_axis_real_valued(self, sech_pot):
        a = schrodinger_a(sech_pot, 0.5j)
        assert a.imag == pytest.approx(0.0, abs=1e-12)
        assert a.real == pytest.approx(-1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("kappa", [3.0, 4.0, 6.0])
    def test_deep_imaginary_axis(self, sech_pot, kappa):
        # the launch value exp(-20 kappa) is far below any fixed atol
        a = schrodinger_a(sech_pot, 1j * kappa)
        assert abs(a - (kappa - 1.0) / (kappa + 1.0)) < 1e-9

    def test_k_validation(self, sech_pot):
        with pytest.raises(ValueError):
            schrodinger_a(sech_pot, 0.0)
        with pytest.raises(ValueError):
            schrodinger_a(sech_pot, -0.5j)


class TestScatteringA:
    """The Magnus sweep against the closed form and the DOP853 oracle."""

    def test_soliton_real_axis(self, sech_pot):
        ks = np.linspace(0.05, 4.0, 60)
        exact = np.array([analytic_soliton_a(k, [1.0]) for k in ks])
        assert np.max(np.abs(scattering_a(sech_pot, ks) - exact)) < 1e-11

    def test_soliton_imaginary_axis(self, sech_pot):
        kappas = np.array([0.3, 0.5, 0.99, 1.01, 1.5, 3.0, 6.0])
        a = scattering_a(sech_pot, 1j * kappas)
        assert np.all(a.imag == 0.0)
        assert np.max(np.abs(a.real - (kappas - 1.0) / (kappas + 1.0))) < 1e-11

    @pytest.mark.parametrize("k", [10.0, 20.0, 20j, 30.0, 30j])
    def test_far_from_origin(self, sech_pot, k):
        # at kappa = 20 a product of all cell propagators would overflow;
        # past |k| = 20 the phase limit, not _MAX_CELL, sets the cell width
        a = scattering_a(sech_pot, [k])[0]
        assert np.isfinite(a)
        assert abs(a - analytic_soliton_a(k, [1.0])) < 1e-11

    def test_two_well_matches_oracle(self):
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = LinePotential(lambda x: fn_a(x) + fn_b(x), -40.0, 40.0)
        ks = np.array([0.2, 0.8, 1.7, 3.0, 0.3j, 0.75j, 1.2j])
        oracle = np.array([schrodinger_a(pot, k) for k in ks])
        assert np.max(np.abs(scattering_a(pot, ks) - oracle)) < 1e-9

    def test_window_matches_closed_form(self):
        # the window's spectral interpolant is the sampled soliton to
        # round-off, so a(k) on it is the closed form's
        w = line_window(soliton_field(1.0))
        ks = np.array([0.3, 0.4, 1.0, 1.3, 2.0, 2.5, 0.5j, 1.1j, 1.5j])
        exact = np.array([analytic_soliton_a(k, [1.0]) for k in ks])
        assert np.max(np.abs(scattering_a(w, ks) - exact)) <= 1e-12

    def test_free_potential_gives_unity(self):
        zero = LinePotential(np.zeros_like, -20.0, 20.0)
        assert np.max(np.abs(scattering_a(zero, [0.1, 1.3, 7.0, 0.4j]) - 1.0)) < 1e-12

    @pytest.mark.parametrize("x", [(-40.0, 40.0), (-40.0, 0.0), (0.0, 40.0)])
    def test_out_of_range_raises(self, x):
        # exp(20 x) underflows at the left edge or overflows at the right
        # one; the launch check and the post-sweep check both name both remedies
        pot = LinePotential(np.zeros_like, *x)
        with pytest.raises(ConvergenceError, match=r"floating-point range.*smaller \|k\|.*narrower window"):
            scattering_a(pot, [1.0, 20j])

    def test_launch_underflow_raises_before_the_sweep(self):
        # exp(-800) underflows at the left edge: known before any cell, so
        # a large bound-state scan fails at once rather than after its sweep
        calls = []

        def counting(x):
            calls.append(x)
            return np.zeros_like(x)

        pot = LinePotential(counting, -40.0, 40.0)
        calls.clear()  # the edge check at construction
        with pytest.raises(ConvergenceError, match=r"k=20j.*smaller \|k\|.*narrower window"):
            scattering_a(pot, [1.0, 20j])
        assert calls == []

    # a non-finite k must fail here: past these checks nan poisons the
    # sweep and an infinite |k| makes the cell width 0
    @pytest.mark.parametrize(
        "ks",
        [[], [0.0], [-0.5j], [1.0 + 1.0j], [[1.0]], [np.nan], [1.0, np.inf], [complex(0.0, np.inf)]],
    )
    def test_k_validation(self, sech_pot, ks):
        with pytest.raises(ValueError):
            scattering_a(sech_pot, np.array(ks, dtype=complex))

    def test_independent_of_company_and_blocking(self):
        # 300 k make blocks of one chunk, 1-2 k blocks of 32 or more chunks;
        # with the same largest |k| (the same cells) each a(k) is the same
        # double
        w = line_window(soliton_field(1.0, x0=13.0))
        ks = np.concatenate([np.linspace(0.05, 4.0, 250), 1j * np.linspace(0.1, 3.0, 50)])
        together = scattering_a(w, ks)
        assert np.array_equal(scattering_a(w, [4.0]), together[249:250])
        for i in range(0, ks.size, 23):
            assert np.array_equal(scattering_a(w, [ks[i], 4.0])[0], together[i])

    def test_one_potential_call_per_block(self):
        calls = []

        def fn(x):
            calls.append(np.shape(x))
            return sech2_potential()(x)

        pot = LinePotential(fn, -20.0, 20.0)
        calls.clear()
        scattering_a(pot, [1.3])
        assert len(calls) <= 2


class TestMagnusCells:
    """The cell kernel on constant-u cells, where Omega = h [[0, 1], [q, 0]]
    exactly and exp(Omega) is known independently."""

    @pytest.mark.parametrize("h", [0.01, 0.2 / 30.0])
    def test_constant_cells_match_the_matrix_exponential(self, h):
        from scipy.linalg import expm

        u = np.array([-2.0, 0.0, 0.5, 3.0])[None, :, None]
        ksq = np.array([-4.0, -0.25, 0.25, 1.0, 9.0])  # k = 2j, 0.5j, 0.5, 1, 3
        got = np.stack(kdv._magnus_cells(h, u, u, u, ksq), axis=-1).reshape(u.size, ksq.size, 2, 2)
        for i, ui in enumerate(u.ravel()):
            for j, q in enumerate(ui - ksq):
                assert np.max(np.abs(got[i, j] - expm(h * np.array([[0.0, 1.0], [q, 0.0]])))) < 1e-15

    @pytest.mark.parametrize("h", [0.3, 1.0])
    def test_hand_expansion_matches_the_commutator_formula(self, h):
        # wide cells and varying u, so every term of Omega counts
        from scipy.linalg import expm

        def comm(x, y):
            return x @ y - y @ x

        u = np.random.default_rng(5).uniform(-3.0, 3.0, size=(1, 4, 3))
        ksq = np.array([-2.0, 0.3, 1.7])
        got = np.stack(kdv._magnus_cells(h, *(u[..., j, None] for j in range(3)), ksq), axis=-1)
        for i in range(u.shape[1]):
            for j, k2 in enumerate(ksq):
                A1, A2, A3 = (np.array([[0.0, 1.0], [v - k2, 0.0]]) for v in u[0, i])
                a1, a2 = h * A2, (math.sqrt(15.0) * h / 3.0) * (A3 - A1)
                a3 = (10.0 * h / 3.0) * (A3 - 2.0 * A2 + A1)
                c1 = comm(a1, a2)
                c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
                omega = a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
                want = expm(omega).ravel()
                assert np.max(np.abs(got[0, i, j] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_zero_q_is_the_free_shear_bit_for_bit(self):
        # u2 = k^2 at every node: s = 0, and exp(Omega) = [[1, h], [0, 1]]
        h, u = 0.01, np.full((2, 3, 1), 2.25)
        e00, e01, e10, e11 = kdv._magnus_cells(h, u, u, u, np.array([2.25, 1.0]))
        assert np.all(e00[..., 0] == 1.0) and np.all(e01[..., 0] == h)
        assert np.all(e10[..., 0] == 0.0) and np.all(e11[..., 0] == 1.0)


class TestBoundStates:
    def test_soliton_bound_state(self, sech_pot):
        bk = bound_states(sech_pot, 3.0)
        assert bk.size == 1
        assert bk[0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("k_max", [np.inf, np.nan])
    def test_nonfinite_k_max_rejected(self, sech_pot, k_max):
        with pytest.raises(ValueError, match="k_max must be finite"):
            bound_states(sech_pot, k_max)

    def test_scan_deep_into_imaginary_axis(self, sech_pot):
        # a(i kappa) -> 1 far from the root; the scan must not mistake a
        # lost launch value for a zero
        bk = bound_states(sech_pot, 6.0)
        assert bk.size == 1
        assert bk[0] == pytest.approx(1.0, abs=1e-10)

    def test_two_well_superposition(self):
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = LinePotential(lambda x: fn_a(x) + fn_b(x), -40.0, 40.0)
        bk = bound_states(pot, 1.5)
        assert bk.size == 2
        assert np.allclose(bk, [0.5, 1.0], atol=1e-6)

    def test_repulsive_on_average_packet_is_empty(self):
        # positive net area keeps the shallow-well bound state away
        pot = LinePotential(lambda x: 0.05 * np.cos(2.0 * x) * np.exp(-(x**2) / 16.0), -20.0, 20.0)
        assert bound_states(pot, 1.0).size == 0

    def test_empty_range(self, sech_pot):
        assert bound_states(sech_pot, 0.01).size == 0

    def test_no_root_above_k_max(self):
        # a scan sample at 1.0 > 0.99 would bracket the root at 0.995
        pot = LinePotential(sech2_potential(0.995), -20.0, 20.0)
        assert bound_states(pot, 0.99).size == 0
        bk = bound_states(pot, 1.0)
        assert bk.size == 1
        assert abs(bk[0] - 0.995) <= 1e-10

    @pytest.mark.parametrize("k_max", [0.97, 0.99, 1.5, 2.0])
    def test_scan_ends_at_k_max(self, sech_pot, k_max, monkeypatch):
        sweeps = []
        real = kdv.scattering_a

        def recording(pot, ks):
            sweeps.append(np.atleast_1d(ks).imag)
            return real(pot, ks)

        monkeypatch.setattr(kdv, "scattering_a", recording)
        bound_states(sech_pot, k_max)
        scan = sweeps[0]
        assert scan[-1] == k_max
        assert np.all(np.diff(scan) > 0) and np.max(np.diff(scan)) <= 0.05 + 1e-12

    @pytest.mark.parametrize("kappa", [0.95, 1.0, 1.02, 1.05, 1.3, 1.33])
    def test_analytic_profiles_to_round_off(self, kappa, monkeypatch):
        # the scan plus at most 7 refinement sweeps, the count of the
        # Brent steps this refinement replaced; 1.02 and 1.33 lie between
        # scan samples, the others on one
        sweeps = []
        real = kdv.scattering_a

        def counting(pot, ks):
            sweeps.append(ks)
            return real(pot, ks)

        monkeypatch.setattr(kdv, "scattering_a", counting)
        bk = bound_states(LinePotential(sech2_potential(kappa), -20.0, 20.0), kappa + 0.5)
        assert bk.size == 1
        assert abs(bk[0] - kappa) <= 2e-12
        assert len(sweeps) <= 8

    def test_evolved_soliton_window(self, half_evolved_soliton):
        bk = bound_states(line_window(half_evolved_soliton), 1.5)
        assert bk.size == 1
        assert abs(bk[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("kappa", [0.95, 1.0, 1.05])
    def test_root_at_k_max_is_the_last_sample(self, kappa):
        bk = bound_states(LinePotential(sech2_potential(kappa), -20.0, 20.0), kappa)
        assert bk.tolist() == [kappa]

    @pytest.mark.parametrize("kappa", [0.95, 1.0, 1.05])
    def test_root_on_a_scan_sample_needs_no_refinement(self, kappa, monkeypatch):
        sweeps = []
        real = kdv.scattering_a

        def counting(pot, ks):
            sweeps.append(np.atleast_1d(ks).imag)
            return real(pot, ks)

        monkeypatch.setattr(kdv, "scattering_a", counting)
        bk = bound_states(LinePotential(sech2_potential(kappa), -20.0, 20.0), kappa + 0.5)
        assert len(sweeps) == 1
        assert bk.size == 1 and bk[0] in sweeps[0]
        assert abs(bk[0] - kappa) <= 1e-15

    @pytest.mark.parametrize("nu", [2, 3])
    def test_poschl_teller_integer_levels(self, nu):
        # -nu (nu + 1) sech^2 x binds kappa_n = nu - n, n = 0..nu-1
        pot = LinePotential(lambda x: -nu * (nu + 1) / np.cosh(x) ** 2, -20.0, 20.0)
        bk = bound_states(pot, nu + 0.5)
        assert bk.size == nu
        assert np.max(np.abs(bk - np.arange(1, nu + 1))) <= 1e-10

    @pytest.mark.parametrize("nu", [2.33, 3.33])
    def test_poschl_teller_one_sweep_per_iteration(self, nu, monkeypatch):
        # -nu (nu + 1) sech^2 x binds kappa_n = nu - n, n = 0..ceil(nu)-1,
        # all off the scan grid; every refinement iteration evaluates one
        # point of each open bracket, all of them in one sweep
        sweeps, refine_from = [], []
        real_a, real_refine = kdv.scattering_a, kdv._refine_roots

        def counting(pot, ks):
            sweeps.append(np.atleast_1d(ks).imag)
            return real_a(pot, ks)

        def marking(*args):
            refine_from.append(len(sweeps))
            return real_refine(*args)

        monkeypatch.setattr(kdv, "scattering_a", counting)
        monkeypatch.setattr(kdv, "_refine_roots", marking)
        levels = nu - np.arange(math.ceil(nu))[::-1]
        pot = LinePotential(lambda x: -nu * (nu + 1) / np.cosh(x) ** 2, -20.0, 20.0)
        bk = bound_states(pot, nu + 0.5)
        assert bk.size == levels.size
        assert np.max(np.abs(bk - levels)) <= 1e-10
        # a point belongs to the bracket of its nearest root
        brackets = [np.argmin(np.abs(k[:, None] - levels), axis=1) for k in sweeps[refine_from[0] :]]
        assert brackets[0].size == levels.size
        assert all(np.unique(b).size == b.size for b in brackets)
        assert len(brackets) == np.bincount(np.concatenate(brackets)).max()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: kappa < 0.05 is not searched")
    def test_poschl_teller_level_below_the_scan(self):
        # -nu (nu + 1) sech^2 x with nu = 1.02 binds kappa = 1.02 and 0.02
        nu = 1.02
        bk = bound_states(LinePotential(lambda x: -nu * (nu + 1) / np.cosh(x) ** 2, -20.0, 20.0), 3.0)
        assert np.allclose(bk, [0.02, 1.02], atol=1e-9)

    def test_iteration_cap_names_the_open_interval(self, monkeypatch):
        # kappa 1.02 lies between the scan samples 1.0 and 1.05
        monkeypatch.setattr(kdv, "_REFINE_STEPS", 2)
        with pytest.raises(ConvergenceError, match="open after 2 iterations") as exc:
            bound_states(LinePotential(sech2_potential(1.02), -20.0, 20.0), 1.5)
        interval = re.search(r"kappa in \[([^,]+), ([^\]]+)\]", str(exc.value))
        lo, hi = float(interval[1]), float(interval[2])
        assert 1.0 <= lo < 1.02 < hi <= 1.05


class TestActionVariables:
    """continuum_actions: the checks on a(k), then n(k)."""

    @pytest.mark.parametrize("name", ["k_grid", "a"])
    def test_nan_entry_rejected(self, name):
        args = {"k_grid": np.array([0.5, 1.0, 2.0]), "a": np.array([1.2 + 0.1j, 1.1, 1.0])}
        args[name][1] = np.nan
        with pytest.raises(ValueError, match=f"{name} entries must be finite"):
            continuum_actions(**args)

    @pytest.mark.parametrize(
        "k, a",
        [([], []), ([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [[1.0, 1.0]])],
        ids=["empty", "mismatched", "2-d"],
    )
    def test_shape_rejected(self, k, a):
        with pytest.raises(ValueError, match="matching nonempty 1-d arrays"):
            continuum_actions(np.array(k), np.array(a))

    @pytest.mark.parametrize(
        "k", [[3.0, 1.0, 0.5], [0.5, 1.0, 1.0], [0.0, 1.0, 2.0]], ids=["reversed", "repeat", "zero"]
    )
    def test_grid_must_be_positive_and_increasing(self, k):
        with pytest.raises(ValueError, match="positive and strictly increasing"):
            continuum_actions(np.array(k), np.ones(3))

    def test_modulus_floor_enforced(self):
        k = np.array([0.5, 1.0, 1.5])
        a = np.array([1.0 + 0j, 0.5 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError, match=r"\|a\| dips"):
            continuum_actions(k, a)

    def test_high_k_limit_enforced(self):
        k = np.array([0.5, 1.0, 1.5])
        a = np.array([2.0 + 0j, 2.0 + 0j, 2.0 + 0j])
        with pytest.raises(ValueError, match="high-k limit"):
            continuum_actions(k, a)

    def test_negative_density_rejected(self):
        # |a| = 1 - 1e-9 passes the |a| >= 1 - 1e-8 check, but
        # n(1) = (2/pi) ln |a|^2 ~ -1.27e-9 is below the -1e-10 floor
        with pytest.raises(ValueError, match=r"n\(k\) dips"):
            continuum_actions(np.array([1.0]), np.array([1.0 - 1e-9]))

    def test_soliton_data_passes(self, sech_pot):
        k = np.linspace(0.2, 3.0, 15)
        a = scattering_a(sech_pot, k)
        continuum_actions(k, a)
        assert np.allclose(np.abs(a), 1.0, atol=1e-9)
        assert bound_states(sech_pot, 1.5).size == 1

    def test_reflectionless_soliton(self, sech_data):
        _, _, n, kappas = sech_data
        assert np.max(np.abs(n)) < 1e-6
        assert kappas.size == 1
        assert kappas[0] ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_n_of_k_is_the_formula(self, sech_data):
        k, a, n, _ = sech_data
        assert np.array_equal(n, (2.0 * k / np.pi) * np.log(np.abs(a) ** 2))

    def test_caller_arrays_stay_writable_and_unaliased(self):
        k, a = np.array([0.5, 1.0, 2.0]), np.array([1.2 + 0.1j, 1.1, 1.0])
        n = continuum_actions(k, a)
        kept = n.copy()
        assert k.flags.writeable and a.flags.writeable
        k[0], a[0] = 0.25, 1.5
        assert np.array_equal(n, kept)

    def test_oscillating_packet_has_positive_density(self):
        pot = LinePotential(lambda x: 0.05 * np.cos(2.0 * x) * np.exp(-(x**2) / 16.0), -20.0, 20.0)
        k = np.linspace(0.1, 3.0, 30)
        n = continuum_actions(k, scattering_a(pot, k))
        assert np.min(n) > -1e-10
        assert np.max(n) > 1e-4  # genuine radiation content


class TestHamiltonianFromActions:
    def test_single_soliton_value(self, sech_data):
        k, _, n, kappas = sech_data
        H = hamiltonian_from_actions(k, n, kappas)
        assert H == pytest.approx(-32.0 / 5.0, rel=1e-4)

    def test_agrees_with_direct_functional(self, sech_data):
        k, _, n, kappas = sech_data
        H = hamiltonian_from_actions(k, n, kappas)
        H_direct = direct_hamiltonian(soliton_field(1.0))
        assert abs(H - H_direct) / abs(H_direct) < 1e-4

    def test_two_soliton_value(self, two_soliton_run):
        f0, _ = two_soliton_run
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = LinePotential(lambda x: fn_a(x) + fn_b(x), -40.0, 40.0)
        k = np.linspace(0.05, 4.0, 80)
        n = continuum_actions(k, scattering_a(pot, k))
        H = hamiltonian_from_actions(k, n, bound_states(pot, 1.5))
        assert H == pytest.approx(direct_hamiltonian(f0), rel=1e-4)
        assert H == pytest.approx(-6.6, rel=1e-4)

    def test_unconverged_tail_warns(self):
        # |a(k)| = exp(pi 0.05 / (4k)) makes n(k) = 0.05 on every sample
        k = np.linspace(1.0, 2.0, 11)
        n = continuum_actions(k, np.exp(np.pi * 0.05 / (4.0 * k)))
        with pytest.warns(UserWarning, match="extend the k grid"):
            hamiltonian_from_actions(k, n, [])

    @pytest.mark.parametrize("kappa", [0.0, -1.0, np.nan, np.inf])
    def test_bad_wavenumber_rejected(self, kappa):
        with pytest.raises(ValueError, match="positive and finite"):
            hamiltonian_from_actions([1.0, 2.0], [0.0, 0.0], [1.0, kappa])

    def test_mismatched_actions_rejected(self):
        # a one-entry n(k) would broadcast over the whole grid
        with pytest.raises(ValueError, match="matching nonempty 1-d arrays"):
            hamiltonian_from_actions([1.0, 2.0, 3.0], [0.5], [])

    @pytest.mark.parametrize(
        "k, n, match",
        [
            ([1.0, 2.0], [0.1, np.nan], "n_of_k entries must be finite"),
            ([1.0, np.inf], [0.1, 0.1], "k_grid entries must be finite"),
            ([2.0, 1.0], [0.1, 0.1], "positive and strictly increasing"),
            ([0.0, 1.0], [0.1, 0.1], "positive and strictly increasing"),
            ([], [], "matching nonempty 1-d arrays"),
        ],
        ids=["nan-action", "inf-k", "decreasing", "zero-k", "empty"],
    )
    def test_k_table_checked_as_in_continuum_actions(self, k, n, match):
        # each of these returned a number before: NaN, or an integral of the wrong sign
        with pytest.raises(ValueError, match=match):
            hamiltonian_from_actions(k, n, [1.0])

    def test_one_sample_grid_gives_the_discrete_part(self):
        assert hamiltonian_from_actions([1.0], [0.3], [1.0]) == -6.4
