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
    ScatteringData,
    analytic_soliton_a,
    bound_states,
    cfl_timestep,
    direct_hamiltonian,
    hamiltonian_from_actions,
    kdv_evolve,
    kdv_grid,
    kdv_invariants,
    line_window,
    periodic_integral,
    riccati_densities,
    riccati_residual,
    sample_potential,
    scattering_a,
    scattering_data,
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
    return sample_potential(sech2_potential())


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
    return scattering_data(sech_pot, np.linspace(0.05, 4.0, 60), k_max_bound=1.5)


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
        monkeypatch.setattr(np.fft, "rfft", no_transform)
        with pytest.raises(ValueError, match=f"n_steps must be an integer >= 0, got {n_steps!r}"):
            kdv_evolve(f, 1e-4, n_steps)

    def test_numpy_integer_steps_accepted(self):
        f = soliton_field(1.0)
        assert np.array_equal(kdv_evolve(f, 1e-4, np.int64(70)).u, kdv_evolve(f, 1e-4, 70).u)

    def test_equals_reference_loop(self):
        # the buffered steps give the same doubles as the plain IF-RK4
        # expressions; 130 steps cross two 64-step blocks of the check
        f, dt, n_steps = soliton_field(1.0), 1e-4, 130
        M = f.M
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
            sample_potential(lambda x: 0.1 * np.cos(x))

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

    def test_transforms_once_per_window(self, monkeypatch):
        # the window's interpolant is built once, by line_window; the
        # bound-state scan, its refinement steps and later sweeps reuse it
        calls = []

        def counting(name):
            real = getattr(np.fft, name)

            def transform(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, transform)

        counting("rfft")
        counting("irfft")
        for kappa in (1.0, 1.3):
            w = line_window(soliton_field(kappa))
            assert calls == ["rfft", "irfft"]
            assert bound_states(w, 1.5).size == 1
            scattering_a(w, [1.3])
            assert calls == ["rfft", "irfft"]
            calls.clear()


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

    @pytest.mark.parametrize("k", [10.0, 20.0, 20j])
    def test_far_from_origin(self, sech_pot, k):
        # at kappa = 20 a product of all cell propagators would overflow
        a = scattering_a(sech_pot, [k])[0]
        assert np.isfinite(a)
        assert abs(a - analytic_soliton_a(k, [1.0])) < 1e-11

    def test_two_well_matches_oracle(self):
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = sample_potential(lambda x: fn_a(x) + fn_b(x), half_width=40.0)
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
        # exp(20 x) underflows at the left edge or overflows at the right one
        pot = LinePotential(np.zeros_like, *x)
        with pytest.raises(ConvergenceError, match="floating-point range"):
            scattering_a(pot, [1.0, 20j])

    @pytest.mark.parametrize("ks", [[], [0.0], [-0.5j], [1.0 + 1.0j], [[1.0]]])
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

        pot = sample_potential(fn)
        calls.clear()
        scattering_a(pot, [1.3])
        assert len(calls) <= 2


class TestBoundStates:
    def test_soliton_bound_state(self, sech_pot):
        bk = bound_states(sech_pot, 3.0)
        assert bk.size == 1
        assert bk[0] == pytest.approx(1.0, abs=1e-8)

    def test_scan_deep_into_imaginary_axis(self, sech_pot):
        # a(i kappa) -> 1 far from the root; the scan must not mistake a
        # lost launch value for a zero
        bk = bound_states(sech_pot, 6.0)
        assert bk.size == 1
        assert bk[0] == pytest.approx(1.0, abs=1e-10)

    def test_two_well_superposition(self):
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = sample_potential(lambda x: fn_a(x) + fn_b(x), half_width=40.0)
        bk = bound_states(pot, 1.5)
        assert bk.size == 2
        assert np.allclose(bk, [0.5, 1.0], atol=1e-6)

    def test_repulsive_on_average_packet_is_empty(self):
        # positive net area keeps the shallow-well bound state away
        pot = sample_potential(lambda x: 0.05 * np.cos(2.0 * x) * np.exp(-(x**2) / 16.0))
        assert bound_states(pot, 1.0).size == 0

    def test_empty_range(self, sech_pot):
        assert bound_states(sech_pot, 0.01).size == 0

    @pytest.mark.parametrize("kappa", [0.95, 1.0, 1.05, 1.3])
    def test_analytic_profiles_to_round_off(self, kappa, monkeypatch):
        # the scan plus at most 7 refinement sweeps, the count of the
        # Brent steps this refinement replaced
        sweeps = []
        real = kdv.scattering_a

        def counting(pot, ks):
            sweeps.append(ks)
            return real(pot, ks)

        monkeypatch.setattr(kdv, "scattering_a", counting)
        bk = bound_states(sample_potential(sech2_potential(kappa)), kappa + 0.5)
        assert bk.size == 1
        assert abs(bk[0] - kappa) <= 2e-12
        assert len(sweeps) <= 8

    def test_evolved_soliton_window(self, half_evolved_soliton):
        bk = bound_states(line_window(half_evolved_soliton), 1.5)
        assert bk.size == 1
        assert abs(bk[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("nu", [2, 3])
    def test_poschl_teller_one_sweep_per_iteration(self, nu, monkeypatch):
        # -nu (nu + 1) sech^2 x binds kappa_n = nu - n, n = 0..nu-1; every
        # refinement iteration evaluates one point of each open bracket,
        # all of them in one sweep
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
        pot = sample_potential(lambda x: -nu * (nu + 1) / np.cosh(x) ** 2)
        bk = bound_states(pot, nu + 0.5)
        assert bk.size == nu
        assert np.max(np.abs(bk - np.arange(1, nu + 1))) <= 1e-10
        # a point belongs to the bracket of its nearest root
        brackets = [np.rint(kappas).astype(int) for kappas in sweeps[refine_from[0] :]]
        assert brackets[0].size == nu
        assert all(np.unique(b).size == b.size for b in brackets)
        assert len(brackets) == np.bincount(np.concatenate(brackets)).max()

    def test_iteration_cap_names_the_open_interval(self, sech_pot, monkeypatch):
        monkeypatch.setattr(kdv, "_REFINE_STEPS", 2)
        with pytest.raises(ConvergenceError, match="open after 2 iterations") as exc:
            bound_states(sech_pot, 1.5)
        interval = re.search(r"kappa in \[([^,]+), ([^\]]+)\]", str(exc.value))
        lo, hi = float(interval[1]), float(interval[2])
        assert 0.95 <= lo < 1.0 < hi <= 1.05


class TestScatteringData:
    def test_modulus_floor_enforced(self):
        k = np.array([0.5, 1.0, 1.5])
        a = np.array([1.0 + 0j, 0.5 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError, match=r"\|a\| dips"):
            ScatteringData(k, a, np.array([]))

    def test_high_k_limit_enforced(self):
        k = np.array([0.5, 1.0, 1.5])
        a = np.array([2.0 + 0j, 2.0 + 0j, 2.0 + 0j])
        with pytest.raises(ValueError, match="high-k limit"):
            ScatteringData(k, a, np.array([]))

    def test_soliton_data_passes(self, sech_pot):
        sd = scattering_data(sech_pot, np.linspace(0.2, 3.0, 15), k_max_bound=1.5)
        assert np.allclose(np.abs(sd.a), 1.0, atol=1e-9)
        assert sd.bound_k.size == 1


class TestActionVariables:
    def test_reflectionless_soliton(self, sech_data):
        assert np.max(np.abs(sech_data.n_of_k)) < 1e-6
        assert sech_data.N_l.size == 1
        assert sech_data.N_l[0] == pytest.approx(1.0, abs=1e-6)

    def test_negative_density_rejected(self):
        # |a| = 1 - 1e-9 passes the |a| >= 1 - 1e-8 check, but
        # n(1) = (2/pi) ln |a|^2 ~ -1.27e-9 is below the -1e-10 floor
        with pytest.raises(ValueError, match=r"n\(k\) dips"):
            ScatteringData(np.array([1.0]), np.array([1.0 - 1e-9]), np.array([]))

    def test_n_of_k_is_the_read_only_formula(self, sech_data):
        want = (2.0 * sech_data.k_grid / np.pi) * np.log(np.abs(sech_data.a) ** 2)
        assert np.array_equal(sech_data.n_of_k, want)
        with pytest.raises(ValueError):
            sech_data.n_of_k[0] = 0.0
        assert np.array_equal(sech_data.N_l, sech_data.bound_k**2)

    def test_oscillating_packet_has_positive_density(self):
        pot = sample_potential(lambda x: 0.05 * np.cos(2.0 * x) * np.exp(-(x**2) / 16.0))
        sd = scattering_data(pot, np.linspace(0.1, 3.0, 30), k_max_bound=1.0)
        assert np.min(sd.n_of_k) > -1e-10
        assert np.max(sd.n_of_k) > 1e-4  # genuine radiation content


class TestHamiltonianFromActions:
    def test_single_soliton_value(self, sech_data):
        H = hamiltonian_from_actions(sech_data)
        assert H == pytest.approx(-32.0 / 5.0, rel=1e-4)

    def test_agrees_with_direct_functional(self, sech_data):
        H = hamiltonian_from_actions(sech_data)
        H_direct = direct_hamiltonian(soliton_field(1.0))
        assert abs(H - H_direct) / abs(H_direct) < 1e-4

    def test_two_soliton_value(self, two_soliton_run):
        f0, _ = two_soliton_run
        fn_a, fn_b = sech2_potential(1.0, -10.0), sech2_potential(0.5, 10.0)
        pot = sample_potential(lambda x: fn_a(x) + fn_b(x), half_width=40.0)
        sd = scattering_data(pot, np.linspace(0.05, 4.0, 80), k_max_bound=1.5)
        H = hamiltonian_from_actions(sd)
        assert H == pytest.approx(direct_hamiltonian(f0), rel=1e-4)
        assert H == pytest.approx(-6.6, rel=1e-4)

    def test_unconverged_tail_warns(self):
        # |a(k)| = exp(pi 0.05 / (4k)) makes n(k) = 0.05 on every sample
        k = np.linspace(1.0, 2.0, 11)
        sd = ScatteringData(k, np.exp(np.pi * 0.05 / (4.0 * k)), np.array([]))
        with pytest.warns(UserWarning, match="extend the k grid"):
            hamiltonian_from_actions(sd)
