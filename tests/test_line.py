"""Tests for the truncated-line vibrating string module."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamlab import (
    CanonicalState,
    DecayError,
    DomainExitError,
    InvalidIntegralsError,
    ScalingError,
    SingularPointError,
    line,
)
from hamlab.line import (
    LineField,
    continuous_mode_energy,
    dalembert_evolve,
    g_from_moments,
    gseries_comparison,
    line_energy,
    line_grid,
    moments,
    recover_momenta_triangular,
    sample_line_field,
    support_margin,
    taylor_oracle,
    velocity_moment,
)


def u_generic(x):
    return np.exp(-((x - 1.0) ** 2) / 2.0) + 0.3 * np.exp(-((x + 2.0) ** 2) / 3.0)


def v_generic(x):
    return 0.4 * x * np.exp(-(x**2) / 2.0)


@pytest.fixture(scope="module")
def generic_field():
    return sample_line_field(u_generic, v_generic)


class TestLineField:
    def test_grid_is_bitwise_symmetric(self):
        # a binary step, a coarse one and one that is not a binary fraction
        for L, step in [(20.0, 1.0 / 1024.0), (2.0, 0.5), (3.0, 0.1)]:
            x = line_grid(L, step)
            assert np.max(np.abs(x + x[::-1])) == 0.0
            f = sample_line_field(lambda x: np.zeros_like(x), L=L, step=step)
            assert np.array_equal(f.grid, x)
            assert f.h == step and f.L == x[-1]

    def test_decay_violation_rejected(self):
        with pytest.raises(DecayError):
            sample_line_field(lambda x: np.exp(-(x**2) / 400.0))

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError):
            LineField(np.zeros(10), np.zeros(10), 0.2)

    def test_support_margin(self):
        f = sample_line_field(lambda x: np.exp(-(x**2)))
        # exp(-x^2) crosses 1e-12 near |x| = 5.256
        assert support_margin(f) == pytest.approx(20.0 - 5.2565, abs=0.01)

    def test_margin_of_quiet_field(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        assert support_margin(f) == pytest.approx(40.0)


class TestDalembertEvolve:
    def test_zero_dt_identity(self, generic_field):
        assert dalembert_evolve(generic_field, 0.0) is generic_field

    def test_bump_splits_into_halves(self):
        # d'Alembert's closed form u(x, t) = [u0(x+t) + u0(x-t)]/2
        # + [W(x+t) - W(x-t)]/2 with W' = v0: a resting bump, and the
        # default line-velocity-moments field, whose W is -0.4 e^(-x^2/2).
        # line_energy shares the step's wavenumbers, so a wrong scale of k
        # passes test_energy_conserved; it fails this closed form
        cases = [
            (lambda x: np.exp(-(x**2)), None, lambda x: 0.0 * x, 3.0),
            (u_generic, v_generic, lambda x: -0.4 * np.exp(-(x**2) / 2.0), 1.0),
        ]
        for u0, v0, W, t in cases:
            f = sample_line_field(u0, v0)
            out = dalembert_evolve(f, t)
            x = f.grid
            want = 0.5 * (u0(x + t) + u0(x - t)) + 0.5 * (W(x + t) - W(x - t))
            assert np.max(np.abs(out.u - want)) < 1e-12
            assert out.t == pytest.approx(t)

    @pytest.mark.parametrize("scale", [2.0**10, 2.0**-30])
    def test_step_commutes_with_scaling(self, generic_field, scale):
        # every operation of the step commutes exactly with a power of two,
        # so with the closed-form case above this pins the step at any
        # amplitude; at 1024 the transforms' round-off exceeds
        # DEFAULT_DECAY_TOL, so the far field must be zeroed, not small
        cur, ref = LineField(scale * generic_field.u, scale * generic_field.v), generic_field
        for _ in range(4):
            cur, ref = dalembert_evolve(cur, 0.25), dalembert_evolve(ref, 0.25)
        assert np.array_equal(cur.u, scale * ref.u)
        assert np.array_equal(cur.v, scale * ref.v)

    def test_many_short_steps(self):
        # 256 steps of 4 h, forth and back: the modes at k = pi/(2h) and
        # pi/h turn by whole periods, so round-off left in them would
        # gather over the steps, and times k reach v and the window edge
        f = sample_line_field(u_generic, v_generic, step=1.0 / 128.0)
        cur = f
        for i in range(256):
            cur = dalembert_evolve(cur, (-1) ** i * 4.0 * f.h)
        # 5.7e-14 and 3.2e-14 measured
        assert np.max(np.abs(cur.u - f.u)) < 1e-12
        assert np.max(np.abs(cur.v - f.v)) < 1e-12

    def test_all_zero_field_stays_zero(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        out = dalembert_evolve(f, 0.5)
        assert not out.u.any() and not out.v.any()

    def test_step_is_kept(self):
        f = sample_line_field(lambda x: np.exp(-(x**2)), L=6.0, step=0.1)
        assert dalembert_evolve(f, 0.5).h == f.h

    def test_reversibility(self, generic_field):
        # each step is exact on the same band-limited field, so the round
        # trip leaves only round-off (1.4e-15 in u, 2.1e-15 in v measured)
        back = dalembert_evolve(dalembert_evolve(generic_field, 0.5), -0.5)
        assert np.max(np.abs(back.u - generic_field.u)) < 2.7e-15
        assert np.max(np.abs(back.v - generic_field.v)) < 7.0e-15

    def test_margin_violation_raises(self):
        f = sample_line_field(lambda x: np.exp(-(x**2)))
        with pytest.raises(DomainExitError):
            dalembert_evolve(f, 15.0)

    def test_energy_conserved(self, generic_field):
        ref = line_energy(generic_field)
        cur = generic_field
        for _ in range(4):
            cur = dalembert_evolve(cur, 0.25)
        assert abs(line_energy(cur) - ref) < 1e-8


class TestContinuousModeEnergy:
    def test_zero_field(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        assert np.all(continuous_mode_energy(f, [1.3, 0.2]) == 0.0)

    def test_zero_wavenumber(self, generic_field):
        assert np.array_equal(continuous_mode_energy(generic_field, [0.0]), [0.0])

    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_conserved_under_evolution(self, generic_field, y):
        ref = continuous_mode_energy(generic_field, [y])[0]
        cur = generic_field
        for _ in range(4):
            cur = dalembert_evolve(cur, 0.25)
            assert abs(continuous_mode_energy(cur, [y])[0] - ref) < 1e-8

    def test_one_value_per_wavenumber(self, generic_field):
        # the batched quadrature gives each y what a call for it alone gives
        ys = np.array([0.05, 0.5, 1.0, 3.0, 7.5, 12.0])
        batched = continuous_mode_energy(generic_field, ys)
        assert np.array_equal(batched, [continuous_mode_energy(generic_field, [y])[0] for y in ys])

    @pytest.mark.parametrize("ys", [[[1.0]], [np.nan], [np.inf]])
    def test_wavenumbers_validated(self, generic_field, ys):
        with pytest.raises(ValueError):
            continuous_mode_energy(generic_field, ys)

    def test_matches_closed_form_on_gaussian(self):
        # u = exp(-x^2) has sine transform 0 (even u gives odd u*sin? no:
        # u even, sin odd, product odd -> integral exactly 0); with
        # v = x exp(-x^2) (odd), int v sin(xy) = sqrt(pi) y/2 exp(-y^2/4).
        f = sample_line_field(lambda x: np.exp(-(x**2)), lambda x: x * np.exp(-(x**2)))
        y = 1.1
        iv = math.sqrt(math.pi) * y / 2.0 * math.exp(-(y**2) / 4.0) / (2.0 * math.pi)
        assert continuous_mode_energy(f, [y])[0] == pytest.approx(0.5 * iv**2, rel=1e-12)


class TestMoments:
    def test_even_field_gives_exactly_zero(self):
        f = sample_line_field(lambda x: np.exp(-(x**2)), lambda x: np.exp(-2.0 * (x**2)))
        mc = moments(f, 6)
        assert np.all(mc.q == 0.0)
        assert np.all(mc.p == 0.0)

    def test_gaussian_closed_form(self):
        f = sample_line_field(lambda x: x * np.exp(-(x**2)))
        mc = moments(f, 1)
        assert mc.q[0] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert mc.p[0] == 0.0

    def test_zero_field(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        mc = moments(f, 4)
        assert np.all(mc.q == 0.0) and np.all(mc.p == 0.0)

    def test_overflow_guard(self):
        f = sample_line_field(lambda x: 1e250 * np.exp(-2.0 * (x - 1.0) ** 2))
        with pytest.raises(ScalingError):
            moments(f, 60)

    def test_window_past_double_range_raises_scaling_error(self):
        # L**n itself overflows at L = 20 for odd orders up to 399
        f = sample_line_field(lambda x: np.exp(-(x**2)))
        with pytest.raises(ScalingError, match="order"):
            moments(f, 200)

    def test_canonical_state_at_field_time(self):
        f = sample_line_field(u_generic, v_generic, t=1.25)
        mc = moments(f, 4)
        assert isinstance(mc, CanonicalState)
        assert mc.t == f.t and mc.dim == 4


def per_call_moments(f, orders, w):
    """int x^n w dx as the quadrature computed it before its weights were
    cached: (x/L)^n rebuilt from the grid on every call."""
    L = f.L
    xs = f.grid / L
    out = []
    for n in orders:
        weight = np.abs(xs) ** n
        if n % 2:
            weight = np.sign(xs) * weight
        out.append(L**n * float(line._sym_trapezoid(weight * w, f.h)))
    return np.array(out)


class TestMomentWeights:
    ORDERS = [0, 1, 2, 3, 5, 7, 9]
    GRIDS = [(line.DEFAULT_HALF_WIDTH, line.DEFAULT_STEP), (5.0, 1.0 / 128.0)]

    @pytest.mark.parametrize("L, step", GRIDS)
    def test_cached_weights_give_the_per_call_doubles(self, L, step):
        f = sample_line_field(
            lambda x: np.exp(-2.0 * (x - 0.5) ** 2) + 0.3 * np.exp(-3.0 * (x + 1.0) ** 2),
            lambda x: 0.4 * x * np.exp(-2.0 * x**2) + 0.1 * np.exp(-2.0 * (x - 0.25) ** 2),
            L,
            step,
        )
        for _ in range(2):  # the first call fills the cache, the second reads it
            mc = moments(f, 5)
            assert np.array_equal(mc.q, per_call_moments(f, range(1, 10, 2), f.u))
            assert np.array_equal(mc.p, per_call_moments(f, range(1, 10, 2), f.v))
            got = velocity_moment(f, self.ORDERS)
            assert np.array_equal(got, per_call_moments(f, self.ORDERS, f.v))

    def test_cached_weight_is_read_only(self, generic_field):
        moments(generic_field, 2)
        weight = line._moment_weight(generic_field.u.size, generic_field.h, 3)
        with pytest.raises(ValueError):
            weight[0] = 1.0
        assert weight[0] == -1.0

    def test_each_grid_has_its_own_weight(self):
        small = line._moment_weight(1281, 1.0 / 128.0, 3)
        default = line._moment_weight(40961, line.DEFAULT_STEP, 3)
        assert small.shape == (1281,) and default.shape == (40961,)
        assert line._moment_weight(1281, 1.0 / 128.0, 3) is small
        # same size, another step: a separate entry
        assert line._moment_weight(1281, 1.0 / 256.0, 3) is not small
        assert line._moment_weight(1281, 1.0 / 128.0, 5) is not small


class TestGSeries:
    @pytest.mark.parametrize("series", [g_from_moments, taylor_oracle])
    def test_order_past_factorial_range_raises_scaling_error(self, series):
        # order K needs (2K-1)!, and 171! is past the largest double
        series(CanonicalState(np.zeros(85), np.zeros(85)))
        with pytest.raises(ScalingError, match="171!"):
            series(CanonicalState(np.zeros(86), np.zeros(86)))

    def test_g1_is_p0_squared(self, generic_field):
        mc = moments(generic_field, 3)
        assert g_from_moments(mc)[0] == pytest.approx(mc.p[0] ** 2, rel=1e-14)

    def test_zero_field(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        assert np.all(g_from_moments(moments(f, 5)) == 0.0)

    def test_low_order_closed_forms(self, generic_field):
        mc = moments(generic_field, 3)
        q, p = mc.q, mc.p
        g = g_from_moments(mc)
        assert g[1] == pytest.approx(q[0] ** 2 - p[0] * p[1] / 3.0, rel=1e-13)
        want3 = p[0] * p[2] / 60.0 - q[0] * q[1] / 3.0 + p[1] ** 2 / 36.0
        assert g[2] == pytest.approx(want3, rel=1e-13)

    def test_negative_g1_rejected(self):
        # g_1 = p_0**2, so the recovery refuses a negative one before any order
        with pytest.raises(InvalidIntegralsError, match="g_1=-1 is negative"):
            recover_momenta_triangular(np.array([-1.0, 0.5]), np.array([0.0]), +1)


class TestTaylorOracle:
    def test_zero_field(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        assert np.all(taylor_oracle(moments(f, 4)) == 0.0)

    def test_series_reproduces_mode_energy_at_small_y(self, generic_field):
        c = taylor_oracle(moments(generic_field, 8))
        for y in (0.05, 0.1):
            series = sum(c[k] * y ** (2 * (k + 1)) for k in range(8))
            direct = continuous_mode_energy(generic_field, [y])[0]
            assert series == pytest.approx(direct, rel=1e-10)

    def test_coefficients_conserved_under_evolution(self, generic_field):
        ref = taylor_oracle(moments(generic_field, 5))
        cur = generic_field
        for _ in range(4):
            cur = dalembert_evolve(cur, 0.25)
        assert np.max(np.abs(taylor_oracle(moments(cur, 5)) - ref)) < 1e-8

    def test_comparison_report_constant_ratio(self, generic_field):
        cols = gseries_comparison(moments(generic_field, 5))
        assert list(cols) == ["k", "g_formula", "g_oracle", "ratio", "abs_diff"]
        assert cols["k"].tolist() == [1, 2, 3, 4, 5]
        # closed forms drop the energy functional's 1/(8 pi^2) prefactor
        assert cols["ratio"] == pytest.approx(np.full(5, 8.0 * np.pi**2), rel=1e-12)
        assert np.all(cols["abs_diff"] < 1e-12 * np.maximum(1.0, np.abs(cols["g_formula"])))

    def test_comparison_ratio_nan_where_oracle_zero(self):
        cols = gseries_comparison(CanonicalState(np.zeros(3), np.zeros(3)))
        assert np.all(cols["g_oracle"] == 0.0)
        assert np.all(np.isnan(cols["ratio"]))
        assert np.all(cols["abs_diff"] == 0.0)


class TestRecovery:
    def test_zero_field_all_zero(self):
        f = sample_line_field(lambda x: np.zeros_like(x))
        p = recover_momenta_triangular(g_from_moments(moments(f, 4)), np.zeros(4), +1)
        assert np.all(p == 0.0)

    def test_explicit_negative_branch(self):
        p = recover_momenta_triangular(np.array([4.0]), np.array([]), -1)
        assert p[0] == pytest.approx(-2.0)

    def test_round_trip_identity(self, generic_field):
        mc = moments(generic_field, 5)
        p = recover_momenta_triangular(g_from_moments(mc), mc.q, +1)
        assert np.max(np.abs(p - mc.p) / np.abs(mc.p)) < 1e-8

    def test_round_trip_negative_branch(self):
        f = sample_line_field(u_generic, lambda x: -v_generic(x))
        mc = moments(f, 4)
        assert mc.p[0] < 0
        p = recover_momenta_triangular(g_from_moments(mc), mc.q, -1)
        assert np.max(np.abs(p - mc.p) / np.abs(mc.p)) < 1e-8

    def test_singular_point_error_without_p0(self):
        # nonzero q but p identically zero: g_1 = 0 and the order-1
        # equation has a nonzero residual that p_0 = 0 cannot absorb
        f = sample_line_field(lambda x: x * np.exp(-(x**2)))
        mc = moments(f, 3)
        g = g_from_moments(mc)
        assert g[0] == 0.0
        with pytest.raises(SingularPointError):
            recover_momenta_triangular(g, mc.q, +1)

    def test_invalid_g1_rejected(self):
        with pytest.raises(InvalidIntegralsError):
            recover_momenta_triangular(np.array([-0.5]), np.array([]), +1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            recover_momenta_triangular(np.array([1.0]), np.array([]), 2)

    @pytest.mark.parametrize("g", [[[1.0, 0.5]], 1.0, []], ids=["2d", "scalar", "empty"])
    def test_g_not_a_nonempty_vector_rejected(self, g):
        with pytest.raises(ValueError, match="nonempty vector"):
            recover_momenta_triangular(np.array(g), np.array([]), +1)

    def test_caller_g_left_as_given(self):
        g = np.array([4.0, 0.5])
        recover_momenta_triangular(g, np.array([1.0]), +1)
        assert g.flags.writeable and g.tolist() == [4.0, 0.5]

    @pytest.mark.parametrize(
        "g, q",
        [
            ([np.nan, 1.0, 2.0], [1.0, 2.0]),
            ([1.0, np.inf, 2.0], [1.0, 2.0]),
            ([1.0, 1.0, 2.0], [np.nan, 2.0]),
        ],
        ids=["nan-g1", "inf-g2", "nan-q0"],
    )
    def test_nonfinite_input_rejected(self, g, q):
        with pytest.raises(ValueError, match="finite"):
            recover_momenta_triangular(np.array(g), np.array(q), +1)

    def test_q_not_a_vector_rejected(self):
        with pytest.raises(ValueError, match=r"q must be a vector, got shape \(1, 2\)"):
            recover_momenta_triangular(np.array([1.0, 0.5, 0.2]), np.array([[1.0, 2.0]]), 1)


def bump_sum(rng, parity):
    """Three random Gaussian bumps, mirrored into an even or odd sum or
    left as drawn (parity "none")."""
    amps = rng.uniform(-1.0, 1.0, 3)
    centers = rng.uniform(-3.0, 3.0, 3)
    widths = rng.uniform(0.5, 2.0, 3)

    def g(x):
        return sum(A * np.exp(-((x - c) ** 2) / w) for A, c, w in zip(amps, centers, widths))

    if parity == "none":
        return g
    sign = 1.0 if parity == "even" else -1.0
    return lambda x: g(x) + sign * g(-x)


# Over 360 draws of the strategy below (seeds 0-39, all nine parity
# pairs), the largest deviation from the order-two law was 4.3e-13 (seed
# 7, even u, even v; the next 4.2e-13); the bound leaves a factor of about
# 4.7.  It is the transforms' round-off inside the waves' reach, weighted
# by x^2; beyond it the step leaves exact zeros.
ORDER_TWO_LAW_TOL = 2e-12
PARITY = st.sampled_from(["even", "odd", "none"])


def moment_drifts(f, T, steps, orders):
    """Max |int x^n u_t dx - initial| for each order n along one evolution."""
    ref = velocity_moment(f, orders)
    worst = np.zeros(len(orders))
    cur = f
    for _ in range(steps):
        cur = dalembert_evolve(cur, T / steps)
        worst = np.maximum(worst, np.abs(velocity_moment(cur, orders) - ref))
    return worst


class TestVelocityMoments:
    def test_conserved_orders(self, generic_field):
        d0, d1 = moment_drifts(generic_field, 1.0, 4, orders=(0, 1))
        assert d0 < 1e-10
        assert d1 < 1e-10

    def test_order_two_drift_matches_parts_oracle(self):
        # d/dt int x^2 u_t dx = 2 int u dx; with odd v the drift over
        # [0, T] is 2 T int u0 dx exactly.
        f = sample_line_field(u_generic, v_generic)
        T = 1.0
        (measured,) = moment_drifts(f, T, 4, orders=(2,))
        iu = float(np.trapezoid(f.u, f.grid))
        assert measured == pytest.approx(2.0 * T * iu, rel=1e-8)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), PARITY, PARITY)
    # draws whose far-field v reached DEFAULT_DECAY_TOL under a variant of
    # the step that zeroed u's round-off modes only in k u_hat, at 1 eps,
    # and left the far field unmasked: the last step raised
    # DomainExitError on (28, odd, none) and left a margin of 0.03-0.06 on
    # (22, even, odd) and (28, even, odd)
    @example(22, "even", "odd")
    @example(25, "odd", "none")
    @example(28, "even", "odd")
    @example(28, "odd", "none")
    def test_order_two_law_on_random_bumps(self, seed, u_parity, v_parity):
        # d/dt int x^2 u_t dx = 2 int u dx and d/dt int u dx = int v dx, so
        # over [0, T] the moment moves by 2 T int u0 dx + T^2 int v0 dx
        rng = np.random.default_rng(seed)
        f = sample_line_field(bump_sum(rng, u_parity), bump_sum(rng, v_parity))
        T, steps = 1.0, 4
        cur = f
        for _ in range(steps):
            cur = dalembert_evolve(cur, T / steps)
        moved = velocity_moment(cur, [2])[0] - velocity_moment(f, [2])[0]
        want = 2.0 * T * np.trapezoid(f.u, f.grid) + T**2 * np.trapezoid(f.v, f.grid)
        assert abs(moved - want) <= ORDER_TWO_LAW_TOL

    @pytest.mark.parametrize("orders", [[-1], [1.5], [[0, 1]]])
    def test_orders_validated(self, generic_field, orders):
        with pytest.raises(ValueError):
            velocity_moment(generic_field, orders)

    def test_odd_moment_equals_canonical_p(self, generic_field):
        # one quadrature serves both, so the values agree bit for bit
        K = 6
        mc = moments(generic_field, K)
        assert np.array_equal(velocity_moment(generic_field, range(1, 2 * K, 2)), mc.p)
