"""Vibrating string on the whole line, truncated to [-L, L].

Initial data must be effectively compactly supported inside the window
(endpoint samples below ``DEFAULT_DECAY_TOL``); all integrals over the
line then become proper integrals over the grid.  The module provides

 - exact evolution of the wave equation by the d'Alembert formula applied
   to a piecewise-polynomial interpolant of the data,
 - the continuous mode energy f(y): the per-wavenumber energy functional,
   conserved for every y,
 - odd-moment canonical coordinates q_n = int x^(2n+1) u dx and
   p_n = int x^(2n+1) u_t dx,
 - the g-series: the closed-form coefficients of y^2, y^4, ... in the
   small-y expansion of f(y), quadratic forms in the moments,
 - an independent Taylor-coefficient oracle for the same expansion,
   obtained by expanding sin(xy) inside the energy functional and
   collecting moment products (shares only the moment quadrature with the
   closed forms); both take the computed MomentCoordinates, so one
   verdict runs the quadrature once,
 - triangular momentum recovery: p from the g values and the q moments,
   one new momentum per order, dividing by p_0 from order one on,
 - the velocity moments int x^n u_t dx: conserved for n = 0, 1, and
   measurably drifting for n >= 2 (d/dt int x^2 u_t dx = 2 int u dx,
   which the tests use as an oracle).

Quadrature is the composite trapezoid evaluated in mirror pairs on the
bitwise-symmetric grid, so odd integrands cancel exactly: even u and even
v give exactly zero moments, not merely small ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
import scipy

from ._frozen import finite, freeze
from .errors import (
    DecayError,
    DomainExitError,
    InvalidIntegralsError,
    ScalingError,
    SingularPointError,
)

DEFAULT_HALF_WIDTH = 20.0
# 1/1024: a binary step, so grid points and binary-friendly time steps
# (multiples of 1/1024) combine without rounding.
DEFAULT_STEP = 1.0 / 1024.0
DEFAULT_DECAY_TOL = 1e-12


def line_grid(L: float = DEFAULT_HALF_WIDTH, step: float = DEFAULT_STEP) -> np.ndarray:
    """Uniform bitwise-symmetric grid on [-L, L].

    Built by mirroring the nonnegative half so grid[i] == -grid[-1-i]
    exactly, which the odd-cancellation quadrature relies on.
    """
    if L <= 0 or step <= 0:
        raise ValueError("L and step must be positive")
    n_half = int(round(L / step))
    if abs(n_half * step - L) > 1e-12:
        raise ValueError("step must divide the half-width L")
    half = np.arange(n_half + 1) * step
    return np.concatenate([-half[:0:-1], half])


@dataclass(frozen=True)
class LineField:
    """Displacement u and velocity v sampled on a symmetric uniform grid.

    Endpoint samples beyond ``DEFAULT_DECAY_TOL`` mean the window is too
    small for the data and construction fails; everything downstream
    treats the field as exactly zero outside the window.
    """

    grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        grid = freeze(self, "grid", self.grid)
        u = freeze(self, "u", self.u)
        v = freeze(self, "v", self.v)
        if not (grid.shape == u.shape == v.shape) or grid.ndim != 1 or grid.size < 5:
            raise ValueError("grid, u, v must be 1-d arrays of equal length >= 5")
        if grid.size % 2 == 0:
            raise ValueError("grid must have an odd number of points (symmetric about 0)")
        steps = np.diff(grid)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
            raise ValueError("grid must be uniform")
        if np.max(np.abs(grid + grid[::-1])) != 0.0:
            raise ValueError("grid must be bitwise symmetric about 0")
        worst = max(abs(u[0]), abs(u[-1]), abs(v[0]), abs(v[-1]))
        if worst > DEFAULT_DECAY_TOL:
            raise DecayError(
                f"endpoint samples reach {worst:.3e} > {DEFAULT_DECAY_TOL:.1e}; "
                "the data does not fit the window"
            )
        finite(self, "t", self.t)

    @property
    def L(self) -> float:
        return float(self.grid[-1])

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


def sample_line_field(
    u_fn: Callable[[np.ndarray], np.ndarray],
    v_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    L: float = DEFAULT_HALF_WIDTH,
    step: float = DEFAULT_STEP,
    t: float = 0.0,
) -> LineField:
    """Sample callables onto the symmetric grid."""
    x = line_grid(L, step)
    v = np.zeros_like(x) if v_fn is None else v_fn(x)
    return LineField(x, u_fn(x), v, t)


def _sym_trapezoid(w: np.ndarray, h: float) -> float:
    """Trapezoid rule summed in mirror pairs.

    s[i] = w[i] + w[-1-i] vanishes exactly for odd integrands on the
    symmetric grid, so their quadrature is exactly zero.
    """
    s = w + w[::-1]
    return 0.5 * h * float(np.sum(s) - s[0])


def _signed_power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n computed as sign(x)**n * |x|**n so parity is bitwise exact."""
    mag = np.abs(x) ** n
    if n % 2 == 0:
        return mag
    return np.sign(x) * mag


def support_margin(f: LineField) -> float:
    """Distance from the data's support (above DEFAULT_DECAY_TOL) to the
    window edge.

    Waves travel at unit speed, so the field stays representable for any
    evolution shorter than this margin.  An all-quiet field returns the
    full window width.
    """
    mask = (np.abs(f.u) > DEFAULT_DECAY_TOL) | (np.abs(f.v) > DEFAULT_DECAY_TOL)
    if not np.any(mask):
        return 2.0 * f.L
    idx = np.flatnonzero(mask)
    return float(min(f.grid[idx[0]] - f.grid[0], f.grid[-1] - f.grid[idx[-1]]))


def dalembert_evolve(f: LineField, dt: float, spline_order: int = 2) -> LineField:
    """Advance the wave equation by dt with the d'Alembert formula.

    u(x, t+dt) = [u(x+dt) + u(x-dt)]/2 + (1/2) int_{x-dt}^{x+dt} v, and the
    time-differentiated counterpart for v.  The field between samples is a
    spline of the given order; the formula is then evaluated exactly
    (shifts, the spline's own derivative and antiderivative), so the step
    is the exact continuum evolution of the interpolated data and every
    continuum invariant is inherited up to quadrature error.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    if dt == 0.0:
        return f
    margin = support_margin(f)
    if abs(dt) >= margin:
        raise DomainExitError(
            f"|dt|={abs(dt):.6g} >= support margin {margin:.6g}; waves would reach the window edge"
        )
    x = f.grid
    lo, hi = x[0], x[-1]
    U = scipy.interpolate.make_interp_spline(x, f.u, k=spline_order)
    V = scipy.interpolate.make_interp_spline(x, f.v, k=spline_order)
    Vint = V.antiderivative()
    Uprime = U.derivative()
    xp = x + dt
    xm = x - dt

    def inside_or_zero(sp, pts):
        clipped = np.clip(pts, lo, hi)
        vals = sp(clipped)
        return np.where((pts >= lo) & (pts <= hi), vals, 0.0)

    # The running integral of v is constant outside the window (v = 0
    # there), so clipping the evaluation point is the correct extension.
    vint_p = Vint(np.clip(xp, lo, hi))
    vint_m = Vint(np.clip(xm, lo, hi))
    u_new = 0.5 * (inside_or_zero(U, xp) + inside_or_zero(U, xm)) + 0.5 * (vint_p - vint_m)
    v_new = 0.5 * (inside_or_zero(Uprime, xp) - inside_or_zero(Uprime, xm)) + 0.5 * (
        inside_or_zero(V, xp) + inside_or_zero(V, xm)
    )
    return LineField(x, u_new, v_new, f.t + dt)


def line_energy(f: LineField, spline_order: int = 2) -> float:
    """Field energy (1/2) int (u_x**2 + v**2) dx.

    u_x comes from the derivative of a spline of the given order; using
    the same order as dalembert_evolve makes the measured energy an exact
    invariant of the discrete evolution up to quadrature round-off.
    """
    ux = scipy.interpolate.make_interp_spline(f.grid, f.u, k=spline_order).derivative()(f.grid)
    return _sym_trapezoid(0.5 * (ux**2 + f.v**2), f.h)


def continuous_mode_energy(f: LineField, y: float) -> float:
    """Energy of the mode with wavenumber y:

    (1/2) [ ((1/2pi) int v sin(xy) dx)**2 + y**2 ((1/2pi) int u sin(xy) dx)**2 ].

    A first integral of the evolution for every y; identically zero at
    y = 0.
    """
    if not math.isfinite(y):
        raise ValueError("y must be finite")
    s = np.sin(f.grid * y)
    iv = _sym_trapezoid(f.v * s, f.h) / (2.0 * np.pi)
    iu = _sym_trapezoid(f.u * s, f.h) / (2.0 * np.pi)
    return 0.5 * (iv**2 + (y * iu) ** 2)


@dataclass(frozen=True)
class MomentCoordinates:
    """Odd-moment canonical coordinates in original units.

    q[n] = int x^(2n+1) u dx and p[n] = int x^(2n+1) u_t dx for
    n = 0..K-1.  ``scale`` records the nondimensionalization length used
    inside the quadrature (powers are taken of x/scale and the result is
    rescaled), kept for auditability.
    """

    q: np.ndarray
    p: np.ndarray
    scale: float

    def __post_init__(self):
        q = freeze(self, "q", self.q)
        p = freeze(self, "p", self.p)
        if q.ndim != 1 or q.size < 1 or p.shape != q.shape:
            raise ValueError("q and p must be nonempty vectors of equal length K")
        if finite(self, "scale", self.scale) <= 0:
            raise ValueError("scale must be positive")

    @property
    def K(self) -> int:
        return self.q.size


def moments(f: LineField, K: int, scale: Optional[float] = None) -> MomentCoordinates:
    """Odd moments of u and v up to power 2K-1.

    Powers are computed on x/scale (default scale = L) so the intermediate
    arrays stay O(max |field|); only the final rescale can overflow, and
    doing so raises ScalingError.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    scale = f.L if scale is None else float(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    xs = f.grid / scale
    q = np.empty(K)
    p = np.empty(K)
    for n in range(K):
        w = _signed_power(xs, 2 * n + 1)
        factor = scale ** (2 * n + 1)
        q[n] = factor * _sym_trapezoid(w * f.u, f.h)
        p[n] = factor * _sym_trapezoid(w * f.v, f.h)
        if not (math.isfinite(q[n]) and math.isfinite(p[n])):
            raise ScalingError(
                f"moment of order {2 * n + 1} overflowed; nondimensionalize the field "
                "(reduce amplitudes or the window) before taking moments"
            )
    return MomentCoordinates(q, p, scale)


@dataclass(frozen=True)
class GSeries:
    """Coefficients g_1..g_K of y^2, y^4, ..., y^(2K) in the mode-energy
    expansion, up to an overall constant (see gseries_comparison).

    g_1 is the square of the first velocity moment and must be
    nonnegative.
    """

    g: np.ndarray

    def __post_init__(self):
        g = freeze(self, "g", self.g)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("g must be a nonempty vector")
        if g[0] < 0:
            raise InvalidIntegralsError(f"g_1={g[0]:.6g} is negative but must be a square")


def _fact(n: int) -> float:
    return float(math.factorial(n))


def g_from_moments(mc: MomentCoordinates) -> GSeries:
    """The quadratic-form closed expressions for g_k in the moments.

    g_1 = p_0**2 and, for k >= 2,

    g_k = (-1)^(k+1)/(2k-1)! * p_0 p_{k-1}
        + sum_{m=0}^{k-2} (-1)^k / ((2m+1)! (2(k-m)-3)!)
          * ( q_{k-m-2} q_m - p_{k-m-1} p_m / ((2(k-m)-2)(2(k-m)-1)) ).
    """
    q, p, K = mc.q, mc.p, mc.K
    g = np.empty(K)
    g[0] = p[0] ** 2
    for k in range(2, K + 1):
        total = (-1.0) ** (k + 1) / _fact(2 * k - 1) * p[0] * p[k - 1]
        for m in range(0, k - 1):
            coeff = (-1.0) ** k / (_fact(2 * m + 1) * _fact(2 * (k - m) - 3))
            total += coeff * (
                q[k - m - 2] * q[m]
                - p[k - m - 1] * p[m] / ((2 * (k - m) - 2) * (2 * (k - m) - 1))
            )
        g[k - 1] = total
    return GSeries(g)


def taylor_oracle(mc: MomentCoordinates) -> np.ndarray:
    """Coefficients of y^2, y^4, ..., y^(2K) of the mode energy f(y), K = mc.K.

    Built directly from the definition: expand sin(xy) inside each
    integral of continuous_mode_energy, so

      (1/2pi) int w sin(xy) dx = (1/2pi) sum_m (-1)^m y^(2m+1) w-moment_m / (2m+1)!,

    and collect the products landing on y^(2k).  Shares only the moment
    quadrature with g_from_moments; the combination rule is independent.
    """
    q, p, K = mc.q, mc.p, mc.K
    c = np.empty(K)
    for k in range(1, K + 1):
        vv = 0.0
        for m in range(0, k):
            vv += p[m] * p[k - 1 - m] / (_fact(2 * m + 1) * _fact(2 * k - 2 * m - 1))
        uu = 0.0
        for m in range(0, k - 1):
            uu += q[m] * q[k - 2 - m] / (_fact(2 * m + 1) * _fact(2 * k - 2 * m - 3))
        c[k - 1] = ((-1.0) ** (k - 1) * vv + (-1.0) ** k * uu) / (8.0 * np.pi**2)
    return c


def gseries_comparison(mc: MomentCoordinates) -> List[dict]:
    """Per-order comparison of the closed-form g_k against the oracle,
    for k = 1..mc.K.

    Returns one row per k with the two values, their ratio (where the
    oracle is nonzero) and the absolute difference of g_k against
    8 pi^2 times the oracle.  The closed forms track the oracle up to the
    constant 8 pi^2: the oracle carries the (1/2pi)^2 and 1/2 prefactors
    of the energy functional while the g_k drop them.  The ratio column
    reports this factor as measured data.
    """
    gs = g_from_moments(mc)
    c = taylor_oracle(mc)
    rows = []
    for k in range(1, mc.K + 1):
        gk = float(gs.g[k - 1])
        ck = float(c[k - 1])
        rows.append(
            {
                "k": k,
                "g_formula": gk,
                "g_oracle": ck,
                "ratio": gk / ck if ck != 0.0 else float("nan"),
                "abs_diff": abs(gk - 8.0 * np.pi**2 * ck),
            }
        )
    return rows


def recover_momenta_triangular(g, q, sign_p0: int) -> np.ndarray:
    """Recover p_0..p_{K-1} from g_1..g_K and the position moments.

    p_0 = sign_p0 * sqrt(g_1).  Each later momentum follows by inverting
    the g_{k+1} quadratic form, in which p_k appears only through
    2 (-1)^k p_0 p_k / (2k+1)!:

      p_k = (2k+1)!/(2 p_0) * [ (-1)^k g_{k+1} + q_0 q_{k-1}/(2k-1)!
            + sum_{m=1}^{k-1} ( q_{k-m-1} q_m - p_{k-m} p_m /
              ((2(k-m))(2(k-m)+1)) ) / ((2m+1)! (2(k-m)-1)!) ].

    Only previously recovered momenta enter, so the system is triangular.
    p_0 = 0 leaves the later orders undetermined: the all-zero data case
    returns zeros, anything else raises SingularPointError.  A raw ``g`` is
    validated as a :class:`GSeries`, and ``q`` must be finite.
    """
    if sign_p0 not in (1, -1):
        raise ValueError("sign_p0 must be +1 or -1")
    garr = (g if isinstance(g, GSeries) else GSeries(g)).g
    K = garr.size
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("q entries must be finite")
    if K > 1 and q.size < K - 1:
        raise ValueError(f"need at least {K - 1} position moments to recover {K} momenta")
    p = np.zeros(K)
    p[0] = sign_p0 * math.sqrt(garr[0])
    for k in range(1, K):
        bracket = (-1.0) ** k * garr[k] + q[0] * q[k - 1] / _fact(2 * k - 1)
        for m in range(1, k):
            j = k - m
            bracket += (
                q[j - 1] * q[m] - p[j] * p[m] / ((2 * j) * (2 * j + 1))
            ) / (_fact(2 * m + 1) * _fact(2 * j - 1))
        if p[0] == 0.0:
            if bracket == 0.0:
                p[k] = 0.0
                continue
            raise SingularPointError(
                f"p_0 = 0 makes order {k} unrecoverable (nonzero residual {bracket:.3e})"
            )
        p[k] = _fact(2 * k + 1) / (2.0 * p[0]) * bracket
    return p


def velocity_moment(f: LineField, n: int) -> float:
    """int x^n u_t dx for any integer power n >= 0.

    Conserved by the wave flow for n = 0 and n = 1; for n >= 2 its time
    derivative is n (n-1) int x^(n-2) u dx.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    scale = f.L
    w = _signed_power(f.grid / scale, n) * f.v
    val = scale**n * _sym_trapezoid(w, f.h)
    if not math.isfinite(val):
        raise ScalingError(f"velocity moment of order {n} overflowed")
    return val
