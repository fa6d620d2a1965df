"""Vibrating string on the whole line, truncated to [-L, L].

A field is 2m+1 samples at x = k h, k = -m..m, so L = m h.  Initial data
must be effectively compactly supported inside the window (endpoint
samples below ``DEFAULT_DECAY_TOL``); all integrals over the line then
become proper integrals over the grid.  The module provides

 - exact evolution of the wave equation: d'Alembert's formula on the
   samples' trigonometric interpolant rotates each Fourier mode,
 - the continuous mode energy f(y): the per-wavenumber energy functional,
   conserved for every y,
 - odd-moment canonical coordinates q_n = int x^(2n+1) u dx and
   p_n = int x^(2n+1) u_t dx, a :class:`~hamlab.canonical.CanonicalState`,
 - the g-series: the closed-form coefficients g_k of y^2, y^4, ... in the
   small-y expansion of f(y), quadratic forms in the moments, as a plain
   array,
 - an independent Taylor-coefficient oracle for the same expansion,
   obtained by expanding sin(xy) inside the energy functional and
   collecting moment products (shares only the moment quadrature with the
   closed forms); both take the computed moment state, so one
   verdict runs the quadrature once,
 - triangular momentum recovery: p from an array of g values and the q
   moments, one new momentum per order, dividing by p_0 from order one on,
 - the velocity moments int x^n u_t dx: conserved for n = 0, 1, and
   measurably drifting for n >= 2 (d/dt int x^2 u_t dx = 2 int u dx,
   which the tests use as an oracle).

Quadrature is the composite trapezoid evaluated in mirror pairs on the
bitwise-symmetric grid, so odd integrands cancel exactly: even u and even
v give exactly zero moments, not merely small ones.  All moments, of u
and of u_t, share one quadrature.  Its weights (x/L)^n depend on the grid
alone: each is computed once per grid and order, kept read-only in a
small cache and shared by every field and call on that grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ._frozen import finite, freeze
from .canonical import CanonicalState
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
    """Uniform grid on [-L, L]: the points k * step for k = -L/step..L/step.

    (-k) * step == -(k * step) exactly, so grid[i] == -grid[-1-i] bitwise,
    which the odd-cancellation quadrature relies on.
    """
    for name, value in (("L", L), ("step", step)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    n_half = int(round(L / step))
    if abs(n_half * step - L) > 1e-12:
        raise ValueError("step must divide the half-width L")
    return np.arange(-n_half, n_half + 1, dtype=float) * step


@dataclass(frozen=True)
class LineField:
    """Displacement u and velocity v at the 2m+1 points x = k h, k = -m..m,
    of the window [-L, L], L = m h; ``grid`` rebuilds those points.

    Endpoint samples beyond ``DEFAULT_DECAY_TOL`` mean the window is too
    small for the data and construction fails; everything downstream
    treats the field as exactly zero outside the window.
    """

    u: np.ndarray
    v: np.ndarray
    h: float = DEFAULT_STEP
    t: float = 0.0

    def __post_init__(self):
        u = freeze(self, "u", self.u)
        v = freeze(self, "v", self.v)
        if u.shape != v.shape or u.ndim != 1 or u.size < 5 or u.size % 2 == 0:
            raise ValueError("u and v must be 1-d arrays of equal odd length >= 5")
        if finite(self, "h", self.h) <= 0:
            raise ValueError("h must be positive")
        worst = max(abs(u[0]), abs(u[-1]), abs(v[0]), abs(v[-1]))
        if worst > DEFAULT_DECAY_TOL:
            raise DecayError(
                f"endpoint samples reach {worst:.3e} > {DEFAULT_DECAY_TOL:.1e}; "
                "the data does not fit the window"
            )
        finite(self, "t", self.t)

    @property
    def L(self) -> float:
        return (self.u.size // 2) * self.h

    @property
    def grid(self) -> np.ndarray:
        m = self.u.size // 2
        return np.arange(-m, m + 1, dtype=float) * self.h


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
    return LineField(u_fn(x), v, step, t)


def _sym_trapezoid(w: np.ndarray, h: float):
    """Trapezoid rule over the last axis, summed in mirror pairs.

    s[i] = w[i] + w[-1-i] vanishes exactly for odd integrands on the
    symmetric grid, so their quadrature is exactly zero.
    """
    s = w + w[..., ::-1]
    return 0.5 * h * (np.sum(s, axis=-1) - s[..., 0])


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
    return float(min(idx[0], f.u.size - 1 - idx[-1]) * f.h)


def _spectrum(u: np.ndarray, h: float):
    """u_hat = rfft(u) and k = 2 pi j / (n h), so u_x = irfft(i k u_hat).  Modes above the
    last one over 16 eps max|u_hat| are round-off and are zeroed: times k they would swamp
    v, and a mode that a step turns by whole periods would gather them step after step."""
    uhat = np.fft.rfft(u)
    size = np.abs(uhat)
    last = np.max(np.flatnonzero(size > 16.0 * np.finfo(float).eps * size.max()), initial=-1)
    uhat[last + 1 :] = 0.0
    return uhat, 2.0 * np.pi * np.fft.rfftfreq(u.size, h)


def dalembert_evolve(f: LineField, dt: float) -> LineField:
    """Advance the wave equation by dt with the d'Alembert formula.

    On the samples' trigonometric interpolant over the window's period it
    is exact, so continuum invariants hold up to round-off: each mode turns,
    u_hat <- u_hat cos(k dt) + v_hat sin(k dt)/k (u_hat + dt v_hat at k = 0),
    v_hat <- -k u_hat sin(k dt) + v_hat cos(k dt).  A step shorter than the
    support margin keeps the periodic images out of the window.  Waves move
    at unit speed, so beyond |dt| of the outermost samples above eps times
    the largest the exact field is round-off; u and v are set to zero there,
    as the transforms' round-off scales with the amplitude.
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
    uhat, k = _spectrum(f.u, f.h)
    vhat = np.fft.rfft(f.v)
    cos, sin = np.cos(k * dt), np.sin(k * dt)
    sin_over_k = np.divide(sin, k, out=np.full_like(k, dt), where=k != 0.0)  # dt at k = 0
    u_new = np.fft.irfft(uhat * cos + vhat * sin_over_k, f.u.size)
    v_new = np.fft.irfft(vhat * cos - k * uhat * sin, f.u.size)
    size = np.maximum(np.abs(f.u), np.abs(f.v))
    live = np.flatnonzero(size >= np.finfo(float).eps * size.max())  # all, if all zero
    reach = math.ceil(abs(dt) / f.h)
    for w in (u_new, v_new):
        w[: max(live[0] - reach, 0)] = w[live[-1] + reach + 1 :] = 0.0
    return LineField(u_new, v_new, f.h, f.t + dt)


def line_energy(f: LineField) -> float:
    """Field energy (1/2) int (u_x**2 + v**2) dx, with u_x the spectral
    derivative that dalembert_evolve rotates, so the evolution conserves
    it up to round-off."""
    uhat, k = _spectrum(f.u, f.h)
    ux = np.fft.irfft(1j * k * uhat, f.u.size)
    return float(_sym_trapezoid(0.5 * (ux**2 + f.v**2), f.h))


def continuous_mode_energy(f: LineField, ys) -> np.ndarray:
    """Energy of the mode with wavenumber y, for each y of a 1-d array:

    (1/2) [ ((1/2pi) int v sin(xy) dx)**2 + y**2 ((1/2pi) int u sin(xy) dx)**2 ].

    A first integral of the evolution for every y; identically zero at
    y = 0.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 1 or not np.isfinite(ys).all():
        raise ValueError("ys must be a 1-d array of finite wavenumbers")
    s = np.sin(ys[:, None] * f.grid)
    iv = _sym_trapezoid(f.v * s, f.h) / (2.0 * np.pi)
    iu = _sym_trapezoid(f.u * s, f.h) / (2.0 * np.pi)
    return 0.5 * (iv**2 + (ys * iu) ** 2)


@functools.lru_cache(maxsize=16)
def _moment_weight(size: int, h: float, n: int) -> np.ndarray:
    """The read-only weight (x/L)^n on the grid of ``size`` samples of step h,
    taken as sign(x)^n |x/L|^n, so its parity is bitwise exact and its
    entries stay in [-1, 1].  It depends on the grid alone, so every moment
    of every field on that grid shares it."""
    m = size // 2
    xs = np.arange(-m, m + 1, dtype=float) * h / (m * h)
    weight = np.abs(xs) ** n
    if n % 2:
        weight = np.sign(xs) * weight
    weight.flags.writeable = False
    return weight


def _moment_quadrature(f: LineField, orders, *samples: np.ndarray) -> np.ndarray:
    """int x^n w dx for each order n (rows) and each sample w (columns).

    The integral of (x/L)^n w (:func:`_moment_weight`) is scaled by L^n.
    Only that rescale can overflow, and doing so raises ScalingError.
    """
    L = f.L
    out = np.empty((len(orders), len(samples)))
    for i, n in enumerate(orders):
        weight = _moment_weight(f.u.size, f.h, n)
        try:
            out[i] = [L**n * float(_sym_trapezoid(weight * w, f.h)) for w in samples]
        except OverflowError:
            out[i] = math.inf
        if not np.isfinite(out[i]).all():
            raise ScalingError(
                f"moment of order {n} overflowed; nondimensionalize the field "
                "(reduce amplitudes or the window) before taking moments"
            )
    return out


def moments(f: LineField, K: int) -> CanonicalState:
    """Odd moments q_n = int x^(2n+1) u dx, p_n = int x^(2n+1) v dx, n < K, as
    a CanonicalState at f.t; each order's weight serves both u and v."""
    if K < 1:
        raise ValueError("K must be >= 1")
    qp = _moment_quadrature(f, range(1, 2 * K, 2), f.u, f.v)
    return CanonicalState(qp[:, 0], qp[:, 1], f.t)


def _fact(n: int) -> float:
    if n > 170:
        raise ScalingError(f"{n}! overflows a double; the g-series reaches order 85 at most")
    return float(math.factorial(n))


def g_from_moments(mc: CanonicalState) -> np.ndarray:
    """The quadratic-form closed expressions for g_1..g_K in the moments:
    the coefficients of y^2, y^4, ..., y^(2K) in the mode-energy expansion,
    up to an overall constant (see gseries_comparison), K = mc.dim.

    g_1 = p_0**2 and, for k >= 2,

    g_k = (-1)^(k+1)/(2k-1)! * p_0 p_{k-1}
        + sum_{m=0}^{k-2} (-1)^k / ((2m+1)! (2(k-m)-3)!)
          * ( q_{k-m-2} q_m - p_{k-m-1} p_m / ((2(k-m)-2)(2(k-m)-1)) ).
    """
    q, p, K = mc.q, mc.p, mc.dim
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
    return g


def taylor_oracle(mc: CanonicalState) -> np.ndarray:
    """Coefficients of y^2, y^4, ..., y^(2K) of the mode energy f(y), K = mc.dim.

    Built directly from the definition: expand sin(xy) inside each
    integral of continuous_mode_energy, so

      (1/2pi) int w sin(xy) dx = (1/2pi) sum_m (-1)^m y^(2m+1) w-moment_m / (2m+1)!,

    and collect the products landing on y^(2k).  Shares only the moment
    quadrature with g_from_moments; the combination rule is independent.
    """
    q, p, K = mc.q, mc.p, mc.dim
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


def gseries_comparison(mc: CanonicalState) -> Dict[str, np.ndarray]:
    """Per-order comparison of the closed-form g_k against the oracle,
    for k = 1..mc.dim.

    Returns five columns keyed by their CSV header names: ``k``, the two
    values ``g_formula`` and ``g_oracle``, their ``ratio`` (nan where the
    oracle is 0) and ``abs_diff``, the absolute difference of g_k against
    8 pi^2 times the oracle.  The closed forms track the oracle up to the
    constant 8 pi^2: the oracle carries the (1/2pi)^2 and 1/2 prefactors
    of the energy functional while the g_k drop them.  The ratio column
    reports this factor as measured data.
    """
    g = g_from_moments(mc)
    c = taylor_oracle(mc)
    return {
        "k": np.arange(1, mc.dim + 1),
        "g_formula": g,
        "g_oracle": c,
        "ratio": np.divide(g, c, out=np.full(mc.dim, np.nan), where=c != 0.0),
        "abs_diff": np.abs(g - 8.0 * np.pi**2 * c),
    }


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
    returns zeros, anything else raises SingularPointError.  ``g`` must be
    a nonempty finite vector whose g_1 = p_0**2 is nonnegative (else
    InvalidIntegralsError), and ``q`` must be a finite vector.
    """
    if sign_p0 not in (1, -1):
        raise ValueError("sign_p0 must be +1 or -1")
    g = np.asarray(g, dtype=float)
    q = np.asarray(q, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("g must be a nonempty vector")
    if q.ndim != 1:
        raise ValueError(f"q must be a vector, got shape {q.shape}")
    if not np.isfinite(g).all():
        raise ValueError("g entries must be finite")
    if not np.isfinite(q).all():
        raise ValueError("q entries must be finite")
    if g[0] < 0:
        raise InvalidIntegralsError(f"g_1={g[0]:.6g} is negative but must be a square")
    K = g.size
    if K > 1 and q.size < K - 1:
        raise ValueError(f"need at least {K - 1} position moments to recover {K} momenta")
    p = np.zeros(K)
    p[0] = sign_p0 * math.sqrt(g[0])
    for k in range(1, K):
        bracket = (-1.0) ** k * g[k] + q[0] * q[k - 1] / _fact(2 * k - 1)
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


def velocity_moment(f: LineField, orders) -> np.ndarray:
    """int x^n u_t dx for each integer power n >= 0 of ``orders``; the
    quadrature is that of :func:`moments`, so
    velocity_moment(f, [2k+1])[0] == moments(f, K).p[k].

    Conserved by the wave flow for n = 0 and n = 1; for n >= 2 its time
    derivative is n (n-1) int x^(n-2) u dx.
    """
    orders = np.asarray(orders)
    if orders.ndim != 1 or orders.dtype.kind not in "iu" or np.any(orders < 0):
        raise ValueError("orders must be a 1-d array of integers >= 0")
    # Python ints: L**n then takes the same path as in moments
    return _moment_quadrature(f, orders.tolist(), f.v)[:, 0]
