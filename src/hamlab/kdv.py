"""KdV equation: pseudospectral evolution, conserved densities, scattering.

The equation advanced here is u_t = 6 u u_x - u_xxx on a periodic domain,
integrated by a fourth-order Runge-Kutta scheme on the integrating-factor
transformed Fourier coefficients (the linear dispersion is handled exactly,
so only the nonlinear advection limits the step).  The one-soliton solution
with this sign convention is u = -2 kappa^2 sech^2(kappa (x - x0 - 4 kappa^2 t)).

Conserved quantities come from two independent routes:

 - Riccati densities: writing the log-derivative variable of the associated
   Schrodinger problem as chi = sum_m chi_m / (2ik)^m and inserting it into
   chi_x + chi^2 - u - 2ik chi = 0, the order-zero balance forces
   chi_1 = -u and matching the remaining powers gives the recursion
   chi_{m+1} = d/dx chi_m + sum_{j=1}^{m-1} chi_j chi_{m-j}
   (``riccati_densities`` returns the rows chi_1, chi_2, ... as one array).
   Odd densities integrate to the invariants I_m = int chi_{2m-1} dx; even
   densities integrate to zero (a diagnostic this module measures rather
   than assumes).
 - Scattering: the Jost solution of -phi'' + u phi = k^2 phi, normalized to
   exp(-ikx) on the far left, defines a(k) at the far right; a(k) is
   invariant along the KdV flow.  Action variables are
   n(k) = (2k/pi) ln |a(k)|^2 on the continuous spectrum and N_l = k_l^2 at
   the bound states ik_l, both plain arrays (``continuum_actions`` checks
   a(k) and returns n(k)), and the Hamiltonian can be assembled from them as
   H = -(32/5) sum_l N_l^(5/2) + 8 int k^3 n(k) dk, cross-checked against
   the direct functional int (u_x^2/2 + u^3) dx.  Production code gets
   a(k) for a whole k array from one vectorised sixth-order Magnus sweep
   over the window (``scattering_a``), and bound states from a sweep over
   a kappa grid whose sign changes the Illinois method refines, every
   bracket in one sweep per iteration; the adaptive DOP853 integration of
   one k at a time (``schrodinger_a``) is kept as the independent oracle
   the tests compare it with, and is the module's only SciPy call.

Evolution is periodic while scattering theory lives on the line; the bridge
is a window extraction that recenters the periodic field and demands decay
at the window edges.  A line potential is one callable on a window; the
window's interpolant, the trigonometric interpolant of the periodic
samples, lives in ``line_window``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._frozen import finite, freeze
from .errors import BlowUpError, ConvergenceError, DecayError

DEFAULT_DOMAIN = 40.0
DEFAULT_MODES = 512
# real-axis stability radius of the classical RK4 scheme
_RK4_STABILITY = 2.8
# a line potential must stay below this at both window edges
_DECAY_TOL = 1e-10
# share of H the upper half of the k range may carry without a warning
_TAIL_TOL = 0.01
# kdv_evolve checks finiteness once per this many steps
_CHECK_STEPS = 64
# bound_states' kappa scan: first sample and step; the width at which the
# refinement closes a bracket, and its iteration cap
_K_MIN = 0.05
_SCAN_STEP = 0.05
_ROOT_TOL = 1e-10
_REFINE_STEPS = 40
# _LAGRANGE6[d, m] / 120 is the s^d coefficient of the Lagrange basis
# polynomial of node m - 2 on the nodes -2, ..., 3: line_window's interpolant
# on a fine cell [0, 1] is sum_d s^d sum_m _LAGRANGE6[d, m] u_{m-2} / 120
_LAGRANGE6 = np.array(
    [
        [0, 0, 120, 0, 0, 0],
        [6, -60, -40, 120, -30, 4],
        [-5, 80, -150, 80, -5, 0],
        [-5, -5, 50, -70, 35, -5],
        [5, -20, 30, -20, 5, 0],
        [-1, 5, -10, 10, -5, 1],
    ],
    dtype=float,
)


def kdv_grid(L_domain: float = DEFAULT_DOMAIN, M: int = DEFAULT_MODES) -> np.ndarray:
    """Uniform periodic grid of M points on [0, L_domain)."""
    return np.arange(M) * (L_domain / M)


@dataclass(frozen=True)
class PeriodicField:
    """Real field samples on a periodic power-of-two grid."""

    u: np.ndarray
    L_domain: float = DEFAULT_DOMAIN
    t: float = 0.0

    def __post_init__(self):
        u = freeze(self, "u", self.u)
        if u.ndim != 1 or u.size < 8:
            raise ValueError("u must be a 1-d array with at least 8 samples")
        M = u.size
        if M & (M - 1) != 0:
            raise ValueError(f"grid size {M} must be a power of two")
        if finite(self, "L_domain", self.L_domain) <= 0:
            raise ValueError("L_domain must be positive")
        finite(self, "t", self.t)

    @property
    def M(self) -> int:
        return self.u.size

    @property
    def x(self) -> np.ndarray:
        return kdv_grid(self.L_domain, self.M)

    @property
    def h(self) -> float:
        return self.L_domain / self.M


def _wavenumbers(M: int, L_domain: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.rfftfreq(M, d=L_domain / M)


def _ddx(w: np.ndarray, L_domain: float, order: int = 1) -> np.ndarray:
    """order-th x-derivative of real periodic samples by Fourier differentiation."""
    k = _wavenumbers(w.size, L_domain)
    return np.fft.irfft((1j * k) ** order * np.fft.rfft(w), w.size)


def spectral_derivative(f: PeriodicField, order: int = 1) -> np.ndarray:
    """order-th x-derivative of the field by Fourier differentiation."""
    return _ddx(f.u, f.L_domain, order)


def periodic_integral(values: np.ndarray, L_domain: float) -> float:
    """int over one period: the trapezoid rule on a periodic grid."""
    return float(np.sum(values)) * (L_domain / values.size)


def soliton(x: np.ndarray, kappa: float, x0: float, t: float = 0.0) -> np.ndarray:
    """One-soliton profile -2 kappa^2 sech^2(kappa (x - x0 - 4 kappa^2 t))."""
    arg = kappa * (x - x0 - 4.0 * kappa**2 * t)
    return -2.0 * kappa**2 / np.cosh(arg) ** 2


def soliton_field(
    kappa: float,
    x0: Optional[float] = None,
    L_domain: float = DEFAULT_DOMAIN,
    M: int = DEFAULT_MODES,
) -> PeriodicField:
    """Soliton sampled on the periodic grid at t = 0 (default: centered)."""
    x = kdv_grid(L_domain, M)
    if x0 is None:
        x0 = L_domain / 2.0
    return PeriodicField(soliton(x, kappa, x0), L_domain)


def cfl_timestep(f: PeriodicField) -> float:
    """Suggested stable step for kdv_evolve.

    Dispersion is integrated exactly, so stability is set by the advective
    term: dt <= 2.8 / (6 max|u| k_max).  Returns inf for a quiet field.
    """
    umax = float(np.max(np.abs(f.u)))
    if umax == 0.0:
        return math.inf
    k_max = np.pi * f.M / f.L_domain
    return _RK4_STABILITY / (6.0 * umax * k_max)


def kdv_evolve(f: PeriodicField, dt: float, n_steps: int) -> PeriodicField:
    """Advance u_t = 6 u u_x - u_xxx by n_steps of size dt.

    Fourth-order Runge-Kutta on the integrating-factor variable
    exp(-i k^3 t) u_hat, with two-thirds-rule dealiasing of the quadratic
    term.  The zero mode has no linear or nonlinear forcing, so the steps
    carry it exactly; the mass int u dx of the returned field moves only by
    the rounding of the final inverse transform, a few eps times
    int |u| dx.  A step larger than the stability guard triggers a warning;
    non-finite coefficients abort with the last stable time.

    The steps reuse preallocated buffers and run in blocks of 64; only a
    block's end coefficients are checked, since a non-finite coefficient
    spreads through the transforms and stays non-finite to the block's end.
    A block that ends non-finite is run again from its start with a check
    after every step, so :class:`BlowUpError` names the first bad step.

    Inside the steps, the 8 transforms per step call NumPy's pocketfft
    gufuncs ``numpy.fft._pocketfft_umath.irfft`` (factor 1/M) and
    ``rfft_n_even`` (factor 1; M is a power of two) directly, with the
    kernels and factors ``np.fft.irfft`` and ``rfft`` pass, so every double
    is theirs.  At M = 512 the public wrappers cost more than the
    transforms.  ``TestKdvEvolve::test_equals_reference_loop`` compares
    the result bit for bit with a public-``np.fft`` IF-RK4 on four grids,
    so a NumPy release that changes the private module fails it.
    """
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if dt <= 0 or not math.isfinite(dt):
        raise ValueError("dt must be positive and finite")
    guard = cfl_timestep(f)
    if dt > guard:
        warnings.warn(
            f"dt={dt:.3e} exceeds the advective stability guard {guard:.3e}; "
            "expect blow-up or aliasing",
            stacklevel=2,
        )
    if n_steps == 0:
        return f
    M = f.M
    k = _wavenumbers(M, f.L_domain)
    lin = 1j * k**3
    E = np.exp(lin * (dt / 2.0))
    E2 = E * E
    two_E = 2.0 * E
    three_ik = 3j * k
    u = np.empty(M)
    a, b, c, d, s, *ends = (np.empty_like(E) for _ in range(7))
    # bound per call: numpy.fft loads lazily, and importing hamlab.cli
    # must not load it
    from numpy.fft import _pocketfft_umath as pocketfft

    irfft, rfft = pocketfft.irfft, pocketfft.rfft_n_even
    # operands a ufunc would convert on every call, the dealiasing mask and
    # the Python floats, are stored in the dtype they convert to: the same
    # doubles, without the conversions
    keep = (np.arange(k.size) <= M // 3).astype(complex)
    inv_M, one = np.array(1.0 / M), np.array(1.0)
    dt_c, two, six = (np.array(x, dtype=complex) for x in (dt, 2.0, 6.0))

    def nonlinear(vhat, out):
        # out = dt 3ik rfft(irfft(vhat)^2), dealiased; vhat may be out
        irfft(vhat, inv_M, out=u)
        np.multiply(u, u, out=u)
        rfft(u, one, out=out)
        np.multiply(out, keep, out=out)
        np.multiply(three_ik, out, out=out)
        np.multiply(dt_c, out, out=out)

    def step(vhat, out):
        # the RK4 stages, one ufunc per operation of these expressions and
        # in their order, so the result is the same double as theirs:
        #   a = dt N(vhat),  b = dt N(E (vhat + a/2)),  c = dt N(E vhat + b/2),
        #   d = dt N(E2 vhat + E c),
        #   out = E2 vhat + (E2 a + 2E (b + c) + d) / 6
        nonlinear(vhat, a)
        np.divide(a, two, out=s)
        np.add(vhat, s, out=s)
        np.multiply(E, s, out=s)
        nonlinear(s, b)
        np.multiply(E, vhat, out=s)
        np.divide(b, two, out=c)
        np.add(s, c, out=c)
        nonlinear(c, c)
        np.multiply(E2, vhat, out=s)
        np.multiply(E, c, out=d)
        np.add(s, d, out=d)
        nonlinear(d, d)
        np.multiply(E2, a, out=a)
        np.add(b, c, out=b)
        np.multiply(two_E, b, out=b)
        np.add(a, b, out=a)
        np.add(a, d, out=a)
        np.divide(a, six, out=a)
        np.add(s, a, out=out)

    def steps(vhat, first, last, check):
        # steps first..last-1 from vhat, which is read but never written
        for n in range(first, last):
            out = ends[(n - first) % 2]
            step(vhat, out)
            vhat = out
            if check and not np.all(np.isfinite(vhat)):
                raise BlowUpError(f.t + n * dt, n + 1, f.t, "kdv_evolve")
        return vhat

    vhat = np.fft.rfft(f.u)
    # an unstable step overflows before the finiteness check catches it;
    # silence the intermediate numpy warnings so BlowUpError is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, _CHECK_STEPS):
            last = min(first + _CHECK_STEPS, n_steps)
            end = steps(vhat, first, last, False)
            if not np.all(np.isfinite(end)):
                end = steps(vhat, first, last, True)
            vhat[:] = end
    return PeriodicField(np.fft.irfft(vhat, M), f.L_domain, f.t + n_steps * dt)


def riccati_densities(f: PeriodicField, order: int) -> np.ndarray:
    """chi_1 = -u and chi_{m+1} = d/dx chi_m + sum_{j<m} chi_j chi_{m-j},
    as an (order, M) array whose row m-1 is chi_m.

    Each level adds a spectral derivative, so grid noise grows with the
    order; above order 8 at default resolution the products of high
    derivatives approach the noise floor and a warning is issued.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > 8:
        warnings.warn(
            f"densities beyond order 8 amplify grid noise (requested {order})",
            stacklevel=2,
        )
    chi = [-f.u]
    for m in range(1, order):
        nxt = _ddx(chi[m - 1], f.L_domain)
        for j in range(1, m):
            nxt = nxt + chi[j - 1] * chi[m - 1 - j]
        chi.append(nxt)
    return np.array(chi)


def kdv_invariants(f: PeriodicField, n: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """I_1..I_n from the odd Riccati densities, plus the n matching even
    integrals as diagnostics, as ``(I, even)``: I[m-1] = int chi_{2m-1} dx
    and even[m-1] = int chi_{2m} dx.

    The I values are the conserved quantities; the even integrals are
    expected to sit at round-off.  A density that overflows a double
    raises ValueError.
    """
    chi = riccati_densities(f, 2 * n)
    I = np.array([periodic_integral(chi[2 * m - 2], f.L_domain) for m in range(1, n + 1)])
    even = np.array([periodic_integral(chi[2 * m - 1], f.L_domain) for m in range(1, n + 1)])
    if not (np.isfinite(I).all() and np.isfinite(even).all()):
        raise ValueError("I and even entries must be finite")
    return I, even


def direct_hamiltonian(f: PeriodicField) -> float:
    """int (u_x^2 / 2 + u^3) dx with a spectral derivative.

    Equals -I_3 / 2 analytically; kept as a separate code path so the two
    routes stay independent checks of each other.
    """
    ux = spectral_derivative(f, 1)
    return periodic_integral(0.5 * ux**2 + f.u**3, f.L_domain)


def riccati_residual(f: PeriodicField, order: int, k_value: float) -> float:
    """Max-norm residual of the truncated expansion in the Riccati equation.

    chi = sum_{m<=order} chi_m / (2ik)^m inserted into
    chi_x + chi^2 - u - 2ik chi leaves only terms of order (2k)^(-order)
    and beyond, so the residual at fixed k decays like |2k|^(-order) as the
    order grows; the tests estimate that exponent from two k values.
    """
    if k_value == 0:
        raise ValueError("k must be nonzero")
    densities = riccati_densities(f, order)
    two_ik = 2j * k_value
    chi = np.zeros(f.M, dtype=complex)
    for m in range(1, order + 1):
        chi += densities[m - 1] / two_ik**m
    chi_x = _ddx(chi.real, f.L_domain) + 1j * _ddx(chi.imag, f.L_domain)
    residual = chi_x + chi**2 - f.u - two_ik * chi
    return float(np.max(np.abs(residual)))


@dataclass(frozen=True)
class LinePotential:
    """A potential u(x) on the line window [x_left, x_right].

    ``fn`` is vectorised and is only evaluated inside the window; it must
    stay below 1e-10 in magnitude at both edges.  A window cut from a
    periodic field carries the interpolant that :func:`line_window`
    builds; there is no other interpolant.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    x_left: float
    x_right: float

    def __post_init__(self):
        lo = finite(self, "x_left", self.x_left)
        hi = finite(self, "x_right", self.x_right)
        if not lo < hi:
            raise ValueError("x_left must be below x_right")
        edge = float(np.max(np.abs(self.fn(np.array([lo, hi])))))
        if not edge <= _DECAY_TOL:
            raise DecayError(
                f"potential reaches {edge:.3e} > {_DECAY_TOL:.1e} at the "
                "window edge; enlarge the window or recenter the data"
            )


def line_window(f: PeriodicField) -> LinePotential:
    """Cut the periodic field into a line window centered on its extremum.

    The field is rolled by a whole number of cells so the deepest sample
    sits at the window center; the decay requirement at the edges then
    certifies that the periodic images do not overlap the window.

    The samples are a band-limited periodic field, so between them the
    potential is their trigonometric interpolant: ``rfft`` of the rolled
    samples, zero-padded to F M points with the Nyquist bin halved (it
    splits between the wavenumbers +-M/2), and one ``irfft``.  F is the
    least power of two that puts these fine samples at most _MAX_CELL / 2
    apart, 16 at the default h = 40/512; half that factor left a(k) off by
    1e-10.  Between the fine samples the potential is their 6-point
    Lagrange interpolant, held as one quintic per fine cell, so each call
    of ``fn`` is a gather and a Horner evaluation.  The transforms and the
    coefficients are computed once, here.
    """
    M = f.M
    u = np.roll(f.u, M // 2 - int(np.argmin(f.u)))
    F = 2 ** max(0, math.ceil(math.log2(2.0 * f.h / _MAX_CELL)))
    n = F * M
    spectrum = np.fft.rfft(u)
    if F > 1:
        spectrum[-1] *= 0.5
    fine = np.fft.irfft(spectrum, n) * F
    # cell j spans fine samples j..j+1 and reads j-2..j+3, wrapping around;
    # coef[d, j] is the s^d coefficient of its quintic
    cells = np.lib.stride_tricks.sliding_window_view(np.concatenate([fine[-2:], fine, fine[:3]]), 6)
    coef = _LAGRANGE6 @ cells.T / 120.0
    x = (np.arange(M) - M // 2) * f.h
    x_left, spacing = x[0], f.h / F

    def fn(xs):
        t = (np.asarray(xs, dtype=float) - x_left) / spacing
        j = np.clip(t.astype(np.intp), 0, n - 1)
        s = t - j
        out = coef[5][j]
        for row in coef[4::-1]:
            out *= s
            out += row[j]
        return out

    return LinePotential(fn, x[0], x[-1])


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported at the first call, so that
    importing this module loads no SciPy.

    The name exists so that ``perfbench/tracer.py`` can substitute a
    counting wrapper for it inside this module.  It folds into a direct
    call when that tracer is deleted (ROADMAP item 4).
    """
    import scipy.integrate

    return scipy.integrate.solve_ivp(*args, **kwargs)


def schrodinger_a(pot: LinePotential, k: complex) -> complex:
    """Transmission-related coefficient a(k) of -phi'' + u phi = k^2 phi.

    The Jost solution is launched as exp(-ikx) at the left window edge and
    integrated with adaptive eighth-order stepping; at the right edge the
    free solution split phi = a exp(-ikx) + b exp(ikx) gives

        a(k) = (phi + i phi' / k) / 2 * exp(ikx_right).

    Works on the positive imaginary axis too (k = i kappa), where a is
    real and its zeros are the bound states.  There the launch value
    exp(kappa x_left) is tiny, so the absolute tolerance is scaled by it.

    This is the oracle route, one DOP853 solve per k; production code
    calls :func:`scattering_a`.
    """
    k = complex(k)
    if k == 0:
        raise ValueError("k must be nonzero")
    if k.imag < 0:
        raise ValueError("need Im k >= 0")
    ksq = k * k

    def rhs(x, y):
        phi = y[0] + 1j * y[1]
        dphi = y[2] + 1j * y[3]
        ddphi = (pot.fn(x) - ksq) * phi
        return [dphi.real, dphi.imag, ddphi.real, ddphi.imag]

    x_l, x_r = pot.x_left, pot.x_right
    phi0 = np.exp(-1j * k * x_l)
    y0 = [phi0.real, phi0.imag, (-1j * k * phi0).real, (-1j * k * phi0).imag]
    sol = solve_ivp(
        rhs, (x_l, x_r), y0, method="DOP853", rtol=1e-12, atol=1e-18 * abs(phi0)
    )
    if not sol.success:
        raise ConvergenceError(f"Jost integration failed at k={k}: {sol.message}")
    phi = sol.y[0, -1] + 1j * sol.y[1, -1]
    dphi = sol.y[2, -1] + 1j * sol.y[3, -1]
    return complex(0.5 * (phi + 1j * dphi / k) * np.exp(1j * k * x_r))


# Sixth-order Magnus integrator (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
# 2009) on three Gauss-Legendre nodes per cell.  The cell width keeps
# h <= _MAX_CELL and |k| h <= _MAX_PHASE; cells are grouped _CHUNK_CELLS at a
# time (a power of two, for the pairwise product).  The chunks are taken a
# block at a time: one potential call, one Magnus evaluation and one pairwise
# product per block, then a short loop applies the block's chunk
# propagators in order.  A block holds as many chunks as fit in
# _BLOCK_ENTRIES entries per array of chunks x _CHUNK_CELLS x len(k), and at
# least one, so the working set stays a few arrays of at most
# max(_BLOCK_ENTRIES, _CHUNK_CELLS x len(k)) entries.  Since the per-cell
# Magnus terms are computed once per cell, a (cell, k) keeps few temporaries:
# 2**13 entries measured faster than 2**12 for 8 to 60 k and as fast for one
# k, while 2**14 and up raised the peak memory by 1 MB and more.
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_MAX_CELL = 0.01
_MAX_PHASE = 0.2
_CHUNK_CELLS = 64
_BLOCK_ENTRIES = 2**13


def _magnus_cells(h, u1, u2, u3, ksq):
    """exp(Omega) of each cell and k for A = [[0, 1], [u - k^2, 0]], u at the
    Gauss nodes in arrays whose last axis (length 1) broadcasts against the
    1-d k^2; returns the entries (E00, E01, E10, E11).

    With a1 = h A2, a2 = (sqrt(15) h / 3)(A3 - A1) and
    a3 = (10 h / 3)(A3 - 2 A2 + A1), the sixth-order Magnus exponent is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60.  Here a2 and a3 are
    [[0, 0], [d, 0]] matrices, free of k^2, and the commutators are expanded
    by hand into Omega = [[w0, w1], [w2, -w0]]: w1 and the coefficients of
    w0 and w2, affine in q2 = u2 - k^2, are computed once per cell.
    Omega is traceless and real, so with s^2 = -det(Omega) the exponential
    is cosh(s) I + sinh(s)/s Omega (cos/sin when s^2 < 0).
    """
    d2 = (math.sqrt(15.0) * h / 3.0) * (u3 - u1)
    d3 = (10.0 * h / 3.0) * (u3 - 2.0 * u2 + u1)
    h2, h3, d2d2 = h * h, h * h * h, d2 * d2
    w0_0, w0_1 = (-20.0 * h + h2 * d3 / 30.0) * d2 / 240.0, ((4.0 / 3.0) * h3 / 240.0) * d2
    w1 = h + (h3 * d2d2 / 15.0 - (4.0 / 3.0) * h2 * d3) / 240.0
    w2_0 = d3 / 12.0 + (h * d3 * d3 / 15.0 - 2.0 * h * d2d2) / 240.0
    w2_1 = h + ((4.0 / 3.0) * h2 * d3 + h3 * d2d2 / 15.0) / 240.0
    q2 = u2 - ksq
    w0, w2 = w0_0 + w0_1 * q2, w2_0 + w2_1 * q2
    s2 = w0 * w0 + w1 * w2
    s = np.sqrt(np.abs(s2))
    # each entry takes one pair of transcendentals: cosh/sinh or cos/sin
    # (a NaN s2 falls to cos/sin, which keep it)
    grow = s2 > 0.0
    turn = ~grow
    c, sh = np.empty_like(s), np.empty_like(s)
    np.cosh(s, where=grow, out=c)
    np.sinh(s, where=grow, out=sh)
    np.cos(s, where=turn, out=c)
    np.sin(s, where=turn, out=sh)
    moves = s > 0.0
    np.divide(sh, s, where=moves, out=sh)
    sh[~moves] = 1.0
    return c + sh * w0, sh * w1, sh * w2, c - sh * w0


def _chunk_propagators(e00, e01, e10, e11):
    """Ordered product E_{n-1} ... E_1 E_0 over axis 1, the cells of each
    chunk, by pairwise halving; returns (chunk, k) arrays."""
    while e00.shape[1] > 1:
        l00, l01, l10, l11 = e00[:, 1::2], e01[:, 1::2], e10[:, 1::2], e11[:, 1::2]
        r00, r01, r10, r11 = e00[:, 0::2], e01[:, 0::2], e10[:, 0::2], e11[:, 0::2]
        e00, e01 = l00 * r00 + l01 * r10, l00 * r01 + l01 * r11
        e10, e11 = l10 * r00 + l11 * r10, l10 * r01 + l11 * r11
    return e00[:, 0], e01[:, 0], e10[:, 0], e11[:, 0]


def scattering_a(pot: LinePotential, ks) -> np.ndarray:
    """a(k) for every k of a 1-d array, in one sweep over the window.

    Each k must be real or on the positive imaginary axis, so that
    A = [[0, 1], [u - k^2, 0]] is real.  A sixth-order Magnus step on three
    Gauss nodes per cell gives each cell's 2x2 propagator in closed form;
    the propagators of a chunk of cells are multiplied together and applied
    to the running (phi, phi') vector, launched as exp(-ikx) at the left
    edge.  The full-window product is never formed: on the imaginary axis
    it overflows long before the vector does.  a(k) is read off at the
    right edge as in :func:`schrodinger_a`, the DOP853 oracle route.

    The chunks are computed in blocks of up to 2**13 // (64 len(ks)) chunks
    (at least one): ``pot.fn`` is called once per block, on all of its
    nodes, so a one-k sweep over a 40-wide window calls it once.
    Every k is computed independently of the others and of the blocking,
    so a(k) depends on ks only through the cell width, which the largest
    |k| sets.

    A k whose launch value underflows (k = i kappa with kappa x_left below
    about -708) raises ConvergenceError before the sweep calls ``pot.fn``;
    a vector that leaves the double range during the sweep raises it after.
    A potential that is not finite at a node raises ValueError naming the
    first such x.
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("ks must be a nonempty 1-d array")
    if not np.all(np.isfinite(ks)):
        raise ValueError("ks entries must be finite")
    if np.any(ks == 0):
        raise ValueError("k must be nonzero")
    if np.any(ks.imag < 0):
        raise ValueError("need Im k >= 0")
    if np.any((ks.real != 0) & (ks.imag != 0)):
        raise ValueError("k must be real or on the positive imaginary axis")
    ksq = (ks * ks).real

    x_l, x_r = pot.x_left, pot.x_right
    h_max = min(_MAX_CELL, _MAX_PHASE / float(np.max(np.abs(ks))))
    n_chunks = math.ceil((x_r - x_l) / (h_max * _CHUNK_CELLS))
    h = (x_r - x_l) / (n_chunks * _CHUNK_CELLS)
    cell_nodes = np.arange(_CHUNK_CELLS)[:, None] + _GAUSS_NODES
    per_block = max(1, _BLOCK_ENTRIES // (_CHUNK_CELLS * ks.size))

    phi0 = np.exp(-1j * ks * x_l)
    sunk = np.abs(phi0) < np.finfo(float).tiny  # only on the imaginary axis
    if np.any(sunk):
        raise ConvergenceError(
            f"Jost launch value exp(-ik x_left) at k={ks[sunk][0].imag:.6g}j is below the "
            "floating-point range; use a smaller |k| (k_max_bound) or a narrower window"
        )
    phi, dphi = phi0, -1j * ks * phi0
    # deep on the imaginary axis phi can overflow; the range check below,
    # not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_chunks, per_block):
            starts = _CHUNK_CELLS * np.arange(first, min(first + per_block, n_chunks))
            x = x_l + h * (starts[:, None, None] + cell_nodes)
            u = np.asarray(pot.fn(x), dtype=float)
            bad = ~np.isfinite(u)
            if np.any(bad):
                raise ValueError(f"potential is not finite at x={x[bad][0]:.6g}")
            cells = _magnus_cells(h, *(u[..., j, None] for j in range(3)), ksq)
            for p00, p01, p10, p11 in zip(*_chunk_propagators(*cells)):
                phi, dphi = p00 * phi + p01 * dphi, p10 * phi + p11 * dphi
        a = 0.5 * (phi + 1j * dphi / ks) * np.exp(1j * ks * x_r)
    lost = ~np.isfinite(a)
    if np.any(lost):
        raise ConvergenceError(
            f"Jost sweep left the floating-point range at k={ks[lost][0]}; "
            "use a smaller |k| (k_max_bound) or a narrower window"
        )
    return a


def analytic_soliton_a(k: complex, kappas: Sequence[float]) -> complex:
    """Closed-form a(k) for reflectionless multi-sech^2 potentials:
    the product of (k - i kappa_l)/(k + i kappa_l)."""
    k = complex(k)
    out = complex(1.0)
    for kap in kappas:
        out *= (k - 1j * kap) / (k + 1j * kap)
    return out


def _refine_roots(pot, lo, hi, f_lo, f_hi):
    """Zeros of a(i kappa) in the brackets [lo, hi], where a(i kappa) takes
    the signs of f_lo and f_hi, by the Illinois method (Dowell & Jarratt 1971).

    Each iteration takes the false-position point of every open bracket,
    evaluates them all in one :func:`scattering_a` sweep and puts each in
    place of the end of its sign.  For kappa <= 20 the sweep's cell width is
    _MAX_CELL whatever the batch, so each value is the one a sweep of its
    own would give.  When the same end is replaced twice running, the value
    kept at the other end is halved, so both ends close in.  A point within
    _ROOT_TOL / 2 of the end set last is moved _ROOT_TOL / 2 past it, toward
    the other end, so a converged iterate closes its bracket on the next
    sweep.  A bracket is done once it is at most _ROOT_TOL wide or an end
    sits on a zero; its root is the false-position point of its ends.  A
    bracket still open after _REFINE_STEPS iterations raises
    ConvergenceError: no unrefined root is returned.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    w_lo, w_hi = f_lo.copy(), f_hi.copy()
    # +1 where hi was set last, -1 where lo was, 0 before the first step
    side = np.zeros(lo.size)
    nudge = _ROOT_TOL / 2.0
    for step in range(_REFINE_STEPS + 1):
        live = np.flatnonzero((hi - lo > _ROOT_TOL) & (f_lo != 0.0) & (f_hi != 0.0))
        if live.size == 0:
            return (f_lo * hi - f_hi * lo) / (f_lo - f_hi)
        if step == _REFINE_STEPS:
            raise ConvergenceError(
                f"bound-state refinement left kappa in [{lo[live[0]]:.15g}, "
                f"{hi[live[0]]:.15g}] open after {_REFINE_STEPS} iterations"
            )
        s = side[live]
        x = (w_lo[live] * hi[live] - w_hi[live] * lo[live]) / (w_lo[live] - w_hi[live])
        last = np.where(s > 0, hi[live], lo[live])
        x = np.where((s != 0) & (np.abs(x - last) < nudge), last - s * nudge, x)
        fx = scattering_a(pot, 1j * x).real
        up = (fx > 0.0) == (f_hi[live] > 0.0)
        i, j = live[up], live[~up]
        hi[i], f_hi[i], w_hi[i] = x[up], fx[up], fx[up]
        w_lo[i] *= np.where(side[i] > 0, 0.5, 1.0)
        lo[j], f_lo[j], w_lo[j] = x[~up], fx[~up], fx[~up]
        w_hi[j] *= np.where(side[j] < 0, 0.5, 1.0)
        side[i], side[j] = 1.0, -1.0


def bound_states(pot: LinePotential, k_max: float) -> np.ndarray:
    """Zeros of a(i kappa) for kappa in [0.05, k_max]: the bound-state wavenumbers.

    a restricted to the imaginary axis is real; one :func:`scattering_a`
    sweep samples it on a kappa grid of step 0.05 whose last sample is k_max,
    and the Illinois method refines every sign change to a bracket of at most
    1e-10, moving all the brackets in one sweep per iteration
    (:func:`_refine_roots`).  A scan sample where |a(i kappa)| is below
    1e-13 * max(1, max |a|) over the scan is a root and is returned as that
    sample; it takes part in no sign change, so every other root is a strict
    sign change of the scan.

    Between samples only sign changes are found, and both misses are silent
    (ROADMAP item 2): two roots closer than one scan step (0.05) can share
    a step and cancel, and kappa < 0.05 is not searched at all.
    """
    if not math.isfinite(k_max):
        raise ValueError(f"k_max must be finite, got {k_max}")
    if k_max <= _K_MIN:
        return np.array([])
    # the steps below k_max, then k_max itself: no sample lies above it
    steps = math.ceil((k_max - _K_MIN) / _SCAN_STEP - 1e-9)
    grid = np.append(_K_MIN + _SCAN_STEP * np.arange(steps), k_max)
    vals = scattering_a(pot, 1j * grid).real
    on_zero = np.abs(vals) < 1e-13 * max(1.0, float(np.max(np.abs(vals))))
    vals[on_zero] = 0.0
    i = np.flatnonzero(vals[:-1] * vals[1:] < 0)
    refined = _refine_roots(pot, grid[i], grid[i + 1], vals[i], vals[i + 1])
    return np.sort(np.concatenate([grid[on_zero], refined]))


def _k_table(k_grid, values, name, dtype):
    """(k_grid, values) as arrays, both finite and 1-d of one nonempty shape, k > 0 increasing."""
    k_grid, values = np.asarray(k_grid, dtype=float), np.asarray(values, dtype=dtype)
    for label, v in (("k_grid", k_grid), (name, values)):
        if not np.isfinite(v).all():
            raise ValueError(f"{label} entries must be finite")
    if k_grid.ndim != 1 or k_grid.shape != values.shape or k_grid.size < 1:
        raise ValueError(f"k_grid and {name} must be matching nonempty 1-d arrays")
    if np.any(k_grid <= 0) or np.any(np.diff(k_grid) <= 0):
        raise ValueError("k_grid must be positive and strictly increasing")
    return k_grid, values


def continuum_actions(k_grid, a) -> np.ndarray:
    """The continuum actions n(k) = (2k/pi) ln |a(k)|^2 of a(k) sampled on
    a grid of positive, strictly increasing k.

    Checks the two structural facts valid for real decaying potentials
    first: |a| >= 1 on the real axis (to 1e-8) and |a| -> 1 at the largest
    sample (to 0.1).  An n(k) below -1e-10 is rejected too.
    """
    k_grid, a = _k_table(k_grid, a, "a", complex)
    mods = np.abs(a)
    if np.min(mods) < 1.0 - 1e-8:
        raise ValueError(f"|a| dips to {np.min(mods):.12f} < 1; not a real decaying potential's data")
    if abs(mods[-1] - 1.0) > 0.1:
        raise ValueError(f"|a| at the largest sample is {mods[-1]:.6f}, not near its high-k limit 1")
    n_of_k = (2.0 * k_grid / np.pi) * np.log(mods**2)
    if np.any(n_of_k < -1e-10):
        raise ValueError(f"n(k) dips to {np.min(n_of_k):.3e}; |a| >= 1 must have failed")
    return n_of_k


def hamiltonian_from_actions(k_grid, n_of_k, kappas) -> float:
    """H = -(32/5) sum_l N_l^(5/2) + 8 int k^3 n(k) dk from the continuum
    actions n(k) on a k_grid checked as in :func:`continuum_actions` and the
    bound-state actions N_l = kappa_l^2 of the wavenumbers ``kappas``.

    The integral runs over the sampled k range by trapezoid; the
    contribution of the upper half of the range estimates the unconverged
    tail and triggers a warning when it exceeds 1% of the total (or 1e-6).
    """
    k_grid, n_of_k = _k_table(k_grid, n_of_k, "n_of_k", float)
    kappas = np.asarray(kappas, dtype=float)
    if not np.all(np.isfinite(kappas) & (kappas > 0)):
        raise ValueError("bound-state wavenumbers must be positive and finite")
    discrete = -6.4 * float(np.sum(np.sort(kappas**2) ** 2.5))
    integrand = k_grid**3 * n_of_k
    integral = 8.0 * float(np.trapezoid(integrand, k_grid))
    half = k_grid.size // 2
    tail = 8.0 * abs(float(np.trapezoid(integrand[half:], k_grid[half:])))
    total = discrete + integral
    if tail > max(1e-6, _TAIL_TOL * abs(total)):
        warnings.warn(
            f"upper-half k-range contributes {tail:.3e} to the action integral; "
            "extend the k grid",
            stacklevel=2,
        )
    return total
