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
   the bound states ik_l; ``ScatteringData`` carries both, computed from its
   own a(k) and bound states, and the Hamiltonian can be assembled from them as
   H = -(32/5) sum_l N_l^(5/2) + 8 int k^3 n(k) dk, cross-checked against
   the direct functional int (u_x^2/2 + u^3) dx.  Production code gets
   a(k) for a whole k array from one vectorised sixth-order Magnus sweep
   over the window (``scattering_a``), and bound states from a sweep over
   a kappa grid refined by Brent's method; the adaptive DOP853 integration
   of one k at a time (``schrodinger_a``) is kept as the independent
   oracle the tests compare it with.

Evolution is periodic while scattering theory lives on the line; the bridge
is a window extraction that recenters the periodic field and demands decay
at the window edges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy

from ._frozen import finite, freeze
from .errors import BlowUpError, ConvergenceError, DecayError

DEFAULT_DOMAIN = 40.0
DEFAULT_MODES = 512
# real-axis stability radius of the classical RK4 scheme
_RK4_STABILITY = 2.8
# a line window's edge samples must stay below this
_DECAY_TOL = 1e-10


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
    t: float = 0.0,
) -> PeriodicField:
    """Soliton sampled on the periodic grid (default: centered)."""
    x = kdv_grid(L_domain, M)
    if x0 is None:
        x0 = L_domain / 2.0
    return PeriodicField(soliton(x, kappa, x0, t), L_domain, t)


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
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
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
    keep = np.arange(k.size) <= M // 3

    def nonlinear(vhat):
        u = np.fft.irfft(vhat, M)
        return 3j * k * (np.fft.rfft(u * u) * keep)

    vhat = np.fft.rfft(f.u)
    # an unstable step overflows before the finiteness check catches it;
    # silence the intermediate numpy warnings so BlowUpError is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(n_steps):
            a = dt * nonlinear(vhat)
            b = dt * nonlinear(E * (vhat + a / 2.0))
            c = dt * nonlinear(E * vhat + b / 2.0)
            d = dt * nonlinear(E2 * vhat + E * c)
            vhat = E2 * vhat + (E2 * a + 2.0 * E * (b + c) + d) / 6.0
            if not np.all(np.isfinite(vhat)):
                raise BlowUpError(f.t + step * dt, step + 1, f.t, "kdv_evolve")
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


@dataclass(frozen=True)
class ConservedIntegrals:
    """I[m-1] = int chi_{2m-1} dx and even[m-1] = int chi_{2m} dx.

    The I values are the conserved quantities; the even integrals are a
    diagnostic expected to sit at round-off.
    """

    I: np.ndarray
    even: np.ndarray

    def __post_init__(self):
        freeze(self, "I", self.I)
        freeze(self, "even", self.even)


def kdv_invariants(f: PeriodicField, n: int = 3) -> ConservedIntegrals:
    """I_1..I_n from the odd Riccati densities, plus the n matching even
    integrals as diagnostics."""
    chi = riccati_densities(f, 2 * n)
    I = np.array([periodic_integral(chi[2 * m - 2], f.L_domain) for m in range(1, n + 1)])
    even = np.array([periodic_integral(chi[2 * m - 1], f.L_domain) for m in range(1, n + 1)])
    return ConservedIntegrals(I, even)


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
    # chi is complex, so differentiate with the full transform
    k_full = 2.0 * np.pi * np.fft.fftfreq(f.M, d=f.L_domain / f.M)
    chi_x = np.fft.ifft(1j * k_full * np.fft.fft(chi))
    residual = chi_x + chi**2 - f.u - two_ik * chi
    return float(np.max(np.abs(residual)))


@dataclass(frozen=True)
class LinePotential:
    """Potential samples on a uniform line window with decaying edges.

    The edge samples must be below 1e-10.  ``fn``, when given, is the
    exact profile and is what the scattering integrator evaluates;
    otherwise a cubic spline of the samples stands in, extended by zero
    outside the window.
    """

    x: np.ndarray
    u: np.ndarray
    fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        x = freeze(self, "x", self.x)
        u = freeze(self, "u", self.u)
        if x.ndim != 1 or x.shape != u.shape or x.size < 16:
            raise ValueError("x and u must be equal-length 1-d arrays, >= 16 points")
        if np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        edge = max(abs(u[0]), abs(u[-1]))
        if edge > _DECAY_TOL:
            raise DecayError(
                f"potential reaches {edge:.3e} > {_DECAY_TOL:.1e} at the "
                "window edge; enlarge the window or recenter the data"
            )

    def evaluate(self) -> Callable[[np.ndarray], np.ndarray]:
        """Vectorised u(x): ``fn`` when given, else the cubic spline of the
        samples extended by zero outside the window."""
        if self.fn is not None:
            return self.fn
        spline = scipy.interpolate.CubicSpline(self.x, self.u)
        lo, hi = self.x[0], self.x[-1]
        return lambda xq: np.where((xq >= lo) & (xq <= hi), spline(xq), 0.0)


def sample_potential(
    fn: Callable[[np.ndarray], np.ndarray],
    half_width: float = 20.0,
    n_points: int = 8192,
) -> LinePotential:
    """Sample a callable potential on a symmetric window."""
    x = np.linspace(-half_width, half_width, n_points)
    return LinePotential(x, fn(x), fn)


def line_window(f: PeriodicField) -> LinePotential:
    """Cut the periodic field into a line window centered on its extremum.

    The field is rolled by a whole number of cells so the deepest sample
    sits at the window center; the decay requirement at the edges then
    certifies that the periodic images do not overlap the window.
    """
    shift = f.M // 2 - int(np.argmin(f.u))
    u = np.roll(f.u, shift)
    x = (np.arange(f.M) - f.M // 2) * f.h
    return LinePotential(x, u)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, looked up at call time.

    The name exists so that ``perfbench/tracer.py`` can substitute a
    counting wrapper for it inside this module.  It folds into a direct
    call when that tracer is deleted (ROADMAP item 4).
    """
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
    u_of = pot.evaluate()
    ksq = k * k

    def rhs(x, y):
        phi = y[0] + 1j * y[1]
        dphi = y[2] + 1j * y[3]
        ddphi = (u_of(x) - ksq) * phi
        return [dphi.real, dphi.imag, ddphi.real, ddphi.imag]

    x_l, x_r = float(pot.x[0]), float(pot.x[-1])
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
# time (a power of two, for the pairwise product) so the working set stays
# a few arrays of _CHUNK_CELLS x len(k).
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * (math.sqrt(15.0) / 10.0)
_MAX_CELL = 0.01
_MAX_PHASE = 0.2
_CHUNK_CELLS = 64


def _magnus_cells(h, q1, q2, q3):
    """exp(Omega) of each cell for A = [[0, 1], [q, 0]], q sampled at the
    Gauss nodes; returns the entries (E00, E01, E10, E11).

    With a1 = h A2, a2 = (sqrt(15) h / 3)(A3 - A1) and
    a3 = (10 h / 3)(A3 - 2 A2 + A1), the sixth-order Magnus exponent is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240 with
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60.  Here a2 and a3 are
    [[0, 0], [d, 0]] matrices, and the commutators are expanded by hand.
    Omega is traceless and real, so with s^2 = -det(Omega) the exponential
    is cosh(s) I + sinh(s)/s Omega (cos/sin when s^2 < 0).
    """
    d2 = (math.sqrt(15.0) * h / 3.0) * (q3 - q1)
    d3 = (10.0 * h / 3.0) * (q3 - 2.0 * q2 + q1)
    h2, h3 = h * h, h * h * h
    w0 = (-20.0 * h * d2 + (4.0 / 3.0) * h3 * q2 * d2 + h2 * d2 * d3 / 30.0) / 240.0
    w1 = h + (h3 * d2 * d2 / 15.0 - (4.0 / 3.0) * h2 * d3) / 240.0
    w2 = h * q2 + d3 / 12.0 + (
        (4.0 / 3.0) * h2 * q2 * d3
        + h * d3 * d3 / 15.0
        - 2.0 * h * d2 * d2
        + h3 * q2 * d2 * d2 / 15.0
    ) / 240.0
    s2 = w0 * w0 + w1 * w2
    s = np.sqrt(np.abs(s2))
    grow = s2 > 0.0
    c = np.where(grow, np.cosh(s), np.cos(s))
    sh = np.where(grow, np.sinh(s), np.sin(s)) / np.where(s > 0.0, s, 1.0)
    sh = np.where(s > 0.0, sh, 1.0)
    return c + sh * w0, sh * w1, sh * w2, c - sh * w0


def _chunk_propagator(e00, e01, e10, e11):
    """Ordered product E_{n-1} ... E_1 E_0 over axis 0 by pairwise halving."""
    while e00.shape[0] > 1:
        l00, l01, l10, l11 = e00[1::2], e01[1::2], e10[1::2], e11[1::2]
        r00, r01, r10, r11 = e00[0::2], e01[0::2], e10[0::2], e11[0::2]
        e00, e01 = l00 * r00 + l01 * r10, l00 * r01 + l01 * r11
        e10, e11 = l10 * r00 + l11 * r10, l10 * r01 + l11 * r11
    return e00[0], e01[0], e10[0], e11[0]


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
    """
    ks = np.atleast_1d(np.asarray(ks, dtype=complex))
    if ks.ndim != 1 or ks.size == 0:
        raise ValueError("ks must be a nonempty 1-d array")
    if np.any(ks == 0):
        raise ValueError("k must be nonzero")
    if np.any(ks.imag < 0):
        raise ValueError("need Im k >= 0")
    if np.any((ks.real != 0) & (ks.imag != 0)):
        raise ValueError("k must be real or on the positive imaginary axis")
    ksq = (ks * ks).real

    x_l, x_r = float(pot.x[0]), float(pot.x[-1])
    h_max = min(_MAX_CELL, _MAX_PHASE / float(np.max(np.abs(ks))))
    n_chunks = math.ceil((x_r - x_l) / (h_max * _CHUNK_CELLS))
    n_cells = n_chunks * _CHUNK_CELLS
    h = (x_r - x_l) / n_cells
    u_of = pot.evaluate()
    cell_nodes = np.arange(_CHUNK_CELLS)[:, None] + _GAUSS_NODES

    phi0 = np.exp(-1j * ks * x_l)
    phi, dphi = phi0, -1j * ks * phi0
    # deep on the imaginary axis the launch value underflows or phi
    # overflows; the range check below, not a numpy warning, reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_cells, _CHUNK_CELLS):
            u = np.asarray(u_of(x_l + h * (start + cell_nodes)), dtype=float)
            q1, q2, q3 = (u[:, j, None] - ksq for j in range(3))
            p00, p01, p10, p11 = _chunk_propagator(*_magnus_cells(h, q1, q2, q3))
            phi, dphi = p00 * phi + p01 * dphi, p10 * phi + p11 * dphi
        a = 0.5 * (phi + 1j * dphi / ks) * np.exp(1j * ks * x_r)
    lost = ~np.isfinite(a) | (np.abs(phi0) < np.finfo(float).tiny)
    if np.any(lost):
        raise ConvergenceError(
            f"Jost sweep left the floating-point range at k={ks[lost][0]}; "
            "use a narrower window"
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


def bound_states(
    pot: LinePotential,
    k_max: float,
    scan_step: float = 0.05,
    k_min: float = 0.05,
    tol: float = 1e-10,
) -> np.ndarray:
    """Zeros of a(i kappa) for kappa in (0, k_max]: the bound-state wavenumbers.

    a restricted to the imaginary axis is real; one :func:`scattering_a`
    sweep samples it on the scan grid, and Brent's method refines each
    sign change to ``tol``.  A scan sample landing numerically on a zero is
    retried on a slightly widened bracket; if the retry also degenerates
    the search reports failure.
    """
    if k_max <= k_min:
        return np.array([])

    def A(kappa):
        return float(scattering_a(pot, [1j * kappa])[0].real)

    grid = np.arange(k_min, k_max + scan_step / 2.0, scan_step)
    vals = scattering_a(pot, 1j * grid).real
    scale = max(1.0, float(np.max(np.abs(vals))))
    floor = 1e-13 * scale
    for i in np.flatnonzero(np.abs(vals) < floor):
        shifted = min(grid[i] + scan_step / 7.0, k_max)
        grid[i] = shifted
        vals[i] = A(shifted)
        if abs(vals[i]) < floor:
            raise ConvergenceError(
                f"scan sample at kappa={grid[i]:.6g} sits on a zero of a(i kappa) "
                "even after widening; refine scan_step"
            )
    roots = [
        scipy.optimize.brentq(A, grid[i], grid[i + 1], xtol=tol)
        for i in range(len(grid) - 1)
        if vals[i] * vals[i + 1] < 0
    ]
    return np.array(roots)


@dataclass(frozen=True)
class ScatteringData:
    """a(k) sampled on positive real k plus the bound-state wavenumbers,
    and the action variables they determine.

    Construction checks the two structural facts valid for real decaying
    potentials: |a| >= 1 on the real axis (to 1e-8) and |a| -> 1 at the
    largest sample (to 0.1).  It then computes the continuum actions
    n(k) = (2k/pi) ln |a(k)|^2 once, read-only, and rejects n(k) < -1e-10;
    the bound-state actions N_l = k_l^2 are a property.
    """

    k_grid: np.ndarray
    a: np.ndarray
    bound_k: np.ndarray
    n_of_k: np.ndarray = field(init=False)

    def __post_init__(self):
        k_grid = freeze(self, "k_grid", self.k_grid)
        a = freeze(self, "a", self.a, dtype=complex)
        bound_k = freeze(self, "bound_k", self.bound_k)
        if k_grid.ndim != 1 or k_grid.shape != a.shape or k_grid.size < 1:
            raise ValueError("k_grid and a must be matching nonempty 1-d arrays")
        if np.any(k_grid <= 0) or np.any(np.diff(k_grid) <= 0):
            raise ValueError("k_grid must be positive and strictly increasing")
        if np.any(bound_k <= 0):
            raise ValueError("bound-state wavenumbers must be positive")
        mods = np.abs(a)
        if np.min(mods) < 1.0 - 1e-8:
            raise ValueError(
                f"|a| dips to {np.min(mods):.12f} < 1; not a real decaying potential's data"
            )
        if abs(mods[-1] - 1.0) > 0.1:
            raise ValueError(
                f"|a| at the largest sample is {mods[-1]:.6f}, not near its high-k limit 1"
            )
        n_of_k = freeze(self, "n_of_k", (2.0 * k_grid / np.pi) * np.log(np.abs(a) ** 2))
        if np.any(n_of_k < -1e-10):
            raise ValueError(f"n(k) dips to {np.min(n_of_k):.3e}; |a| >= 1 must have failed")

    @property
    def N_l(self) -> np.ndarray:
        return self.bound_k**2


def scattering_data(
    pot: LinePotential,
    k_grid,
    k_max_bound: float = 3.0,
) -> ScatteringData:
    """Sample a(k) on the given positive grid and locate the bound states."""
    k_grid = np.asarray(k_grid, dtype=float)
    return ScatteringData(k_grid, scattering_a(pot, k_grid), bound_states(pot, k_max_bound))


def hamiltonian_from_actions(sd: ScatteringData, tail_tol: float = 0.01) -> float:
    """H = -(32/5) sum_l N_l^(5/2) + 8 int k^3 n(k) dk from the action
    variables of ``sd``.

    The integral runs over the sampled k range by trapezoid; the
    contribution of the upper half of the range estimates the unconverged
    tail and triggers a warning when it is not small against the total.
    """
    discrete = -6.4 * float(np.sum(np.sort(sd.N_l) ** 2.5))
    if sd.k_grid.size >= 2:
        integrand = sd.k_grid**3 * sd.n_of_k
        integral = 8.0 * float(np.trapezoid(integrand, sd.k_grid))
        half = sd.k_grid.size // 2
        tail = 8.0 * abs(float(np.trapezoid(integrand[half:], sd.k_grid[half:])))
        total = discrete + integral
        if tail > max(1e-6, tail_tol * abs(total)):
            warnings.warn(
                f"upper-half k-range contributes {tail:.3e} to the action integral; "
                "extend the k grid",
                stacklevel=2,
            )
        return total
    return discrete
