"""Finite vibrating string on [0, 2*pi] with Dirichlet ends.

The displacement field decomposes over sine modes; each mode is an
independent unit-mass harmonic oscillator with frequency n, and the family
of mode energies

    f_n(q, p) = (p_n**2 + n**2 q_n**2) / 2,   q_n = a_n,  p_n = a'_n

is a complete involutive set of first integrals at any truncation, as long
as every p_n is nonzero at the evaluation point.  A mode state is a
:class:`~hamlab.canonical.CanonicalState` with q = a_n and p = a'_n, the
sine-mode coefficients and their velocities.  This module supplies the
sine-mode transform and its inverse, the mode/field energy functionals, the
exact rotation evolution, the separated Hamilton-Jacobi action and the
trajectory it generates, plus packaged observables for the completeness
machinery in :mod:`hamlab.canonical`.

Normalization notes (both quantities are exposed on purpose):
 - ``field_energy_integral`` evaluates
   n**2/2*(int u sin(nx) dx)**2 + 1/2*(int u_t sin(nx) dx)**2,
   which equals pi**2 times ``mode_energies`` because int sin(nx)**2 dx = pi
   on [0, 2*pi].
 - The field Hamiltonian int (u_t**2 + u_x**2)/2 dx equals pi times the
   mode-sum Hamiltonian for the same reason.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._frozen import finite, freeze
from .canonical import CanonicalState, Observable, ObservableSet
from .errors import DomainExitError, ResolutionError

LENGTH = 2.0 * np.pi
DEFAULT_GRID_M = 256


def string_grid(M: int) -> np.ndarray:
    """Uniform grid of M+1 points covering [0, 2*pi] inclusive."""
    if M < 2:
        raise ValueError("grid needs M >= 2 intervals")
    return np.linspace(0.0, LENGTH, M + 1)


@dataclass(frozen=True)
class StringField:
    """Displacement/velocity samples on ``grid``, the M+1 points
    ``string_grid(M)`` covering [0, 2*pi].

    Endpoint samples must vanish (Dirichlet); values within round-off of
    zero are snapped to exact zeros so the invariant is literal.
    """

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        u = freeze(self, "u", self.u)
        v = freeze(self, "v", self.v)
        if u.shape != v.shape or u.ndim != 1 or u.size < 3:
            raise ValueError("u and v must be 1-d arrays of equal length >= 3")
        for name, w in (("u", u), ("v", v)):
            scale = max(1.0, float(np.max(np.abs(w))))
            if abs(w[0]) > 1e-9 * scale or abs(w[-1]) > 1e-9 * scale:
                raise ValueError(f"{name} violates the Dirichlet condition at the ends")
            freeze(self, name, np.concatenate(([0.0], w[1:-1], [0.0])))
        finite(self, "t", self.t)

    @property
    def M(self) -> int:
        return self.u.size - 1

    @property
    def grid(self) -> np.ndarray:
        return string_grid(self.M)


def sample_field(
    u_fn: Callable[[np.ndarray], np.ndarray],
    v_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    M: int = DEFAULT_GRID_M,
    t: float = 0.0,
) -> StringField:
    """Sample callables on the uniform grid into a StringField."""
    x = string_grid(M)
    v = np.zeros_like(x) if v_fn is None else v_fn(x)
    return StringField(u_fn(x), v, t)


@dataclass(frozen=True)
class SeparationData:
    """Separation constants of the mode-wise Hamilton-Jacobi split.

    E[n-1] is twice the energy of mode n.
    """

    E: np.ndarray

    def __post_init__(self):
        E = freeze(self, "E", self.E)
        if E.ndim != 1 or E.size < 1:
            raise ValueError("E must be a nonempty vector")
        if np.any(E < 0):
            raise ValueError("separation constants must be nonnegative")

    @property
    def n_modes(self) -> int:
        return self.E.size


def _sine_coefficients(samples: np.ndarray, grid: np.ndarray, N: int) -> np.ndarray:
    """(1/pi) * int w sin(n x) dx for n = 1..N by composite trapezoid.

    The integrand vanishes at both ends, so the trapezoid rule reduces to a
    plain interior sum; it is exact for fields band-limited below the grid
    Nyquist mode n = M/2.  sin(M x / 2) vanishes at every grid point, so N
    modes need M > 2N intervals.
    """
    M = grid.size - 1
    h = LENGTH / M
    x = grid[1:-1]
    w = samples[1:-1]
    out = np.empty(N)
    for n in range(1, N + 1):
        out[n - 1] = (h / np.pi) * float(np.dot(w, np.sin(n * x)))
    return out


def sine_modes(f: StringField, N: int) -> CanonicalState:
    """Project a field onto its first N sine modes: (q, p) = (a_n, a'_n)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if f.M <= 2 * N:
        raise ResolutionError(
            f"grid with M={f.M} intervals cannot resolve N={N} modes (need M > 2N)"
        )
    x = f.grid
    a = _sine_coefficients(f.u, x, N)
    adot = _sine_coefficients(f.v, x, N)
    return CanonicalState(a, adot, f.t)


def reconstruct_field(m: CanonicalState, M: int = DEFAULT_GRID_M) -> StringField:
    """Synthesize u = sum a_n sin(nx), v = sum a'_n sin(nx) on an M-grid."""
    if M <= 2 * m.dim:
        raise ResolutionError(
            f"grid with M={M} intervals cannot carry N={m.dim} modes (need M > 2N)"
        )
    x = string_grid(M)
    u = np.zeros_like(x)
    v = np.zeros_like(x)
    for n in range(1, m.dim + 1):
        s = np.sin(n * x)
        u += m.q[n - 1] * s
        v += m.p[n - 1] * s
    return StringField(u, v, m.t)


def mode_energies(m: CanonicalState) -> np.ndarray:
    """Energy of every mode n = 1..N: (adot_n**2 + n**2 a_n**2) / 2."""
    n = np.arange(1, m.dim + 1)
    # pow(), as in the mode-energy observables: ** squares by multiplying,
    # which differs from pow() in the last bit for ~1 double in 1000
    return 0.5 * (np.float_power(m.p, 2) + np.float_power(n * m.q, 2))


def field_energy_integral(f: StringField, n: int) -> float:
    """First integral of the field as printed: uses bare sine integrals.

    Returns n**2/2 * (int u sin(nx) dx)**2 + 1/2 * (int v sin(nx) dx)**2,
    which is pi**2 times mode_energies(m)[n - 1].
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if f.M <= 2 * n:
        raise ResolutionError(f"grid with M={f.M} intervals cannot resolve mode n={n}")
    x = f.grid
    iu = np.pi * _sine_coefficients(f.u, x, n)[-1]
    iv = np.pi * _sine_coefficients(f.v, x, n)[-1]
    return 0.5 * (n * iu) ** 2 + 0.5 * iv**2


def field_derivative(f: StringField) -> np.ndarray:
    """du/dx on the grid via sine-series differentiation.

    Exact for fields band-limited below the grid Nyquist mode, which is the
    regime every consumer of this module works in.
    """
    N = f.M // 2
    x = f.grid
    a = _sine_coefficients(f.u, x, N)
    du = np.zeros_like(x)
    for n in range(1, N + 1):
        du += n * a[n - 1] * np.cos(n * x)
    return du


def field_hamiltonian(f: StringField) -> float:
    """Field energy int (v**2 + u_x**2)/2 dx by trapezoid quadrature.

    Equals pi times string_hamiltonian(N) at sine_modes(f, N) for fields
    band-limited to N modes.
    """
    ux = field_derivative(f)
    return float(np.trapezoid(0.5 * (f.v**2 + ux**2), f.grid))


def exact_mode_evolution(m: CanonicalState, t1: float) -> CanonicalState:
    """Rotate each mode by its own frequency: the exact flow.

    a_n(t1) = a_n cos(n dt) + (a'_n / n) sin(n dt), and the matching
    derivative; every mode energy is invariant exactly.
    """
    dt = t1 - m.t
    n = np.arange(1, m.dim + 1, dtype=float)
    c = np.cos(n * dt)
    s = np.sin(n * dt)
    a = m.q * c + (m.p / n) * s
    adot = -n * m.q * s + m.p * c
    return CanonicalState(a, adot, t1)


def hj_action(n: int, a: float, E_n: float) -> float:
    """Separated action S_n(a) with S_n(0) = 0.

    S_n(a) = (a/2) sqrt(E_n - n**2 a**2) + (E_n / 2n) arcsin(n a / sqrt(E_n));
    dS_n/da = sqrt(E_n - n**2 a**2).  Valid in the classically allowed
    region |a| <= sqrt(E_n)/n.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if E_n < 0:
        raise ValueError("E_n must be nonnegative")
    if E_n == 0.0:
        if a != 0.0:
            raise DomainExitError(f"a={a} outside allowed region for E_n=0")
        return 0.0
    z = n * a / math.sqrt(E_n)
    if abs(z) > 1.0 + 1e-12:
        raise DomainExitError(
            f"a={a} beyond the turning point sqrt(E_n)/n={math.sqrt(E_n) / n:.6g}"
        )
    z = min(1.0, max(-1.0, z))
    discr = max(E_n - (n * a) ** 2, 0.0)
    return 0.5 * a * math.sqrt(discr) + (E_n / (2.0 * n)) * math.asin(z)


def separation_constants(m: CanonicalState) -> SeparationData:
    """E_n = 2 * f_n from a mode state."""
    return SeparationData(2.0 * mode_energies(m))


def hj_trajectory(sep: SeparationData, beta) -> Callable[[float], CanonicalState]:
    """Trajectory generated by the separated action via beta_n = dS/dE_n.

    Differentiating S = -E t + sum_n S_n with E = sum_n E_n / 2 gives
    beta_n = -t/2 + arcsin(n a_n / sqrt(E_n)) / (2n), which inverts to the
    amplitude-phase form

        a_n(t) = (sqrt(E_n)/n) sin(n t + 2 n beta_n).

    Zero-energy modes are stationary; requesting them only triggers a
    warning and they stay identically zero.
    """
    beta = np.array(beta, dtype=float)
    if beta.shape != (sep.n_modes,):
        raise ValueError(f"beta must have length {sep.n_modes}")
    n = np.arange(1, sep.n_modes + 1, dtype=float)
    amp = np.sqrt(sep.E) / n
    if np.any(sep.E == 0):
        dead = [int(k + 1) for k in np.flatnonzero(sep.E == 0)]
        warnings.warn(f"zero-energy modes {dead} are stationary and stay zero", stacklevel=2)
    phase0 = 2.0 * n * beta

    def at(t: float) -> CanonicalState:
        phi = n * t + phase0
        a = amp * np.sin(phi)
        adot = np.sqrt(sep.E) * np.cos(phi)
        return CanonicalState(a, adot, t)

    return at


def beta_for_state(m: CanonicalState) -> np.ndarray:
    """Phase constants beta that make hj_trajectory pass through m at m.t.

    Zero-energy modes get beta = 0 (any value works; they are stationary).
    """
    sep = separation_constants(m)
    n = np.arange(1, m.dim + 1, dtype=float)
    beta = np.zeros(m.dim)
    for k in range(m.dim):
        if sep.E[k] == 0:
            continue
        phi = math.atan2(n[k] * m.q[k], m.p[k])
        beta[k] = (phi - n[k] * m.t) / (2.0 * n[k])
    return beta


def string_observable_set(N: int) -> ObservableSet:
    """Mode energies f_n as observables over (q, p) = (a, a').

    Analytic gradients are attached: grad_q f_n = n**2 q_n e_n and
    grad_p f_n = p_n e_n.
    """
    if N < 1:
        raise ValueError("N must be >= 1")

    def make(n):
        def fn(q: np.ndarray, p: np.ndarray) -> float:
            return 0.5 * (p[n - 1] ** 2 + (n * q[n - 1]) ** 2)

        def gq(q: np.ndarray, p: np.ndarray) -> np.ndarray:
            g = np.zeros(q.size)
            g[n - 1] = n**2 * q[n - 1]
            return g

        def gp(q: np.ndarray, p: np.ndarray) -> np.ndarray:
            g = np.zeros(p.size)
            g[n - 1] = p[n - 1]
            return g

        return Observable(f"mode_energy_{n}", fn, grad_q=gq, grad_p=gp)

    return ObservableSet([make(n) for n in range(1, N + 1)])


def string_hamiltonian(N: int) -> Observable:
    """Separable Hamiltonian of the first N modes, with analytic gradients."""
    if N < 1:
        raise ValueError("N must be >= 1")
    n2 = np.arange(1, N + 1, dtype=float) ** 2

    return Observable(
        "hamiltonian",
        lambda q, p: 0.5 * float(np.dot(p, p) + np.dot(n2 * q, q)),
        grad_q=lambda q, p: n2 * q,
        grad_p=lambda q, p: p,
    )
