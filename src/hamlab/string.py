"""Finite vibrating string on [0, 2*pi] with Dirichlet ends, in mode space.

The displacement field decomposes over sine modes; each mode is an
independent unit-mass harmonic oscillator with frequency n, and the family
of mode energies

    f_n(q, p) = (p_n**2 + n**2 q_n**2) / 2,   q_n = a_n,  p_n = a'_n

is a complete involutive set of first integrals at any truncation, as long
as every p_n is nonzero at the evaluation point.  A mode state is a
:class:`~hamlab.canonical.CanonicalState` with q = a_n and p = a'_n, the
sine-mode coefficients and their velocities.  This module supplies the
mode energies as observables for the completeness machinery in
:mod:`hamlab.canonical`, the exact rotation evolution, the separated
Hamilton-Jacobi action, and the trajectory generated by the separation
constants, which are plain arrays computed from the mode energies' own
values.

The two flows, :func:`exact_mode_evolution` and the trajectory of
:func:`hj_trajectory`, take a time or an array of times and return plain
(q, p) arrays of shape ``np.shape(t) + (N,)``: one row per time, one
column per mode.  A caller that needs a state wraps a row, as in
``CanonicalState(*exact_mode_evolution(m, t), t)``.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .canonical import CanonicalState, Observable, ObservableSet
from .errors import DomainExitError


def _mode_axis(t) -> np.ndarray:
    """Times ``t`` with a trailing mode axis, or a ValueError when one is
    not finite."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("t entries must be finite")
    return t[..., None]


def _finite(q: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a flow past the range of a double fails as a state with such entries would
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValueError("q and p entries must be finite")
    return q, p


def exact_mode_evolution(m: CanonicalState, t) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each mode by its own frequency: the exact flow from m to t.

    a_n(t) = a_n cos(n dt) + (a'_n / n) sin(n dt), dt = t - m.t, and the
    matching derivative; every mode energy is invariant exactly.  ``t`` is
    a time or an array of times; the returned (a, a') arrays have shape
    ``np.shape(t) + (N,)``, and row i is bit-equal to the call at t[i].
    A non-finite time, or a result past the range of a double, raises
    ValueError.
    """
    dt = _mode_axis(t) - m.t
    n = np.arange(1, m.dim + 1, dtype=float)
    c = np.cos(n * dt)
    s = np.sin(n * dt)
    return _finite(m.q * c + (m.p / n) * s, -n * m.q * s + m.p * c)


def hj_action(n: int, a: float, E_n: float) -> float:
    """Separated action S_n(a) with S_n(0) = 0.

    S_n(a) = (a/2) sqrt(E_n - n**2 a**2) + (E_n / 2n) arcsin(n a / sqrt(E_n));
    dS_n/da = sqrt(E_n - n**2 a**2).  Valid in the classically allowed
    region |a| <= sqrt(E_n)/n.
    """
    if n < 1:
        raise ValueError("mode index must be >= 1")
    if not 0 <= E_n < math.inf:
        raise ValueError(f"E_n must be nonnegative and finite, got {E_n}")
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
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


def hj_constants(m: CanonicalState) -> tuple[np.ndarray, np.ndarray]:
    """Separation constants E and phases beta of the trajectory through m.

    E_n = 2 f_n, twice the value of the mode-energy integral f_n at m, and
    beta makes hj_trajectory(E, beta) pass through m at m.t.  Zero-energy
    modes get beta = 0 (any value works; they are stationary).
    """
    E = 2.0 * string_observable_set(m.dim).evaluate(m)
    beta = np.zeros(m.dim)
    for k in np.flatnonzero(E):
        n = k + 1.0
        beta[k] = (math.atan2(n * m.q[k], m.p[k]) - n * m.t) / (2.0 * n)
    return E, beta


def hj_trajectory(E, beta) -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """Trajectory generated by the separated action via beta_n = dS/dE_n.

    Differentiating S = -E t + sum_n S_n with E = sum_n E_n / 2 gives
    beta_n = -t/2 + arcsin(n a_n / sqrt(E_n)) / (2n), which inverts to the
    amplitude-phase form

        a_n(t) = (sqrt(E_n)/n) sin(n t + 2 n beta_n).

    The returned trajectory takes a time or an array of times and returns
    (a, a') arrays shaped like :func:`exact_mode_evolution`'s, under the
    same ValueError rules.  E and beta are copied, so the trajectory does
    not follow later changes to the caller's arrays.  Zero-energy modes
    are stationary; requesting them only triggers a warning and they stay
    identically zero.
    """
    E = np.array(E, dtype=float)
    beta = np.array(beta, dtype=float)
    if E.ndim != 1 or E.size < 1:
        raise ValueError("E must be a nonempty vector")
    if beta.shape != E.shape:
        raise ValueError(f"beta must have length {E.size}")
    if not (np.isfinite(E).all() and np.isfinite(beta).all()):
        raise ValueError("E and beta entries must be finite")
    if np.any(E < 0):
        raise ValueError("separation constants must be nonnegative")
    n = np.arange(1, E.size + 1, dtype=float)
    root = np.sqrt(E)
    amp = root / n
    if np.any(E == 0):
        dead = [int(k + 1) for k in np.flatnonzero(E == 0)]
        warnings.warn(f"zero-energy modes {dead} are stationary and stay zero", stacklevel=2)
    phase0 = 2.0 * n * beta

    def at(t) -> tuple[np.ndarray, np.ndarray]:
        phi = n * _mode_axis(t) + phase0
        return _finite(amp * np.sin(phi), root * np.cos(phi))

    return at


def string_observable_set(N: int) -> ObservableSet:
    """Mode energies f_n as observables over (q, p) = (a, a').

    The family is one array expression, 0.5 (p**2 + (n q)**2) over the N
    modes, and the set-level operations evaluate it once per state; each
    member's ``fn`` returns its entry, so every energy has one formula.
    Analytic gradients are attached: grad_q f_n = n**2 q_n e_n and
    grad_p f_n = p_n e_n.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    modes = np.arange(1, N + 1, dtype=float)

    def values(q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return 0.5 * (p**2 + (modes * q) ** 2)

    def make(n):
        def fn(q: np.ndarray, p: np.ndarray) -> float:
            return values(q, p)[n - 1]

        def gq(q: np.ndarray, p: np.ndarray) -> np.ndarray:
            g = np.zeros(q.size)
            g[n - 1] = n**2 * q[n - 1]
            return g

        def gp(q: np.ndarray, p: np.ndarray) -> np.ndarray:
            g = np.zeros(p.size)
            g[n - 1] = p[n - 1]
            return g

        return Observable(f"mode_energy_{n}", fn, grad_q=gq, grad_p=gp)

    return ObservableSet([make(n) for n in range(1, N + 1)], values)


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
