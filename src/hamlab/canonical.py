"""Truncated canonical phase space.

States live in a finite truncation of a countably-infinite canonical system:
``N`` coordinate/momentum pairs plus time.  On top of that this module
provides

 - finite-difference Poisson brackets and involution matrices, which
   differentiate each observable once per call,
 - the completeness diagnostic for a family of first integrals: the Jacobian
   of the integrals with respect to the momenta, its singular values, and a
   numerical-rank verdict ("complete at truncation N"),
 - recovery of the momenta from given integral values by damped Newton
   iteration on that Jacobian,
 - symplectic time stepping (Stormer-Verlet for separable Hamiltonians,
   implicit midpoint otherwise) and conserved-quantity drift monitoring.

Every operation is a pure function of its inputs, so everything here is
safe to call from concurrent workers.  Reductions run in index order,
which keeps results bitwise deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._frozen import freeze
from .errors import (
    CompletenessError,
    ConvergenceError,
    DivergenceError,
    EvaluationError,
)

# Central differences with this step balance O(h^2) truncation against
# round-off on unit-scaled states.
DEFAULT_FD_STEP = 1e-5

# Relative singular-value cutoff for the numerical rank of the completeness
# Jacobian.
DEFAULT_RANK_TOL = 1e-8

_NEWTON_MAX_HALVINGS = 30


@dataclass(frozen=True)
class CanonicalState:
    """A point of the truncated phase space: (q, p) pairs at time t.

    Parameters
    ----------
    q, p : array_like
        Generalized coordinates and conjugate momenta, equal length ``N >= 1``.
    t : float
        Time.
    """

    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        q = freeze(self, "q", self.q)
        p = freeze(self, "p", self.p)
        if q.ndim != 1 or p.ndim != 1:
            raise ValueError(f"q and p must be 1-d vectors, got shapes {q.shape}, {p.shape}")
        if q.size != p.size:
            raise ValueError(f"len(q)={q.size} != len(p)={p.size}")
        if q.size < 1:
            raise ValueError("state dimension must be >= 1")
        if not math.isfinite(self.t):
            raise ValueError("t must be finite")
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return self.q.size

    def replace(self, q=None, p=None, t=None) -> "CanonicalState":
        return CanonicalState(
            self.q if q is None else q,
            self.p if p is None else p,
            self.t if t is None else t,
        )


@dataclass(frozen=True)
class Observable:
    """A named real-valued functional of a :class:`CanonicalState`.

    ``grad_q``/``grad_p`` are optional analytic gradients (state -> vector);
    when absent, operations fall back to central differences.
    """

    name: str
    fn: Callable[[CanonicalState], float]
    grad_q: Optional[Callable[[CanonicalState], np.ndarray]] = None
    grad_p: Optional[Callable[[CanonicalState], np.ndarray]] = None


def _as_observable(f) -> Observable:
    if isinstance(f, Observable):
        return f
    name = getattr(f, "__name__", "<callable>")
    return Observable(name, f)


@dataclass(frozen=True)
class ObservableSet:
    """An ordered family of first-integral candidates with distinct names."""

    observables: Sequence[Observable]

    def __post_init__(self):
        obs = tuple(_as_observable(f) for f in self.observables)
        names = [o.name for o in obs]
        if len(set(names)) != len(names):
            raise ValueError(f"observable names must be distinct, got {names}")
        object.__setattr__(self, "observables", obs)

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    @property
    def names(self):
        return [o.name for o in self.observables]

    def evaluate(self, s: CanonicalState) -> np.ndarray:
        """Evaluate all observables at ``s`` in index order."""
        out = np.empty(len(self.observables))
        for i, o in enumerate(self.observables):
            out[i] = _checked_eval(o, s)
        return out

    def without(self, *names: str) -> "ObservableSet":
        """Drop the named observables (used for incompleteness demos)."""
        missing = set(names) - set(self.names)
        if missing:
            raise ValueError(f"unknown observable(s): {sorted(missing)}")
        kept = [o for o in self.observables if o.name not in names]
        return ObservableSet(kept)


@dataclass(frozen=True)
class HamiltonianSystem:
    """A Hamiltonian plus its phase-space gradients.

    When analytic gradients are not given they are generated by central
    differences with step ``fd_step``.  ``separable`` declares H = T(p) +
    V(q, t), which enables the explicit Stormer-Verlet step; non-separable
    systems are integrated by implicit midpoint.
    """

    dim: int
    hamiltonian: Callable[[CanonicalState], float]
    grad_q: Optional[Callable[[CanonicalState], np.ndarray]] = None
    grad_p: Optional[Callable[[CanonicalState], np.ndarray]] = None
    separable: bool = True
    fd_step: float = DEFAULT_FD_STEP

    def energy(self, s: CanonicalState) -> float:
        return float(self.hamiltonian(s))

    def dH_dq(self, s: CanonicalState) -> np.ndarray:
        if self.grad_q is not None:
            g = np.asarray(self.grad_q(s), dtype=float)
        else:
            g = _fd_gradient(self.hamiltonian, s, self.fd_step, wrt="q")
        if g.size != self.dim:
            raise ValueError(f"grad_q returned length {g.size}, expected {self.dim}")
        return g

    def dH_dp(self, s: CanonicalState) -> np.ndarray:
        if self.grad_p is not None:
            g = np.asarray(self.grad_p(s), dtype=float)
        else:
            g = _fd_gradient(self.hamiltonian, s, self.fd_step, wrt="p")
        if g.size != self.dim:
            raise ValueError(f"grad_p returned length {g.size}, expected {self.dim}")
        return g

    def check_gradients(self, s: CanonicalState, tol: float = 1e-6) -> float:
        """Max abs difference between analytic and finite-difference gradients.

        Raises ``ValueError`` when both are supplied and disagree beyond tol.
        """
        worst = 0.0
        if self.grad_q is not None:
            fd = _fd_gradient(self.hamiltonian, s, self.fd_step, wrt="q")
            worst = max(worst, float(np.max(np.abs(fd - self.dH_dq(s)))))
        if self.grad_p is not None:
            fd = _fd_gradient(self.hamiltonian, s, self.fd_step, wrt="p")
            worst = max(worst, float(np.max(np.abs(fd - self.dH_dp(s)))))
        if worst > tol:
            raise ValueError(
                f"analytic and finite-difference gradients disagree: {worst:.3e} > {tol:.3e}"
            )
        return worst


@dataclass(frozen=True)
class Trajectory:
    """Recorded states at strictly increasing times."""

    times: np.ndarray
    states: Sequence[CanonicalState]

    def __post_init__(self):
        t = freeze(self, "times", self.times)
        if t.ndim != 1:
            raise ValueError(f"times must be a 1-d vector, got shape {t.shape}")
        states = tuple(self.states)
        if t.size != len(states):
            raise ValueError("times and states must have equal length")
        if t.size == 0:
            raise ValueError("trajectory must contain at least one state")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        dims = {s.dim for s in states}
        if len(dims) > 1:
            raise ValueError(f"states have mixed dimensions: {sorted(dims)}")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CompletenessReport:
    """Diagnostics of the momentum Jacobian of an observable family.

    ``complete`` is a pointwise verdict at the evaluation state and at the
    truncation dimension; rank deficiency at a single state (e.g. a momentum
    passing through zero) means "not complete at this point", not a global
    statement about the family.
    """

    jacobian: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    min_singular: float
    complete: bool
    rank_tol: float

    def __post_init__(self):
        freeze(self, "jacobian", self.jacobian)
        freeze(self, "singular_values", self.singular_values)


def _checked_eval(obs: Observable, s: CanonicalState) -> float:
    v = obs.fn(s)
    v = float(v)
    if not math.isfinite(v):
        raise EvaluationError(obs.name, f"at t={s.t:.6g}")
    return v


def _fd_gradient(fn, s: CanonicalState, h: float, wrt: str) -> np.ndarray:
    """Central-difference gradient of ``fn`` with respect to q or p."""
    base = s.q if wrt == "q" else s.p
    g = np.empty(base.size)
    for k in range(base.size):
        plus = base.copy()
        minus = base.copy()
        plus[k] += h
        minus[k] -= h
        if wrt == "q":
            fp = fn(s.replace(q=plus))
            fm = fn(s.replace(q=minus))
        else:
            fp = fn(s.replace(p=plus))
            fm = fn(s.replace(p=minus))
        g[k] = (float(fp) - float(fm)) / (2.0 * h)
    return g


def _observable_gradient(obs: Observable, s: CanonicalState, h: float, wrt: str) -> np.ndarray:
    try:
        g = _fd_gradient(obs.fn, s, h, wrt)
    except EvaluationError:
        raise
    except (OverflowError, FloatingPointError) as exc:
        raise EvaluationError(obs.name, str(exc)) from exc
    if not np.all(np.isfinite(g)):
        raise EvaluationError(obs.name, f"non-finite {wrt}-gradient in the stencil")
    return g


def _gradients(observables: Sequence[Observable], s: CanonicalState, h: float, wrt: str) -> np.ndarray:
    """Central-difference gradients with respect to q or p, one row per
    observable: the one gradient path of the bracket, the involution matrix
    and the completeness Jacobian."""
    if h <= 0:
        raise ValueError("fd step h must be positive")
    G = np.empty((len(observables), s.dim))
    for i, o in enumerate(observables):
        G[i, :] = _observable_gradient(o, s, h, wrt)
    return G


def poisson_bracket(f, g, s: CanonicalState, h: float = DEFAULT_FD_STEP) -> float:
    """Poisson bracket [f, g] at ``s`` via central-difference gradients.

    Returns sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k).  The combination of a
    fixed index-ordered dot product with an IEEE subtraction makes the result
    exactly antisymmetric under swapping f and g.
    """
    pair = (_as_observable(f), _as_observable(g))
    fq, gq = _gradients(pair, s, h, "q")
    fp, gp = _gradients(pair, s, h, "p")
    return float(np.dot(fq, gp) - np.dot(fp, gq))


def poisson_bracket_analytic(f: Observable, g: Observable, s: CanonicalState) -> float:
    """Poisson bracket using the observables' analytic gradients."""
    for o in (f, g):
        if o.grad_q is None or o.grad_p is None:
            raise ValueError(f"observable '{o.name}' has no analytic gradients")
    fq = np.asarray(f.grad_q(s), dtype=float)
    fp = np.asarray(f.grad_p(s), dtype=float)
    gq = np.asarray(g.grad_q(s), dtype=float)
    gp = np.asarray(g.grad_p(s), dtype=float)
    return float(np.dot(fq, gp) - np.dot(fp, gq))


def involution_matrix(obs: ObservableSet, s: CanonicalState, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Matrix of pairwise Poisson brackets B[i, j] = [f_i, f_j].

    Each observable is differentiated once.  Each unordered pair takes the
    same index-ordered dot products as :func:`poisson_bracket` (so B[i, j]
    equals it bit for bit) and is negated for the transpose entry, so B is
    exactly antisymmetric with a zero diagonal.
    """
    Q = _gradients(obs.observables, s, h, "q")
    P = _gradients(obs.observables, s, h, "p")
    n = len(obs)
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b = float(np.dot(Q[i], P[j]) - np.dot(P[i], Q[j]))
            B[i, j] = b
            B[j, i] = -b
    return B


def completeness_jacobian(obs: ObservableSet, s: CanonicalState, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Jacobian J[i, j] = d f_i / d p_j at ``s`` by central differences."""
    return _gradients(obs.observables, s, h, "p")


def completeness_report(J: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> CompletenessReport:
    """Singular-value diagnostics and the completeness verdict for J.

    The family counts as complete (at this truncation, at this state) when
    there are at least as many observables as momenta and the numerical rank
    equals the momentum dimension.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.size == 0:
        raise ValueError(f"jacobian must be a nonempty 2-d matrix, got shape {J.shape}")
    sigma = np.linalg.svd(J, compute_uv=False)
    smax = sigma[0] if sigma.size else 0.0
    rank = int(np.count_nonzero(sigma > rank_tol * smax)) if smax > 0 else 0
    n_obs, dim = J.shape
    return CompletenessReport(
        jacobian=J,
        singular_values=sigma,
        numerical_rank=rank,
        min_singular=float(sigma[-1]) if sigma.size else 0.0,
        complete=bool(n_obs >= dim and rank == dim),
        rank_tol=float(rank_tol),
    )


def recover_momenta(
    obs: ObservableSet,
    alpha,
    q,
    p_guess,
    tol: float = 1e-12,
    max_iter: int = 50,
    h: float = DEFAULT_FD_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
    t: float = 0.0,
    full_output: bool = False,
):
    """Solve f_i(q, p) = alpha_i for the momenta by damped Newton iteration.

    The Newton matrix is the completeness Jacobian; a rank-deficient
    Jacobian at any iterate raises :class:`CompletenessError` carrying the
    offending report.  On a residual increase the step is halved (up to 30
    times) before the iteration counts as diverged.  The quadratic integral
    families this is used on have sign ambiguities, so branch selection is
    the caller's job via ``p_guess``.

    Returns the recovered momentum vector; with ``full_output=True`` returns
    ``(p, info)`` where info records iterations and the final residual.
    """
    alpha = np.array(alpha, dtype=float)
    if alpha.shape != (len(obs),):
        raise ValueError(f"alpha must hold one value per observable, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    guess = CanonicalState(q, p_guess, t)
    q, p = guess.q, guess.p.copy()
    if len(obs) < q.size:
        # Fewer integrals than momenta can never pin p down; report it as an
        # incompleteness with the (rectangular) Jacobian at the guess.
        J = completeness_jacobian(obs, guess, h)
        raise CompletenessError(
            completeness_report(J, rank_tol),
            f"{len(obs)} observables cannot determine {q.size} momenta",
        )

    def residual(pv):
        return obs.evaluate(CanonicalState(q, pv, t)) - alpha

    r = residual(p)
    rnorm = float(np.max(np.abs(r)))
    iterations = 0
    while rnorm >= tol:
        if iterations >= max_iter:
            raise DivergenceError(rnorm, iterations)
        state = CanonicalState(q, p, t)
        J = completeness_jacobian(obs, state, h)
        report = completeness_report(J, rank_tol)
        if not report.complete:
            raise CompletenessError(report, f"singular Jacobian at iteration {iterations}")
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        # Damping: halve on residual increase; the quadratic systems here
        # are well behaved once the guess is on the right branch.
        lam = 1.0
        for _ in range(_NEWTON_MAX_HALVINGS):
            p_new = p + lam * step
            r_new = residual(p_new)
            rnorm_new = float(np.max(np.abs(r_new)))
            if rnorm_new < rnorm:
                break
            lam *= 0.5
        else:
            raise DivergenceError(rnorm, iterations)
        p, r, rnorm = p_new, r_new, rnorm_new
        iterations += 1
    if full_output:
        return p, {"iterations": iterations, "residual": rnorm}
    return p


def symplectic_step(sys: HamiltonianSystem, s: CanonicalState, dt: float) -> CanonicalState:
    """One second-order symplectic step of Hamilton's equations.

    Separable systems use the Stormer-Verlet (kick-drift-kick) scheme;
    systems flagged non-separable fall back to implicit midpoint solved by
    fixed-point iteration.
    """
    if dt == 0 or not math.isfinite(dt):
        raise ValueError("dt must be nonzero and finite")
    if sys.separable:
        half = 0.5 * dt
        p_half = s.p - half * sys.dH_dq(s)
        mid = s.replace(p=p_half)
        q_new = s.q + dt * sys.dH_dp(mid)
        end = CanonicalState(q_new, p_half, s.t + dt)
        p_new = p_half - half * sys.dH_dq(end)
        return CanonicalState(q_new, p_new, s.t + dt)
    return _implicit_midpoint_step(sys, s, dt)


def _implicit_midpoint_step(
    sys: HamiltonianSystem, s: CanonicalState, dt: float, tol: float = 1e-13, max_iter: int = 100
) -> CanonicalState:
    t_mid = s.t + 0.5 * dt
    q_new, p_new = s.q.copy(), s.p.copy()
    for _ in range(max_iter):
        mid = CanonicalState(0.5 * (s.q + q_new), 0.5 * (s.p + p_new), t_mid)
        q_next = s.q + dt * sys.dH_dp(mid)
        p_next = s.p - dt * sys.dH_dq(mid)
        delta = max(np.max(np.abs(q_next - q_new)), np.max(np.abs(p_next - p_new)))
        q_new, p_new = q_next, p_next
        if delta < tol:
            return CanonicalState(q_new, p_new, s.t + dt)
    raise ConvergenceError(
        f"implicit midpoint fixed point did not converge (dt={dt:.3e}, last delta={delta:.3e})"
    )


def evolve(
    sys: HamiltonianSystem,
    s: CanonicalState,
    dt: float,
    n_steps: int,
    record_stride: int = 1,
) -> Trajectory:
    """Apply ``n_steps`` symplectic steps, recording every ``record_stride``-th
    state (the initial and final states are always recorded)."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    times = [s.t]
    states = [s]
    cur = s
    for k in range(1, n_steps + 1):
        cur = symplectic_step(sys, cur, dt)
        if k % record_stride == 0 or k == n_steps:
            times.append(cur.t)
            states.append(cur)
    return Trajectory(np.array(times), states)


def conservation_drift(obs: ObservableSet, traj: Trajectory, floor: float = 1.0) -> np.ndarray:
    """Per-observable max drift along a trajectory.

    drift_i = max_t |f_i(s(t)) - f_i(s(0))| / max(|f_i(s(0))|, floor).
    The floor keeps near-zero integrals from reporting huge relative drift;
    with the default floor of 1 the measure is relative for O(1) integrals
    and absolute below that.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    values = np.empty((len(traj), len(obs)))
    for k, state in enumerate(traj.states):
        values[k, :] = obs.evaluate(state)
    ref = values[0, :]
    denom = np.maximum(np.abs(ref), floor)
    return np.max(np.abs(values - ref[None, :]), axis=0) / denom
