"""Truncated canonical phase space.

States live in a finite truncation of a countably-infinite canonical system:
``N`` coordinate/momentum pairs plus time.  On top of that this module
provides

 - finite-difference Poisson brackets and involution matrices, which
   evaluate a family once per perturbed state and differentiate each
   member once per call,
 - the completeness diagnostic for a family of first integrals: the Jacobian
   of the integrals with respect to the momenta and its numerical rank; the
   family is complete at truncation N when that rank is N,
 - recovery of the momenta from given integral values by damped Newton
   iteration on that Jacobian,
 - Stormer-Verlet time stepping of separable Hamiltonians on raw (q, p)
   arrays, and conserved-quantity drift monitoring.

One calling convention: hamlab calls every phase-space function it is
given (an observable, a Hamiltonian, an analytic gradient) as ``fn(q, p)``
on raw arrays, and callers pass states to the functions of this module.
A flow returns plain rows, not states: :func:`evolve` gives ``(t, q, p)``
with one recorded state per row, the layout of the string module's
flows, and :func:`conservation_drift` judges any such rows.

Every operation is a pure function of its inputs, so everything here is
safe to call from concurrent workers.  Reductions run in index order,
which keeps results bitwise deterministic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._frozen import finite, freeze
from .errors import (
    BlowUpError,
    CompletenessError,
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

# largest analytic-vs-FD gradient difference check_gradients accepts
_GRADIENT_TOL = 1e-6


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
        finite(self, "t", self.t)

    @property
    def dim(self) -> int:
        return self.q.size


@dataclass(frozen=True)
class Observable:
    """A named real-valued function ``fn(q, p)`` on the truncated phase space.

    hamlab calls ``fn`` and the optional analytic gradients ``grad_q(q, p)``
    and ``grad_p(q, p)`` with raw coordinate and momentum arrays, which they
    must not modify; the finite-difference operations use ``fn`` only.  A
    Hamiltonian is an observable with both gradients; :func:`evolve` needs
    it separable: ``grad_q`` reads only q and ``grad_p`` only p.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], float]
    grad_q: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    grad_p: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


def _require_observables(named):
    """``ValueError`` naming the key and type of a value that is no Observable."""
    for key, o in named.items():
        if not isinstance(o, Observable):
            raise ValueError(f"{key} is a {type(o).__name__}, not an Observable")


@dataclass(frozen=True)
class ObservableSet:
    """An ordered family of first-integral candidates, each an
    :class:`Observable`, with distinct names.

    ``values(q, p)``, when given, returns every member's value in index
    order as a 1-d array of ``len(set)`` floats, and each member's ``fn``
    must return its entry; without it the set composes its members'
    ``fn``s.  Every set-level operation (:meth:`evaluate`, the
    finite-difference stencil of :func:`involution_and_jacobian` and
    :func:`recover_momenta`, and :func:`conservation_drift`) evaluates the
    family once per state.
    """

    observables: Sequence[Observable]
    values: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        obs = tuple(self.observables)
        _require_observables({f"entry {i}": o for i, o in enumerate(obs)})
        names = [o.name for o in obs]
        if len(set(names)) != len(names):
            raise ValueError(f"observable names must be distinct, got {names}")
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "_at", _family(obs, self.values))

    def __len__(self) -> int:
        return len(self.observables)

    def __iter__(self):
        return iter(self.observables)

    @property
    def names(self):
        return [o.name for o in self.observables]

    def evaluate(self, s: CanonicalState) -> np.ndarray:
        """Evaluate all observables at ``s`` in index order."""
        return self._at(s.q, s.p)

    def without(self, *names: str) -> "ObservableSet":
        """Drop the named observables (used for incompleteness demos); a
        given ``values`` is kept, with the dropped entries left out.
        Dropping none gives the set itself."""
        missing = set(names) - set(self.names)
        if missing:
            raise ValueError(f"unknown observable(s): {sorted(missing)}")
        if not names:
            return self
        keep = [i for i, o in enumerate(self.observables) if o.name not in names]
        kept = [self.observables[i] for i in keep]
        if self.values is None:
            return ObservableSet(kept)
        full = self.values
        return ObservableSet(kept, lambda q, p: np.asarray(full(q, p))[keep])


def numerical_rank(J, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, int]:
    """The singular values of the momentum Jacobian J, in descending order,
    and its numerical rank: the count above ``rank_tol`` times the largest.

    The family behind J is complete exactly when the rank is ``J.shape[1]``,
    the number of momenta (the rank never exceeds the number of rows).  It
    is a pointwise verdict at the evaluation state and truncation: rank
    deficiency at a single state (e.g. a momentum passing through zero)
    means "not complete at this point", not a global statement.
    """
    J = np.asarray(J, dtype=float)
    if not np.isfinite(J).all():
        raise ValueError("jacobian entries must be finite")
    if J.ndim != 2 or J.size == 0:
        raise ValueError(f"jacobian must be a nonempty 2-d matrix, got shape {J.shape}")
    rank_tol = float(rank_tol)
    if not math.isfinite(rank_tol):
        raise ValueError("rank_tol must be finite")
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    sigma = np.linalg.svd(J, compute_uv=False)
    # a zero J has no singular value above 0, so its rank comes out 0
    return sigma, int(np.count_nonzero(sigma > rank_tol * sigma[0]))


def _checked_eval(obs: Observable, q: np.ndarray, p: np.ndarray) -> float:
    """``obs.fn(q, p)`` as a float; an overflow raises
    :class:`EvaluationError` naming the observable."""
    try:
        return float(obs.fn(q, p))
    except (OverflowError, FloatingPointError) as exc:
        raise EvaluationError(obs.name, str(exc)) from exc


def _family(members: Sequence[Observable], values=None):
    """The checked evaluation function ``(q, p) -> values`` of ``members``:
    ``values`` when given, else the members' ``fn``s in index order.

    It returns a new float array of ``len(members)`` entries.  A result of
    another shape raises ``ValueError`` naming the set; a non-finite entry
    raises :class:`EvaluationError` naming its member, and so does an
    overflow inside a member's ``fn``; an overflow inside ``values`` names
    the set.
    """
    members = tuple(members)
    names = [o.name for o in members]
    label = str(names if len(names) <= 3 else [names[0], "...", names[-1]])
    if values is None:

        def values(q, p):
            return [_checked_eval(o, q, p) for o in members]

    def at(q, p):
        try:
            v = np.array(values(q, p), dtype=float)
        except (OverflowError, FloatingPointError) as exc:
            raise EvaluationError(label, str(exc)) from exc
        if v.shape != (len(names),):
            raise ValueError(
                f"observable set {label} returned values of shape {v.shape}, expected ({len(names)},)"
            )
        finite = np.isfinite(v)
        if not finite.all():
            raise EvaluationError(names[int(np.argmin(finite))])
        return v

    return at


def _gradients(at, names: Sequence[str], q: np.ndarray, p: np.ndarray, h: float, wrt: str) -> np.ndarray:
    """Central-difference gradients with respect to q or p of the family
    evaluated by ``at`` (see :func:`_family`), one row per member, named
    by ``names``: the one stencil of the bracket, the involution matrix,
    the completeness Jacobian and the gradient check.

    The family is evaluated once per perturbed state, 2 len(q) times per
    call.  Each evaluation gets a private, read-only copy of one side with
    entry k moved by +h or -h, and the other side as given.  An evaluation
    that overflows or comes out non-finite, or a row whose differences
    overflow, raises :class:`EvaluationError` naming its member.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"fd step h must be finite and positive, got {h!r}")
    base = q if wrt == "q" else p
    n = base.size
    # row k of plus (minus) is base with entry k moved by +h (-h)
    plus = np.tile(base, (n, 1))
    minus = plus.copy()
    plus[range(n), range(n)] += h
    minus[range(n), range(n)] -= h
    plus.setflags(write=False)
    minus.setflags(write=False)
    if wrt == "q":
        fp, fm = [at(x, p) for x in plus], [at(x, p) for x in minus]
    else:
        fp, fm = [at(q, x) for x in plus], [at(q, x) for x in minus]
    # two finite values can still differ by more than the largest float;
    # rows made contiguous keep the dot products of the callers bitwise
    with np.errstate(over="ignore"):
        G = np.ascontiguousarray((np.array(fp) - np.array(fm)).T) / (2.0 * h)
    finite = np.isfinite(G).all(axis=1)
    if not finite.all():
        raise EvaluationError(names[int(np.argmin(finite))], f"non-finite {wrt}-gradient in the stencil")
    return G


def poisson_bracket(f: Observable, g: Observable, s: CanonicalState, h: float = DEFAULT_FD_STEP) -> float:
    """Poisson bracket [f, g] at ``s`` via central-difference gradients.

    Returns sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k).  The combination of a
    fixed index-ordered dot product with an IEEE subtraction makes the result
    exactly antisymmetric under swapping f and g.
    """
    _require_observables({"f": f, "g": g})
    at, names = _family((f, g)), (f.name, g.name)
    fq, gq = _gradients(at, names, s.q, s.p, h, "q")
    fp, gp = _gradients(at, names, s.q, s.p, h, "p")
    return float(np.dot(fq, gp) - np.dot(fp, gq))


def _analytic_gradients(o: Observable):
    """``o``'s gradients as calls ``(dq, dp)`` that check each returned length
    against q's; ``ValueError`` naming ``o`` when it lacks one."""
    if o.grad_q is None or o.grad_p is None:
        raise ValueError(f"observable '{o.name}' has no analytic gradients")

    def checked(side, grad):
        def call(q, p):
            g = np.asarray(grad(q, p), dtype=float)
            if g.size != q.size:
                raise ValueError(f"'{o.name}' {side} returned length {g.size}, expected {q.size}")
            return g

        return call

    return checked("grad_q", o.grad_q), checked("grad_p", o.grad_p)


def check_gradients(o: Observable, s: CanonicalState) -> float:
    """Max abs difference between ``o``'s analytic and finite-difference
    gradients at ``s``; ``ValueError`` when they disagree beyond 1e-6 or an
    analytic gradient is NaN."""
    analytic = [d(s.q, s.p) for d in _analytic_gradients(o)]
    fd = [_gradients(_family([o]), [o.name], s.q, s.p, DEFAULT_FD_STEP, wrt)[0] for wrt in "qp"]
    worst = float(np.max(np.abs(np.concatenate(fd) - np.concatenate(analytic))))
    if not worst <= _GRADIENT_TOL:
        raise ValueError(
            f"analytic and finite-difference gradients disagree: {worst:.3e} > {_GRADIENT_TOL:.3e}"
        )
    return worst


def poisson_bracket_analytic(f: Observable, g: Observable, s: CanonicalState) -> float:
    """Poisson bracket using the observables' analytic gradients."""
    _require_observables({"f": f, "g": g})
    (fdq, fdp), (gdq, gdp) = _analytic_gradients(f), _analytic_gradients(g)
    return float(np.dot(fdq(s.q, s.p), gdp(s.q, s.p)) - np.dot(fdp(s.q, s.p), gdq(s.q, s.p)))


def involution_and_jacobian(obs: ObservableSet, s: CanonicalState, h: float = DEFAULT_FD_STEP):
    """The involution matrix B[i, j] = [f_i, f_j] and the completeness
    Jacobian at ``s``, as ``(B, J)``, from one q-side and one p-side
    gradient table.

    Each observable is differentiated once per side, and the p side, which
    both need, is shared.  Each unordered pair takes the same index-ordered
    dot products as :func:`poisson_bracket` (so B[i, j] equals it bit for
    bit) and is negated for the transpose entry, so B is exactly
    antisymmetric with a zero diagonal.
    """
    Q = _gradients(obs._at, obs.names, s.q, s.p, h, "q")
    P = _gradients(obs._at, obs.names, s.q, s.p, h, "p")
    n = len(obs)
    B = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            b = float(np.dot(Q[i], P[j]) - np.dot(P[i], Q[j]))
            B[i, j] = b
            B[j, i] = -b
    return B, P


def recover_momenta(
    obs: ObservableSet,
    alpha,
    q,
    p_guess,
    tol: float = 1e-12,
    max_iter: int = 50,
    h: float = DEFAULT_FD_STEP,
    rank_tol: float = DEFAULT_RANK_TOL,
    full_output: bool = False,
):
    """Solve f_i(q, p) = alpha_i for the momenta by damped Newton iteration.

    The Newton matrix is the completeness Jacobian; a rank-deficient
    Jacobian at any iterate raises :class:`CompletenessError` carrying its
    numerical rank and the momentum dimension.  On a residual increase the
    step is halved (up to 30 times) before the iteration counts as diverged.  The quadratic integral
    families this is used on have sign ambiguities, so branch selection is
    the caller's job via ``p_guess``.

    Returns the recovered momentum vector; with ``full_output=True`` returns
    ``(p, info)`` where info records iterations and the final residual.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    alpha = np.array(alpha, dtype=float)
    if alpha.shape != (len(obs),):
        raise ValueError(f"alpha must hold one value per observable, got shape {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise ValueError("alpha must be finite")
    guess = CanonicalState(q, p_guess)
    q, p = guess.q, guess.p.copy()
    if len(obs) < q.size:
        # Fewer integrals than momenta can never pin p down; report it as an
        # incompleteness with the (rectangular) Jacobian at the guess.
        _, rank = numerical_rank(_gradients(obs._at, obs.names, q, p, h, "p"), rank_tol)
        raise CompletenessError(rank, q.size, f"{len(obs)} observables cannot determine {q.size} momenta")

    def residual(pv):
        return obs.evaluate(CanonicalState(q, pv)) - alpha

    r = residual(p)
    rnorm = float(np.max(np.abs(r)))
    iterations = 0
    while rnorm >= tol:
        if iterations >= max_iter:
            raise DivergenceError(rnorm, iterations)
        J = _gradients(obs._at, obs.names, q, p, h, "p")
        _, rank = numerical_rank(J, rank_tol)
        if rank < q.size:
            raise CompletenessError(rank, q.size, f"singular Jacobian at iteration {iterations}")
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


def _finite_doubles(a) -> bool:
    """Whether ``a`` is a plain float64 array with finite entries."""
    return type(a) is np.ndarray and a.dtype == np.float64 and bool(np.isfinite(a).all())


def _verlet(
    H: Observable, s: CanonicalState, dt: float, n_steps: int, stride: int, stepper: str
) -> tuple[list, list, list]:
    """The one Stormer-Verlet (kick-drift-kick) loop, on raw arrays:

        p_half = p - (dt/2) dH/dq(q, p)
        q' = q + dt dH/dp(q, p_half)
        p' = p_half - (dt/2) dH/dq(q', p_half)

    The loop relies on separability: ``grad_q`` reads only q and
    ``grad_p`` only p.  So dH/dq(q', p_half) is also the next step's
    dH/dq(q', p'), and each step makes one call of each gradient, plus one
    ``grad_q`` call before the first step (first same as last); the
    closing half-kick (dt/2) dH/dq(q', p_half) is the next opening one.

    Each step makes new arrays (a gradient may return its input), and t
    accumulates as t + dt.  Returns the lists ``(t, q, p)`` of the rows of
    ``s`` and of the states after every ``stride``-th step and the last;
    no state is built.  A step that leaves a non-finite entry raises
    :class:`BlowUpError` with the last finite time.

    The steps run in blocks that end at the record points.  A block first
    runs unchecked, calling ``H.grad_q`` and ``H.grad_p`` directly: each
    step only compares both results' shapes with q's (NumPy would
    broadcast a length-1 or 0-d result), and the block's end state must be
    plain float64 arrays with finite entries.  The end check suffices
    because q and p change only by addition: a non-finite entry, a wider
    dtype or an array subclass stays to the block's end, and the float64
    step sizes promote a narrower result exactly as its conversion does.
    A block that fails a check, or in which anything raises, is replayed
    from its start with the length-checked gradients of
    :func:`_analytic_gradients` and a shape and finiteness check after
    every step, which raise the error of the first bad call or step.
    """
    if dt == 0 or not math.isfinite(dt):
        raise ValueError("dt must be nonzero and finite")
    dH_dq, dH_dp = _analytic_gradients(H)
    step, half = np.float64(dt), np.float64(0.5 * dt)
    shape = s.q.shape

    def steps(q, p, kick, t, first, last, checked):
        # steps first..last; kick is (dt/2) dH/dq at the current q.  None
        # when an unchecked gradient result does not have q's shape
        dq, dp = (dH_dq, dH_dp) if checked else (H.grad_q, H.grad_p)
        for k in range(first, last + 1):
            p_half = p - kick
            v = dp(q, p_half)
            q = q + step * v
            g = dq(q, p_half)
            kick = half * g
            p = p_half - kick
            if checked:
                # a gradient of the right length but another shape broadcasts
                if q.shape != shape or p.shape != shape:
                    raise ValueError(
                        f"'{H.name}' gradients made q and p of shapes {q.shape}, {p.shape}"
                    )
                if not (np.isfinite(q).all() and np.isfinite(p).all()):
                    raise BlowUpError(t, k, s.t, stepper)
            elif v.shape != shape or g.shape != shape:
                return None
            t = t + dt
        return q, p, kick, t

    q, p, t = s.q, s.p, s.t
    ts, qs, ps = [t], [q], [p]
    if n_steps == 0:
        return ts, qs, ps
    # an unstable step overflows before the finiteness check catches it;
    # silence the intermediate numpy warnings so BlowUpError is the signal
    with np.errstate(over="ignore", invalid="ignore"):
        kick = half * dH_dq(q, p)
        for first in range(1, n_steps + 1, stride):
            last = min(first + stride - 1, n_steps)
            try:
                block = steps(q, p, kick, t, first, last, False)
                ok = block is not None and _finite_doubles(block[0]) and _finite_doubles(block[1])
            except Exception:
                # a gradient given a non-finite state may raise; the replay
                # tells that apart from an error on a finite state
                ok = False
            if not ok:
                block = steps(q, p, kick, t, first, last, True)
            q, p, kick, t = block
            ts.append(t)
            qs.append(q)
            ps.append(p)
    return ts, qs, ps


def symplectic_step(H: Observable, s: CanonicalState, dt: float) -> CanonicalState:
    """One :func:`evolve` step; ``dt`` may be negative."""
    t, q, p = _verlet(H, s, dt, 1, 1, "symplectic_step")
    return CanonicalState(q[-1], p[-1], t[-1])


def evolve(
    H: Observable,
    s: CanonicalState,
    dt: float,
    n_steps: int,
    record_stride: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply ``n_steps`` Stormer-Verlet steps, recording every ``record_stride``-th
    state (the initial and final states are always recorded).

    Returns plain rows ``(t, q, p)``, the layout of the string flows: ``t``
    has shape (R,) and ``q`` and ``p`` shape (R, N), one row per recorded
    state, row 0 being ``s``.  The recorded times must increase: a ``dt``
    too small to move ``s.t``, or times past the range of a double, raise
    ``ValueError``.

    ``dt`` must be finite and positive; :func:`symplectic_step` takes a
    backward step.  ``H`` needs both analytic gradients (else
    ``ValueError`` naming it) and separability: ``grad_q`` may read only q
    and ``grad_p`` only p, as each step's last ``grad_q`` value is the next
    step's first."""
    if not 0.0 < dt < math.inf:
        raise ValueError(
            f"evolve needs a finite dt > 0, got dt={dt!r}; use symplectic_step for a backward step"
        )
    if not isinstance(n_steps, numbers.Integral) or n_steps < 0:
        raise ValueError(f"n_steps must be an integer >= 0, got {n_steps!r}")
    if not isinstance(record_stride, numbers.Integral) or record_stride < 1:
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride!r}")
    t, q, p = (np.array(row) for row in _verlet(H, s, dt, n_steps, record_stride, "evolve"))
    if not (math.isfinite(t[-1]) and np.all(np.diff(t) > 0)):
        raise ValueError("state times must be strictly increasing and finite")
    return t, q, p


def conservation_drift(obs: ObservableSet, q, p) -> np.ndarray:
    """Per-observable max drift along rows of states.

    ``q`` and ``p`` hold one state per row, shape (R, N), as :func:`evolve`
    and the string flows return them; row 0 is the reference:

        drift_i = max_k |f_i(q_k, p_k) - f_i(q_0, p_0)| / max(|f_i(q_0, p_0)|, 1).

    The floor of 1 keeps near-zero integrals from reporting huge relative
    drift: the measure is relative for integrals of size 1 and above and
    absolute below that.  The observables see private, read-only rows.
    q and p that are not matching nonempty 2-d arrays with finite entries
    raise ``ValueError``.
    """
    q, p = np.array(q, dtype=float), np.array(p, dtype=float)
    if q.ndim != 2 or q.shape != p.shape or q.size == 0:
        raise ValueError(
            f"q and p must be matching nonempty 2-d arrays of rows, got shapes {q.shape}, {p.shape}"
        )
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValueError("q and p entries must be finite")
    q.setflags(write=False)
    p.setflags(write=False)
    values = np.array([obs._at(qk, pk) for qk, pk in zip(q, p)])
    ref = values[0, :]
    denom = np.maximum(np.abs(ref), 1.0)
    return np.max(np.abs(values - ref[None, :]), axis=0) / denom
