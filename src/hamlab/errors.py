"""Exception types shared across the package.

Every numerical failure mode raises a subclass of :class:`HamlabError`, so
callers (in particular the experiment runner) can separate "the computation
itself broke" from ordinary usage errors, which raise ``ValueError``.
"""


class HamlabError(Exception):
    """Base class for numerical failures raised by this package."""


class EvaluationError(HamlabError):
    """An observable or Hamiltonian returned a non-finite value."""

    def __init__(self, name, detail=""):
        self.name = name
        msg = f"evaluation of observable '{name}' produced a non-finite value"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class CompletenessError(HamlabError):
    """Momentum recovery failed because the observable set is not complete.

    ``rank`` is the numerical rank of the momentum Jacobian at the failing
    point and ``dim`` the number of momenta, so ``rank < dim``; the
    experiment runner records both in report.json.
    """

    def __init__(self, rank, dim, detail=""):
        self.rank = rank
        self.dim = dim
        msg = "observable set is not complete at this point"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DivergenceError(HamlabError):
    """Newton iteration failed to converge within the iteration budget."""

    def __init__(self, residual, iterations):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(final max residual {residual:.3e})"
        )


class ConvergenceError(HamlabError):
    """A Jost solve (adaptive stepper or sweep) or a root scan did not converge."""


class DomainExitError(HamlabError):
    """A wave-equation evolution would push data past the truncated domain."""


class ScalingError(HamlabError):
    """A high-order moment or factorial overflowed; nondimensionalize or lower the order."""


class InvalidIntegralsError(HamlabError):
    """Recorded integral values are inconsistent (e.g. a negative square)."""


class SingularPointError(HamlabError):
    """Triangular momentum recovery hit a point where it is undefined."""


class BlowUpError(HamlabError):
    """Time stepping produced non-finite values.

    ``last_time`` is the time of the last finite state; ``step`` counts
    from 1 within the call of ``stepper`` that began at ``start_time``.
    """

    def __init__(self, last_time, step, start_time, stepper):
        self.last_time = last_time
        self.step = step
        self.start_time = start_time
        self.stepper = stepper
        super().__init__(
            f"solution blew up at step {step} of the {stepper} call that began at "
            f"t={start_time:.6g}; last stable time t={last_time:.6g}"
        )


class DecayError(HamlabError):
    """Field data does not decay below tolerance at the domain edges."""
