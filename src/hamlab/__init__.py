"""hamlab: numerical laboratory for first integrals of truncated
Hamiltonian PDE systems (vibrating string, infinite string, KdV)."""

from .errors import (
    BlowUpError,
    CompletenessError,
    ConvergenceError,
    DecayError,
    DivergenceError,
    DomainExitError,
    EvaluationError,
    HamlabError,
    InvalidIntegralsError,
    ScalingError,
    SingularPointError,
)
from .canonical import (
    CanonicalState,
    Observable,
    ObservableSet,
    check_gradients,
    conservation_drift,
    evolve,
    involution_and_jacobian,
    numerical_rank,
    poisson_bracket,
    poisson_bracket_analytic,
    recover_momenta,
    symplectic_step,
)
from . import canonical, kdv, line, string

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CompletenessError",
    "ConvergenceError",
    "DecayError",
    "DivergenceError",
    "DomainExitError",
    "EvaluationError",
    "HamlabError",
    "InvalidIntegralsError",
    "ScalingError",
    "SingularPointError",
    "CanonicalState",
    "Observable",
    "ObservableSet",
    "check_gradients",
    "conservation_drift",
    "evolve",
    "involution_and_jacobian",
    "numerical_rank",
    "poisson_bracket",
    "poisson_bracket_analytic",
    "recover_momenta",
    "symplectic_step",
    "canonical",
    "kdv",
    "line",
    "string",
    "__version__",
]
