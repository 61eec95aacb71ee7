"""Difference-of-convex optimization on Hadamard manifolds.

Closed-form Busemann (horofunction) machinery for four geometries
(Euclidean, Dikin orthant, hyperboloid, SPD with the affine-invariant
metric), two DC outer loops built on it, the benchmark problem families,
and a seeded, reproducible benchmark harness.
"""

from .analysis import (OracleResult, OracleSchedule, SupportCheckReport,
                       bregman_busemann, busemann_numeric,
                       lipschitz_subgrad_bound_check, support_check)
from .dc import (DCProblem, SolverConfig, SolverTrace, complexity_bound_check,
                 inner_solve, make_b_subproblem, make_cr_subproblem, run_dca,
                 scale_factor)
from .errors import (DefinitenessError, NumericalDomainError,
                     StalledInnerSolveError, UndefinedGradientError,
                     ValidationError, ZeroDirectionError)
from .geometry import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                       Manifold, SPDManifold, fd_riemannian_grad)
from .problems import (AcademicParams, ContrastiveParams, RosenbrockParams,
                       academic_problem, contrastive_problem, random_start,
                       rosenbrock_problem)
from .rng import make_rng

__version__ = "0.1.0"

__all__ = [
    "AcademicParams",
    "BusemannRay",
    "ContrastiveParams",
    "DCProblem",
    "DefinitenessError",
    "DikinOrthant",
    "Euclidean",
    "Hyperboloid",
    "Manifold",
    "NumericalDomainError",
    "OracleResult",
    "OracleSchedule",
    "RosenbrockParams",
    "SPDManifold",
    "SolverConfig",
    "SolverTrace",
    "StalledInnerSolveError",
    "SupportCheckReport",
    "UndefinedGradientError",
    "ValidationError",
    "ZeroDirectionError",
    "academic_problem",
    "bregman_busemann",
    "busemann_numeric",
    "complexity_bound_check",
    "contrastive_problem",
    "fd_riemannian_grad",
    "inner_solve",
    "lipschitz_subgrad_bound_check",
    "make_b_subproblem",
    "make_cr_subproblem",
    "make_rng",
    "random_start",
    "rosenbrock_problem",
    "run_dca",
    "scale_factor",
    "support_check",
]
