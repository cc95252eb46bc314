"""Certified admissibility analysis for heat-operator cone weights.

The package certifies the sign conditions that make the anisotropic power
weight ``r**alpha * ((x1/r)**m - epsilon**m)`` admissible on a circular
cone, solves the critical parameter system for the sharpest opening angle,
searches the feasibility frontier over the weight-family parameters, and
verifies the weighted integral inequality numerically on smooth bump test
functions.
"""

__version__ = "0.1.0"

from .algebra import Interval, PowerSum, SignKind, SignVerdict, certify_sign
from .conditions import (
    ConditionReport,
    build_l,
    build_lemma31,
    direct_feasibility,
    gamma_condition,
    lemma31_check,
    sufficient_route_check,
)
from .quad import (
    BumpFunction,
    CarlemanReport,
    GridSpec,
    SupportViolationError,
    carleman_integrals,
    verify_carleman,
)
from .solver import (
    AllInfeasibleError,
    FrontierResult,
    NonConvergenceError,
    SingularJacobianError,
    SolverResult,
    frontier_epsilon,
    residuals_critical,
    scan_frontier,
    solve_critical_system,
    solve_gamma1,
    uniqueness_horizon,
)
from .weights import (
    WeightParams,
    build_f,
    grad_phi,
    hess_phi,
    log_weight,
    phi_eval,
)

__all__ = [
    "__version__",
    "Interval",
    "PowerSum",
    "SignKind",
    "SignVerdict",
    "certify_sign",
    "ConditionReport",
    "build_l",
    "build_lemma31",
    "direct_feasibility",
    "gamma_condition",
    "lemma31_check",
    "sufficient_route_check",
    "BumpFunction",
    "CarlemanReport",
    "GridSpec",
    "SupportViolationError",
    "carleman_integrals",
    "verify_carleman",
    "AllInfeasibleError",
    "FrontierResult",
    "NonConvergenceError",
    "SingularJacobianError",
    "SolverResult",
    "frontier_epsilon",
    "residuals_critical",
    "scan_frontier",
    "solve_critical_system",
    "solve_gamma1",
    "uniqueness_horizon",
    "WeightParams",
    "build_f",
    "grad_phi",
    "hess_phi",
    "log_weight",
    "phi_eval",
]
