"""Certified admissibility analysis for heat-operator cone weights.

The package certifies the sign conditions that make the anisotropic power
weight ``r**alpha * ((x1/r)**m - epsilon**m)`` admissible on a circular
cone, solves the critical parameter system for the sharpest opening angle,
searches the feasibility frontier over the weight-family parameters, and
verifies the weighted integral inequality numerically on smooth bump test
functions.

Each root name resolves from its module on first use (PEP 562), so that
the certified core (``algebra``, ``conditions``, ``solver``) never loads
numpy; only ``weights``, ``quad`` and ``identities`` need it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every root export, by the module that defines it; __getattr__ imports that
# module when the name is first read.
_EXPORTS = {name: module for module, names in {
    "algebra": ("Interval", "PowerSum", "SignKind", "SignVerdict", "certify_sign"),
    "conditions": ("ConditionReport", "WeightParams", "build_f", "build_l", "direct_feasibility",
                   "gamma_condition", "sufficient_route_check"),
    "quad": ("BumpFunction", "CarlemanReport", "GridSpec", "SupportViolationError",
             "carleman_integrals", "verify_carleman"),
    "solver": ("AllInfeasibleError", "FrontierResult", "NonConvergenceError",
               "SingularJacobianError", "SolverResult", "frontier_epsilon", "residuals_critical",
               "scan_frontier", "solve_critical_system", "solve_gamma1"),
    "weights": ("grad_phi", "hess_phi", "log_weight", "phi_eval"),
}.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
