"""Builders and certifiers for the weight-admissibility inequalities.

Everything here is a scalar condition in the angular variable ``h = x1/r``
on ``[epsilon, 1]``.  One builder, :func:`build_l`, makes each expression
by key.  The table defines each key from ``f = h**m - epsilon**m``, ``f'``
and ``f''``, with ``a = alpha`` and ``g = gamma``::

    lemma31_i    f
    lemma31_ii   f''
    lemma31_iii  (a^2-2a) f + (3-2a) h f' + h^2 f''
    lemma31_iv   (a-1)^2 f'^2 + (2a-a^2) f f'' - h f' f''
    l1           a^4 f^3 - a^2 h f^2 f' + 2a^2 (1-h^2) f f'^2 - 2h (1-h^2) f'^3
                 + (1-h^2)^2 f'^2 f''
    l2           (a^2 - g^2 (m-1)/4) f - h f' + (1-h^2) f''/2
    l3           (a^2+a) f^2 - h f f' + (1-h^2) f'^2
    l4           (a^2+a-m^2-m) h^m + m^2 h^(m-2) - (2a^2+2a-m) epsilon^m

The profile conditions ``lemma31_i..iv`` make the weight's Hessian
correction nonnegative; ``l1`` controls the cubic gradient form, ``l3``/``l4``
the mixed second-order form, and ``l2`` is the concavity workhorse of the
gamma-decomposition route.  ``build_l`` writes each key's expansion in
powers of h, with coefficients in (m, a, g) and powers of ``E =
epsilon**m``, and forms no product; ``tests/test_symbolic.py`` proves each
expansion against the table.  Since ``l3 = (a^2+a) E^2 + h^m l4``, the
``l3`` lower bound is built from ``l4``.  Two certifiers are provided, each
with one ordered table of its keys and the claim certified for each
(``DIRECT_CLAIMS``, ``ROUTE_CLAIMS``):

* :func:`sufficient_route_check` follows the decomposition route (gamma
  condition, concavity and endpoint signs), which is sufficient but not
  necessary;
* :func:`direct_feasibility` certifies the profile conditions plus
  ``l1 >= 0`` and the ``l3`` lower bound directly with interval bisection
  and does not involve gamma at all.

A table's order is its report's order, the order in which the report
looks for the failing key, and the order of ``check --json``'s verdicts
(the route's keys, then the direct ones).

The parameter bundle ``WeightParams`` and the profile ``build_f`` live here
too, so that the certified core (``algebra``, ``conditions``, ``solver``)
computes in plain floats and never imports numpy; ``weights`` re-exports
both.  All functions are pure; reports are plain immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    DEFAULT_TOL,
    Interval,
    PowerSum,
    SignKind,
    SignVerdict,
    certify_sign,
)

__all__ = [
    "WeightParams",
    "build_f",
    "ConditionReport",
    "DIRECT_CLAIMS",
    "ROUTE_CLAIMS",
    "DIRECT_KEYS",
    "ROUTE_KEYS",
    "gamma_condition",
    "build_l",
    "sufficient_route_check",
    "direct_feasibility",
    "l1_boundary_law",
]

# The direct certificate's keys, in report order, and the claim each certifies.
DIRECT_CLAIMS = {
    "lemma31_i": ">=",
    "lemma31_ii": ">=",
    "lemma31_iii": ">=",
    "lemma31_iv": "<=",
    "l1_direct": ">=",
    "l3_lower_bound": ">=",
}

# The gamma route's keys, in report order, and the claim each certifies.
ROUTE_CLAIMS = {
    "gamma_cond": ">=",
    "l2_concavity": "<=",
    "l2_at_eps": ">=",
    "l2_at_1": ">",
    "l4_concavity": "<=",
    "l4_at_eps": ">",
    "l4_at_1": ">",
}

DIRECT_KEYS, ROUTE_KEYS = tuple(DIRECT_CLAIMS), tuple(ROUTE_CLAIMS)

# Each direct key's expression where the names differ; the l3 bound is built from l4.
_DIRECT_EXPRESSIONS = {"l1_direct": "l1", "l3_lower_bound": "l4"}

# Relative slack on the l3 lower bound so the certified claim does not sit
# exactly on the bound.
_L3_SLACK = 1e-9


@dataclass(frozen=True)
class WeightParams:
    """Parameter bundle (m, alpha, gamma, epsilon) for one weight instance.

    ``m`` is the profile exponent, ``alpha`` the homogeneity degree,
    ``gamma`` the decomposition parameter used only by the sufficient-route
    certifier, and ``epsilon = cos(theta/2)`` encodes the cone opening.
    The core exponent range is ``2 < m < 3``; values down to 1 are accepted
    so the comparison family with profile exponent equal to ``alpha`` can
    run through the same certifiers, and are surfaced via the range flags.
    """

    m: float
    alpha: float
    gamma: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 1.0 < self.m < 3.0:
            raise ValueError(f"m must lie in (1, 3), got {self.m}")
        if not 1.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (1, 2], got {self.alpha}")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (1/2, 1], got {self.gamma}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def m_in_core_range(self) -> bool:
        """Whether m sits in the core working range (2, 3)."""
        return 2.0 < self.m < 3.0

    @property
    def concavity_route_available(self) -> bool:
        """m >= 2.36 keeps the concavity argument's leading sign in check."""
        return self.m >= 2.36


def build_f(m: float, epsilon: float) -> PowerSum:
    """Radial profile ``h**m - epsilon**m`` as a PowerSum."""
    return PowerSum(((1.0, m), (-math.pow(epsilon, m), 0.0)))


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts plus an overall feasibility call.

    ``overall`` is "feasible" when every checked condition confirms its
    claim, "infeasible" with the first refuted key in ``failing_key``, and
    "indeterminate", with the first unresolved key, when nothing is refuted
    but some certification did not resolve.
    """

    checks: dict[str, SignVerdict]
    overall: str
    failing_key: Optional[str] = None


def _report(checks: dict[str, SignVerdict], claims: dict[str, str]) -> ConditionReport:
    """The report on ``checks``: the first refuted key in table order, else the first unresolved."""
    failed = [key for key, claim in claims.items() if not checks[key].confirms(claim)]
    refuted = [key for key in failed if checks[key].kind is not SignKind.INDETERMINATE]
    overall = "infeasible" if refuted else "indeterminate" if failed else "feasible"
    return ConditionReport(checks, overall, (refuted or failed or [None])[0])


def _scalar_check(value: float, where: Optional[float], claim: str) -> SignVerdict:
    """Wrap the sign of a directly-computed scalar as a SignVerdict.

    ``where`` is the h-location of the evaluation when there is one (the
    concavity and gamma conditions are coefficient conditions and carry
    no location).
    """
    if claim in (">=", ">"):
        if value > 0.0:
            return SignVerdict(SignKind.POSITIVE, margin=value)
        if value == 0.0 and claim == ">=":
            zeros = (where,) if where is not None else ()
            return SignVerdict(SignKind.NON_NEGATIVE_WITH_ZEROS, zeros=zeros)
        return SignVerdict(SignKind.NEGATIVE_SOMEWHERE, margin=value, witness=where)
    if claim == "<=":
        return _scalar_check(-value, where, ">=").mirrored()
    raise ValueError(f"unknown claim {claim!r}")


# ---------------------------------------------------------------------------
# Expression builders
# ---------------------------------------------------------------------------

def _profile(params: WeightParams) -> tuple[PowerSum, PowerSum, PowerSum]:
    """f, f' and f'' at ``params``."""
    f = build_f(params.m, params.epsilon)
    fp = f.derivative()
    return f, fp, fp.derivative()


def gamma_condition(params: WeightParams) -> float:
    """Margin of ``(2g-1)a^2 >= g^2 (a^2 - g^2 (m-1)/4)``; >= 0 means it holds."""
    a2 = params.alpha * params.alpha
    g2 = params.gamma * params.gamma
    return (2.0 * params.gamma - 1.0) * a2 - g2 * (a2 - g2 * (params.m - 1.0) / 4.0)


def build_l(key: str, params: WeightParams) -> PowerSum:
    """The expression ``key`` of the module's table at ``params``; ValueError on any other key."""
    a, m = params.alpha, params.m
    a2, m2, e = a * a, m * m, math.pow(params.epsilon, m)
    if key == "lemma31_i":
        terms = ((1.0, m), (-e, 0.0))
    elif key == "lemma31_ii":
        terms = ((m * (m - 1.0), m - 2.0),)
    elif key == "lemma31_iii":
        terms = (((m - a) * (m - a + 2.0), m), ((2.0 * a - a2) * e, 0.0))
    elif key == "lemma31_iv":
        terms = ((m * ((a - 1.0) ** 2 - (m - 1.0) ** 2), 2.0 * m - 2.0),
                 (-(2.0 * a - a2) * m * (m - 1.0) * e, m - 2.0))
    elif key == "l1":
        terms = ((-a2 * a2 * e * e * e, 0.0), (a2 * (3.0 * a2 - m) * e * e, m),
                 (a2 * (2.0 * (m + m2) - 3.0 * a2) * e, 2.0 * m),
                 ((m2 + m - a2) * (m2 - a2), 3.0 * m), (-2.0 * a2 * m2 * e, 2.0 * m - 2.0),
                 (2.0 * m2 * (a2 - m2), 3.0 * m - 2.0), (m2 * m * (m - 1.0), 3.0 * m - 4.0))
    elif key == "l2":
        coef = a2 - params.gamma ** 2 * (m - 1.0) / 4.0
        half = 0.5 * (m * (m - 1.0))
        terms = ((-coef * e, 0.0), (half, m - 2.0), (coef - m - half, m))
    elif key == "l3":
        terms = (((a2 + a) * e * e, 0.0), (-(2.0 * (a2 + a) - m) * e, m),
                 (m2, 2.0 * m - 2.0), (a2 + a - m2 - m, 2.0 * m))
    elif key == "l4":
        terms = ((a2 + a - m2 - m, m), (m2, m - 2.0), (-(2.0 * a2 + 2.0 * a - m) * e, 0.0))
    else:
        raise ValueError(f"unknown expression {key!r}")
    return PowerSum(terms)


def l1_boundary_law(params: WeightParams) -> float:
    """Sign carrier of l1 at h = epsilon: ``(m-1) - (m+1) * epsilon**2``.

    Substituting the boundary zero of f into l1 leaves
    ``(1-e^2) f'(e)^2 m e^(m-2) ((m-1) - (m+1) e^2)``, so this factor alone
    decides the boundary sign.
    """
    return (params.m - 1.0) - (params.m + 1.0) * params.epsilon ** 2


# ---------------------------------------------------------------------------
# Certifiers
# ---------------------------------------------------------------------------

def sufficient_route_check(params: WeightParams) -> ConditionReport:
    """Decomposition-route certificate (partial report).

    Checks, in order: the gamma condition; concavity of l2 via its leading
    coefficient; l2 at both endpoints; concavity of l4 via its second
    derivative's coefficients; l4 at both endpoints.  When all pass, the
    route certifies ``l1 >= 0`` and the l3 lower bound.
    """
    eps = params.epsilon
    l2 = build_l("l2", params)
    l4 = build_l("l4", params)
    l4pp = l4.derivative().derivative()
    values = {  # key -> (value, the h it is taken at)
        "gamma_cond": (gamma_condition(params), None),
        "l2_concavity": (l2.leading_term()[0], None),
        "l2_at_eps": (l2.eval(eps), eps),
        "l2_at_1": (l2.eval(1.0), 1.0),
        "l4_concavity": (max(c for c, _ in l4pp.terms) if l4pp.terms else 0.0, None),
        "l4_at_eps": (l4.eval(eps), eps),
        "l4_at_1": (l4.eval(1.0), 1.0),
    }
    return _report({key: _scalar_check(*values[key], claim)
                    for key, claim in ROUTE_CLAIMS.items()}, ROUTE_CLAIMS)


def direct_feasibility(params: WeightParams, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Direct certificate: profile conditions, l1 >= 0, and the l3 bound.

    Feasible iff all four profile conditions confirm, ``l1 >= 0`` certifies
    on [epsilon, 1], and ``l3 >= (a^2+a) * epsilon**(2m) * (1 - 1e-9)``
    certifies.  (i) carries its declared zero at epsilon.  gamma plays no
    role here; it is a device of the sufficient route only.  Indeterminate
    certifications make the report indeterminate rather than infeasible.
    """
    eps, a, m = params.epsilon, params.alpha, params.m
    region = Interval(eps, 1.0)
    exprs = {key: build_l(_DIRECT_EXPRESSIONS.get(key, key), params) for key in DIRECT_CLAIMS}
    # l3 - (a^2+a) E^2 = h^m l4, so l3 less the slackened bound is h^m l4 plus the slack
    slack = _L3_SLACK * (a * a + a) * math.pow(eps, m) ** 2
    exprs["l3_lower_bound"] = PowerSum(
        tuple((c, p + m) for c, p in exprs["l3_lower_bound"].terms) + ((slack, 0.0),))
    return _report({
        key: certify_sign(exprs[key], region, claim,
                          known_zeros=(eps,) if key == "lemma31_i" else (), tol=tol)
        for key, claim in DIRECT_CLAIMS.items()
    }, DIRECT_CLAIMS)
