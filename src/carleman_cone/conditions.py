"""Builders and certifiers for the weight-admissibility inequalities.

Everything here is a scalar condition in the angular variable ``h = x1/r``
on the interval ``[epsilon, 1]``.  Four profile conditions (keys
``lemma31_i..iv``) make the weight's Hessian correction nonnegative; the
expression ``l1`` controls the cubic gradient form, ``l3``/``l4`` the mixed
second-order form, and ``l2`` is the concavity workhorse of the
gamma-decomposition route.  Two certifiers are provided:

* :func:`sufficient_route_check` follows the decomposition route (gamma
  condition, concavity and endpoint signs), which is sufficient but not
  necessary;
* :func:`direct_feasibility` certifies the profile conditions plus
  ``l1 >= 0`` and the ``l3`` lower bound directly with interval bisection
  and does not involve gamma at all.

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
    "DIRECT_KEYS",
    "ROUTE_KEYS",
    "build_lemma31",
    "lemma31_check",
    "gamma_condition",
    "build_l",
    "sufficient_route_check",
    "direct_feasibility",
    "l1_boundary_law",
]

DIRECT_KEYS = (
    "lemma31_i",
    "lemma31_ii",
    "lemma31_iii",
    "lemma31_iv",
    "l1_direct",
    "l3_lower_bound",
)

ROUTE_KEYS = (
    "gamma_cond",
    "l2_concavity",
    "l2_at_eps",
    "l2_at_1",
    "l4_concavity",
    "l4_at_eps",
    "l4_at_1",
)

# Claim certified per report key.
_CLAIMS = {
    "lemma31_i": ">=",
    "lemma31_ii": ">=",
    "lemma31_iii": ">=",
    "lemma31_iv": "<=",
    "l1_direct": ">=",
    "l3_lower_bound": ">=",
    "gamma_cond": ">=",
    "l2_concavity": "<=",
    "l2_at_eps": ">=",
    "l2_at_1": ">",
    "l4_concavity": "<=",
    "l4_at_eps": ">",
    "l4_at_1": ">",
}

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
    "indeterminate" when nothing is refuted but some certification did not
    resolve.
    """

    checks: dict[str, SignVerdict]
    overall: str
    failing_key: Optional[str] = None

    def confirmed(self, key: str) -> bool:
        return self.checks[key].confirms(_CLAIMS[key])


def _aggregate(checks: dict[str, SignVerdict], order) -> tuple[str, Optional[str]]:
    indeterminate = None
    for key in order:
        verdict = checks[key]
        if verdict.confirms(_CLAIMS[key]):
            continue
        if verdict.kind is SignKind.INDETERMINATE:
            indeterminate = indeterminate or key
            continue
        return "infeasible", key
    if indeterminate is not None:
        return "indeterminate", indeterminate
    return "feasible", None


def _scalar_check(value: float, claim: str, where: Optional[float] = None) -> SignVerdict:
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
        if value < 0.0:
            return SignVerdict(SignKind.NON_POSITIVE_WITH_ZEROS, margin=-value)
        if value == 0.0:
            zeros = (where,) if where is not None else ()
            return SignVerdict(SignKind.NON_POSITIVE_WITH_ZEROS, margin=0.0, zeros=zeros)
        return SignVerdict(SignKind.POSITIVE_SOMEWHERE, margin=value, witness=where)
    raise ValueError(f"unknown claim {claim!r}")


# ---------------------------------------------------------------------------
# Expression builders
# ---------------------------------------------------------------------------

def _f_fp_fpp(params: WeightParams) -> tuple[PowerSum, PowerSum, PowerSum]:
    f = build_f(params.m, params.epsilon)
    fp = f.derivative()
    return f, fp, fp.derivative()


_H = PowerSum.monomial(1.0, 1.0)            # h
_H2 = PowerSum.monomial(1.0, 2.0)           # h^2
_ONE_MINUS_H2 = PowerSum.constant(1.0) - _H2


def build_lemma31(params: WeightParams) -> tuple[PowerSum, PowerSum, PowerSum, PowerSum]:
    """The four profile conditions, assembled from f by sum/product rules.

    (i)   f
    (ii)  f''
    (iii) (a^2-2a) f + (3-2a) h f' + h^2 f''
    (iv)  (a-1)^2 f'^2 + (2a-a^2) f f'' - h f' f''
    with a = alpha.
    """
    a = params.alpha
    f, fp, fpp = _f_fp_fpp(params)
    third = (a * a - 2.0 * a) * f + (3.0 - 2.0 * a) * (_H * fp) + _H2 * fpp
    fourth = (a - 1.0) ** 2 * (fp * fp) + (2.0 * a - a * a) * (f * fpp) - _H * fp * fpp
    return f, fpp, third, fourth


def lemma31_check(params: WeightParams, tol: float = DEFAULT_TOL) -> dict[str, SignVerdict]:
    """Certify the four profile conditions on [epsilon, 1].

    (i) is nonnegative with its declared boundary zero; (ii) and (iii) are
    strictly positive for this family; (iv) is nonpositive.
    """
    region = Interval(params.epsilon, 1.0)
    one, two, three, four = build_lemma31(params)
    return {
        "lemma31_i": certify_sign(one, region, ">=", known_zeros=(params.epsilon,), tol=tol),
        "lemma31_ii": certify_sign(two, region, ">=", tol=tol),
        "lemma31_iii": certify_sign(three, region, ">=", tol=tol),
        "lemma31_iv": certify_sign(four, region, "<=", tol=tol),
    }


def gamma_condition(params: WeightParams) -> float:
    """Margin of ``(2g-1)a^2 >= g^2 (a^2 - g^2 (m-1)/4)``; >= 0 means it holds."""
    a2 = params.alpha * params.alpha
    g2 = params.gamma * params.gamma
    return (2.0 * params.gamma - 1.0) * a2 - g2 * (a2 - g2 * (params.m - 1.0) / 4.0)


def build_l(which: str, params: WeightParams) -> PowerSum:
    """One of the scalar condition expressions l1..l4.

    l1, l2 and l3 are assembled from f by product/derivative rules; l4 is
    defined by its closed form, which keeps the l3 = const + h^m * l4
    identity a real cross-check rather than a tautology.
    """
    a = params.alpha
    m, eps = params.m, params.epsilon
    f, fp, fpp = _f_fp_fpp(params)
    if which == "l1":
        f2 = f * f
        fp2 = fp * fp
        return (
            a ** 4 * (f2 * f)
            - a * a * (_H * f2 * fp)
            + 2.0 * a * a * (_ONE_MINUS_H2 * f * fp2)
            - 2.0 * (_H * _ONE_MINUS_H2 * (fp2 * fp))
            + _ONE_MINUS_H2 * _ONE_MINUS_H2 * fp2 * fpp
        )
    if which == "l2":
        coef = a * a - params.gamma ** 2 * (m - 1.0) / 4.0
        return coef * f - _H * fp + 0.5 * (_ONE_MINUS_H2 * fpp)
    if which == "l3":
        return (a * a + a) * (f * f) - _H * f * fp + _ONE_MINUS_H2 * (fp * fp)
    if which == "l4":
        em = math.pow(eps, m)
        return PowerSum((
            (a * a + a - m * m - m, m),
            (m * m, m - 2.0),
            (-(2.0 * a * a + 2.0 * a - m) * em, 0.0),
        ))
    raise ValueError(f"unknown expression {which!r}")


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
    checks = {
        "gamma_cond": _scalar_check(gamma_condition(params), ">="),
        "l2_concavity": _scalar_check(l2.leading_term()[0], "<="),
        "l2_at_eps": _scalar_check(l2.eval(eps), ">=", where=eps),
        "l2_at_1": _scalar_check(l2.eval(1.0), ">", where=1.0),
        "l4_concavity": _scalar_check(
            max(c for c, _ in l4pp.terms) if l4pp.terms else 0.0, "<="
        ),
        "l4_at_eps": _scalar_check(l4.eval(eps), ">", where=eps),
        "l4_at_1": _scalar_check(l4.eval(1.0), ">", where=1.0),
    }
    overall, failing = _aggregate(checks, ROUTE_KEYS)
    return ConditionReport(checks=checks, overall=overall, failing_key=failing)


def direct_feasibility(params: WeightParams, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Direct certificate: profile conditions, l1 >= 0, and the l3 bound.

    Feasible iff all four profile conditions confirm, ``l1 >= 0`` certifies
    on [epsilon, 1], and ``l3 >= (a^2+a) * epsilon**(2m) * (1 - 1e-9)``
    certifies.  gamma plays no role here; it is a device of the sufficient
    route only.  Indeterminate certifications make the report indeterminate
    rather than infeasible.
    """
    eps = params.epsilon
    region = Interval(eps, 1.0)
    checks = dict(lemma31_check(params, tol=tol))

    checks["l1_direct"] = certify_sign(build_l("l1", params), region, ">=", tol=tol)

    a = params.alpha
    bound = (a * a + a) * math.pow(eps, params.m) ** 2
    l3_shifted = build_l("l3", params) - PowerSum.constant(bound * (1.0 - _L3_SLACK))
    checks["l3_lower_bound"] = certify_sign(l3_shifted, region, ">=", tol=tol)

    overall, failing = _aggregate(checks, DIRECT_KEYS)
    return ConditionReport(checks=checks, overall=overall, failing_key=failing)
