import itertools
import math
import random

import numpy as np
import pytest

from carleman_cone import conditions
from carleman_cone.algebra import PowerSum, SignKind, SignVerdict
from carleman_cone.conditions import (
    DIRECT_CLAIMS,
    DIRECT_KEYS,
    build_l,
    direct_feasibility,
    gamma_condition,
    l1_boundary_law,
    sufficient_route_check,
)
from carleman_cone.weights import WeightParams

PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)
LEMMA31_KEYS = ("lemma31_i", "lemma31_ii", "lemma31_iii", "lemma31_iv")


def direct_eval_lemma31(params, h):
    """Direct formula evaluation of the four profile conditions."""
    m, a, eps = params.m, params.alpha, params.epsilon
    f = h ** m - eps ** m
    fp = m * h ** (m - 1.0)
    fpp = m * (m - 1.0) * h ** (m - 2.0)
    return (
        f,
        fpp,
        (a * a - 2 * a) * f + (3 - 2 * a) * h * fp + h * h * fpp,
        (a - 1) ** 2 * fp * fp + (2 * a - a * a) * f * fpp - h * fp * fpp,
    )


class TestBuildLemma31:
    def test_third_expands_to_closed_form(self):
        m, a, eps = PARAMS.m, PARAMS.alpha, PARAMS.epsilon
        third = build_l("lemma31_iii", PARAMS)
        assert third.coefficient(m) == pytest.approx((m - a) ** 2 + 2 * (m - a), rel=1e-12)
        assert third.coefficient(0.0) == pytest.approx(
            (2 * a - a * a) * eps ** m, rel=1e-12
        )

    def test_fourth_expands_to_closed_form(self):
        m, a, eps = PARAMS.m, PARAMS.alpha, PARAMS.epsilon
        fourth = build_l("lemma31_iv", PARAMS)
        assert fourth.coefficient(2 * m - 2) == pytest.approx(
            m * ((2 * m - m * m) - (2 * a - a * a)), rel=1e-12
        )
        assert fourth.coefficient(m - 2) == pytest.approx(
            -(2 * a - a * a) * (m * m - m) * eps ** m, rel=1e-12
        )

    def test_point_evaluation_oracle(self):
        rng = np.random.default_rng(53)
        exprs = [build_l(key, PARAMS) for key in LEMMA31_KEYS]
        for h in rng.uniform(PARAMS.epsilon, 1.0, size=100):
            expected = direct_eval_lemma31(PARAMS, float(h))
            for built, want in zip(exprs, expected):
                assert built.eval(float(h)) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestLemma31Check:
    def test_core_params_all_certified(self):
        checks = direct_feasibility(PARAMS).checks
        assert checks["lemma31_i"].kind is SignKind.NON_NEGATIVE_WITH_ZEROS
        assert checks["lemma31_ii"].kind is SignKind.POSITIVE
        assert checks["lemma31_iii"].kind is SignKind.POSITIVE
        assert checks["lemma31_iv"].confirms("<=")

    def test_fourth_negative_at_eps(self):
        fourth = build_l("lemma31_iv", PARAMS)
        assert fourth.eval(PARAMS.epsilon) < 0.0

    def test_second_positive_everywhere(self):
        checks = direct_feasibility(PARAMS).checks
        assert checks["lemma31_ii"].margin > 0.0

    def test_alpha_family_certifies(self):
        # profile exponent equal to alpha (comparison family)
        p = WeightParams(m=1.999, alpha=1.999, gamma=1.0, epsilon=0.5)
        checks = direct_feasibility(p).checks
        for key in ("lemma31_i", "lemma31_ii", "lemma31_iii"):
            assert checks[key].confirms(">=")
        assert checks["lemma31_iv"].confirms("<=")


class TestGammaCondition:
    def test_gamma_one(self):
        for m in (2.1, 2.46, 2.9):
            p = WeightParams(m=m, alpha=2.0, gamma=1.0, epsilon=0.5)
            assert gamma_condition(p) == pytest.approx((m - 1.0) / 4.0, rel=1e-12)

    def test_near_critical_reference_values(self):
        p = WeightParams(m=2.46, alpha=2.0, gamma=0.8092, epsilon=0.6)
        margin = gamma_condition(p)
        assert margin == pytest.approx(0.0109, abs=2e-3)
        assert margin > 0.0

    def test_low_gamma_fails(self):
        p = WeightParams(m=2.46, alpha=2.0, gamma=0.51, epsilon=0.6)
        assert gamma_condition(p) == pytest.approx(-0.935, abs=1e-3)


class TestBuildL:
    def test_l3_identity(self):
        # l3 == (a^2+a) eps^(2m) + h^m l4 at the coefficient level
        a, m, eps = PARAMS.alpha, PARAMS.m, PARAMS.epsilon
        l3 = build_l("l3", PARAMS)
        l4 = build_l("l4", PARAMS)
        const = (a * a + a) * math.pow(eps, m) ** 2
        diff = l3 - PowerSum.monomial(1.0, m) * l4 - PowerSum.constant(const)
        assert diff.max_abs_coefficient() <= 1e-12 * l3.max_abs_coefficient()

    def test_l1_boundary_closed_form(self):
        # l1(eps) = (1 - eps^2) f'(eps)^2 m eps^(m-2) ((m-1) - (m+1) eps^2)
        m, eps = PARAMS.m, PARAMS.epsilon
        l1 = build_l("l1", PARAMS)
        fp = m * eps ** (m - 1.0)
        expected = (
            (1 - eps * eps) * fp * fp * m * eps ** (m - 2.0)
            * ((m - 1.0) - (m + 1.0) * eps * eps)
        )
        assert l1.eval(eps) == pytest.approx(expected, rel=1e-10)

    def test_boundary_law_sign_grid(self):
        for m in np.linspace(2.05, 2.95, 20):
            for eps in np.linspace(0.05, 0.95, 20):
                p = WeightParams(m=float(m), alpha=1.999, gamma=1.0, epsilon=float(eps))
                law = l1_boundary_law(p)
                if abs(law) < 1e-10:
                    continue
                l1 = build_l("l1", p)
                val = l1.eval(float(eps))
                if abs(val) > 1e-12 * l1.max_abs_coefficient():
                    assert (val > 0) == (law > 0)

    def test_unknown_expression(self):
        with pytest.raises(ValueError):
            build_l("l5", PARAMS)


class TestSufficientRoute:
    def test_core_params_pass(self):
        report = sufficient_route_check(PARAMS)
        assert report.overall == "feasible"

    def test_l2_at_eps_fails_for_large_eps(self):
        # sign of l2(eps) equals sign of (m-1)/(m+1) - eps^2
        p = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.66)
        assert (p.m - 1) / (p.m + 1) - 0.66 ** 2 < 0
        report = sufficient_route_check(p)
        assert report.overall == "infeasible"
        assert report.failing_key == "l2_at_eps"

    def test_gamma_one_corner(self):
        p = WeightParams(m=2.39, alpha=1.999, gamma=1.0, epsilon=0.63)
        report = sufficient_route_check(p)
        assert report.overall == "feasible"


class TestDirectFeasibility:
    def test_core_params_feasible(self):
        report = direct_feasibility(PARAMS)
        assert report.overall == "feasible"
        assert report.failing_key is None
        for key, claim in DIRECT_CLAIMS.items():
            assert report.checks[key].confirms(claim)

    def test_infeasible_beyond_threshold(self):
        p = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.67)
        report = direct_feasibility(p)
        assert report.overall == "infeasible"
        assert report.failing_key == "l1_direct"
        verdict = report.checks["l1_direct"]
        assert verdict.witness == pytest.approx(0.67, abs=1e-6)
        assert build_l("l1", p).eval(verdict.witness) < 0.0

    def test_small_eps_feasible(self):
        p = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.10)
        assert direct_feasibility(p).overall == "feasible"

    def test_route_implies_direct(self):
        for p in (
            PARAMS,
            WeightParams(m=2.39, alpha=1.999, gamma=1.0, epsilon=0.63),
            WeightParams(m=2.7, alpha=1.999, gamma=0.9, epsilon=0.5),
        ):
            if sufficient_route_check(p).overall == "feasible":
                assert direct_feasibility(p).overall == "feasible"

    def test_gamma_irrelevant(self):
        base = None
        for gamma in (0.6, 0.8092, 1.0):
            p = WeightParams(m=2.46, alpha=1.999, gamma=gamma, epsilon=0.62)
            rep = direct_feasibility(p)
            snapshot = (rep.overall, rep.failing_key,
                        tuple(rep.checks[k].kind for k in DIRECT_KEYS))
            if base is None:
                base = snapshot
            assert snapshot == base

    def test_monotone_in_eps(self):
        # once infeasible, stays infeasible for larger eps on a sampled grid
        for m, alpha in ((2.46, 1.999), (2.7, 1.9)):
            seen_infeasible = False
            for eps in np.linspace(0.1, 0.9, 17):
                p = WeightParams(m=m, alpha=alpha, gamma=1.0, epsilon=float(eps))
                feasible = direct_feasibility(p).overall == "feasible"
                if seen_infeasible:
                    assert not feasible
                if not feasible:
                    seen_infeasible = True

    def test_deterministic(self):
        p = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.67)
        r1 = direct_feasibility(p)
        r2 = direct_feasibility(p)
        assert r1 == r2

    def test_certifies_build_l_expressions_key_by_key(self, monkeypatch):
        # l1_direct is l1, and l3_lower_bound is l3 less (a^2+a) eps^(2m) (1 - 1e-9),
        # built as h^m l4 plus the slack, so it matches to rounding
        certified = force_direct_verdicts(monkeypatch)
        direct_feasibility(PARAMS)
        a, m, eps = PARAMS.alpha, PARAMS.m, PARAMS.epsilon
        bound = (a * a + a) * math.pow(eps, m) ** 2 * (1.0 - 1e-9)
        expected = {key: build_l(key, PARAMS) for key in LEMMA31_KEYS}
        expected["l1_direct"] = build_l("l1", PARAMS)
        l3 = build_l("l3", PARAMS)
        lower = l3 - PowerSum.constant(bound)
        assert list(certified) == list(DIRECT_KEYS)
        diff = certified.pop("l3_lower_bound") - lower
        assert diff.max_abs_coefficient() <= 1e-15 * l3.max_abs_coefficient()
        assert certified == expected

    def test_unresolved_key_makes_the_report_indeterminate(self, monkeypatch):
        force_direct_verdicts(monkeypatch, lemma31_iii=SignVerdict(SignKind.INDETERMINATE))
        report = direct_feasibility(PARAMS)
        assert (report.overall, report.failing_key) == ("indeterminate", "lemma31_iii")

    def test_a_refuted_key_outranks_an_earlier_unresolved_one(self, monkeypatch):
        force_direct_verdicts(
            monkeypatch, lemma31_ii=SignVerdict(SignKind.INDETERMINATE),
            l3_lower_bound=SignVerdict(SignKind.NEGATIVE_SOMEWHERE, margin=-1.0, witness=0.7))
        report = direct_feasibility(PARAMS)
        assert (report.overall, report.failing_key) == ("infeasible", "l3_lower_bound")
        assert report.checks["lemma31_ii"].kind is SignKind.INDETERMINATE


def force_direct_verdicts(monkeypatch, **forced):
    """Make the direct certificate's next run end with the given verdicts on the given keys.

    ``direct_feasibility`` calls ``certify_sign`` once per key, in
    ``DIRECT_KEYS`` order; the other keys keep their real verdicts.  Returns
    the expression the run certifies for each key, filled in as it goes.
    """
    original = conditions.certify_sign
    keys = iter(DIRECT_KEYS)
    certified = {}

    def certify_sign(p, *args, **kwargs):
        verdict = original(p, *args, **kwargs)
        key = next(keys)
        certified[key] = p
        return forced.get(key, verdict)

    monkeypatch.setattr(conditions, "certify_sign", certify_sign)
    return certified


# Verdicts, margins, witnesses and eval_interval call counts recorded with
# the per-operation interval arithmetic (reference_eval_interval in
# test_algebra.py), the certifier's centred bound and each key's closed form
# in E = eps^m, at alpha = 1.999: a
# feasible point, a point refuted at h = epsilon by the boundary law, one
# that bisection refutes, and a feasible point just below the m = 2.9
# frontier.  The calls are the nodes, plus for each node that its
# first-order enclosure leaves open a point enclosure at its midpoint and an
# enclosure of the derivative.
RECORDED = [
    ((2.46, 0.6), "feasible", 70, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 2.8394716573791805, None),
        "lemma31_iii": ("POSITIVE", 0.3234663877091131, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 0.6290901725867636, None),
        "l1_direct": ("POSITIVE", 0.000555315261079436, None),
        "l3_lower_bound": ("POSITIVE", 0.08823073348641122, None),
    }),
    ((2.46, 0.8), "infeasible", 6, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.241226320127367, None),
        "lemma31_iii": ("POSITIVE", 0.6564149303666161, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.4572498246966488, None),
        "l1_direct": ("NEGATIVE_SOMEWHERE", -1.901751019910017, 0.8),
        "l3_lower_bound": ("NEGATIVE_SOMEWHERE", -0.86430320841549, 0.8),
    }),
    ((2.9, 0.6323693847656251), "infeasible", 110, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.647752395106563, None),
        "lemma31_iii": ("POSITIVE", 0.6925002905580918, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.3295088384077216, None),
        "l1_direct": ("NEGATIVE_SOMEWHERE", -0.00042731947518248603, 0.9712788581848144),
        "l3_lower_bound": ("POSITIVE", 0.2717614492752283, None),
    }),
    ((2.9, 0.6323095703125), "feasible", 388, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.6474418639254913, None),
        "lemma31_iii": ("POSITIVE", 0.6923103515207595, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.3290310312903473, None),
        "l1_direct": ("POSITIVE", 2.1996596235580673e-06, None),
        "l3_lower_bound": ("POSITIVE", 0.27229549017473154, None),
    }),
]


@pytest.mark.parametrize("point, overall, calls, checks", RECORDED)
def test_direct_feasibility_matches_recorded(monkeypatch, point, overall, calls, checks):
    seen = []
    original = PowerSum.eval_interval

    def counted(self, lo, hi):
        seen.append(lo == hi)
        return original(self, lo, hi)

    monkeypatch.setattr(PowerSum, "eval_interval", counted)
    m, eps = point
    rep = direct_feasibility(WeightParams(m=m, alpha=1.999, gamma=1.0, epsilon=eps))
    assert rep.overall == overall
    centred = sum(seen)
    assert len(seen) == calls == sum(v.nodes for v in rep.checks.values()) + 2 * centred
    got = {k: (v.kind.name, v.margin, v.witness) for k, v in rep.checks.items()}
    assert got == checks


def test_certificate_near_the_double_root_closes():
    # at 7e-8 below the m = 2.9 frontier, l1's interior minimum is 8.5e-7;
    # first-order enclosures alone end INDETERMINATE at the node cap there,
    # and the centred bound certifies it in about 200 nodes
    rep = direct_feasibility(WeightParams(m=2.9, alpha=1.999, gamma=1.0, epsilon=0.6323338))
    assert rep.overall == "feasible"
    assert sum(v.nodes for v in rep.checks.values()) <= 2000


def product_rule_terms(params, h):
    """Each key of the ``conditions`` table at ``h`` by its product rule in f, f', f''.

    A key's value is the sum of the returned terms, its full expansion into
    monomials, and the sum of their magnitudes is the scale its rounding
    error is measured against.
    """
    m, a, g = params.m, params.alpha, params.gamma
    e = math.pow(params.epsilon, m)
    f, fp, fpp = [h ** m, -e], [m * h ** (m - 1.0)], [m * (m - 1.0) * h ** (m - 2.0)]
    hh, q = [h], [1.0, -h * h]

    def mul(*factors):
        return [math.prod(t) for t in itertools.product(*factors)]

    def scaled(c, terms):
        return [c * t for t in terms]

    return {
        "lemma31_i": f,
        "lemma31_ii": fpp,
        "lemma31_iii": (scaled(a * a - 2 * a, f) + scaled(3 - 2 * a, mul(hh, fp))
                        + mul(hh, hh, fpp)),
        "lemma31_iv": (scaled((a - 1) ** 2, mul(fp, fp)) + scaled(2 * a - a * a, mul(f, fpp))
                       + scaled(-1.0, mul(hh, fp, fpp))),
        "l1": (scaled(a ** 4, mul(f, f, f)) + scaled(-a * a, mul(hh, f, f, fp))
               + scaled(2 * a * a, mul(q, f, fp, fp)) + scaled(-2.0, mul(hh, q, fp, fp, fp))
               + mul(q, q, fp, fp, fpp)),
        "l2": (scaled(a * a - g * g * (m - 1) / 4, f) + scaled(-1.0, mul(hh, fp))
               + scaled(0.5, mul(q, fpp))),
        "l3": scaled(a * a + a, mul(f, f)) + scaled(-1.0, mul(hh, f, fp)) + mul(q, fp, fp),
        "l4": [(a * a + a - m * m - m) * h ** m, m * m * h ** (m - 2),
               -(2 * a * a + 2 * a - m) * e],
    }


def test_closed_forms_match_the_product_rule():
    # every tenth draw has m = 2, where l1's h^(3m-4), h^(2m-2) and h^m merge
    rng = random.Random(33)
    keys = tuple(product_rule_terms(PARAMS, 1.0))
    for i in range(2000):
        params = WeightParams(m=2.0 if i % 10 == 0 else rng.uniform(1.0 + 1e-9, 3.0 - 1e-9),
                              alpha=rng.uniform(1.0 + 1e-9, 2.0),
                              gamma=rng.uniform(0.5 + 1e-9, 1.0),
                              epsilon=rng.uniform(1e-9, 1.0 - 1e-9))
        built = {key: build_l(key, params) for key in keys}
        if params.m == 2.0:
            assert len(built["l1"].terms) == 4
        for h in (params.epsilon, 0.5 * (params.epsilon + 1.0), 1.0):
            for key, terms in product_rule_terms(params, h).items():
                err = abs(built[key].eval(h) - math.fsum(terms))
                assert err <= 1e-13 * math.fsum(map(abs, terms)), (key, params, h, err)


def test_certificates_construct_few_power_sums(monkeypatch):
    # each key is one closed-form PowerSum, with no product: a direct
    # certificate builds its six keys, the l3 bound from l4, the mirror's
    # negation and one derivative per key it bisects; a route certificate
    # builds l2, l4 and l4's first two derivatives
    built = []
    original = PowerSum.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PowerSum, "__post_init__", counted)
    params = WeightParams(m=2.46, alpha=1.99, gamma=0.8092, epsilon=0.6)
    direct_feasibility(params)
    assert len(built) <= 15
    built.clear()
    sufficient_route_check(params)
    assert len(built) <= 7
