import math

import numpy as np
import pytest

from carleman_cone.algebra import PowerSum, SignKind
from carleman_cone.conditions import (
    DIRECT_KEYS,
    build_l,
    build_lemma31,
    direct_feasibility,
    gamma_condition,
    l1_boundary_law,
    lemma31_check,
    sufficient_route_check,
)
from carleman_cone.weights import WeightParams

PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)


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
        third = build_lemma31(PARAMS)[2]
        assert third.coefficient(m) == pytest.approx((m - a) ** 2 + 2 * (m - a), rel=1e-12)
        assert third.coefficient(0.0) == pytest.approx(
            (2 * a - a * a) * eps ** m, rel=1e-12
        )

    def test_fourth_expands_to_closed_form(self):
        m, a, eps = PARAMS.m, PARAMS.alpha, PARAMS.epsilon
        fourth = build_lemma31(PARAMS)[3]
        assert fourth.coefficient(2 * m - 2) == pytest.approx(
            m * ((2 * m - m * m) - (2 * a - a * a)), rel=1e-12
        )
        assert fourth.coefficient(m - 2) == pytest.approx(
            -(2 * a - a * a) * (m * m - m) * eps ** m, rel=1e-12
        )

    def test_point_evaluation_oracle(self):
        rng = np.random.default_rng(53)
        exprs = build_lemma31(PARAMS)
        for h in rng.uniform(PARAMS.epsilon, 1.0, size=100):
            expected = direct_eval_lemma31(PARAMS, float(h))
            for built, want in zip(exprs, expected):
                assert built.eval(float(h)) == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestLemma31Check:
    def test_core_params_all_certified(self):
        checks = lemma31_check(PARAMS)
        assert checks["lemma31_i"].kind is SignKind.NON_NEGATIVE_WITH_ZEROS
        assert checks["lemma31_ii"].kind is SignKind.POSITIVE
        assert checks["lemma31_iii"].kind is SignKind.POSITIVE
        assert checks["lemma31_iv"].confirms("<=")

    def test_fourth_negative_at_eps(self):
        fourth = build_lemma31(PARAMS)[3]
        assert fourth.eval(PARAMS.epsilon) < 0.0

    def test_second_positive_everywhere(self):
        checks = lemma31_check(PARAMS)
        assert checks["lemma31_ii"].margin > 0.0

    def test_alpha_family_certifies(self):
        # profile exponent equal to alpha (comparison family)
        p = WeightParams(m=1.999, alpha=1.999, gamma=1.0, epsilon=0.5)
        checks = lemma31_check(p)
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
        for key in DIRECT_KEYS:
            assert report.confirmed(key)

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


# Verdicts, margins, witnesses and eval_interval call counts recorded with
# the per-operation interval arithmetic (reference_eval_interval in
# test_algebra.py), at alpha = 1.999: a feasible point, a point refuted at
# h = epsilon by the boundary law, one that bisection refutes, and a
# feasible point just below the m = 2.9 frontier.
RECORDED = [
    ((2.46, 0.6), "feasible", 186, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 2.8394716573791805, None),
        "lemma31_iii": ("POSITIVE", 0.32346638770911307, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 0.629090172586764, None),
        "l1_direct": ("POSITIVE", 0.0070537620828647835, None),
        "l3_lower_bound": ("POSITIVE", 0.10284455610664124, None),
    }),
    ((2.46, 0.8), "infeasible", 6, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.241226320127367, None),
        "lemma31_iii": ("POSITIVE", 0.6564149303666159, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.4572498246966499, None),
        "l1_direct": ("NEGATIVE_SOMEWHERE", -1.9017510199100198, 0.8),
        "l3_lower_bound": ("NEGATIVE_SOMEWHERE", -0.8643032084154905, 0.8),
    }),
    ((2.9, 0.6323693847656251), "infeasible", 2392, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.647752395106563, None),
        "lemma31_iii": ("POSITIVE", 0.6925002905580919, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.3295088384077218, None),
        "l1_direct": ("NEGATIVE_SOMEWHERE", -0.0004273194751789333, 0.9712788581848144),
        "l3_lower_bound": ("POSITIVE", 0.07338197047353605, None),
    }),
    ((2.9, 0.6323095703125), "feasible", 28456, {
        "lemma31_i": ("NON_NEGATIVE_WITH_ZEROS", 0.0, None),
        "lemma31_ii": ("POSITIVE", 3.6474418639254913, None),
        "lemma31_iii": ("POSITIVE", 0.6923103515207596, None),
        "lemma31_iv": ("NON_POSITIVE_WITH_ZEROS", 1.3290310312903475, None),
        "l1_direct": ("POSITIVE", 8.912831361840282e-09, None),
        "l3_lower_bound": ("POSITIVE", 0.07372737514519072, None),
    }),
]


@pytest.mark.parametrize("point, overall, calls, checks", RECORDED)
def test_direct_feasibility_matches_recorded(monkeypatch, point, overall, calls, checks):
    seen = []
    original = PowerSum.eval_interval

    def counted(self, region):
        seen.append(region)
        return original(self, region)

    monkeypatch.setattr(PowerSum, "eval_interval", counted)
    m, eps = point
    rep = direct_feasibility(WeightParams(m=m, alpha=1.999, gamma=1.0, epsilon=eps))
    assert rep.overall == overall
    assert len(seen) == calls == sum(v.nodes for v in rep.checks.values())
    got = {k: (v.kind.name, v.margin, v.witness) for k, v in rep.checks.items()}
    assert got == checks
