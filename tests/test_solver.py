import math
import re

import numpy as np
import pytest

from carleman_cone.conditions import direct_feasibility
from carleman_cone.solver import (
    AllInfeasibleError,
    NonConvergenceError,
    SingularJacobianError,
    _COND_LIMIT,
    _jacobian_critical,
    _newton,
    _solve_linear,
    frontier_epsilon,
    residuals_critical,
    scan_frontier,
    solve_critical_system,
    solve_gamma1,
    uniqueness_horizon,
)
from carleman_cone.weights import WeightParams


def elimination_bisection_oracle(m_lo=2.4, m_hi=2.5, tol=1e-14):
    """Independent root of the critical system.

    Eliminate e via the second equation and the gamma-square combination via
    the third (q = 4 - m / (1 - s), s = ((m-1)/(m+1))**(m/2)), then bisect
    the first equation's residual in m.
    """

    def residual_one(m):
        s = ((m - 1.0) / (m + 1.0)) ** (m / 2.0)
        q = 4.0 - m / (1.0 - s)
        g = 2.0 * math.sqrt(q / (m - 1.0))
        return 4.0 * (2.0 * g - 1.0) - g * g * (4.0 - q)

    lo, hi = m_lo, m_hi
    f_lo = residual_one(lo)
    assert (f_lo > 0) != (residual_one(hi) > 0)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (residual_one(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    e = math.sqrt((m - 1.0) / (m + 1.0))
    q = 4.0 - m / (1.0 - e ** m)
    gamma = 2.0 * math.sqrt(q / (m - 1.0))
    return gamma, m, e


def mp_residuals(gamma, m, e):
    """The critical system's residuals, in the arithmetic of the arguments (mpmath)."""
    q = gamma ** 2 * (m - 1) / 4
    return [4 * (2 * gamma - 1) - gamma ** 2 * (4 - q),
            (m - 1) / (m + 1) - e ** 2,
            (4 - q - m) - (4 - q) * e ** m]


class TestJacobian:
    @pytest.mark.parametrize("point", [
        (0.80, 2.45, 0.65), (1.0, 2.39, 0.64), (1.0, 2.1, 0.3),
        (0.6, 2.9, 0.9), (0.95, 2.5, 0.5), (0.7, 2.2, 0.1),
    ])
    def test_matches_mpmath_derivatives(self, point):
        mpmath = pytest.importorskip("mpmath")
        jac = _jacobian_critical(*point)
        with mpmath.workdps(30):
            x = [mpmath.mpf(v) for v in point]
            for j in range(3):
                for i in range(3):
                    def r_i(t, i=i, j=j):
                        y = list(x)
                        y[j] = t
                        return mp_residuals(*y)[i]
                    ref = float(mpmath.diff(r_i, x[j]))
                    assert abs(jac[i][j] - ref) <= 1e-12 * abs(ref), (i, j, jac[i][j], ref)


class TestLinearSolve:
    @pytest.mark.parametrize("point", [(0.80, 2.45, 0.65), (1.0, 2.1, 0.3), (0.7, 2.2, 0.1)])
    def test_step_and_inverse_match_numpy(self, point):
        jac = _jacobian_critical(*point)
        b = list(residuals_critical(*point))
        step, *inv_cols = _solve_linear(jac, [b, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(step, np.linalg.solve(jac, b), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(np.transpose(inv_cols), np.linalg.inv(jac),
                                   rtol=1e-13, atol=1e-15)

    def test_zero_pivot_is_singular(self):
        assert _solve_linear([[1.0, 2.0], [2.0, 4.0]], [[1.0, 3.0]]) is None


class TestSingularJacobian:
    """``_newton`` refuses a Jacobian whose infinity-norm condition number exceeds the limit."""

    def test_rank_deficient(self):
        with pytest.raises(SingularJacobianError):
            _newton(lambda x: (x[0] + 2.0 * x[1] - 1.0, 2.0 * x[0] + 4.0 * x[1] - 3.0),
                    lambda x: [[1.0, 2.0], [2.0, 4.0]], (0.0, 0.0), 1e-12, 10)

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_limit(self, scale):
        # J = diag(1, d) has |J| = 1 and |J^-1| = 1/d in the infinity norm
        d = 1.0 / (_COND_LIMIT * scale)
        args = (lambda x: (x[0] - 1.0, d * (x[1] - 2.0)),
                lambda x: [[1.0, 0.0], [0.0, d]], (0.0, 0.0), 1e-12, 10)
        if scale > 1.0:
            with pytest.raises(SingularJacobianError, match=r"exceeds 1e\+14 at \(0\.0, 0\.0\)"):
                _newton(*args)
        else:
            assert _newton(*args) == ([1.0, 2.0], 1)


class TestResiduals:
    def test_gamma_one_first_residual(self):
        for m in (2.1, 2.46, 2.9):
            r1, _, _ = residuals_critical(1.0, m, 0.5)
            assert r1 == pytest.approx((m - 1.0) / 4.0, rel=1e-12)

    def test_second_residual_zero_at_matching_e(self):
        r2 = residuals_critical(0.9, 2.999, math.sqrt(1.999 / 3.999))[1]
        assert r2 == pytest.approx(0.0, abs=1e-15)

    def test_rounded_headline_values_leave_small_residuals(self):
        r1, r2, r3 = residuals_critical(0.8092, 2.4600, 0.6495)
        assert abs(r2) < 5e-4
        assert abs(r3) < 5e-3
        assert abs(r1) < 2e-2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            residuals_critical(0.4, 2.5, 0.5)
        with pytest.raises(ValueError):
            residuals_critical(0.9, 3.2, 0.5)
        with pytest.raises(ValueError):
            residuals_critical(0.9, 2.5, 1.5)


class TestSolveCriticalSystem:
    def test_reproduces_headline_values(self):
        res = solve_critical_system(init=(0.80, 2.45, 0.65), tol=1e-12)
        assert res.converged
        assert max(abs(r) for r in res.residuals) <= 1e-12
        assert res.m == pytest.approx(2.4600, abs=0.02)
        assert res.gamma == pytest.approx(0.8092, abs=0.02)
        assert res.epsilon0 == pytest.approx(0.6495, abs=0.01)
        assert res.theta_deg == pytest.approx(98.99, abs=0.5)

    def test_agrees_with_elimination_oracle(self):
        res = solve_critical_system(tol=1e-13)
        gamma, m, e = elimination_bisection_oracle()
        assert abs(res.gamma - gamma) <= 1e-10
        assert abs(res.m - m) <= 1e-10
        assert abs(res.epsilon0 - e) <= 1e-10

    def test_epsilon_consistent_with_m(self):
        res = solve_critical_system()
        assert res.epsilon0 == pytest.approx(
            math.sqrt((res.m - 1.0) / (res.m + 1.0)), rel=1e-12
        )

    def test_far_init_converges_or_raises(self):
        try:
            res = solve_critical_system(init=(0.99, 2.9, 0.7))
        except NonConvergenceError:
            return
        assert max(abs(r) for r in res.residuals) <= 1e-12

    def test_never_returns_nonroot(self):
        with pytest.raises(NonConvergenceError):
            solve_critical_system(init=(0.99, 2.9, 0.7), max_iter=1)

    def test_root_matches_mpmath_findroot(self):
        mpmath = pytest.importorskip("mpmath")
        res = solve_critical_system()
        with mpmath.workdps(50):
            root = mpmath.findroot(mp_residuals, (0.80, 2.45, 0.65))
        for got, ref in zip((res.gamma, res.m, res.epsilon0), root):
            assert abs(got - float(ref)) <= 1e-13


class TestGamma1:
    def test_corner_values(self):
        m, eps0 = solve_gamma1(tol=1e-10)
        assert m == pytest.approx(2.39, abs=0.02)
        assert eps0 == pytest.approx(0.64, abs=0.01)

    def test_root_matches_mpmath_findroot(self):
        mpmath = pytest.importorskip("mpmath")
        m, eps0 = solve_gamma1()
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda p, e: mp_residuals(mpmath.mpf(1), p, e)[1:],
                                   (2.45, 0.65))
        assert abs(m - float(root[0])) <= 1e-13
        assert abs(eps0 - float(root[1])) <= 1e-13

    def test_tol_below_float_floor_raises(self):
        # the message names the residual Newton stalled at and the tol it missed
        with pytest.raises(NonConvergenceError) as info:
            solve_gamma1(tol=1e-17)
        stalled = re.search(r"max residual stalled at (\S+), above tol 1e-17", str(info.value))
        assert stalled and 1e-17 < float(stalled.group(1)) < 1e-15

    def test_g1_endpoint(self):
        assert math.sqrt((3.0 - 1.0) / (3.0 + 1.0)) == pytest.approx(0.70711, abs=1e-5)

    def test_left_end_signs(self):
        g1 = math.sqrt(1.36 / 3.36)
        g2 = ((17.0 - 5.0 * 2.36) / (17.0 - 2.36)) ** (1.0 / 2.36)
        assert g1 == pytest.approx(0.6362, abs=1e-4)
        assert g2 == pytest.approx(0.6450, abs=1e-4)
        assert g1 - g2 < 0


class TestFrontier:
    def test_profile_family(self):
        res = frontier_epsilon("beta_eq_m", alpha=1.999, m=2.46, tol=1e-4)
        cap = math.sqrt(1.46 / 3.46)
        assert 0.6395 <= res.epsilon_sup <= cap + 1e-6
        # bracket invariants re-checked with fresh certifier calls
        lo, hi = res.bracket.lo, res.bracket.hi
        p_lo = WeightParams(m=2.46, alpha=1.999, gamma=1.0, epsilon=lo)
        p_hi = WeightParams(m=2.46, alpha=1.999, gamma=1.0, epsilon=hi)
        assert direct_feasibility(p_lo).overall == "feasible"
        assert direct_feasibility(p_hi).overall != "feasible"

    def test_comparison_family(self):
        res = frontier_epsilon("beta_eq_alpha", alpha=1.999, tol=1e-4)
        assert 0.55 <= res.epsilon_sup <= math.sqrt(1.0 / 3.0) + 1e-6
        # also below the boundary law for exponent alpha
        assert res.epsilon_sup <= math.sqrt(0.999 / 2.999) + 1e-9

    def test_boundary_law_cap(self):
        res = frontier_epsilon("beta_eq_m", alpha=1.999, m=2.8, tol=1e-3)
        assert res.epsilon_sup <= math.sqrt(1.8 / 3.8) + 1e-9

    def test_high_m_exploratory(self):
        # near m = 3 the law cap tends to sqrt(1/2); record, do not assert
        res = frontier_epsilon("beta_eq_m", alpha=1.999, m=2.999, tol=1e-3)
        assert res.epsilon_sup <= math.sqrt(1.999 / 3.999) + 1e-9

    def test_bad_family_and_ranges(self):
        with pytest.raises(ValueError):
            frontier_epsilon("beta_eq_q", alpha=1.999)
        with pytest.raises(ValueError):
            frontier_epsilon("beta_eq_m", alpha=1.999, m=3.4)
        with pytest.raises(ValueError):
            frontier_epsilon("beta_eq_m", alpha=2.0, m=2.46)


class TestScan:
    def test_single_point_matches_frontier(self):
        rows = scan_frontier([2.46], alpha=1.999, tol=1e-3)
        assert len(rows) == 1
        res = frontier_epsilon("beta_eq_m", alpha=1.999, m=2.46, tol=1e-3)
        assert rows[0].epsilon_sup == pytest.approx(res.epsilon_sup, abs=2e-3)
        assert rows[0].theta_deg == pytest.approx(res.theta_deg, abs=0.2)

    def test_rows_bounded_by_law(self):
        rows = scan_frontier([2.1, 2.46, 2.9], alpha=1.999, tol=1e-3)
        for row in rows:
            assert row.epsilon_sup is not None
            cap = math.sqrt((row.m - 1.0) / (row.m + 1.0))
            assert row.epsilon_sup <= cap + 1e-9

    def test_empty_grid(self):
        assert scan_frontier([], alpha=1.999) == []


class TestHorizon:
    def test_M_one(self):
        t1, seq = uniqueness_horizon(1.0, 3)
        assert t1 == 1.0 / 256.0
        assert seq[0] == t1
        assert len(seq) == 4

    def test_M_half(self):
        t1, _ = uniqueness_horizon(0.5, 0)
        assert t1 == 1.0 / 128.0

    def test_closed_form(self):
        t1, seq = uniqueness_horizon(1.0, 1000)
        for k, tk in enumerate(seq, start=1):
            assert 1.0 - tk == pytest.approx((1.0 - t1) ** k, rel=1e-12)

    def test_strictly_increasing_below_one(self):
        _, seq = uniqueness_horizon(2.0, 500)
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert all(v < 1.0 for v in seq)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            uniqueness_horizon(0.0, 5)
        with pytest.raises(ValueError):
            uniqueness_horizon(1.0, -1)
