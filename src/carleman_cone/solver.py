"""Root finding and frontier search over the weight-family parameters.

Two solvers live here: one damped Newton iteration with a closed-form
Jacobian, for the critical system (three of ``conditions``' own equations
in (gamma, m, epsilon0), at alpha = 2) and for its gamma = 1 corner; and a
feasibility-frontier bisection that finds the supremum opening parameter
epsilon for which the direct certificate still passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Interval
from .conditions import WeightParams, build_l, direct_feasibility, gamma_condition, l1_boundary_law

__all__ = [
    "SolverResult",
    "FrontierResult",
    "FrontierRow",
    "NonConvergenceError",
    "SingularJacobianError",
    "AllInfeasibleError",
    "residuals_critical",
    "solve_critical_system",
    "solve_gamma1",
    "frontier_epsilon",
    "scan_frontier",
]

DEFAULT_INIT = (0.80, 2.45, 0.65)

_MAX_HALVINGS = 30
_COND_LIMIT = 1e14

_EPS_RANGE = (0.01, 0.99)  # the frontier bisection's initial bracket in epsilon


class NonConvergenceError(RuntimeError):
    """Newton iteration exhausted max_iter without meeting the tolerance."""


class SingularJacobianError(RuntimeError):
    """Newton's Jacobian is numerically singular."""


class AllInfeasibleError(RuntimeError):
    """Feasibility already fails at the smallest probed epsilon."""


@dataclass(frozen=True)
class SolverResult:
    gamma: float
    m: float
    epsilon0: float
    theta_deg: float
    residuals: tuple[float, float, float]
    iterations: int


@dataclass(frozen=True)
class FrontierResult:
    family: str                 # "beta_eq_m" or "beta_eq_alpha"
    alpha: float
    epsilon_sup: float
    bracket: Interval
    evaluations: int
    m: Optional[float] = None   # set for the beta_eq_m family

    @property
    def theta_deg(self) -> float:
        return math.degrees(2.0 * math.acos(self.epsilon_sup))


@dataclass(frozen=True)
class FrontierRow:
    m: float
    epsilon_sup: Optional[float]
    theta_deg: Optional[float]
    error: Optional[str] = None


def residuals_critical(gamma: float, m: float, e: float) -> tuple[float, float, float]:
    """Residuals of the critical system: three of ``conditions``' own, at alpha = 2.

    They are ``gamma_condition``, ``l1_boundary_law / (m+1)`` and ``l2(1)``.  ``WeightParams``
    rejects gamma and e out of range; m is held to (2, 3) here, as it admits m down to 1.
    """
    if not 2.0 < m < 3.0:
        raise ValueError(f"m must lie in (2, 3), got {m}")
    p = WeightParams(m=m, alpha=2.0, gamma=gamma, epsilon=e)
    return gamma_condition(p), l1_boundary_law(p) / (m + 1.0), build_l("l2", p).eval(1.0)


def _jacobian_critical(gamma: float, m: float, e: float) -> list[list[float]]:
    """Closed-form Jacobian of ``residuals_critical`` in (gamma, m, e), as rows."""
    g2 = gamma * gamma
    q = g2 * (m - 1.0) / 4.0
    em = math.pow(e, m)
    return [
        [8.0 - 8.0 * gamma + g2 * gamma * (m - 1.0), g2 * g2 / 4.0, 0.0],
        [0.0, 2.0 / ((m + 1.0) * (m + 1.0)), -2.0 * e],
        [-0.5 * gamma * (m - 1.0) * (1.0 - em),
         -0.25 * g2 * (1.0 - em) - (4.0 - q) * em * math.log(e) - 1.0,
         -(4.0 - q) * m * em / e],
    ]


def _solve_linear(a: Sequence[Sequence[float]],
                  rhs: Sequence[Sequence[float]]) -> Optional[list[list[float]]]:
    """Solutions x of ``a x = b``, one per right-hand side b in ``rhs``.

    Gaussian elimination with partial pivoting; one elimination serves every
    right-hand side.  Returns None when a pivot is exactly zero.
    """
    n = len(a)
    rows = [list(a[i]) + [b[i] for b in rhs] for i in range(n)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        if rows[p][k] == 0.0:
            return None
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [u - f * v for u, v in zip(rows[i], rows[k])]
    xs = [[0.0] * n for _ in rhs]
    for i in reversed(range(n)):
        for j, x in enumerate(xs):
            x[i] = (rows[i][n + j] - sum(rows[i][c] * x[c] for c in range(i + 1, n))) / rows[i][i]
    return xs


def _norm_inf(rows) -> float:
    """Infinity norm of a matrix given by its rows: the largest absolute row sum."""
    return max(sum(abs(v) for v in row) for row in rows)


def _newton(residual: Callable[[list[float]], Sequence[float]],
            jacobian: Callable[[list[float]], list[list[float]]],
            init: Sequence[float], tol: float, max_iter: int) -> tuple[list[float], int]:
    """Damped Newton; returns the root and the number of steps taken.

    The step is halved (up to 30 times) whenever the residual norm fails to
    decrease or ``residual`` raises ValueError (an iterate left the domain).
    Convergence means ``max |R_i| <= tol``; anything else raises
    NonConvergenceError rather than silently returning a non-root.  A
    Jacobian whose infinity-norm condition number ``|J| |J^-1|`` exceeds
    ``_COND_LIMIT`` raises SingularJacobianError; the elimination that gives
    the step gives ``J^-1`` too.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = [float(v) for v in init]
    r = residual(x)
    for steps in range(max_iter + 1):
        cur = max(abs(v) for v in r)
        if cur <= tol:
            return x, steps
        if steps == max_iter:
            raise NonConvergenceError(
                f"no convergence after {max_iter} iterations (max residual {cur:.3g})"
            )
        jac = jacobian(x)
        eye = [[float(i == j) for j in range(len(x))] for i in range(len(x))]
        sol = _solve_linear(jac, [[-v for v in r]] + eye)
        # sol[1:] are the columns of J^-1, so zip(*sol[1:]) are its rows
        if sol is None or not _norm_inf(jac) * _norm_inf(zip(*sol[1:])) <= _COND_LIMIT:
            raise SingularJacobianError(
                f"Jacobian condition number exceeds {_COND_LIMIT:g} at {tuple(x)}"
            )
        step = sol[0]

        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = [u + lam * v for u, v in zip(x, step)]
            try:
                r_cand = residual(cand)
            except ValueError:
                lam *= 0.5
                continue
            if max(abs(v) for v in r_cand) < cur:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError(f"max residual stalled at {cur:.3g}, above tol {tol:.3g}: "
                                      "damping exhausted without residual decrease")
        x, r = cand, r_cand


def solve_critical_system(
    init: Sequence[float] = DEFAULT_INIT,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolverResult:
    """Damped Newton on the critical system with its closed-form Jacobian."""
    (gamma, m, e), steps = _newton(lambda x: residuals_critical(*x),
                                   lambda x: _jacobian_critical(*x), init, tol, max_iter)
    return SolverResult(gamma=gamma, m=m, epsilon0=e, theta_deg=math.degrees(2.0 * math.acos(e)),
                        residuals=residuals_critical(gamma, m, e), iterations=steps)


def solve_gamma1(tol: float = 1e-10) -> tuple[float, float]:
    """The gamma = 1 corner: damped Newton on ``R2 = R3 = 0`` at gamma = 1.

    Returns ``(m, epsilon0)`` with both residuals at most ``tol``; at the
    root ``epsilon0 = sqrt((m-1)/(m+1))`` and ``epsilon0**m = (17-5m)/(17-m)``.
    """
    (m, e), _ = _newton(lambda x: residuals_critical(1.0, *x)[1:],
                        lambda x: [row[1:] for row in _jacobian_critical(1.0, *x)[1:]],
                        DEFAULT_INIT[1:], tol, 100)
    return m, e


def _l1_frontier(exponent: float, alpha: float) -> Callable[[float], bool]:
    """Plain-float stand-in for the certificate: is ``l1``'s minimum over [eps, 1] >= 0?

    The minimum is the least of 33 samples and of 8 Newton steps on ``l1'``
    from it.  Past the boundary law ``sqrt((m-1)/(m+1))`` it is negative, as
    ``l1(eps)`` is; where it is still >= 0 just below the law, the law answers.
    """
    def holds(eps: float) -> bool:
        l1 = build_l("l1", WeightParams(m=exponent, alpha=alpha, gamma=1.0, epsilon=eps))
        dl1 = l1.derivative()
        d2l1 = dl1.derivative()
        least, h = min((l1.eval(x), x) for x in (eps + (1.0 - eps) * i / 32 for i in range(33)))
        for _ in range(8):
            curvature = d2l1.eval(h)
            if not curvature > 0.0:
                break
            h = min(max(h - dl1.eval(h) / curvature, eps), 1.0)
        return min(least, l1.eval(h)) >= 0.0

    law = math.sqrt((exponent - 1.0) / (exponent + 1.0))
    return (lambda eps: eps <= law) if holds(law * (1.0 - 1e-10)) else holds


def _bisect(feasible: Callable[[float], bool], tol: float) -> tuple[float, float]:
    """The frontier bisection's final bracket, given that its lowest end is feasible."""
    lo, hi = _EPS_RANGE
    if feasible(hi):
        lo = hi  # the frontier sits at (or beyond) the top of the probed range
    # a tol below the float spacing ends at a bracket one ulp wide
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo, hi


def frontier_epsilon(
    family: str,
    alpha: float,
    m: Optional[float] = None,
    tol: float = 1e-4,
) -> FrontierResult:
    """Supremum epsilon for which the direct certificate passes.

    Bisects epsilon over (0.01, 0.99) on the predicate
    ``direct_feasibility(params).overall == "feasible"``; indeterminate
    verdicts count as infeasible, so the result is a certified lower bound
    on the true frontier.  ``family`` selects the profile exponent: the
    given ``m`` for "beta_eq_m", or ``alpha`` itself for "beta_eq_alpha".

    The bisection assumes, as it always has, that feasibility is monotone in
    epsilon: a probe at or below an epsilon certified feasible counts as
    feasible, one at or above an epsilon certified infeasible as infeasible.
    It runs first on ``_l1_frontier``, and the ends of the bracket that gives
    are certified; where ``l1`` binds, as on every frontier the tests cover,
    no other probe needs a certificate, and else at most 2 more are run than
    the bisection alone runs.  ``evaluations`` counts the certificates run.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if family == "beta_eq_m":
        if m is None or not 2.0 < m < 3.0:
            raise ValueError(f"beta_eq_m needs m in (2, 3), got {m}")
        exponent = m
    elif family == "beta_eq_alpha":
        exponent = alpha
    else:
        raise ValueError(f"unknown family {family!r}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    evaluations = 0
    sure_lo, sure_hi = 0.0, 1.0  # the largest epsilon certified feasible, the least infeasible

    def feasible(eps: float) -> bool:
        nonlocal evaluations, sure_lo, sure_hi
        if sure_lo < eps < sure_hi:
            evaluations += 1
            params = WeightParams(m=exponent, alpha=alpha, gamma=1.0, epsilon=eps)
            if direct_feasibility(params).overall == "feasible":
                sure_lo = eps
            else:
                sure_hi = eps
        return eps <= sure_lo

    for eps in _bisect(_l1_frontier(exponent, alpha), tol):
        feasible(eps)
    if not feasible(_EPS_RANGE[0]):
        raise AllInfeasibleError(f"infeasible already at epsilon = {_EPS_RANGE[0]}")
    lo, hi = _bisect(feasible, tol)
    # Report the last certified-feasible point: the result is then itself a
    # certified angle and stays below the boundary-law cap.
    return FrontierResult(
        family=family,
        alpha=alpha,
        epsilon_sup=lo,
        bracket=Interval(lo, hi),
        evaluations=evaluations,
        m=m if family == "beta_eq_m" else None,
    )


def scan_frontier(m_grid: Sequence[float], alpha: float, tol: float = 1e-4) -> list[FrontierRow]:
    """Frontier sweep over profile exponents; infeasible rows are recorded, not fatal."""
    rows: list[FrontierRow] = []
    for m in m_grid:
        try:
            res = frontier_epsilon("beta_eq_m", alpha=alpha, m=m, tol=tol)
        except AllInfeasibleError:
            rows.append(FrontierRow(m=m, epsilon_sup=None, theta_deg=None, error="all_infeasible"))
            continue
        rows.append(FrontierRow(m=m, epsilon_sup=res.epsilon_sup, theta_deg=res.theta_deg))
    return rows
