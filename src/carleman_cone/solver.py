"""Root finding and frontier search over the weight-family parameters.

Two solvers live here: one damped Newton iteration with a closed-form
Jacobian, for the critical three-equation system linking (gamma, m,
epsilon0) and for its gamma = 1 corner; and a feasibility-frontier
bisection that finds the supremum opening parameter epsilon for which the
direct certificate still passes.  A small utility iterates the uniqueness
horizon ``T_{k+1} = (1 - T_k) T_1 + T_k`` toward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .algebra import Interval
from .conditions import WeightParams, direct_feasibility

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
    "uniqueness_horizon",
]

DEFAULT_INIT = (0.80, 2.45, 0.65)

_MAX_HALVINGS = 30
_COND_LIMIT = 1e14


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
    converged: bool


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
    """Residuals of the critical system at (gamma, m, e).

    R1 = 4(2g-1) - g^2 (4 - g^2 (m-1)/4)
    R2 = (m-1)/(m+1) - e^2
    R3 = (4 - g^2 (m-1)/4 - m) - (4 - g^2 (m-1)/4) e^m
    """
    if not 0.5 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (1/2, 1], got {gamma}")
    if not 2.0 < m < 3.0:
        raise ValueError(f"m must lie in (2, 3), got {m}")
    if not 0.0 < e < 1.0:
        raise ValueError(f"e must lie in (0, 1), got {e}")
    g2 = gamma * gamma
    q = g2 * (m - 1.0) / 4.0
    r1 = 4.0 * (2.0 * gamma - 1.0) - g2 * (4.0 - q)
    r2 = (m - 1.0) / (m + 1.0) - e * e
    r3 = (4.0 - q - m) - (4.0 - q) * math.pow(e, m)
    return r1, r2, r3


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
                        residuals=residuals_critical(gamma, m, e), iterations=steps,
                        converged=True)


def solve_gamma1(tol: float = 1e-10) -> tuple[float, float]:
    """The gamma = 1 corner: damped Newton on ``R2 = R3 = 0`` at gamma = 1.

    Returns ``(m, epsilon0)`` with both residuals at most ``tol``; at the
    root ``epsilon0 = sqrt((m-1)/(m+1))`` and ``epsilon0**m = (17-5m)/(17-m)``.
    """
    (m, e), _ = _newton(lambda x: residuals_critical(1.0, *x)[1:],
                        lambda x: [row[1:] for row in _jacobian_critical(1.0, *x)[1:]],
                        DEFAULT_INIT[1:], tol, 100)
    return m, e


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

    def feasible(eps: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        params = WeightParams(m=exponent, alpha=alpha, gamma=1.0, epsilon=eps)
        return direct_feasibility(params).overall == "feasible"

    lo, hi = 0.01, 0.99
    if not feasible(lo):
        raise AllInfeasibleError(f"infeasible already at epsilon = {lo}")
    if feasible(hi):
        # Frontier sits at (or beyond) the top of the probed range.
        lo = hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
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


def uniqueness_horizon(M: float, steps: int) -> tuple[float, list[float]]:
    """Horizon seed ``T1 = min(1/(256M), 1/(12M^2), 1/2)`` and its iteration.

    Returns ``(T1, [T1, T2, ..., T_{steps+1}])`` with
    ``T_{k+1} = (1 - T_k) T1 + T_k``, which climbs to 1 geometrically:
    ``1 - T_k = (1 - T1)**k``.
    """
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    t1 = min(1.0 / (256.0 * M), 1.0 / (12.0 * M * M), 0.5)
    seq = [t1]
    for _ in range(steps):
        seq.append((1.0 - seq[-1]) * t1 + seq[-1])
    return t1, seq
