"""Root finding and frontier search over the weight-family parameters.

Three solvers live here: a damped Newton iteration for the critical
three-equation system linking (gamma, m, epsilon0); a bisection for the
gamma = 1 corner of that system; and a feasibility-frontier bisection that
finds the supremum opening parameter epsilon for which the direct
certificate still passes.  A small utility iterates the uniqueness horizon
``T_{k+1} = (1 - T_k) T_1 + T_k`` toward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import Interval
from .conditions import direct_feasibility
from .weights import WeightParams

__all__ = [
    "SolverResult",
    "FrontierResult",
    "FrontierRow",
    "NonConvergenceError",
    "SingularJacobianError",
    "NoSignChangeError",
    "AllInfeasibleError",
    "residuals_critical",
    "solve_critical_system",
    "solve_gamma1",
    "frontier_epsilon",
    "scan_frontier",
    "uniqueness_horizon",
]

DEFAULT_INIT = (0.80, 2.45, 0.65)

_FD_STEP = 1e-7
_MAX_HALVINGS = 30
_COND_LIMIT = 1e14


class NonConvergenceError(RuntimeError):
    """Newton iteration exhausted max_iter without meeting the tolerance."""


class SingularJacobianError(RuntimeError):
    """Finite-difference Jacobian is numerically singular."""


class NoSignChangeError(ValueError):
    """Bisection bracket does not straddle a root."""


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


def _residual_vec(x: np.ndarray) -> np.ndarray:
    return np.array(residuals_critical(x[0], x[1], x[2]))


def solve_critical_system(
    init: Sequence[float] = DEFAULT_INIT,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolverResult:
    """Damped Newton on the critical system with a finite-difference Jacobian.

    The step is halved (up to 30 times) whenever the residual norm fails to
    decrease or an iterate leaves the parameter domain.  Convergence means
    ``max |R_i| <= tol``, re-checked on the returned point; anything else
    raises NonConvergenceError rather than silently returning a non-root.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.array(init, dtype=float)
    r = _residual_vec(x)

    for iteration in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= tol:
            return _solver_result(x, r, iteration - 1)

        jac = np.empty((3, 3))
        for j in range(3):
            xp = x.copy()
            xp[j] += _FD_STEP
            jac[:, j] = (_residual_vec(xp) - r) / _FD_STEP
        if np.linalg.cond(jac) > _COND_LIMIT:
            raise SingularJacobianError(
                f"Jacobian condition number exceeds {_COND_LIMIT:g} at {tuple(x)}"
            )
        step = np.linalg.solve(jac, -r)

        lam = 1.0
        cur = np.max(np.abs(r))
        for _ in range(_MAX_HALVINGS + 1):
            cand = x + lam * step
            try:
                r_cand = _residual_vec(cand)
            except ValueError:
                lam *= 0.5
                continue
            if np.max(np.abs(r_cand)) < cur or np.max(np.abs(r_cand)) <= tol:
                break
            lam *= 0.5
        else:
            raise NonConvergenceError("damping exhausted without residual decrease")
        x, r = cand, r_cand

    if np.max(np.abs(r)) <= tol:
        return _solver_result(x, r, max_iter)
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (max residual {np.max(np.abs(r)):.3g})"
    )


def _solver_result(x: np.ndarray, r: np.ndarray, iterations: int) -> SolverResult:
    gamma, m, e = (float(v) for v in x)
    res = residuals_critical(gamma, m, e)
    return SolverResult(
        gamma=gamma,
        m=m,
        epsilon0=e,
        theta_deg=math.degrees(2.0 * math.acos(e)),
        residuals=res,
        iterations=iterations,
        converged=True,
    )


def _g1(p: float) -> float:
    return math.sqrt((p - 1.0) / (p + 1.0))


def _g2(p: float) -> float:
    return math.pow((17.0 - 5.0 * p) / (17.0 - p), 1.0 / p)


def solve_gamma1(p_lo: float = 2.36, p_hi: float = 3.0, tol: float = 1e-10) -> tuple[float, float]:
    """Bisection for the gamma = 1 corner of the critical system.

    Finds the crossing of ``g1(p) = sqrt((p-1)/(p+1))`` and
    ``g2(p) = ((17-5p)/(17-p))**(1/p)`` on [p_lo, p_hi] and returns
    ``(m, epsilon0 = g1(m))``.
    """
    if not (2.36 <= p_lo < p_hi <= 3.0):
        raise ValueError(f"bracket must satisfy 2.36 <= p_lo < p_hi <= 3, got [{p_lo}, {p_hi}]")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    def diff(p: float) -> float:
        return _g1(p) - _g2(p)

    d_lo, d_hi = diff(p_lo), diff(p_hi)
    if d_lo == 0.0:
        return p_lo, _g1(p_lo)
    if d_hi == 0.0:
        return p_hi, _g1(p_hi)
    if (d_lo > 0.0) == (d_hi > 0.0):
        raise NoSignChangeError(f"g1 - g2 has the same sign at {p_lo} and {p_hi}")

    lo, hi = p_lo, p_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d_mid = diff(mid)
        if d_mid == 0.0:
            lo = hi = mid
            break
        if (d_mid > 0.0) == (d_lo > 0.0):
            lo = mid
        else:
            hi = mid
    m = 0.5 * (lo + hi)
    return m, _g1(m)


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
        bracket = Interval(hi, hi)
        return FrontierResult(family, alpha, hi, bracket, evaluations,
                              m=m if family == "beta_eq_m" else None)
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
