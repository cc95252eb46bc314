"""Correctness oracles for the benchmark's outputs.

None of them trusts the certifier it checks.  The six direct conditions are
re-derived here from the profile ``f(h) = h**m - eps**m`` in closed form,
then sampled densely in numpy or evaluated at a witness in mpmath at 50
digits.  Each check returns a list of failure messages; empty means passed.
mpmath is imported only when a check needs it, so that it stays out of the
benchmark's set-up time.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Optional

import numpy as np

# Same relative slack the package puts under the l3 lower bound.
L3_SLACK = 1e-9
# A dense sample counts as a violation only beyond this share of the
# summed term magnitudes, far above float64 rounding of these expressions.
SAMPLE_RTOL = 1e-9
DENSE_POINTS = 4001
WITNESS_DIGITS = 50

CLAIMS = {
    "lemma31_i": ">=",
    "lemma31_ii": ">=",
    "lemma31_iii": ">=",
    "lemma31_iv": "<=",
    "l1_direct": ">=",
    "l3_lower_bound": ">=",
}

# The paper rounds the critical angle to 98.99 deg; the root of the system
# the package states lies at 98.9544 deg.  A solve must hit that root,
# re-solved here in 50 digits, within THETA_ABS_TOL, and the paper's value
# within THETA_PAPER_TOL.
THETA_PAPER_DEG = 98.99
THETA_PAPER_TOL = 0.05
THETA_ABS_TOL = 0.01
GAMMA1_M = 2.3931
GAMMA1_ABS_TOL = 1e-3
RESOLVED_RTOL = 0.01
IDENTITY_COUNT = 10


def direct_terms(h, m, a, eps) -> dict[str, tuple]:
    """Terms of each direct condition at ``h``; their sum is the condition.

    Works on numpy arrays and on mpmath numbers alike.
    """
    em = eps ** m
    hm = h ** m
    f = hm - em
    fp = m * h ** (m - 1)
    fpp = m * (m - 1) * h ** (m - 2)
    q = 1 - h * h
    return {
        "lemma31_i": (hm, -em),
        "lemma31_ii": (fpp,),
        "lemma31_iii": ((a * a - 2 * a) * f, (3 - 2 * a) * h * fp, h * h * fpp),
        "lemma31_iv": ((a - 1) ** 2 * fp * fp, (2 * a - a * a) * f * fpp, -h * fp * fpp),
        "l1_direct": (
            a ** 4 * f ** 3,
            -a * a * h * f * f * fp,
            2 * a * a * q * f * fp * fp,
            -2 * h * q * fp ** 3,
            q * q * fp * fp * fpp,
        ),
        "l3_lower_bound": (
            (a * a + a) * f * f,
            -h * f * fp,
            q * fp * fp,
            -(a * a + a) * em * em * (1 - L3_SLACK),
        ),
    }


def dense_violations(m: float, alpha: float, eps: float) -> list[str]:
    """Sample the six direct conditions on [eps, 1]; report any violation."""
    h = np.unique(np.concatenate([
        np.linspace(eps, 1.0, DENSE_POINTS),
        eps + (1.0 - eps) * np.logspace(-12, -1, 200),
    ]))
    out = []
    for key, terms in direct_terms(h, m, alpha, eps).items():
        value = sum(terms)
        slack = SAMPLE_RTOL * sum(np.abs(t) for t in terms)
        bad = value < -slack if CLAIMS[key] == ">=" else value > slack
        if np.any(bad):
            i = int(np.argmax(bad))
            out.append(f"{key} violated at h={h[i]!r} (m={m!r}, alpha={alpha!r}, "
                       f"eps={eps!r}): {value[i]!r}")
    return out


def witness_violation(key: str, h: float, m: float, alpha: float, eps: float) -> list[str]:
    """Confirm in 50-digit arithmetic that ``key`` is violated at ``h``."""
    import mpmath

    if key not in CLAIMS:
        return [f"refutation names unknown key {key!r}"]
    if h is None or not eps <= h <= 1.0:
        return [f"{key} witness {h!r} is outside [eps, 1] = [{eps!r}, 1]"]
    with mpmath.workdps(WITNESS_DIGITS):
        value = sum(direct_terms(mpmath.mpf(h), mpmath.mpf(m), mpmath.mpf(alpha),
                                 mpmath.mpf(eps))[key])
        real = value < 0 if CLAIMS[key] == ">=" else value > 0
        shown = mpmath.nstr(value, 8)
    if not real:
        return [f"{key} witness h={h!r} is no violation (m={m!r}, alpha={alpha!r}, "
                f"eps={eps!r}): value {shown}"]
    return []


def refutation_problems(report, m: float, alpha: float, eps: float) -> list[str]:
    """A direct_feasibility report past the frontier: refuted with a real witness, or indeterminate."""
    if report.overall == "indeterminate":
        return []
    if report.overall != "infeasible":
        return [f"certified {report.overall} beyond the frontier at eps={eps!r} (m={m!r})"]
    key = report.failing_key
    return witness_violation(key, report.checks[key].witness, m, alpha, eps)


def frontier_problems(
    m: float,
    alpha: float,
    epsilon_sup: float,
    beyond: float,
    feasibility: Callable,
    reference: Optional[float] = None,
    tol: float = 1e-4,
) -> list[str]:
    """Oracle for one frontier value.

    ``epsilon_sup`` must sample clean, the point ``beyond`` it must not
    certify feasible, and the value must match ``reference`` within ``tol``.
    ``feasibility(m, alpha, eps)`` is the package's direct certificate,
    called outside any tracing.
    """
    out = []
    if reference is not None and not abs(epsilon_sup - reference) <= tol:
        out.append(f"epsilon_sup {epsilon_sup!r} at m={m!r} is off the reference "
                   f"{reference!r} by more than {tol}")
    out += dense_violations(m, alpha, epsilon_sup)
    if beyond < 0.99:
        out += refutation_problems(feasibility(m, alpha, beyond), m, alpha, beyond)
    return out


def check_problems(env: dict, code: int, m: float, alpha: float, eps: float) -> list[str]:
    """Oracle for one ``check --json`` response."""
    res = env["result"]
    overall = res["overall"]
    expected = {"feasible": 0, "infeasible": 1, "indeterminate": 2}.get(overall)
    if expected != code:
        return [f"exit code {code} does not match overall {overall!r}"]
    if overall == "feasible":
        return dense_violations(m, alpha, eps)
    if overall == "infeasible":
        return witness_violation(res["failing_key"], res["witness"], m, alpha, eps)
    return []


def _critical_residuals(g, m, e):
    q = g * g * (m - 1) / 4
    return (
        4 * (2 * g - 1) - g * g * (4 - q),
        (m - 1) / (m + 1) - e * e,
        (4 - q - m) - (4 - q) * e ** m,
    )


@functools.cache
def critical_theta_deg() -> float:
    """Critical angle from the critical system, solved in 50 digits."""
    import mpmath

    with mpmath.workdps(WITNESS_DIGITS):
        _, _, e = mpmath.findroot(_critical_residuals, (0.80, 2.45, 0.65))
        return float(mpmath.degrees(2 * mpmath.acos(e)))


def solve_problems(env: dict, code: int, tol: float) -> list[str]:
    """Oracle for ``solve``: the critical angle, and residuals <= tol in 50 digits."""
    import mpmath

    if code != 0:
        return [f"solve exited {code}"]
    res = env["result"]
    theta = res["theta_deg"]
    out = []
    if not abs(theta - critical_theta_deg()) <= THETA_ABS_TOL:
        out.append(f"theta_deg {theta!r} is not within {THETA_ABS_TOL} of the 50-digit "
                   f"root {critical_theta_deg()!r}")
    if not abs(theta - THETA_PAPER_DEG) <= THETA_PAPER_TOL:
        out.append(f"theta_deg {theta!r} is not within {THETA_PAPER_TOL} of {THETA_PAPER_DEG}")
    with mpmath.workdps(WITNESS_DIGITS):
        resid = _critical_residuals(*(mpmath.mpf(res[k]) for k in ("gamma", "m", "epsilon0")))
        worst = float(max(abs(r) for r in resid))
    if not worst <= tol:
        out.append(f"critical-system residual {worst:.3g} exceeds tol {tol:g}")
    return out


def gamma1_problems(env: dict, code: int) -> list[str]:
    """Oracle for ``gamma1``: m near 2.39 and g1(m) = g2(m) in 50 digits."""
    import mpmath

    if code != 0:
        return [f"gamma1 exited {code}"]
    m = env["result"]["m"]
    out = []
    if not abs(m - GAMMA1_M) <= GAMMA1_ABS_TOL:
        out.append(f"gamma1 m {m!r} is not within {GAMMA1_ABS_TOL} of {GAMMA1_M}")
    with mpmath.workdps(WITNESS_DIGITS):
        p = mpmath.mpf(m)
        gap = mpmath.sqrt((p - 1) / (p + 1)) - ((17 - 5 * p) / (17 - p)) ** (1 / p)
        if not abs(gap) <= 1e-8:
            out.append(f"g1(m) - g2(m) = {mpmath.nstr(gap, 5)} at m={m!r}")
    return out


def identities_problems(env: dict, code: int) -> list[str]:
    """Oracle for ``identities``: every identity present and passing."""
    rows = env["result"]
    out = [f"identity {r['name']} failed: {r['detail']}" for r in rows if not r["pass"]]
    if len(rows) != IDENTITY_COUNT:
        out.append(f"expected {IDENTITY_COUNT} identities, got {len(rows)}")
    if code != 0 and not out:
        out.append(f"identities exited {code} with every identity passing")
    return out


def quadrature_problems(report, reference: Optional[float]) -> list[str]:
    """Oracle for one CarlemanReport; ``reference`` pins the ratio of resolved cases."""
    out = []
    if not report.passed:
        out.append(f"inequality failed at a={report.a!r}, K={report.K!r}")
    for side in ("lhs", "rhs"):
        v = getattr(report, side)
        if not (math.isfinite(v) and v > 0.0):
            out.append(f"{side} = {v!r} is not finite and positive at a={report.a!r}")
    if reference is not None and not abs(report.ratio / reference - 1.0) <= RESOLVED_RTOL:
        out.append(f"resolved ratio {report.ratio!r} at a={report.a!r} is off the "
                   f"reference {reference!r} by more than {RESOLVED_RTOL:.0%}")
    return out
