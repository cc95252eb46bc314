"""The anisotropic power weight, its derivatives and the space-time exponent.

The weight is ``phi(x) = r**alpha * f(x1 / r)`` with ``r = |x|`` and the
radial profile ``f(h) = h**m - epsilon**m``; it vanishes on the boundary of
the circular cone ``{x : x1 > epsilon * |x|}`` and is homogeneous of degree
``alpha``.  ``log_weight`` is the log-domain exponent of the full
space-time weight, pointwise or on a grid.

All evaluations here are pure functions; callers exponentiate the
log-domain weight only after subtracting its maximum, because the time
amplification ``t**-K`` is astronomically large for small ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import PowerSum

__all__ = [
    "WeightParams",
    "build_f",
    "phi_eval",
    "grad_phi",
    "hess_phi",
    "log_weight",
]


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


def _r_h(x: np.ndarray) -> tuple[float, float]:
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("weight fields are undefined at the origin")
    return r, float(x[0]) / r


def phi_eval(x, params: WeightParams) -> float:
    """Weight value ``r**alpha * f(x1/r)``.

    Evaluated as ``r**(alpha-m) * (x1**m - (epsilon*r)**m)`` so that points
    constructed on the computed cone boundary ``x1 = fl(epsilon*|x|)`` give
    exactly zero instead of an ``r**alpha``-amplified rounding residue.
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ValueError("phi is undefined at the origin")
    x1 = float(x[0])
    if x1 < 0.0:
        raise ValueError("phi is undefined for x1 < 0 (h**m needs h >= 0)")
    m, alpha, eps = params.m, params.alpha, params.epsilon
    return math.pow(r, alpha - m) * (math.pow(x1, m) - math.pow(eps * r, m))


def _profile_derivs(h: float, params: WeightParams) -> tuple[float, float, float]:
    """(f, f', f'') of the radial profile at angular coordinate h."""
    m, eps = params.m, params.epsilon
    f = math.pow(h, m) - math.pow(eps, m)
    fp = m * math.pow(h, m - 1.0)
    fpp = m * (m - 1.0) * math.pow(h, m - 2.0)
    return f, fp, fpp


def grad_phi(x, params: WeightParams) -> np.ndarray:
    """Gradient ``r**(alpha-2)*(alpha*f - h*f')*x + r**(alpha-1)*f'*e1``.

    Cone membership of ``x`` is not checked; finite-difference stencils
    legitimately straddle the boundary.
    """
    x = np.asarray(x, dtype=float)
    r, h = _r_h(x)
    if h < 0.0:
        raise ValueError("grad_phi is undefined for x1 < 0")
    alpha = params.alpha
    f, fp, _ = _profile_derivs(h, params)
    out = math.pow(r, alpha - 2.0) * (alpha * f - h * fp) * x
    out[0] += math.pow(r, alpha - 1.0) * fp
    return out


def hess_phi(x, params: WeightParams) -> np.ndarray:
    """Hessian ``r**(alpha-2) * ((alpha*f - h*f') I + B)``, built symmetric.

    ``B = f'' e1 e1^T + r^-1 (( alpha-1)f' - h f'') (e1 x^T + x e1^T)
    + r^-2 ((alpha^2-2alpha) f + (3-2alpha) h f' + h^2 f'') x x^T``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    r, h = _r_h(x)
    if h < 0.0:
        raise ValueError("hess_phi is undefined for x1 < 0")
    alpha = params.alpha
    f, fp, fpp = _profile_derivs(h, params)

    e1 = np.zeros(n)
    e1[0] = 1.0
    c_mixed = ((alpha - 1.0) * fp - h * fpp) / r
    c_radial = (
        (alpha * alpha - 2.0 * alpha) * f
        + (3.0 - 2.0 * alpha) * h * fp
        + h * h * fpp
    ) / (r * r)
    B = (
        fpp * np.outer(e1, e1)
        + c_mixed * (np.outer(e1, x) + np.outer(x, e1))
        + c_radial * np.outer(x, x)
    )
    return math.pow(r, alpha - 2.0) * ((alpha * f - h * fp) * np.eye(n) + B)


def log_weight(x, t, a: float, K: float, params: WeightParams):
    """Exponent ``L(x,t) = 2a*(t**-K - 1)*phi(x) - (|x|^2 + K)/(8t)``.

    ``x`` is a sequence of coordinates: scalars (a 1-D point works too) or
    arrays that broadcast with each other and with ``t``, which gives ``L``
    on the whole grid.  ``phi`` is taken in ``phi_eval``'s boundary-exact
    form.  Callers exponentiate only after subtracting a global maximum:
    with K ~ 60 the raw exponent ranges over many hundreds of orders of
    magnitude and ``exp(L)`` itself is meaningless in double precision.
    """
    if not np.all(a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a}")
    if not np.all(K > 0.0):
        raise ValueError(f"K must be positive, got {K}")
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    x1 = x[0]
    r2 = sum(v * v for v in x)
    if np.any(r2 == 0.0) or np.any(x1 < 0.0):
        raise ValueError("phi is undefined at the origin and for x1 < 0")
    m, alpha, eps = params.m, params.alpha, params.epsilon
    r = np.sqrt(r2)
    phi = np.power(r, alpha - m) * (np.power(x1, m) - np.power(eps * r, m))
    return 2.0 * a * (np.power(t, -K) - 1.0) * phi - (r2 + K) / (8.0 * t)
