"""The anisotropic power weight, its derivatives and the space-time exponent.

The weight is ``phi(x) = r**alpha * f(x1 / r)`` with ``r = |x|`` and the
radial profile ``f(h) = h**m - epsilon**m``; it vanishes on the boundary of
the circular cone ``{x : x1 > epsilon * |x|}`` and is homogeneous of degree
``alpha``.  ``log_weight`` is the log-domain exponent of the full
space-time weight.  ``WeightParams`` and ``build_f`` are defined in the
numpy-free ``conditions`` and re-exported here.

Every evaluator takes ``x`` as a sequence of coordinates, each a scalar or
an array broadcasting with the others: a 1-D point evaluates one point,
``pts.T`` a ``(count, dim)`` stack, and axis views a tensor grid, all
through the same arithmetic.

All evaluations here are pure functions; callers exponentiate the
log-domain weight only after subtracting its maximum, because the time
amplification ``t**-K`` is astronomically large for small ``t``.
"""

from __future__ import annotations

import math

import numpy as np

from .conditions import WeightParams, build_f

__all__ = [
    "WeightParams",
    "build_f",
    "phi_eval",
    "grad_phi",
    "hess_phi",
    "log_weight",
]


def _radius(x):
    """``|x|`` of a coordinate sequence, its squares summed in coordinate order.

    The one radius of the weight's evaluators and of
    ``identities.boundary_points``: a point built there as
    ``x1 = fl(epsilon * _radius(x))`` meets the same ``r`` here.
    """
    return np.sqrt(sum(v * v for v in x))


def _polar(x):
    """Coordinates as float arrays and their radius; rejects the origin and x1 < 0."""
    x = [np.asarray(v, dtype=float) for v in x]
    r = _radius(x)
    if np.any(r == 0.0) or np.any(x[0] < 0.0):
        raise ValueError("the weight is undefined at the origin and for x1 < 0 (h**m needs h >= 0)")
    return x, r


def phi_eval(x, params: WeightParams):
    """Weight value ``r**alpha * f(x1/r)``, shaped like the broadcast coordinates.

    ``x`` is a sequence of coordinates, each a scalar or an array that
    broadcasts with the others: a 1-D point gives a scalar, ``pts.T`` of a
    ``(count, dim)`` stack gives ``count`` values.  Evaluated as
    ``r**(alpha-m) * (x1**m - (epsilon*r)**m)`` so that points constructed
    on the computed cone boundary ``x1 = fl(epsilon*|x|)`` give exactly
    zero instead of an ``r**alpha``-amplified rounding residue.
    """
    x, r = _polar(x)
    m, alpha, eps = params.m, params.alpha, params.epsilon
    return np.power(r, alpha - m) * (np.power(x[0], m) - np.power(eps * r, m))


def _profile_derivs(h, params: WeightParams):
    """(f, f', f'') of the radial profile at angular coordinates h (arrays)."""
    m, eps = params.m, params.epsilon
    f = np.power(h, m) - math.pow(eps, m)
    fp = m * np.power(h, m - 1.0)
    fpp = m * (m - 1.0) * np.power(h, m - 2.0)
    return f, fp, fpp


def grad_phi(x, params: WeightParams) -> np.ndarray:
    """Gradient ``r**(alpha-2)*(alpha*f - h*f')*x + r**(alpha-1)*f'*e1``.

    ``x`` is a coordinate sequence as in ``phi_eval``; the result has shape
    ``(dim, *batch)``.  Cone membership is not checked; finite-difference
    stencils legitimately straddle the boundary.
    """
    x, r = _polar(x)
    h = x[0] / r
    alpha = params.alpha
    f, fp, _ = _profile_derivs(h, params)
    out = np.power(r, alpha - 2.0) * (alpha * f - h * fp) * np.stack(np.broadcast_arrays(*x))
    out[0] += np.power(r, alpha - 1.0) * fp
    return out


def hess_phi(x, params: WeightParams) -> np.ndarray:
    """Hessian ``r**(alpha-2) * ((alpha*f - h*f') I + B)``, built symmetric.

    ``B = f'' e1 e1^T + r^-1 (( alpha-1)f' - h f'') (e1 x^T + x e1^T)
    + r^-2 ((alpha^2-2alpha) f + (3-2alpha) h f' + h^2 f'') x x^T``.
    ``x`` is a coordinate sequence as in ``phi_eval``; the result has shape
    ``(dim, dim, *batch)``.
    """
    x, r = _polar(x)
    h = x[0] / r
    alpha = params.alpha
    f, fp, fpp = _profile_derivs(h, params)

    X = np.stack(np.broadcast_arrays(*x))
    eye = np.eye(len(x)).reshape((len(x), len(x)) + (1,) * r.ndim)
    e1 = eye[0]
    c_mixed = ((alpha - 1.0) * fp - h * fpp) / r
    c_radial = (
        (alpha * alpha - 2.0 * alpha) * f
        + (3.0 - 2.0 * alpha) * h * fp
        + h * h * fpp
    ) / (r * r)
    B = (
        fpp * (e1[:, None] * e1[None])
        + c_mixed * (e1[:, None] * X[None] + X[:, None] * e1[None])
        + c_radial * (X[:, None] * X[None])
    )
    return np.power(r, alpha - 2.0) * ((alpha * f - h * fp) * eye + B)


def log_weight(x, t, a: float, K: float, params: WeightParams):
    """Exponent ``L(x,t) = 2a*(t**-K - 1)*phi(x) - (|x|^2 + K)/(8t)``.

    ``x`` is a sequence of coordinates: scalars (a 1-D point works too) or
    arrays that broadcast with each other and with ``t``, which gives ``L``
    on the whole grid.  ``phi`` comes from ``phi_eval``, in its
    boundary-exact form.  Callers exponentiate only after subtracting a global maximum:
    with K ~ 60 the raw exponent ranges over many hundreds of orders of
    magnitude and ``exp(L)`` itself is meaningless in double precision.
    """
    if not np.all(a >= 0.0):
        raise ValueError(f"a must be nonnegative, got {a}")
    if not np.all(K > 0.0):
        raise ValueError(f"K must be positive, got {K}")
    if not np.all((t > 0.0) & (t <= 1.0)):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    phi = phi_eval(x, params)
    return 2.0 * a * (np.power(t, -K) - 1.0) * phi - (sum(v * v for v in x) + K) / (8.0 * t)
