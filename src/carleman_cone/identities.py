"""Cross-module structural identity suite.

One-command reproduction of the package's property checks at one set of
weight parameters: power-sum identities at the coefficient level,
derivative and Hessian consistency against finite differences,
homogeneity, boundary vanishing, and the boundary sign law.  Every row
reads the given parameters, and the point-sampling rows also the seed and
dimension; random points come from ``random.Random(seed)``, the same on
every platform.  The CLI exposes this as the ``identities`` subcommand.  The
identities that hold for every parameter value are proved symbolically in
``tests/test_symbolic.py``; the rows here evaluate them in floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import conditions
from .algebra import PowerSum
from .conditions import WeightParams, build_f
from .weights import _profile_derivs, _radius, grad_phi, hess_phi, phi_eval

__all__ = ["IdentityResult", "run_identity_suite", "sample_cone_points"]

DEFAULT_PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    detail: str


def _uniform(rng: random.Random, *shape: int) -> np.ndarray:
    """Floats uniform on ``[0, 1)`` of ``shape``, 53 random bits each, drawn in one call."""
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8") >> 11
    return (bits * 2.0 ** -53).reshape(shape)


def _polar_points(rng: random.Random, count: int, dim: int, h_range, log_r_range) -> np.ndarray:
    """``count`` points ``r (h, sqrt(1 - h^2) v)`` from one draw of ``rng``: ``h`` uniform on
    ``h_range``, ``log r`` on ``log_r_range``, ``v`` a unit vector orthogonal to x1 (normalised
    Box-Muller normals, which leave a sign in 2-D and one pair's angle in 3-D)."""
    u = _uniform(rng, 3 if dim <= 3 else 2 * dim, count)
    h = h_range[0] + (h_range[1] - h_range[0]) * u[0]
    r = np.exp(log_r_range[0] + (log_r_range[1] - log_r_range[0]) * u[1])
    side = r * np.sqrt(1.0 - h * h)
    pts = np.empty((count, dim))
    pts[:, 0] = h * r
    if dim == 2:
        pts[:, 1] = np.where(u[2] < 0.5, -side, side)
    elif dim == 3:
        angle = 2.0 * math.pi * u[2]
        pts[:, 1], pts[:, 2] = side * np.cos(angle), side * np.sin(angle)
    else:
        v = np.sqrt(-2.0 * np.log1p(-u[2:dim + 1])) * np.cos(2.0 * math.pi * u[dim + 1:])
        pts[:, 1:] = (side * v / np.sqrt(np.sum(v * v, axis=0))).T
    return pts


def sample_cone_points(
    params: WeightParams,
    count: int,
    rng: random.Random,
    dim: int = 2,
    h_min_offset: float = 0.02,
) -> np.ndarray:
    """Random interior cone points: h uniform, radius log-uniform on (1, 10).

    Points keep ``h = x1/|x|`` at least ``h_min_offset`` above the boundary
    value so that relative comparisons against the vanishing weight stay
    meaningful.  A cone too narrow for that offset below ``h = 0.999``
    draws ``h`` from the upper half of ``(epsilon, 1)`` instead.
    """
    eps = params.epsilon
    low, high = eps + h_min_offset, 0.999
    if low > high:
        low, high = 0.5 * (1.0 + eps), 1.0
    return _polar_points(rng, count, dim, (low, high), (0.0, math.log(10.0)))


def _coefficient_identity_l3(params: WeightParams) -> IdentityResult:
    a = params.alpha
    const = (a * a + a) * math.pow(params.epsilon, params.m) ** 2
    l3 = conditions.build_l("l3", params)
    l4 = conditions.build_l("l4", params)
    diff = l3 - PowerSum.monomial(1.0, params.m) * l4 - PowerSum.constant(const)
    scale = max(l3.max_abs_coefficient(), 1.0)
    worst = diff.max_abs_coefficient()
    return IdentityResult(
        "l3_equals_const_plus_hm_l4",
        worst <= 1e-12 * scale,
        f"max residual coefficient {worst:.3g} (scale {scale:.3g})",
    )


def _coefficient_identity_hfpp(params: WeightParams) -> IdentityResult:
    f = build_f(params.m, params.epsilon)
    fp = f.derivative()
    diff = PowerSum.monomial(1.0, 1.0) * fp.derivative() - (params.m - 1.0) * fp
    worst = diff.max_abs_coefficient()
    return IdentityResult(
        "h_fpp_equals_m_minus_1_fp",
        worst <= 1e-12 * max(fp.max_abs_coefficient(), 1.0),
        f"max residual coefficient {worst:.3g}",
    )


def _derivative_consistency(params: WeightParams, rng: random.Random) -> IdentityResult:
    f = conditions.build_l("l2", params)
    fp = f.derivative()
    delta = 1e-6
    worst = 0.0
    for h in (0.2 + 0.7 * _uniform(rng, 50)).tolist():
        fd = (f.eval(h + delta) - f.eval(h - delta)) / (2.0 * delta)
        scale = sum(abs(c) * math.pow(h, q) for c, q in fp.terms)  # f' may nearly vanish
        worst = max(worst, abs(fd - fp.eval(h)) / max(scale, 1e-12))
    return IdentityResult(
        "powersum_derivative_fd", worst <= 1e-6, f"worst relative error {worst:.3g}"
    )


def _shifted(pts: np.ndarray, delta: float) -> np.ndarray:
    """``pts +- delta e_j`` for every sign and axis, indexed (sign, j, *pts.shape).

    The last axis is the coordinate; ``np.moveaxis(..., -1, 0)`` turns the
    stack into the weights' coordinate sequence.
    """
    dim = pts.shape[-1]
    steps = np.array([delta, -delta])[:, None, None] * np.eye(dim)
    return pts + steps.reshape((2, dim) + (1,) * (pts.ndim - 1) + (dim,))


def _term_size(xs: np.ndarray, params: WeightParams, order: int = 0) -> np.ndarray:
    """``(x1^m r^(a-m) + eps^m r^a) / r^order`` at ``xs`` (coordinate first): phi's two terms.

    They cancel as eps -> 1, so the rows measure phi's errors (order 0), its
    gradient's (order 1) and its Hessian's (order 2) against their size.
    """
    a, m = params.alpha, params.m
    r = np.linalg.norm(xs, axis=0)
    return (xs[0] ** m * r ** (a - m) + params.epsilon ** m * r ** a) / r ** order


def _grad_fd(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    delta = 1e-6
    g = grad_phi(pts.T, params)
    v = phi_eval(np.moveaxis(_shifted(pts, delta), -1, 0), params)
    fd = (v[0] - v[1]) / (2.0 * delta)
    err = np.linalg.norm(fd - g, axis=0) / _term_size(pts.T, params, 1)
    worst = float(np.max(err))
    return IdentityResult("grad_phi_fd", worst <= 1e-6, f"worst relative error {worst:.3g}")


def _hess_fd(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 50, rng, dim=dim)
    delta = 1e-4
    H = hess_phi(pts.T, params)
    # v[sj, j, si, i] = phi((x + si e_i) + sj e_j), the order of the stencil's sums
    v = phi_eval(np.moveaxis(_shifted(_shifted(pts, delta), delta), -1, 0), params)
    fd = (v[0, :, 0] - v[1, :, 0] - v[0, :, 1] + v[1, :, 1]) / (4.0 * delta * delta)
    worst = float(np.max(np.abs(fd.swapaxes(0, 1) - H)))
    return IdentityResult("hess_phi_fd", worst <= 1e-5, f"worst absolute error {worst:.3g}")


def _homogeneity(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    a = params.alpha
    lam = np.array([0.5, 2.0, 7.0])[:, None]
    # row 0 holds the points, row k their scaling by lam[k - 1]
    xs = np.moveaxis(np.concatenate([pts[None], lam[:, :, None] * pts]), -1, 0)
    v, g, H = phi_eval(xs, params), grad_phi(xs, params), hess_phi(xs, params)
    dv = np.abs(v[1:] - lam ** a * v[0]) / _term_size(xs[:, 1:], params)
    dg = (np.linalg.norm(g[:, 1:] - lam ** (a - 1.0) * g[:, :1], axis=0)
          / _term_size(xs[:, 1:], params, 1))
    dH = (np.max(np.abs(H[:, :, 1:] - lam ** (a - 2.0) * H[:, :, :1]), axis=(0, 1))
          / _term_size(xs[:, 1:], params, 2))
    worst = float(np.max([np.max(dv), np.max(dg), np.max(dH)]))
    return IdentityResult("homogeneity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def _euler(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    lhs = np.sum(pts.T * grad_phi(pts.T, params), axis=0)
    rhs = params.alpha * phi_eval(pts.T, params)
    worst = float(np.max(np.abs(lhs - rhs) / _term_size(pts.T, params)))
    return IdentityResult("euler_identity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def boundary_points(params: WeightParams, count: int, rng: random.Random, dim: int = 2) -> np.ndarray:
    """Points on the computed cone boundary ``x1 = fl(epsilon * |x|)``, 1 < r < 100."""
    eps = params.epsilon
    pts = _polar_points(rng, count, dim, (eps, eps), (math.log(1.02), math.log(99.0)))
    # One fixed-point pass so x1 matches the recomputed norm.
    pts[:, 0] = eps * _radius(pts.T)
    return pts


def _boundary_vanishing(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    # phi ~ r^alpha h^m, so the rounding of h = x1/r on the computed boundary
    # leaves a residue of a few eps_mach * r^alpha; 8 of them bound it.
    pts = boundary_points(params, 100, rng, dim=dim)
    phi = phi_eval(pts.T, params)
    worst = float(np.max(np.abs(phi) / np.linalg.norm(pts, axis=1) ** params.alpha))
    return IdentityResult("boundary_vanishing", worst <= 8.0 * float(np.finfo(float).eps),
                          f"worst |phi|/r^alpha {worst:.3g}")


def _hessian_correction_psd(params: WeightParams, rng: random.Random, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 200, rng, dim=dim, h_min_offset=1e-3)
    a = params.alpha
    r = np.linalg.norm(pts, axis=1)
    h = pts[:, 0] / r
    f, fp, _ = _profile_derivs(h, params)
    # B = r^(2-alpha) * hess - (alpha f - h f') I, one (dim, dim) matrix per point
    H = np.moveaxis(hess_phi(pts.T, params), -1, 0)
    B = np.power(r, 2.0 - a)[:, None, None] * H - (a * f - h * fp)[:, None, None] * np.eye(dim)
    worst = float(np.min(np.linalg.eigvalsh(B)))
    return IdentityResult(
        "hessian_correction_psd", worst >= -1e-10, f"smallest eigenvalue {worst:.3g}"
    )


def _boundary_law(params: WeightParams) -> IdentityResult:
    """The sign of ``l1(eps)`` against the boundary law ``(m-1) - (m+1) eps^2``.

    No sign is read on the law's knife edge (``|law| < 1e-10``) or where
    ``l1(eps)`` is below its coefficients' rounding noise.
    """
    l1 = conditions.build_l("l1", params)
    val = l1.eval(params.epsilon)
    law = conditions.l1_boundary_law(params)
    ok = abs(law) < 1e-10 or abs(val) <= 1e-12 * l1.max_abs_coefficient() or (val > 0) == (law > 0)
    detail = f"l1(eps) {val:.3g}, law {law:.3g}"
    return IdentityResult("l1_boundary_sign_law", ok, detail if ok else "sign mismatch: " + detail)


def run_identity_suite(
    seed: int = 42,
    params: WeightParams = DEFAULT_PARAMS,
    dim: int = 2,
) -> list[IdentityResult]:
    """Run every structural identity check; deterministic for a fixed seed."""
    rng = random.Random(seed)
    results = [
        _coefficient_identity_l3(params),
        _coefficient_identity_hfpp(params),
        _derivative_consistency(params, rng),
        _grad_fd(params, rng, dim),
        _hess_fd(params, rng, dim),
        _homogeneity(params, rng, dim),
        _euler(params, rng, dim),
        _boundary_vanishing(params, rng, dim),
        _hessian_correction_psd(params, rng, dim),
        _boundary_law(params),
    ]
    return results
