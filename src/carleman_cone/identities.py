"""Cross-module structural identity suite.

One-command reproduction of the package's property checks at one set of
weight parameters: power-sum identities at the coefficient level,
derivative and Hessian consistency against finite differences,
homogeneity, boundary vanishing, and the boundary sign law.  Every row
reads the given parameters, and the point-sampling rows also the seed and
dimension; random points come from a seeded generator so runs are
reproducible.  The CLI exposes this as the ``identities`` subcommand.  The
identities that hold for every parameter value are proved symbolically in
``tests/test_symbolic.py``; the rows here evaluate them in floats.
"""

from __future__ import annotations

import math
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


def _directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """``count`` random unit vectors in the ``dim - 1`` axes orthogonal to x1."""
    if dim == 2:
        return rng.choice([-1.0, 1.0], size=(count, 1))
    angles = rng.normal(size=(count, dim - 1))
    angles /= np.linalg.norm(angles, axis=1, keepdims=True)
    return angles


def sample_cone_points(
    params: WeightParams,
    count: int,
    rng: np.random.Generator,
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
    h = rng.uniform(low, high, size=count)
    r = np.exp(rng.uniform(0.0, math.log(10.0), size=count))
    pts = np.empty((count, dim))
    pts[:, 0] = h * r
    pts[:, 1:] = (r * np.sqrt(1.0 - h * h))[:, None] * _directions(rng, count, dim)
    return pts


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


def _derivative_consistency(params: WeightParams, rng: np.random.Generator) -> IdentityResult:
    f = conditions.build_l("l2", params)
    fp = f.derivative()
    delta = 1e-6
    worst = 0.0
    for h in rng.uniform(0.2, 0.9, size=50):
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


def _grad_fd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    delta = 1e-6
    g = grad_phi(pts.T, params)
    v = phi_eval(np.moveaxis(_shifted(pts, delta), -1, 0), params)
    fd = (v[0] - v[1]) / (2.0 * delta)
    err = np.linalg.norm(fd - g, axis=0) / np.maximum(np.linalg.norm(g, axis=0), 1e-12)
    worst = float(np.max(err))
    return IdentityResult("grad_phi_fd", worst <= 1e-6, f"worst relative error {worst:.3g}")


def _hess_fd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 50, rng, dim=dim)
    delta = 1e-4
    H = hess_phi(pts.T, params)
    # v[sj, j, si, i] = phi((x + si e_i) + sj e_j), the order of the stencil's sums
    v = phi_eval(np.moveaxis(_shifted(_shifted(pts, delta), delta), -1, 0), params)
    fd = (v[0, :, 0] - v[1, :, 0] - v[0, :, 1] + v[1, :, 1]) / (4.0 * delta * delta)
    worst = float(np.max(np.abs(fd.swapaxes(0, 1) - H)))
    return IdentityResult("hess_phi_fd", worst <= 1e-5, f"worst absolute error {worst:.3g}")


def _homogeneity(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    a = params.alpha
    lam = np.array([0.5, 2.0, 7.0])[:, None]
    # row 0 holds the points, row k their scaling by lam[k - 1]
    xs = np.moveaxis(np.concatenate([pts[None], lam[:, :, None] * pts]), -1, 0)
    v, g, H = phi_eval(xs, params), grad_phi(xs, params), hess_phi(xs, params)
    dv = np.abs(v[1:] - lam ** a * v[0]) / np.abs(v[0])
    dg = np.linalg.norm(g[:, 1:] - lam ** (a - 1.0) * g[:, :1], axis=0) / np.linalg.norm(g[:, 0], axis=0)
    dH = (np.max(np.abs(H[:, :, 1:] - lam ** (a - 2.0) * H[:, :, :1]), axis=(0, 1))
          / np.max(np.abs(H[:, :, 0]), axis=(0, 1)))
    worst = float(np.max([np.max(dv), np.max(dg), np.max(dH)]))
    return IdentityResult("homogeneity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def _euler(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    lhs = np.sum(pts.T * grad_phi(pts.T, params), axis=0)
    rhs = params.alpha * phi_eval(pts.T, params)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-12)))
    return IdentityResult("euler_identity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def boundary_points(params: WeightParams, count: int, rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Points on the computed cone boundary ``x1 = fl(epsilon * |x|)``, 1 < r < 100."""
    eps = params.epsilon
    r = np.exp(rng.uniform(math.log(1.02), math.log(99.0), size=count))
    pts = np.empty((count, dim))
    pts[:, 1:] = (r * math.sqrt(1.0 - eps * eps))[:, None] * _directions(rng, count, dim)
    pts[:, 0] = eps * r
    # One fixed-point pass so x1 matches the recomputed norm.
    pts[:, 0] = eps * _radius(pts.T)
    return pts


def _boundary_vanishing(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    # phi ~ r^alpha h^m, so the rounding of h = x1/r on the computed boundary
    # leaves a residue of a few eps_mach * r^alpha; 8 of them bound it.
    pts = boundary_points(params, 100, rng, dim=dim)
    phi = phi_eval(pts.T, params)
    worst = float(np.max(np.abs(phi) / np.linalg.norm(pts, axis=1) ** params.alpha))
    return IdentityResult("boundary_vanishing", worst <= 8.0 * float(np.finfo(float).eps),
                          f"worst |phi|/r^alpha {worst:.3g}")


def _hessian_correction_psd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
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
    rng = np.random.default_rng(seed)
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
