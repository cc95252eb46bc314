"""Cross-module structural identity suite.

One-command reproduction of the package's property checks: power-sum
identities at the coefficient level, derivative and Hessian consistency
against finite differences, homogeneity, boundary vanishing, and the
boundary sign law.  Random points are drawn from a seeded generator so runs
are reproducible; the CLI exposes this as the ``identities`` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conditions
from .algebra import PowerSum
from .weights import WeightParams, grad_phi, hess_phi, phi_eval

__all__ = ["IdentityResult", "run_identity_suite", "sample_cone_points"]

DEFAULT_PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    detail: str


def sample_cone_points(
    params: WeightParams,
    count: int,
    rng: np.random.Generator,
    dim: int = 2,
    r_range: tuple[float, float] = (1.0, 10.0),
    h_min_offset: float = 0.02,
) -> np.ndarray:
    """Random interior cone points: h uniform, radius log-uniform.

    Points keep ``h = x1/|x|`` at least ``h_min_offset`` above the boundary
    value so that relative comparisons against the vanishing weight stay
    meaningful.
    """
    eps = params.epsilon
    h = rng.uniform(eps + h_min_offset, 0.999, size=count)
    r = np.exp(rng.uniform(math.log(r_range[0]), math.log(r_range[1]), size=count))
    pts = np.empty((count, dim))
    pts[:, 0] = h * r
    perp = r * np.sqrt(1.0 - h * h)
    if dim == 2:
        pts[:, 1] = perp * rng.choice([-1.0, 1.0], size=count)
    else:
        angles = rng.normal(size=(count, dim - 1))
        angles /= np.linalg.norm(angles, axis=1, keepdims=True)
        pts[:, 1:] = perp[:, None] * angles
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
    from .weights import build_f

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
        exact = fp.eval(h)
        worst = max(worst, abs(fd - exact) / max(abs(exact), 1e-12))
    return IdentityResult(
        "powersum_derivative_fd", worst <= 1e-6, f"worst relative error {worst:.3g}"
    )


def _grad_fd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    delta = 1e-6
    worst = 0.0
    for x in pts:
        g = grad_phi(x, params)
        fd = np.empty(dim)
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = delta
            fd[j] = (phi_eval(x + step, params) - phi_eval(x - step, params)) / (2.0 * delta)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)))
    return IdentityResult("grad_phi_fd", worst <= 1e-6, f"worst relative error {worst:.3g}")


def _hess_fd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 50, rng, dim=dim)
    delta = 1e-4
    worst = 0.0
    for x in pts:
        H = hess_phi(x, params)
        fd = np.empty((dim, dim))
        for i in range(dim):
            for j in range(dim):
                ei = np.zeros(dim); ei[i] = delta
                ej = np.zeros(dim); ej[j] = delta
                fd[i, j] = (
                    phi_eval(x + ei + ej, params)
                    - phi_eval(x + ei - ej, params)
                    - phi_eval(x - ei + ej, params)
                    + phi_eval(x - ei - ej, params)
                ) / (4.0 * delta * delta)
        worst = max(worst, float(np.max(np.abs(fd - H))))
    return IdentityResult("hess_phi_fd", worst <= 1e-5, f"worst absolute error {worst:.3g}")


def _homogeneity(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    a = params.alpha
    worst = 0.0
    for lam in (0.5, 2.0, 7.0):
        for x in pts:
            v = phi_eval(x, params)
            worst = max(worst, abs(phi_eval(lam * x, params) - lam ** a * v) / abs(v))
            g = grad_phi(x, params)
            gd = np.linalg.norm(grad_phi(lam * x, params) - lam ** (a - 1.0) * g)
            worst = max(worst, float(gd / np.linalg.norm(g)))
            H = hess_phi(x, params)
            hd = np.max(np.abs(hess_phi(lam * x, params) - lam ** (a - 2.0) * H))
            worst = max(worst, float(hd / np.max(np.abs(H))))
    return IdentityResult("homogeneity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def _euler(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 100, rng, dim=dim)
    worst = 0.0
    for x in pts:
        lhs = float(np.dot(x, grad_phi(x, params)))
        rhs = params.alpha * phi_eval(x, params)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return IdentityResult("euler_identity", worst <= 1e-10, f"worst relative error {worst:.3g}")


def boundary_points(params: WeightParams, count: int, rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Points on the computed cone boundary ``x1 = fl(epsilon * |x|)``, 1 < r < 100."""
    eps = params.epsilon
    r = np.exp(rng.uniform(math.log(1.02), math.log(99.0), size=count))
    pts = np.empty((count, dim))
    perp = r * math.sqrt(1.0 - eps * eps)
    if dim == 2:
        pts[:, 1] = perp * rng.choice([-1.0, 1.0], size=count)
    else:
        angles = rng.normal(size=(count, dim - 1))
        angles /= np.linalg.norm(angles, axis=1, keepdims=True)
        pts[:, 1:] = perp[:, None] * angles
    pts[:, 0] = eps * r
    # One fixed-point pass so x1 matches the recomputed norm.
    pts[:, 0] = eps * np.linalg.norm(pts, axis=1)
    return pts


def _boundary_vanishing(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    # phi ~ r^alpha h^m, so the rounding of h = x1/r on the computed boundary
    # leaves a residue of a few eps_mach * r^alpha; 8 of them bound it.
    pts = boundary_points(params, 100, rng, dim=dim)
    phi = np.array([phi_eval(x, params) for x in pts])
    worst = float(np.max(np.abs(phi) / np.linalg.norm(pts, axis=1) ** params.alpha))
    return IdentityResult("boundary_vanishing", worst <= 8.0 * float(np.finfo(float).eps),
                          f"worst |phi|/r^alpha {worst:.3g}")


def _hessian_correction_psd(params: WeightParams, rng: np.random.Generator, dim: int) -> IdentityResult:
    pts = sample_cone_points(params, 200, rng, dim=dim, h_min_offset=1e-3)
    a = params.alpha
    worst = math.inf
    for x in pts:
        r = float(np.linalg.norm(x))
        h = float(x[0]) / r
        f = math.pow(h, params.m) - math.pow(params.epsilon, params.m)
        fp = params.m * math.pow(h, params.m - 1.0)
        # B = r^(2-alpha) * hess - (alpha f - h f') I
        B = math.pow(r, 2.0 - a) * hess_phi(x, params) - (a * f - h * fp) * np.eye(dim)
        worst = min(worst, float(np.min(np.linalg.eigvalsh(B))))
    return IdentityResult(
        "hessian_correction_psd", worst >= -1e-10, f"smallest eigenvalue {worst:.3g}"
    )


def _boundary_law(rng: np.random.Generator) -> IdentityResult:
    ok = True
    detail = ""
    for m in np.linspace(2.05, 2.95, 20):
        for eps in np.linspace(0.05, 0.95, 20):
            params = WeightParams(m=float(m), alpha=1.999, gamma=1.0, epsilon=float(eps))
            l1 = conditions.build_l("l1", params)
            law = conditions.l1_boundary_law(params)
            val = l1.eval(params.epsilon)
            scale = l1.max_abs_coefficient()
            # Skip the knife edge where the law value is below noise.
            if abs(law) < 1e-10:
                continue
            if (val > 0) != (law > 0) and abs(val) > 1e-12 * scale:
                ok = False
                detail = f"sign mismatch at m={m:.3f}, eps={eps:.3f}: l1(eps)={val:.3g}, law={law:.3g}"
                break
        if not ok:
            break
    return IdentityResult("l1_boundary_sign_law", ok, detail or "20x20 grid consistent")


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
        _boundary_law(rng),
    ]
    return results
