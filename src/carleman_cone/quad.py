"""Weighted-inequality verification on smooth bump test functions.

The test functions are tensor products of the classic smooth bump
``b(z) = exp(-1/(1-z^2))`` on ``|z| < 1``, so value, gradient, Laplacian and
time derivative all have closed forms (``_fields_on_grid`` evaluates them on
a tensor grid) and the integrands vanish identically outside a known box.
Both sides of the weighted inequality

    integral w * (u^2 + |grad u|^2)  <=  integral w * (u_t + lap u)^2

are integrated against ``w = exp(L)`` with
``L = 2a(t^-K - 1) phi - (|x|^2 + K)/(8t)``.

At ``K = 60`` the amplified weight concentrates far below the float64
spacing: for the default 2-D bump and ``a = 1`` the integrand peaks 5.9e-24
above the lower time edge and 2.6e-22 inside the upper ``x1`` edge, with
Laplace widths of 1.9e-35 in ``t`` and 3.3e-33 in ``x1``, where no uniform
grid has a node (``0.2 + 6e-24 == 0.2``).  ``carleman_integrals``
therefore uses a product rule that resolves the peak: Newton's method
finds the joint maximiser of ``F = L + 2 log|u|`` with each axis carried as
its (log) distance to the nearer support edge; each axis is split there and
graded on each side by a sinh map with Gauss-Legendre nodes from the
Laplace width out to the end of the bump's support in the box; ``F - F*``
is evaluated as an expansion about the peak whose terms keep their
relative precision; and both sides are accumulated against the same
``exp(F - F*)``, streamed over blocks of spatial nodes, each against all
time nodes in one matrix product.  ``lhs`` and ``rhs`` are reported
relative to ``exp(CarlemanReport.log_scale)``.

The requested ``GridSpec`` sets the rule's node counts and the box;
Newton's method starts from the best node of a fixed lattice of
``_START_NODES`` per axis over the bump's part of that box, whatever the
counts, with ``L`` on the lattice from ``weights.log_weight``.  An axis
whose best node is next to an edge starts instead where the slope of
``2 log b`` balances that of ``F`` (``_newton_start``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import WeightParams, grad_phi, hess_phi, log_weight, phi_eval

__all__ = [
    "BumpFunction",
    "GridSpec",
    "CarlemanReport",
    "SupportViolationError",
    "carleman_integrals",
    "verify_carleman",
]


class SupportViolationError(ValueError):
    """The integration box is not strictly inside the truncated cone Q."""


def _bump_factors(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(b, b', b'') of ``b(z) = exp(-1/(1-z^2))`` elementwise; zero outside |z|<1."""
    z = np.asarray(z, dtype=float)
    inside = np.abs(z) < 1.0
    w = np.where(inside, 1.0 - z * z, 1.0)
    with np.errstate(under="ignore"):
        b = np.where(inside, np.exp(-1.0 / w), 0.0)
    w2 = w * w
    bp = b * (-2.0 * z / w2)
    bpp = b * (4.0 * z * z / (w2 * w2) - 2.0 / w2 - 8.0 * z * z / (w2 * w))
    return b, bp, bpp


@dataclass(frozen=True)
class BumpFunction:
    """Smooth compactly supported tensor bump; time is the last axis.

    ``center`` and ``radii`` have length dim+1 (spatial components first,
    then time).  The support is the open box ``prod (c_i - s_i, c_i + s_i)``;
    whether that box sits inside the truncated cone depends on the cone
    parameter and is checked where the bump is integrated.
    """

    amplitude: float
    center: tuple[float, ...]
    radii: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radii", tuple(float(s) for s in self.radii))
        if len(self.center) != len(self.radii):
            raise ValueError("center and radii must have equal length")
        if len(self.center) < 3:
            raise ValueError("need at least two spatial axes plus time")
        if any(s <= 0.0 for s in self.radii):
            raise ValueError("radii must be positive")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")

    @property
    def dim(self) -> int:
        return len(self.center) - 1

    @property
    def support(self) -> tuple[tuple[float, float], ...]:
        return tuple((c - s, c + s) for c, s in zip(self.center, self.radii))


@dataclass(frozen=True)
class GridSpec:
    """Node counts and box of the quadrature.

    ``counts`` are per-axis node counts (spatial axes first, time last), at
    least 2 each, so that each side of the peak can get a node.
    ``carleman_integrals`` places ``counts[i]`` nodes of its peak-resolving
    rule on axis ``i`` and integrates over ``box``.
    """

    counts: tuple[int, ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        object.__setattr__(self, "box", tuple((float(lo), float(hi)) for lo, hi in self.box))
        if len(self.counts) != len(self.box):
            raise ValueError("counts and box must have equal length")
        if any(n < 2 for n in self.counts):
            raise ValueError("axis counts must be at least 2")
        if any(lo >= hi for lo, hi in self.box):
            raise ValueError("box sides must have positive length")

    @classmethod
    def from_support(cls, u, n: int) -> "GridSpec":
        """Cubic grid (n nodes per axis) over the support box of ``u``."""
        box = u.support
        return cls(counts=(n,) * len(box), box=box)


@dataclass(frozen=True)
class CarlemanReport:
    """Result of one weighted-inequality quadrature.

    ``lhs`` and ``rhs`` are the two integrals divided by ``exp(log_scale)``;
    that factor cancels in ``ratio = lhs / rhs`` and in the pass verdict
    ``lhs <= rhs``.  ``log_scale`` is the log of the unit-amplitude left
    integrand ``exp(L) (u^2 + |grad u|^2)`` at the peak of ``exp(L) u^2``,
    plus the logs of the peak's Laplace widths, so ``lhs`` is of the order
    of ``amplitude**2``.  It does not depend on the amplitude.  ``grid`` is
    the requested grid, whose counts set the rule's nodes per axis.
    """

    a: float
    K: float
    lhs: float
    rhs: float
    ratio: float
    grid: GridSpec
    passed: bool
    log_scale: float = 0.0


def _check_box_in_Q(box, epsilon: float) -> None:
    spatial = box[:-1]
    t_lo, t_hi = box[-1]
    if not (0.0 < t_lo and t_hi < 1.0):
        raise SupportViolationError(f"time range ({t_lo}, {t_hi}) exits (0, 1)")
    for corner in itertools.product(*spatial):
        x1 = corner[0]
        norm = math.sqrt(sum(c * c for c in corner))
        if not x1 > 1.0:
            raise SupportViolationError(f"corner {corner} violates x1 > 1")
        if not x1 > epsilon * norm:
            raise SupportViolationError(f"corner {corner} exits the cone (epsilon={epsilon})")


def _fields_on_grid(u: BumpFunction, axes: Sequence[np.ndarray], dim: int):
    """(value, spatial gradients, Laplacian, time derivative) of ``u`` on a tensor grid.

    ``axes`` holds the nodes of each axis, time last; one-node axes give
    the fields at a point.  The package's one closed-form evaluator of the
    bump fields, which the tests use as the reference for the quadrature.
    """
    n_axes = dim + 1
    b, bp, bpp = [], [], []
    for i in range(n_axes):
        bi, bpi, bppi = _bump_factors((axes[i] - u.center[i]) / u.radii[i])
        b.append(_axis_view(bi, i, n_axes))
        bp.append(_axis_view(bpi / u.radii[i], i, n_axes))
        bpp.append(_axis_view(bppi / u.radii[i] ** 2, i, n_axes))

    def times_others(factor, j):
        """``factor`` on axis ``j`` times the bump factors of the other axes."""
        out = u.amplitude * factor
        for i in range(n_axes):
            if i != j:
                out = out * b[i]
        return out

    value = u.amplitude * math.prod(b[1:], start=b[0])
    grads = [times_others(bp[j], j) for j in range(dim)]
    lap = sum(times_others(bpp[j], j) for j in range(dim))
    return value, grads, lap, times_others(bp[dim], dim)


# ---------------------------------------------------------------------------
# Peak-resolving product rule
# ---------------------------------------------------------------------------

# Drop of the exponent below its peak value past which a node carries no
# float64 weight (exp underflows near -745).  A side of a peak is graded out
# to its edge, or to where the drop along the axis stays below this.
_LOG_FLOOR = -1000.0
# Finite stand-in for log 0 inside matrix products, where -inf * 0 is nan.
_LOG_ZERO = -1e300
# Exponents are raised to this before exp: a node below it weighs ~1e-304 of
# the peak, and staying out of the subnormal range keeps exp and the block
# products fast (subnormals slow both by about a hundred times).
_EXP_FLOOR = -700.0
# Uniform nodes per axis of the lattice on which Newton's start is picked:
# the start only has to lie in the peak's basin and, for a concentrated
# peak, on the inside node nearest the right edges, so the lattice does not
# grow with the grid.
_START_NODES = 17
# Exponents in one streamed block of spatial rows (times all time nodes).
_BLOCK_NODES = 1 << 17
_NEWTON_STEPS = 500
_EPS = float(np.finfo(float).eps)
# Predicted Newton gain, in units of the exponent, below which the peak is final.
_NEWTON_TOL = 1e-9


@dataclass(frozen=True)
class _Point:
    """A point inside the bump's support box, time last.

    ``x`` is rounded to float64; ``lo_gap`` and ``hi_gap`` are the distances
    to the bump's lower and upper edges, kept to full relative precision
    where ``x`` cannot hold them (``0.2 + 6e-24 == 0.2`` in float64).
    """

    x: np.ndarray
    lo_gap: np.ndarray
    hi_gap: np.ndarray

    def moved(self, delta: np.ndarray) -> "_Point":
        return _Point(self.x + delta, self.lo_gap + delta, self.hi_gap - delta)


@dataclass(frozen=True)
class _Peak:
    """Maximiser of ``F = L + 2 log B`` (amplitude left out).

    ``slope`` is the gradient used in the expansion about the peak: zero
    where Newton's method converged, since there the computed gradient is
    rounding noise (its terms cancel from ~1e45), and the computed gradient
    where it stopped short, e.g. at the edge of a clipped box.
    """

    point: _Point
    sigma: np.ndarray  # Laplace widths, one per axis
    value: float  # F at the peak
    slope: np.ndarray


def _axis_view(v: np.ndarray, axis: int, n_axes: int) -> np.ndarray:
    shape = [1] * n_axes
    shape[axis] = -1
    return np.reshape(v, shape)


def _tensor_sum(parts: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_j parts[j][i_j]`` over the tensor grid of the parts."""
    n = len(parts)
    out = np.zeros([len(p) for p in parts])
    for j, p in enumerate(parts):
        out = out + _axis_view(p, j, n)
    return out


def _log_b(lo_gap, hi_gap, s):
    """``log b = -s^2 / (lo_gap * hi_gap)`` from the edge distances; -inf outside."""
    inside = (lo_gap > 0.0) & (hi_gap > 0.0)
    return np.where(inside, -s * s / np.where(inside, lo_gap * hi_gap, 1.0), -np.inf)


def _log_b_slope(lo_gap, hi_gap, s):
    """``(log b)'`` along the axis from the edge distances."""
    e = lo_gap * hi_gap
    return s * s * (hi_gap - lo_gap) / e / e


def _expm1_rest(y):
    """``expm1(y) - y`` without the cancellation at small ``y``."""
    y = np.asarray(y, dtype=float)
    small = np.abs(y) < 1e-2
    z = np.where(small, y, 0.0)
    series = z * z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120
                                                          + z * (1 / 720 + z / 5040)))))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(small, series, np.expm1(y) - y)


def _log1p_rest(u):
    """``log1p(u) - u`` without the cancellation at small ``u``."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    z = np.where(small, u, 0.0)
    series = -z * z * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z / 6))))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(small, series, np.log1p(u) - u)


def _log_b_rest(d, lo_gap, hi_gap, s):
    """``log b(x + d) - log b(x) - d (log b)'(x)`` from the edge distances of ``x``.

    With ``log b = -s^2 / (lo hi)`` in the edge distances this is
    ``-s^2 d^2 (lo hi + (hi - lo)(hi - lo - d)) / ((lo + d)(hi - d)(lo hi)^2)``,
    which keeps its relative precision for offsets far below the spacing of
    ``x``.  Offsets past an edge give ``-inf``.
    """
    lo, hi = lo_gap + d, hi_gap - d
    inside = (lo > 0.0) & (hi > 0.0)
    e = lo_gap * hi_gap
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rest = (-s * s * (d / e) ** 2 * (e + (hi_gap - lo_gap) * (hi_gap - lo_gap - d))
                / (lo * hi))
    return np.where(inside, rest, -np.inf)


def _log_b_slopes(lo_gap, hi_gap, s, scale: float):
    """``(log b)'`` and ``b''/b`` at the given edge distances, divided by ``scale``.

    Dividing before squaring keeps ``((log b)')^2`` finite where the first
    derivative alone is near the float64 range.  Zero outside the support.
    """
    inside = (lo_gap > 0.0) & (hi_gap > 0.0)
    lo_gap, hi_gap = np.where(inside, lo_gap, 1.0), np.where(inside, hi_gap, 1.0)
    e = lo_gap * hi_gap
    diff = hi_gap - lo_gap
    slope = _log_b_slope(lo_gap, hi_gap, s)
    scaled = slope / scale
    # (log b)'' / scale = -2 s^2 (e + diff^2) / e^3 / scale, divided in an
    # order that stays finite where e^3 alone would not
    curvature = -2.0 * s * s * ((e + diff * diff) / e / scale) / e / e
    return (np.where(inside, scaled, 0.0), np.where(inside, slope * scaled + curvature, 0.0))


def _exponent_factors(p: _Point, s, slope, offsets, params: WeightParams, a, K):
    """Factor ``F(p + offsets) - F(p)`` on the tensor grid of ``offsets`` as ``X @ T``.

    ``offsets`` holds one array per axis (time last); ``X`` has one row per
    spatial node (C order) and ``T`` one column per time offset.  Near a
    concentrated peak ``L`` is ~1e43 with ~1e27 of rounding error, and even
    its first-order change over one Laplace width is ~1e11, cancelled by
    ``2 log B`` down to a structure of order one.  So ``F`` is expanded as
    ``slope . offsets`` plus second-order remainders, each in closed form
    that keeps its relative precision: ``t0^-K (expm1(y) - y + K (u -
    log1p(u)))`` with ``u = dt/t0`` for the amplification, the same
    expm1/log1p remainders of the offsets in ``log x1`` and ``log r`` for
    ``phi``, and edge distances for ``log b``.
    """
    dim = len(offsets) - 1
    spatial = _tensor_sum([2.0 * _log_b_rest(offsets[j], p.lo_gap[j], p.hi_gap[j], s[j])
                           + slope[j] * offsets[j] for j in range(dim)]).ravel()
    dt = offsets[dim]
    time_part = 2.0 * _log_b_rest(dt, p.lo_gap[dim], p.hi_gap[dim], s[dim]) + slope[dim] * dt
    ones_x, ones_t = np.ones(spatial.size), np.ones(dt.size)
    m, alpha = params.m, params.alpha
    xs = p.x[:dim]
    r2 = float(xs @ xs)
    r = math.sqrt(r2)
    # x.offsets, |offsets|^2 and r^2/r0^2 - 1 over the spatial grid
    dot = _tensor_sum([xs[j] * offsets[j] for j in range(dim)])
    sq = _tensor_sum([o * o for o in offsets[:dim]])
    rho = (2.0 * dot + sq) / r2
    log_r = 0.5 * np.log1p(rho)
    log_r_rest = 0.5 * (_log1p_rest(rho) + sq / r2)  # log(r/r0) - x.offsets/r0^2
    u1 = _axis_view(offsets[0] / xs[0], 0, dim)
    y = m * np.log1p(u1) + (alpha - m) * log_r
    y_rest = m * _log1p_rest(u1) + (alpha - m) * log_r_rest
    head = math.pow(xs[0], m) * math.pow(r, alpha - m)
    tail = math.pow(params.epsilon, m) * math.pow(r, alpha)
    dphi = (head * np.expm1(y) - tail * np.expm1(alpha * log_r)).ravel()
    dphi_rest = (head * (_expm1_rest(y) + y_rest)
                 - tail * (_expm1_rest(alpha * log_r) + alpha * log_r_rest)).ravel()
    t0 = float(p.x[dim])
    t = t0 + dt
    amp = math.pow(t0, -K)
    u_t = dt / t0
    y_t = -K * np.log1p(u_t)
    dlam = amp * np.expm1(y_t)
    dlam_rest = amp * (_expm1_rest(y_t) - K * _log1p_rest(u_t))
    # the Gaussian factor's remainder: -(r0^2+K) dt^2/(8 t0^2 t)
    # + 2 x.offsets dt/(8 t t0) - |offsets|^2/(8t)
    X = np.column_stack([spatial + 2.0 * a * (amp - 1.0) * dphi_rest, ones_x,
                         2.0 * a * dphi, 2.0 * dot.ravel(), -sq.ravel()])
    T = np.vstack([
        ones_t,
        time_part + 2.0 * a * (head - tail) * dlam_rest
        - (r2 + K) * dt * dt / (8.0 * t0 * t0 * t),
        dlam,
        dt / (8.0 * t * t0),
        1.0 / (8.0 * t),
    ])
    return np.maximum(X, _LOG_ZERO), np.maximum(T, _LOG_ZERO)


def _exponent_step(p: _Point, s, slope, delta, params, a, K) -> float:
    """``F(p + delta) - F(p)`` for one displacement."""
    X, T = _exponent_factors(p, s, slope, [np.array([d]) for d in delta], params, a, K)
    return float((X @ T)[0, 0])


def _exponent_value(p: _Point, s, params, a, K) -> float:
    dim = len(s) - 1
    return (2.0 * float(np.sum(_log_b(p.lo_gap, p.hi_gap, s)))
            + log_weight(p.x[:dim], float(p.x[dim]), a, K, params))


def _grad_hess(p: _Point, s, modes, params, a, K, hessian=True):
    """Gradient and Hessian of ``F = L + 2 log B`` in Newton's coordinates ``y``.

    An axis with ``modes`` +1 (-1) is the log of its distance to the lower
    (upper) edge, the others the coordinate itself; ``jac = dx/dy`` is
    returned too.  The ``log b`` terms are formed in ``y`` directly: in
    ``x`` their curvature ``~ s^2 / e^3`` leaves the float64 range once the
    peak is within ~1e-103 of an edge (K near 300 for the default bump), so
    a caller on such a point in ``x`` asks for the gradient alone
    (``hessian=False``), whose ``~ s^2 / e^2`` stays in range.
    """
    log_axis = modes != 0
    jac = np.where(modes > 0, p.lo_gap, np.where(modes < 0, -p.hi_gap, 1.0))
    e = p.lo_gap * p.hi_gap
    diff = p.hi_gap - p.lo_gap
    per_e = jac / e  # 1/hi_gap or -1/lo_gap on a log axis
    first = s * s * diff / e * per_e  # jac (log b)'
    dim = len(s) - 1
    x, t = p.x[:dim], float(p.x[dim])
    lam = math.pow(t, -K) - 1.0
    dlam = -K * math.pow(t, -K - 1.0)
    phi = phi_eval(x, params)
    gphi = grad_phi(x, params)
    rk = float(x @ x) + K
    g_L = np.append(2.0 * a * lam * gphi - x / (4.0 * t),
                    2.0 * a * dlam * phi + rk / (8.0 * t * t))
    grad = 2.0 * first + jac * g_L
    if not hessian:
        return grad
    hess = np.diag(2.0 * (-2.0 * s * s * (e + diff * diff) / e * per_e * per_e
                          + np.where(log_axis, first, 0.0)))
    d2lam = K * (K + 1.0) * math.pow(t, -K - 2.0)
    H_L = np.empty((dim + 1, dim + 1))
    H_L[:dim, :dim] = 2.0 * a * lam * hess_phi(x, params) - np.eye(dim) / (4.0 * t)
    H_L[:dim, dim] = H_L[dim, :dim] = 2.0 * a * dlam * gphi + x / (4.0 * t * t)
    H_L[dim, dim] = 2.0 * a * d2lam * phi - rk / (4.0 * t ** 3)
    # d2F/dy2 = jac^2 d2F/dx2 + dF/dx d2x/dy2, and d2x/dy2 = jac on a log axis
    hess += jac[:, None] * H_L * jac[None, :] + np.diag(np.where(log_axis, jac * g_L, 0.0))
    return grad, hess, jac


def _ascent_step(g: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Newton step towards a maximum, solved in the diagonally scaled system.

    The axes' curvatures differ by dozens of orders of magnitude, so the
    system is scaled to unit diagonal first.  Where ``-H`` is not positive
    definite the step falls back to the gradient scaled by the curvature.
    """
    d = np.sqrt(np.abs(np.diag(H)))
    if np.all(np.isfinite(H)) and np.all(d > 0.0):
        scaled = -H / np.outer(d, d)
        try:
            np.linalg.cholesky(scaled)
            return np.linalg.solve(scaled, g / d) / d
        except np.linalg.LinAlgError:
            pass
    return g / np.maximum(np.abs(np.diag(H)), np.maximum(np.abs(g), 1e-300))


def _find_peak(start: _Point, modes, s, floor_lo, floor_hi, params, a, K) -> _Peak:
    """Newton ascent on ``F`` from ``start``, then the Laplace widths there.

    An axis with ``modes`` +1 (-1) moves in the log of its distance to the
    lower (upper) edge, where a concentrated peak sits; the others move in
    the coordinate itself.  Each step is halved until it raises ``F``,
    measured in the expanded form, and keeps the point farther than
    ``floor_lo`` / ``floor_hi`` from the edges.  The peak is stationary once
    the predicted gain is below ``_NEWTON_TOL`` or a step would move no
    axis by more than a few roundings of its coordinate or edge distance.
    """
    p = start
    log_axis = modes != 0
    stationary = False
    for _ in range(_NEWTON_STEPS):
        gy, Hy, jac = _grad_hess(p, s, modes, params, a, K)
        step = _ascent_step(gy, Hy)
        resolution = 16.0 * np.where(log_axis, _EPS * np.minimum(p.lo_gap, p.hi_gap),
                                     np.spacing(np.abs(p.x)))
        with np.errstate(over="ignore", invalid="ignore"):
            delta = np.where(log_axis, jac * np.expm1(step), step)
        if not float(gy @ step) > _NEWTON_TOL or np.all(np.abs(delta) <= resolution):
            stationary = True
            break
        for _ in range(64):
            q = p.moved(delta)
            if (np.all(np.isfinite(delta)) and np.all(q.lo_gap > floor_lo)
                    and np.all(q.hi_gap > floor_hi)
                    and _exponent_step(p, s, gy / jac, delta, params, a, K) > 0.0):
                break
            step = 0.5 * step
            with np.errstate(over="ignore", invalid="ignore"):
                delta = np.where(log_axis, jac * np.expm1(step), step)
        else:
            break
        p = q
    gy, Hy, jac = _grad_hess(p, s, modes, params, a, K)
    # Laplace widths (-d^2F/dx_i^2)^-1/2 = |dx/dy| (-d^2F/dy_i^2)^-1/2;
    # half the radius where F is not concave
    curv = -np.diag(Hy)
    ok = np.isfinite(curv) & (curv > 0.0)
    sigma = np.where(ok, np.abs(jac) / np.sqrt(np.where(ok, curv, 1.0)), 0.5 * s)
    return _Peak(p, sigma, _exponent_value(p, s, params, a, K),
                 np.zeros_like(gy) if stationary else gy / jac)


@functools.lru_cache(maxsize=32)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1]; cached, so read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _graded_side(n: int, extent: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``n`` Gauss-Legendre nodes in ``u`` mapped by ``g = sigma sinh(u)`` onto (0, extent)."""
    xi, w = _legendre(n)
    top = math.asinh(extent / sigma)
    u = 0.5 * top * (xi + 1.0)
    return sigma * np.sinh(u), 0.5 * top * sigma * np.cosh(u) * w


def _side_extent(length: float, sigma: float, drop) -> float:
    """How far one side of a peak needs nodes.

    ``drop(g)`` is the exponent's fall along the axis at offsets ``g``; it is
    sampled at ``sigma * 2^k``, and the side ends at the first sample past
    the last one above ``_LOG_FLOOR``, but not before ``sqrt(-2 floor)``
    widths or after the edge.
    """
    if not length > sigma:
        return length
    samples = np.append(sigma * 2.0 ** np.arange(int(math.log2(length / sigma)) + 1), length)
    above = np.nonzero(drop(samples) >= _LOG_FLOOR)[0]
    last = int(above[-1]) + 1 if above.size else 0
    extent = float(samples[last]) if last < samples.size else length
    return min(length, max(extent, math.sqrt(-2.0 * _LOG_FLOOR) * sigma))


def _axis_rule(n: int, sigma: float, below: float, above: float, drop):
    """Offsets from the peak and weights of one axis's nodes, graded from the peak.

    ``below`` and ``above`` are the peak's distances to the lower and upper
    ends of the axis's domain, the bump's support clipped to the box.  Each
    side with room gets ``_graded_side`` nodes out to ``_side_extent``: the
    lower side ``(n + 1) // 2`` and the upper side ``n // 2``, or all ``n``
    where the peak stops on a clipped box's edge and the other side has
    none.  ``drop(g)`` is the exponent's fall along the axis at offsets
    ``g``.
    """
    sides = [(where, length) for where, length in ((-1.0, below), (1.0, above)) if length > 0.0]
    counts = [n] if len(sides) == 1 else [(n + 1) // 2, n // 2]
    offset, weight = [], []
    for (where, length), count in zip(sides, counts):
        extent = _side_extent(length, sigma, lambda g: drop(where * g))
        g, w = _graded_side(count, extent, sigma)
        offset.append(where * g)
        weight.append(w)
    return np.concatenate(offset), np.concatenate(weight)


def _stream(X, T, R) -> np.ndarray:
    """``exp(max(X @ T, _EXP_FLOOR)) @ R``, one block of spatial rows at a time.

    A block holds ``_BLOCK_NODES // T.shape[1]`` rows of ``X`` (at least
    one), so its exponents take at most ``max(_BLOCK_NODES, T.shape[1])``
    doubles whatever the grid; each block is one product over the whole
    time axis and writes its rows of the result once.
    """
    block = max(1, _BLOCK_NODES // T.shape[1])
    out = np.empty((X.shape[0], R.shape[1]))
    for i in range(0, X.shape[0], block):
        E = X[i:i + block] @ T
        np.maximum(E, _EXP_FLOOR, out=E)
        np.exp(E, out=E)
        out[i:i + block] = E @ R
    return out


def _newton_start(lo, hi, s, box_lo, box_hi, params: WeightParams, a, K):
    """Newton's start point and axis modes for the bump, picked on a coarse lattice.

    The lattice has ``_START_NODES`` uniform nodes per axis over the bump's
    part of the box; the start is the node with the largest
    ``F = L + 2 log B``.  An axis whose start is the bump's first (last)
    inside node gets mode +1 (-1), so Newton moves it in the log of its
    distance to the nearer edge, where a concentrated peak sits; the other
    axes get mode 0.

    A concentrated peak sits far closer to the edges than any lattice node,
    and Newton, far from it, gains only about one unit of log edge distance
    per step.  So an axis of mode +1 (-1) first moves to the balance point:
    near an edge ``2 log b ~ -s/e``, whose slope ``s/e^2`` meets the slope
    ``|g|`` of ``F`` at ``e = sqrt(s/|g|)``.  Where ``g`` points towards
    that edge, the axis takes the smaller of its edge distance and this
    ``e``, held to full precision in the gaps.  ``g`` grows steeply towards
    the edge, so it is taken again at the moved point and the balance
    applied once more.  It is the slope of all of ``F``, not of the weight
    alone, so an axis moves only where the weight's pull outweighs the
    bump's own slope, and never onto the box's edge where the box clips
    the bump.  Mode-0 axes keep the lattice start.
    """
    axes = [np.linspace(start, stop, _START_NODES)
            for start, stop in zip(np.maximum(lo, box_lo), np.minimum(hi, box_hi))]
    F = _tensor_sum([2.0 * _log_b(ax - lo[i], hi[i] - ax, s[i]) for i, ax in enumerate(axes)])
    views = [_axis_view(ax, i, len(axes)) for i, ax in enumerate(axes)]
    F += log_weight(views[:-1], views[-1], a, K, params)
    index = np.unravel_index(int(np.argmax(F)), F.shape)
    x = np.array([ax[j] for ax, j in zip(axes, index)])
    modes = np.zeros(len(axes))
    for i, j in enumerate(index):
        inside = np.nonzero((axes[i] > lo[i]) & (axes[i] < hi[i]))[0]
        if j in (inside[0], inside[-1]):
            modes[i] = 1.0 if x[i] - lo[i] <= hi[i] - x[i] else -1.0
    point = _Point(x, x - lo, hi - x)
    if not np.any(modes):
        return point, modes
    for _ in range(2):
        g = _grad_hess(point, s, np.zeros_like(modes), params, a, K, hessian=False)
        x, lo_gap, hi_gap = point.x.copy(), point.lo_gap.copy(), point.hi_gap.copy()
        for i in np.nonzero(np.isfinite(g) & (modes * g < 0.0))[0]:
            floor = box_lo[i] - lo[i] if modes[i] > 0 else hi[i] - box_hi[i]
            e = max(math.sqrt(s[i] / abs(g[i])), floor)
            if modes[i] > 0 and e < lo_gap[i]:
                lo_gap[i], hi_gap[i], x[i] = e, (hi[i] - lo[i]) - e, lo[i] + e
            elif modes[i] < 0 and e < hi_gap[i]:
                lo_gap[i], hi_gap[i], x[i] = (hi[i] - lo[i]) - e, e, hi[i] - e
        point = _Point(x, lo_gap, hi_gap)
    return point, modes


def carleman_integrals(
    u: BumpFunction,
    params: WeightParams,
    a: float,
    K: float,
    grid: GridSpec,
) -> CarlemanReport:
    """Both sides of the weighted inequality by a peak-resolving product rule.

    The left side integrates ``u^2 + |grad u|^2`` and the right side
    ``(u_t + lap u)^2`` against the weight ``exp(L)``.  The joint
    maximiser of ``F = L + 2 log|u|`` is found by Newton's method, started
    from the argmax of ``F`` on a lattice of ``_START_NODES`` per axis over
    the bump's part of ``grid.box``, moved towards an edge to the balance
    point (``_newton_start``).  Each axis is split at the peak, and
    ``grid.counts[i]`` Gauss-Legendre nodes are placed on its two sides
    (``_axis_rule``), graded by a sinh map from the Laplace width
    ``sigma_i`` out to the end of the bump's support in the box.  The
    integrand is evaluated as ``exp(F - F*)`` times the payloads divided by
    ``u^2``, expanded about the peak, and streamed over blocks of spatial
    nodes in one pass.  ``lhs`` and ``rhs`` are reported relative to
    ``exp(log_scale)``, the left integrand's Laplace scale (see
    CarlemanReport).

    For the default bump the peak is resolved up to ``K`` near 428 (for
    ``a = 10``; 431 for ``a = 0.1``), where Newton's time curvature
    ``2a K(K+1) t^-(K+2) phi`` leaves the float64 range; the CLI bounds
    ``K_cap`` there.  From ``K`` near 210 the ratio is below that range, so
    ``rhs`` reads ``inf`` and ``ratio`` 0.

    When the amplitude is 0 or the bump misses ``grid.box``, both sides
    are 0 and the report passes.
    """
    if not a >= 0.0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if not K > 0.0:
        raise ValueError(f"K must be positive, got {K}")
    dim = len(grid.box) - 1
    _check_box_in_Q(grid.box, params.epsilon)
    box_lo = np.array([lo for lo, _ in grid.box])
    box_hi = np.array([hi for _, hi in grid.box])
    s = np.array(u.radii)
    lo, hi = np.array(u.center) - s, np.array(u.center) + s
    if u.amplitude == 0.0 or not (np.all(lo < box_hi) and np.all(hi > box_lo)):
        return CarlemanReport(a=a, K=K, lhs=0.0, rhs=0.0, ratio=0.0, grid=grid, passed=True)

    point, modes = _newton_start(lo, hi, s, box_lo, box_hi, params, a, K)
    peak = _find_peak(point, modes, s, np.maximum(box_lo - lo, 0.0),
                      np.maximum(hi - box_hi, 0.0), params, a, K)
    p = peak.point
    # sqrt of the unit-amplitude left payload over u^2 at the peak
    slopes = _log_b_slope(p.lo_gap[:dim], p.hi_gap[:dim], s[:dim])
    scale = math.hypot(1.0, *slopes)
    log_scale = peak.value + 2.0 * math.log(scale) + float(np.sum(np.log(peak.sigma)))

    def drop(axis, g):
        """The exponent's fall along the axis at offsets g from the peak."""
        offsets = [np.zeros(1)] * (dim + 1)
        offsets[axis] = g
        X, T = _exponent_factors(p, s, peak.slope, offsets, params, a, K)
        return (X @ T).ravel()

    # the peak's distances to the ends of the bump's support clipped to the box
    below = p.lo_gap - (np.maximum(box_lo, lo) - lo)
    above = (np.minimum(box_hi, hi) - hi) + p.hi_gap
    offsets, weights = zip(*(_axis_rule(grid.counts[i], float(peak.sigma[i]), float(below[i]),
                                        float(above[i]), functools.partial(drop, i))
                             for i in range(dim + 1)))
    w_x = math.prod((_axis_view(weights[i] / peak.sigma[i], i, dim) for i in range(dim)),
                    start=np.ones([1] * dim)).ravel()
    w_t = weights[dim] / peak.sigma[dim]

    # Exponent factors and payload slopes over u, all about the peak.
    # Where the ratio is below the float64 range, rhs overflows to inf.
    with np.errstate(over="ignore"):
        X, T = _exponent_factors(p, s, peak.slope, offsets, params, a, K)
        g_x, h_x = zip(*(_log_b_slopes(p.lo_gap[i] + offsets[i], p.hi_gap[i] - offsets[i],
                                       s[i], scale) for i in range(dim)))
        g_t, _ = _log_b_slopes(p.lo_gap[dim] + offsets[dim], p.hi_gap[dim] - offsets[dim],
                               s[dim], scale)
        H = _tensor_sum(h_x).ravel()
        S = _stream(X, T, np.column_stack([w_t, w_t * g_t, w_t * g_t * g_t]))
        grad = _tensor_sum([g * g for g in g_x]).ravel()
        amp2 = u.amplitude * u.amplitude
        lhs = amp2 * float(w_x @ (((1.0 / scale) ** 2 + grad) * S[:, 0]))
        rhs = amp2 * float(w_x @ ((H * S[:, 0] + 2.0 * S[:, 1]) * H + S[:, 2]))
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return CarlemanReport(a=a, K=K, lhs=lhs, rhs=rhs, ratio=ratio, grid=grid,
                          passed=bool(lhs <= rhs), log_scale=log_scale)


def verify_carleman(
    u: BumpFunction,
    params: WeightParams,
    a_list: Sequence[float],
    K_init: float,
    K_cap: float,
    grid: GridSpec,
) -> list[CarlemanReport]:
    """Run the inequality for each amplification ``a``, escalating K on failure.

    K doubles (capped at ``K_cap``) until the inequality passes; the report
    kept per ``a`` is the first passing one, or the failing attempt at the
    cap.  An empty ``a_list`` yields an empty report list.
    """
    if K_init > K_cap:
        raise ValueError(f"K_init {K_init} exceeds K_cap {K_cap}")
    reports: list[CarlemanReport] = []
    for a in a_list:
        K = float(K_init)
        while True:
            report = carleman_integrals(u, params, a, K, grid)
            if report.passed or K >= K_cap:
                reports.append(report)
                break
            K = min(2.0 * K, K_cap)
    return reports
