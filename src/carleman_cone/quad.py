"""Weighted-inequality verification on smooth bump test functions.

The test functions are tensor products of the classic smooth bump
``b(z) = exp(-1/(1-z^2))`` on ``|z| < 1``, so value, gradient, Laplacian and
time derivative all have closed forms (``_fields_on_grid`` evaluates them on
a tensor grid) and the integrands vanish identically outside the bump's
support, the box over which both sides are integrated.
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
Laplace width out to the end of the bump's support; ``F - F*``
is evaluated as an expansion about the peak whose terms keep their
relative precision; and both sides are accumulated against the same
``exp(F - F*)``, as 1-D sums where it splits by axis (a concentrated peak) and
otherwise over slabs of axis 0 of at most ``_BLOCK_NODES`` spatial nodes,
each streamed over blocks against all time nodes in one matrix product, so
no array of the whole spatial tensor is built.  One evaluator
(``_exponent_factors``) takes broadcasting offsets: a slab's axes, or a
"star" of every axis's 1-D offsets at once.  Every tensor is a ``sum`` or
``math.prod`` of ``np.ix_`` views of per-axis arrays.  ``lhs`` and ``rhs``
are relative to ``exp(CarlemanReport.log_scale)``.

The requested ``GridSpec`` sets the rule's node counts; Newton's method
starts from the best node of a fixed lattice of ``_START_NODES`` per axis
over the support, whatever the counts, with ``L`` on the lattice from
``weights.log_weight``.  An axis whose best node is the first or last
inside node starts instead where the slope of ``2 log b`` balances that
of ``F`` (``_newton_start``).
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
    """The bump's support is not strictly inside the truncated cone Q."""


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
    """Node counts of the quadrature.

    ``counts`` are per-axis node counts (spatial axes first, time last), at
    least 2 each, so that each side of the peak gets a node.
    ``carleman_integrals`` places ``counts[i]`` nodes of its peak-resolving
    rule on axis ``i`` of the bump's support.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(n) for n in self.counts))
        if any(n < 2 for n in self.counts):
            raise ValueError("axis counts must be at least 2")

    @classmethod
    def from_support(cls, u, n: int) -> "GridSpec":
        """``n`` nodes on each axis of ``u``."""
        return cls(counts=(n,) * len(u.center))


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


def _check_support_in_Q(support, epsilon: float) -> None:
    spatial = support[:-1]
    t_lo, t_hi = support[-1]
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
    factors = [_bump_factors((axes[i] - u.center[i]) / u.radii[i]) for i in range(n_axes)]
    # the k-th derivative in the axis is the one in z over radius^k
    b, bp, bpp = (np.ix_(*(f[k] / u.radii[i] ** k for i, f in enumerate(factors)))
                  for k in range(3))

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
# Largest _separation_bound at which carleman_integrals sums per axis (below exp's rounding).
_CROSS_TOL = _EPS / 4.0
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
    where it stopped short.
    """

    point: _Point
    sigma: np.ndarray  # Laplace widths, one per axis
    value: float  # F at the peak
    slope: np.ndarray


def _log_b(lo_gap, hi_gap, s):
    """``log b = -s^2 / (lo_gap * hi_gap)`` from the edge distances; -inf outside."""
    inside = (lo_gap > 0.0) & (hi_gap > 0.0)
    return np.where(inside, -s * s / np.where(inside, lo_gap * hi_gap, 1.0), -np.inf)


def _log_b_slope(lo_gap, hi_gap, s):
    """``(log b)'`` along the axis from the edge distances."""
    e = lo_gap * hi_gap
    return s * s * (hi_gap - lo_gap) / e / e


def _expm1_rest(y, expm1_y):
    """``expm1(y) - y`` from ``expm1_y``, with a series where ``|y| < 1e-2``."""
    rest = expm1_y - y
    small = np.abs(y) < 1e-2
    z = y[small]
    rest[small] = z * z * (1 / 2 + z * (1 / 6 + z * (1 / 24 + z * (1 / 120
                                                                + z * (1 / 720 + z / 5040)))))
    return rest


def _log1p_rest(u, log1p_u):
    """``log1p(u) - u`` from ``log1p_u``, with a series where ``|u| < 1e-3``."""
    rest = log1p_u - u
    small = np.abs(u) < 1e-3
    z = u[small]
    rest[small] = -z * z * (1 / 2 - z * (1 / 3 - z * (1 / 4 - z * (1 / 5 - z / 6))))
    return rest


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


def _exponent_factors(p: _Point, s, slope, x_offsets, dt, params: WeightParams, a, K):
    """Factor ``F(p + (x_offsets, dt)) - F(p)`` as ``X @ T``.

    ``x_offsets`` holds one array per spatial axis, arrays that broadcast
    with one another as in ``weights.phi_eval``: ``np.ix_`` views for a
    tensor grid, or flat arrays of one length for a list of points.  ``X``
    has one row per element of their broadcast shape (C order) and ``T``
    one column per time offset in ``dt``.  Near a concentrated peak ``L``
    is ~1e43 with ~1e27 of rounding error, and even its first-order change
    over one Laplace width is ~1e11, cancelled by ``2 log B`` down to a
    structure of order one.  So ``F`` is expanded as
    ``slope . offsets`` plus second-order remainders, each in closed form
    that keeps its relative precision: ``t0^-K (expm1(y) - y + K (u -
    log1p(u)))`` with ``u = dt/t0`` for the amplification, the same
    expm1/log1p remainders of the offsets in ``log x1`` and ``log r`` for
    ``phi``, and edge distances for ``log b``.

    The layout: ``X[:, 0]`` is space alone and ``T[1]`` time alone,
    ``X[:, 1]`` and ``T[0]`` ones, and columns (rows) 2.. the cross terms
    ``2a dphi (x) dlam``, ``2 x.offsets (x) dt/(8 t t0)`` and ``-|offsets|^2
    (x) 1/(8t)``.  ``_separation_bound``'s derivation, ``_stream``'s product
    and ``_axis_exponents`` read it; ``X``, stacked by columns, is Fortran-ordered.
    """
    dim = len(x_offsets)
    spatial = sum(2.0 * _log_b_rest(o, p.lo_gap[j], p.hi_gap[j], s[j]) + slope[j] * o
                  for j, o in enumerate(x_offsets)).ravel()
    time_part = 2.0 * _log_b_rest(dt, p.lo_gap[dim], p.hi_gap[dim], s[dim]) + slope[dim] * dt
    m, alpha = params.m, params.alpha
    xs = p.x[:dim]
    r2 = float(xs @ xs)
    r = math.sqrt(r2)
    # x.offsets, |offsets|^2 and r^2/r0^2 - 1 over the offsets' broadcast shape
    dot = sum(xs[j] * o for j, o in enumerate(x_offsets))
    sq = sum(o * o for o in x_offsets)
    rho = (2.0 * dot + sq) / r2
    log1p_rho = np.log1p(rho)
    log_r = 0.5 * log1p_rho
    log_r_rest = 0.5 * (_log1p_rest(rho, log1p_rho) + sq / r2)  # log(r/r0) - x.offsets/r0^2
    u1 = x_offsets[0] / xs[0]
    log1p_u1 = np.log1p(u1)
    y = m * log1p_u1 + (alpha - m) * log_r
    y_rest = m * _log1p_rest(u1, log1p_u1) + (alpha - m) * log_r_rest
    head = math.pow(xs[0], m) * math.pow(r, alpha - m)
    tail = math.pow(params.epsilon, m) * math.pow(r, alpha)
    y_r = alpha * log_r
    expm1_y, expm1_y_r = np.expm1(y), np.expm1(y_r)
    dphi = head * expm1_y - tail * expm1_y_r
    dphi_rest = (head * (_expm1_rest(y, expm1_y) + y_rest)
                 - tail * (_expm1_rest(y_r, expm1_y_r) + alpha * log_r_rest))
    t0 = float(p.x[dim])
    t = t0 + dt
    amp = math.pow(t0, -K)
    u_t = dt / t0
    log1p_u_t = np.log1p(u_t)
    y_t = -K * log1p_u_t
    expm1_y_t = np.expm1(y_t)
    dlam = amp * expm1_y_t
    dlam_rest = amp * (_expm1_rest(y_t, expm1_y_t) - K * _log1p_rest(u_t, log1p_u_t))
    # the Gaussian factor's remainder: -(r0^2+K) dt^2/(8 t0^2 t)
    # + 2 x.offsets dt/(8 t t0) - |offsets|^2/(8t)
    X = np.vstack([spatial + 2.0 * a * (amp - 1.0) * dphi_rest.ravel(), np.ones(spatial.size),
                   2.0 * a * dphi.ravel(), 2.0 * dot.ravel(), -sq.ravel()]).T
    T = np.vstack([
        np.ones(dt.size),
        time_part + 2.0 * a * (head - tail) * dlam_rest
        - (r2 + K) * dt * dt / (8.0 * t0 * t0 * t),
        dlam,
        dt / (8.0 * t * t0),
        1.0 / (8.0 * t),
    ])
    return np.maximum(X, _LOG_ZERO, out=X), np.maximum(T, _LOG_ZERO, out=T)


def _separation_bound(p: _Point, offsets, params: WeightParams, a, K) -> float:
    """Bound on ``|F(p + o) - F(p) - sum_j f_j(o_j)|`` over the tensor grid of ``offsets``.

    ``f_j`` is the exponent along axis ``j`` alone.  By ``_exponent_factors``'
    layout the gap is ``2a (t0^-K - 1) N + 2a dphi dlam + (2 x.o + |o|^2)
    dt/(8 t t0)``, with ``N = phi(x+o) - sum_j phi(x + o_j e_j) + (dim-1) phi(x)``.
    Write ``phi(x+o) = head (1+u)^m (1+rho)^beta - tail (1+rho)^(alpha/2)``,
    ``beta = (alpha-m)/2``, ``u = o_1/x_1``, ``rho = sum_j rho_j``, ``rho_j =
    (2 x_j o_j + o_j^2)/|x|^2``.  For ``A = (1+.)^m`` and ``G = (1+.)^beta``,
    head's part of ``N`` is ``(A(u) - 1)(G(rho) - G(rho_1)) + [G(rho) - sum_j
    G(rho_j) + dim - 1]``, and mixed differences (``G(a+b) - G(a) - G(b) +
    G(0)`` is ``G''`` integrated over ``[0,a]x[0,b]``) bound the bracket, by
    induction over the axes, by ``G2 sum_{i<j} P_i P_j``:

        |N| <= head (A1 G1 U sum_{j>=2} P_j + G2 sum_{i<j} P_i P_j) + tail Gr2 sum_{i<j} P_i P_j

    with ``U = max|u|``, ``P_j = max|rho_j|`` and ``A_k``, ``G_k``, ``Gr_k``
    bounds on the k-th derivatives of ``(1+.)^m``, ``(1+.)^beta`` and
    ``(1+.)^(alpha/2)`` over every partial sum of the ``rho_j``.  By the mean
    value theorem ``|dphi| <= head (A1 G0 U + G1 sum P) + tail Gr1 sum P``, and
    ``|2 x.o + |o|^2| = |x|^2 |rho|``: ``O(sum_j n_j)`` work, no exponent built.
    """
    dim = len(offsets) - 1
    m, alpha, beta = params.m, params.alpha, (params.alpha - params.m) / 2.0
    xs, t0, dt = p.x[:dim], float(p.x[dim]), offsets[dim]
    r2 = float(xs @ xs)
    o = [np.append(offsets[j], 0.0) for j in range(dim)]  # each range holds the zero offset
    rho = [(2.0 * xs[j] + o[j]) * o[j] / r2 for j in range(dim)]
    P = [float(np.max(np.abs(v))) for v in rho]
    rho_range = (sum(float(np.min(v)) for v in rho), sum(float(np.max(v)) for v in rho))
    u_range = (float(np.min(o[0])) / xs[0], float(np.max(o[0])) / xs[0])

    def deriv(c, k, z=rho_range):
        """Bound on the k-th derivative of ``(1+z)^c`` over the range ``z``."""
        return abs(math.prod(c - i for i in range(k))) * max((1.0 + v) ** (c - k) for v in z)

    head = math.pow(xs[0], m) * math.pow(r2, beta)
    tail = math.pow(params.epsilon, m) * math.pow(r2, alpha / 2.0)
    U, P_sum, A1 = max(-u_range[0], u_range[1]), sum(P), deriv(m, 1, u_range)
    pairs = sum(P[i] * P[j] for i, j in itertools.combinations(range(dim), 2))
    G, Gr = ([deriv(c, k) for k in range(3)] for c in (beta, alpha / 2.0))
    N = head * (A1 * G[1] * U * (P_sum - P[0]) + G[2] * pairs) + tail * Gr[2] * pairs
    dphi = head * (A1 * G[0] * U + G[1] * P_sum) + tail * Gr[1] * P_sum
    amp = math.pow(t0, -K)
    dlam = float(np.max(np.abs(amp * np.expm1(-K * np.log1p(dt / t0)))))
    dt_gauss = float(np.max(np.abs(dt / (8.0 * (t0 + dt) * t0))))
    return 2.0 * a * (abs(amp - 1.0) * N + dphi * dlam) + r2 * P_sum * dt_gauss


def _axis_sums(f, w, g, h, scale: float) -> tuple[float, float]:
    """Both sides where the exponent is ``sum_j f_j``, from 1-D sums alone.

    ``f[j]``, ``w[j]``, ``g[j]`` and ``h[j]`` are axis ``j``'s exponents,
    weights and payload slopes (``_log_b_slopes``), time last.  The weight
    ``prod_j w_j exp(f_j)`` factors, so ``lhs`` is the coefficient of ``z``
    in ``prod_j (A_j + B_j z)`` and ``rhs`` twice that of ``z^2`` in
    ``prod_j (A_j + M1_j z + M2_j z^2/2)``, where ``A_j, B_j, M1_j, M2_j``
    sum ``w_j exp(f_j)`` times ``1, g_j^2, h_j, h_j^2`` over axis ``j``;
    on the time axis ``B = A/scale^2`` and ``g_t`` stands for ``h_t``, as
    the right payload is ``(g_t + sum_j h_j)^2``.  ``O(sum_j n_j)`` work.
    """
    e = [wj * np.exp(np.maximum(fj, _EXP_FLOOR)) for fj, wj in zip(f, w)]
    A = [float(np.sum(ej)) for ej in e]
    B = [float(ej @ (gj * gj)) for ej, gj in zip(e[:-1], g)] + [(1.0 / scale) ** 2 * A[-1]]
    # the coefficients of prod_j sum_k factors[j][k] z^k up to the factors' degree
    product = functools.partial(functools.reduce, lambda out, f: [
        sum(out[k - i] * f[i] for i in range(k + 1)) for k in range(len(out))])
    return (product(list(zip(A, B)))[1],
            2.0 * product([(Aj, float(ej @ hj), 0.5 * float(ej @ (hj * hj)))
                           for Aj, ej, hj in zip(A, e, [*h[:-1], g[-1]])])[2])


def _axis_exponents(p: _Point, s, slope, parts, params, a, K) -> list[np.ndarray]:
    """``F(p + o e_j) - F(p)`` at the offsets ``o`` in ``parts[j]`` (time last), from one
    ``_exponent_factors`` call on a star.

    The star lays the spatial parts end to end, each zero off its own axis,
    then one all-zero column; the spatial rows are read at ``dt = 0`` and
    that column's row against the time offsets.
    """
    ends = np.cumsum([len(o) for o in parts[:-1]])
    star = np.zeros((len(ends), ends[-1] + 1))
    for j, o in enumerate(parts[:-1]):
        star[j, ends[j] - len(o):ends[j]] = o
    X, T = _exponent_factors(p, s, slope, star, np.append(0.0, parts[-1]), params, a, K)
    return [*np.split((X[:-1] @ T[:, :1]).ravel(), ends[:-1]), (X[-1:] @ T[:, 1:]).ravel()]


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


def _find_peak(start: _Point, modes, s, params, a, K) -> _Peak:
    """Newton ascent on ``F`` from ``start``, then the Laplace widths there.

    An axis with ``modes`` +1 (-1) moves in the log of its distance to the
    lower (upper) edge, where a concentrated peak sits; the others move in
    the coordinate itself.  Each step is halved until it raises ``F``,
    measured in the expanded form, and keeps the point inside the support.
    The peak is stationary once the predicted gain is below ``_NEWTON_TOL``
    or a step would move no axis by more than a few roundings of its
    coordinate or edge distance.
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
            if (np.all(np.isfinite(delta)) and np.all(q.lo_gap > 0.0)
                    and np.all(q.hi_gap > 0.0)
                    and np.matmul(*_exponent_factors(p, s, gy / jac, delta[:-1, None],
                                                     delta[-1:], params, a, K))[0, 0] > 0.0):
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


def _side_samples(length: float, sigma: float) -> np.ndarray:
    """Offsets ``sigma * 2^k`` below ``length``, then ``length``; none if ``length <= sigma``."""
    if not length > sigma:
        return np.empty(0)
    return np.append(sigma * 2.0 ** np.arange(int(math.log2(length / sigma)) + 1), length)


def _side_extent(length: float, sigma: float, samples: np.ndarray, drops: np.ndarray) -> float:
    """How far one side of a peak needs nodes.

    ``drops`` is the exponent's fall along the axis at the ``_side_samples``
    offsets ``samples``; the side ends at the first sample past the last one
    above ``_LOG_FLOOR``, but not before ``sqrt(-2 floor)`` widths or after
    the edge (all of it if there are no samples).
    """
    above = np.nonzero(drops >= _LOG_FLOOR)[0]
    last = int(above[-1]) + 1 if above.size else 0
    extent = float(samples[last]) if last < samples.size else length
    return min(length, max(extent, math.sqrt(-2.0 * _LOG_FLOOR) * sigma))


def _axis_rule(n: int, sigma: float, below: float, above: float, low, high, drops):
    """Offsets from the peak and weights of one axis's nodes, graded from the peak.

    ``below`` and ``above`` are the peak's distances to the lower and upper
    edges of the bump's support, and ``low`` and ``high`` their
    ``_side_samples``.  Each side gets ``_graded_side`` nodes out
    to ``_side_extent``: the lower side ``(n + 1) // 2`` and the upper side
    ``n // 2``.  ``drops`` is the exponent's fall along the axis at the
    offsets ``-low`` then ``high``.
    """
    drop_low, drop_high = np.split(drops, [low.size])
    g_low, w_low = _graded_side((n + 1) // 2, _side_extent(below, sigma, low, drop_low), sigma)
    g_high, w_high = _graded_side(n // 2, _side_extent(above, sigma, high, drop_high), sigma)
    return np.concatenate([-g_low, g_high]), np.concatenate([w_low, w_high])


def _stream(X, T, R) -> np.ndarray:
    """``exp(max(X @ T, _EXP_FLOOR)) @ R`` over blocks of ``_BLOCK_NODES // T.shape[1]``
    rows of ``X`` (at least one), each one product over the whole time axis, so
    the exponents take at most ``max(_BLOCK_NODES, T.shape[1])`` doubles."""
    block = max(1, _BLOCK_NODES // T.shape[1])
    out = np.empty((X.shape[0], R.shape[1]))
    for i in range(0, X.shape[0], block):
        E = X[i:i + block] @ T
        np.maximum(E, _EXP_FLOOR, out=E)
        np.exp(E, out=E)
        out[i:i + block] = E @ R
    return out


def _newton_start(lo, hi, s, params: WeightParams, a, K):
    """Newton's start point and axis modes for the bump, picked on a coarse lattice.

    The lattice has ``_START_NODES`` uniform nodes per axis over the bump's
    support; the start is the node with the largest
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
    bump's own slope.  Mode-0 axes keep the lattice start.
    """
    axes = [np.linspace(start, stop, _START_NODES) for start, stop in zip(lo, hi)]
    views = np.ix_(*axes)
    F = (sum(np.ix_(*(2.0 * _log_b(ax - lo[i], hi[i] - ax, s[i]) for i, ax in enumerate(axes))))
         + log_weight(views[:-1], views[-1], a, K, params))
    index = np.unravel_index(int(np.argmax(F)), F.shape)
    x = np.array([ax[j] for ax, j in zip(axes, index)])
    # the end nodes sit on the edges, where F = -inf
    modes = np.array([1.0 if j == 1 else -1.0 if j == _START_NODES - 2 else 0.0 for j in index])
    point = _Point(x, x - lo, hi - x)
    if not np.any(modes):
        return point, modes
    for _ in range(2):
        g = _grad_hess(point, s, np.zeros_like(modes), params, a, K, hessian=False)
        x, lo_gap, hi_gap = point.x.copy(), point.lo_gap.copy(), point.hi_gap.copy()
        for i in np.nonzero(np.isfinite(g) & (modes * g < 0.0))[0]:
            e = math.sqrt(s[i] / abs(g[i]))
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
    ``(u_t + lap u)^2`` against the weight ``exp(L)``, both over the
    support of ``u``, which must lie strictly inside the truncated cone.
    The joint maximiser of ``F = L + 2 log|u|`` is found by Newton's
    method, started from the argmax of ``F`` on a lattice of
    ``_START_NODES`` per axis over the support, moved towards an edge to
    the balance point (``_newton_start``).  Each axis is split at the peak,
    and ``grid.counts[i]`` Gauss-Legendre nodes are placed on its two sides
    (``_axis_rule``), graded by a sinh map from the Laplace width
    ``sigma_i`` out to the edge of the support or to where the exponent's
    fall at the ``_side_samples`` passes ``_LOG_FLOOR``; every axis's samples
    take one ``_axis_exponents`` call.  The integrand is evaluated
    as ``exp(F - F*)`` times the payloads divided by ``u^2``, expanded about
    the peak: per axis (``_axis_sums``, on one more ``_axis_exponents`` call)
    where ``_separation_bound`` keeps it within ``_CROSS_TOL`` of its one-axis
    parts, and otherwise over slabs of axis 0 of at most ``_BLOCK_NODES``
    spatial nodes (one row at least), each streamed (``_stream``) and reduced
    before the next is built.  ``lhs`` and ``rhs`` are reported
    relative to ``exp(log_scale)``, the left integrand's Laplace scale (see CarlemanReport).

    For the default bump the peak is resolved up to ``K`` near 428 (for
    ``a = 10``; 431 for ``a = 0.1``), where Newton's time curvature
    ``2a K(K+1) t^-(K+2) phi`` leaves the float64 range; the CLI bounds
    ``K_cap`` there.  From ``K`` near 210 the ratio is below that range, so
    ``rhs`` reads ``inf`` and ``ratio`` 0.

    When the amplitude is 0, both sides are 0 and the report passes.
    """
    if not a >= 0.0:
        raise ValueError(f"a must be nonnegative, got {a}")
    if not K > 0.0:
        raise ValueError(f"K must be positive, got {K}")
    if len(grid.counts) != len(u.center):
        raise ValueError(f"the grid has {len(grid.counts)} axes but the bump has "
                         f"{len(u.center)} (dim {u.dim} plus time)")
    dim = u.dim
    _check_support_in_Q(u.support, params.epsilon)
    if u.amplitude == 0.0:
        return CarlemanReport(a=a, K=K, lhs=0.0, rhs=0.0, ratio=0.0, grid=grid, passed=True)
    s = np.array(u.radii)
    lo, hi = np.array(u.center) - s, np.array(u.center) + s

    point, modes = _newton_start(lo, hi, s, params, a, K)
    peak = _find_peak(point, modes, s, params, a, K)
    p = peak.point
    # sqrt of the unit-amplitude left payload over u^2 at the peak
    slopes = _log_b_slope(p.lo_gap[:dim], p.hi_gap[:dim], s[:dim])
    scale = math.hypot(1.0, *slopes)
    log_scale = float(peak.value + 2.0 * math.log(scale) + np.sum(np.log(peak.sigma)))

    sigma, below, above = peak.sigma.tolist(), p.lo_gap.tolist(), p.hi_gap.tolist()
    low, high = ([_side_samples(*side) for side in zip(gaps, sigma)] for gaps in (below, above))
    drops = _axis_exponents(p, s, peak.slope,
                            [np.concatenate([-down, up]) for down, up in zip(low, high)],
                            params, a, K)
    offsets, weights = zip(*map(_axis_rule, grid.counts, sigma, below, above, low, high, drops))
    w = [weights[i] / peak.sigma[i] for i in range(dim + 1)]

    # Payload slopes over u and the exponent, all about the peak.  Where the
    # ratio is below the float64 range, rhs overflows to inf.
    with np.errstate(over="ignore"):
        g, h = zip(*(_log_b_slopes(p.lo_gap[i] + offsets[i], p.hi_gap[i] - offsets[i],
                                   s[i], scale) for i in range(dim + 1)))
        if _separation_bound(p, offsets, params, a, K) <= _CROSS_TOL:
            lhs, rhs = _axis_sums(_axis_exponents(p, s, peak.slope, offsets, params, a, K),
                                  w, g, h, scale)
        else:
            R = np.column_stack([w[dim], w[dim] * g[dim], w[dim] * g[dim] * g[dim]])
            rows = max(1, _BLOCK_NODES // math.prod(grid.counts[1:dim]))
            lhs = rhs = 0.0
            for k in range(0, grid.counts[0], rows):  # slabs of axis 0
                o, ws, gs, hs = ([v[0][k:k + rows], *v[1:dim]] for v in (offsets, w, g, h))
                S = _stream(*_exponent_factors(p, s, peak.slope, np.ix_(*o), offsets[dim],
                                               params, a, K), R)
                w_x = math.prod(np.ix_(*ws)).ravel()
                H = sum(np.ix_(*hs)).ravel()
                grad = sum(np.ix_(*(gi * gi for gi in gs))).ravel()
                lhs += float(w_x @ (((1.0 / scale) ** 2 + grad) * S[:, 0]))
                rhs += float(w_x @ ((H * S[:, 0] + 2.0 * S[:, 1]) * H + S[:, 2]))
    lhs, rhs = (u.amplitude * u.amplitude * v for v in (lhs, rhs))
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
