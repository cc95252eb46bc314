import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carleman_cone
from carleman_cone.quad import (
    BumpFunction,
    CarlemanReport,
    GridSpec,
    SupportViolationError,
    _fields_on_grid,
    carleman_integrals,
    verify_carleman,
)
from carleman_cone.weights import WeightParams, log_weight

PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)
BUMP = BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.5), radii=(0.8, 0.8, 0.3))
BUMP3 = BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.0, 0.5), radii=(0.8, 0.8, 0.8, 0.3))


def fields_at(u, x, t):
    """(value, gradient, Laplacian, time derivative) at one point, on one-node axes."""
    value, grads, lap, dt = _fields_on_grid(u, [np.array([v]) for v in (*x, t)], len(x))
    return value.item(), np.array([g.item() for g in grads]), lap.item(), dt.item()


class TestBumpFunction:
    def test_center_value_and_symmetry(self):
        v, g, lap, dt = fields_at(BUMP, (4.0, 0.0), 0.5)
        assert v == pytest.approx(math.exp(-3.0), rel=1e-14)
        assert np.allclose(g, 0.0)
        assert dt == 0.0

    def test_outside_support_zero(self):
        v, g, lap, dt = fields_at(BUMP, (6.0, 0.0), 0.5)
        assert v == 0.0 and lap == 0.0 and dt == 0.0
        assert np.all(g == 0.0)
        v, _, _, _ = fields_at(BUMP, (4.0, 0.0), 0.95)
        assert v == 0.0

    def test_finite_difference_match(self):
        rng = np.random.default_rng(61)
        d1, d2 = 1e-6, 1e-4
        for _ in range(100):
            x = np.array([
                rng.uniform(3.4, 4.6),
                rng.uniform(-0.6, 0.6),
            ])
            t = float(rng.uniform(0.28, 0.72))
            v, g, lap, dt = fields_at(BUMP, x, t)
            for j in range(2):
                e = np.zeros(2); e[j] = d1
                fd = (fields_at(BUMP, x + e, t)[0] - fields_at(BUMP, x - e, t)[0]) / (2 * d1)
                assert abs(fd - g[j]) <= 1e-5
            fdt = (fields_at(BUMP, x, t + d1)[0] - fields_at(BUMP, x, t - d1)[0]) / (2 * d1)
            assert abs(fdt - dt) <= 1e-5
            fdl = sum(
                (fields_at(BUMP, x + d2 * e, t)[0] - 2 * v + fields_at(BUMP, x - d2 * e, t)[0])
                / d2 ** 2
                for e in np.eye(2)
            )
            assert abs(fdl - lap) <= 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            BumpFunction(amplitude=1.0, center=(4.0, 0.5), radii=(0.8, 0.3))  # dim < 2
        with pytest.raises(ValueError):
            BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.5), radii=(0.8, -0.1, 0.3))


class TestGridSpec:
    def test_counts_validated(self):
        with pytest.raises(ValueError):
            GridSpec(counts=(1, 9, 9))
        for n in (2, 10):
            assert GridSpec(counts=(n, 9, 9)).counts[0] == n
        assert GridSpec.from_support(BUMP, 5).counts == (5, 5, 5)
        assert GridSpec.from_support(BUMP3, 5).counts == (5, 5, 5, 5)

    def test_simpson_weights_sum_to_length(self):
        for axis in range(3):
            nodes, weights = axis_nodes_weights(BUMP, 41, axis)
            lo, hi = BUMP.support[axis]
            assert weights.sum() == pytest.approx(hi - lo, rel=1e-12)
            assert nodes[0] == lo and nodes[-1] == hi


class TestCarlemanIntegrals:
    def test_zero_amplitude_vacuous(self):
        u = BumpFunction(amplitude=0.0, center=(4.0, 0.0, 0.5), radii=(0.8, 0.8, 0.3))
        rep = carleman_integrals(u, PARAMS, 1.0, 60.0, GridSpec.from_support(u, 21))
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.ratio == 0.0
        assert rep.passed

    def test_amplitude_scaling(self):
        grid = GridSpec.from_support(BUMP, 41)
        base = carleman_integrals(BUMP, PARAMS, 1.0, 60.0, grid)
        for lam in (0.5, 2.0, 3.0):
            scaled = BumpFunction(amplitude=lam, center=BUMP.center, radii=BUMP.radii)
            rep = carleman_integrals(scaled, PARAMS, 1.0, 60.0, grid)
            assert rep.lhs == pytest.approx(lam ** 2 * base.lhs, rel=1e-12)
            assert rep.rhs == pytest.approx(lam ** 2 * base.rhs, rel=1e-12)
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-12, abs=0.0)

    def test_acceptance_configuration_passes(self):
        grid = GridSpec.from_support(BUMP, 81)
        for a in (0.1, 1.0, 10.0):
            rep = carleman_integrals(BUMP, PARAMS, a, 60.0, grid)
            assert rep.passed
            assert rep.lhs <= rep.rhs
            assert rep.ratio < 1.0

    def test_axis_count_mismatch(self):
        for u, other in ((BUMP, BUMP3), (BUMP3, BUMP)):
            grid = GridSpec.from_support(other, 21)
            with pytest.raises(ValueError, match=f"{len(other.center)} axes.*bump has "
                                                 f"{len(u.center)}"):
                carleman_integrals(u, PARAMS, 1.0, 60.0, grid)

    def test_support_violation(self):
        bad = BumpFunction(amplitude=1.0, center=(1.5, 0.0, 0.5), radii=(0.8, 0.8, 0.3))
        with pytest.raises(SupportViolationError):
            carleman_integrals(bad, PARAMS, 1.0, 60.0, GridSpec.from_support(bad, 21))
        late = BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.8), radii=(0.8, 0.8, 0.3))
        with pytest.raises(SupportViolationError):
            carleman_integrals(late, PARAMS, 1.0, 60.0, GridSpec.from_support(late, 21))
        # wide cone parameter makes the same support exit the cone
        narrow = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.98)
        with pytest.raises(SupportViolationError):
            carleman_integrals(BUMP, narrow, 1.0, 60.0, GridSpec.from_support(BUMP, 21))

    def test_log_stability(self):
        # raw exponent is astronomically large; evaluated envelope is <= 1
        grid = GridSpec.from_support(BUMP, 41)
        rep = carleman_integrals(BUMP, PARAMS, 10.0, 60.0, grid)
        assert rep.log_scale > 1e6
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
        assert rep.lhs >= 0.0 and rep.rhs >= 0.0

    def test_expanded_exponent_agrees_with_scalar_log_weight(self):
        # F(p + offsets) = F(p) + X @ T with the full gradient as the slope,
        # against log_weight + 2 log B evaluated point by point
        from carleman_cone.quad import _exponent_factors, _exponent_value, _grad_hess, _Point

        a, K = 2.0, 8.0
        c, s = np.array(BUMP.center), np.array(BUMP.radii)
        x = np.array([4.3, -0.2, 0.42])
        p = _Point(x, x - (c - s), (c + s) - x)
        slope, _, _ = _grad_hess(p, s, np.zeros(3), PARAMS, a, K)
        offsets = [np.array([-0.31, 0.0, 0.12]), np.array([-0.25, 0.05, 0.4]),
                   np.array([-0.1, 1e-3, 0.2])]
        X, T = _exponent_factors(p, s, slope, np.ix_(*offsets[:2]), offsets[2], PARAMS, a, K)
        F = _exponent_value(p, s, PARAMS, a, K) + (X @ T).reshape(3, 3, 3)

        def log_b(v, i):
            z = (v - c[i]) / s[i]
            return -1.0 / (1.0 - z * z)

        for i, d1 in enumerate(offsets[0]):
            for j, d2 in enumerate(offsets[1]):
                for k, dt in enumerate(offsets[2]):
                    y = x + np.array([d1, d2, dt])
                    ref = log_weight(y[:2], y[2], a, K, PARAMS) + 2.0 * sum(
                        log_b(y[n], n) for n in range(3))
                    assert F[i, j, k] == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("K", [0.5, 60.0])
    def test_peak_does_not_depend_on_grid_counts(self, K, monkeypatch):
        import carleman_cone.quad as quad_mod

        found = []
        real = quad_mod._find_peak

        def recording(*args):
            found.append(real(*args))
            return found[-1]

        monkeypatch.setattr(quad_mod, "_find_peak", recording)
        r41, r161 = (carleman_integrals(BUMP, PARAMS, 1.0, K, GridSpec.from_support(BUMP, n))
                     for n in (41, 161))
        (p41,), (p161,) = found[:1], found[1:]
        for field in ("x", "lo_gap", "hi_gap"):
            assert np.array_equal(getattr(p41.point, field), getattr(p161.point, field))
        assert np.array_equal(p41.sigma, p161.sigma) and p41.value == p161.value
        assert r41.log_scale == r161.log_scale

    @pytest.mark.parametrize("K", [0.5, 60.0])
    def test_absolute_integrals_at_a0(self, K):
        # at a = 0 the weight is the Gaussian factor alone, which plain
        # Simpson resolves; lhs and rhs times exp(log_scale) are the integrals
        ref_lhs, ref_rhs = simpson_integrals(BUMP, 0.0, K)
        rep = carleman_integrals(BUMP, PARAMS, 0.0, K, GridSpec.from_support(BUMP, 81))
        scale = math.exp(rep.log_scale)
        assert rep.lhs * scale == pytest.approx(ref_lhs, rel=1e-6, abs=0.0)
        assert rep.rhs * scale == pytest.approx(ref_rhs, rel=1e-3, abs=0.0)

    def test_translation_covariance(self):
        deeper = BumpFunction(amplitude=1.0, center=(6.0, 0.0, 0.5), radii=(0.8, 0.8, 0.3))
        grid = GridSpec.from_support(deeper, 41)
        rep = carleman_integrals(deeper, PARAMS, 1.0, 60.0, grid)
        assert rep.passed

    def test_grid_convergence_in_resolvable_regime(self):
        # With a mild amplification the weight spans the whole support and
        # the ratio converges under refinement.  (At K >= 60 the weight
        # concentrates within ~1e-35 of the support edge; that regime is
        # checked against Laplace's method in TestPeakResolvingRule.)
        r41 = carleman_integrals(BUMP, PARAMS, 0.5, 2.0, GridSpec.from_support(BUMP, 41))
        r81 = carleman_integrals(BUMP, PARAMS, 0.5, 2.0, GridSpec.from_support(BUMP, 81))
        drift = abs(r81.ratio - r41.ratio) / max(r81.ratio, r41.ratio)
        assert drift < 0.05


def laplace_ratio(mp, a, K=60.0):
    """lhs/rhs of the 2-D default bump by Laplace's method, at 60 digits.

    F = L + 2 log u is even in x2, so its peak has x2 = 0; in (t, x1) it sits
    next to the lower time edge and the upper x1 edge.  findroot solves
    grad F = 0 in the logs of the distances to those edges, started from
    the balance of the weight's slope against the bump's log near the
    corner.  To leading order the ratio of the integrals is then the ratio
    of the two payloads over u^2 at the peak; the next order is relatively
    ~1e-12 here.
    """
    with mp.workdps(60):
        m, alpha, eps = mp.mpf(PARAMS.m), mp.mpf(PARAMS.alpha), mp.mpf(PARAMS.epsilon)
        a, K = mp.mpf(a), mp.mpf(K)
        c = [mp.mpf(v) for v in BUMP.center]
        s = [mp.mpf(v) for v in BUMP.radii]
        x1_edge, t_edge = c[0] + s[0], c[2] - s[2]

        def log_b(x, i):
            z = (x - c[i]) / s[i]
            return -1 / (1 - z * z)

        def dlog_b(x, i):  # first and second derivative of log b in x
            z = (x - c[i]) / s[i]
            w = 1 - z * z
            return -2 * z / (s[i] * w * w), -(2 + 6 * z * z) / (s[i] ** 2 * w ** 3)

        def weight_exponent(x1, t):
            phi = x1 ** alpha * (1 - eps ** m)  # h = 1 on x2 = 0
            return 2 * a * (t ** -K - 1) * phi - (x1 * x1 + K) / (8 * t)

        def F(yt, y1):
            x1, t = x1_edge - mp.exp(y1), t_edge + mp.exp(yt)
            return weight_exponent(x1, t) + 2 * (log_b(x1, 0) + log_b(c[1], 1) + log_b(t, 2))

        def grad(yt, y1):
            # d/dy scaled by the edge distance e = exp(y): of order one at the peak
            return [mp.diff(lambda v: F(v, y1), yt) * mp.exp(yt),
                    mp.diff(lambda v: F(yt, v), y1) * mp.exp(y1)]

        # -2 log b ~ s/e near an edge; balance it against the weight's slope
        slope_t = -mp.diff(lambda v: weight_exponent(x1_edge, v), t_edge)
        slope_1 = mp.diff(lambda v: weight_exponent(v, t_edge), x1_edge)
        start = (mp.log(mp.sqrt(s[2] / slope_t)), mp.log(mp.sqrt(s[0] / slope_1)))
        yt, y1 = mp.findroot(grad, start)
        x1, t = x1_edge - mp.exp(y1), t_edge + mp.exp(yt)
        g1, c1 = dlog_b(x1, 0)
        _, c2 = dlog_b(c[1], 1)
        gt, _ = dlog_b(t, 2)
        # u_x/u = (log b)', b''/b = (log b)'' + ((log b)')^2
        lhs = 1 + g1 * g1
        rhs = (c1 + g1 * g1 + c2 + gt) ** 2
        return float(lhs / rhs)


def axis_nodes_weights(u, n, axis):
    """Uniform nodes and composite Simpson weights, n of them (odd), on one axis of u's support."""
    lo, hi = u.support[axis]
    nodes = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * (step / 3.0)


def simpson_integrals(u, a, K, n=161):
    """(lhs, rhs) by plain tensor Simpson on n nodes per axis, one time slice at a time."""
    (x1, w1), (x2, w2), (t, wt) = (axis_nodes_weights(u, n, i) for i in range(3))
    r2 = x1[:, None] ** 2 + x2[None, :] ** 2
    r = np.sqrt(r2)
    phi = r ** PARAMS.alpha * ((x1[:, None] / r) ** PARAMS.m - PARAMS.epsilon ** PARAMS.m)
    w_x = w1[:, None] * w2[None, :]

    def exponent(tk):
        return 2.0 * a * (tk ** -K - 1.0) * phi - (r2 + K) / (8.0 * tk)

    def payloads(tk):
        value, grads, lap, dt = _fields_on_grid(u, [x1, x2, np.array([tk])], 2)
        return ((value ** 2 + grads[0] ** 2 + grads[1] ** 2)[..., 0],
                ((dt + lap) ** 2)[..., 0])

    top = max(float(np.max(np.where(payloads(tk)[0] > 0.0, exponent(tk), -np.inf)))
              for tk in t)
    lhs = rhs = 0.0
    for tk, wk in zip(t, wt):
        left, right = payloads(tk)
        env = np.exp(exponent(tk) - top) * w_x * wk
        lhs += float(np.sum(env * left))
        rhs += float(np.sum(env * right))
    return lhs * math.exp(top), rhs * math.exp(top)


class TestPeakResolvingRule:
    """The reported ratio is the integral's, with the weight concentrated or not."""

    @pytest.mark.parametrize("a, expected", [
        (0.1, 2.82989e-84), (1.0, 2.82989e-86), (10.0, 2.82989e-88),
    ])
    def test_concentrated_ratio_is_the_laplace_ratio(self, a, expected):
        mpmath = pytest.importorskip("mpmath")
        reference = laplace_ratio(mpmath, a)
        assert reference == pytest.approx(expected, rel=1e-5, abs=0.0)
        for n in (41, 81):
            rep = carleman_integrals(BUMP, PARAMS, a, 60.0, GridSpec.from_support(BUMP, n))
            assert rep.ratio == pytest.approx(reference, rel=0.01, abs=0.0)

    @pytest.mark.parametrize("a, expected", [(0.1, 0.019845), (1.0, 0.0080027)])
    def test_resolved_ratio_matches_plain_simpson(self, a, expected):
        lhs, rhs = simpson_integrals(BUMP, a, 0.5)
        reference = lhs / rhs
        assert reference == pytest.approx(expected, rel=1e-4)
        for n in (41, 81):
            rep = carleman_integrals(BUMP, PARAMS, a, 0.5, GridSpec.from_support(BUMP, n))
            assert rep.ratio == pytest.approx(reference, rel=0.01, abs=0.0)

    def test_dim3_ratio_does_not_move_with_the_grid(self):
        u = BUMP3
        r21, r41 = (carleman_integrals(u, PARAMS, 1.0, 60.0, GridSpec.from_support(u, n)).ratio
                    for n in (21, 41))
        assert r41 == pytest.approx(r21, rel=0.01, abs=0.0)

    def test_log_scale_contract(self):
        grid = GridSpec.from_support(BUMP, 41)
        tripled = BumpFunction(amplitude=3.0, center=BUMP.center, radii=BUMP.radii)
        for K in (0.5, 60.0):  # at K = 60, log 3 is below the spacing of log_scale
            base = carleman_integrals(BUMP, PARAMS, 1.0, K, grid)
            assert type(base.log_scale) is float
            assert carleman_integrals(tripled, PARAMS, 1.0, K, grid).log_scale == base.log_scale

    @pytest.mark.parametrize("K", [0.5, 60.0])
    def test_each_axis_splits_its_counts_at_the_peak(self, K, monkeypatch):
        import carleman_cone.quad as quad_mod

        rules = []
        real = quad_mod._axis_rule

        def recording(*args):
            rules.append(real(*args))
            return rules[-1]

        monkeypatch.setattr(quad_mod, "_axis_rule", recording)
        for n in (2, 3, 41):
            rules.clear()
            carleman_integrals(BUMP, PARAMS, 1.0, K, GridSpec.from_support(BUMP, n))
            assert len(rules) == 3
            for offsets, weights in rules:
                assert len(offsets) == len(weights) == n
                assert np.sum(offsets < 0.0) == (n + 1) // 2
                assert np.sum(offsets > 0.0) == n // 2

    @pytest.mark.parametrize("dim, K, a", [
        (2, 60.0, 0.1), (2, 60.0, 1.0), (2, 60.0, 10.0), (3, 60.0, 1.0),
        (2, 120.0, 1.0), (2, 200.0, 1.0),
    ])
    def test_newton_work_is_bounded(self, dim, K, a, monkeypatch):
        # far from a concentrated peak Newton gains about one unit of log
        # edge distance per step; the balance start lands within a few
        import carleman_cone.quad as quad_mod

        calls = []
        real = quad_mod._grad_hess

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(quad_mod, "_grad_hess", counting)
        u = BUMP if dim == 2 else BUMP3
        rep = carleman_integrals(u, PARAMS, a, K, GridSpec.from_support(u, 21))
        assert rep.passed
        assert len(calls) <= 16

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [2, 3])
    def test_peak_within_1e_103_of_an_edge_raises_no_warning(self, dim):
        # at K = 400 the balance start lands ~1e-128 from the time edge, where
        # log b's curvature in plain coordinates, ~s^2/e^3, leaves float64
        u = BUMP if dim == 2 else BUMP3
        (rep,) = verify_carleman(u, PARAMS, [1.0], 400.0, 400.0, GridSpec.from_support(u, 21))
        assert rep.passed and math.isfinite(rep.lhs) and rep.lhs > 0.0


class TestStream:
    """The blocked kernel equals the dense product it stands for."""

    @pytest.mark.parametrize("block_nodes", [1, 7, 64])
    @pytest.mark.parametrize("rows, inner, cols", [
        (1, 5, 3),  # a single spatial row
        (30, 5, 5),  # 64 // 5 = 12 rows a block: the last one is partly full
        (11, 5, 1),  # a single time column
        (23, 10, 9),  # a wider inner dimension
    ])
    def test_matches_dense_product(self, block_nodes, rows, inner, cols, monkeypatch):
        import carleman_cone.quad as quad_mod

        rng = np.random.default_rng(1000 * rows + cols)
        # quarter-integer exponents are exact in any summation order, so
        # only the blocking can tell the two apart; one more exact column
        # shifts them all by -680, so some fall below the floor
        X = rng.integers(-30, 31, (rows, inner)).astype(float)
        T = rng.integers(-4, 5, (inner, cols)) / 4.0
        X = np.column_stack([X, np.full(rows, -680.0)])
        T = np.vstack([T, np.ones(cols)])
        R = rng.uniform(0.1, 1.0, (cols, 3))
        dense = np.exp(np.maximum(X @ T, quad_mod._EXP_FLOOR)) @ R
        monkeypatch.setattr(quad_mod, "_BLOCK_NODES", block_nodes)
        streamed = quad_mod._stream(X, T, R)
        np.testing.assert_allclose(streamed, dense, rtol=1e-13, atol=0.0)



def record_paths(monkeypatch):
    """Log which path each ``carleman_integrals`` call takes: per axis or streamed."""
    import carleman_cone.quad as quad_mod

    paths = []
    for name, label in (("_axis_sums", "per-axis"), ("_stream", "streamed")):
        def logged(*args, real=getattr(quad_mod, name), label=label):
            paths.append(label)
            return real(*args)

        monkeypatch.setattr(quad_mod, name, logged)
    return paths


def record_bounds(monkeypatch):
    """Log each ``_separation_bound`` call as (point, offsets, bound)."""
    import carleman_cone.quad as quad_mod

    calls = []
    real = quad_mod._separation_bound

    def logged(p, offsets, params, a, K):
        calls.append((p, offsets, real(p, offsets, params, a, K)))
        return calls[-1][-1]

    monkeypatch.setattr(quad_mod, "_separation_bound", logged)
    return calls


OFF_AXIS = BumpFunction(amplitude=1.0, center=(4.0, 1.5, 0.5), radii=(0.8, 0.8, 0.3))


class TestSeparableStream:
    """Where the exponent separates by axis, both sides are products of 1-D sums."""

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("rows, cols", [(40, 9), (7, 1), (6, 12)])
    def test_matches_dense_product(self, fraction, rows, cols):
        # _axis_sums against the dense sum of the same separable integrand
        # over the tensor grid, ``rows`` nodes per spatial axis and ``cols``
        # time nodes; quarter-integer exponents sum exactly in any order, and
        # the first ``fraction`` of each axis's nodes sit below the floor
        import carleman_cone.quad as quad_mod

        rng = np.random.default_rng(100 * rows + cols)
        for dim in (2, 3):
            sizes = [rows] * dim + [cols]
            f = [rng.integers(-80, 1, n) / 4.0 for n in sizes]
            for fj in f:
                fj[:int(fraction * fj.size)] = rng.integers(-3040, -2804) / 4.0
            w, g, h = ([rng.uniform(lo, 1.0, n) for n in sizes] for lo in (0.1, -3.0, -3.0))
            scale = 1.7
            weight = (np.exp(np.maximum(sum(np.ix_(*f)), quad_mod._EXP_FLOOR))
                      * math.prod(np.ix_(*w)))
            grad = sum(np.ix_(*(gj * gj for gj in g[:dim]), np.zeros(cols)))
            lap = sum(np.ix_(*h[:dim], g[dim]))  # u_t/u + lap u/u, both over scale
            dense = (float(np.sum(weight * ((1.0 / scale) ** 2 + grad))),
                     float(np.sum(weight * lap * lap)))
            # a node below the floor weighs at most exp(_EXP_FLOOR) in either
            # form, far below the tolerance
            for got, want in zip(quad_mod._axis_sums(f, w, g, h, scale), dense):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("above", [False, True])
    def test_switches_at_the_bound(self, above, monkeypatch):
        # a concentrated request's own bound one ulp above _CROSS_TOL streams;
        # at it or one ulp below, the request goes per axis
        import carleman_cone.quad as quad_mod

        grid = GridSpec.from_support(BUMP, 21)
        bounds = record_bounds(monkeypatch)
        carleman_integrals(BUMP, PARAMS, 1.0, 60.0, grid)
        bound = bounds[0][-1]
        paths = record_paths(monkeypatch)
        for tol in ([np.nextafter(bound, 0.0)] if above else [bound, np.nextafter(bound, 1.0)]):
            monkeypatch.setattr(quad_mod, "_CROSS_TOL", tol)
            carleman_integrals(BUMP, PARAMS, 1.0, 60.0, grid)
        assert paths == (["streamed"] if above else ["per-axis", "per-axis"])

    @pytest.mark.parametrize("dim, n, K, separable", [
        (2, 41, 60.0, True), (3, 21, 60.0, True), (2, 41, 0.5, False), (3, 21, 0.5, False),
        (2, 41, 50.0, False),  # bounds 2e-15 to 2e-14: not yet below exp's rounding
    ])
    def test_concentrated_peak_takes_the_separable_path(self, dim, n, K, separable,
                                                         monkeypatch):
        paths = record_paths(monkeypatch)
        u = BUMP if dim == 2 else BUMP3
        for a in (0.1, 1.0, 10.0):
            carleman_integrals(u, PARAMS, a, K, GridSpec.from_support(u, n))
        assert paths == ["per-axis" if separable else "streamed"] * 3

    @pytest.mark.parametrize("dim, n", [(2, 161), (3, 41), (2, 2), (2, 3), (2, 41),
                                        (3, 2), (3, 3)])
    def test_separable_agrees_with_streamed_on_benchmark_inputs(self, dim, n, monkeypatch):
        # the concentrated and dim3 cases of the quadrature workload (BUMP
        # and BUMP3 are the CLI's default bumps), also at larger K and at
        # the smallest counts, with the streamed path forced by a bound no
        # input meets
        import carleman_cone.quad as quad_mod

        u = BUMP if dim == 2 else BUMP3
        grid = GridSpec.from_support(u, n)
        paths = record_paths(monkeypatch)
        for K in (60.0, 120.0, 200.0):
            for a in (0.1, 1.0, 10.0):
                separable = carleman_integrals(u, PARAMS, a, K, grid)
                with monkeypatch.context() as patch:
                    patch.setattr(quad_mod, "_CROSS_TOL", -1.0)
                    streamed = carleman_integrals(u, PARAMS, a, K, grid)
                assert paths[-2:] == ["per-axis", "streamed"]
                assert separable.passed == streamed.passed
                for field in ("lhs", "rhs", "ratio", "log_scale"):
                    assert getattr(separable, field) == pytest.approx(getattr(streamed, field),
                                                                      rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("dim, n", [(2, 41), (3, 21)])
    @pytest.mark.parametrize("K", [0.5, 30.0, 60.0, 200.0])
    def test_full_tensor_residual_within_the_bound(self, dim, n, K, monkeypatch):
        # F - F* on the whole tensor grid minus its one-axis restrictions,
        # wherever a node carries weight (F - F* > -40), is within the
        # docstring's bound plus the rounding of the terms it sums: at a
        # concentrated peak (K >= 60) below _CROSS_TOL, elsewhere of order 1.
        # With the time offsets zero only phi's non-separable part is left.
        import carleman_cone.quad as quad_mod

        u = BUMP if dim == 2 else BUMP3
        s = np.array(u.radii)
        peaks = []
        real = quad_mod._find_peak
        monkeypatch.setattr(quad_mod, "_find_peak",
                            lambda *args: peaks.append(real(*args)) or peaks[-1])
        bounds = record_bounds(monkeypatch)
        for a in (0.0, 0.1, 1.0, 10.0):
            carleman_integrals(u, PARAMS, a, K, GridSpec.from_support(u, n))
            (p, offsets, bound), slope = bounds[-1], peaks[-1].slope
            assert (bound <= quad_mod._CROSS_TOL) == (a > 0.0 and K >= 60.0)
            self.check_residual(p, s, slope, offsets, bound, a, K)
            spatial = [*offsets[:dim], np.zeros(1)]
            self.check_residual(p, s, slope, spatial,
                                quad_mod._separation_bound(p, spatial, PARAMS, a, K), a, K)

    @staticmethod
    def check_residual(p, s, slope, offsets, bound, a, K):
        import carleman_cone.quad as quad_mod

        dim = len(offsets) - 1
        full = tensor_exponent(p, s, slope, offsets, a, K)
        # each part keeps a length-1 axis for every other axis, so it broadcasts
        parts = [tensor_exponent(p, s, slope, one_axis(offsets, j), a, K)
                 for j in range(dim + 1)]
        residual = np.abs(full - sum(parts))
        rounding = 4.0 * quad_mod._EPS * (np.abs(full) + sum(np.abs(f) for f in parts))
        weighted = full > -40.0
        assert np.all(residual[weighted] <= bound + rounding[weighted])

    def test_off_axis_bump_separates_too(self, monkeypatch):
        # off the x1 axis the peak is concentrated at the x2 edge as well, so
        # at K = 60 it separates and agrees with the streamed path; at K = 30
        # the bound (~2e-7) sends it to the streamed path
        import carleman_cone.quad as quad_mod

        grid = GridSpec.from_support(OFF_AXIS, 161)
        paths = record_paths(monkeypatch)
        for a in (0.1, 1.0, 10.0):
            separable = carleman_integrals(OFF_AXIS, PARAMS, a, 60.0, grid)
            with monkeypatch.context() as patch:
                patch.setattr(quad_mod, "_CROSS_TOL", -1.0)
                streamed = carleman_integrals(OFF_AXIS, PARAMS, a, 60.0, grid)
            assert separable.ratio == pytest.approx(streamed.ratio, rel=1e-13, abs=0.0)
        assert paths == ["per-axis", "streamed"] * 3
        carleman_integrals(OFF_AXIS, PARAMS, 1.0, 30.0, grid)
        assert paths[-1] == "streamed"

    @pytest.mark.parametrize("dim, n", [(2, 161), (3, 41)])
    def test_concentrated_requests_build_no_tensor(self, dim, n, monkeypatch):
        # on the benchmark's concentrated inputs each exponent outside Newton
        # is built on a star, the spatial offsets end to end plus a zero,
        # against the time offsets after a zero: first the probes of
        # _axis_rule (about log2(edge / sigma) per side, whatever the grid),
        # then the rules' nodes; never the n^dim tensor
        import carleman_cone.quad as quad_mod

        calls = record_exponents(monkeypatch)
        probes = []
        real = quad_mod._axis_rule
        monkeypatch.setattr(quad_mod, "_axis_rule",
                            lambda *args: probes.append(len(args[-1])) or real(*args))
        u = BUMP if dim == 2 else BUMP3
        for a in (0.1, 1.0, 10.0):
            calls.clear()
            probes.clear()
            carleman_integrals(u, PARAMS, a, 60.0, GridSpec.from_support(u, n))
            assert calls == [(sum(probes[:dim]) + 1, probes[dim] + 1), (dim * n + 1, n + 1)]

    @pytest.mark.parametrize("dim, n", [(2, 161), (3, 41)])
    def test_concentrated_request_builds_its_exponent_twice(self, dim, n, monkeypatch):
        # the benchmark's concentrated inputs: outside Newton, one call for
        # every axis's probes and one for every axis's rule, not one of each
        # per axis
        calls = record_exponents(monkeypatch)
        u = BUMP if dim == 2 else BUMP3
        for a in (0.1, 1.0, 10.0):
            calls.clear()
            carleman_integrals(u, PARAMS, a, 60.0, GridSpec.from_support(u, n))
            assert len(calls) == 2

    @pytest.mark.parametrize("dim, K", [(2, 0.5), (2, 60.0), (3, 0.5), (3, 60.0)])
    def test_star_equals_one_axis_tensors(self, dim, K, monkeypatch):
        # _axis_exponents' one star call against _exponent_factors on each
        # one-axis tensor, bit for bit, at a request's own peak and rule
        import carleman_cone.quad as quad_mod

        u = BUMP if dim == 2 else BUMP3
        s = np.array(u.radii)
        peaks = []
        real = quad_mod._find_peak
        monkeypatch.setattr(quad_mod, "_find_peak",
                            lambda *args: peaks.append(real(*args)) or peaks[-1])
        bounds = record_bounds(monkeypatch)
        for a in (0.0, 1.0, 10.0):
            carleman_integrals(u, PARAMS, a, K, GridSpec.from_support(u, 21))
            (p, offsets, _), slope = bounds[-1], peaks[-1].slope
            # unequal lengths per axis, and an axis with no offsets at all
            for parts in (offsets, [o[:5 + 3 * j] for j, o in enumerate(offsets)],
                          [np.empty(0), *offsets[1:]]):
                star = quad_mod._axis_exponents(p, s, slope, parts, PARAMS, a, K)
                for j, got in enumerate(star):
                    want = tensor_exponent(p, s, slope, one_axis(parts, j), a, K).ravel()
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dim, n, block_nodes", [
        (2, 41, 100),  # two rows of axis 0 per slab, the last slab one row
        (3, 21, 1000),  # two rows per slab
        (3, 21, 300),  # fewer nodes than one row: one row per slab
    ])
    def test_slabs_agree_with_one_slab(self, dim, n, block_nodes, monkeypatch):
        # a resolved request streamed in slabs of axis 0 against the same
        # request in one slab
        import carleman_cone.quad as quad_mod

        u = BUMP if dim == 2 else BUMP3
        grid = GridSpec.from_support(u, n)
        for a in (0.1, 1.0):
            whole = carleman_integrals(u, PARAMS, a, 0.5, grid)
            calls = record_exponents(monkeypatch)
            monkeypatch.setattr(quad_mod, "_BLOCK_NODES", block_nodes)
            slabbed = carleman_integrals(u, PARAMS, a, 0.5, grid)
            monkeypatch.undo()
            rows = max(1, block_nodes // n ** (dim - 1))
            assert [size for size, _ in calls[1:]] == [
                min(rows, n - k) * n ** (dim - 1) for k in range(0, n, rows)]
            assert slabbed.passed == whole.passed
            for field in ("lhs", "rhs", "ratio", "log_scale"):
                assert getattr(slabbed, field) == pytest.approx(getattr(whole, field),
                                                                rel=1e-13, abs=0.0)

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_resolved_3d_request_memory_is_bounded(self):
        # 121^3 spatial nodes: an exponent built on the whole tensor peaks
        # near 360 MB here, slabs of _BLOCK_NODES near the interpreter's own
        # ~40 MB.  wait4 reads this child alone; ru_maxrss is in KiB on Linux.
        src = str(Path(carleman_cone.__file__).resolve().parents[1])
        cmd = [sys.executable, "-m", "carleman_cone", "quadrature", "--dim", "3",
               "--grid", "121", "--K", "0.5", "--K-cap", "0.5", "--a", "1"]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                env={**os.environ, "PYTHONPATH": src})
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert usage.ru_maxrss / 1024 < 150.0


def tensor_exponent(p, s, slope, offsets, a, K):
    """``_exponent_factors``' product on the tensor grid of ``offsets`` (time last)."""
    import carleman_cone.quad as quad_mod

    X, T = quad_mod._exponent_factors(p, s, slope, np.ix_(*offsets[:-1]), offsets[-1],
                                      PARAMS, a, K)
    return (X @ T).reshape([len(o) for o in offsets])


def one_axis(offsets, j):
    """``offsets`` on axis ``j``, the single offset 0 on every other axis."""
    return [o if i == j else np.zeros(1) for i, o in enumerate(offsets)]


def record_exponents(monkeypatch):
    """Log each ``_exponent_factors`` call outside ``_find_peak``.

    An entry is (spatial points, time offsets).
    """
    import carleman_cone.quad as quad_mod

    calls, in_newton = [], []
    factors, find_peak = quad_mod._exponent_factors, quad_mod._find_peak

    def logged(p, s, slope, x_offsets, dt, *args):
        if not in_newton:
            calls.append((np.broadcast(*x_offsets).size, len(dt)))
        return factors(p, s, slope, x_offsets, dt, *args)

    def newton(*args):
        in_newton.append(None)
        try:
            return find_peak(*args)
        finally:
            in_newton.pop()

    monkeypatch.setattr(quad_mod, "_exponent_factors", logged)
    monkeypatch.setattr(quad_mod, "_find_peak", newton)
    return calls


class TestNewtonStart:
    """Newton starts from the best node of a coarse lattice over the support."""

    @pytest.mark.parametrize("K", [0.5, 60.0, 400.0])
    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("u", [BUMP, BUMP3, OFF_AXIS], ids=["2d", "3d", "off-axis"])
    def test_starts_from_the_lattice_argmax(self, u, a, K):
        # BUMP is the bump of the benchmark's concentrated and resolved
        # cases and BUMP3 that of its 3-D case.  F = L + 2 sum log b is
        # evaluated on the lattice's nodes listed one by one, and an axis
        # whose best node is its first (last) node inside the support gets
        # mode +1 (-1) and may only move towards that edge
        import carleman_cone.quad as quad_mod

        s = np.array(u.radii)
        lo, hi = np.array(u.center) - s, np.array(u.center) + s
        axes = [np.linspace(l, h, quad_mod._START_NODES) for l, h in zip(lo, hi)]
        nodes = np.array(list(itertools.product(*axes))).T
        with np.errstate(divide="ignore"):
            F = (sum(2.0 * (-si * si / ((x - l) * (h - x)))
                     for x, l, h, si in zip(nodes, lo, hi, s))
                 + log_weight(nodes[:-1], nodes[-1], a, K, PARAMS))
        best = int(np.argmax(F))
        index, node = np.unravel_index(best, [len(ax) for ax in axes]), nodes[:, best]
        modes = []
        for ax, l, h, j in zip(axes, lo, hi, index):
            inside = np.nonzero((ax > l) & (ax < h))[0]
            modes.append(1.0 if j == inside[0] else -1.0 if j == inside[-1] else 0.0)

        point, got = quad_mod._newton_start(lo, hi, s, PARAMS, a, K)
        assert got.tolist() == modes
        still = got == 0.0
        assert np.array_equal(point.x[still], node[still])
        assert np.array_equal(point.lo_gap[still], (node - lo)[still])
        assert np.array_equal(point.hi_gap[still], (hi - node)[still])
        assert np.all((point.lo_gap > 0.0) & (point.hi_gap > 0.0))
        assert np.all(np.where(got > 0.0, point.lo_gap <= node - lo, True))
        assert np.all(np.where(got < 0.0, point.hi_gap <= hi - node, True))


class TestRemainders:
    """``expm1(y) - y`` and ``log1p(u) - u`` against 50-digit references."""

    @staticmethod
    def around(switch):
        at = np.array([switch, np.nextafter(switch, 0.0), np.nextafter(switch, 1.0),
                       0.9 * switch, 1.1 * switch, 1e-4 * switch, 3.0 * switch, 9.0 * switch])
        return np.concatenate([at, -at])

    @staticmethod
    def check(values, rest, exact, switch):
        # below the switch the series keeps full precision; above it the
        # difference loses about eps/|v| to cancellation, and nothing at large |v|
        eps = float(np.finfo(float).eps)
        for v, got in zip(values, rest):
            want = float(exact(v))
            rtol = 2e-15 if abs(v) < switch else max(2e-15, 4.0 * eps / abs(v))
            assert got == pytest.approx(want, rel=rtol, abs=0.0), v

    def test_expm1_rest_against_mpmath(self):
        from carleman_cone.quad import _expm1_rest

        mpmath = pytest.importorskip("mpmath")
        y = np.concatenate([self.around(1e-2), [0.0, 0.5, -0.5, 5.0, -5.0, 700.0, -800.0]])
        with mpmath.workdps(50):
            self.check(y, _expm1_rest(y, np.expm1(y)),
                       lambda v: mpmath.expm1(mpmath.mpf(v)) - mpmath.mpf(v), 1e-2)

    def test_log1p_rest_against_mpmath(self):
        from carleman_cone.quad import _log1p_rest

        mpmath = pytest.importorskip("mpmath")
        u = np.concatenate([self.around(1e-3), [0.0, 0.5, -0.5, 10.0, -0.999999,
                                                -1.0 + 1e-10, -1.0 + 2.0 ** -53]])
        with mpmath.workdps(50):
            self.check(u, _log1p_rest(u, np.log1p(u)),
                       lambda v: mpmath.log1p(mpmath.mpf(v)) - mpmath.mpf(v), 1e-3)

    def test_log1p_rest_at_minus_one(self):
        from carleman_cone.quad import _log1p_rest

        u = np.array([-1.0, -0.5])
        with np.errstate(divide="ignore"):
            log1p_u = np.log1p(u)
        rest = _log1p_rest(u, log1p_u)
        assert rest[0] == -np.inf
        assert rest[1] == pytest.approx(math.log(0.5) + 0.5, rel=1e-15, abs=0.0)

    def test_expm1_rest_where_expm1_overflows(self):
        from carleman_cone.quad import _expm1_rest

        y = np.array([709.0, 710.0, 1e3, 1e300])
        with np.errstate(over="ignore"):
            expm1_y = np.expm1(y)
        rest = _expm1_rest(y, expm1_y)
        assert math.isfinite(rest[0]) and np.all(rest[1:] == np.inf)


class TestVerifyCarleman:
    def test_all_a_pass_within_cap(self):
        grid = GridSpec.from_support(BUMP, 41)
        reports = verify_carleman(BUMP, PARAMS, [0.1, 1.0, 10.0], 60.0, 240.0, grid)
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed
            assert rep.K <= 240.0

    def test_empty_a_list(self):
        grid = GridSpec.from_support(BUMP, 41)
        assert verify_carleman(BUMP, PARAMS, [], 60.0, 240.0, grid) == []

    def test_k_init_above_cap(self):
        grid = GridSpec.from_support(BUMP, 41)
        with pytest.raises(ValueError):
            verify_carleman(BUMP, PARAMS, [1.0], 480.0, 240.0, grid)

    def test_escalation_doubles_until_pass(self, monkeypatch):
        # the real inequality already passes at K = 60 for every probed
        # configuration, so drive the escalation loop with a stub that
        # fails below K = 240
        import carleman_cone.quad as quad_mod

        calls = []

        def fake_integrals(u, params, a, K, grid):
            calls.append(K)
            return CarlemanReport(
                a=a, K=K, lhs=1.0 if K < 240.0 else 0.5, rhs=0.75, ratio=1.0,
                grid=grid, passed=K >= 240.0,
            )

        monkeypatch.setattr(quad_mod, "carleman_integrals", fake_integrals)
        grid = GridSpec.from_support(BUMP, 9)
        reports = quad_mod.verify_carleman(BUMP, PARAMS, [1.0], 60.0, 240.0, grid)
        assert calls == [60.0, 120.0, 240.0]
        assert len(reports) == 1 and reports[0].passed and reports[0].K == 240.0

    def test_escalation_reports_failure_at_cap(self, monkeypatch):
        import carleman_cone.quad as quad_mod

        def always_fail(u, params, a, K, grid):
            return CarlemanReport(
                a=a, K=K, lhs=2.0, rhs=1.0, ratio=2.0, grid=grid, passed=False,
            )

        monkeypatch.setattr(quad_mod, "carleman_integrals", always_fail)
        grid = GridSpec.from_support(BUMP, 9)
        reports = quad_mod.verify_carleman(BUMP, PARAMS, [0.5], 60.0, 240.0, grid)
        assert len(reports) == 1
        assert not reports[0].passed and reports[0].K == 240.0
