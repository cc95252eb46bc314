import math

import numpy as np
import pytest

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
# clips BUMP's support ((3.2, 4.8), (-0.8, 0.8), (0.2, 0.8)) at the lower x1 and t ends
CLIPPED_BOX = ((3.5, 4.8), (-0.8, 0.8), (0.25, 0.8))


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
            GridSpec(counts=(1, 9, 9), box=BUMP.support)
        for n in (2, 10):
            assert GridSpec(counts=(n, 9, 9), box=BUMP.support).counts[0] == n

    def test_simpson_weights_sum_to_length(self):
        grid = GridSpec.from_support(BUMP, 41)
        for axis in range(3):
            nodes, weights = axis_nodes_weights(grid, axis)
            lo, hi = grid.box[axis]
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
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_acceptance_configuration_passes(self):
        grid = GridSpec.from_support(BUMP, 81)
        for a in (0.1, 1.0, 10.0):
            rep = carleman_integrals(BUMP, PARAMS, a, 60.0, grid)
            assert rep.passed
            assert rep.lhs <= rep.rhs
            assert rep.ratio < 1.0

    def test_support_violation(self):
        bad = BumpFunction(amplitude=1.0, center=(1.5, 0.0, 0.5), radii=(0.8, 0.8, 0.3))
        with pytest.raises(SupportViolationError):
            carleman_integrals(bad, PARAMS, 1.0, 60.0, GridSpec.from_support(bad, 21))
        late = BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.8), radii=(0.8, 0.8, 0.3))
        with pytest.raises(SupportViolationError):
            carleman_integrals(late, PARAMS, 1.0, 60.0, GridSpec.from_support(late, 21))
        # wide cone parameter makes the same box exit the cone
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
        X, T = _exponent_factors(p, s, slope, offsets, PARAMS, a, K)
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
        assert rep.lhs * scale == pytest.approx(ref_lhs, rel=1e-6)
        assert rep.rhs * scale == pytest.approx(ref_rhs, rel=1e-3)

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


def axis_nodes_weights(grid, axis):
    """Uniform nodes and composite Simpson weights of one axis of an odd-count grid."""
    lo, hi = grid.box[axis]
    n = grid.counts[axis]
    nodes = np.linspace(lo, hi, n)
    step = (hi - lo) / (n - 1)
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * (step / 3.0)


def simpson_integrals(u, a, K, n=161):
    """(lhs, rhs) by plain tensor Simpson on n nodes per axis, one time slice at a time."""
    grid = GridSpec.from_support(u, n)
    (x1, w1), (x2, w2), (t, wt) = (axis_nodes_weights(grid, i) for i in range(3))
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
        assert reference == pytest.approx(expected, rel=1e-5)
        for n in (41, 81):
            rep = carleman_integrals(BUMP, PARAMS, a, 60.0, GridSpec.from_support(BUMP, n))
            assert rep.ratio == pytest.approx(reference, rel=0.01)

    @pytest.mark.parametrize("a, expected", [(0.1, 0.019845), (1.0, 0.0080027)])
    def test_resolved_ratio_matches_plain_simpson(self, a, expected):
        lhs, rhs = simpson_integrals(BUMP, a, 0.5)
        reference = lhs / rhs
        assert reference == pytest.approx(expected, rel=1e-4)
        for n in (41, 81):
            rep = carleman_integrals(BUMP, PARAMS, a, 0.5, GridSpec.from_support(BUMP, n))
            assert rep.ratio == pytest.approx(reference, rel=0.01)

    def test_dim3_ratio_does_not_move_with_the_grid(self):
        u = BumpFunction(amplitude=1.0, center=(4.0, 0.0, 0.0, 0.5), radii=(0.8, 0.8, 0.8, 0.3))
        r21, r41 = (carleman_integrals(u, PARAMS, 1.0, 60.0, GridSpec.from_support(u, n)).ratio
                    for n in (21, 41))
        assert r41 == pytest.approx(r21, rel=0.01)

    def test_log_scale_contract(self):
        grid = GridSpec.from_support(BUMP, 41)
        tripled = BumpFunction(amplitude=3.0, center=BUMP.center, radii=BUMP.radii)
        for K in (0.5, 60.0):  # at K = 60, log 3 is below the spacing of log_scale
            base = carleman_integrals(BUMP, PARAMS, 1.0, K, grid)
            assert carleman_integrals(tripled, PARAMS, 1.0, K, grid).log_scale == base.log_scale

    def test_clipped_box_side_without_room_gets_every_node(self, monkeypatch):
        # at K = 60 the peak stops on the box's lower time edge, so the time
        # axis has nodes on the peak's upper side only
        import carleman_cone.quad as quad_mod

        rules = []
        real = quad_mod._axis_rule

        def recording(*args):
            rules.append(real(*args))
            return rules[-1]

        monkeypatch.setattr(quad_mod, "_axis_rule", recording)
        for a in (0.1, 1.0, 10.0):
            r41, r161 = (carleman_integrals(BUMP, PARAMS, a, 60.0, GridSpec((n,) * 3, CLIPPED_BOX))
                         for n in (41, 161))
            assert r41.passed and r161.passed
            assert r41.ratio == pytest.approx(r161.ratio, rel=1e-8)
        time_offsets = [offset for offset, _ in rules[2::3]]
        assert [len(o) for o in time_offsets] == [41, 161] * 3
        assert all(np.all(o > 0.0) for o in time_offsets)
        # resolved: every node carries weight, on both sides of the peak
        for a in (0.1, 1.0, 10.0):
            r81, r161 = (carleman_integrals(BUMP, PARAMS, a, 0.5, GridSpec((n,) * 3, CLIPPED_BOX))
                         for n in (81, 161))
            assert r81.passed
            assert r81.ratio == pytest.approx(r161.ratio, rel=1e-3)

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
        u = BUMP if dim == 2 else BumpFunction(1.0, (4.0, 0.0, 0.0, 0.5), (0.8, 0.8, 0.8, 0.3))
        rep = carleman_integrals(u, PARAMS, a, K, GridSpec.from_support(u, 21))
        assert rep.passed
        assert len(calls) <= 16

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dim", [2, 3])
    def test_peak_within_1e_103_of_an_edge_raises_no_warning(self, dim):
        # at K = 400 the balance start lands ~1e-128 from the time edge, where
        # log b's curvature in plain coordinates, ~s^2/e^3, leaves float64
        u = BUMP if dim == 2 else BumpFunction(1.0, (4.0, 0.0, 0.0, 0.5), (0.8, 0.8, 0.8, 0.3))
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
