import math
import random

import numpy as np
import pytest

from carleman_cone.identities import boundary_points, sample_cone_points
from carleman_cone.weights import (
    WeightParams,
    build_f,
    grad_phi,
    hess_phi,
    log_weight,
    phi_eval,
)

PARAMS = WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.60)


class TestWeightParams:
    def test_ranges_enforced(self):
        with pytest.raises(ValueError):
            WeightParams(m=3.1, alpha=1.999, gamma=0.8, epsilon=0.6)
        with pytest.raises(ValueError):
            WeightParams(m=2.46, alpha=2.3, gamma=0.8, epsilon=0.6)
        with pytest.raises(ValueError):
            WeightParams(m=2.46, alpha=1.999, gamma=0.4, epsilon=0.6)
        with pytest.raises(ValueError):
            WeightParams(m=2.46, alpha=1.999, gamma=0.8, epsilon=1.2)

    def test_low_m_flagged_not_rejected(self):
        p = WeightParams(m=2.2, alpha=1.999, gamma=0.8, epsilon=0.6)
        assert p.m_in_core_range
        assert not p.concavity_route_available
        q = WeightParams(m=1.999, alpha=1.999, gamma=1.0, epsilon=0.5)
        assert not q.m_in_core_range


class TestConeContains:
    """The cone is where phi > 0; its computed boundary gives exactly 0."""

    @staticmethod
    def params(eps):
        return WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=eps)

    def test_axis_point_inside(self):
        assert phi_eval((1.0, 0.0), self.params(0.99)) > 0.0

    def test_perpendicular_outside(self):
        assert phi_eval((0.0, 1.0), self.params(0.01)) < 0.0

    def test_boundary_excluded(self):
        # x = (3, 4) has |x| = 5 exactly and x1 == fl(0.6 * 5)
        assert 0.6 * 5.0 == 3.0
        assert phi_eval((3.0, 4.0), self.params(0.6)) == 0.0

    def test_constructed_unit_boundary_point(self):
        # x2 = sqrt(1 - eps^2) makes |x| exactly 1.0 here, so x1 == eps|x|
        eps = 0.6495
        x2 = math.sqrt(1.0 - eps * eps)
        assert x2 == pytest.approx(0.7603, abs=1e-4)
        assert math.hypot(eps, x2) == 1.0
        assert phi_eval((eps, x2), self.params(eps)) == 0.0


class TestProfile:
    def test_value_at_one(self):
        f = build_f(2.46, 0.6495)
        expected = 1.0 - math.exp(2.46 * math.log(0.6495))
        assert f.eval(1.0) == pytest.approx(expected, rel=1e-12)
        assert f.eval(1.0) == pytest.approx(0.6541, abs=2e-4)

    def test_zero_at_eps(self):
        assert build_f(2.46, 0.6495).eval(0.6495) == 0.0

    def test_h_fpp_identity(self):
        # h * f'' == (m-1) * f' at the coefficient level
        m = 2.46
        f = build_f(m, 0.6)
        fp = f.derivative()
        from carleman_cone.algebra import PowerSum

        diff = PowerSum.monomial(1.0, 1.0) * fp.derivative() - (m - 1.0) * fp
        assert diff.max_abs_coefficient() <= 1e-12 * fp.max_abs_coefficient()


class TestPhi:
    def test_axis_value(self):
        # r = 1, h = 1: phi = 1 - eps^m
        v = phi_eval((1.0, 0.0), PARAMS)
        assert v == pytest.approx(1.0 - 0.6 ** 2.46, rel=1e-12)

    def test_boundary_zero(self):
        rng = random.Random(5)
        for x in boundary_points(PARAMS, 100, rng):
            assert abs(phi_eval(x, PARAMS)) <= 1e-12

    def test_homogeneity(self):
        rng = random.Random(11)
        pts = sample_cone_points(PARAMS, 100, rng)
        for lam in (0.5, 2.0, 7.0):
            # doubling is exact in binary; the generic scalings get 1e-10
            rel = 1e-12 if lam == 2.0 else 1e-10
            for x in pts:
                assert phi_eval(lam * x, PARAMS) == pytest.approx(
                    lam ** PARAMS.alpha * phi_eval(x, PARAMS), rel=rel
                )

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            phi_eval((0.0, 0.0), PARAMS)


class TestGradPhi:
    def test_axis_gradient(self):
        # at (1, 0): grad phi = alpha * f(1) * e1
        g = grad_phi((1.0, 0.0), PARAMS)
        f1 = 1.0 - 0.6 ** 2.46
        assert g[0] == pytest.approx(PARAMS.alpha * f1, rel=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-15)

    def test_finite_differences(self):
        rng = random.Random(13)
        delta = 1e-6
        for x in sample_cone_points(PARAMS, 100, rng):
            g = grad_phi(x, PARAMS)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = delta
                fd[j] = (phi_eval(x + e, PARAMS) - phi_eval(x - e, PARAMS)) / (2 * delta)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)

    def test_on_axis_symmetry(self):
        g = grad_phi((2.5, 0.0, 0.0), PARAMS)
        assert g[1] == 0.0 and g[2] == 0.0

    def test_euler_identity(self):
        rng = random.Random(17)
        for x in sample_cone_points(PARAMS, 100, rng):
            lhs = float(np.dot(x, grad_phi(x, PARAMS)))
            assert lhs == pytest.approx(PARAMS.alpha * phi_eval(x, PARAMS), rel=1e-10)


class TestHessPhi:
    def test_symmetric_exactly(self):
        rng = random.Random(19)
        for x in sample_cone_points(PARAMS, 20, rng):
            H = hess_phi(x, PARAMS)
            assert np.array_equal(H, H.T)

    def test_finite_differences(self):
        rng = random.Random(23)
        delta = 1e-4
        for x in sample_cone_points(PARAMS, 50, rng):
            H = hess_phi(x, PARAMS)
            fd = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    ei = np.zeros(2); ei[i] = delta
                    ej = np.zeros(2); ej[j] = delta
                    fd[i, j] = (
                        phi_eval(x + ei + ej, PARAMS)
                        - phi_eval(x + ei - ej, PARAMS)
                        - phi_eval(x - ei + ej, PARAMS)
                        + phi_eval(x - ei - ej, PARAMS)
                    ) / (4 * delta * delta)
            assert np.max(np.abs(fd - H)) <= 1e-5

    def test_trace_matches_fd_laplacian(self):
        rng = random.Random(29)
        delta = 1e-4
        for x in sample_cone_points(PARAMS, 30, rng):
            tr = float(np.trace(hess_phi(x, PARAMS)))
            lap = 0.0
            for j in range(2):
                e = np.zeros(2); e[j] = delta
                lap += (
                    phi_eval(x + e, PARAMS) - 2 * phi_eval(x, PARAMS) + phi_eval(x - e, PARAMS)
                ) / delta ** 2
            assert abs(lap - tr) <= 1e-4

    def test_correction_term_psd(self):
        # B = r^(2-alpha) hess - (alpha f - h f') I is PSD at cone points
        rng = random.Random(31)
        worst = math.inf
        for x in sample_cone_points(PARAMS, 200, rng, h_min_offset=1e-3):
            r = float(np.linalg.norm(x))
            h = float(x[0]) / r
            f = h ** PARAMS.m - PARAMS.epsilon ** PARAMS.m
            fp = PARAMS.m * h ** (PARAMS.m - 1.0)
            B = r ** (2.0 - PARAMS.alpha) * hess_phi(x, PARAMS) - (
                PARAMS.alpha * f - h * fp
            ) * np.eye(2)
            worst = min(worst, float(np.min(np.linalg.eigvalsh(B))))
        assert worst >= -1e-10

    def test_dimension_generic(self):
        rng = random.Random(37)
        delta = 1e-4
        for x in sample_cone_points(PARAMS, 10, rng, dim=3):
            H = hess_phi(x, PARAMS)
            assert H.shape == (3, 3)
            fd = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    ei = np.zeros(3); ei[i] = delta
                    ej = np.zeros(3); ej[j] = delta
                    fd[i, j] = (
                        phi_eval(x + ei + ej, PARAMS)
                        - phi_eval(x + ei - ej, PARAMS)
                        - phi_eval(x - ei + ej, PARAMS)
                        + phi_eval(x - ei - ej, PARAMS)
                    ) / (4 * delta * delta)
            assert np.max(np.abs(fd - H)) <= 1e-5


class TestPointStacks:
    """A stack of points in one call equals one call per point."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_pointwise(self, dim):
        pts = sample_cone_points(PARAMS, 60, random.Random(53), dim=dim)
        for fn, shape in ((phi_eval, ()), (grad_phi, (dim,)), (hess_phi, (dim, dim))):
            stacked = fn(pts.T, PARAMS)
            assert stacked.shape == shape + (60,)
            pointwise = np.stack([fn(x, PARAMS) for x in pts], axis=-1)
            np.testing.assert_allclose(stacked, pointwise, rtol=1e-14, atol=0.0)

    def test_broadcast_coordinates_give_a_grid(self):
        x1 = np.linspace(3.2, 4.8, 5)[:, None]
        x2 = np.linspace(-0.8, 0.8, 4)[None, :]
        H = hess_phi((x1, x2), PARAMS)
        assert grad_phi((x1, x2), PARAMS).shape == (2, 5, 4)
        assert H.shape == (2, 2, 5, 4)
        for i, j in np.ndindex(5, 4):
            np.testing.assert_allclose(H[:, :, i, j], hess_phi((x1[i, 0], x2[0, j]), PARAMS),
                                       rtol=1e-14, atol=0.0)
        assert np.array_equal(H, H.swapaxes(0, 1))

    @pytest.mark.parametrize("bad", [(0.0, 0.0), (-0.5, 1.0)])
    def test_one_bad_point_rejects_the_stack(self, bad):
        pts = np.array([[1.0, 0.2], bad, [2.0, -0.3]])
        for fn in (phi_eval, grad_phi, hess_phi):
            with pytest.raises(ValueError):
                fn(pts.T, PARAMS)


class TestLogWeight:
    def test_t_equal_one(self):
        x = (3.0, 1.0)
        L = log_weight(x, 1.0, a=2.0, K=60.0, params=PARAMS)
        assert L == pytest.approx(-(10.0 + 60.0) / 8.0, rel=1e-14)

    def test_boundary_drops_phi_term(self):
        rng = random.Random(43)
        x = boundary_points(PARAMS, 1, rng)[0]
        t, K = 0.37, 60.0
        L = log_weight(x, t, a=5.0, K=K, params=PARAMS)
        r2 = float(np.dot(x, x))
        assert L == pytest.approx(-(r2 + K) / (8.0 * t), rel=1e-10)

    def test_direct_formula_recomputation(self):
        # independent re-evaluation of the exponent formula, two K values
        rng = random.Random(47)
        for x in sample_cone_points(PARAMS, 10, rng):
            for K in (60.0, 120.0):
                t, a = 0.41, 2.5
                expected = (
                    2.0 * a * (t ** (-K) - 1.0) * phi_eval(x, PARAMS)
                    - (float(np.dot(x, x)) + K) / (8.0 * t)
                )
                assert log_weight(x, t, a, K, PARAMS) == pytest.approx(expected, rel=1e-12)

    def test_array_input_matches_pointwise(self):
        # a tensor grid of coordinates and times against one call per point
        x1 = np.linspace(3.2, 4.8, 5)[:, None, None]
        x2 = np.linspace(-0.8, 0.8, 4)[None, :, None]
        t = np.linspace(0.2, 0.8, 3)[None, None, :]
        a, K = 1.5, 60.0
        grid = log_weight((x1, x2), t, a, K, PARAMS)
        assert grid.shape == (5, 4, 3)
        for i, j, k in np.ndindex(grid.shape):
            point = log_weight(np.array([x1[i, 0, 0], x2[0, j, 0]]), float(t[0, 0, k]),
                               a, K, PARAMS)
            assert grid[i, j, k] == pytest.approx(point, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_weight((2.0, 0.0), 0.0, a=1.0, K=60.0, params=PARAMS)
        with pytest.raises(ValueError):
            log_weight((2.0, 0.0), np.array([0.5, 0.0]), a=1.0, K=60.0, params=PARAMS)
        with pytest.raises(ValueError):
            log_weight((2.0, 0.0), 0.5, a=-1.0, K=60.0, params=PARAMS)
        with pytest.raises(ValueError):
            log_weight((2.0, 0.0), 0.5, a=1.0, K=0.0, params=PARAMS)
