"""Exact proofs of the identities the cone weight's conditions rest on.

Each identity is proved in sympy for positive symbols m, alpha, epsilon and
h.  The expressions are transcribed from ``conditions`` in terms of the
profile values f, f', f''; before a proof uses one, ``assert_transcribes``
checks it against the package's PowerSum coefficients at a few parameter
sets, so a change to the package's expression fails the proof that uses it.
"""

from types import SimpleNamespace

import pytest

from carleman_cone.algebra import PowerSum
from carleman_cone.conditions import build_l, build_lemma31, l1_boundary_law
from carleman_cone.weights import WeightParams, build_f

sympy = pytest.importorskip("sympy")

M, A, E, H, R = sympy.symbols("m alpha epsilon h r", positive=True)
F, FP, FPP = sympy.symbols("f fp fpp")      # the profile and its derivatives at h

_f = H ** M - E ** M
PROFILE = {F: _f, FP: sympy.diff(_f, H), FPP: sympy.diff(_f, H, 2)}

L1 = (A ** 4 * F ** 3 - A ** 2 * H * F ** 2 * FP + 2 * A ** 2 * (1 - H ** 2) * F * FP ** 2
      - 2 * H * (1 - H ** 2) * FP ** 3 + (1 - H ** 2) ** 2 * FP ** 2 * FPP)
L3 = (A ** 2 + A) * F ** 2 - H * F * FP + (1 - H ** 2) * FP ** 2
L4 = (A ** 2 + A - M ** 2 - M) * H ** M + M ** 2 * H ** (M - 2) - (2 * A ** 2 + 2 * A - M) * E ** M
LEMMA31_IV = (A - 1) ** 2 * FP ** 2 + (2 * A - A ** 2) * F * FPP - H * FP * FPP

SAMPLES = [
    WeightParams(m=2.46, alpha=1.999, gamma=1.0, epsilon=0.6),
    WeightParams(m=2.9, alpha=1.5, gamma=1.0, epsilon=0.95),
    WeightParams(m=1.3, alpha=1.7, gamma=1.0, epsilon=0.1),
]


def _terms(expr, params: WeightParams) -> PowerSum:
    """``expr``, with the profile substituted, as a PowerSum in h at ``params``."""
    values = {M: params.m, A: params.alpha, E: params.epsilon}
    pairs = []
    for term in sympy.Add.make_args(sympy.expand(expr.subs(PROFILE))):
        coeff, power = term.as_independent(H, as_Add=False)
        # expand leaves h**(2m)/h**2 apart; powsimp joins it into h**(2m - 2)
        exponent = sympy.powsimp(power).as_base_exp()[1] if power.has(H) else sympy.S.Zero
        pairs.append((float(coeff.subs(values)), float(exponent.subs(values))))
    return PowerSum(tuple(pairs))


def assert_transcribes(expr, build) -> None:
    """``expr`` has the coefficients of ``build(params)`` at every sample."""
    for params in SAMPLES:
        code = build(params)
        worst = (code - _terms(expr, params)).max_abs_coefficient()
        assert worst <= 1e-12 * max(code.max_abs_coefficient(), 1.0), (params, worst)


def test_l1_at_eps_follows_the_boundary_law():
    # l1(eps) = (1 - eps^2) f'(eps)^2 m eps^(m-2) ((m-1) - (m+1) eps^2)
    assert_transcribes(L1, lambda p: build_l("l1", p))
    # l1_boundary_law is plain arithmetic on m and epsilon, so it takes symbols
    law = sympy.nsimplify(l1_boundary_law(SimpleNamespace(m=M, epsilon=E)))
    fp_eps = PROFILE[FP].subs(H, E)
    claim = (1 - E ** 2) * fp_eps ** 2 * M * E ** (M - 2) * law
    assert sympy.simplify(L1.subs(PROFILE).subs(H, E) - claim) == 0


def test_l3_is_a_constant_plus_h_to_the_m_times_l4():
    assert_transcribes(L3, lambda p: build_l("l3", p))
    assert_transcribes(L4, lambda p: build_l("l4", p))
    assert sympy.expand(L3.subs(PROFILE) - (A ** 2 + A) * E ** (2 * M) - H ** M * L4) == 0


def test_h_fpp_is_m_minus_1_times_fp():
    assert_transcribes(F, lambda p: build_f(p.m, p.epsilon))
    assert sympy.expand(H * PROFILE[FPP] - (M - 1) * PROFILE[FP]) == 0


def hessian_correction(dim: int):
    """``B = r^(2-alpha) hess(phi) - (alpha f - h f') I`` for ``phi = r^alpha f(x1/r)``.

    ``f`` is a generic function, replaced by the symbols f, f', f'' after
    differentiating.  By symmetry about the x1 axis the point is ``x = (r h,
    r sqrt(1-h^2), 0, ...)``; it is substituted before each entry is
    simplified, which is far cheaper than simplifying the generic Hessian.
    """
    f = sympy.Function("f")
    xs = sympy.symbols(f"x1:{dim + 1}", real=True)
    radius = sympy.sqrt(sum(x ** 2 for x in xs))
    phi = radius ** A * f(xs[0] / radius)
    # x2 = sqrt(r^2 - r^2 h^2) makes |x|^2 collapse to r^2 on substitution
    point = {xs[0]: R * H, xs[1]: sympy.sqrt(R ** 2 - R ** 2 * H ** 2), **{x: 0 for x in xs[2:]}}
    generic = [(sympy.Derivative(f(H), (H, 2)), FPP), (sympy.Derivative(f(H), H), FP), (f(H), F)]

    def entry(i, j):
        hess = (R ** (2 - A) * sympy.diff(phi, xs[i], xs[j])).subs(point).doit().subs(generic)
        return sympy.simplify(hess - (A * F - H * FP) * int(i == j))

    return sympy.Matrix([[entry(i, j) for j in range(dim)] for i in range(dim)])


def test_hessian_correction_determinant_is_lemma31_iv_in_2d():
    # det B = -(1 - h^2) lemma31_iv, so lemma31_iv <= 0 is det B >= 0
    assert_transcribes(LEMMA31_IV, lambda p: build_lemma31(p)[3])
    assert sympy.simplify(hessian_correction(2).det() + (1 - H ** 2) * LEMMA31_IV) == 0


def test_hessian_correction_adds_only_a_zero_eigenvalue_in_3d():
    # the direction orthogonal to span(x, e1) is B's kernel
    B = hessian_correction(3)
    assert B[2, :] == sympy.zeros(1, 3) and B[:, 2] == sympy.zeros(3, 1)
