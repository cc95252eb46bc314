"""Exact proofs of the identities the cone weight's conditions rest on.

Each identity is proved in sympy for positive symbols m, alpha, gamma,
epsilon and h.  Every expression ``build_l`` builds is transcribed from
``conditions`` in terms of the profile values f, f', f'' (``EXPRESSIONS``);
before a proof uses one, ``assert_transcribes`` checks it against the
package's PowerSum coefficients at a few parameter sets, so a change to the
package's expression fails the proof that uses it.
"""

from types import SimpleNamespace

import pytest

from carleman_cone.algebra import PowerSum
from carleman_cone.conditions import build_l, l1_boundary_law
from carleman_cone.weights import WeightParams, build_f

sympy = pytest.importorskip("sympy")

M, A, G, E, H, R = sympy.symbols("m alpha gamma epsilon h r", positive=True)
F, FP, FPP = sympy.symbols("f fp fpp")      # the profile and its derivatives at h

_f = H ** M - E ** M
PROFILE = {F: _f, FP: sympy.diff(_f, H), FPP: sympy.diff(_f, H, 2)}

L1 = (A ** 4 * F ** 3 - A ** 2 * H * F ** 2 * FP + 2 * A ** 2 * (1 - H ** 2) * F * FP ** 2
      - 2 * H * (1 - H ** 2) * FP ** 3 + (1 - H ** 2) ** 2 * FP ** 2 * FPP)
L2 = (A ** 2 - G ** 2 * (M - 1) / 4) * F - H * FP + (1 - H ** 2) * FPP / 2
L3 = (A ** 2 + A) * F ** 2 - H * F * FP + (1 - H ** 2) * FP ** 2
L4 = (A ** 2 + A - M ** 2 - M) * H ** M + M ** 2 * H ** (M - 2) - (2 * A ** 2 + 2 * A - M) * E ** M
LEMMA31_III = (A ** 2 - 2 * A) * F + (3 - 2 * A) * H * FP + H ** 2 * FPP
LEMMA31_IV = (A - 1) ** 2 * FP ** 2 + (2 * A - A ** 2) * F * FPP - H * FP * FPP

# Every key build_l builds, and its transcription.
EXPRESSIONS = {"lemma31_i": F, "lemma31_ii": FPP, "lemma31_iii": LEMMA31_III,
               "lemma31_iv": LEMMA31_IV, "l1": L1, "l2": L2, "l3": L3, "l4": L4}

# gamma below 1, so that l2's gamma**2 is not read as gamma or as 1
SAMPLES = [
    WeightParams(m=2.46, alpha=1.999, gamma=0.8092, epsilon=0.6),
    WeightParams(m=2.9, alpha=1.5, gamma=0.9, epsilon=0.95),
    WeightParams(m=1.3, alpha=1.7, gamma=0.6, epsilon=0.1),
]


def _terms(expr, params: WeightParams) -> PowerSum:
    """``expr``, with the profile substituted, as a PowerSum in h at ``params``."""
    values = {M: params.m, A: params.alpha, G: params.gamma, E: params.epsilon}
    pairs = []
    for term in sympy.Add.make_args(sympy.expand(expr.subs(PROFILE))):
        coeff, power = term.as_independent(H, as_Add=False)
        # expand leaves h**(2m)/h**2 apart; powsimp joins it into h**(2m - 2)
        exponent = sympy.powsimp(power).as_base_exp()[1] if power.has(H) else sympy.S.Zero
        pairs.append((float(coeff.subs(values)), float(exponent.subs(values))))
    return PowerSum(tuple(pairs))


def assert_transcribes(key: str, build=build_l) -> None:
    """``EXPRESSIONS[key]`` has the coefficients of ``build(key, params)`` at every sample."""
    for params in SAMPLES:
        code = build(key, params)
        worst = (code - _terms(EXPRESSIONS[key], params)).max_abs_coefficient()
        assert worst <= 1e-12 * max(code.max_abs_coefficient(), 1.0), (key, params, worst)


@pytest.mark.parametrize("key", EXPRESSIONS)
def test_a_perturbed_coefficient_fails_transcription(key):
    def perturbed(key, params):
        # the largest coefficient, one part in a million off
        terms = list(build_l(key, params).terms)
        i = max(range(len(terms)), key=lambda j: abs(terms[j][0]))
        terms[i] = (terms[i][0] * (1.0 + 1e-6), terms[i][1])
        return PowerSum(tuple(terms))

    with pytest.raises(AssertionError):
        assert_transcribes(key, perturbed)


def test_l1_at_eps_follows_the_boundary_law():
    # l1(eps) = (1 - eps^2) f'(eps)^2 m eps^(m-2) ((m-1) - (m+1) eps^2)
    assert_transcribes("l1")
    # l1_boundary_law is plain arithmetic on m and epsilon, so it takes symbols
    law = sympy.nsimplify(l1_boundary_law(SimpleNamespace(m=M, epsilon=E)))
    fp_eps = PROFILE[FP].subs(H, E)
    claim = (1 - E ** 2) * fp_eps ** 2 * M * E ** (M - 2) * law
    assert sympy.simplify(L1.subs(PROFILE).subs(H, E) - claim) == 0


def test_l3_is_a_constant_plus_h_to_the_m_times_l4():
    assert_transcribes("l3")
    assert_transcribes("l4")
    assert sympy.expand(L3.subs(PROFILE) - (A ** 2 + A) * E ** (2 * M) - H ** M * L4) == 0


def test_h_fpp_is_m_minus_1_times_fp():
    assert_transcribes("lemma31_i", lambda key, p: build_f(p.m, p.epsilon))
    assert_transcribes("lemma31_i")
    assert_transcribes("lemma31_ii")
    assert sympy.expand(H * PROFILE[FPP] - (M - 1) * PROFILE[FP]) == 0


def test_lemma31_iii_is_nonnegative_for_m_at_least_alpha():
    # lemma31_iii = ((m-a)^2 + 2(m-a)) h^m + (2a-a^2) eps^m; both terms are >= 0 for a <= m,
    # as a <= 2
    assert_transcribes("lemma31_iii")
    closed = ((M - A) ** 2 + 2 * (M - A)) * H ** M + (2 * A - A ** 2) * E ** M
    assert sympy.expand(LEMMA31_III.subs(PROFILE) - closed) == 0


def test_l2_is_concave_when_its_leading_coefficient_is_not_positive():
    # with coef = a^2 - g^2 (m-1)/4, l2 = lead h^m + m(m-1)/2 h^(m-2) - coef eps^m,
    # lead = coef - m(m+1)/2, so for 2 < m < 3
    # l2'' = m(m-1) (lead h^(m-2) + (m-2)(m-3)/2 h^(m-4)) <= 0 once lead <= 0
    assert_transcribes("l2")
    coef = A ** 2 - G ** 2 * (M - 1) / 4
    lead = coef - M * (M + 1) / 2
    l2 = L2.subs(PROFILE)
    assert sympy.expand(l2 - (lead * H ** M + M * (M - 1) / 2 * H ** (M - 2) - coef * E ** M)) == 0
    curvature = M * (M - 1) * (lead * H ** (M - 2) + (M - 2) * (M - 3) / 2 * H ** (M - 4))
    assert sympy.expand(sympy.diff(l2, H, 2) - curvature) == 0


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
    assert_transcribes("lemma31_iv")
    assert sympy.simplify(hessian_correction(2).det() + (1 - H ** 2) * LEMMA31_IV) == 0


def test_hessian_correction_adds_only_a_zero_eigenvalue_in_3d():
    # the direction orthogonal to span(x, e1) is B's kernel
    B = hessian_correction(3)
    assert B[2, :] == sympy.zeros(1, 3) and B[:, 2] == sympy.zeros(3, 1)
