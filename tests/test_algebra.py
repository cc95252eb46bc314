import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_cone import algebra
from carleman_cone.algebra import (
    _ABS,
    _POW_UNITS,
    _REL,
    _centred_lower,
    Interval,
    PowerSum,
    SignKind,
    SignVerdict,
    certify_sign,
)
from carleman_cone.conditions import build_l
from carleman_cone.weights import WeightParams, build_f


def random_power_sum(rng, allow_negative_exponents=False):
    n = rng.integers(1, 6)
    lo_exp = -2.0 if allow_negative_exponents else 0.0
    terms = tuple(
        (float(rng.uniform(-10.0, 10.0)), float(rng.uniform(lo_exp, 4.0)))
        for _ in range(n)
    )
    return PowerSum(terms)


def enclosure_cases(seed, count):
    """Random (sum, region) pairs: real exponents in [-2, 4], with a term of
    integer exponent (0 included) in about half the sums."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = random_power_sum(rng, allow_negative_exponents=True)
        if rng.random() < 0.5:
            extra = (float(rng.uniform(-10.0, 10.0)), float(rng.integers(-2, 5)))
            p = p + PowerSum((extra,))
        lo = float(rng.uniform(0.01, 0.9))
        hi = float(rng.uniform(lo, 1.0))
        yield p, lo, hi, rng


# ---------------------------------------------------------------------------
# Reference enclosure: per-operation interval arithmetic, each operation
# padded outward (power by _POW_UNITS units).  PowerSum.eval_interval does the
# same arithmetic in the same order in plain floats and must agree bit for bit.
# ---------------------------------------------------------------------------

def _outward(lo, hi, units=1):
    return (lo - units * (_REL * abs(lo) + _ABS), hi + units * (_REL * abs(hi) + _ABS))


def _power(lo, hi, p):
    if p == 0.0:
        return (1.0, 1.0)
    vlo, vhi = math.pow(lo, p), math.pow(hi, p)
    if p < 0.0:
        vlo, vhi = vhi, vlo
    return _outward(vlo, vhi, units=_POW_UNITS)


def _scaled(iv, c):
    lo, hi = iv
    return _outward(c * lo, c * hi) if c >= 0.0 else _outward(c * hi, c * lo)


def reference_eval_interval(p, lo, hi):
    acc = (0.0, 0.0)
    for c, q in p.terms:
        term = _scaled(_power(lo, hi, q), c)
        acc = _outward(acc[0] + term[0], acc[1] + term[1])
    return acc


# ---------------------------------------------------------------------------
# PowerSum construction and point evaluation
# ---------------------------------------------------------------------------

class TestPowerSum:
    def test_eval_profile_zero_at_eps(self):
        # f(h) = h^m - eps^m vanishes at h = eps by construction
        p = build_f(2.46, 0.6495)
        assert p.eval(0.6495) == pytest.approx(0.0, abs=1e-15)

    def test_eval_constant(self):
        assert PowerSum.constant(1.0).eval(0.37) == 1.0

    def test_eval_small_poly(self):
        p = PowerSum(((2.0, 1.0), (3.0, 2.0)))
        assert p.eval(0.5) == pytest.approx(1.75, rel=1e-15)

    def test_eval_rejects_nonpositive(self):
        p = PowerSum.constant(1.0)
        with pytest.raises(ValueError):
            p.eval(0.0)
        with pytest.raises(ValueError):
            p.eval(-0.2)

    def test_duplicate_exponents_merge(self):
        p = PowerSum(((1.0, 2.0), (2.5, 2.0), (-1.0, 0.0)))
        assert p.terms == ((-1.0, 0.0), (3.5, 2.0))

    def test_zero_coefficients_dropped(self):
        p = PowerSum(((0.0, 3.0), (1.0, 1.0), (-1.0, 1.0)))
        assert not p.terms

    def test_exponents_strictly_increasing(self):
        p = PowerSum(((1.0, 3.0), (2.0, 0.5), (4.0, 1.5)))
        exps = [e for _, e in p.terms]
        assert exps == sorted(exps)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PowerSum(((math.inf, 1.0),))


class TestDerivative:
    def test_profile_derivative(self):
        m, eps = 2.46, 0.6
        fp = build_f(m, eps).derivative()
        assert fp.terms == ((m, m - 1.0),)

    def test_constant_derivative_is_zero(self):
        assert not PowerSum.constant(5.0).derivative().terms

    def test_monomial_derivative(self):
        assert PowerSum.monomial(3.0, 2.0).derivative().terms == ((6.0, 1.0),)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        delta = 1e-6
        for _ in range(25):
            p = random_power_sum(rng)
            dp = p.derivative()
            for h in rng.uniform(0.2, 0.9, size=4):
                fd = (p.eval(h + delta) - p.eval(h - delta)) / (2.0 * delta)
                assert fd == pytest.approx(dp.eval(h), rel=1e-6, abs=1e-9)


class TestMul:
    def test_profile_square(self):
        m, eps = 2.46, 0.6
        f = build_f(m, eps)
        sq = f * f
        em = math.pow(eps, m)
        assert len(sq.terms) == 3
        assert sq.coefficient(2.0 * m) == pytest.approx(1.0)
        assert sq.coefficient(m) == pytest.approx(-2.0 * em)
        assert sq.coefficient(0.0) == pytest.approx(em * em)

    def test_zero_annihilates(self):
        p = PowerSum(((2.0, 1.5), (1.0, 0.0)))
        assert not (p * PowerSum()).terms

    def test_point_evaluation_oracle(self):
        # ps_eval(p*q, h) == ps_eval(p, h) * ps_eval(q, h)
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = random_power_sum(rng)
            q = random_power_sum(rng)
            h = float(rng.uniform(0.05, 1.0))
            expected = p.eval(h) * q.eval(h)
            assert (p * q).eval(h) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------

class TestInterval:
    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_monotone_square(self):
        p = PowerSum.monomial(1.0, 2.0)
        lo, hi = p.eval_interval(0.5, 1.0)
        assert lo == pytest.approx(0.25, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)
        assert lo <= 0.25 and hi >= 1.0

    def test_constant_interval(self):
        p = PowerSum.constant(-2.0)
        lo, hi = p.eval_interval(0.1, 0.9)
        assert lo == pytest.approx(-2.0, rel=1e-12)
        assert hi == pytest.approx(-2.0, rel=1e-12)
        assert lo <= -2.0 <= hi

    def test_profile_enclosure(self):
        # h^2.46 - 0.6^2.46 on [0.6, 1]: increasing, range [0, 1 - 0.6^2.46]
        p = build_f(2.46, 0.6)
        lo, hi = p.eval_interval(0.6, 1.0)
        top = 1.0 - math.exp(2.46 * math.log(0.6))
        assert top == pytest.approx(0.71542, abs=1e-4)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(top, rel=1e-10)
        assert lo <= 0.0 <= hi

    def test_interval_eval_rejects_nonpositive_region(self):
        p = PowerSum.monomial(1.0, 1.0)
        for lo in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError):
                p.eval_interval(lo, 1.0)

    def test_interval_eval_rejects_empty_region(self):
        p = PowerSum.monomial(1.0, 1.0)
        for lo, hi in ((0.8, 0.5), (0.5, math.nan)):
            with pytest.raises(ValueError):
                p.eval_interval(lo, hi)

    def test_enclosure_soundness(self):
        # 1000 random point evaluations land inside the interval evaluation
        for p, lo, hi, rng in enclosure_cases(3, 50):
            enc_lo, enc_hi = p.eval_interval(lo, hi)
            for h in rng.uniform(lo, hi, size=20):
                assert enc_lo <= p.eval(float(h)) <= enc_hi

    def test_matches_reference_arithmetic_bitwise(self):
        # the fused float loop against per-operation interval arithmetic
        cases = list(enclosure_cases(3, 50))
        exps = {q for p, _, _, _ in cases for _, q in p.terms}
        coefs = [c for p, _, _, _ in cases for c, _ in p.terms]
        assert 0.0 in exps and min(exps) < 0.0 and any(q != int(q) for q in exps)
        assert min(coefs) < 0.0
        # point regions too, whose enclosure computes each power once
        for p, lo, hi, _ in cases:
            for a, b in ((lo, hi), (lo, lo), (hi, hi), (0.5 * (lo + hi),) * 2):
                assert p.eval_interval(a, b) == reference_eval_interval(p, a, b)

    def test_overflow_is_rejected(self):
        p = PowerSum(((1e308, 0.0), (1e308, 1.0)))
        with pytest.raises(ValueError):
            p.eval_interval(0.5, 1.0)
        with pytest.raises(ValueError):
            PowerSum.monomial(1.0, 2.0).eval_interval(0.5, math.inf)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.integers(-3, 6)), min_size=1, max_size=6
        ),
        ends=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)),
        points=st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=5),
    )
    def test_contains_exact_values(self, terms, ends, points):
        # soundness against exact rational evaluation at both endpoints and
        # at rational points of the region, of the enclosure and of the
        # certifier's node bound, the larger of its lower end and the
        # centred bound
        lo, hi = sorted(ends)
        p = PowerSum(tuple((c, float(q)) for c, q in terms))
        enc_lo, enc_hi = p.eval_interval(lo, hi)
        bound = max(enc_lo, _centred_lower(p, p.derivative(), lo, hi))
        flo, fhi = Fraction(lo), Fraction(hi)
        for h in [flo, fhi] + [flo + t * (fhi - flo) for t in points]:
            exact = sum((Fraction(c) * h ** int(q) for c, q in p.terms), Fraction(0))
            assert Fraction(bound) <= exact <= Fraction(enc_hi)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-10.0, 10.0), st.floats(-2.0, 6.0)), min_size=1, max_size=6
        ),
        ends=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
        points=st.lists(st.floats(0.0, 1.0), max_size=5),
    )
    def test_centred_bound_below_exact_values(self, terms, ends, points):
        # real exponents, whose derivative's exponents p - 1 may round,
        # against 50-digit evaluation at float points of the node
        lo, hi = sorted(ends)
        p = PowerSum(tuple(terms))
        bound = _centred_lower(p, p.derivative(), lo, hi)
        with mpmath.workdps(50):
            for h in [lo, hi, 0.5 * (lo + hi)] + [min(hi, lo + t * (hi - lo)) for t in points]:
                exact = mpmath.fsum(mpmath.mpf(c) * mpmath.power(mpmath.mpf(h), q)
                                    for c, q in p.terms)
                assert mpmath.mpf(bound) <= exact

    def test_centred_bound_is_second_order(self):
        # on nodes centred at l1's interior minimum near the m = 2.9
        # frontier, the first-order lower end lies O(w) below the range and
        # the centred bound O(w^2): a tenth of the width takes a tenth and a
        # hundredth of the excess
        l1 = build_l("l1", WeightParams(m=2.9, alpha=1.999, gamma=1.0, epsilon=0.6323338))
        excess = []
        for w in (1e-3, 1e-4, 1e-5):
            lo, hi = 0.971094 - w / 2, 0.971094 + w / 2
            least = min(l1.eval(float(x)) for x in np.linspace(lo, hi, 101))
            excess.append((least - l1.eval_interval(lo, hi)[0],
                           least - _centred_lower(l1, l1.derivative(), lo, hi)))
        for (first, centred), (first_next, centred_next) in zip(excess, excess[1:]):
            assert 0.0 < centred < first
            assert 8.0 < first / first_next < 12.0 and 80.0 < centred / centred_next < 120.0

    def test_negation_exact(self):
        iv = Interval(-1.5, 2.25)
        neg = -iv
        assert (neg.lo, neg.hi) == (-2.25, 1.5)


# ---------------------------------------------------------------------------
# Sign certification
# ---------------------------------------------------------------------------

class TestCertifySign:
    def test_profile_nonnegative_with_boundary_zero(self):
        f = build_f(2.46, 0.6)
        v = certify_sign(f, Interval(0.6, 1.0), ">=", known_zeros=(0.6,))
        assert v.kind is SignKind.NON_NEGATIVE_WITH_ZEROS
        assert v.zeros == (0.6,)
        assert v.confirms(">=")

    def test_second_derivative_positive(self):
        fpp = build_f(2.46, 0.6).derivative().derivative()
        v = certify_sign(fpp, Interval(0.6, 1.0), ">")
        assert v.kind is SignKind.POSITIVE
        assert v.margin > 0.0
        assert v.confirms(">")

    def test_negative_somewhere_with_witness(self):
        p = PowerSum.monomial(-1.0, 1.0)
        v = certify_sign(p, Interval(0.1, 1.0), ">=")
        assert v.kind is SignKind.NEGATIVE_SOMEWHERE
        assert v.witness is not None and 0.1 <= v.witness <= 1.0
        assert p.eval(v.witness) < 0.0

    def test_nonpositive_claim(self):
        p = PowerSum.monomial(-2.0, 0.5)
        v = certify_sign(p, Interval(0.2, 1.0), "<=")
        assert v.kind is SignKind.NON_POSITIVE_WITH_ZEROS
        assert v.confirms("<=")

    def test_nonpositive_claim_refuted(self):
        p = PowerSum.monomial(1.0, 1.0)
        v = certify_sign(p, Interval(0.2, 1.0), "<=")
        assert v.kind is SignKind.POSITIVE_SOMEWHERE
        assert v.witness is not None and p.eval(v.witness) > 0.0

    def test_indeterminate_is_a_result(self, monkeypatch):
        # sign change inside the region but nowhere strictly negative on the
        # sampled points of a coarse run: h - 0.5 straddles zero
        p = PowerSum(((1.0, 1.0), (-0.5, 0.0)))
        v = certify_sign(p, Interval(0.2, 1.0), ">=")
        # 0.2 evaluates negative, so this actually refutes; use a touching
        # parabola for a genuine indeterminate: (h - 0.5)^2 claimed > 0
        q = PowerSum(((1.0, 2.0), (-1.0, 1.0), (0.25, 0.0)))
        monkeypatch.setattr(algebra, "_MAX_DEPTH", 12)
        w = certify_sign(q, Interval(0.25, 0.75), ">")
        assert v.kind is SignKind.NEGATIVE_SOMEWHERE
        assert w.kind is SignKind.INDETERMINATE
        assert w.residual is not None and w.residual.lo <= 0.0 <= w.residual.hi

    def test_strict_claim_rejects_zeros(self):
        p = PowerSum.monomial(1.0, 1.0)
        with pytest.raises(ValueError):
            certify_sign(p, Interval(0.1, 1.0), ">", known_zeros=(0.5,))

    def test_invalid_region(self):
        p = PowerSum.constant(1.0)
        with pytest.raises(ValueError):
            certify_sign(p, Interval(-0.5, 1.0), ">=")

    def test_positive_agrees_with_dense_sampling(self):
        f = build_f(2.46, 0.6)
        fpp = f.derivative().derivative()
        v = certify_sign(fpp, Interval(0.6, 1.0), ">")
        assert v.kind is SignKind.POSITIVE
        hs = np.linspace(0.6, 1.0, 10_000)
        assert all(fpp.eval(float(h)) > 0.0 for h in hs)

    def test_work_counts(self, monkeypatch):
        # every node is a leaf or has two children: nodes = 2 * leaves - 1;
        # a node the first-order enclosure leaves open also encloses p at
        # its midpoint and p' over itself, for its centred bound
        calls = []
        original = PowerSum.eval_interval

        def counted(self, lo, hi):
            calls.append((self, lo, hi))
            return original(self, lo, hi)

        monkeypatch.setattr(PowerSum, "eval_interval", counted)
        cubic = PowerSum(((1.0, 3.0), (-0.25, 1.0)))  # zero at h = 0.5
        parabola = PowerSum(((1.0, 2.0), (-1.0, 1.0), (0.25, 0.0)))
        # the last entry is (nodes, eval_interval calls)
        cases = [
            (cubic, (0.5, 1.0), ">=", (0.5,), 60, (75, 151)),
            (parabola + PowerSum.constant(1e-4), (0.25, 1.0), ">", (), 60, (31, 93)),
            (parabola, (0.25, 0.75), ">", (), 12, (47, 141)),
        ]
        seen = []
        for p, (lo, hi), claim, zeros, depth, work in cases:
            calls.clear()
            monkeypatch.setattr(algebra, "_MAX_DEPTH", depth)
            v = certify_sign(p, Interval(lo, hi), claim, known_zeros=zeros)
            leaves = v.leaves_margin + v.leaves_zero + v.leaves_exhausted
            centred = [lo for q, lo, hi in calls if q == p and lo == hi]
            assert v.nodes == 2 * leaves - 1
            assert sum(q == p.derivative() for q, _, _ in calls) == len(centred)
            assert len(calls) == v.nodes + 2 * len(centred)
            assert (v.nodes, len(calls)) == work
            assert 0 < v.max_depth <= depth
            assert (v.leaves_zero > 0) == bool(v.zeros)
            assert (v.leaves_exhausted > 0) == (v.kind is SignKind.INDETERMINATE)
            seen.append(v)
        assert all(any(getattr(v, k) for v in seen)
                   for k in ("leaves_margin", "leaves_zero", "leaves_exhausted"))

    def test_work_counts_of_a_refutation(self):
        v = certify_sign(PowerSum.monomial(1.0, 1.0), Interval(0.2, 1.0), "<=")
        assert v.kind is SignKind.POSITIVE_SOMEWHERE
        assert (v.nodes, v.max_depth) == (1, 0)
        assert v.leaves_margin + v.leaves_zero + v.leaves_exhausted == 0

    def test_mirrored_keeps_work_counts(self):
        cubic = PowerSum(((1.0, 3.0), (-0.25, 1.0)))
        v = certify_sign(cubic, Interval(0.5, 1.0), ">=", known_zeros=(0.5,))
        w = certify_sign(-cubic, Interval(0.5, 1.0), "<=", known_zeros=(0.5,))
        counts = ("nodes", "max_depth", "leaves_margin", "leaves_zero", "leaves_exhausted")
        assert v.nodes > 1
        assert w.kind is SignKind.NON_POSITIVE_WITH_ZEROS
        assert [getattr(w, k) for k in counts] == [getattr(v, k) for k in counts]
        assert v.mirrored().mirrored() == v

    def test_verdict_is_immutable_and_keeps_its_repr(self):
        v = SignVerdict(SignKind.INDETERMINATE, margin=-0.25, zeros=(0.5,),
                        residual=Interval(-0.25, 1.5), nodes=3, max_depth=1, leaves_margin=1,
                        leaves_exhausted=1)
        for field in ("kind", "margin", "witness", "zeros", "residual", "nodes", "max_depth",
                      "leaves_margin", "leaves_zero", "leaves_exhausted"):
            with pytest.raises(AttributeError):
                setattr(v, field, None)
        assert repr(v) == (
            "SignVerdict(kind=<SignKind.INDETERMINATE: 'indeterminate'>, margin=-0.25, "
            "witness=None, zeros=(0.5,), residual=[-0.25, 1.5], nodes=3, max_depth=1, "
            "leaves_margin=1, leaves_zero=0, leaves_exhausted=1)")
        assert repr(v.mirrored()) == repr(v).replace("[-0.25, 1.5]", "[-1.5, 0.25]")

    def test_depth_monotonicity(self, monkeypatch):
        # increasing the depth cap only resolves INDETERMINATE; certified and
        # refuted outcomes are stable
        cases = [
            (build_f(2.46, 0.6).derivative().derivative(), ">",),
            (PowerSum.monomial(-1.0, 1.0), ">="),
            (PowerSum(((1.0, 2.0), (-1.0, 1.0), (0.2499, 0.0))), ">="),
        ]
        for p, claim in cases:
            seen = []
            for depth in (2, 5, 10, 20, 40, 60):
                monkeypatch.setattr(algebra, "_MAX_DEPTH", depth)
                seen.append(certify_sign(p, Interval(0.2, 1.0), claim).kind)
            settled = [k for k in seen if k is not SignKind.INDETERMINATE]
            assert len(set(settled)) <= 1
            if settled:
                first = seen.index(settled[0])
                assert all(k is settled[0] for k in seen[first:])
