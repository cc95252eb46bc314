"""Generalized-polynomial algebra with certified interval evaluation.

The objects handled here are finite sums ``sum_i c_i * h**p_i`` with real
exponents, evaluated on subintervals of the positive half-line.  Alongside
plain floating-point evaluation the module provides an enclosure of a sum's
range over an interval and an adaptive-bisection sign certifier that proves
claims like ``p >= 0 on [a, b]`` over the whole interval instead of sampling
it.

Outward rounding is emulated rather than switched on in hardware.  One pad
widens an endpoint ``x`` by ``2**-50 * |x| + 1e-300``, 8u with ``u = 2**-53``.
The enclosure ``eval_interval(lo, hi)`` takes a node's ends as two floats
and returns a ``(lo, hi)`` tuple, from one loop in plain floats: each
term's endpoint powers get four pads (32u), the scaled term one more, and
every partial sum one.  The certifier carries its nodes as floats too and
builds an ``Interval`` only for an open leaf's ``residual``.  The
margins this package needs to distinguish are around ``1e-2``, so the
emulation is conservative by many orders of magnitude while staying portable.

The terms cancel, so on a node of width ``w`` the enclosure's lower end lies
``O(w)`` below the range.  A node it leaves open gets a centred bound before
it is bisected.  With ``c`` the midpoint, the mean-value theorem gives
``p >= lo(p([c, c])) + min(lo(p'(X)) (hi - c), hi(p'(X)) (lo - c))`` on the
node, ``O(w**2)`` below the range (Moore, Kearfott & Cloud, *Introduction
to Interval Analysis*, SIAM 2009).  Both enclosures come from
``eval_interval``; each product and the sum get one pad, which also covers
the rounding of ``lo - c`` and ``hi - c`` (u each).  In ``p.derivative()``,
``fl(c * p)`` is off by u, inside the 8u scaled-term pad, and ``fl(p - 1)``
is exact for ``p >= 1/2``; below, it moves ``h**(p - 1)`` by
``u |(p - 1) ln h|``, inside the 32u pow pad while that is under 30.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional, Sequence

__all__ = [
    "Interval",
    "PowerSum",
    "SignKind",
    "SignVerdict",
    "certify_sign",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-12

# Outward inflation of an enclosure, in units of one pad each; 4 units for
# pow, which goes through exp/log and is faithfully rounded only to a few ulp.
_REL = 2.0 ** -50
_ABS = 1e-300
_POW_UNITS = 4

# Exponents closer than this merge into a single term.  Legitimate exponent
# gaps in the weight expressions are >= ~1e-3, while exponents produced by
# different float paths to the same value (e.g. (m-2)+1 vs m-1) differ by
# ~1e-16.
_EXP_MERGE_TOL = 1e-9
_EXPONENT = itemgetter(1)

# Safety caps on certifier work, far above what the shipped expressions need
# (hundreds of leaves): node depth (the root's is 0) and node count.
_MAX_DEPTH = 60
_MAX_NODES = 200_000


@dataclass(frozen=True)
class Interval:
    """Closed real interval ``[lo, hi]`` with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval is empty: [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def __neg__(self) -> "Interval":
        # Negation is exact in binary floating point; no inflation needed.
        return Interval(-self.hi, -self.lo)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _normalize_terms(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    # Each group merges into its first (smallest) exponent; the (0, nan)
    # seed never merges and is dropped with the other zero coefficients.
    merged = []
    c0, p0 = 0.0, math.nan
    for c, p in sorted(pairs, key=_EXPONENT):
        if not (math.isfinite(c) and math.isfinite(p)):
            raise ValueError(f"coefficients and exponents must be finite, got ({c}, {p})")
        if abs(p - p0) <= _EXP_MERGE_TOL:
            c0 += c
            continue
        if c0 != 0.0:
            merged.append((c0, p0))
        c0, p0 = c, p
    if c0 != 0.0:
        merged.append((c0, p0))
    return tuple(merged)


@dataclass(frozen=True)
class PowerSum:
    """Finite sum of ``c * h**p`` monomials, exponents strictly increasing.

    Duplicate exponents are merged and zero coefficients dropped on
    construction.  Exponents may be negative; evaluation is restricted to
    ``h > 0`` either way.
    """

    terms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _normalize_terms(self.terms))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: float) -> "PowerSum":
        return PowerSum(((c, 0.0),))

    @staticmethod
    def monomial(c: float, p: float) -> "PowerSum":
        return PowerSum(((c, p),))

    # -- queries -----------------------------------------------------------

    def coefficient(self, p: float) -> float:
        for c, q in self.terms:
            if abs(q - p) <= _EXP_MERGE_TOL:
                return c
        return 0.0

    def leading_term(self) -> tuple[float, float]:
        """(coefficient, exponent) of the highest-exponent term."""
        if not self.terms:
            return (0.0, 0.0)
        return self.terms[-1]

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c, _ in self.terms), default=0.0)

    # -- evaluation --------------------------------------------------------

    def eval(self, h: float) -> float:
        """Round-to-nearest evaluation at a single point ``h > 0``."""
        if not h > 0.0:
            raise ValueError(f"evaluation point must be positive, got {h}")
        total = 0.0
        for c, p in self.terms:
            total += c * math.pow(h, p)
        return total

    def eval_interval(self, lo: float, hi: float) -> tuple[float, float]:
        """Enclosure ``(lo, hi)`` of the range over ``[lo, hi]``; needs ``0 < lo <= hi``.

        Each monomial is monotone on positive intervals, so its bounds come
        from the endpoint powers (one on a point region), padded by
        ``_POW_UNITS`` units; the scaled term and each partial sum by one.
        A non-finite enclosure is a ValueError.
        """
        if not 0.0 < lo <= hi:
            raise ValueError(f"interval evaluation needs 0 < lo <= hi, got [{lo}, {hi}]")
        acc_lo = acc_hi = 0.0
        for c, p in self.terms:
            if p == 0.0:
                vlo = vhi = 1.0
            else:
                vlo = math.pow(lo, p)
                vhi = vlo if hi == lo else math.pow(hi, p)
                if p < 0.0:
                    vlo, vhi = vhi, vlo
                vlo -= _POW_UNITS * (_REL * abs(vlo) + _ABS)
                vhi += _POW_UNITS * (_REL * abs(vhi) + _ABS)
            if c >= 0.0:
                vlo, vhi = c * vlo, c * vhi
            else:
                vlo, vhi = c * vhi, c * vlo
            vlo -= _REL * abs(vlo) + _ABS
            vhi += _REL * abs(vhi) + _ABS
            acc_lo += vlo
            acc_hi += vhi
            acc_lo -= _REL * abs(acc_lo) + _ABS
            acc_hi += _REL * abs(acc_hi) + _ABS
        if not -math.inf < acc_lo <= acc_hi < math.inf:
            raise ValueError(f"enclosure is not finite: [{acc_lo}, {acc_hi}]")
        return acc_lo, acc_hi

    # -- algebra -----------------------------------------------------------

    def derivative(self) -> "PowerSum":
        """Term-wise ``(c, p) -> (c*p, p-1)``; constant terms vanish."""
        return PowerSum(tuple((c * p, p - 1.0) for c, p in self.terms if p != 0.0))

    def __neg__(self) -> "PowerSum":
        return PowerSum(tuple((-c, p) for c, p in self.terms))

    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum(self.terms + other.terms)

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PowerSum):
            prods = [
                (c1 * c2, p1 + p2)
                for c1, p1 in self.terms
                for c2, p2 in other.terms
            ]
            return PowerSum(tuple(prods))
        return PowerSum(tuple((c * other, p) for c, p in self.terms))

    def __rmul__(self, scalar: float) -> "PowerSum":
        return self.__mul__(scalar)

    def __repr__(self) -> str:
        if not self.terms:
            return "PowerSum(0)"
        bits = " + ".join(f"{c:g}*h^{p:g}" for c, p in self.terms)
        return f"PowerSum({bits})"


class SignKind(Enum):
    """Outcome taxonomy of :func:`certify_sign`.

    ``POSITIVE_SOMEWHERE`` mirrors ``NEGATIVE_SOMEWHERE`` for refuted
    upper-sign claims (``<= 0``); a certified strictly-negative
    result is reported as ``NON_POSITIVE_WITH_ZEROS`` with an empty zero
    list and a positive margin.
    """

    POSITIVE = "positive"
    NON_NEGATIVE_WITH_ZEROS = "nonnegative_with_zeros"
    NEGATIVE_SOMEWHERE = "negative_somewhere"
    NON_POSITIVE_WITH_ZEROS = "nonpositive_with_zeros"
    POSITIVE_SOMEWHERE = "positive_somewhere"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class SignVerdict:
    """Result of a sign certification.

    margin   for certified kinds, the least leaf lower bound (a leaf's is
             the larger of its first-order and centred bounds): certified
             below ``|p|``, though not its minimum, since a leaf closes once
             its bound passes ``tol``; for the ``*_SOMEWHERE`` kinds, the
             (signed) point value at the witness.
    witness  a point where the claimed sign is violated; ``None`` for
             certified or scalar-condition verdicts.
    zeros    declared zeros inside the certified region.
    residual worst open leaf when INDETERMINATE: its lower bound (also the
             margin) and its enclosure's upper end.

    The work counts are zero for scalar-condition verdicts:

    nodes             bisection nodes, one ``eval_interval`` each and two more
                      for the centred bound of each one left open.
    max_depth         deepest node visited; the root is depth 0.
    leaves_margin     leaves closed by a lower bound above ``tol``.
    leaves_zero       leaves closed by a declared zero.
    leaves_exhausted  leaves left open at the depth or node cap.
    """

    kind: SignKind
    margin: float = 0.0
    witness: Optional[float] = None
    zeros: tuple[float, ...] = ()
    residual: Optional[Interval] = None
    nodes: int = 0
    max_depth: int = 0
    leaves_margin: int = 0
    leaves_zero: int = 0
    leaves_exhausted: int = 0

    def confirms(self, claim: str) -> bool:
        """Whether this verdict certifies the given claim."""
        if claim == ">=":
            return self.kind in (SignKind.POSITIVE, SignKind.NON_NEGATIVE_WITH_ZEROS)
        if claim == ">":
            return self.kind is SignKind.POSITIVE
        if claim == "<=":
            return self.kind is SignKind.NON_POSITIVE_WITH_ZEROS
        raise ValueError(f"unknown claim {claim!r}")

    def mirrored(self) -> "SignVerdict":
        """Verdict about ``-p`` re-expressed as a verdict about ``p``."""
        kind, margin = _MIRROR_KIND[self.kind], self.margin
        return SignVerdict(
            kind, -margin if kind in _SOMEWHERE else margin, self.witness, self.zeros,
            None if self.residual is None else -self.residual, self.nodes,
            self.max_depth, self.leaves_margin, self.leaves_zero, self.leaves_exhausted,
        )


_MIRROR_KIND = {
    SignKind.POSITIVE: SignKind.NON_POSITIVE_WITH_ZEROS,
    SignKind.NON_NEGATIVE_WITH_ZEROS: SignKind.NON_POSITIVE_WITH_ZEROS,
    SignKind.NEGATIVE_SOMEWHERE: SignKind.POSITIVE_SOMEWHERE,
    SignKind.NON_POSITIVE_WITH_ZEROS: SignKind.NON_NEGATIVE_WITH_ZEROS,
    SignKind.POSITIVE_SOMEWHERE: SignKind.NEGATIVE_SOMEWHERE,
    SignKind.INDETERMINATE: SignKind.INDETERMINATE,
}
_SOMEWHERE = (SignKind.NEGATIVE_SOMEWHERE, SignKind.POSITIVE_SOMEWHERE)
_MIRROR_CLAIM = {"<=": ">="}


def _centred_lower(p: PowerSum, dp: PowerSum, lo: float, hi: float) -> float:
    """Centred lower bound of ``p`` over ``[lo, hi]``; ``dp = p.derivative()``."""
    mid = 0.5 * (lo + hi)
    slope_lo, slope_hi = dp.eval_interval(lo, hi)
    down = min(slope_lo * (hi - mid), slope_hi * (lo - mid))
    down -= _REL * abs(down) + _ABS
    total = p.eval_interval(mid, mid)[0] + down
    return total - (_REL * abs(total) + _ABS)


def certify_sign(
    p: PowerSum,
    region: Interval,
    claim: str,
    known_zeros: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
) -> SignVerdict:
    """Prove a sign claim for ``p`` over the whole ``region`` by adaptive bisection.

    In order, a node closes when its enclosure confirms the claim with margin
    above ``tol``; a point evaluation that strictly violates the claim
    refutes it with a witness; a node closes when it contains a declared
    known zero and the enclosure dips at most ``tol`` past the allowed side,
    or when its centred bound confirms the claim.  Leaves still open at the
    fixed caps ``_MAX_DEPTH`` and ``_MAX_NODES`` make the verdict INDETERMINATE,
    a result, not an error; a deeper cap can only turn that into a definite
    verdict, never a certified outcome into a refuted one.
    """
    if region.lo <= 0.0:
        raise ValueError("certification region must be strictly positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if claim in _MIRROR_CLAIM:
        return certify_sign(
            -p, region, _MIRROR_CLAIM[claim], known_zeros, tol
        ).mirrored()
    if claim not in (">=", ">"):
        raise ValueError(f"unknown claim {claim!r}")
    if claim == ">" and known_zeros:
        raise ValueError("a strict claim cannot carry known zeros")

    zeros_in_region = tuple(z for z in known_zeros if region.contains(z))
    # A node that does not close probes its midpoint.  A child's endpoints
    # are probe points of its ancestors, already found non-negative, so only
    # the root probes its endpoints too.
    stack: list[tuple[float, float, int]] = [(region.lo, region.hi, 0)]
    nodes = deepest = by_margin = by_zero = exhausted = 0
    min_margin = math.inf
    worst_residual: Optional[Interval] = None
    worst_lo = math.inf
    dp: Optional[PowerSum] = None

    def verdict(kind: SignKind, **fields) -> SignVerdict:
        return SignVerdict(
            kind, nodes=nodes, max_depth=deepest, leaves_margin=by_margin,
            leaves_zero=by_zero, leaves_exhausted=exhausted, **fields,
        )

    while stack:
        lo, hi, depth = stack.pop()
        nodes += 1
        if depth > deepest:
            deepest = depth
        bound, enc_hi = p.eval_interval(lo, hi)
        mid = 0.5 * (lo + hi)

        if bound <= tol:
            for h in (lo, mid, hi) if depth == 0 else (mid,):
                val = p.eval(h)
                if val < 0.0:
                    return verdict(SignKind.NEGATIVE_SOMEWHERE, margin=val, witness=h)
            if zeros_in_region and bound >= -tol and any(lo <= z <= hi for z in zeros_in_region):
                by_zero += 1
                continue
            dp = dp or p.derivative()
            bound = max(bound, _centred_lower(p, dp, lo, hi))

        if bound > tol:
            if bound < min_margin:
                min_margin = bound
            by_margin += 1
            continue

        if depth >= _MAX_DEPTH or nodes > _MAX_NODES or not (lo < mid < hi):
            exhausted += 1
            if bound < worst_lo:
                worst_lo = bound
                worst_residual = Interval(bound, enc_hi)
            continue

        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))

    if exhausted:
        return verdict(
            SignKind.INDETERMINATE,
            margin=worst_lo if math.isfinite(worst_lo) else 0.0,
            residual=worst_residual,
        )
    if by_zero:
        # The region touches a declared zero, so the certified distance
        # from zero is zero regardless of margins elsewhere.
        return verdict(SignKind.NON_NEGATIVE_WITH_ZEROS, margin=0.0, zeros=zeros_in_region)
    return verdict(SignKind.POSITIVE, margin=min_margin)
