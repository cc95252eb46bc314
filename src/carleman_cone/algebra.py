"""Generalized-polynomial algebra with certified interval evaluation.

The objects handled here are finite sums ``sum_i c_i * h**p_i`` with real
exponents, evaluated on subintervals of the positive half-line.  Alongside
plain floating-point evaluation the module provides enclosure arithmetic
(outward-rounded intervals) and an adaptive-bisection sign certifier that
proves claims like ``p >= 0 on [a, b]`` over the whole interval instead of
sampling it.

Outward rounding is emulated: every interval operation widens its result by
a relative ``2**-50`` (plus an absolute ``1e-300``) per endpoint instead of
switching hardware rounding modes.  The margins this package needs to
distinguish are around ``1e-2``, so the emulation is conservative by many
orders of magnitude while staying portable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

__all__ = [
    "Interval",
    "PowerSum",
    "SignKind",
    "SignVerdict",
    "certify_sign",
    "DEFAULT_TOL",
    "DEFAULT_MAX_DEPTH",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 60

# Per-operation outward inflation; 4 units for pow, which goes through
# exp/log and is faithfully rounded only to a few ulp.
_REL = 2.0 ** -50
_ABS = 1e-300
_POW_UNITS = 4

# Exponents closer than this merge into a single term.  Legitimate exponent
# gaps in the weight expressions are >= ~1e-3, while exponents produced by
# different float paths to the same value (e.g. (m-2)+1 vs m-1) differ by
# ~1e-16.
_EXP_MERGE_TOL = 1e-9

# Safety cap on certifier work, far above anything the shipped expressions
# need (they resolve in hundreds of leaves).
_MAX_NODES = 200_000


def _outward(lo: float, hi: float, units: int = 1) -> "Interval":
    pad_lo = units * (_REL * abs(lo) + _ABS)
    pad_hi = units * (_REL * abs(hi) + _ABS)
    return Interval(lo - pad_lo, hi + pad_hi)


@dataclass(frozen=True)
class Interval:
    """Closed real interval with enclosure-preserving arithmetic.

    For every operation ``op`` and all ``x in X``, ``y in Y`` the true
    ``x op y`` lies in ``X op Y``; outward inflation absorbs the rounding
    of the endpoint computations.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval is empty: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __neg__(self) -> "Interval":
        # Negation is exact in binary floating point; no inflation needed.
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Interval") -> "Interval":
        return _outward(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return _outward(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _outward(min(cands), max(cands))

    def scaled(self, c: float) -> "Interval":
        if c >= 0.0:
            return _outward(c * self.lo, c * self.hi)
        return _outward(c * self.hi, c * self.lo)

    def power(self, p: float) -> "Interval":
        """Enclosure of ``{h**p : h in self}``; requires ``self.lo > 0``.

        ``h**p`` is monotone on the positive axis (increasing for ``p > 0``,
        decreasing for ``p < 0``), so endpoint evaluations bound the range.
        """
        if self.lo <= 0.0:
            raise ValueError("power() needs a strictly positive interval")
        if p == 0.0:
            return Interval(1.0, 1.0)
        vlo = math.pow(self.lo, p)
        vhi = math.pow(self.hi, p)
        if p < 0.0:
            vlo, vhi = vhi, vlo
        return _outward(vlo, vhi, units=_POW_UNITS)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


def _normalize_terms(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    ordered = sorted(pairs, key=lambda cp: cp[1])
    merged: list[list[float]] = []
    for c, p in ordered:
        if not (math.isfinite(c) and math.isfinite(p)):
            raise ValueError(f"coefficients and exponents must be finite, got ({c}, {p})")
        if merged and abs(p - merged[-1][1]) <= _EXP_MERGE_TOL:
            merged[-1][0] += c
        else:
            merged.append([c, p])
    return tuple((c, p) for c, p in merged if c != 0.0)


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
    def zero() -> "PowerSum":
        return PowerSum(())

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

    def eval_interval(self, region: Interval) -> Interval:
        """Enclosure of the range over ``region``; needs ``region.lo > 0``.

        Each monomial is monotone on positive intervals, so per-term bounds
        come from endpoint evaluations; terms are then summed with outward
        inflation.
        """
        if region.lo <= 0.0:
            raise ValueError("interval evaluation needs a strictly positive region")
        acc = Interval(0.0, 0.0)
        for c, p in self.terms:
            acc = acc + region.power(p).scaled(c)
        return acc

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
    upper-sign claims (``<= 0`` / ``< 0``); a certified strictly-negative
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

    margin   certified distance from zero for certified kinds; for the
             ``*_SOMEWHERE`` kinds it is the (signed) point value at the
             witness.
    witness  a point where the claimed sign is violated; ``None`` for
             certified or scalar-condition verdicts.
    zeros    declared zeros inside the certified region.
    residual worst leaf enclosure straddling zero when INDETERMINATE.
    """

    kind: SignKind
    margin: float = 0.0
    witness: Optional[float] = None
    zeros: tuple[float, ...] = ()
    residual: Optional[Interval] = None

    def confirms(self, claim: str) -> bool:
        """Whether this verdict certifies the given claim."""
        if claim == ">=":
            return self.kind in (SignKind.POSITIVE, SignKind.NON_NEGATIVE_WITH_ZEROS)
        if claim == ">":
            return self.kind is SignKind.POSITIVE
        if claim == "<=":
            return self.kind is SignKind.NON_POSITIVE_WITH_ZEROS
        if claim == "<":
            return (
                self.kind is SignKind.NON_POSITIVE_WITH_ZEROS
                and self.margin > 0.0
                and not self.zeros
            )
        raise ValueError(f"unknown claim {claim!r}")

    def mirrored(self) -> "SignVerdict":
        """Verdict about ``-p`` re-expressed as a verdict about ``p``."""
        flip = {
            SignKind.POSITIVE: SignKind.NON_POSITIVE_WITH_ZEROS,
            SignKind.NON_NEGATIVE_WITH_ZEROS: SignKind.NON_POSITIVE_WITH_ZEROS,
            SignKind.NEGATIVE_SOMEWHERE: SignKind.POSITIVE_SOMEWHERE,
            SignKind.NON_POSITIVE_WITH_ZEROS: SignKind.NON_NEGATIVE_WITH_ZEROS,
            SignKind.POSITIVE_SOMEWHERE: SignKind.NEGATIVE_SOMEWHERE,
            SignKind.INDETERMINATE: SignKind.INDETERMINATE,
        }
        margin = -self.margin if self.kind in (
            SignKind.NEGATIVE_SOMEWHERE,
            SignKind.POSITIVE_SOMEWHERE,
        ) else self.margin
        residual = -self.residual if self.residual is not None else None
        return SignVerdict(flip[self.kind], margin, self.witness, self.zeros, residual)


_MIRROR_CLAIM = {"<=": ">=", "<": ">"}


def certify_sign(
    p: PowerSum,
    region: Interval,
    claim: str,
    known_zeros: Sequence[float] = (),
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SignVerdict:
    """Prove a sign claim for ``p`` over the whole ``region`` by adaptive bisection.

    A leaf interval is accepted when its enclosure confirms the claim with
    margin above ``tol``, or when it contains a declared known zero and the
    enclosure dips at most ``tol`` past the allowed side.  A point
    evaluation that strictly violates the claim refutes it with a witness.
    Leaves still unresolved at ``max_depth`` make the verdict INDETERMINATE,
    which is a result, not an error.

    Increasing ``max_depth`` can only turn INDETERMINATE into a definite
    verdict; it never flips a certified outcome into a refuted one.
    """
    if region.lo <= 0.0:
        raise ValueError("certification region must be strictly positive")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if claim in _MIRROR_CLAIM:
        return certify_sign(
            -p, region, _MIRROR_CLAIM[claim], known_zeros, tol, max_depth
        ).mirrored()
    if claim not in (">=", ">"):
        raise ValueError(f"unknown claim {claim!r}")
    if claim == ">" and known_zeros:
        raise ValueError("a strict claim cannot carry known zeros")

    zeros_in_region = tuple(z for z in known_zeros if region.contains(z))
    stack: list[tuple[float, float, int]] = [(region.lo, region.hi, 0)]
    nodes = 0
    min_margin = math.inf
    used_zero_rule = False
    exhausted = False
    worst_residual: Optional[Interval] = None
    worst_lo = math.inf

    while stack:
        lo, hi, depth = stack.pop()
        nodes += 1
        enc = p.eval_interval(Interval(lo, hi))

        if enc.lo > tol:
            min_margin = min(min_margin, enc.lo)
            continue

        mid = 0.5 * (lo + hi)
        for h in (lo, mid, hi):
            val = p.eval(h)
            if val < 0.0:
                return SignVerdict(SignKind.NEGATIVE_SOMEWHERE, margin=val, witness=h)

        if zeros_in_region and enc.lo >= -tol and any(lo <= z <= hi for z in zeros_in_region):
            used_zero_rule = True
            continue

        if depth >= max_depth or nodes > _MAX_NODES or not (lo < mid < hi):
            exhausted = True
            if enc.lo < worst_lo:
                worst_lo = enc.lo
                worst_residual = enc
            continue

        stack.append((lo, mid, depth + 1))
        stack.append((mid, hi, depth + 1))

    if exhausted:
        return SignVerdict(
            SignKind.INDETERMINATE,
            margin=worst_lo if math.isfinite(worst_lo) else 0.0,
            residual=worst_residual,
        )
    if used_zero_rule:
        # The region touches a declared zero, so the certified distance
        # from zero is zero regardless of margins elsewhere.
        return SignVerdict(
            SignKind.NON_NEGATIVE_WITH_ZEROS, margin=0.0, zeros=zeros_in_region
        )
    return SignVerdict(SignKind.POSITIVE, margin=min_margin)
