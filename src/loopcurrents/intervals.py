"""Certified rational interval arithmetic.

One class, :class:`Interval`, with Fraction endpoints, in two modes.  In
exact mode (``bits=None``) every operation is performed exactly on the
endpoints.  In rounded mode every result is rounded outward to about
``bits`` significant bits, so endpoint sizes stay bounded through long
chains of products and high powers.  Square roots are enclosed by dyadic
bounds obtained from ``math.isqrt``.  Either way the interval always
encloses the true value; width comes from the square roots and, in rounded
mode, from the outward rounding of every step.

Intended use: evaluating closed forms that involve sqrt(1-x^2) at rational
x, and certifying strict inequalities (two enclosures that do not overlap
prove the comparison).  Enclosures are never used to assert equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Sequence

from .rationals import _validate_grid


# Precision policy of every enclosure loop: start at START_BITS and double
# until the enclosure is sharp enough, giving up after MAX_BITS.
START_BITS = 128
MAX_BITS = 4096


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with Fraction endpoints.

    With ``bits=None`` every operation is exact on the endpoints.  With
    ``bits`` set, every result is rounded outward to about ``bits``
    significant bits, which keeps high powers (x^4600, p^4000) cheap: the
    lower endpoint only ever moves down, the upper only up, so the result
    still encloses the exact one.  An operation on two intervals rounds at
    the coarser of their precisions, exact counting as unbounded.
    """

    lo: Fraction
    hi: Fraction
    bits: int | None = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value, bits: int | None = None) -> "Interval":
        v = Fraction(value)
        return cls(v, v, bits)

    def _coerce(self, other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(other, self.bits)

    def _result(self, lo: Fraction, hi: Fraction, other: "Interval") -> "Interval":
        bits = self.bits
        if other.bits is not None and (bits is None or other.bits < bits):
            bits = other.bits
        if bits is None:
            return Interval(lo, hi)
        return Interval(_round_down(lo, bits), _round_up(hi, bits), bits)

    # arithmetic -------------------------------------------------------------
    def __add__(self, other) -> "Interval":
        other = self._coerce(other)
        return self._result(self.lo + other.lo, self.hi + other.hi, other)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.bits)

    def __sub__(self, other) -> "Interval":
        other = self._coerce(other)
        return self._result(self.lo - other.hi, self.hi - other.lo, other)

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Interval":
        other = self._coerce(other)
        if self.lo >= 0 and other.lo >= 0:
            return self._result(self.lo * other.lo, self.hi * other.hi, other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return self._result(min(products), max(products), other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        other = self._coerce(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing 0")
        return self * other._result(1 / other.hi, 1 / other.lo, self)

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    def __pow__(self, n: int) -> "Interval":
        if n < 0:
            raise ValueError("negative interval power")
        if self.bits is not None and self.lo >= 0:
            # square-and-multiply with per-step rounding; inclusion-monotone,
            # so the result still encloses the true power
            result = Interval.point(1, self.bits)
            base = self
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        if n == 0:
            return Interval.point(1, self.bits)
        if self.lo >= 0 or n % 2 == 1:
            return self._result(self.lo**n, self.hi**n, self)
        mags = (abs(self.lo), abs(self.hi))
        low = Fraction(0) if self.lo <= 0 <= self.hi else min(mags) ** n
        return self._result(low, max(mags) ** n, self)

    # queries ----------------------------------------------------------------
    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def strictly_above(self, other: "Interval") -> bool:
        """Certified: every value in self exceeds every value in other."""
        return self.lo > other.hi

    def __contains__(self, value) -> bool:
        v = Fraction(value)
        return self.lo <= v <= self.hi


def sqrt_interval(value: Fraction | Interval, bits: int = START_BITS) -> Interval:
    """Enclosure of the square root with dyadic endpoints, width <= 2^-bits,
    carrying ``bits`` so that arithmetic on it rounds at that precision."""
    if not isinstance(value, Interval):
        value = Interval.point(value)
    if value.lo < 0:
        raise ValueError("square root of a negative interval")
    return Interval(_sqrt_lower(value.lo, bits), _sqrt_upper(value.hi, bits), bits)


def _round_down(v: Fraction, bits: int) -> Fraction:
    """Largest dyadic with ~bits significant bits that is <= v."""
    return _round_toward(v.numerator, v.denominator, bits, 1)


def _round_up(v: Fraction, bits: int) -> Fraction:
    """Smallest dyadic with ~bits significant bits that is >= v."""
    return _round_toward(v.numerator, v.denominator, bits, -1)


def _round_toward(n: int, d: int, bits: int, sign: int) -> Fraction:
    # sign * floor(sign * n/d) on the dyadic grid of ~bits significant bits;
    # integer floors only, one Fraction built
    if n == 0:
        return Fraction(0)
    n *= sign
    shift = bits - (n.bit_length() - d.bit_length())
    if shift >= 0:
        return Fraction(sign * ((n << shift) // d), 1 << shift)
    return Fraction(sign * ((n // (d << -shift)) << -shift))


def _sqrt_lower(v: Fraction, bits: int) -> Fraction:
    if v == 0:
        return Fraction(0)
    n, d = v.numerator, v.denominator
    # sqrt(n/d) = sqrt(n*d)/d; floor(2^bits * sqrt(n*d)) / (2^bits * d)
    root = isqrt((n * d) << (2 * bits))
    return Fraction(root, d << bits)

def _sqrt_upper(v: Fraction, bits: int) -> Fraction:
    if v == 0:
        return Fraction(0)
    n, d = v.numerator, v.denominator
    scaled = (n * d) << (2 * bits)
    root = isqrt(scaled)
    if root * root < scaled:
        root += 1
    return Fraction(root, d << bits)


# ---------------------------------------------------------------------------
# Certified monotonicity-violation search


def certify_decreasing_pair(
    f: Callable[[Fraction, int], Interval],
    grid: Sequence[Fraction],
    start_bits: int = START_BITS,
    max_bits: int = MAX_BITS,
) -> tuple[Fraction, Fraction, Interval, Interval] | None:
    """Find x1 < x2 on the grid with f(x1) > f(x2), certified by enclosures.

    ``f(x, bits)`` must return an enclosure of the target function whose
    width shrinks as ``bits`` grows.  Candidate pairs are located with the
    midpoints of coarse enclosures; each candidate is then refined until the
    two enclosures are disjoint, which proves the strict inequality.  A
    ``None`` result is not a monotonicity proof.
    """
    _validate_grid(grid)
    enclosures = [f(x, start_bits) for x in grid]
    mids = [iv.midpoint for iv in enclosures]
    best_idx = 0
    for j in range(1, len(grid)):
        if mids[j] > mids[best_idx]:
            best_idx = j
            continue
        if mids[j] < mids[best_idx]:
            certified = _refine_until_disjoint(
                f, grid[best_idx], grid[j], enclosures[best_idx], enclosures[j], start_bits, max_bits
            )
            if certified is not None:
                return grid[best_idx], grid[j], certified[0], certified[1]
    return None


def _refine_until_disjoint(f, x1, x2, iv1, iv2, bits, max_bits):
    while True:
        if iv1.strictly_above(iv2):
            return iv1, iv2
        if bits >= max_bits:
            return None
        bits *= 2
        iv1 = f(x1, bits)
        iv2 = f(x2, bits)
