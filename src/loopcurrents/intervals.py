"""Certified rational interval arithmetic.

One class, :class:`Interval`, with one representation: integers ``lo <= hi``
over one shared power of two, [lo * 2^exp, hi * 2^exp], every result rounded
outward to ``bits`` significant bits by floor and ceiling shifts, as in Arb
(Johansson, IEEE TC 2017): high powers (x^4600, p^4000) cost a few products
of ``bits``-bit integers, and (1/128)^600 keeps its significant bits.
Square roots of rationals are enclosed with ``math.isqrt``.  The interval
always encloses the true value.

Intended use: evaluating closed forms that involve sqrt(1-x^2) at rational
x, and certifying strict inequalities (two enclosures that do not overlap
prove the comparison).  Enclosures are never used to assert equalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable, Sequence

from .rationals import _validate_grid


# Precision policy of every enclosure loop: start at START_BITS and double
# until the enclosure is sharp enough, giving up after MAX_BITS.
START_BITS = 128
MAX_BITS = 4096


class Interval:
    """Closed interval [lo, hi]; ``.lo`` and ``.hi`` are exact Fractions.

    The constructor and every operation round outward to ``bits``
    significant bits: the lower endpoint only ever moves down, the upper
    only up, so a result still encloses the exact one.  An operation on two
    intervals rounds at the coarser of their precisions.
    """

    __slots__ = ("_lo", "_hi", "_exp", "bits")

    def __init__(self, lo, hi, bits: int):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        (lo, _, lo_exp), (_, hi, hi_exp) = _scaled(lo, bits), _scaled(hi, bits)
        self._lo, self._hi, self._exp = _rounded(lo, lo_exp, hi, hi_exp, bits)
        self.bits = bits

    @classmethod
    def _make(cls, lo: int, hi: int, exp: int, bits: int) -> "Interval":
        # endpoints already rounded, already ordered
        iv = object.__new__(cls)
        iv._lo, iv._hi, iv._exp, iv.bits = lo, hi, exp, bits
        return iv

    @classmethod
    def point(cls, value, bits: int) -> "Interval":
        return _result(*_scaled(value, bits), bits)

    def _align(self, other) -> tuple["Interval", int]:
        """The other operand, a scalar promoted at this precision, and the
        coarser precision, at which the result rounds."""
        if isinstance(other, Interval):
            return other, min(self.bits, other.bits)
        if isinstance(other, int) and other.bit_length() <= self.bits + 1:
            # Interval.point's result, rounded at most once, with no Fraction
            return _result(other, other, 0, self.bits), self.bits
        return Interval.point(other, self.bits), self.bits

    # arithmetic -------------------------------------------------------------
    def __add__(self, other) -> "Interval":
        b, bits = self._align(other)
        a_lo, a_hi, b_lo, b_hi, exp = _common_exp(self, b)
        return _result(a_lo + b_lo, a_hi + b_hi, exp, bits)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval._make(-self._hi, -self._lo, self._exp, self.bits)

    def __sub__(self, other) -> "Interval":
        return self + -other

    def __rsub__(self, other) -> "Interval":
        return -self + other

    def __mul__(self, other) -> "Interval":
        a, (b, bits) = self, self._align(other)
        if a._lo >= 0 and b._lo >= 0:
            lo, hi = a._lo * b._lo, a._hi * b._hi
        else:
            products = (a._lo * b._lo, a._lo * b._hi, a._hi * b._lo, a._hi * b._hi)
            lo, hi = min(products), max(products)
        return _result(lo, hi, a._exp + b._exp, bits)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        a, (b, bits) = self, self._align(other)
        a_lo, a_hi, b_lo, b_hi = a._lo, a._hi, b._lo, b._hi
        if b_lo <= 0 <= b_hi:
            raise ZeroDivisionError("division by an interval containing 0")
        if b_lo < 0:  # a/b = (-a)/(-b)
            a_lo, a_hi, b_lo, b_hi = -a_hi, -a_lo, -b_hi, -b_lo
        lo_den = b_hi if a_lo >= 0 else b_lo
        hi_den = b_lo if a_hi >= 0 else b_hi
        # numerators scaled by 2^s, so the larger quotient has > bits bits
        s = bits + 1 + b_hi.bit_length() - max(a_lo.bit_length(), a_hi.bit_length())
        lo, hi = _floor_div(a_lo, lo_den, s), -_floor_div(-a_hi, hi_den, s)
        return _result(lo, hi, a._exp - b._exp - s, bits)

    def __pow__(self, n: int) -> "Interval":
        if n < 0:
            raise ValueError("negative interval power")
        bits = self.bits
        lo, hi = self._lo, self._hi
        if lo < 0 and n % 2 == 0:
            # an even power of an interval with lo < 0: the power of |[lo, hi]|
            mags = (-lo, abs(hi))
            lo, hi = (0 if hi >= 0 else min(mags)), max(mags)
        lo, lo_exp = _power(lo, self._exp, n, bits, False)
        hi, hi_exp = _power(hi, self._exp, n, bits, True)
        return Interval._make(*_rounded(lo, lo_exp, hi, hi_exp, bits), bits)

    # queries ----------------------------------------------------------------
    @property
    def lo(self) -> Fraction:
        return _dyadic(self._lo, self._exp)

    @property
    def hi(self) -> Fraction:
        return _dyadic(self._hi, self._exp)

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def strictly_above(self, other: "Interval") -> bool:
        """Certified: every value in self exceeds every value in other."""
        return self.lo > other.hi

    def __contains__(self, value) -> bool:
        return self.lo <= Fraction(value) <= self.hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo, self.hi, self.bits) == (other.lo, other.hi, other.bits)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.bits))

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi}, bits={self.bits})"


def _rounded(lo: int, lo_exp: int, hi: int, hi_exp: int, bits: int) -> tuple[int, int, int]:
    """lo * 2^lo_exp and hi * 2^hi_exp over one exponent, rounded outward to
    ``bits`` significant bits of the larger, never rounding a positive lower
    or a negative upper endpoint to 0: the endpoints and the exponent."""
    exp = min(lo_exp, hi_exp)
    lo, hi = lo << (lo_exp - exp), hi << (hi_exp - exp)
    shift = max(lo.bit_length(), hi.bit_length()) - bits
    if shift > 0:
        if lo > 0:
            shift = min(shift, lo.bit_length() - 1)
        elif hi < 0:
            shift = min(shift, hi.bit_length() - 1)
        lo, hi, exp = lo >> shift, -(-hi >> shift), exp + shift
    return lo, hi, exp


def _dyadic(m: int, exp: int) -> Fraction:
    """m * 2^exp, built with no power of a Fraction."""
    return Fraction(m << exp) if exp >= 0 else Fraction(m, 1 << -exp)


def _result(lo: int, hi: int, exp: int, bits: int) -> Interval:
    """The result of an operation: [lo, hi] * 2^exp rounded."""
    return Interval._make(*_rounded(lo, exp, hi, exp, bits), bits)


def _common_exp(a: Interval, b: Interval) -> tuple:
    """The endpoints of a and b over their smaller exponent, and that one."""
    d = a._exp - b._exp
    if d == 0:
        return a._lo, a._hi, b._lo, b._hi, a._exp
    if d > 0:
        return a._lo << d, a._hi << d, b._lo, b._hi, b._exp
    return a._lo, a._hi, b._lo << -d, b._hi << -d, a._exp


def _floor_div(num: int, den: int, s: int) -> int:
    """floor(num * 2^s / den) for den > 0."""
    return (num << s) // den if s >= 0 else num // (den << -s)


def _scaled(value, bits: int) -> tuple[int, int, int]:
    """Floor and ceiling of value * 2^-exp, about ``bits`` bits long, and exp."""
    num, den = Fraction(value).as_integer_ratio()
    s = bits + den.bit_length() - num.bit_length()
    q, r = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    return q, q + (r != 0), -s


def _power(v: int, exp: int, n: int, bits: int, up: bool) -> tuple[int, int]:
    """(v * 2^exp)^n rounded to ``bits`` significant bits, down, or up if
    ``up``: the mantissa and its exponent.

    Square-and-multiply on non-negative ints, every step rounded the same
    way, so the error never changes sign.  A negative base comes only with
    an odd n (``__pow__`` passes magnitudes otherwise) and takes the
    opposite rounding of its magnitude.
    """
    if v <= 0:
        if v == 0:  # 0^n; squaring would double its exponent for nothing
            return (0, exp) if n else (1, 0)
        v, exp = _power(-v, exp, n, bits, not up)
        return -v, exp
    result, result_exp = 1, 0
    while True:
        if n & 1:
            result, result_exp = result * v, result_exp + exp
            shift = result.bit_length() - bits
            if shift > 0:
                result = -(-result >> shift) if up else result >> shift
                result_exp += shift
        n >>= 1
        if not n:
            return result, result_exp
        v, exp = v * v, 2 * exp
        shift = v.bit_length() - bits
        if shift > 0:
            v = -(-v >> shift) if up else v >> shift
            exp += shift


def sqrt_interval(value: Fraction, bits: int = START_BITS) -> Interval:
    """Enclosure of the square root of a rational to ``bits`` significant
    bits, carrying ``bits`` so that arithmetic on it rounds at that
    precision: the isqrt of the floor and of the ceiling of v * 4^s, with s
    making sqrt(v) * 2^s about ``bits`` bits long."""
    num, den = Fraction(value).as_integer_ratio()
    if num < 0:
        raise ValueError("square root of a negative number")
    s = bits - (num.bit_length() - den.bit_length() + 1) // 2
    floor = _floor_div(num, den, 2 * s)
    ceiling = -_floor_div(-num, den, 2 * s)
    root = isqrt(ceiling)
    return _result(isqrt(floor), root + (root * root < ceiling), -s, bits)


# ---------------------------------------------------------------------------
# Certified monotonicity-violation search


def certify_decreasing_pair(
    f: Callable[[Fraction, int], Interval],
    grid: Sequence[Fraction],
    start_bits: int = START_BITS,
) -> tuple[Fraction, Fraction, Interval, Interval] | None:
    """Find x1 < x2 on the grid with f(x1) > f(x2), certified by enclosures.

    ``f(x, bits)`` must return an enclosure of the target function whose
    width shrinks as ``bits`` grows.  Candidate pairs are located with the
    midpoints of coarse enclosures; each candidate is then refined until the
    two enclosures are disjoint, which proves the strict inequality.  A
    ``None`` result is not a monotonicity proof.

    x1 is the running maximum of the midpoints, not the earliest point above
    x2 as in the exact :func:`~loopcurrents.rationals.find_decreasing_pair`,
    and the printed pairs depend on each rule: in the README's (2000, 300)
    window x1 is index 94 here, where the earliest point above is index 93.
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
                f, grid[best_idx], grid[j], enclosures[best_idx], enclosures[j], start_bits
            )
            if certified is not None:
                return grid[best_idx], grid[j], certified[0], certified[1]
    return None


def _refine_until_disjoint(f, x1, x2, iv1, iv2, bits):
    while True:
        if iv1.strictly_above(iv2):
            return iv1, iv2
        if bits >= MAX_BITS:
            return None
        bits *= 2
        iv1 = f(x1, bits)
        iv2 = f(x2, bits)
