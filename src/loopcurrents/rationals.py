"""Exact scalar and univariate polynomial/rational-function arithmetic.

Scalars are ``fractions.Fraction`` (arbitrary precision, canonical reduced
form, exact comparisons).  Polynomials are sparse in one variable x, which
keeps exponents in the thousands cheap: only the terms that exist are
stored.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import ParametrizationError, PoleError

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer/decimal string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParametrizationError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal_string(value: Fraction, digits: int = 40) -> str:
    """Correctly rounded decimal expansion with ``digits`` significant digits."""
    if value == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


class Polynomial:
    """Sparse polynomial in x over the rationals.

    ``terms`` is a tuple of (exponent, coefficient) sorted by exponent with
    no zero coefficients, so equality and hashing are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, Fraction]] = ()):
        acc: dict[int, Fraction] = {}
        for exp, coeff in terms:
            if exp < 0:
                raise ValueError("negative exponent")
            c = acc.get(exp, Fraction(0)) + coeff
            if c:
                acc[exp] = c
            elif exp in acc:
                del acc[exp]
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

    # construction ----------------------------------------------------------
    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls([(0, Fraction(c))])

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "Polynomial":
        return cls([(exponent, Fraction(coeff))])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls.monomial(1)

    # ring operations -------------------------------------------------------
    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        return Polynomial(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial((e, -c) for e, c in self.terms)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        acc: dict[int, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                c = acc.get(e, Fraction(0)) + c1 * c2
                if c:
                    acc[e] = c
                elif e in acc:
                    del acc[e]
        return Polynomial(acc.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    # queries ----------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def coefficient(self, exponent: int) -> Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
        return Fraction(0)

    def __call__(self, x):
        """Evaluate exactly.  Works for Fraction and any ring-like scalar.

        Powers are built incrementally along the sorted exponents, so sparse
        high-degree polynomials cost one fast exponentiation per gap.
        """
        result = Fraction(0)
        power = None
        prev_exp = 0
        for e, c in self.terms:
            if e == 0:
                result = result + c
                continue
            power = x ** e if power is None else power * x ** (e - prev_exp)
            prev_exp = e
            result = result + c * power
        return result

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{e}" if c != 1 else f"x^{e}")
        return " + ".join(parts)


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot coerce {type(value)!r} to Polynomial")


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two sparse polynomials; evaluation is exact off the poles."""

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("denominator is identically zero")

    def __call__(self, x: Fraction) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise PoleError(f"denominator vanishes at x={x}")
        return self.num(x) / d


# ---------------------------------------------------------------------------
# Grids and decreasing-pair certificates


def dyadic_grid(resolution: int) -> list[Fraction]:
    """All points k/2^resolution strictly inside (0, 1), ascending."""
    if resolution < 1:
        raise ParametrizationError(f"resolution {resolution} must be >= 1")
    den = 1 << resolution
    return [Fraction(k, den) for k in range(1, den)]


def dyadic_window_grid(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    """``steps`` evenly spaced points in (lo, hi], endpoints rational."""
    if not 0 <= lo < hi <= 1:
        raise ParametrizationError(f"window {lo}:{hi} must satisfy 0 <= lo < hi <= 1")
    if steps < 1:
        raise ParametrizationError(f"steps={steps} must be >= 1")
    step = (hi - lo) / steps
    return [lo + k * step for k in range(1, steps + 1) if lo + k * step < 1]

def near_one_grid(resolution: int, count: int) -> list[Fraction]:
    """Points 1 - k/2^resolution for k = count..1, ascending toward 1."""
    den = 1 << resolution
    if count >= den:
        raise ParametrizationError("count must be below 2^resolution")
    return [Fraction(den - k, den) for k in range(count, 0, -1)]


def _validate_grid(grid: Sequence[Fraction]):
    for x in grid:
        if not 0 < x < 1:
            raise ParametrizationError(f"grid point {x} outside (0,1)")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise ParametrizationError("grid must be strictly increasing")


def find_decreasing_pair(
    f: Callable[[Fraction], Fraction], grid: Sequence[Fraction]
) -> tuple[Fraction, Fraction, Fraction, Fraction] | None:
    """First certified violation of monotonicity of f on the grid.

    Scans left to right; at the first point x2 whose value drops below the
    running maximum, returns (x1, x2, f(x1), f(x2)) where x1 is the earliest
    grid point with f(x1) > f(x2).  Comparisons are exact, so a returned
    pair is a certificate of non-monotonicity.  ``None`` only means the grid
    scan found no violation; it is not a proof of monotonicity.
    """
    _validate_grid(grid)
    values: list[Fraction] = []
    best = None
    for j, x in enumerate(grid):
        v = f(x)
        if best is not None and v < best:
            for i in range(j):
                if values[i] > v:
                    return grid[i], x, values[i], v
            raise AssertionError("running maximum lost")  # pragma: no cover
        values.append(v)
        if best is None or v > best:
            best = v
    return None
