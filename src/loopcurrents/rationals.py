"""Exact scalars, dyadic grids and the exact decreasing-pair search.

Scalars are ``fractions.Fraction`` (arbitrary precision, canonical reduced
form, exact comparisons).  The closed forms evaluated on them are plain
functions of x in :mod:`loopcurrents.theta`.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CapExceededError, ParametrizationError


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' or a plain integer/decimal string.  Exponent notation
    is refused: ``Fraction`` would build 10^N for '1e-N' with no bound."""
    try:
        if "e" in text or "E" in text:
            raise ValueError("exponent notation")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParametrizationError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """'num/den' at any size.  ``Decimal`` writes the integers, so Python's
    int-to-str digit limit, which stays in place for parsing, does not apply."""
    return f"{decimal.Decimal(value.numerator)}/{decimal.Decimal(value.denominator)}"


def decimal_string(value: Fraction, digits: int = 40) -> str:
    """Correctly rounded decimal expansion with ``digits`` significant digits."""
    if value == 0:
        return "0"
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    return str(d)


# ---------------------------------------------------------------------------
# Grids and decreasing-pair certificates


# Most points a grid of any command may have: 4,095 of dyadic_grid(12), or
# a 12-step --window grid.  The work grows with the points, about doubling
# per step of resolution.  In-process runs at resolution 12 (CPython 3.11,
# 2-vCPU AMD EPYC): `table` 1.5 s and a 74 MB peak (3.4 s and 129 MB at
# 13), `figure --model l2 --n 38 --m 2` 0.48-0.52 s and 31 MB, and `figure
# --model P --n 2000 --m 300 --window 255/256:1` 0.54-0.81 s and 23 MB,
# where the other caps are sized to about 1 s and 100-150 MB.
GRID_CAP = 1 << 12


def dyadic_steps(resolution: int) -> int:
    """2^resolution steps (resolution >= 0), refused by exponent when the
    grid would be far above the cap, before a shift builds a huge integer."""
    if resolution < 0:
        raise ParametrizationError(f"resolution {resolution} must be >= 0")
    if resolution > GRID_CAP.bit_length() + 1:
        raise CapExceededError("grid points", f"above 2^{resolution - 1}", GRID_CAP)
    return 1 << resolution


def dyadic_grid(resolution: int) -> list[Fraction]:
    """All points k/2^resolution strictly inside (0, 1), ascending."""
    if resolution < 1:
        raise ParametrizationError(f"resolution {resolution} must be >= 1")
    den = dyadic_steps(resolution)
    if den - 1 > GRID_CAP:
        raise CapExceededError("grid points", den - 1, GRID_CAP)
    return [Fraction(k, den) for k in range(1, den)]


def dyadic_window_grid(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    """The points lo + k (hi - lo) / steps, k = 1..steps, of (lo, hi] that lie
    below 1: with hi = 1 the last point is dropped, so the window 255/256:1
    with 2^7 steps gives 127 points, and with one step none, which is
    refused."""
    if not 0 <= lo < hi <= 1:
        raise ParametrizationError(f"window {lo}:{hi} must satisfy 0 <= lo < hi <= 1")
    points = steps - (hi == 1)
    if points < 1:
        raise ParametrizationError(f"window {lo}:{hi} has no grid point below 1 at {steps} steps")
    if points > GRID_CAP:
        raise CapExceededError("grid points", points, GRID_CAP)
    step = (hi - lo) / steps
    return [lo + k * step for k in range(1, steps + 1) if lo + k * step < 1]


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

    The enclosure search :func:`~loopcurrents.intervals.certify_decreasing_pair`
    takes the running maximum as x1 instead, and the printed pairs depend on
    each rule: on the loop model's (18, 2) figure grid x1 is index 54 here,
    where the running maximum is index 55, so merging the searches would
    move a pinned pair.
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
