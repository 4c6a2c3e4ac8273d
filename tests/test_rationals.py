import sys
import tracemalloc
from fractions import Fraction

import pytest

from loopcurrents import rationals
from loopcurrents.errors import CapExceededError, ParametrizationError
from loopcurrents.rationals import (
    decimal_string,
    dyadic_grid,
    dyadic_steps,
    dyadic_window_grid,
    find_decreasing_pair,
    format_rational,
    parse_rational,
)
from oracles import counter_partition, near_one_grid, same_function, trailing_term


class TestPolynomial:
    """The partition functions are sparse polynomials in x, evaluated along
    their exponents; the oracles read polynomial functions symbolically."""

    def test_sparse_high_degree(self):
        # 1 + x^600 + 4x^2300 + x^4000 + x^4600 at 1/2
        v = counter_partition(2000, 300)(Fraction(1, 2))
        assert v == sum(
            Fraction(c, 2**e) for e, c in ((0, 1), (600, 1), (2300, 4), (4000, 1), (4600, 1))
        )

    def test_counter_partition_term_sum_oracle(self):
        # 1 + x^16 + x^4 + 4x^10 + x^20 at 1/2, against the hand-built sum
        n, m = 8, 2
        expected = (
            1
            + Fraction(1, 2**16)
            + Fraction(1, 2**4)
            + 4 * Fraction(1, 2**10)
            + Fraction(1, 2**20)
        )
        assert counter_partition(n, m)(Fraction(1, 2)) == expected

    def test_degree_and_trailing(self):
        assert trailing_term(lambda x: 3 * x**5 + x**2) == (2, Fraction(1))
        assert trailing_term(lambda x: Fraction(1, 2) * x**3 - x**7) == (3, Fraction(1, 2))
        with pytest.raises(ValueError):
            trailing_term(lambda x: x - x)


class TestRationalFunction:
    """The connection and cyclic-count forms are rational functions of x;
    the oracle compares two of them as functions."""

    def test_same_function_cross_multiplied(self):
        assert same_function(lambda x: x / (1 + x), lambda x: x * (1 + x) / (1 + x) ** 2)
        assert not same_function(lambda x: x / (1 + x), lambda x: x / (1 - x))


class TestGridsAndPairs:
    def test_dyadic_grid(self):
        grid = dyadic_grid(3)
        assert grid == [Fraction(k, 8) for k in range(1, 8)]

    def test_window_grid_endpoints(self):
        grid = dyadic_window_grid(Fraction(1, 2), Fraction(3, 4), 4)
        assert grid[0] > Fraction(1, 2) and grid[-1] == Fraction(3, 4)

    def test_window_grid_boundaries(self):
        # lo = 0 is a window's lowest end, and one step below 1 is one point
        quarters = [Fraction(1, 4), Fraction(1, 2)]
        assert dyadic_window_grid(Fraction(0), Fraction(1, 2), 2) == quarters
        assert dyadic_window_grid(Fraction(1, 2), Fraction(3, 4), 1) == [Fraction(3, 4)]
        assert dyadic_window_grid(Fraction(1, 2), Fraction(1), 2) == [Fraction(3, 4)]
        with pytest.raises(ParametrizationError, match="no grid point below 1"):
            dyadic_window_grid(Fraction(1, 2), Fraction(1), 1)
        with pytest.raises(ParametrizationError, match="must satisfy"):
            dyadic_window_grid(Fraction(1, 2), Fraction(1, 2), 2)

    def test_grids_are_capped_before_they_are_built(self, monkeypatch):
        monkeypatch.setattr(rationals, "GRID_CAP", 7)
        assert len(dyadic_grid(3)) == len(dyadic_window_grid(Fraction(1, 2), Fraction(1), 8)) == 7
        with pytest.raises(CapExceededError, match="grid points needs size 15"):
            dyadic_grid(4)
        with pytest.raises(CapExceededError, match="grid points needs size 8"):
            dyadic_window_grid(Fraction(1, 2), Fraction(3, 4), 8)

    def test_twelve_steps_are_admitted_by_every_grid(self):
        # 4,095 points of (0, 1), and a 12-step window below 1 takes all
        # 4,096 of the cap; 13 steps are refused
        assert len(dyadic_grid(12)) == 4095
        window = dyadic_window_grid(Fraction(1, 2), Fraction(3, 4), dyadic_steps(12))
        assert len(window) == rationals.GRID_CAP == 4096 and window[-1] == Fraction(3, 4)
        with pytest.raises(CapExceededError, match="grid points needs size 8191"):
            dyadic_grid(13)

    def test_a_negative_resolution_is_a_typed_error(self):
        assert dyadic_steps(0) == 1
        with pytest.raises(ParametrizationError, match="resolution -1 must be >= 0"):
            dyadic_steps(-1)

    def test_near_one_grid_increasing(self):
        grid = near_one_grid(6, 10)
        assert grid == sorted(grid)
        assert grid[-1] == Fraction(63, 64)

    def test_near_one_grid_refuses_an_empty_grid(self):
        assert near_one_grid(6, 1) == [Fraction(63, 64)]
        for count in (0, -3):
            with pytest.raises(ParametrizationError, match=f"count {count} must be at least 1"):
                near_one_grid(6, count)

    def test_monotone_function_yields_none(self):
        assert find_decreasing_pair(lambda x: x, dyadic_grid(4)) is None

    def test_a_plateau_is_not_a_drop(self):
        # values 1, 1, 1/2: the second point ties the running maximum, and
        # the first point is the earliest above the third
        values = dict(zip(dyadic_grid(2), (1, 1, Fraction(1, 2))))
        pair = find_decreasing_pair(values.__getitem__, dyadic_grid(2))
        assert pair == (Fraction(1, 4), Fraction(3, 4), 1, Fraction(1, 2))

    def test_parabola_pair(self):
        pair = find_decreasing_pair(
            lambda x: (x - Fraction(1, 2)) ** 2, [Fraction(1, 4), Fraction(1, 2)]
        )
        assert pair == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 16), Fraction(0))

    def test_pair_values_are_verified(self):
        def bumpy(x):
            return (x - Fraction(1, 3)) * (x - Fraction(2, 3)) * (-1)

        pair = find_decreasing_pair(bumpy, dyadic_grid(4))
        assert pair is not None
        x1, x2, v1, v2 = pair
        assert x1 < x2 and v1 > v2
        assert bumpy(x1) == v1 and bumpy(x2) == v2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            find_decreasing_pair(lambda x: x, [Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(ValueError):
            find_decreasing_pair(lambda x: x, [Fraction(0), Fraction(1, 2)])


class TestFormatting:
    def test_parse_and_format(self):
        assert parse_rational("3/7") == Fraction(3, 7)
        assert format_rational(Fraction(3, 7)) == "3/7"
        assert parse_rational(" 2 ") == 2

    def test_any_size_is_written_and_the_parse_limit_stays(self):
        # past sys.get_int_max_str_digits() digits, Python refuses int <-> str
        value = Fraction(-(3**20000), 2**30001)
        text = format_rational(value)
        with pytest.raises(ParametrizationError, match="not a rational number"):
            parse_rational(text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(text) == value
        finally:
            sys.set_int_max_str_digits(limit)
        assert format_rational(Fraction(0)) == "0/1"

    def test_exponent_notation_is_refused_before_a_power_is_built(self):
        # Fraction("1e-10000000") alone builds a 33-Mbit denominator
        tracemalloc.start()
        try:
            for text in ("1e-9999999999", "1E9999999999", "2.5e-1", "1e3"):
                with pytest.raises(ParametrizationError, match="not a rational number"):
                    parse_rational(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_decimal_rounding(self):
        assert decimal_string(Fraction(1, 3), 10) == "0.3333333333"
        assert decimal_string(Fraction(2, 3), 10) == "0.6666666667"
        assert decimal_string(Fraction(0), 10) == "0"

    def test_decimal_forty_digits(self):
        s = decimal_string(Fraction(1, 7), 40)
        assert s.startswith("0.142857142857")
        assert len(s.replace("0.", "")) == 40
