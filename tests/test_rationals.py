from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents.errors import PoleError
from loopcurrents.rationals import (
    Polynomial,
    RationalFunction,
    decimal_string,
    dyadic_grid,
    dyadic_window_grid,
    find_decreasing_pair,
    format_rational,
    near_one_grid,
    parse_rational,
)

from oracles import same_function, trailing_term

X = Polynomial.x()

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def polynomials():
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), small_fractions),
        max_size=5,
    ).map(Polynomial)


class TestPolynomial:
    def test_construction_cancels_and_sorts(self):
        p = Polynomial([(3, Fraction(1)), (0, Fraction(2)), (3, Fraction(-1))])
        assert p.terms == ((0, Fraction(2)),)

    def test_monomial_eval(self):
        assert (X**2)(Fraction(1, 2)) == Fraction(1, 4)

    def test_sparse_high_degree(self):
        p = Polynomial.monomial(4600) + Polynomial.monomial(600)
        v = p(Fraction(1, 2))
        assert v == Fraction(1, 2**600) + Fraction(1, 2**4600)

    def test_counter_partition_term_sum_oracle(self):
        # 1 + x^16 + x^4 + 4x^10 + x^20 at 1/2, against the hand-built sum
        n, m = 8, 2
        z = (
            Polynomial.constant(1)
            + Polynomial.monomial(2 * n)
            + Polynomial.monomial(2 * m)
            + 4 * Polynomial.monomial(n + m)
            + Polynomial.monomial(2 * n + 2 * m)
        )
        expected = (
            1
            + Fraction(1, 2**16)
            + Fraction(1, 2**4)
            + 4 * Fraction(1, 2**10)
            + Fraction(1, 2**20)
        )
        assert z(Fraction(1, 2)) == expected

    def test_degree_and_trailing(self):
        p = 3 * Polynomial.monomial(5) + Polynomial.monomial(2)
        assert p.degree == 5
        assert trailing_term(p) == (2, Fraction(1))
        assert p.coefficient(5) == 3
        assert p.coefficient(4) == 0
        assert Polynomial.zero().degree == -1
        with pytest.raises(ValueError):
            trailing_term(Polynomial.zero())

    def test_power(self):
        assert (X + 1) ** 2 == X**2 + 2 * X + 1

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=50, deadline=None)
    @given(polynomials(), polynomials(), small_fractions)
    def test_evaluation_is_a_ring_morphism(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)


class TestRationalFunction:
    def test_eval(self):
        f = RationalFunction(X**2, Polynomial.constant(1))
        assert f(Fraction(1, 2)) == Fraction(1, 4)

    def test_vanishes_at_zero(self):
        den = Polynomial.constant(1) + X**2 + 4 * X**3 + X**4 + X**6
        f = RationalFunction(X**4 + X**6, den)
        assert f(Fraction(0)) == 0

    def test_pole_detection(self):
        f = RationalFunction(Polynomial.constant(1), X)
        with pytest.raises(PoleError):
            f(Fraction(0))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(X, Polynomial.zero())

    def test_same_function_cross_multiplied(self):
        f = RationalFunction(X, Polynomial.constant(1) + X)
        g = RationalFunction(X * (1 + X), (Polynomial.constant(1) + X) ** 2)
        assert same_function(f, g)


class TestGridsAndPairs:
    def test_dyadic_grid(self):
        grid = dyadic_grid(3)
        assert grid == [Fraction(k, 8) for k in range(1, 8)]

    def test_window_grid_endpoints(self):
        grid = dyadic_window_grid(Fraction(1, 2), Fraction(3, 4), 4)
        assert grid[0] > Fraction(1, 2) and grid[-1] == Fraction(3, 4)

    def test_near_one_grid_increasing(self):
        grid = near_one_grid(6, 10)
        assert grid == sorted(grid)
        assert grid[-1] == Fraction(63, 64)

    def test_monotone_function_yields_none(self):
        assert find_decreasing_pair(lambda x: x, dyadic_grid(4)) is None

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

    def test_decimal_rounding(self):
        assert decimal_string(Fraction(1, 3), 10) == "0.3333333333"
        assert decimal_string(Fraction(2, 3), 10) == "0.6666666667"
        assert decimal_string(Fraction(0), 10) == "0"

    def test_decimal_forty_digits(self):
        s = decimal_string(Fraction(1, 7), 40)
        assert s.startswith("0.142857142857")
        assert len(s.replace("0.", "")) == 40
