from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopcurrents import intervals
from loopcurrents.intervals import (
    Interval,
    certify_decreasing_pair,
    sqrt_interval,
)
from loopcurrents.rationals import find_decreasing_pair
from loopcurrents.theta import (
    single_current_conn_exact,
    single_current_conn_interval,
    single_current_conn_terms,
)

from oracles import ExactInterval

frac = st.fractions(min_value=-3, max_value=3, max_denominator=16)


class TestInterval:
    """Small cases, where the dyadic results are exact at 64 bits."""

    def test_point_and_contains(self):
        iv = Interval.point(Fraction(1, 3), 64)
        assert Fraction(1, 3) in iv
        assert 0 < _width(iv) <= Fraction(1, 2**64)
        assert _width(Interval.point(Fraction(3, 8), 64)) == 0

    def test_bits_are_required(self):
        with pytest.raises(TypeError):
            Interval(1, 2)
        with pytest.raises(TypeError):
            Interval.point(1)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0), 64)

    def test_sub_uses_opposite_endpoints(self):
        a = Interval(Fraction(1), Fraction(2), 64)
        b = Interval(Fraction(0), Fraction(1), 64)
        assert a - b == Interval(Fraction(0), Fraction(2), 64)

    def test_mul_with_negatives(self):
        a = Interval(Fraction(-2), Fraction(1), 64)
        b = Interval(Fraction(-1), Fraction(3), 64)
        assert a * b == Interval(Fraction(-6), Fraction(3), 64)

    def test_even_power_through_zero(self):
        iv = Interval(Fraction(-2), Fraction(1), 64)
        assert iv**2 == Interval(Fraction(0), Fraction(4), 64)
        assert iv**3 == Interval(Fraction(-8), Fraction(1), 64)

    def test_division(self):
        a = Interval(Fraction(1), Fraction(2), 64)
        b = Interval(Fraction(2), Fraction(4), 64)
        assert a / b == Interval(Fraction(1, 4), Fraction(1), 64)
        with pytest.raises(ZeroDivisionError):
            a / Interval(Fraction(-1), Fraction(1), 64)

    def test_strictly_above(self):
        assert Interval(Fraction(2), Fraction(3), 64).strictly_above(
            Interval(Fraction(0), Fraction(1), 64)
        )
        assert not Interval(Fraction(1), Fraction(3), 64).strictly_above(
            Interval(Fraction(0), Fraction(2), 64)
        )
        # enclosures that touch prove no strict inequality
        assert not Interval(Fraction(1), Fraction(2), 64).strictly_above(
            Interval(Fraction(0), Fraction(1), 64)
        )

    @settings(max_examples=80, deadline=None)
    @given(frac, frac)
    def test_arithmetic_encloses_exact_values(self, a, b):
        ia, ib = Interval.point(a, 64), Interval.point(b, 64)
        assert a + b in ia + ib
        assert a - b in ia - ib
        assert a * b in ia * ib
        assert a**3 in ia**3


class TestSqrt:
    def test_perfect_square_is_exact(self):
        # exact when the root lies on the 2^-bits grid ...
        iv = sqrt_interval(Fraction(9, 64), 64)
        assert iv.lo == iv.hi == Fraction(3, 8)
        # ... and one grid step wide when it does not
        iv = sqrt_interval(Fraction(9, 25), 64)
        assert iv.lo < Fraction(3, 5) < iv.hi
        assert _width(iv) == Fraction(1, 2**64)

    def test_sqrt_two_enclosure(self):
        iv = sqrt_interval(Fraction(2), 128)
        assert iv.lo**2 <= 2 <= iv.hi**2
        assert _width(iv) <= Fraction(1, 2**126)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_interval(Fraction(-1), 16)

    def test_zero(self):
        iv = sqrt_interval(Fraction(0), 16)
        assert iv.lo == iv.hi == 0


class TestRoundedInterval:
    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0), bits=64)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(frac, min_size=2, max_size=2).map(sorted),
        st.lists(frac, min_size=2, max_size=2).map(sorted),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=4, max_value=64),
    )
    def test_rounded_results_enclose_exact_mode(self, a, b, n, bits):
        exact_a, exact_b = ExactInterval(*a), ExactInterval(*b)
        rounded_a, rounded_b = Interval(*a, bits), Interval(*b, bits)
        results = [
            (rounded_a + rounded_b, exact_a + exact_b),
            (rounded_a - rounded_b, exact_a - exact_b),
            (rounded_a * rounded_b, exact_a * exact_b),
            (rounded_a**n, exact_a**n),
            (rounded_b**n, exact_b**n),
        ]
        if not b[0] <= 0 <= b[1]:
            results.append((rounded_a / rounded_b, exact_a / exact_b))
        for rounded, exact in results:
            assert rounded.bits == bits
            assert rounded.lo <= exact.lo <= exact.hi <= rounded.hi

    def test_point_arithmetic_encloses_exact(self):
        a = Fraction(3, 7)
        b = Fraction(5, 11)
        ia = Interval.point(a, 64)
        ib = Interval.point(b, 64)
        exact = a * b + a - b / (a + 2)
        got = ia * ib + ia - ib / (ia + 2)
        assert got.lo <= exact <= got.hi
        assert _width(got) <= Fraction(1, 2**50)

    def test_large_power_stays_small_and_correct(self):
        p = Interval.point(Fraction(99, 100), 128)
        big = p**4000
        exact = Fraction(99, 100) ** 4000
        assert big.lo <= exact <= big.hi
        # endpoints stay near the working precision, far from 4000*7 bits
        assert big.lo.denominator.bit_length() < 200

    def test_rounding_is_outward(self):
        v = Fraction(1, 3)
        iv = Interval.point(v, 16) * Interval.point(v, 16)
        assert iv.lo <= Fraction(1, 9) <= iv.hi
        assert iv.lo != iv.hi  # 1/9 is not dyadic, so rounding must widen

    def test_division(self):
        a = Interval.point(Fraction(1, 3), 64)
        out = Interval.point(1, 64) / a
        assert out.lo <= 3 <= out.hi
        # a negative divisor: the upper endpoint -2/5 is rounded up
        out = Interval.point(1, 5) / Interval(Fraction(-5, 2), -2, 5)
        assert out.lo <= Fraction(-1, 2) and Fraction(-2, 5) <= out.hi


def _encloses(iv: Interval, value: Fraction) -> bool:
    return iv.lo <= value <= iv.hi


def _width(iv: Interval) -> Fraction:
    return iv.hi - iv.lo


class TestRoundedOracle:
    """Rounded enclosures against exact Fraction evaluation.

    At x = 2t/(1+t^2) the square root sqrt(1-x^2) = (1-t^2)/(1+t^2) is
    rational, so the single-current connection probability has an exact
    value to check the rounded enclosure against.
    """

    @staticmethod
    def _oracle_holds(n, m, t, bits):
        """The rounded enclosure contains the exact value, and the exact
        interval evaluation on the same square-root enclosure, which
        rounding only ever widens."""
        x = 2 * t / (1 + t * t)
        rounded = single_current_conn_interval(n, m, x, bits)
        root = sqrt_interval(1 - x * x, bits)
        p = 1 - ExactInterval(root.lo, root.hi)
        exact_mode = single_current_conn_terms(n, m, ExactInterval.point(x), p)
        return (
            _encloses(rounded, single_current_conn_exact(n, m, t))
            and rounded.lo <= exact_mode.lo
            and exact_mode.hi <= rounded.hi
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.fractions(min_value=Fraction(1, 40), max_value=Fraction(39, 40), max_denominator=40),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3).map(lambda k: 2 * k),
        st.sampled_from([128, 256]),
    )
    def test_single_current_enclosure_contains_exact(self, t, n, m, bits):
        assert self._oracle_holds(n, m, t, bits)
        iv = single_current_conn_interval(n, m, 2 * t / (1 + t * t), bits)
        assert iv.bits == bits
        assert _width(iv) <= iv.lo / 2 ** (bits - 16)

    # Negative controls: the library rounding one upper endpoint inward makes
    # the oracle fail on a fixed example from its own range.

    def test_inward_rounded_powers_are_caught(self, monkeypatch):
        assert self._oracle_holds(6, 6, Fraction(1, 5), 128)
        power = intervals._power
        monkeypatch.setattr(
            intervals, "_power", lambda v, exp, n, bits, up: power(v, exp, n, bits, False)
        )
        assert not self._oracle_holds(6, 6, Fraction(1, 5), 128)

    def test_inward_rounded_results_are_caught(self, monkeypatch):
        def floored(lo, lo_exp, hi, hi_exp, bits):
            # the rounding helper with a floor where its ceiling should be
            exp = min(lo_exp, hi_exp)
            lo, hi = lo << (lo_exp - exp), hi << (hi_exp - exp)
            shift = max(lo.bit_length(), hi.bit_length()) - bits
            if shift > 0:
                lo, hi, exp = lo >> shift, hi >> shift, exp + shift
            return lo, hi, exp

        assert self._oracle_holds(6, 6, Fraction(1, 7), 128)
        monkeypatch.setattr(intervals, "_rounded", floored)
        assert not self._oracle_holds(6, 6, Fraction(1, 7), 128)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(frac, min_size=2, max_size=2).map(sorted),
        st.lists(frac, min_size=2, max_size=2).map(sorted),
        st.integers(min_value=4, max_value=64),
        st.integers(min_value=4, max_value=64),
    )
    def test_mixed_precisions_round_to_the_coarser(self, a, b, bits_a, bits_b):
        exact_a, exact_b = ExactInterval(*a), ExactInterval(*b)
        rounded_a, rounded_b = Interval(*a, bits_a), Interval(*b, bits_b)
        coarser = min(bits_a, bits_b)
        # a scalar operand is promoted at the interval's own precision
        results = [
            (rounded_a + rounded_b, exact_a + exact_b, coarser),
            (rounded_a * rounded_b, exact_a * exact_b, coarser),
            (rounded_a - b[0], exact_a - b[0], bits_a),
            (a[1] * rounded_b, a[1] * exact_b, bits_b),
        ]
        if not b[0] <= 0 <= b[1]:
            results.append((rounded_a / rounded_b, exact_a / exact_b, coarser))
        for got, exact, bits in results:
            assert got.bits == bits
            assert got.lo <= exact.lo <= exact.hi <= got.hi

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(frac, min_size=2, max_size=2).map(sorted),
        st.integers(0, 140).flatmap(lambda n: st.integers(-(2**n), 2**n)),
        st.integers(min_value=4, max_value=64),
    )
    # 125 = 0b1111101: Interval.point(125, 4) rounds the ceiling 32 * 2^2
    # once more, to [112, 128], one bit coarser than 125 rounded once
    @example([Fraction(1), Fraction(2)], 125, 4)
    def test_an_int_operand_acts_as_its_point_interval(self, a, k, bits):
        # a short int operand is promoted with no Fraction built; negative
        # ones and ones longer than ``bits`` give the results of Interval.point
        iv, point = Interval(*a, bits), Interval.point(k, bits)
        pairs = [(iv + k, iv + point), (k + iv, point + iv), (iv - k, iv - point)]
        pairs += [(k - iv, point - iv), (iv * k, iv * point), (k * iv, point * iv)]
        if k:
            pairs.append((iv / k, iv / point))
        for got, promoted in pairs:
            assert (got.lo, got.hi, got.bits) == (promoted.lo, promoted.hi, promoted.bits)

    def test_tiny_power_keeps_its_significant_bits(self):
        tiny = Interval.point(Fraction(1, 2), 64) ** 4000
        assert tiny == Interval.point(Fraction(1, 2**4000), 64)
        iv = Interval.point(Fraction(1, 3), 64) ** 600
        assert _encloses(iv, Fraction(1, 3**600))
        assert _width(iv) <= iv.hi / 2**50
        # a zero endpoint keeps its exponent instead of doubling it n times
        assert (Interval(-1, Fraction(1, 3), 64) ** 2**20)._exp > -100

    def test_power_of_two_coefficient_is_exact(self):
        iv = Interval.point(Fraction(1, 3), 64)
        assert (iv * -4).lo == -iv.hi * 4 and (iv * -4).hi == -iv.lo * 4
        assert _encloses(iv * 3, 1) and _width(iv * 3) <= Fraction(1, 2**62)

    def test_division_by_an_enclosure_touching_zero(self):
        # refused by its own check from either side, before any integer division
        for divisor in (Interval(Fraction(0), Fraction(1), 64), Interval(Fraction(-1), 0, 64)):
            with pytest.raises(ZeroDivisionError, match="^division by an interval containing 0$"):
                Interval.point(1, 64) / divisor
        # a tiny positive divisor keeps its sign and its significant bits
        quotient = Interval.point(1, 64) / Interval.point(Fraction(1, 2**80), 64)
        assert quotient == Interval.point(2**80, 64)
        assert Interval(Fraction(1, 2**80), 1, 8).lo > 0


class TestCertifiedPairs:
    def test_finds_and_certifies_dip(self):
        def f(x, bits):
            v = (x - Fraction(1, 2)) ** 2
            return Interval.point(v, bits)

        grid = [Fraction(k, 8) for k in range(1, 8)]
        found = certify_decreasing_pair(f, grid)
        assert found is not None
        x1, x2, iv1, iv2 = found
        assert x1 < x2
        assert iv1.strictly_above(iv2)

    def test_monotone_yields_none(self):
        def f(x, bits):
            return Interval.point(x, bits)

        assert certify_decreasing_pair(f, [Fraction(1, 4), Fraction(1, 2)]) is None

    @pytest.mark.parametrize(
        "grid",
        [
            [Fraction(1, 2), Fraction(1, 4)],
            [Fraction(1, 4), Fraction(1, 4)],
            [Fraction(0), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(1)],
            [Fraction(-1, 2), Fraction(1, 2)],
        ],
    )
    def test_grid_is_validated_as_for_exact_pairs(self, grid):
        def f(x, bits):
            return Interval.point(x, bits)

        with pytest.raises(ValueError):
            certify_decreasing_pair(f, grid)
        with pytest.raises(ValueError):
            find_decreasing_pair(lambda x: x, grid)

    def test_refinement_loop_is_used(self):
        calls = []

        def f(x, bits):
            calls.append(bits)
            # width shrinks with bits; values separate only once refined
            pad = Fraction(1, 2**bits)
            center = Fraction(1, 4) if x < Fraction(1, 2) else Fraction(1, 4) - Fraction(1, 2**40)
            return Interval(center - pad, center + pad, bits)

        grid = [Fraction(1, 4), Fraction(3, 4)]
        found = certify_decreasing_pair(f, grid, start_bits=8)
        assert found is not None
        assert 8 < max(calls) < intervals.MAX_BITS

    def test_a_plateau_pairs_its_first_point(self):
        # the running maximum moves only to a strictly larger midpoint
        grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        values = dict(zip(grid, map(Fraction, (3, 3, 1))))
        found = certify_decreasing_pair(lambda x, bits: Interval.point(values[x], bits), grid)
        assert found[:2] == (Fraction(1, 4), Fraction(3, 4))

    def test_equal_coarse_midpoints_are_not_refined(self):
        # a candidate is a strictly lower midpoint: this tie is skipped,
        # though one refinement would separate the values 3 and 1
        calls = []

        def f(x, bits):
            calls.append(bits)
            if bits == 8:
                return Interval(Fraction(0), Fraction(4), bits)
            return Interval.point(3 if x < Fraction(1, 2) else 1, bits)

        assert certify_decreasing_pair(f, [Fraction(1, 4), Fraction(3, 4)], start_bits=8) is None
        assert calls == [8, 8]

    def test_refinement_stops_at_max_bits(self):
        # midpoints 1 and 1/2 make a candidate, but the enclosures overlap at
        # every precision: the search asks for MAX_BITS last and gives up
        calls = []

        def f(x, bits):
            calls.append(bits)
            return Interval(Fraction(0), Fraction(2) if x < Fraction(1, 2) else Fraction(1), bits)

        assert certify_decreasing_pair(f, [Fraction(1, 4), Fraction(3, 4)], start_bits=8) is None
        assert max(calls) == intervals.MAX_BITS

    def test_pair_rules_differ_from_the_exact_search(self):
        # the exact search pairs x2 with the earliest point above it, the
        # enclosure search with the running maximum
        grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        values = dict(zip(grid, map(Fraction, (2, 3, 1))))
        assert find_decreasing_pair(values.get, grid)[:2] == (Fraction(1, 4), Fraction(3, 4))
        found = certify_decreasing_pair(lambda x, bits: Interval.point(values[x], bits), grid)
        assert found[:2] == (Fraction(1, 2), Fraction(3, 4))
