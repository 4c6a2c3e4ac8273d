from fractions import Fraction

import pytest

from loopcurrents.errors import GraphStructureError, ParametrizationError
from loopcurrents.events import connect, cyclic_count, statistic_dist
from loopcurrents.graphs import counter_family, generalized_theta
from loopcurrents.intervals import Interval
from loopcurrents.measures import (
    build,
    double_current,
    double_loop,
    loop_o1,
    prob,
    pythagorean_x,
)
from loopcurrents.rationals import dyadic_grid, find_decreasing_pair
from loopcurrents.theta import (
    check_counter,
    closed_form_discrepancies,
    counter_even_masks,
    counter_pair_connect_table,
    counter_partition,
    cyclic_count_cluster_form,
    cyclic_count_double_current_form,
    double_loop_conn,
    double_loop_event_weights,
    loop_conn,
    single_current_conn_exact,
    single_current_conn_interval,
    single_current_conn_terms,
    single_current_loop_event_weights,
    theta_even_masks,
    theta_pair_event_table,
    theta_partition,
)

from oracles import (
    counter_even_table,
    cyclic_count_ratio,
    double_loop_fkg_difference,
    same_function,
    trailing_term,
)

F = Fraction

# Every closed form at small parameters, as a function of x alone (p = x/2
# where a form also takes the percolation parameter)
CLOSED_FORMS = {
    "theta_partition": theta_partition(3, 2),
    "counter_partition": counter_partition(3, 2),
    "loop_conn": loop_conn(4, 2),
    "double_loop_conn": double_loop_conn(4, 2),
    "single_current_conn_terms": lambda x: single_current_conn_terms(4, 2, x, x / 2),
    "single_current_loop_event_weights": lambda x: single_current_loop_event_weights(3, 2, x, x / 2),
    "double_loop_event_weights": lambda x: double_loop_event_weights(3, 2, x),
    "cyclic_count_cluster_form": cyclic_count_cluster_form(1, 2, 3),
    "cyclic_count_double_current_form": cyclic_count_double_current_form(1, 2, 3),
}


def values(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


class TestGenericScalars:
    """One code path per closed form for every scalar type: an exact point
    interval gives the exact value, a rounded one encloses it, and a sympy
    symbol gives the function itself."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_every_scalar_type_agrees(self, name):
        import sympy

        form, x = CLOSED_FORMS[name], F(2, 7)
        exact = values(form(x))
        assert values(form(Interval.point(x))) == tuple(map(Interval.point, exact))
        for iv, v in zip(values(form(Interval.point(x, 64))), exact, strict=True):
            assert iv.bits == 64 and v in iv
        symbol = sympy.Symbol("x")
        assert tuple(e.subs(symbol, sympy.Rational(2, 7)) for e in values(form(symbol))) == exact


class TestPartitionPolynomials:
    def test_theta_equal_outer_form(self):
        n, m = 3, 2
        assert same_function(theta_partition(n, m), lambda x: 1 + 2 * x ** (n + m) + x ** (2 * n))

    def test_counter_form(self):
        n, m = 3, 2

        def expected(x):
            return 1 + x ** (2 * n) + x ** (2 * m) + 4 * x ** (n + m) + x ** (2 * n + 2 * m)

        assert same_function(counter_partition(n, m), expected)

    def test_counter_form_collapses_at_equal_lengths(self):
        assert same_function(counter_partition(2, 2), lambda x: 1 + 6 * x**4 + x**8)

    def test_constant_term_is_one(self):
        for lengths in ((2, 2), (5, 4), (1, 2)):
            assert counter_partition(*lengths)(F(0)) == 1

    def test_matches_loop_normalizer(self):
        for n, m in ((2, 2), (3, 2)):
            g = counter_family(n, m)
            x = F(1, 3)
            assert counter_partition(n, m)(x) == loop_o1(g, x).z


class TestConnectionForms:
    def test_loop_conn_matches_enumeration(self):
        for n, m in ((2, 2), (3, 2), (4, 2)):
            g = counter_family(n, m)
            form = loop_conn(n, m)
            for x in (F(1, 3), F(1, 2), F(7, 8)):
                assert form(x) == prob(loop_o1(g, x), connect(g))

    def test_loop_conn_vanishes_at_zero(self):
        assert loop_conn(3, 2)(F(0)) == 0
        assert double_loop_conn(3, 2)(F(0)) == 0

    def test_double_loop_conn_matches_pair_enumeration(self):
        for n, m in ((2, 2), (3, 2)):
            g = counter_family(n, m)
            form = double_loop_conn(n, m)
            for x in (F(1, 3), F(1, 2)):
                assert form(x) == prob(double_loop(g, x), connect(g))

    def test_single_current_conn_matches_enumeration(self):
        for t in (F(1, 2), F(1, 3)):
            g = counter_family(2, 2)
            assert single_current_conn_exact(2, 2, t) == prob(
                build("single_current", g, pythagorean_x(t)), connect(g)
            )

    def test_single_current_conn_small_t_is_small(self):
        assert single_current_conn_exact(2, 2, F(1, 1000)) < F(1, 10**5)

    def test_interval_encloses_pythagorean_value(self):
        iv = single_current_conn_interval(2, 2, F(4, 5), 128)
        exact = single_current_conn_exact(2, 2, F(1, 2))
        assert iv.lo <= exact <= iv.hi
        assert iv.width < F(1, 2**90)

    def test_values_stay_in_unit_interval(self):
        lc = loop_conn(5, 2)
        dlc = double_loop_conn(5, 2)
        for x in dyadic_grid(5):
            assert 0 <= lc(x) <= 1
            assert 0 <= dlc(x) <= 1
        iv = single_current_conn_interval(5, 2, F(13, 16))
        assert 0 <= iv.lo <= iv.hi <= 1

    # Enclosure endpoints on the figure's (2000, 300) window, as integers of
    # ``bits`` significant bits over 2^k.  The figure's pair sidecar prints
    # such endpoints, so they pin the outward rounding of every step to the bit.
    PINNED_ENCLOSURES = {
        (F(255, 256), 128): (
            131,
            237268402384985881145735444961409925781,
            237268402384985881145735444961409925830,
        ),
        (F(255, 256), 256): (
            259,
            80738253559112636433704232491691277046013218797262617146838199792809211779387,
            80738253559112636433704232491691277046013218797262617146838199792809211779413,
        ),
        (F(32705, 32768), 128): (
            130,
            314739724020619060124513967216338211333,
            314739724020619060124513967216338211448,
        ),
        (F(32705, 32768), 256): (
            258,
            107100378253779204394301360965233906615539028698220186076739987296014587537040,
            107100378253779204394301360965233906615539028698220186076739987296014587537108,
        ),
    }

    @pytest.mark.parametrize("x, bits", sorted(PINNED_ENCLOSURES))
    def test_interval_endpoints_are_pinned(self, x, bits):
        iv = single_current_conn_interval(2000, 300, x, bits)
        k, lo, hi = self.PINNED_ENCLOSURES[x, bits]
        assert hi.bit_length() <= bits
        assert (iv.lo, iv.hi) == (F(lo, 2**k), F(hi, 2**k))
        assert iv.bits == bits
        # the pin itself is a valid enclosure: it meets a far sharper one
        sharp = single_current_conn_interval(2000, 300, x, 4096)
        assert F(lo, 2**k) <= sharp.hi and sharp.lo <= F(hi, 2**k)

    def test_interval_rejects_bad_x(self):
        with pytest.raises(ParametrizationError):
            single_current_conn_interval(2, 2, F(0))

    def test_spec_rejects_odd_m(self):
        with pytest.raises(GraphStructureError, match="m=3 must be even"):
            check_counter(2, 3)
        with pytest.raises(GraphStructureError, match="segment lengths must be positive"):
            check_counter(0, 2)
        with pytest.raises(GraphStructureError):
            loop_conn(2, 3)


class TestMonotonicityCounterexamples:
    def test_loop_conn_dips_for_large_n(self):
        pair = find_decreasing_pair(loop_conn(18, 2), dyadic_grid(6))
        assert pair is not None

    def test_double_loop_orientation_38_2_dips(self):
        assert find_decreasing_pair(double_loop_conn(38, 2), dyadic_grid(6)) is not None

    def test_double_loop_orientation_2_18_scan_clean_at_this_resolution(self):
        # the swapped parameter order shows no violation on these grids;
        # reported as scan evidence only
        assert find_decreasing_pair(double_loop_conn(2, 18), dyadic_grid(8)) is None


class TestFkgForms:
    def test_double_loop_event_polynomials_match_enumeration(self):
        from loopcurrents.theta import intersect_all_open, theta_loop_events

        for n, m in ((2, 2), (3, 2)):
            g, first, second = theta_loop_events(n, m)
            x = F(1, 3)
            one_loop, both = double_loop_event_weights(n, m, x)
            z2 = theta_partition(n, m)(x) ** 2
            d = double_loop(g, x)
            assert one_loop / z2 == prob(d, first)
            assert both / z2 == prob(d, intersect_all_open(first, second))

    def test_difference_trailing_term_is_twice_x_to_2n_plus_2m(self):
        for n, m in ((3, 2), (4, 2), (5, 2), (5, 3)):
            assert trailing_term(double_loop_fkg_difference(n, m)) == (
                2 * (n + m),
                F(2),
            )

    def test_difference_flips_sign_at_equal_lengths(self):
        # with n = m the x^(3n+m) term lands on x^(2n+2m) and wins
        assert trailing_term(double_loop_fkg_difference(2, 2)) == (8, F(-2))

    def test_difference_against_sympy_expansion(self):
        n, m = 3, 2

        def expected(x):
            z = 1 + 2 * x ** (n + m) + x ** (2 * n)
            a = 2 * x ** (n + m) + 3 * x ** (2 * (n + m)) + 4 * x ** (3 * n + m)
            c = 2 * x ** (2 * (n + m)) + 4 * x ** (3 * n + m)
            return a * a - c * z * z

        assert same_function(double_loop_fkg_difference(n, m), expected)


class TestCyclicCountForms:
    def test_ratio_reduces_to_z_over_product(self):
        l, m, n = 2, 2, 3

        def reduced(x):
            z = 1 + x ** (n + l) + x ** (n + m) + x ** (l + m)
            return z / ((1 + x**n) * (1 + x ** (l + m)))

        assert same_function(cyclic_count_ratio(l, m, n), reduced)
        assert reduced(F(0)) == 1  # the x -> 0 limit of the ratio

    def test_ratio_differs_from_one(self):
        ratio = cyclic_count_ratio(2, 2, 3)(F(1, 2))
        assert ratio == F(16, 17) != 1

    def test_ratio_matches_statistic_pushforward(self):
        l, m, n = 2, 2, 3
        g = generalized_theta([l, m, n])
        x = F(1, 2)
        stat = cyclic_count(g)
        cluster_mass = statistic_dist(build("random_cluster", g, x), stat)[l + m]
        double_mass = statistic_dist(double_current(g, x), stat)[l + m]
        assert cyclic_count_cluster_form(l, m, n)(x) == cluster_mass
        assert cyclic_count_double_current_form(l, m, n)(x) == double_mass
        assert cyclic_count_ratio(l, m, n)(x) == cluster_mass / double_mass

    def test_component_polynomials_at_1_2_3(self):
        l, m, n = 1, 2, 3

        def z(x):
            return 1 + x ** (n + l) + x ** (n + m) + x ** (l + m)

        def cluster(x):
            return 2 * x ** (l + m) * (1 - x**n) / z(x)

        def double(x):
            return (2 * x ** (2 * (l + m)) + 2 * x ** (l + m)) * (1 - x ** (2 * n)) / z(x) ** 2

        assert same_function(cyclic_count_cluster_form(l, m, n), cluster)
        assert same_function(cyclic_count_double_current_form(l, m, n), double)


from expected_tables import (
    BOTH_LOOPS_TABLE,
    CONNECT_PAIR_TABLE,
    FIRST_LOOP_TABLE,
    as_bools,
)


class TestMechanicalTables:
    def test_counter_even_table_regenerates(self):
        n, m = 2, 2
        rows = counter_even_table(n, m)
        assert [r["edges"] for r in rows] == [0, 2 * m, n + m, n + m, n + m, n + m, 2 * n, 2 * n + 2 * m]
        assert [r["weight_exponent"] for r in rows] == [r["edges"] for r in rows]
        assert [r["connects_marks"] for r in rows] == [
            False, True, False, False, False, False, False, True,
        ]
        # as a multiset this is the counterexample bookkeeping: sizes
        # {0, 2n, 2m, four copies of n+m, 2n+2m} with exactly the two
        # connecting configurations
        assert sorted(r["edges"] for r in rows) == sorted(
            [0, 2 * n, 2 * m, n + m, n + m, n + m, n + m, 2 * n + 2 * m]
        )

    def test_theta_pair_tables_match_frozen_grids(self):
        got_first = theta_pair_event_table(2, 2, "first")
        got_both = theta_pair_event_table(2, 2, "both")
        assert got_first == as_bools(FIRST_LOOP_TABLE)
        assert got_both == as_bools(BOTH_LOOPS_TABLE)

    def test_counter_pair_table_matches_frozen_grid(self):
        got = counter_pair_connect_table(2, 2)
        assert got == as_bools(CONNECT_PAIR_TABLE)

    def test_tables_stable_across_lengths(self):
        # the check/cross pattern depends only on which paths are present
        assert theta_pair_event_table(3, 2, "first") == theta_pair_event_table(2, 2, "first")
        assert counter_pair_connect_table(3, 2) == counter_pair_connect_table(2, 2)

    def test_mask_orders(self):
        masks = theta_even_masks(2, 2)
        assert masks[0] == 0
        assert [m.bit_count() for m in masks] == [0, 4, 4, 4]
        cmasks = counter_even_masks(2, 2)
        assert [m.bit_count() for m in cmasks] == [0, 4, 4, 4, 4, 4, 4, 8]


class TestDiscrepancyReporting:
    def test_no_discrepancies_at_enumeration_scale(self):
        assert closed_form_discrepancies(2, 2, F(1, 2), F(1, 2)) == []
        assert closed_form_discrepancies(3, 2, F(1, 3), F(2, 5)) == []
