from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents import events, theta
from loopcurrents.errors import GraphMismatchError, GraphStructureError, ParametrizationError
from loopcurrents.events import all_open, connect
from loopcurrents.graphs import (
    Graph,
    check_counter,
    counter_family,
    even_lattice,
    generalized_theta,
    segment_edge_ranges,
)
from loopcurrents.intervals import Interval
from loopcurrents.measures import (
    MODELS,
    bit_masses,
    build,
    double_current,
    double_loop,
    loop_o1,
    prob,
    pythagorean_x,
    single_current_p,
    union,
)
from loopcurrents.overview import (
    FKG_DOUBLE_LOOP_PARAMS,
    FKG_LOOP_PARAMS,
    FKG_SINGLE_CURRENT_PARAMS,
)
from loopcurrents.rationals import dyadic_grid, find_decreasing_pair
from loopcurrents.theta import (
    closed_form_discrepancies,
    counter_core,
    counter_even_masks,
    counter_pair_connect_table,
    double_loop_conn,
    loop_conn,
    single_current_conn_exact,
    single_current_conn_interval,
    single_current_conn_terms,
    theta_core,
    theta_even_masks,
    theta_loop_events,
    theta_pair_event_table,
)

import oracles
from oracles import (
    ExactInterval,
    counter_even_table,
    counter_partition,
    cyclic_count_ratio,
    double_loop_fkg_difference,
    exact_rows,
    same_function,
    trailing_term,
)

F = Fraction

# Every closed form at small parameters, as a function of x alone (p = x/2
# where a form also takes the percolation parameter): the forms ``theta``
# keeps, and the hand-derived ones the tests keep as oracles
CLOSED_FORMS = {
    "theta_partition": oracles.theta_partition(3, 2),
    "counter_partition": counter_partition(3, 2),
    "loop_conn": oracles.loop_conn(4, 2),
    "double_loop_conn": oracles.double_loop_conn(4, 2),
    "single_current_conn_terms": lambda x: single_current_conn_terms(4, 2, x, x / 2),
    "single_current_loop_event_weights": lambda x: oracles.single_current_loop_event_weights(
        3, 2, x, x / 2
    ),
    "double_loop_event_weights": lambda x: oracles.double_loop_event_weights(3, 2, x),
    "cyclic_count_cluster_form": oracles.cyclic_count_cluster_form(1, 2, 3),
    "cyclic_count_double_current_form": oracles.cyclic_count_double_current_form(1, 2, 3),
}


def values(result) -> tuple:
    return result if isinstance(result, tuple) else (result,)


class TestGenericScalars:
    """One code path per closed form for every scalar type: an exact point
    interval (the oracles' ``ExactInterval``) gives the exact value, a
    rounded one encloses it, and a sympy symbol gives the function itself."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_every_scalar_type_agrees(self, name):
        import sympy

        form, x = CLOSED_FORMS[name], F(2, 7)
        exact = values(form(x))
        assert values(form(ExactInterval.point(x))) == tuple(map(ExactInterval.point, exact))
        for iv, v in zip(values(form(Interval.point(x, 64))), exact, strict=True):
            assert iv.bits == 64 and v in iv
        symbol = sympy.Symbol("x")
        assert tuple(e.subs(symbol, sympy.Rational(2, 7)) for e in values(form(symbol))) == exact


class TestPartitionPolynomials:
    def test_theta_equal_outer_form(self):
        n, m = 3, 2
        assert same_function(
            oracles.theta_partition(n, m), lambda x: 1 + 2 * x ** (n + m) + x ** (2 * n)
        )

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

    def test_the_connection_test_runs_once_per_core_mask(self, monkeypatch):
        tested = []

        def counting_connect(g):
            ab = connect(g)

            def predicate(mask):
                tested.append(mask)
                return ab.holds(mask)

            return ab._replace(predicate=predicate)

        monkeypatch.setattr(events, "connect", counting_connect)
        for form in (loop_conn(18, 2), double_loop_conn(38, 2)):
            tested.clear()
            for x in dyadic_grid(4):
                form(x)
            # every grid point reads the core's masks, at most 2^6 of them
            assert tested and len(tested) == len(set(tested)) <= 1 << 6

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
        assert iv.hi - iv.lo < F(1, 2**90)

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

    def test_each_distinct_power_is_computed_once(self, monkeypatch):
        # at (2000, 300): p^150, p^300, p^450, p^600, p^2000 and p^4000;
        # x^600, x^2300, x^4000 and x^4600, shared by the numerator and the
        # normalizer; and the squares of 1 - p^150 and of the reach term.
        # Computed term by term, p^150 comes 3 times and p^300 and the four
        # powers of x twice: 19 calls.
        real = Interval.__pow__
        calls = []

        def counting(self, k):
            calls.append(k)
            return real(self, k)

        monkeypatch.setattr(Interval, "__pow__", counting)
        single_current_conn_interval(2000, 300, F(16367, 16384), 128)
        assert len(calls) == 12
        assert sorted(calls) == sorted([150, 300, 450, 600, 2000, 4000, 600, 2300, 4000, 4600, 2, 2])

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
        for n, m in ((2, 2), (3, 2)):
            g, first, _ = theta_loop_events(n, m)
            x = F(1, 3)
            one_loop, both = oracles.double_loop_event_weights(n, m, x)
            z2 = oracles.theta_partition(n, m)(x) ** 2
            d = double_loop(g, x)
            assert one_loop / z2 == prob(d, first)
            assert both / z2 == prob(d, all_open(g, g.full_mask))

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
        count = oracles.cyclic_count(g)
        cluster_mass = oracles.histogram(build("random_cluster", g, x), count)[l + m]
        double_mass = oracles.histogram(double_current(g, x), count)[l + m]
        assert oracles.cyclic_count_cluster_form(l, m, n)(x) == cluster_mass
        assert oracles.cyclic_count_double_current_form(l, m, n)(x) == double_mass
        assert cyclic_count_ratio(l, m, n)(x) == cluster_mass / double_mass

    def test_component_polynomials_at_1_2_3(self):
        l, m, n = 1, 2, 3

        def z(x):
            return 1 + x ** (n + l) + x ** (n + m) + x ** (l + m)

        def cluster(x):
            return 2 * x ** (l + m) * (1 - x**n) / z(x)

        def double(x):
            return (2 * x ** (2 * (l + m)) + 2 * x ** (l + m)) * (1 - x ** (2 * n)) / z(x) ** 2

        assert same_function(oracles.cyclic_count_cluster_form(l, m, n), cluster)
        assert same_function(oracles.cyclic_count_double_current_form(l, m, n), double)


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

    def test_a_wrong_core_length_is_reported(self, monkeypatch):
        # negative control: the counter core with one n-path a step too long
        real = theta.counter_core

        def wrong(n, m):
            core = real(n, m)
            return Graph(core.vertex_count, core.edges, core.marks, (n + 1, *core.lengths[1:]))

        monkeypatch.setattr(theta, "counter_core", wrong)
        forms = {rec["form"] for rec in closed_form_discrepancies(3, 2, F(1, 3), F(2, 5))}
        assert forms == {"loop_conn", "double_loop_conn", "single_current_conn"}


# Small counter and theta graphs, and the Pythagorean t of the single current
SMALL_COUNTERS = [(n, m) for m in (2, 4) for n in range(1, 6) if 2 * (n + m) <= 14]
SMALL_THETAS = [(n, m, l) for m in (2, 4) for n in range(1, 6) for l in range(1, 6)]
UNIT_FRACTIONS = st.fractions(min_value=F(1, 16), max_value=F(15, 16), max_denominator=16)


def _laws(graph, x, t):
    """The six model rows on ``graph``: the single current at the
    Pythagorean x of t, every other row at x."""
    sc_x = pythagorean_x(t)
    return [build(name, graph, sc_x if name == "single_current" else x) for name in MODELS]


class TestCoreGraphs:
    """Series reduction: each model on a core graph gives the law of the
    subdivided graph's whole-path events, exactly."""

    @settings(max_examples=12, deadline=None)
    @given(nm=st.sampled_from(SMALL_COUNTERS), x=UNIT_FRACTIONS, t=UNIT_FRACTIONS)
    def test_counter_connection_matches_the_subdivided_graph(self, nm, x, t):
        g, core = counter_family(*nm), counter_core(*nm)
        ab, core_ab = connect(g), connect(core)
        for name, law, core_law in zip(MODELS, _laws(g, x, t), _laws(core, x, t)):
            assert prob(core_law, core_ab) == prob(law, ab), name

    @settings(max_examples=12, deadline=None)
    @given(nml=st.sampled_from(SMALL_THETAS), x=UNIT_FRACTIONS, t=UNIT_FRACTIONS)
    def test_theta_loop_events_and_cyclic_parts_match_the_subdivided_graph(self, nml, x, t):
        g, core = generalized_theta(nml), theta_core(*nml)
        paths = [sum(1 << e for e in r) for r in segment_edge_ranges(nml)]
        for name, law, core_law in zip(MODELS, _laws(g, x, t), _laws(core, x, t)):
            # all paths in S fully open, for every set S of core edges
            for s in range(1, 8):
                whole = sum(p for i, p in enumerate(paths) if s >> i & 1)
                assert prob(core_law, all_open(core, s)) == prob(law, all_open(g, whole)), name
            # the cyclic part is a union of whole paths, those of the core's
            # cyclic edges (a partly cyclic path would lose its mass here)
            cyclic, core_cyclic = even_lattice(g)[1], even_lattice(core)[1]

            def cyclic_paths(mask):
                c = cyclic[mask]
                s = sum(1 << i for i, p in enumerate(paths) if c & p == p)
                return 1 << s if c == sum(p for i, p in enumerate(paths) if s >> i & 1) else 0

            (enumerated,) = exact_rows(bit_masses([law.nums], cyclic_paths, 8))
            (reduced,) = exact_rows(bit_masses([core_law.nums], lambda m: 1 << core_cyclic[m], 8))
            assert reduced == enumerated, name

    def test_the_length_weighted_size_law_matches_the_subdivided_graph(self):
        # the core's sizes reach 7 on its 3 edges: a histogram sized from the
        # edge count would lose every mass but that of the empty configuration
        core, g = theta_core(2, 2, 3), generalized_theta([2, 2, 3])

        def size(mask):
            return sum(L for i, L in enumerate(core.lengths) if mask >> i & 1)

        law = oracles.histogram(loop_o1(core, F(1, 2)), size)
        assert sum(law.values()) == 1
        assert law == oracles.histogram(loop_o1(g, F(1, 2)), int.bit_count)
        assert law == {0: F(8, 9), 4: F(1, 18), 5: F(1, 18)}

    def test_lengths_of_one_give_the_plain_laws(self):
        g = generalized_theta([2, 3, 1])
        ones = Graph(g.vertex_count, g.edges, g.marks, (1,) * g.edge_count)
        laws, same = _laws(g, F(1, 3), F(1, 2)), _laws(ones, F(1, 3), F(1, 2))
        for name, law, one in zip(MODELS, laws, same):
            assert (one.nums, one.den, one.z) == (law.nums, law.den, law.z), name

    def test_cores_of_other_lengths_are_other_graphs(self):
        a, b = theta_core(2, 2, 2), theta_core(2, 2, 3)
        assert a.edges == b.edges and a.vertex_count == b.vertex_count
        with pytest.raises(GraphMismatchError):
            union(loop_o1(a, F(1, 2)), loop_o1(b, F(1, 2)))
        with pytest.raises(GraphMismatchError):
            prob(loop_o1(a, F(1, 2)), all_open(b, [0, 1]))

    def test_counter_core_checks_its_parameters(self):
        with pytest.raises(GraphStructureError, match="m=3 must be even"):
            counter_core(2, 3)
        with pytest.raises(GraphStructureError):
            theta_core(2, 0, 2)


class TestCoreRouteAtCommandSizes:
    """The core route against the hand-derived oracles at the parameters the
    commands use, where no enumeration reaches."""

    @pytest.mark.parametrize("conn, n, m", [("loop_conn", 18, 2), ("double_loop_conn", 38, 2)])
    def test_figure_grids(self, conn, n, m):
        core, form = getattr(theta, conn)(n, m), getattr(oracles, conn)(n, m)
        for x in dyadic_grid(6):
            assert core(x) == form(x), x

    @pytest.mark.parametrize(
        "gap, n, m, s",
        [
            ("loop_fkg_gap", *FKG_LOOP_PARAMS),
            ("single_current_fkg_gap", *FKG_SINGLE_CURRENT_PARAMS),
            ("double_loop_fkg_gap", *FKG_DOUBLE_LOOP_PARAMS),
            # acceptance C07b and C07d
            ("single_current_fkg_gap", 2, 2, F(1, 2)),
            ("single_current_fkg_gap", 4, 2, F(1, 2)),
            *(
                ("double_loop_fkg_gap", n, 2, x)
                for n in (2, 3)
                for x in (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10))
            ),
        ],
    )
    def test_fkg_gaps(self, gap, n, m, s):
        assert getattr(theta, gap)(n, m, s) == getattr(oracles, gap)(n, m, s)

    @pytest.mark.parametrize("n, m, t", [(18, 2, F(1, 2)), (2000, 300, F(22, 23))])
    def test_single_current_connection(self, n, m, t):
        # the exact route is the kernel on the core; the hand form is the
        # one the interval enclosures evaluate
        x = pythagorean_x(t)
        hand = single_current_conn_terms(n, m, x, single_current_p(x))
        assert single_current_conn_exact(n, m, t) == hand
