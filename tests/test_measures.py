from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents.errors import (
    CapExceededError,
    GraphMismatchError,
    LoopCurrentsError,
    ParametrizationError,
)
from loopcurrents import measures, overview
from loopcurrents.battery import scan_battery, verification_battery
from loopcurrents.checkers import fkg_gaps
from loopcurrents.events import Event, all_open, connect, edge_open
from loopcurrents.graphs import (
    LATTICE_PASS_CAP,
    Graph,
    complete_graph,
    counter_family,
    generalized_theta,
)
from loopcurrents.measures import (
    LOOP_WEIGHT_BITS_CAP,
    MODELS,
    UNION_PAIR_CAP,
    Dist,
    bernoulli,
    bit_masses,
    build,
    double_current,
    double_loop,
    loop_o1,
    point_mass,
    polynomial_masses,
    prob,
    push_uniform_even,
    pythagorean_x,
    single_current_p,
    union,
    union_bernoulli,
)
from loopcurrents.overview import KNOWN_VERDICTS
from loopcurrents.rationals import dyadic_grid
from loopcurrents.sampler import loop_chain
from loopcurrents.theta import counter_core, theta_core

from oracles import (
    bit_masses_per_law,
    brute_union,
    check_increasing,
    connect_sets,
    cyclic_edges,
    dist_from_json,
    dist_from_weights,
    dist_to_json,
    double_current_lis,
    double_current_lis_per_mask,
    exact_rows,
    prob_bruteforce,
    probabilities,
    push_uniform_even_per_support,
)

F = Fraction

THETA111 = generalized_theta([1, 1, 1])
THETA232 = generalized_theta([2, 3, 2])
COUNTER22 = counter_family(2, 2)
K4 = complete_graph(4)
TRIANGLE = Graph(3, ((0, 1), (1, 2), (2, 0)))
TREE = Graph(3, ((0, 1), (1, 2)))
ONE_EDGE = Graph(2, ((0, 1),))
LOOPY = Graph(2, ((0, 1), (0, 1), (1, 1)))  # parallel pair plus self-loop

SMALL = [THETA111, THETA232, COUNTER22, K4, TREE, LOOPY]


class TestBernoulli:
    def test_extremes_are_point_masses(self):
        g = THETA111
        assert bernoulli(g, F(1)).same_law(point_mass(g, g.full_mask))
        assert bernoulli(g, F(0)).same_law(point_mass(g, 0))

    def test_half_is_uniform(self):
        d = bernoulli(THETA111, F(1, 2))
        assert all(w == F(1, 8) for w in d.weights.values())
        assert d.z == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(LoopCurrentsError):
            bernoulli(THETA111, F(3, 2))

    def test_cap(self):
        wide = Graph(2, tuple((0, 1) for _ in range(25)))
        with pytest.raises(CapExceededError):
            bernoulli(wide, F(1, 2))

    def test_edge_probability(self):
        d = bernoulli(K4, F(2, 7))
        assert prob(d, edge_open(K4, 3)) == F(2, 7)


class TestLoopModel:
    def test_x_zero_degenerates(self):
        assert loop_o1(THETA232, F(0)).same_law(point_mass(THETA232, 0))

    def test_theta111_weights(self):
        d = loop_o1(THETA111, F(1, 2))
        assert d.z == F(7, 4)
        probs = probabilities(d)
        assert probs[0] == F(4, 7)
        two_edge = [m for m in probs if m.bit_count() == 2]
        assert len(two_edge) == 3
        assert all(probs[m] == F(1, 7) for m in two_edge)

    def test_generalized_theta_normalizer(self):
        n, m, l = 2, 3, 4
        g = generalized_theta([n, m, l])
        x = F(1, 3)
        expected = 1 + x ** (n + m) + x ** (m + l) + x ** (n + l)
        assert loop_o1(g, x).z == expected

    def test_x_range(self):
        with pytest.raises(LoopCurrentsError):
            loop_o1(THETA111, F(1))


ORACLE_GRAPHS = [THETA111, THETA232, K4, TREE, LOOPY, Graph(3, ((0, 1), (1, 1), (1, 2), (1, 2)))]


@st.composite
def mixed_dists(draw, g: Graph) -> Dist:
    """A random law on g with weights over unrelated denominators."""
    masks = draw(st.lists(st.integers(0, g.full_mask), min_size=1, max_size=12, unique=True))
    weights = {
        m: F(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))) for m in masks
    }
    return dist_from_weights(g, weights)


@st.composite
def law_summing_to(draw, g: Graph, total: int) -> Dist:
    """A law on g whose integer numerators, over the denominator 1, sum to
    exactly ``total`` >= 2."""
    masks = draw(st.lists(st.integers(0, g.full_mask), min_size=2, max_size=8, unique=True))
    cuts = draw(st.lists(st.integers(2, total - 1), max_size=len(masks) - 2, unique=True))
    bounds = [0, 1, *sorted(cuts), total]
    nums = {m: hi - lo for m, lo, hi in zip(masks, bounds, bounds[1:])}
    d = Dist.from_integers(g, nums, 1)
    assert sum(d.nums.values()) == total
    return d


# p = c/e with large denominators (1000003 is prime) unrelated to the weights',
# so the integer pass carries e^|E| beside them; plus the two trivial values
coprime_p = st.one_of(
    st.sampled_from([F(7, 1000003), F(999_999, 1000003), F(1, 2), F(0), F(1)]),
    st.builds(F, st.integers(1, 10**6), st.just(1000003)),
    st.integers(2, 10**7).flatmap(lambda e: st.builds(F, st.integers(1, e - 1), st.just(e))),
)


class TestUnion:
    def test_point_masses(self):
        g = K4
        a, b = 0b0011, 0b0101
        assert union(point_mass(g, a), point_mass(g, b)).same_law(point_mass(g, a | b))

    def test_bernoulli_union_is_bernoulli(self):
        g = THETA232
        p, q = F(1, 3), F(1, 4)
        assert union(bernoulli(g, p), bernoulli(g, q)).same_law(
            bernoulli(g, 1 - (1 - p) * (1 - q))
        )

    def test_bernoulli_self_union_doubles_parameter(self):
        g = THETA111
        x = F(2, 5)
        assert union(bernoulli(g, x), bernoulli(g, x)).same_law(bernoulli(g, x * (2 - x)))

    def test_bernoulli_self_union_on_the_lattice_kernel(self):
        # verify sumthm unites each Bernoulli law with itself this way
        for _, g in scan_battery():
            for x in dyadic_grid(4):
                b = bernoulli(g, x)
                assert union(b, b).same_law(union_bernoulli(b, x)), (g, x)

    def test_single_edge_cluster_is_bernoulli(self):
        # the loop model on a tree is the point mass at the empty set
        d = union(loop_o1(ONE_EDGE, F(1, 3)), bernoulli(ONE_EDGE, F(1, 3)))
        assert prob(d, edge_open(ONE_EDGE, 0)) == F(1, 3)

    def test_z_convention_and_renormalize(self):
        d1 = loop_o1(THETA111, F(1, 2))
        d2 = bernoulli(THETA111, F(1, 3))
        u = union(d1, d2)
        assert u.z == d1.z * d2.z

    def test_graph_mismatch(self):
        with pytest.raises(GraphMismatchError):
            union(loop_o1(THETA111, F(1, 2)), bernoulli(K4, F(1, 2)))

    def test_against_moebius_oracle(self):
        d1 = loop_o1(K4, F(1, 2))
        d2 = bernoulli(K4, F(1, 3))
        got = probabilities(union(d1, d2))
        assert got == brute_union(d1, d2)

    def test_fast_bernoulli_union_matches_pair_iteration(self):
        for g in SMALL:
            d = loop_o1(g, F(2, 5))
            for p in (F(0), F(1, 3), F(1, 2), F(1)):
                assert union_bernoulli(d, p).same_law(union(d, bernoulli(g, p)))

    def test_bernoulli_union_at_p_zero_and_one(self):
        # the general pass keeps the law at p = 0 and moves all its mass to
        # the full configuration at p = 1, field by field
        graphs = [g for _, g in verification_battery()[:8]] + [counter_core(18, 2), theta_core(2, 3, 2)]
        for g in graphs:
            for x in (F(1, 3), F(3, 4)):
                for d in (build("loop", g, x), build("double_loop", g, x)):
                    assert union_bernoulli(d, F(0)) == d
                    full = Dist.from_integers(g, {g.full_mask: d.z.numerator}, d.z.denominator, d.z)
                    assert union_bernoulli(d, F(1)) == full

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_integer_kernels_match_moebius_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        d1 = data.draw(mixed_dists(g))
        d2 = data.draw(mixed_dists(g))
        p = data.draw(coprime_p)
        u = union(d1, d2)
        assert probabilities(u) == brute_union(d1, d2)
        assert u.z == d1.z * d2.z
        ub = union_bernoulli(d1, p)
        assert probabilities(ub) == brute_union(d1, bernoulli(g, p))
        assert ub.z == d1.z
        for d in (u, ub):
            assert all(type(w) is Fraction and w > 0 for w in d.weights.values())
        for d in (d1, u, ub):
            assert all(type(w) is int for w in d.nums.values())

    def test_integer_kernel_refuses_a_table_off_its_mass(self):
        # the numerators must sum to exactly z * den
        g = THETA111
        assert probabilities(Dist.from_integers(g, {0: 2, 0b111: 1}, 3, F(1))) == {
            0: F(2, 3),
            0b111: F(1, 3),
        }
        for nums, den, z in (
            ({0: 2, 0b111: 2}, 3, F(1)),  # one numerator off by one
            ({0: 2, 0b111: 1}, 3, F(2)),  # wrong normalizer
            ({0: 4, 0b111: -1}, 3, F(1)),  # right mass through a negative weight
            ({0: 2, 0b1000: 1}, 3, F(1)),  # a mask outside the graph
        ):
            with pytest.raises(LoopCurrentsError):
                Dist.from_integers(g, nums, den, z)

    def test_support_pair_cap_refuses_before_iterating(self):
        # cycle dimension 13: 2^13 even subgraphs, so 2^26 support pairs
        g = Graph(2, ((0, 1),) * 14)
        with pytest.raises(CapExceededError) as info:
            double_loop(g, F(1, 2))
        assert info.value.what == "union support pairs"
        assert info.value.size == 1 << 26 > UNION_PAIR_CAP

    def test_loop_weight_cap_refuses_before_building(self):
        # counter(10^6, 2) at x = 1/2: the denominator 2^2000004, bounded by
        # 2 * 2000004 bits, would take minutes to print in a figure
        with pytest.raises(CapExceededError) as info:
            loop_o1(counter_core(10**6, 2), F(1, 2))
        assert info.value.what == "loop-model weight bits"
        assert info.value.size == 2 * 2_000_004 > LOOP_WEIGHT_BITS_CAP
        # the exact single current at (2000, 300) stays under it
        assert loop_o1(counter_core(2000, 300), F(1012, 1013)).den == 1013**4600

    def test_bernoulli_lattice_cap_refuses_before_building(self):
        # one pass over 2^|E| masks per edge: 20 edges is the first size
        # above the cap, and 24 edges would take about a minute to build
        for n in (20, 24):
            g = Graph(n + 1, tuple((i, i + 1) for i in range(n)))
            with pytest.raises(CapExceededError) as info:
                union_bernoulli(point_mass(g, 0), F(1, 2))
            assert info.value.what == "Bernoulli union lattice"
            assert info.value.size == n << n > LATTICE_PASS_CAP


class TestCurrentParams:
    """The single current's Bernoulli parameter is a function of x alone,
    exact where 1 - x^2 is a rational square; ``pythagorean_x`` turns a t
    into such an x."""

    def test_pythagorean_half(self):
        assert pythagorean_x(F(1, 2)) == F(4, 5)
        assert single_current_p(F(4, 5)) == F(2, 5)
        loop = loop_o1(THETA232, F(4, 5))
        assert build("single_current", THETA232, F(4, 5)) == union_bernoulli(loop, F(2, 5))

    @settings(max_examples=200, deadline=None)
    @given(t=st.fractions(min_value=0, max_value=1).filter(lambda t: t < 1), x=st.fractions(0, 1))
    def test_p_identity(self, t, x):
        # sqrt(1-x^2) = (1-t^2)/(1+t^2) at x = 2t/(1+t^2), so p = 2t^2/(1+t^2)
        assert single_current_p(pythagorean_x(t)) == 2 * t * t / (1 + t * t)
        # at any x, an exact p is 1 - sqrt(1-x^2)
        try:
            p = single_current_p(x)
        except ParametrizationError:
            return
        assert (1 - p) ** 2 == 1 - x * x and 0 <= p < 1

    def test_generic_x_has_no_exact_p(self):
        for x in (F(1, 2), F(1, 3), F(3, 4)):
            with pytest.raises(ParametrizationError):
                single_current_p(x)
            with pytest.raises(ParametrizationError):
                build("single_current", THETA111, x)

    def test_parameters_outside_the_unit_interval_rejected(self):
        for t in (F(-1, 2), F(1), F(2)):
            with pytest.raises(ParametrizationError):
                pythagorean_x(t)
        for x in (F(-3, 5), F(1)):
            with pytest.raises(ParametrizationError):
                single_current_p(x)

    @pytest.mark.parametrize("x", [F(1), F(-1, 2)])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, x: loop_o1(g, x),
            lambda g, x: build("loop", g, x),
            lambda g, x: single_current_p(x),
            lambda g, x: polynomial_masses(g, ["loop"], lambda mask: 0, 1, [x]),
            lambda g, x: double_current_lis(g, x),
            lambda g, x: next(loop_chain(g, x, seed=0, samples=1)),
        ],
        ids=["loop_o1", "build", "single_current_p", "polynomial_masses",
             "double_current_lis", "loop_chain"],
    )
    def test_one_error_type_for_x_outside_the_unit_interval(self, call, x):
        with pytest.raises(ParametrizationError, match="outside \\[0,1\\)"):
            call(THETA232, x)


class TestNamedConstructors:
    def test_all_collapse_at_x_zero(self):
        g = THETA232
        zero = point_mass(g, 0)
        assert loop_o1(g, F(0)).same_law(zero)
        assert build("random_cluster", g, F(0)).same_law(zero)
        assert build("single_current", g, F(0)).same_law(zero)
        assert double_loop(g, F(0)).same_law(zero)
        assert double_current(g, F(0)).same_law(zero)
        assert build("double_cluster", g, F(0)).same_law(zero)

    def test_double_current_on_tree_is_bernoulli_x_squared(self):
        x = F(1, 2)
        assert double_current(TREE, x).same_law(bernoulli(TREE, x * x))

    def test_cluster_on_tree_is_bernoullietc(self):
        x = F(2, 5)
        assert build("random_cluster", TREE, x).same_law(bernoulli(TREE, x))

    def test_double_current_couplings_agree(self):
        for t in (F(1, 2), F(1, 3)):
            x = pythagorean_x(t)
            for g in (THETA111, THETA232, K4):
                sc = build("single_current", g, x)
                via_singles = union(sc, sc)
                via_double_loop = union_bernoulli(double_loop(g, x), x * x)
                assert via_singles.same_law(via_double_loop)
                assert via_singles.same_law(double_current(g, x))

    def test_double_cluster_couplings_agree(self):
        x = F(1, 3)
        for g in (THETA111, K4):
            rc = build("random_cluster", g, x)
            assert union(rc, rc).same_law(build("double_cluster", g, x))
            assert union_bernoulli(double_loop(g, x), x * (2 - x)).same_law(
                build("double_cluster", g, x)
            )


def _union_chain(name: str, g: Graph, x: Fraction) -> Dist:
    """Each model's union coupling, written out with the Moebius oracle."""

    def u(d1, d2):
        return dist_from_weights(g, brute_union(d1, d2))

    loop = loop_o1(g, x)
    chains = {
        "loop": lambda: loop,
        "single_current": lambda: u(loop, bernoulli(g, single_current_p(x))),
        "random_cluster": lambda: u(loop, bernoulli(g, x)),
        "double_loop": lambda: u(loop, loop),
        "double_current": lambda: u(u(loop, loop), bernoulli(g, x * x)),
        "double_cluster": lambda: u(u(loop, loop), bernoulli(g, x * (2 - x))),
    }
    assert set(chains) == set(MODELS)
    return chains[name]()


class TestRegistry:
    def test_build_matches_hand_written_union_chains(self):
        for t in (F(0), F(1, 4), F(1, 3), F(1, 2)):
            x = pythagorean_x(t)
            for g in (THETA232, K4, LOOPY):
                for name in MODELS:
                    assert build(name, g, x).same_law(_union_chain(name, g, x)), (name, t)

    def test_named_constructors_are_registry_rows(self):
        x = F(4, 5)
        for name, constructor in (("double_loop", double_loop), ("double_current", double_current)):
            assert constructor(K4, x).same_law(build(name, K4, x)), name

    def test_order_is_the_table_row_order(self):
        assert list(MODELS) == list(KNOWN_VERDICTS)

    def test_unknown_name_rejected(self):
        with pytest.raises(LoopCurrentsError):
            build("wolff", K4, F(1, 2))


class TestCountingCharacterization:
    def test_single_edge_hand_expansion(self):
        x = F(1, 3)
        d = double_current_lis(ONE_EDGE, x)
        assert probabilities(d) == {0: 1 - x * x, 1: x * x}

    def test_x_zero(self):
        assert double_current_lis(K4, F(0)).same_law(point_mass(K4, 0))

    def test_matches_union_construction(self):
        for g in SMALL:
            for x in (F(1, 3), F(1, 2)):
                assert double_current_lis(g, x).same_law(double_current(g, x))


class TestPushUniformEven:
    def test_point_mass_empty(self):
        assert push_uniform_even(point_mass(K4, 0)).same_law(point_mass(K4, 0))

    def test_triangle_splits_evenly(self):
        d = push_uniform_even(point_mass(TRIANGLE, 0b111))
        assert probabilities(d) == {0: F(1, 2), 0b111: F(1, 2)}

    def test_recovers_loop_model_from_double_current(self):
        d = push_uniform_even(double_current(THETA111, F(1, 2)))
        assert d.same_law(loop_o1(THETA111, F(1, 2)))

    def test_span_cap_refuses_before_iterating(self, monkeypatch):
        # 22 parallel edges: each support element leaves out one edge and has
        # cycle dimension 20, but one pass over the lattice costs 22 * 2^22
        g = Graph(2, ((0, 1),) * 22)
        d = dist_from_weights(g, {g.full_mask ^ (1 << i): F(1) for i in range(22)})
        monkeypatch.setattr(measures, "even_lattice", None)  # never reached
        with pytest.raises(CapExceededError) as info:
            push_uniform_even(d)
        assert info.value.what == "uniform-even push lattice"
        assert info.value.size == 22 << 22 > LATTICE_PASS_CAP


ORACLE_XS = (F(1, 4), F(1, 2), F(3, 4), F(1, 7))


class TestLatticeTransformsMatchPerMaskRoutes:
    """The subset-lattice transforms give the same ``Dist``, field by field,
    as the per-configuration routes in the oracles."""

    def test_counting_formula_on_the_battery(self):
        for name, g in verification_battery():
            for x in ORACLE_XS:
                assert double_current_lis(g, x) == double_current_lis_per_mask(g, x), (name, x)

    def test_uniform_even_push_on_the_battery(self):
        for name, g in verification_battery():
            for x in ORACLE_XS:
                d = double_current(g, x)
                assert push_uniform_even(d) == push_uniform_even_per_support(d), (name, x)

    def test_counting_formula_refuses_before_iterating(self, monkeypatch):
        g = Graph(21, tuple((i, i + 1) for i in range(20)))
        monkeypatch.setattr(measures, "even_lattice", None)  # never reached
        with pytest.raises(CapExceededError) as info:
            double_current_lis(g, F(1, 2))
        assert (info.value.what, info.value.size) == ("double-current lattice", 20 << 20)


class TestProb:
    def test_certain_event(self):
        d = loop_o1(THETA232, F(1, 2))
        assert prob(d, Event(THETA232, lambda m: True, label="all")) == 1

    def test_counter_connection_closed_form(self):
        n = m = 2
        x = F(1, 2)
        d = loop_o1(COUNTER22, x)
        z = 1 + x ** (2 * n) + x ** (2 * m) + 4 * x ** (n + m) + x ** (2 * n + 2 * m)
        assert prob(d, connect(COUNTER22)) == (x ** (2 * m) + x ** (2 * m + 2 * n)) / z

    def test_graph_mismatch(self):
        with pytest.raises(GraphMismatchError):
            prob(loop_o1(THETA111, F(1, 2)), edge_open(K4, 0))

    def test_truthy_custom_predicates_hold(self):
        # m & 2 is 2, not True, when edge 1 is open; its bit 0 is clear
        d = bernoulli(THETA111, F(1, 2))
        opened = Event(THETA111, lambda m: m & 2, label="edge 1 open")
        closed = Event(THETA111, lambda m: ~m & 2, label="edge 1 closed")
        assert prob(d, opened) == prob(d, edge_open(THETA111, 1)) == F(1, 2)
        assert prob(d, closed) == F(1, 2)
        assert check_increasing(opened) == (True, None)
        assert check_increasing(closed) == (False, (0, 2))


# statistic values: zero often, else up to eight bits, so some bits lie at or
# above the widths asked for
stat_values = st.one_of(st.just(0), st.integers(1, 255))


def events_on(g: Graph) -> list:
    """One event of each built-in kind on g, the vertex-set connection event
    and a non-increasing one: the last edge is open and lies on a cycle."""
    last = 1 << g.edge_count - 1
    cyclic_last = Event(g, lambda m: cyclic_edges(g, m) & last, label="edge-cyclic")
    out = [edge_open(g, 0), cyclic_last, all_open(g, [0])]
    out += [connect(g, 0, g.vertex_count - 1), connect_sets(g, [0], range(1, g.vertex_count))]
    return out


def increasing_events(g: Graph, chosen) -> list:
    """The up-set generated by ``chosen`` and the events of :func:`events_on`,
    every one increasing (checked on the covering pairs) and flagged so, as
    ``fkg_gaps`` requires."""
    up = Event(g, lambda m: any(m & c == c for c in chosen), label="up-set")
    out = [ev._replace(increasing=True) for ev in (up, *events_on(g))]
    assert all(check_increasing(ev) == (True, None) for ev in out)
    return out


class TestBitMasses:
    """bit_masses and its thin callers against the per-configuration
    ``Fraction`` oracle, on random laws with mixed denominators."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_bit_matches_the_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        d = data.draw(mixed_dists(g))
        width = data.draw(st.integers(0, 6))
        table = {m: data.draw(stat_values) for m in d.weights}
        ((counts, total),) = bit_masses([d.nums], table.__getitem__, width)
        assert len(counts) == width
        assert type(total) is int and total == sum(d.nums.values())
        for i, count in enumerate(counts):
            assert type(count) is int
            assert F(count, total) == prob_bruteforce(d, Event(g, lambda m, i=i: table[m] >> i & 1))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_family_evaluates_the_stat_once_per_configuration(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        dists = data.draw(st.lists(mixed_dists(g), min_size=1, max_size=4))
        width = data.draw(st.integers(0, 6))
        table = {m: data.draw(stat_values) for d in dists for m in d.weights}
        seen = []

        def stat(m):
            seen.append(m)
            return table[m]

        rows = bit_masses([d.nums for d in dists], stat, width)
        assert sorted(seen) == sorted(table)
        assert rows == [bit_masses([d.nums], table.__getitem__, width)[0] for d in dists]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_family_on_large_numerator_sums_matches_the_per_law_oracle(self, data):
        # a family's masses are its laws' one at a time, on numerator sums
        # 2^k - 1 and 2^k in one family; bit 0 holds everywhere
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        ks = data.draw(st.lists(st.integers(2, 160), max_size=3))
        dists = [data.draw(law_summing_to(g, (1 << k) - low)) for k in ks for low in (1, 0)]
        dists += data.draw(st.lists(mixed_dists(g), max_size=2))
        weights = [d.nums for d in data.draw(st.permutations(dists))]
        width = data.draw(st.integers(0, 8))
        table = {m: data.draw(st.integers(0, 1 << width + 3)) | 1 for w in weights for m in w}
        stat = table.__getitem__
        assert bit_masses(weights, stat, width) == bit_masses_per_law(weights, stat, width)
        for w in weights:
            assert bit_masses([w], stat, width) == bit_masses_per_law([w], stat, width)

    def test_an_empty_family_has_no_rows(self):
        assert bit_masses([], lambda m: 1, 3) == [] == bit_masses_per_law([], lambda m: 1, 3)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_prob_matches_the_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        d = data.draw(mixed_dists(g))
        chosen = data.draw(st.sets(st.integers(0, g.full_mask)))
        for ev in [Event(g, chosen.__contains__), Event(g, lambda m: False), *events_on(g)]:
            assert prob(d, ev) == prob_bruteforce(d, ev)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fkg_pair_gap_matches_the_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        d = data.draw(mixed_dists(g))
        chosen = data.draw(st.sets(st.integers(0, g.full_mask)))
        battery = increasing_events(g, chosen)
        for a in battery:
            for b in battery:
                both = Event(g, lambda m: a.holds(m) and b.holds(m))
                expected = prob_bruteforce(d, both) - prob_bruteforce(d, a) * prob_bruteforce(d, b)
                assert exact_rows(fkg_gaps([d], [(a, b)]))[0][0] == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fkg_gaps_over_a_family_match_the_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        dists = data.draw(st.lists(mixed_dists(g), min_size=1, max_size=3))
        chosen = data.draw(st.sets(st.integers(0, g.full_mask)))
        battery = increasing_events(g, chosen)
        pairs = data.draw(st.lists(st.tuples(*[st.sampled_from(battery)] * 2), max_size=6))
        expected = [
            [
                prob_bruteforce(d, Event(g, lambda m: a.holds(m) and b.holds(m)))
                - prob_bruteforce(d, a) * prob_bruteforce(d, b)
                for a, b in pairs
            ]
            for d in dists
        ]
        assert exact_rows(fkg_gaps(dists, pairs)) == expected

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_connection_masses_match_the_oracle(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        dists = data.draw(st.lists(mixed_dists(g), min_size=1, max_size=3))
        pairs = overview._subset_pairs(g) + overview._singleton_pairs(g)
        expected = [[prob_bruteforce(d, connect_sets(g, a, b)) for d in dists] for a, b in pairs]
        stat = overview._connection_stat(g, pairs)
        rows = bit_masses([d.nums for d in dists], stat, len(pairs))
        assert [list(row) for row in zip(*exact_rows(rows))] == expected

    def test_graph_mismatch_is_refused_as_by_the_oracle(self):
        d = loop_o1(THETA111, F(1, 2))
        for fn in (prob, prob_bruteforce):
            with pytest.raises(GraphMismatchError):
                fn(d, Event(K4, lambda m: True))


class TestDistInvariants:
    def test_probabilities_sum_to_one_for_every_constructor(self):
        x = F(3, 5)
        for g in SMALL:
            dists = [
                bernoulli(g, F(2, 7)),
                loop_o1(g, x),
                build("random_cluster", g, x),
                build("single_current", g, x),
                double_loop(g, x),
                double_current(g, x),
                build("double_cluster", g, x),
                double_current_lis(g, x),
                push_uniform_even(double_current(g, x)),
            ]
            for d in dists:
                assert sum(probabilities(d).values()) == 1

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_constructors_store_positive_integer_numerators(self, data):
        g = data.draw(st.sampled_from(ORACLE_GRAPHS))
        d1 = data.draw(mixed_dists(g))
        d2 = data.draw(mixed_dists(g))
        p = data.draw(coprime_p)
        den = data.draw(st.integers(2, 12))
        x = pythagorean_x(F(data.draw(st.integers(1, den - 1)), den))
        laws = [
            d1,
            bernoulli(g, p),
            loop_o1(g, x),
            union(d1, d2),
            union_bernoulli(d1, p),
            push_uniform_even(d1),
            *(build(name, g, x) for name in MODELS),
        ]
        scale = data.draw(st.integers(2, 10**6))
        for d in laws:
            assert all(type(w) is int and w > 0 for w in d.nums.values())
            scaled = {m: scale * w for m, w in d.nums.items()}
            assert Dist.from_integers(g, scaled, scale * d.den, d.z) == d

    def test_weight_sum_checked_against_z(self):
        with pytest.raises(LoopCurrentsError):
            dist_from_weights(THETA111, {0: F(1, 2)}, F(1))

    def test_raw_constructor_checks_invariants(self):
        # the constructor itself checks, and from_integers goes through it
        with pytest.raises(LoopCurrentsError):
            Dist(THETA111, {0: -1}, 1, F(1))
        with pytest.raises(LoopCurrentsError):
            Dist(THETA111, {0: 1}, 1, F(2))
        law = Dist(THETA111, {0: 1, 3: 2}, 1, F(3))
        assert law == Dist.from_integers(THETA111, {0: 2, 3: 4}, 2)
        assert law == Dist(THETA111, {0: 2, 3: 4}, 2, F(3))
        # a copy with new fields is checked as well
        with pytest.raises(LoopCurrentsError):
            Dist(law.graph, {0: 2, 3: 4}, law.den, law.z)
        # and the fields of a checked law cannot be set afterwards
        with pytest.raises(AttributeError, match="cannot assign to field 'den'"):
            law.den = 2
        with pytest.raises(TypeError, match="unhashable"):
            hash(law)

    def test_negative_weight_rejected(self):
        with pytest.raises(LoopCurrentsError):
            dist_from_weights(THETA111, {0: F(-1)})

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(LoopCurrentsError):
            dist_from_weights(THETA111, {1 << 5: F(1)})

    def test_json_roundtrip(self):
        d = build("random_cluster", THETA111, F(1, 3))
        back = dist_from_json(THETA111, dist_to_json(d))
        assert back == d

    @pytest.mark.parametrize(
        "nums, den, z, message",
        [
            ({0: 1}, 0, F(1), "denominator 0 must be positive"),
            ({0: 1, 1 << 3: 1}, 1, F(2), "mask 0x8 has bits outside"),
            ({-1: 1}, 1, F(1), "mask -0x1 has bits outside"),
            ({0: 2, 1: -1}, 1, F(1), "non-positive weight -1 at 0x1"),
            ({0: 1, 1: 0}, 1, F(1), "non-positive weight 0 at 0x1"),
            ({0: 1}, 1, F(0), "normalizer Z=0 must be positive"),
            ({0: 1, 1: 2}, 1, F(2), "weights sum to 3, expected Z=2"),
        ],
    )
    def test_each_refusal_of_a_direct_law(self, nums, den, z, message):
        with pytest.raises(LoopCurrentsError, match=message):
            Dist(THETA111, nums, den, z)

    @pytest.mark.parametrize(
        "nums, den, z, message",
        [
            ({0: 1}, 0, None, "denominator 0 must be positive"),
            ({0: 1, 1 << 3: 1}, 1, None, "mask 0x8 has bits outside"),
            ({0: 3, 1: -1}, 1, None, "non-positive weight -1 at 0x1"),
            ({0: 1}, 1, F(2), "weights sum to 1, expected Z=2"),
            ({0: 2, 1: 4}, 2, F(2), "weights sum to 3, expected Z=2"),
        ],
    )
    def test_each_refusal_of_integer_weights(self, nums, den, z, message):
        with pytest.raises(LoopCurrentsError, match=message):
            Dist.from_integers(THETA111, nums, den, z)

    def test_integer_weights_are_kept_as_given(self):
        law = Dist.from_integers(THETA111, {0: 6, 3: 4, 5: 0}, 10)
        assert (law.nums, law.den, law.z) == ({0: 6, 3: 4}, 10, F(1))

    def test_kernels_store_numerators_as_built(self):
        # x = 1/2 on theta[1,1,1]: weights 2^(3-|g|) over 2^3, not halved
        law = loop_o1(THETA111, F(1, 2))
        assert law.den == 8 and sorted(law.nums.values()) == [2, 2, 2, 8]

    def test_equality_is_equality_of_laws_and_normalizers(self):
        law = build("random_cluster", THETA111, F(1, 3))
        doubled = {m: 2 * w for m, w in law.nums.items()}
        assert Dist.from_integers(THETA111, doubled, 2 * law.den, law.z) == law
        # the same numerators over another denominator: the same
        # probabilities, another Z
        halved = Dist.from_integers(THETA111, law.nums, 2 * law.den)
        assert halved.same_law(law) and halved.z == law.z / 2 and halved != law
        assert law != build("random_cluster", THETA232, F(1, 3))
        assert law != law.nums

    def test_a_law_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(loop_o1(THETA111, F(1, 2)))


@st.composite
def loopless_multigraphs(draw) -> Graph:
    n = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, tuple(draw(st.lists(pairs, min_size=1, max_size=8))))


# The rows whose p(x) is a polynomial in x: every row but the single current.
POLYNOMIAL_ROWS = [name for name in MODELS if name != "single_current"]
open_unit = st.fractions(0, 1, max_denominator=1000).filter(lambda x: 0 < x < 1)


def path(edges: int) -> Graph:
    return Graph(edges + 1, tuple((i, i + 1) for i in range(edges)))


class TestPolynomialMasses:
    """The rows as polynomials in x against their laws built point by point."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_masses_match_the_point_laws(self, data):
        cores = st.sampled_from([counter_core(18, 2), theta_core(2, 3, 2)])
        g = data.draw(st.one_of(loopless_multigraphs(), cores))
        xs = data.draw(st.lists(open_unit, min_size=1, max_size=3))
        width = data.draw(st.integers(0, 6))
        size = 1 << g.edge_count
        values = data.draw(st.lists(stat_values, min_size=size, max_size=size))
        masses = measures.polynomial_masses(g, POLYNOMIAL_ROWS, values.__getitem__, width, xs)
        assert list(masses) == POLYNOMIAL_ROWS
        for name, rows in masses.items():
            laws = [build(name, g, x).nums for x in xs]
            assert exact_rows(rows) == exact_rows(bit_masses(laws, values.__getitem__, width))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_repeated_bit_columns_and_rows_of_one_degree(self, data):
        # as on the table's symmetric graphs, many bits copy one column, and
        # column 3 always holds, so a bit copying it counts the total; the
        # double current and double cluster share a degree, and so do the
        # random cluster and the double loop, in any row order
        g = data.draw(st.one_of(loopless_multigraphs(), st.just(counter_core(18, 2))))
        xs = data.draw(st.lists(open_unit, min_size=1, max_size=3))
        size = 1 << g.edge_count
        base = data.draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
        columns = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
        names = data.draw(
            st.permutations(["double_current", "double_cluster", "random_cluster", "double_loop"])
        )

        def stat(m):
            value = base[m] | 8
            return sum(1 << i for i, c in enumerate(columns) if value >> c & 1)

        masses = measures.polynomial_masses(g, names, stat, len(columns), xs)
        assert list(masses) == names
        for name, rows in masses.items():
            laws = [build(name, g, x).nums for x in xs]
            assert exact_rows(rows) == exact_rows(bit_masses(laws, stat, len(columns)))

    def test_the_stat_runs_once_per_configuration_of_any_support(self):
        # the loop law's support is the even subgraphs; the Bernoulli rows
        # open every configuration
        seen = []

        def stat(m):
            seen.append(m)
            return m

        measures.polynomial_masses(K4, ["loop", "double_loop"], stat, 6, [F(1, 3)])
        assert sorted(seen) == sorted(build("double_loop", K4, F(1, 3)).nums)
        seen.clear()
        measures.polynomial_masses(K4, POLYNOMIAL_ROWS, stat, 6, [F(1, 3)])
        assert sorted(seen) == list(range(1 << K4.edge_count))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_signed_digits_round_trip(self, data):
        digits = data.draw(st.integers(2, 80))
        half = 1 << digits - 1
        coeffs = data.draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=12))
        packed = sum(c << digits * j for j, c in enumerate(coeffs))
        assert measures._signed_digits(packed, digits, len(coeffs)) == coeffs
        if coeffs[-1]:
            with pytest.raises(LoopCurrentsError, match="more than"):
                measures._signed_digits(packed, digits, len(coeffs) - 1)

    def test_the_digit_width_bound_holds_at_the_largest_accepted_lattice(self):
        # the random cluster on a 17-edge path is the largest lattice the cap
        # admits.  Its bound 3^17 is attained: the total coefficient sum of
        # the mask weights x^k (1 - x)^(17 - k).  Counting the masks with an
        # even or an odd number of open edges sums coefficients of one sign,
        # up to C(17, 12) 2^11 = 12,673,024 in size; the decoded masses are
        # exact
        g, stat = path(17), lambda m: 1 << m.bit_count() % 2 | 4
        xs = [F(3, 7), F(5, 9)]
        masses = measures.polynomial_masses(g, ["random_cluster"], stat, 3, xs)["random_cluster"]
        laws = [build("random_cluster", g, x).nums for x in xs]
        assert exact_rows(masses) == exact_rows(bit_masses(laws, stat, 3))
        with pytest.raises(CapExceededError) as info:
            measures.polynomial_masses(path(18), ["random_cluster"], stat, 3, xs)
        cap = measures.PACKED_LATTICE_BITS_CAP
        assert (1 << 17) * ((3**17).bit_length() + 1) * (2 * 17 + 1) <= cap
        assert info.value.size == (1 << 18) * ((3**18).bit_length() + 1) * (2 * 18 + 1) > cap

    def test_the_cap_refuses_before_any_pass(self, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass ran before the cap was checked")

        for name in ("_union_nums", "_open_edges"):
            monkeypatch.setattr(measures, name, no_pass)
        # on K4 (dim 3) the double cluster packs 64 weights of S = 24 digits
        # (2^6 7^6 has 23 bits) and degree 24; the random cluster before it
        # fits, and no pass of its runs either
        size = 64 * 24 * 25
        monkeypatch.setattr(measures, "PACKED_LATTICE_BITS_CAP", size - 1)
        with pytest.raises(CapExceededError) as info:
            rows = ["random_cluster", "double_cluster"]
            measures.polynomial_masses(K4, rows, no_pass, 1, [F(1, 2)])
        assert info.value.size == size

    def test_the_cap_admits_a_call_at_exactly_its_bits(self, monkeypatch):
        # the same call as above, at a cap of exactly its 64 * 24 * 25 bits
        rows, stat = ["random_cluster", "double_cluster"], lambda m: m & 1
        monkeypatch.setattr(measures, "PACKED_LATTICE_BITS_CAP", 64 * 24 * 25)
        masses = measures.polynomial_masses(K4, rows, stat, 1, [F(1, 2)])
        for name in rows:
            law = build(name, K4, F(1, 2)).nums
            assert exact_rows(masses[name]) == exact_rows(bit_masses([law], stat, 1))

    def test_rows_of_one_call_share_one_packing_point(self, monkeypatch):
        # the double current and the double cluster are read at the call's
        # one point, so the double loop's union is built once for both
        unions = []
        real = measures._union_nums

        def counting_union(*args):
            unions.append(args)
            return real(*args)

        monkeypatch.setattr(measures, "_union_nums", counting_union)
        rows = ["double_current", "double_cluster"]
        measures.polynomial_masses(K4, rows, lambda m: 1, 1, [F(1, 3), F(1, 2)])
        assert len(unions) == 1
        assert measures.polynomial_masses(K4, [], lambda m: 1, 1, [F(1, 2)]) == {}

    @pytest.mark.parametrize(
        "name, xs, error, message",
        [
            ("single_current", [F(4, 5)], LoopCurrentsError, "not a polynomial"),
            ("double_sum", [F(1, 2)], LoopCurrentsError, "unknown model"),
            ("loop", [F(1, 2), F(1)], ParametrizationError, "x=1 outside"),
        ],
    )
    def test_refusals(self, monkeypatch, name, xs, error, message):
        monkeypatch.setattr(measures, "_open_edges", None)  # refused before any pass
        with pytest.raises(error, match=message):
            measures.polynomial_masses(K4, [name], lambda m: 1, 1, xs)

    def test_a_p_that_is_not_an_integer_polynomial_is_refused(self, monkeypatch):
        monkeypatch.setitem(MODELS, "random_cluster", (1, lambda x: x / 2))
        with pytest.raises(LoopCurrentsError, match="not an integer polynomial"):
            measures.polynomial_masses(K4, ["random_cluster"], lambda m: 1, 1, [F(1, 2)])
        monkeypatch.setitem(MODELS, "random_cluster", (1, lambda x: 2 * x))
        with pytest.raises(LoopCurrentsError, match="outside"):
            measures.polynomial_masses(K4, ["random_cluster"], lambda m: 1, 1, [F(3, 4)])

    @pytest.mark.parametrize("g", [K4, counter_core(4, 2), theta_core(2, 3, 2)])
    @pytest.mark.parametrize("x", [F(1, 3), F(2, 5), F(3, 4)])
    def test_a_rows_table_at_x_holds_builds_numerators(self, g, x):
        # both builders run the same kernels, so at x = a/b in lowest terms
        # a row's table holds build's numerators, not only the same law
        _, at = measures.polynomial_laws(g, POLYNOMIAL_ROWS, [x])
        row = at(x.numerator, x.denominator)
        for name in POLYNOMIAL_ROWS:
            nums = build(name, g, x).nums
            assert row(name) == [nums.get(m, 0) for m in range(1 << g.edge_count)]

    def test_a_p_is_read_through_the_registry(self, monkeypatch):
        # p = 2x^2 has leading coefficient 2: at x = 1/2 it opens an edge
        # with 1/2, as build's, not with its coefficients homogenized, 2/4
        monkeypatch.setitem(MODELS, "random_cluster", (1, lambda x: 2 * x * x))
        _, at = measures.polynomial_laws(K4, ["random_cluster"], [F(1, 2)])
        nums = build("random_cluster", K4, F(1, 2)).nums
        assert at(1, 2)("random_cluster") == [nums.get(m, 0) for m in range(64)]
