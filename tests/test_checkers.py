import hashlib
import json
import random
import time
from fractions import Fraction
from functools import partial
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents import checkers, overview
from loopcurrents.battery import scan_battery
from loopcurrents.checkers import (
    COVERING_NETWORK_CAP,
    DominationReport,
    fkg_gaps,
    monotonicity_scan,
    stochastic_domination,
)
from loopcurrents.errors import CapExceededError, GraphMismatchError, LoopCurrentsError
from loopcurrents.events import Event, all_open, connect, edge_open
from loopcurrents.graphs import (
    LATTICE_PASS_CAP,
    Graph,
    complete_graph,
    counter_family,
    generalized_theta,
)
from loopcurrents.measures import (
    Dist,
    bernoulli,
    build,
    double_current,
    double_loop,
    loop_o1,
    point_mass,
    pythagorean_x,
    union,
    union_bernoulli,
)
from loopcurrents.rationals import dyadic_grid, parse_rational
from loopcurrents.theta import (
    double_loop_fkg_gap,
    loop_conn,
    loop_fkg_gap,
    single_current_fkg_gap,
    theta_loop_events,
)

from oracles import (
    EdmondsKarp,
    dist_from_weights,
    domination_bipartite,
    domination_bruteforce,
    exact_rows,
    fkg_report,
    holley_local_bruteforce,
    lattice_condition,
    probabilities,
    upset_contains,
)

F = Fraction
THETA111 = generalized_theta([1, 1, 1])
# sha256 of the sorted-key JSON of the up-set witness of the twelve-coordinate
# failing pair, the same under the Dinic flow and the Edmonds-Karp oracle
TWELVE_COORDINATE_WITNESS = "c9e3639d6453e47ec35976dc3b2ed8ee9b661c1a67ba190223e9209e409ee268"
K4 = complete_graph(4)


class TestFkgPairGap:
    def test_requires_increasing_events(self):
        d = bernoulli(THETA111, F(1, 2))
        shifty = Event(THETA111, lambda m: m.bit_count() == 1, label="eq1")
        with pytest.raises(LoopCurrentsError, match="flagged increasing"):
            fkg_gaps([d], [(shifty, edge_open(THETA111, 0))])

    def test_harris_regression_on_product_measures(self):
        for g in (THETA111, K4, counter_family(2, 2)):
            events = [edge_open(g, 0), all_open(g, [0, 1])]
            events.append(connect(g) if g.marks else connect(g, 0, 1))
            events.append(all_open(g, [g.edge_count - 1]))
            for p in (F(1, 5), F(1, 2), F(7, 9)):
                d = bernoulli(g, p)
                for i, a in enumerate(events):
                    for b in events[i:]:
                        assert exact_rows(fkg_gaps([d], [(a, b)]))[0][0] >= 0

    def test_loop_model_counterexample_matches_closed_form(self):
        g, first, second = theta_loop_events(2, 2)
        x = F(1, 10)
        gap = exact_rows(fkg_gaps([loop_o1(g, x)], [(first, second)]))[0][0]
        assert gap == loop_fkg_gap(2, 2, x)
        assert gap < 0

    def test_single_current_gap_signs(self):
        g, first, second = theta_loop_events(2, 2)
        # negative at small t, positive at t = 1/2 (x = 4/5)
        for t, expected_negative in ((F(1, 10), True), (F(1, 4), True), (F(1, 2), False)):
            law = build("single_current", g, pythagorean_x(t))
            gap = exact_rows(fkg_gaps([law], [(first, second)]))[0][0]
            assert gap == single_current_fkg_gap(2, 2, t)
            assert (gap < 0) == expected_negative
        assert single_current_fkg_gap(2, 2, F(1, 2)) == F(631104, 24750625)

    def test_single_current_gap_against_sympy_conditioning(self):
        sympy = pytest.importorskip("sympy")
        # Condition on the four even subgraphs of theta(n, m, n): empty, or
        # the cycle through two of the three segments.  Given that loop
        # configuration, every other edge opens independently with
        # p = 1 - sqrt(1 - x^2).
        x = sympy.Rational(4, 5)
        p = 1 - sympy.sqrt(1 - x**2)
        configs = ((), (0, 1), (1, 2), (0, 2))

        def gap(n, m):
            lengths = (n, m, n)

            def prob(segments):
                # P(every edge of the given segments is open)
                total = 0
                for config in configs:
                    closed = sum(lengths[s] for s in segments if s not in config)
                    total += x ** sum(lengths[s] for s in config) * p**closed
                return total

            z = sum(x ** sum(lengths[s] for s in config) for config in configs)
            return prob((0, 1, 2)) / z - (prob((0, 1)) / z) * (prob((1, 2)) / z)

        t = F(1, 2)  # x = 2t/(1+t^2) = 4/5
        cases = ((2, 2, F(631104, 24750625)), (4, 2, F(-1679084544, 222892573225)))
        for n, m, expected in cases:
            closed_form = single_current_fkg_gap(n, m, t)
            assert closed_form == expected
            assert gap(n, m) == sympy.Rational(closed_form.numerator, closed_form.denominator)
        assert gap(2, 2) > 0 > gap(4, 2)

    def test_double_loop_gap_negative_needs_unequal_lengths(self):
        assert double_loop_fkg_gap(3, 2, F(1, 10)) < 0
        assert double_loop_fkg_gap(2, 2, F(1, 10)) > 0


class TestGraphMismatch:
    """Every FKG gap refuses events of another graph, as ``prob`` does."""

    def test_pair_gap_and_report_refuse_events_of_another_graph(self):
        d = bernoulli(THETA111, F(1, 2))
        foreign = (edge_open(K4, 5), connect(K4, 0, 3))
        with pytest.raises(GraphMismatchError):
            fkg_gaps([d], [foreign])
        with pytest.raises(GraphMismatchError):
            fkg_gaps([d], [(edge_open(THETA111, 0), foreign[1])])

    def test_gaps_refuse_laws_of_different_graphs(self):
        pair = (edge_open(THETA111, 0), edge_open(THETA111, 1))
        laws = [bernoulli(THETA111, F(1, 2)), bernoulli(generalized_theta([1, 1, 2]), F(1, 2))]
        with pytest.raises(GraphMismatchError):
            fkg_gaps(laws, [pair])

    def test_laws_on_different_vertex_counts_are_refused_by_every_route(self):
        # the same single edge, on 2 and on 3 vertices: one "same graph" test
        # (edges and vertex count) for the union, the Holley route and the flow
        a = bernoulli(Graph(2, ((0, 1),)), F(1, 3))
        b = bernoulli(Graph(3, ((0, 1),)), F(1, 2))
        for route in (union, holley_pair, stochastic_domination):
            with pytest.raises(GraphMismatchError):
                route(a, b)
        with pytest.raises(GraphMismatchError):
            fkg_gaps([a, b], [(edge_open(a.graph, 0), edge_open(a.graph, 0))])
        assert not bernoulli(a.graph, F(1, 2)).same_law(b)


class TestFkgReport:
    def test_bundles_gaps_and_lattice(self):
        g, first, second = theta_loop_events(2, 2)
        d = loop_o1(g, F(1, 10))
        report = fkg_report(d, [(first, second)], check_lattice=True)
        assert len(report.pair_gaps) == 1
        _, _, gap = report.pair_gaps[0]
        assert gap == loop_fkg_gap(2, 2, F(1, 10))
        assert report.lattice_holds is False
        payload = report.to_json_dict()
        assert payload["pair_gaps"][0][2].count("/") == 1
        assert "lattice_violation" in payload


class TestLatticeCondition:
    def test_product_measure_passes(self):
        assert lattice_condition(bernoulli(K4, F(1, 3))).lattice_holds

    def test_loop_model_fails_on_theta(self):
        report = lattice_condition(loop_o1(THETA111, F(1, 2)))
        assert report.lattice_holds is False
        v = report.lattice_violation
        assert (v.first, v.second) == (0b011, 0b101)
        assert v.join_weight == 0 and v.meet_weight == 0

    def test_double_current_fails_on_theta222(self):
        g = generalized_theta([2, 2, 2])
        report = lattice_condition(double_current(g, F(1, 2)))
        assert report.lattice_holds is False
        v = report.lattice_violation
        weights = double_current(g, F(1, 2)).weights
        join = weights.get(v.first | v.second, 0)
        meet = weights.get(v.first & v.second, 0)
        assert join * meet < weights[v.first] * weights[v.second]


def random_dist(g: Graph, rng: random.Random, max_support: int) -> Dist:
    size = rng.randint(1, max_support)
    masks = rng.sample(range(1 << g.edge_count), size)
    weights = {m: F(rng.randint(1, 12), rng.randint(1, 12)) for m in masks}
    return dist_from_weights(g, weights)


unit_fractions = st.builds(
    lambda a, b: F(min(a, b), max(a, b) + 1), st.integers(1, 15), st.integers(1, 15)
)


@st.composite
def sparse_dists(draw, g: Graph, max_support: int = 10) -> Dist:
    masks = draw(
        st.lists(st.integers(0, g.full_mask), min_size=1, max_size=max_support, unique=True)
    )
    weights = {m: F(draw(st.integers(1, 12)), draw(st.integers(1, 12))) for m in masks}
    return dist_from_weights(g, weights)


def series_parallel_graph(lengths: list[int], doubled: int | None) -> Graph:
    """Theta graph with paths of the given lengths (series edges), plus a
    parallel copy of edge ``doubled`` if given."""
    g = generalized_theta(lengths)
    if doubled is None:
        return g
    return Graph(g.vertex_count, g.edges + (g.edges[doubled % g.edge_count],))


def domination_against_oracles(lo: Dist, hi: Dist) -> None:
    """The covering-network report, checked against the brute-force verdict,
    the bipartite network's witness and the coupling's marginals."""
    report = stochastic_domination(lo, hi)
    assert report.dominates == domination_bruteforce(lo, hi).dominates
    bipartite = domination_bipartite(lo, hi)
    assert report.dominates == bipartite.dominates
    if not report.dominates:
        w, o = report.witness, bipartite.witness
        assert (w.minimal_elements, w.mass_lo, w.mass_hi) == (
            o.minimal_elements,
            o.mass_lo,
            o.mass_hi,
        )
        assert w.gap > 0
        return
    assert_coupling(report, lo, hi)


def assert_coupling(report: DominationReport, lo: Dist, hi: Dist) -> None:
    """The report's coupling sits on comparable pairs, with the two laws as
    its exact marginals."""
    lo_marg: dict[int, Fraction] = {}
    hi_marg: dict[int, Fraction] = {}
    for a, b, w in report.coupling:
        assert a & ~b == 0 and w > 0  # comparable pairs only
        lo_marg[a] = lo_marg.get(a, F(0)) + w
        hi_marg[b] = hi_marg.get(b, F(0)) + w
    assert lo_marg == probabilities(lo)
    assert hi_marg == probabilities(hi)


def flow_against_oracle(lo: Dist, hi: Dist, monkeypatch) -> DominationReport:
    """The covering network's report with the library's flow, checked
    against the same network run by the Edmonds-Karp oracle: the same flow
    value, the same minimal min cut and the same witness, and on a
    dominating pair a coupling with exact marginals."""
    nets = []

    def recorded(flow_class):
        def build_network(head, to, cap):
            nets.append(flow_class(head, to, cap))
            return nets[-1]

        return build_network

    with monkeypatch.context() as patch:
        patch.setattr(checkers, "_Dinic", recorded(checkers._Dinic))
        report = stochastic_domination(lo, hi)
        patch.setattr(checkers, "_Dinic", recorded(EdmondsKarp))
        oracle = checkers._CoveringFlow(lo, hi)
    library_net, oracle_net = nets
    # the sink's arcs are the reverses of the arcs into it, so their
    # residual capacities sum to the flow value
    assert sum(library_net.cap[idx] for idx in library_net.head[1]) == sum(
        oracle_net.cap[idx] for idx in oracle_net.head[1]
    )
    assert library_net.min_cut_side(0) == oracle_net.min_cut_side(0)
    assert report.witness == oracle.witness
    if report.dominates:
        assert_coupling(report, lo, hi)
    return report


def tilted_pair(rng: random.Random) -> tuple[Dist, Dist]:
    """A random law on a random multigraph of at most 6 edges, and the law
    that tilts it by tilt^|m| with up to two masks given fresh weights: about
    three pairs in five dominate."""
    n = rng.randint(2, 5)
    g = Graph(n, tuple(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 6))))
    size = 1 << g.edge_count
    lo = {m: rng.randint(1, 9) for m in rng.sample(range(size), rng.randint(1, size))}
    tilt = rng.randint(1, 3)
    hi = {m: w * tilt ** m.bit_count() for m, w in lo.items()}
    for m in rng.sample(range(size), rng.randint(0, 2)):
        hi[m] = rng.randint(1, 9)
    return Dist.from_integers(g, lo, 1), Dist.from_integers(g, hi, 1)


class TestStochasticDomination:
    def test_bernoulli_pair_dominates_with_coupling(self):
        lo, hi = bernoulli(THETA111, F(1, 4)), bernoulli(THETA111, F(1, 2))
        report = stochastic_domination(lo, hi)
        assert report.dominates
        total = sum((w for _, _, w in report.coupling), F(0))
        assert total == 1
        lo_marg, hi_marg = {}, {}
        for a, b, w in report.coupling:
            assert a & ~b == 0  # supported on comparable pairs only
            lo_marg[a] = lo_marg.get(a, F(0)) + w
            hi_marg[b] = hi_marg.get(b, F(0)) + w
        assert lo_marg == probabilities(lo)
        assert hi_marg == {m: p for m, p in probabilities(hi).items() if p}

    def test_reversed_pair_fails_with_witness(self):
        report = stochastic_domination(
            bernoulli(THETA111, F(1, 2)), bernoulli(THETA111, F(1, 4))
        )
        assert not report.dominates
        assert report.witness.gap > 0

    def test_point_mass_failure_witness(self):
        g = THETA111
        report = stochastic_domination(point_mass(g, g.full_mask), point_mass(g, 0))
        assert not report.dominates
        assert report.witness.minimal_elements == (g.full_mask,)
        assert report.witness.gap == 1

    def test_loop_family_counterexample_has_upset_witness(self):
        n, m = 8, 2
        g = counter_family(n, m)
        pair = None
        from loopcurrents.rationals import find_decreasing_pair

        pair = find_decreasing_pair(loop_conn(n, m), dyadic_grid(8))
        assert pair is not None
        x1, x2, _, _ = pair
        report = stochastic_domination(loop_o1(g, x1), loop_o1(g, x2))
        assert not report.dominates
        w = report.witness
        # the witness is a genuine up-set violation, rechecked from scratch
        lo, hi = loop_o1(g, x1), loop_o1(g, x2)
        mass_lo = sum((p for m, p in probabilities(lo).items() if upset_contains(w, m)), F(0))
        mass_hi = sum((p for m, p in probabilities(hi).items() if upset_contains(w, m)), F(0))
        assert mass_lo - mass_hi == w.gap > 0

    def test_report_invariant(self):
        with pytest.raises(LoopCurrentsError):
            DominationReport(True)
        with pytest.raises(LoopCurrentsError):
            DominationReport(False)
        report = DominationReport(True, coupling=())
        with pytest.raises(AttributeError, match="cannot assign to field 'witness'"):
            report.witness = None

    def test_graph_mismatch_rejected(self):
        from loopcurrents.errors import GraphMismatchError

        with pytest.raises(GraphMismatchError):
            stochastic_domination(bernoulli(THETA111, F(1, 2)), bernoulli(K4, F(1, 2)))

    def test_flow_agrees_with_bruteforce_on_random_pairs(self):
        rng = random.Random(99)
        g = complete_graph(4)
        agreements = 0
        for _ in range(60):
            lo = random_dist(g, rng, 10)
            hi = random_dist(g, rng, 10)
            flow_report = stochastic_domination(lo, hi)
            brute_report = domination_bruteforce(lo, hi)
            assert flow_report.dominates == brute_report.dominates
            agreements += 1
        assert agreements == 60

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_supports_on_k4(self, data):
        lo = data.draw(sparse_dists(K4))
        hi = data.draw(st.one_of(sparse_dists(K4), st.just(None)))
        if hi is None:  # a union dominates its input
            hi = union(lo, data.draw(sparse_dists(K4, 3)))
        domination_against_oracles(lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(
        g=st.sampled_from(
            [THETA111, Graph(3, ((0, 1), (1, 2), (2, 0))), Graph(4, ((0, 1), (1, 2), (2, 3)))]
        ),
        families=st.lists(
            st.sampled_from([bernoulli, partial(build, "random_cluster")]), min_size=2, max_size=2
        ),
        params=st.lists(unit_fractions, min_size=2, max_size=2),
    )
    def test_full_support_laws(self, g, families, params):
        lo, hi = (fam(g, x) for fam, x in zip(families, params))
        assert len(checkers._lattice_coordinates(g.full_mask, [*lo.weights, *hi.weights])) == 3
        domination_against_oracles(lo, hi)

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 4), min_size=2, max_size=3),
        doubled=st.one_of(st.none(), st.integers(0, 11)),
        families=st.lists(st.sampled_from([loop_o1, double_loop]), min_size=2, max_size=2),
        params=st.lists(unit_fractions, min_size=2, max_size=2),
    )
    def test_loop_laws_collapse_series_edges(self, lengths, doubled, families, params):
        g = series_parallel_graph(lengths, doubled)
        lo, hi = (fam(g, x) for fam, x in zip(families, params))
        # one coordinate per path; a parallel copy splits its path into
        # the copied edge, the copy and the rest of the path
        coordinates = checkers._lattice_coordinates(g.full_mask, [*lo.weights, *hi.weights])
        assert len(coordinates) <= len(lengths) + 2 * (doubled is not None)
        domination_against_oracles(lo, hi)

    def test_lattice_coordinates_are_the_classes_some_mask_separates(self):
        # edge 0 is in every mask and edge 3 in none; edges 1 and 2 always
        # go together, edge 4 apart from them
        masks = [0b10111, 0b00001, 0b10001]
        assert sorted(checkers._lattice_coordinates(0b11111, masks)) == [0b00110, 0b10000]

    def test_lattice_cap_refuses_before_building_a_network(self, monkeypatch):
        # 30 edges; the singletons among the masks separate every edge
        g = generalized_theta([10, 10, 10])
        rng = random.Random(30)

        def sparse_law():
            masks = {1 << i for i in range(g.edge_count)}
            masks |= {rng.getrandbits(g.edge_count) for _ in range(10)}
            return dist_from_weights(g, {m: F(rng.randint(1, 9), rng.randint(1, 9)) for m in masks})

        def no_network(head, to, cap):
            raise AssertionError(f"flow network of {len(head)} nodes built")

        def no_skeleton(k):
            raise AssertionError(f"covering arcs of dimension {k} built")

        monkeypatch.setattr(checkers, "_Dinic", no_network)
        monkeypatch.setattr(checkers, "_covering_arcs", no_skeleton)
        with pytest.raises(CapExceededError) as info:
            stochastic_domination(sparse_law(), sparse_law())
        assert info.value.what == "domination lattice"
        assert info.value.size == 30 << 30

    def test_twenty_coordinates_are_refused_before_the_arcs_are_built(self, monkeypatch):
        # point masses on 20 single edges: every edge is its own lattice
        # coordinate, and 20 * 2^20 > 2^24 covering-pass operations
        g = Graph(21, tuple((i, i + 1) for i in range(20)))

        def no_skeleton(k):
            raise AssertionError(f"covering arcs of dimension {k} built")

        monkeypatch.setattr(checkers, "_covering_arcs", no_skeleton)
        lo = dist_from_weights(g, {1 << i: F(1) for i in range(0, 20, 2)})
        hi = dist_from_weights(g, {1 << i: F(1) for i in range(1, 20, 2)})
        assert len(checkers._lattice_coordinates(g.full_mask, [*lo.nums, *hi.nums])) == 20
        for route in (stochastic_domination, lambda lo, hi: monotonicity_scan([lo, hi])):
            with pytest.raises(CapExceededError) as info:
                route(lo, hi)
            assert info.value.what == "domination lattice"
            assert info.value.size == 20 << 20 > LATTICE_PASS_CAP

    def test_eighteen_coordinates_are_refused_by_the_memory_cap(self, monkeypatch):
        # 18 * 2^18 is inside the lattice pass cap, but the network's arc
        # lists would take about 0.6 GB
        g = Graph(19, tuple((i, i + 1) for i in range(18)))

        def no_skeleton(k):
            raise AssertionError(f"covering arcs of dimension {k} built")

        monkeypatch.setattr(checkers, "_covering_arcs", no_skeleton)
        lo = dist_from_weights(g, {1 << i: F(1) for i in range(0, 18, 2)})
        hi = dist_from_weights(g, {1 << i: F(1) for i in range(1, 18, 2)})
        with pytest.raises(CapExceededError) as info:
            stochastic_domination(lo, hi)
        assert (info.value.what, info.value.size) == ("domination lattice", 18 << 18)
        assert 18 << 18 <= LATTICE_PASS_CAP and 18 << 18 > COVERING_NETWORK_CAP

    def test_the_memory_cap_admits_a_network_of_exactly_its_size(self, monkeypatch):
        # four single edges make four lattice coordinates, a network of
        # 4 * 2^4: a cap of exactly that admits it, one below refuses it
        g = Graph(5, tuple((i, i + 1) for i in range(4)))
        lo = dist_from_weights(g, {1: F(1), 4: F(1)})
        hi = dist_from_weights(g, {2: F(1), 8: F(1)})
        assert len(checkers._lattice_coordinates(g.full_mask, [*lo.nums, *hi.nums])) == 4
        monkeypatch.setattr(checkers, "COVERING_NETWORK_CAP", 4 << 4)
        assert not stochastic_domination(lo, hi).dominates
        monkeypatch.setattr(checkers, "COVERING_NETWORK_CAP", (4 << 4) - 1)
        with pytest.raises(CapExceededError) as info:
            stochastic_domination(lo, hi)
        assert (info.value.what, info.value.size) == ("domination lattice", 4 << 4)

    def test_bruteforce_witness_is_an_antichain_with_its_masses(self):
        rng = random.Random(99)
        g = complete_graph(4)
        witnesses = 0
        for _ in range(60):
            lo = random_dist(g, rng, 10)
            hi = random_dist(g, rng, 10)
            report = domination_bruteforce(lo, hi)
            if report.dominates:
                continue
            w = report.witness
            for a in w.minimal_elements:
                for b in w.minimal_elements:
                    assert a == b or a & b != a, (hex(a), hex(b))
            for d, mass in ((lo, w.mass_lo), (hi, w.mass_hi)):
                assert mass == sum(p for m, p in probabilities(d).items() if upset_contains(w, m))
            witnesses += 1
        assert witnesses > 0


class TestFlowAgainstDinic:
    """The library's Dinic flow, checked against the Edmonds-Karp oracle on
    the same covering networks."""

    def test_random_tilted_pairs(self, monkeypatch):
        rng = random.Random(20)
        verdicts = [flow_against_oracle(*tilted_pair(rng), monkeypatch).dominates for _ in range(400)]
        assert 100 < sum(verdicts) < 300  # both kinds of pair occur

    def test_double_current_steps_on_counter_2_2(self, monkeypatch):
        g = counter_family(2, 2)
        laws = [double_current(g, x) for x in dyadic_grid(6)]
        assert len(laws) == 63
        for lo, hi in zip(laws, laws[1:]):
            assert flow_against_oracle(lo, hi, monkeypatch).dominates

    def test_failing_pair_on_twelve_coordinates_returns_in_bounded_time(self):
        # full-support random laws on a 12-edge path: every edge is its own
        # lattice coordinate.  The flow takes 0.4 to 0.5 s (2-vCPU Xeon,
        # CPython 3.11), the oracle about 10 s, so the witness is checked
        # against its pinned digest instead
        rng = random.Random(12)
        g = Graph(13, tuple((i, i + 1) for i in range(12)))
        lo, hi = (
            Dist.from_integers(g, {m: rng.randint(1, 1000) for m in range(1 << 12)}, 1)
            for _ in range(2)
        )
        assert len(checkers._lattice_coordinates(g.full_mask, [*lo.nums, *hi.nums])) == 12
        start = time.perf_counter()
        report = stochastic_domination(lo, hi)
        assert time.perf_counter() - start < 10.0
        assert not report.dominates
        text = json.dumps(report.witness.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TWELVE_COORDINATE_WITNESS

    def test_every_network_the_table_builds(self, monkeypatch):
        # none: the battery's loop steps are read off up-set masses, and the
        # SING rows' MON witnesses are the up-sets of their connection events
        built = []

        class RecordedFlow(checkers._CoveringFlow):
            def __init__(self, d_lo, d_hi):
                built.append(d_lo.graph)
                super().__init__(d_lo, d_hi)

        monkeypatch.setattr(checkers, "_CoveringFlow", RecordedFlow)
        overview.build_overview(6)
        assert built == []

    @pytest.mark.parametrize("resolution", range(5, 10))
    def test_the_sing_witnesses_are_the_min_cut_upsets(self, monkeypatch, resolution):
        # the loop and double-loop MON witnesses on counter(18,2) and
        # counter(38,2) are the up-sets the covering network's min cut gives,
        # and their masses are the SING pair's values
        report = overview.build_overview(resolution, graphs=[])
        for model, (n, m) in (
            ("loop", overview.SING_LOOP_PARAMS),
            ("double_loop", overview.SING_DOUBLE_LOOP_PARAMS),
        ):
            witness = report["models"][model]["MON"]["witness"]
            pair = witness["pair"]
            g = counter_family(n, m)
            lo, hi = (build(model, g, parse_rational(pair[x])) for x in ("x1", "x2"))
            flow = flow_against_oracle(lo, hi, monkeypatch)
            assert not flow.dominates
            assert witness["upset_witness"] == flow.witness.to_json_dict()
            masses = witness["upset_witness"]["mass_lo"], witness["upset_witness"]["mass_hi"]
            assert masses == (pair["value1"], pair["value2"])


def law_of(g: Graph, weight) -> Dist:
    """The law with weight(m) on every mask m of g."""
    return dist_from_weights(g, {m: F(weight(m)) for m in range(1 << g.edge_count)})


def product_law(g: Graph, ps: list[Fraction]) -> Dist:
    """Independent edges, edge i open with probability ps[i]."""

    def weight(m):
        return prod(p if m >> i & 1 else 1 - p for i, p in enumerate(ps))

    return law_of(g, weight)


def pair_law(g: Graph, e: int, f: int, table: tuple[int, int, int, int]) -> Dist:
    """Edges e and f with joint weights table[[e open] + 2 [f open]],
    every other edge an independent fair coin."""
    return law_of(g, lambda m: table[(m >> e & 1) + 2 * (m >> f & 1)])


def scan_pair(lo: Dist, hi: Dist):
    return monotonicity_scan([lo, hi])


def holley_pair(lo: Dist, hi: Dist) -> bool:
    """The Holley route's verdict on the one step lo -> hi."""
    (holds,) = checkers._holley_steps([lo, hi])
    return holds


FOUR_EDGES = generalized_theta([1, 1, 2])
FULL_SUPPORT_GRAPHS = [FOUR_EDGES, THETA111, Graph(3, ((0, 1), (1, 2))), Graph(2, ((0, 1),))]
# on 2-edge laws: the local Holley condition holds, hi fails the lattice
# condition, and edge f open is an up-set with more mass under lo (5/13)
# than under hi (2/7)
NOT_LATTICE_LO = (4, 4, 4, 1)
NOT_LATTICE_HI = (1, 4, 1, 1)
# negatively correlated pair: the lattice condition fails at that pair only
REPELLING = (2, 2, 2, 1)

small_weights = st.integers(1, 12)


@st.composite
def lattice_weights(draw, n: int) -> list[Fraction]:
    """Edge activities times ferromagnetic pair couplings: a lattice law."""
    activity = [F(draw(small_weights), draw(small_weights)) for _ in range(n)]
    coupling = {(i, j): draw(st.integers(1, 3)) for i in range(n) for j in range(i + 1, n)}
    return [
        prod(a for i, a in enumerate(activity) if m >> i & 1)
        * prod(c for (i, j), c in coupling.items() if m >> i & 1 and m >> j & 1)
        for m in range(1 << n)
    ]


def positive_weights(n: int):
    return st.lists(small_weights.map(F), min_size=1 << n, max_size=1 << n)


@st.composite
def tilted(draw, weights: list[Fraction], n: int) -> list[Fraction]:
    """weights times a factor per open edge: below weights in the local
    Holley order when every factor is at most 1, as it is half the time."""
    top = draw(st.sampled_from([1, 4]))
    factor = [min(F(draw(st.integers(1, 4)), draw(st.integers(1, 4))), top) for _ in range(n)]
    return [w * prod(r for i, r in enumerate(factor) if m >> i & 1) for m, w in enumerate(weights)]


class TestHolleyLocalRoute:
    """The MON scan's flow-free route: sound whenever it answers, and the
    flow's verdict and witness whenever it does not."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_local_route_is_sound(self, data):
        g = data.draw(st.sampled_from(FULL_SUPPORT_GRAPHS))
        n = g.edge_count
        hi_weights = data.draw(st.one_of(lattice_weights(n), positive_weights(n)))
        lo_weights = data.draw(
            st.one_of(tilted(hi_weights, n), lattice_weights(n), positive_weights(n))
        )
        lo, hi = (law_of(g, w.__getitem__) for w in (lo_weights, hi_weights))
        report = stochastic_domination(lo, hi)
        expected = [] if report.dominates else [(1, report.witness)]
        assert scan_pair(lo, hi) == expected
        assert holley_pair(lo, hi) == holley_local_bruteforce(lo, hi)
        if holley_pair(lo, hi):
            assert report.dominates
            # the brute force takes seconds on 16 masks
            oracle = domination_bruteforce if n <= 3 else domination_bipartite
            assert oracle(lo, hi).dominates

    @pytest.mark.parametrize("reversed_edges", [(0,), (1,), (2,), (3,), (0, 1, 2, 3)])
    def test_each_reversed_edge_is_refuted_by_the_flow(self, reversed_edges, flow_networks):
        # hi is a product law, so only the local Holley condition can fail,
        # and it fails at the reversed edges alone
        ps = [F(1, 2) if i in reversed_edges else F(1, 4) for i in range(4)]
        lo = product_law(FOUR_EDGES, ps)
        hi = product_law(FOUR_EDGES, [F(3, 4) - p for p in ps])
        assert not holley_pair(lo, hi)
        expected = stochastic_domination(lo, hi)
        assert not expected.dominates and not domination_bruteforce(lo, hi).dominates
        flow_networks.clear()
        assert scan_pair(lo, hi) == [(1, expected.witness)]
        assert len(flow_networks) == 1

    @pytest.mark.parametrize("e,f", [(e, f) for e in range(4) for f in range(e + 1, 4)])
    def test_each_non_lattice_pair_is_refuted_by_the_flow(self, e, f, flow_networks):
        lo = pair_law(FOUR_EDGES, e, f, NOT_LATTICE_LO)
        hi = pair_law(FOUR_EDGES, e, f, NOT_LATTICE_HI)
        assert not holley_pair(lo, hi)
        expected = stochastic_domination(lo, hi)
        assert expected.witness.gap == F(5, 13) - F(2, 7)
        flow_networks.clear()
        assert scan_pair(lo, hi) == [(1, expected.witness)]
        assert len(flow_networks) == 1

    @pytest.mark.parametrize("e,f", [(e, f) for e in range(4) for f in range(e + 1, 4)])
    def test_dominating_non_lattice_laws_take_the_flow(self, e, f, flow_networks):
        hi = pair_law(FOUR_EDGES, e, f, REPELLING)
        lo = product_law(FOUR_EDGES, [F(1, 4)] * 4)
        for d_lo in (hi, lo):
            assert not holley_pair(d_lo, hi)
            flow_networks.clear()
            assert scan_pair(d_lo, hi) == []
            assert len(flow_networks) == 1
            assert stochastic_domination(d_lo, hi).dominates

    def test_only_hi_needs_the_lattice_condition(self, flow_networks):
        lo = pair_law(FOUR_EDGES, 0, 3, REPELLING)
        hi = product_law(FOUR_EDGES, [F(3, 4)] * 4)
        assert holley_pair(lo, hi)
        assert scan_pair(lo, hi) == []
        assert flow_networks == []

    def test_a_zero_weight_mask_takes_the_flow(self, flow_networks):
        g = THETA111
        lo, hi = build("random_cluster", g, F(1, 4)), build("random_cluster", g, F(1, 2))
        assert holley_pair(lo, hi)
        for lo_cut, hi_cut in ((g.full_mask, None), (None, 0)):
            d_lo = dist_from_weights(g, {m: w for m, w in lo.weights.items() if m != lo_cut})
            d_hi = dist_from_weights(g, {m: w for m, w in hi.weights.items() if m != hi_cut})
            assert not holley_pair(d_lo, d_hi)
            flow_networks.clear()
            assert scan_pair(d_lo, d_hi) == []
            assert len(flow_networks) == 1
            assert domination_bruteforce(d_lo, d_hi).dominates

    def test_graph_mismatch_rejected(self):
        with pytest.raises(GraphMismatchError):
            scan_pair(
                build("random_cluster", THETA111, F(1, 4)), build("random_cluster", K4, F(1, 2))
            )

    def test_twelve_edge_random_cluster_scan_builds_no_network(self, flow_networks):
        g = generalized_theta([3, 3, 3, 3])
        assert monotonicity_scan([build("random_cluster", g, x) for x in dyadic_grid(2)]) == []
        assert flow_networks == []


@st.composite
def holley_families(draw) -> list[Dist]:
    """2 to 6 laws on one full-support graph, each after the first tilted
    from, equal to, or drawn independently of the one before; sometimes an
    inner law loses one mask."""
    g = draw(st.sampled_from(FULL_SUPPORT_GRAPHS))
    n = g.edge_count
    weights = [draw(st.one_of(lattice_weights(n), positive_weights(n)))]
    for _ in range(draw(st.integers(1, 5))):
        last = weights[-1]
        weights.append(
            draw(
                st.one_of(
                    st.just(last), tilted(last, n), lattice_weights(n), positive_weights(n)
                )
            )
        )
    laws = [law_of(g, w.__getitem__) for w in weights]
    if len(laws) > 2 and draw(st.booleans()):
        j = draw(st.integers(1, len(laws) - 2))
        cut = draw(st.integers(0, g.full_mask))
        laws[j] = dist_from_weights(g, {m: w for m, w in laws[j].weights.items() if m != cut})
    return laws


def holley_bruteforce_steps(laws: list[Dist]) -> list[bool]:
    return [holley_local_bruteforce(lo, hi) for lo, hi in zip(laws, laws[1:])]


class UnreadWeights(dict):
    """Numerators that fail the test when a weight is looked up."""

    def __getitem__(self, mask):
        raise AssertionError(f"weight of {hex(mask)} read")

    get = __getitem__


class TestHolleySteps:
    """The family form of the Holley route: one pass per family over the
    distinct weight patterns, the mask-by-mask pair check at every step."""

    @settings(max_examples=200, deadline=None)
    @given(laws=holley_families())
    def test_every_step_agrees_with_the_mask_by_mask_check(self, laws):
        assert checkers._holley_steps(laws) == holley_bruteforce_steps(laws)

    def test_a_law_missing_a_mask_sends_only_its_own_steps_to_the_flow(self, flow_networks):
        g = THETA111
        laws = [build("random_cluster", g, x) for x in dyadic_grid(3)[:5]]
        for cut in (0, g.full_mask):
            family = list(laws)
            family[2] = dist_from_weights(g, {m: w for m, w in laws[2].weights.items() if m != cut})
            steps = checkers._holley_steps(family)
            assert steps == [True, False, False, True] == holley_bruteforce_steps(family)
            expected = [
                (j, report.witness)
                for j in (2, 3)
                if not (report := stochastic_domination(family[j - 1], family[j])).dominates
            ]
            flow_networks.clear()
            assert monotonicity_scan(family) == expected
            assert len(flow_networks) == 2

    def test_repeated_identical_laws(self):
        rc = build("random_cluster", K4, F(1, 3))
        repelling = pair_law(FOUR_EDGES, 0, 3, REPELLING)
        for law, holds in ((rc, True), (bernoulli(K4, F(2, 3)), True), (repelling, False)):
            for count in (2, 3, 5):
                family = [law] * count
                steps = checkers._holley_steps(family)
                assert steps == holley_bruteforce_steps(family) == [holds] * (count - 1)

    def test_the_sum_theorem_families_agree_with_the_mask_by_mask_check(self):
        # the four 15-law families of verify sumthm on each battery graph:
        # every step holds, so the sum theorem's scans need no flow
        grid = dyadic_grid(4)
        for _, g in scan_battery():
            percolation = [bernoulli(g, x) for x in grid]
            for laws in (
                percolation,
                [union_bernoulli(d, x) for d, x in zip(percolation, grid)],
                [build("random_cluster", g, x) for x in grid],
                [build("double_cluster", g, x) for x in grid],
            ):
                steps = checkers._holley_steps(laws)
                assert steps == holley_bruteforce_steps(laws) and all(steps)

    def test_a_family_without_a_full_support_step_reads_no_weight(self):
        g = THETA111
        unread = [
            Dist(g, UnreadWeights(d.nums), d.den, d.z)
            for d in (build("random_cluster", g, F(1, 4)), loop_o1(g, F(1, 3)))
        ]
        for family in ([unread[1]] * 3, [unread[0], unread[1], unread[0]], unread[:1]):
            assert checkers._holley_steps(family) == [False] * (len(family) - 1)
        with pytest.raises(AssertionError, match="read"):
            checkers._holley_steps(unread[:1] * 2)

    def test_a_graph_mismatch_is_refused_before_any_flow(self, flow_networks):
        g = Graph(2, ((0, 1),))
        family = [point_mass(g, 0), point_mass(g, 1), bernoulli(Graph(3, ((0, 1),)), F(1, 2))]
        with pytest.raises(GraphMismatchError):
            checkers._holley_steps(family)
        with pytest.raises(GraphMismatchError):
            monotonicity_scan(family)
        assert flow_networks == []
        assert monotonicity_scan(family[:2]) == [] and len(flow_networks) == 1


class TestScans:
    def test_bernoulli_family_scans_clean(self):
        fails = monotonicity_scan([bernoulli(THETA111, x) for x in dyadic_grid(4)])
        assert fails == []

    def test_random_cluster_scans_clean_small(self):
        fails = monotonicity_scan([build("random_cluster", K4, x) for x in dyadic_grid(4)])
        assert fails == []

    def test_loop_family_fails_on_counter(self, monkeypatch):
        g = counter_family(8, 2)
        laws = [loop_o1(g, x) for x in dyadic_grid(8)]
        fails = monotonicity_scan(laws)
        assert fails
        for j, witness in fails:
            assert j >= 1
            assert flow_against_oracle(laws[j - 1], laws[j], monkeypatch).witness == witness

    def test_a_certified_step_reads_neither_law(self, monkeypatch):
        # steps 1 and 2 are certified: laws 0 and 1 are read by no other
        # step, so a build that refuses them must never be asked for them,
        # and the table's MON scan asks for every other law once
        grid = dyadic_grid(3)[:5]
        reads = []

        def guarded(name, graph, x):
            reads.append(x)
            if x in grid[:2]:
                raise AssertionError(f"law at {x} read for a certified step")
            return build(name, graph, x)

        def scan(loop_steps):
            monkeypatch.setattr(overview, "loop_dominating_steps", lambda g, grid: loop_steps)
            return overview.scan_mon([("K4", K4)], ["double_current"], grid)

        monkeypatch.setattr(overview, "build", guarded)
        assert scan({1, 2}) == {"double_current": []}
        assert reads == grid[2:]
        with pytest.raises(AssertionError):
            scan({2})
        monkeypatch.setattr(overview, "build", build)
        assert scan(set()) == {"double_current": []}

    def test_union_preservation_verified_for_bernoulli(self):
        laws = [bernoulli(THETA111, x) for x in dyadic_grid(3)]
        unions = [union(d, d) for d in laws]
        assert monotonicity_scan(laws) == [] and monotonicity_scan(unions) == []
        for x, u in zip(dyadic_grid(3), unions):
            assert u.same_law(bernoulli(THETA111, x * (2 - x)))

    def test_union_preservation_inconclusive_when_hypothesis_fails(self):
        # the input family fails its own scan, so the sum theorem's
        # hypothesis is not met on this grid
        g = counter_family(8, 2)
        lo, hi = (loop_o1(g, x) for x in (F(223, 256), F(231, 256)))  # spans the known dip
        ((j, witness),) = monotonicity_scan([lo, hi])
        assert j == 1 and witness.gap > 0
