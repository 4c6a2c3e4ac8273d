import random
from fractions import Fraction
from math import comb

import pytest

from loopcurrents import graphs
from loopcurrents.errors import CapExceededError, GraphStructureError
from loopcurrents.events import Event, all_open, connect, edge_open
from loopcurrents.graphs import (
    LATTICE_PASS_CAP,
    Graph,
    complete_graph,
    counter_family,
    generalized_theta,
    segment_edge_ranges,
)
from loopcurrents.measures import bernoulli, loop_o1, point_mass

from oracles import (
    brute_cyclic_edges,
    check_increasing,
    check_increasing_all_pairs,
    connect_sets,
    cyclic_count,
    cyclic_edges,
    histogram,
)

F = Fraction
COUNTER22 = counter_family(2, 2)
THETA111 = generalized_theta([1, 1, 1])


def seg_mask(lengths, *segments):
    ranges = segment_edge_ranges(lengths)
    return sum(1 << e for s in segments for e in ranges[s])


class TestEvaluate:
    def test_all_open_on_exact_set(self):
        g = complete_graph(4)
        ev = all_open(g, [0, 2, 3])
        assert ev.holds(0b1101)
        assert ev.holds(0b111111)
        assert not ev.holds(0b1100)

    def test_counter_upper_paths_do_not_connect_marks(self):
        mask = seg_mask([2, 2, 2, 2], 0, 2)  # one n-path plus one m-path
        assert not connect(COUNTER22).holds(mask)
        assert connect(COUNTER22).holds(seg_mask([2, 2, 2, 2], 2, 3))

    def test_connect_sets(self):
        g = Graph(4, ((0, 1), (2, 3)))
        ev = connect_sets(g, (0,), (1, 3))
        assert ev.holds(0b01)
        assert not ev.holds(0b10)

    def test_connect_needs_marks_or_vertices(self):
        with pytest.raises(GraphStructureError):
            connect(complete_graph(3))

    def test_indices_one_past_the_end_are_refused(self):
        # events are lazy: an index past the end would only fail when read
        n, m = COUNTER22.vertex_count, COUNTER22.edge_count
        with pytest.raises(GraphStructureError, match=f"vertex {n} out of range"):
            connect(COUNTER22, 0, n)
        with pytest.raises(GraphStructureError, match=f"edge {m} out of range"):
            edge_open(COUNTER22, m)

    def test_connect_refuses_one_vertex(self):
        # one vertex given must not fall back to the marks
        for args in ((0,), (None, 0)):
            with pytest.raises(GraphStructureError):
                connect(COUNTER22, *args)


class TestCheckIncreasing:
    def test_builtin_kinds_are_increasing(self):
        for g in (THETA111, COUNTER22, complete_graph(4)):
            events = [edge_open(g, 0), all_open(g, [0, 1])]
            events.append(connect(g) if g.marks else connect(g, 0, 1))
            for ev in events:
                ok, witness = check_increasing(ev)
                assert ok and witness is None

    def test_builtin_kinds_exhaustive_at_twelve_edges(self):
        g = Graph(7, tuple((i % 6, (i + 1) % 7) for i in range(12)))
        for ev in (edge_open(g, 5), all_open(g, [0, 3, 7]), connect_sets(g, (0,), (4, 6))):
            ok, _ = check_increasing(ev)
            assert ok

    def test_cyclic_count_event_not_increasing_with_parallel_edge(self):
        g = Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1)))
        ev = Event(g, lambda m: cyclic_edges(g, m).bit_count() == 3, label="cyclic=3")
        ok, witness = check_increasing(ev)
        assert not ok
        low, high = witness
        assert ev.holds(low) and not ev.holds(high)
        assert high == low | (high ^ low) and (high ^ low).bit_count() == 1
        ok2, _ = check_increasing_all_pairs(ev)
        assert ok2 == ok

    def test_edge_cyclic_verdict_matches_all_pairs_oracle(self):
        g = generalized_theta([2, 3, 2])
        # edge 0 is open and lies on a cycle of the open subgraph
        ev = Event(g, lambda m: m & cyclic_edges(g, m) & 1, label="edge-cyclic:0")
        ok_scan, _ = check_increasing(ev)
        ok_brute, _ = check_increasing_all_pairs(ev)
        assert ok_scan == ok_brute

    def test_random_predicates_agree_with_all_pairs(self):
        rng = random.Random(13)
        g = complete_graph(4)
        for trial in range(8):
            table = {m: rng.random() < 0.5 for m in range(1 << g.edge_count)}
            ev = Event(g, table.__getitem__, label=f"random-{trial}")
            ok_scan, w_scan = check_increasing(ev)
            ok_brute, w_brute = check_increasing_all_pairs(ev)
            assert ok_scan == ok_brute
            if not ok_scan:
                low, high = w_scan
                assert ev.holds(low) and not ev.holds(high)

    def test_covering_pair_scan_refuses_above_the_lattice_cap(self):
        # a 20-edge path: 2^20 masks times 20 covering pairs > 2^24
        g = Graph(21, tuple((i, i + 1) for i in range(20)))

        def never(mask):
            raise AssertionError("predicate called past the cap")

        with pytest.raises(CapExceededError) as info:
            check_increasing(Event(g, never, label="never"))
        assert info.value.what == "covering-pair scan"
        assert info.value.size == 20 << 20 > LATTICE_PASS_CAP


class TestStatistics:
    """Laws of statistics, by the oracle histogram over the package's laws
    and the lattice's cyclic edges."""

    def test_edge_count_under_bernoulli_is_binomial(self):
        g = complete_graph(4)
        p = F(1, 3)
        dist = histogram(bernoulli(g, p), int.bit_count)
        n = g.edge_count
        assert list(dist) == list(range(n + 1))
        for k, mass in dist.items():
            assert mass == comb(n, k) * p**k * (1 - p) ** (n - k)
        assert sum(dist.values()) == 1

    def test_cyclic_count_under_point_mass_empty(self):
        g = complete_graph(4)
        assert histogram(point_mass(g, 0), cyclic_count(g)) == {0: F(1)}

    def test_cyclic_count_matches_cyclic_edges_per_mask(self):
        doubled_triangle = Graph(3, ((0, 1), (1, 2), (2, 0), (0, 1)))
        for g in (COUNTER22, generalized_theta([2, 3, 2]), doubled_triangle):
            count = cyclic_count(g)
            for mask in range(1 << g.edge_count):
                assert count(mask) == brute_cyclic_edges(g, mask).bit_count()

    def test_cyclic_count_refuses_above_the_lattice_cap(self, monkeypatch):
        # a 20-edge path: its lattice pass would cost 20 * 2^20 > 2^24
        g = Graph(21, tuple((i, i + 1) for i in range(20)))
        monkeypatch.setattr(graphs, "even_subgraphs", None)  # never reached
        with pytest.raises(CapExceededError) as info:
            cyclic_count(g)
        assert info.value.what == "even-subgraph lattice"
        assert info.value.size == 20 << 20 > LATTICE_PASS_CAP

    def test_cyclic_count_under_loop_model(self):
        # even subgraphs are their own cyclic part, so the pushforward
        # matches the edge-count pushforward
        g = generalized_theta([2, 3, 2])
        d = loop_o1(g, F(1, 2))
        assert histogram(d, cyclic_count(g)) == histogram(d, int.bit_count)
