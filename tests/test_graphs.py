import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents import graphs
from loopcurrents.errors import CapExceededError, GraphStructureError
from loopcurrents.graphs import (
    CYCLE_DIMENSION_CAP,
    LATTICE_PASS_CAP,
    Graph,
    Marks,
    check_counter,
    complete_graph,
    component_labels,
    counter_family,
    cycle_space_basis,
    even_lattice,
    even_subgraphs,
    generalized_theta,
    graph_from_json,
    graph_to_json,
    is_connected,
    lattice_size,
    segment_edge_ranges,
)

from oracles import (
    bfs_connected,
    brute_cyclic_edges,
    brute_even_subgraphs,
    cycle_space_basis_by_xor,
    cyclic_edges,
    degrees,
)


def seg_mask(lengths, *segments):
    ranges = segment_edge_ranges(lengths)
    mask = 0
    for s in segments:
        for e in ranges[s]:
            mask |= 1 << e
    return mask


SMALL_GRAPHS = [
    Graph(1, ()),
    Graph(2, ((0, 1),)),
    Graph(2, ((0, 1), (0, 1))),              # parallel pair
    Graph(2, ((0, 1), (0, 1), (1, 1))),      # parallel pair plus self-loop
    generalized_theta([1, 1, 1]),
    generalized_theta([2, 3, 2]),
    counter_family(2, 2),
    complete_graph(4),
    Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4))),  # triangle plus far edge
    Graph(  # 12 edges, multi-edges and a self-loop, two components
        6,
        (
            (0, 1), (1, 2), (2, 0), (0, 1), (2, 3), (3, 0),
            (1, 3), (4, 5), (4, 5), (5, 5), (0, 2), (3, 3),
        ),
    ),
]


class TestConstruction:
    def test_theta_1_1_1_is_three_parallel_edges(self):
        g = generalized_theta([1, 1, 1])
        assert g.vertex_count == 2
        assert g.edges == ((0, 1), (0, 1), (0, 1))

    def test_theta_2_3_2_counts(self):
        g = generalized_theta([2, 3, 2])
        assert (g.vertex_count, g.edge_count) == (6, 7)

    def test_counter_marks_sit_on_inner_midpoints(self):
        for n, m in ((1, 2), (2, 2), (3, 4), (2, 6), (5, 8), (18, 2)):
            g = counter_family(n, m)
            assert (g.vertex_count, g.edge_count) == (2 * n + 2 * m - 2, 2 * n + 2 * m)
            assert g.marks is not None
            ranges = segment_edge_ranges([n, n, m, m])
            # the mark is the vertex shared by the middle two edges of its m-path
            for mark, seg in ((g.marks.a, 2), (g.marks.b, 3)):
                before, after = (g.edges[ranges[seg][i]] for i in (m // 2 - 1, m // 2))
                assert set(before) & set(after) == {mark}

    def test_marks_require_even_segment(self):
        with pytest.raises(GraphStructureError, match="must be even"):
            counter_family(3, 3)

    def test_needs_two_segments(self):
        with pytest.raises(GraphStructureError):
            generalized_theta([4])

    def test_positive_lengths(self):
        with pytest.raises(GraphStructureError):
            generalized_theta([2, 0, 2])

    def test_endpoint_validation(self):
        with pytest.raises(GraphStructureError):
            Graph(2, ((0, 2),))

    def test_negative_vertex_count(self):
        with pytest.raises(GraphStructureError, match="vertex count -3 is negative"):
            Graph(-3, ())

    def test_each_index_check_stops_exactly_at_its_bound(self):
        # one past the last vertex or edge is refused, the last one is not
        assert Graph(2, ((1, 0),), Marks(1, 0)).edge_mask([0]) == 1
        with pytest.raises(GraphStructureError, match="endpoint outside 0..1"):
            Graph(2, ((2, 0),))
        with pytest.raises(GraphStructureError, match="mark a=2 is not a vertex"):
            Graph(2, ((0, 1),), Marks(2, 0))
        with pytest.raises(GraphStructureError, match="edge index 1 out of range"):
            Graph(2, ((0, 1),)).edge_mask([1])

    def test_a_graph_is_an_immutable_value(self):
        g = Graph(3, ((0, 1), (1, 2)), Marks(0, 2), (2, 1))
        same = Graph(3, ((0, 1), (1, 2)), Marks(0, 2), (2, 1))
        assert g == same and hash(g) == hash(same) and g is not same
        assert g != Graph(3, ((0, 1), (1, 2)), Marks(0, 2)) != Graph(3, ((0, 1), (1, 2)))
        for name in ("vertex_count", "edges", "marks", "lengths", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(g, name, None)

    def test_the_empty_graph_is_a_graph(self):
        g = Graph(0, ())
        assert (g.edge_count, g.full_mask) == (0, 0)

    def test_the_least_odd_m_is_refused_as_odd(self):
        with pytest.raises(GraphStructureError, match="m=1 must be even"):
            check_counter(2, 1)

    @pytest.mark.parametrize(
        "lengths", [(2,), (2, 3, 1), (2, 0), (2, -1), (2, 1.0), (2, True), [2, 3]]
    )
    def test_lengths_give_one_positive_integer_per_edge(self, lengths):
        with pytest.raises(GraphStructureError, match="one positive integer per edge"):
            Graph(2, ((0, 1), (0, 1)), lengths=lengths)

    def test_a_core_is_its_own_graph(self):
        core = Graph(2, ((0, 1), (0, 1)), lengths=(2, 3))
        assert core != Graph(2, ((0, 1), (0, 1)))
        assert core != Graph(2, ((0, 1), (0, 1)), lengths=(3, 2))
        assert core == Graph(2, ((0, 1), (0, 1)), lengths=(2, 3))

    def test_json_roundtrip_preserves_edge_order(self):
        g = Graph(4, ((3, 1), (0, 1), (1, 2), (0, 1)), Marks(0, 2))
        back = graph_from_json(graph_to_json(g))
        assert back == g
        assert back.edges[0] == (3, 1)

    def test_json_has_no_cores(self):
        # the format has no lengths: a core is refused, not written as the
        # plain graph, and a "lengths" key is refused, not ignored
        core = Graph(2, ((0, 1), (0, 1), (0, 1)), lengths=(2, 2, 3))
        with pytest.raises(GraphStructureError, match="no JSON form"):
            graph_to_json(core)
        with pytest.raises(GraphStructureError, match="no edge lengths"):
            graph_from_json('{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [2, 3]}')


class TestConnectivity:
    def test_empty_configuration_disconnects(self):
        g = complete_graph(4)
        assert not is_connected(g, 0, 0, 3)
        assert is_connected(g, 0, 2, 2)

    def test_full_configuration_connects(self):
        g = complete_graph(4)
        for u in range(4):
            for v in range(4):
                assert is_connected(g, g.full_mask, u, v)

    def test_counter_both_inner_paths_connect_marks(self):
        g = counter_family(2, 2)
        mask = seg_mask([2, 2, 2, 2], 2, 3)
        assert is_connected(g, mask, g.marks.a, g.marks.b)

    def test_counter_upper_n_plus_upper_m_does_not_connect_marks(self):
        g = counter_family(2, 2)
        mask = seg_mask([2, 2, 2, 2], 0, 2)
        assert not is_connected(g, mask, g.marks.a, g.marks.b)

    def test_vertex_range_checked(self):
        g = complete_graph(3)
        with pytest.raises(GraphStructureError):
            is_connected(g, 0, 0, 5)

    def test_one_past_the_last_vertex_is_refused_on_either_side(self):
        g = complete_graph(3)
        assert is_connected(g, g.full_mask, 2, 2)
        for u, v in ((3, 0), (0, 3)):
            with pytest.raises(GraphStructureError, match="out of range"):
                is_connected(g, g.full_mask, u, v)

    def test_against_bfs_oracle(self):
        rng = random.Random(7)
        for g in SMALL_GRAPHS:
            for _ in range(20):
                mask = rng.randrange(1 << g.edge_count)
                u = rng.randrange(g.vertex_count)
                v = rng.randrange(g.vertex_count)
                assert is_connected(g, mask, u, v) == bfs_connected(g, mask, u, v)

    def test_component_labels_match_connectivity(self):
        g = counter_family(2, 2)
        rng = random.Random(3)
        for _ in range(25):
            mask = rng.randrange(1 << g.edge_count)
            labels = component_labels(g, mask)
            for u in range(g.vertex_count):
                for v in range(g.vertex_count):
                    assert (labels[u] == labels[v]) == is_connected(g, mask, u, v)
            components = {
                frozenset(v for v in range(g.vertex_count) if bfs_connected(g, mask, u, v))
                for u in range(g.vertex_count)
            }
            assert len(set(labels)) == len(components)


class TestCycleSpace:
    def test_tree_has_empty_basis(self):
        tree = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert cycle_space_basis(tree) == ()
        assert list(even_subgraphs(tree)) == [0]

    def test_theta_dimension(self):
        assert len(cycle_space_basis(generalized_theta([1, 1, 1]))) == 2

    def test_counter_has_eight_even_subgraphs(self):
        g = counter_family(2, 2)
        assert len(cycle_space_basis(g)) == 3
        assert even_lattice(g)[0][g.full_mask] == 8

    def test_dimension_formula_with_isolated_vertices(self):
        g = Graph(6, ((0, 1), (1, 2), (2, 0)))
        assert len(cycle_space_basis(g)) == 3 - 6 + 4
        assert even_lattice(g)[0][g.full_mask] == 2

    def test_basis_elements_are_even_and_independent(self):
        for g in SMALL_GRAPHS:
            basis = cycle_space_basis(g)
            for b in basis:
                assert all(d % 2 == 0 for d in degrees(g, b))
            span = set(even_subgraphs(g))
            assert len(span) == 1 << len(basis)

    def test_even_subgraphs_match_degree_filter(self):
        for g in SMALL_GRAPHS:
            assert sorted(even_subgraphs(g)) == brute_even_subgraphs(g)

    def test_theta_even_subgraph_weights(self):
        n, m, l = 2, 3, 2
        g = generalized_theta([n, m, l])
        sizes = sorted(mask.bit_count() for mask in even_subgraphs(g))
        assert sizes == sorted([0, n + m, m + l, n + l])

    def test_counter_even_subgraph_sizes(self):
        n, m = 2, 2
        g = counter_family(n, m)
        sizes = sorted(mask.bit_count() for mask in even_subgraphs(g))
        assert sizes == sorted([0, 2 * n, 2 * m] + [n + m] * 4 + [2 * n + 2 * m])

    def test_cap_enforced(self):
        g = Graph(2, tuple((0, 1) for _ in range(23)))  # dimension 22
        with pytest.raises(CapExceededError) as info:
            list(even_subgraphs(g))
        assert info.value.cap == CYCLE_DIMENSION_CAP

    def test_the_cap_admits_exactly_its_dimension(self):
        # 21 parallel edges span dimension 20, the cap: the masks are
        # drawn lazily, so none is; one more edge is refused at the call
        at_cap = Graph(2, ((0, 1),) * 21)
        assert len(cycle_space_basis(at_cap)) == CYCLE_DIMENSION_CAP == 20
        assert next(even_subgraphs(at_cap)) == 0
        with pytest.raises(CapExceededError) as info:
            even_subgraphs(Graph(2, ((0, 1),) * 22))
        assert info.value.size == 21

    def test_even_count_formula_on_subconfigurations(self):
        rng = random.Random(11)
        for g in SMALL_GRAPHS:
            count, _ = even_lattice(g)
            for _ in range(15):
                omega = rng.randrange(1 << g.edge_count)
                expected = sum(
                    1
                    for sub in _submasks(omega)
                    if all(d % 2 == 0 for d in degrees(g, sub))
                )
                assert count[omega] == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_symmetric_difference_closure(self, data):
        g = data.draw(st.sampled_from(SMALL_GRAPHS))
        evens = brute_even_subgraphs(g)
        a = data.draw(st.sampled_from(evens))
        b = data.draw(st.sampled_from(evens))
        assert all(d % 2 == 0 for d in degrees(g, a ^ b))


def _submasks(omega):
    sub = omega
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & omega


@st.composite
def multigraphs(draw, max_edges: int = 9) -> Graph:
    """Multigraphs with self-loops, parallel pairs and triples, isolated
    vertices and several components, in shuffled edge order."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    groups = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=6))
    edges = [(u, v) for u, v, copies in groups for _ in range(copies)][:max_edges]
    return Graph(n, tuple(draw(st.permutations(edges))))


def both_cyclic(g: Graph, omega: int) -> int:
    """The cyclic edges of omega by the per-configuration oracle, checked
    equal to the lattice's."""
    per_mask = cyclic_edges(g, omega)
    assert even_lattice(g)[1][omega] == per_mask, (g, omega)
    return per_mask


class TestCycleBasisOrder:
    """The linear cycle basis gives the elements, in the order, of the
    graph-wide XOR climb it replaced: the sample streams depend on it."""

    @settings(max_examples=80, deadline=None)
    @given(g=multigraphs(), data=st.data())
    def test_same_elements_as_the_xor_climb(self, g, data):
        mask = data.draw(st.integers(0, g.full_mask))
        assert cycle_space_basis(g) == cycle_space_basis_by_xor(g)
        assert cycle_space_basis(g, mask) == cycle_space_basis_by_xor(g, mask)

    def test_a_long_theta(self):
        g = generalized_theta([3000, 1, 2])
        basis = cycle_space_basis(g)
        assert basis == cycle_space_basis_by_xor(g)
        assert [c.bit_count() for c in basis] == [3001, 3]
        drop = g.full_mask ^ 1 << 1500
        assert cycle_space_basis(g, drop) == cycle_space_basis_by_xor(g, drop)


class TestCyclicEdges:
    def test_path_has_no_cyclic_edges(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert both_cyclic(g, 0b111) == 0

    def test_triangle_plus_pendant(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 0), (0, 3)))
        assert both_cyclic(g, 0b1111) == 0b0111

    def test_even_configurations_are_fully_cyclic(self):
        for g in SMALL_GRAPHS:
            for omega in brute_even_subgraphs(g):
                if omega:
                    assert both_cyclic(g, omega) == omega

    def test_self_loops_and_parallel_pairs_are_cyclic(self):
        g = Graph(2, ((0, 1), (0, 1), (1, 1)))
        assert both_cyclic(g, 0b111) == 0b111
        assert both_cyclic(g, 0b101) == 0b100  # lone edge is a bridge, loop cyclic

    def test_against_even_subgraph_oracle(self):
        rng = random.Random(5)
        for g in SMALL_GRAPHS:
            cyclic = even_lattice(g)[1]
            for _ in range(20):
                omega = rng.randrange(1 << g.edge_count)
                assert cyclic[omega] == brute_cyclic_edges(g, omega)

    @settings(max_examples=60, deadline=None)
    @given(g=multigraphs())
    def test_every_mask_against_even_subgraph_oracle(self, g):
        cyclic = even_lattice(g)[1]
        for omega in range(1 << g.edge_count):
            assert cyclic[omega] == brute_cyclic_edges(g, omega), (g, omega)


class TestEvenLattice:
    @settings(max_examples=60, deadline=None)
    @given(g=multigraphs(max_edges=8))
    def test_every_mask_against_the_degree_filter(self, g):
        evens = brute_even_subgraphs(g)
        count, cyclic = even_lattice(g)
        assert len(count) == len(cyclic) == 1 << g.edge_count
        for omega in range(1 << g.edge_count):
            assert count[omega] == sum(1 for h in evens if h & ~omega == 0), (g, omega)
            assert cyclic[omega] == brute_cyclic_edges(g, omega), (g, omega)

    def test_agrees_with_the_per_mask_routines(self):
        for g in SMALL_GRAPHS:
            count, cyclic = even_lattice(g)
            for omega in range(1 << g.edge_count):
                assert count[omega] == 1 << len(cycle_space_basis(g, omega))
                assert cyclic[omega] == cyclic_edges(g, omega)

    def test_cap_refuses_before_enumerating(self, monkeypatch):
        # 20 edges cost 20 * 2^20 > 2^24 element operations; 19 edges do not
        def refuse(*args):
            raise AssertionError("enumerated past the cap")

        monkeypatch.setattr(graphs, "even_subgraphs", refuse)
        with pytest.raises(CapExceededError) as info:
            even_lattice(Graph(21, tuple((i, i + 1) for i in range(20))))
        assert (info.value.what, info.value.size) == ("even-subgraph lattice", 20 << 20)
        assert 19 << 19 <= LATTICE_PASS_CAP < 20 << 20

    def test_the_lattice_cap_admits_exactly_its_cost(self, monkeypatch):
        # 3 edges cost 3 * 2^3 = 24 element operations, 4 edges 64
        monkeypatch.setattr(graphs, "LATTICE_PASS_CAP", 24)
        assert lattice_size(Graph(4, ((0, 1), (1, 2), (2, 3))), "pass") == 8
        with pytest.raises(CapExceededError) as info:
            lattice_size(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4))), "pass")
        assert (info.value.size, info.value.cap) == (64, 24)

    def test_cached_tables_are_read_only(self):
        for table in even_lattice(complete_graph(4)):
            with pytest.raises(TypeError):
                table[0] = 2

    def test_equal_graphs_share_the_cached_tables(self):
        edges = ((0, 1), (1, 2), (0, 2), (0, 2))
        g = Graph(3, edges, Marks(0, 2))
        tables = even_lattice(g)
        assert even_lattice(Graph(3, edges, Marks(0, 2))) is tables
        # the marks are part of the graph: other marks, same tables, not shared
        unmarked = even_lattice(Graph(3, edges))
        assert unmarked == tables and unmarked is not tables
