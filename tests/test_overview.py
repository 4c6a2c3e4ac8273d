import hashlib
import json
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcurrents import checkers, cli, measures, overview, theta
from loopcurrents.battery import scan_battery
from loopcurrents.errors import CapExceededError, LoopCurrentsError
from loopcurrents.events import Event, connect
from loopcurrents.graphs import (
    Graph,
    component_labels,
    complete_graph,
    counter_family,
    cycle_space_basis,
    generalized_theta,
)
from loopcurrents.measures import MODELS, build, prob
from loopcurrents.rationals import dyadic_grid, find_decreasing_pair, format_rational
from loopcurrents.theta import counter_core

from oracles import connection_scan_bruteforce, loop_dominating_steps_by_flow, prob_bruteforce


def test_the_scans_build_no_row_law_and_one_bernoulli_pass_per_row(monkeypatch):
    # the scanned rows are read as polynomials in x: one Bernoulli pass per
    # row and graph, where the laws took one per row and grid point
    built = Counter()
    passes = []
    opened = []

    def counting_build(name, graph, x):
        if graph == theta111:  # not the SING witnesses' counter graphs
            built.update([name])
        return build(name, graph, x)

    def counting_open_edges(table, opens):
        passes.append(len(table))
        return real_open_edges(table, opens)

    def counting_union_bernoulli(d, p):
        opened.append(d.graph)
        return real_union_bernoulli(d, p)

    real_open_edges, real_union_bernoulli = measures._open_edges, measures.union_bernoulli
    theta111 = generalized_theta([1, 1, 1])
    monkeypatch.setattr(overview, "build", counting_build)
    monkeypatch.setattr(measures, "_open_edges", counting_open_edges)
    monkeypatch.setattr(measures, "union_bernoulli", counting_union_bernoulli)
    report = overview.build_overview(6, 3, graphs=[("theta[1,1,1]", theta111)])
    assert report["consistent_with_expected"]
    # the loop-union route reads the loop law's up-set masses as
    # polynomials, and every MON step of the battery takes it, so no law is
    # built; the only laws opened at a point are the FKG witnesses' on
    # theta cores
    assert not built
    assert opened and all(g.lengths is not None for g in opened)
    assert len(passes) == len(UNION_ROWS) + len(opened)


def test_a_rows_laws_are_built_only_for_the_steps_the_loop_union_route_leaves(monkeypatch):
    # theta[1,1,3]'s loop law fails to dominate at steps 54-62, which read
    # the laws at grid points 53 to 62; no other row law is built, and when
    # one is, no law of another scanned row is alive
    built = []

    graphs = [("counter(2,2)", counter_family(2, 2)), ("theta[1,1,3]", THETA113)]

    def watching_build(name, graph, x):
        alive = {row for row, _, ref in built if row != name and ref() is not None}
        assert not alive, (name, alive)
        d = build(name, graph, x)
        if name != "loop" and any(graph == g for _, g in graphs):
            built.append((name, (graph.edges, x), weakref.ref(d)))
        return d

    monkeypatch.setattr(overview, "build", watching_build)
    grid = dyadic_grid(6)
    assert overview.build_overview(6, graphs=graphs)["consistent_with_expected"]
    expected = [(row, (THETA113.edges, x)) for row in UNION_ROWS for x in grid[53:]]
    assert [(row, at) for row, at, _ in built] == expected


def test_the_table_builds_no_loop_law_per_point_and_no_double(monkeypatch):
    calls = Counter()
    for kernel in ("loop_o1", "union"):
        real = getattr(measures, kernel)

        def counted(*a, real=real, kernel=kernel):
            graph = a[0] if kernel == "loop_o1" else a[0].graph
            if graph.lengths is None:  # not the core graphs of the refuted values
                calls.update([kernel])
            return real(*a)

        monkeypatch.setattr(measures, kernel, counted)
    graphs = [("counter(2,2)", counter_family(2, 2)), ("theta[1,1,1]", generalized_theta([1, 1, 1]))]
    overview.build_overview(6, graphs=graphs)
    # the loop-union route reads up-set masses, so no loop law is built at
    # a grid point, and the scanned rows build no double; the loop and
    # double-loop SING witnesses build two loop laws each on the counter
    # graph, and the double loop's two doubles
    assert calls == {"loop_o1": 4, "union": 2}


def test_each_graph_builds_its_fkg_pairs_and_watched_pairs_once(monkeypatch):
    # one scan pass per graph: the FKG event pairs and the watched
    # connection pairs are built once and serve all three scanned rows
    calls = Counter()
    helpers = ("_fkg_pairs", "_watched")
    for helper in helpers:

        def counted(g, real=getattr(overview, helper), helper=helper):
            calls[helper, g.edges] += 1
            return real(g)

        monkeypatch.setattr(overview, helper, counted)
    graphs = [("counter(2,2)", counter_family(2, 2)), ("theta[1,1,1]", generalized_theta([1, 1, 1]))]
    assert overview.build_overview(6, graphs=graphs)["consistent_with_expected"]
    assert calls == Counter((helper, g.edges) for helper in helpers for _, g in graphs)


def test_connection_masses_are_exact_connection_probabilities():
    g = counter_family(2, 2)
    grid = dyadic_grid(3)
    watched = overview._watched(g)
    stat = overview._connection_stat(g, [pair for _, pair, _ in watched])
    masses = measures.polynomial_masses(g, ["double_current"], stat, len(watched), grid)
    masses = masses["double_current"]
    # the marks are the one singleton pair, the last watched pair
    values = [Fraction(counts[-1], total) for counts, total in masses]
    assert values == [prob(build("double_current", g, x), connect(g)) for x in grid]


def test_connection_scan_violations_match_the_fraction_oracle():
    # the loop model's connection probability falls on counter(18, 2): the
    # violation path of the scans, which the table's battery never reaches
    g, grid = counter_core(18, 2), dyadic_grid(6)
    laws = {x: build("loop", g, x) for x in grid}
    found = overview.scan_graph("counter(18,2)", g, ["loop"], grid)["loop"]
    found = {prop: found[prop] for prop in ("CON", "SING")}
    watched = {"CON": overview._subset_pairs(g), "SING": overview._singleton_pairs(g)}
    assert found == connection_scan_bruteforce("counter(18,2)", g, laws, grid, watched)
    assert {prop: len(records) for prop, records in found.items()} == {"CON": 7, "SING": 7}


def test_pairs_sharing_a_falling_series_keep_their_own_records(monkeypatch):
    # on counter(18, 2) the loop's CON pair (2),(3) and SING pair 2,3 are one
    # series with 7 falls: its falling steps are found once, each fall's
    # drop built from two Fractions (and each negative FKG gap from one),
    # and each pair writes its own records
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(overview, "Fraction", CountingFraction)
    g, grid = counter_core(18, 2), dyadic_grid(6)
    found = overview.scan_graph("counter(18,2)", g, ["loop"], grid)["loop"]
    assert len(built) == len(found["FKG"]) + 2 * 7
    con, sing = found["CON"], found["SING"]
    assert {r["event"] for r in con} == {"connect-sets:(2,),(3,)"}
    assert {r["event"] for r in sing} == {"connect:2,3"}
    assert [(r["x1"], r["x2"]) for r in con] == [(r["x1"], r["x2"]) for r in sing]
    assert len(con) == 7
    assert all("drop" in r for r in sing) and not any("drop" in r for r in con)


def test_falling_steps_compare_ratios_not_counts(monkeypatch):
    # totals 4, 10, 3.  Bit 0 counts 2, 4, 2: its count rises while its mass
    # falls, 1/2 -> 2/5, then rises to 2/3.  Bit 1 counts 1, 3, 2: its count
    # falls at step 2 while its mass rises, 3/10 -> 2/3.  Bit 2 repeats bit
    # 0's series, compared once: one drop, two Fractions
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(overview, "Fraction", CountingFraction)
    rows = [([2, 1, 2], 4), ([4, 3, 4], 10), ([2, 2, 2], 3)]
    steps = overview.falling_steps(rows)
    assert steps == [[(1, Fraction(1, 10))], [], [(1, Fraction(1, 10))]]
    assert steps[0] is steps[2]
    assert built == [(2, 4), (4, 10)]


def test_a_path_scan_writes_no_record_at_a_zero_gap_or_a_flat_mass():
    # on the 2-edge path the random cluster is Bernoulli(x): its two edge
    # events have FKG gap exactly 0 at every x, and the loop law is the
    # empty subgraph, so its connection masses are 0 at every point; a
    # zero gap and a flat step are no violation
    g, grid = Graph(3, ((0, 1), (1, 2))), dyadic_grid(4)
    rows = ["loop", "random_cluster", "double_current"]
    fkg, width, gaps = checkers.fkg_stat(overview._fkg_pairs(g))
    masses = measures.polynomial_masses(g, ["random_cluster"], fkg, width, grid)
    assert all(row[0] == 0 for row, _ in gaps(masses["random_cluster"]))
    found = overview.scan_graph("path", g, rows, grid)
    assert found == {row: {"FKG": [], "CON": [], "SING": []} for row in rows}


def test_a_zero_fkg_gap_is_not_a_witness():
    def zero_gap(n, m, x):
        return Fraction(0)

    with pytest.raises(LoopCurrentsError, match="expected a negative gap"):
        overview.certify_fkg(zero_gap, overview.FKG_LOOP_PARAMS)


def test_each_distinct_mass_polynomial_is_decoded_and_evaluated_once(monkeypatch):
    # the table's battery is symmetric: of the 663 packed bit sums of its
    # three scanned rows, 147 are distinct within their row, and 143 within
    # their call, as the double current and the double cluster share their
    # total; each is decoded once, and each polynomial_masses call evaluates
    # all its rows at once
    evaluated, decoded = [], []
    real_at, real_digits, real_masses = (
        measures._at_points,
        measures._signed_digits,
        overview.polynomial_masses,
    )

    def counting_at(polys, totals, degree, xs):
        evaluated.append(len(polys))
        return real_at(polys, totals, degree, xs)

    def counting_digits(value, digits, count):
        decoded[-1].append((value, digits))
        return real_digits(value, digits, count)

    def one_call(*args):
        decoded.append([])
        return real_masses(*args)

    monkeypatch.setattr(measures, "_at_points", counting_at)
    monkeypatch.setattr(measures, "_signed_digits", counting_digits)
    monkeypatch.setattr(overview, "polynomial_masses", one_call)
    overview.build_overview(6)
    # per graph, one call for the scanned rows and one for the loop's up-set
    # masses, which add 38 distinct polynomials over the four graphs
    assert (sum(evaluated), len(evaluated)) == (143 + 38, 8)
    assert len(decoded) == 2 * len(scan_battery())
    for values in decoded:
        assert len(values) == len(set(values))


def test_a_clean_scan_builds_no_fraction_from_masses(monkeypatch):
    # a scanned row with no violation reads its verdicts off integer masses
    g, grid = generalized_theta([1, 1, 1]), dyadic_grid(6)
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    def masses_then_count(*args):
        # count every Fraction built once the masses are in hand
        masses = real_masses(*args)
        for module in (overview, checkers, measures):
            monkeypatch.setattr(module, "Fraction", CountingFraction)
        return masses

    real_masses = overview.polynomial_masses
    monkeypatch.setattr(overview, "polynomial_masses", masses_then_count)
    found = overview.scan_graph("theta[1,1,1]", g, ["random_cluster"], grid)
    assert found == {"random_cluster": {"FKG": [], "CON": [], "SING": []}}
    assert built == []


def test_one_labels_pass_serves_both_connection_scans(monkeypatch):
    labelled = Counter()
    held = Counter()
    graphs = [
        ("counter(2,2)", counter_family(2, 2)),
        ("theta[1,1,1]", generalized_theta([1, 1, 1])),
    ]
    battery = {g.edges for _, g in graphs}

    def counting_labels(g, mask):
        labelled[g.edges, mask] += 1
        return component_labels(g, mask)

    def counting_holds(event, mask):
        if event.graph.edges in battery and event.graph.lengths is None:
            held[event.label, event.graph.edges, mask] += 1
        return real_holds(event, mask)

    real_holds = Event.holds
    monkeypatch.setattr(overview, "component_labels", counting_labels)
    monkeypatch.setattr(Event, "holds", counting_holds)
    report = overview.build_overview(6, 3, graphs=graphs)
    rows = report["models"]
    scanned = [m for m in MODELS if rows[m]["CON"]["status"] != overview.CERTIFIED_FALSE]
    assert len(scanned) == 3
    # CON, SING and FKG of the three scanned rows share one stat pass per
    # graph: one labelling, and one evaluation of each FKG event, per
    # configuration; the scanned rows' supports are the whole lattice
    support = {(g.edges, m) for _, g in graphs for m in range(1 << g.edge_count)}
    assert labelled == Counter(support)
    events = {(g.edges, ev.label) for _, g in graphs for ev in overview._fkg_events(g)}
    assert held == Counter(
        (label, edges, m) for edges, label in events for e, m in support if e == edges
    )


def test_fkg_scan_returns_exactly_the_oracles_negative_gaps():
    grid = dyadic_grid(3)
    for name, g in (("counter(2,2)", counter_family(2, 2)), ("K4", complete_graph(4))):
        laws = {x: build("loop", g, x) for x in grid}
        expected = []
        for x in grid:
            for a, b in combinations(overview._fkg_events(g), 2):
                both = Event(g, lambda m: a.holds(m) and b.holds(m))
                d = laws[x]
                gap = prob_bruteforce(d, both) - prob_bruteforce(d, a) * prob_bruteforce(d, b)
                if gap < 0:
                    expected.append(
                        {
                            "graph": name,
                            "events": [a.label, b.label],
                            "x": format_rational(x),
                            "gap": format_rational(gap),
                        }
                    )
        assert expected  # the loop model breaks FKG on both graphs
        assert overview.scan_graph(name, g, ["loop"], grid)["loop"]["FKG"] == expected


def test_mon_scans_run_a_flow_only_where_the_local_route_declines(flow_networks):
    # random-cluster and double-cluster laws have full support and are
    # lattice laws; double-current laws fail the lattice condition
    grid = dyadic_grid(4)
    for name, g in (("theta[1,1,1]", generalized_theta([1, 1, 1])), ("K4", complete_graph(4))):
        for model, flows in (("random_cluster", 0), ("double_cluster", 0), ("double_current", 1)):
            laws = [build(model, g, x) for x in grid]
            flow_networks.clear()
            assert overview.scan_mon(name, laws.__getitem__, grid) == []
            assert len(flow_networks) == flows * (len(grid) - 1)


def test_a_double_current_mon_scan_builds_its_covering_arcs_once(flow_networks):
    g = counter_family(2, 2)
    grid = dyadic_grid(4)
    laws = [build("double_current", g, x) for x in grid]
    checkers._covering_arcs.cache_clear()
    assert overview.scan_mon("counter(2,2)", laws.__getitem__, grid) == []
    # every law has full support, so every flow runs on the 8-dimensional
    # lattice: one network per flow, one set of arc lists for the scan
    assert flow_networks == [2 + (1 << g.edge_count)] * (len(grid) - 1)
    info = checkers._covering_arcs.cache_info()
    assert (info.misses, info.hits) == (1, len(grid) - 2)


def unbuilt(j):
    """A law callable that refuses every law: a scan that reads one fails."""
    raise AssertionError(f"law {j} was read")


# The rows whose MON cells are scanned, each k loop copies union Bernoulli(p).
UNION_ROWS = ("random_cluster", "double_current", "double_cluster")

# theta[1,1,3] alone: its loop law fails to dominate at steps 54-62 of the
# 63-point grid, so those steps of every scanned row take the fallback
# routes.  sha256 of its build_overview(6) JSON as computed with every MON
# step scanned on the rows' own laws.
THETA113 = generalized_theta([1, 1, 3])
THETA113_TABLE_DIGEST = "87f9783637c8e86262a264313414d994838b72ef8db952ddf7940b7cad7b1114"


def test_a_pinned_pair_where_the_single_current_rises_is_refused(monkeypatch, tmp_path):
    # the single current rises from 63/64 to 8065/8192, so no refinement
    # certifies a drop there: the table refuses it and writes no cell
    rising = (Fraction(63, 64), Fraction(8065, 8192))
    monkeypatch.setattr(overview, "SING_SINGLE_CURRENT_PAIR", rising)
    with pytest.raises(LoopCurrentsError, match="does not certify a drop"):
        overview.certify_sing_single_current()
    with pytest.raises(LoopCurrentsError, match="does not certify a drop"):
        overview.build_overview(6, graphs=[("counter(2,2)", counter_family(2, 2))])
    out = tmp_path / "table.json"
    assert cli.main(["table", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("steps", [1, 2, 3, 4])
def test_a_grid_below_the_sing_witnesses_is_refused_before_any_work(
    monkeypatch, tmp_path, capsys, steps
):
    def refuse(*args):
        raise AssertionError("the table ran before its resolution was checked")

    for name in ("dyadic_grid", "certify_fkg", "certify_sing_single_current", "scan_graph"):
        monkeypatch.setattr(overview, name, refuse)
    out = tmp_path / "table.json"
    assert cli.main(["table", "--grid-steps", str(steps), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: grid resolution {steps}: the SING witnesses need at least 5\n"
    )
    assert not out.exists()


def test_resolution_5_is_the_least_with_both_sing_pairs():
    # the loop's pair at (18, 2) first appears at resolution 4, the double
    # loop's at (38, 2) at 5
    for conn, family, least in (
        (theta.loop_conn, overview.SING_LOOP_PARAMS, 4),
        (theta.double_loop_conn, overview.SING_DOUBLE_LOOP_PARAMS, 5),
    ):
        found = [find_decreasing_pair(conn(*family), dyadic_grid(r)) for r in range(1, 6)]
        assert [pair is not None for pair in found] == [r >= least for r in range(1, 6)]
    assert overview.MIN_GRID_RESOLUTION == 5


def test_the_table_takes_resolution_5():
    # the least resolution admitted: both SING witnesses' pairs are on its
    # grid, so every refuted cell is certified from the witnesses alone
    report = overview.build_overview(5, graphs=[])
    assert report["consistent_with_expected"]
    for model in ("loop", "double_loop"):
        assert report["models"][model]["SING"]["status"] == "CERTIFIED-FALSE"


def test_fallback_steps_leave_the_table_unchanged():
    steps = overview.loop_dominating_steps(THETA113, dyadic_grid(6))
    assert steps == set(range(1, 54))
    report = overview.build_overview(6, graphs=[("theta[1,1,3]", THETA113)])
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == THETA113_TABLE_DIGEST


def test_the_loop_union_route_changes_no_mon_scan():
    grid = dyadic_grid(6)
    for name, g in [*scan_battery(), ("theta[1,1,3]", THETA113)]:
        steps = overview.loop_dominating_steps(g, grid)
        assert steps == set(range(1, 54 if g is THETA113 else len(grid)))
        for model in UNION_ROWS:
            laws = [build(model, g, x) for x in grid]
            certified = overview.loop_union_steps(model, grid) & steps
            assert certified == steps
            scan = overview.scan_mon(name, laws.__getitem__, grid, certified)
            assert scan == overview.scan_mon(name, laws.__getitem__, grid)


def test_battery_mon_scans_touch_no_model_law(flow_networks, monkeypatch):
    # every step of the four battery graphs takes the loop-union route, the
    # loop scan reads up-set masses, and no flow or Holley check runs
    holley = Counter()
    holley_steps = checkers._holley_steps

    def counting_holley(laws):
        holley[laws[0].graph.edges] += len(laws) - 1
        return holley_steps(laws)

    grid = dyadic_grid(6)
    battery = [(name, g, overview.loop_dominating_steps(g, grid)) for name, g in scan_battery()]
    assert flow_networks == []
    monkeypatch.setattr(checkers, "_holley_steps", counting_holley)
    for name, g, steps in battery:
        for model in UNION_ROWS:
            certified = overview.loop_union_steps(model, grid) & steps
            assert overview.scan_mon(name, unbuilt, grid, certified) == []
    assert flow_networks == [] and not holley
    # the patched routine is the one the scans call: an uncertified step of
    # the same scan is counted
    name, g, _ = battery[0]
    assert overview.scan_mon(name, lambda j: build("random_cluster", g, grid[j]), grid[:2]) == []
    assert holley == {g.edges: 1} and flow_networks == []


@st.composite
def loopless_multigraphs(draw) -> Graph:
    n = draw(st.integers(2, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return Graph(n, tuple(draw(st.lists(pairs, min_size=1, max_size=8))))


open_unit = st.fractions(0, 1, max_denominator=12).filter(lambda x: 0 < x < 1)


@settings(max_examples=40, deadline=None)
@given(g=loopless_multigraphs(), xs=st.lists(open_unit, min_size=2, max_size=2, unique=True))
def test_the_loop_union_lemma_against_the_flow(g, xs):
    x1, x2 = sorted(xs)
    up, down = [x1, x2], [x2, x1]
    loop_up = loop_dominating_steps_by_flow(g, up)
    loop_down = loop_dominating_steps_by_flow(g, down)
    for model in UNION_ROWS:
        if overview.loop_union_steps(model, up) & loop_up:
            assert checkers.stochastic_domination(build(model, g, x1), build(model, g, x2)).dominates
        # control: p falls along a decreasing grid, so the route certifies nothing
        assert overview.loop_union_steps(model, down) & loop_down == set()


# Loopless multigraphs of cycle dimension at most 4: fewer than 2^15
# nontrivial up-sets in their loop support, under the cap.
under_the_cap = loopless_multigraphs().filter(lambda g: len(cycle_space_basis(g)) <= 4)
unit = st.fractions(0, 1, max_denominator=12).filter(lambda x: x < 1)


@settings(max_examples=40, deadline=None)
@given(g=under_the_cap, xs=st.lists(unit, min_size=2, max_size=2, unique=True))
def test_the_upset_route_agrees_with_the_flow(g, xs):
    for grid in (xs, xs[::-1], dyadic_grid(5)):
        assert overview.loop_dominating_steps(g, grid) == loop_dominating_steps_by_flow(g, grid)


def test_every_loop_step_of_a_forest_dominates():
    # a forest's only even subgraph is the empty one: no up-set is read
    forest = Graph(5, ((0, 1), (1, 2), (1, 3)))
    for grid in (dyadic_grid(4), dyadic_grid(4)[::-1]):
        assert overview.loop_dominating_steps(forest, grid) == set(range(1, len(grid)))


def test_the_upset_counts_of_the_battery_and_the_cap(monkeypatch):
    widths = [overview._upset_stat(g)[1] for _, g in scan_battery()]
    assert widths == [7, 7, 127, 64]
    # K3,3's 15 nonempty even subgraphs are pairwise incomparable: the most
    # up-sets of cycle dimension 4, which the cap admits
    k33 = Graph(6, tuple((u, v) for u in range(3) for v in range(3, 6)))
    assert overview._upset_stat(k33)[1] == (1 << 15) - 1 <= overview.LOOP_UPSET_CAP

    def no_pass(*args):
        raise AssertionError("a mass pass ran before the cap was checked")

    # K4's seven cycles are pairwise incomparable, so every nonempty set of
    # them spans a nontrivial up-set: 127, admitted by a cap of exactly 127
    # and refused one below it
    monkeypatch.setattr(overview, "LOOP_UPSET_CAP", 127)
    assert overview._upset_stat(complete_graph(4))[1] == 127
    # three parallel edges have three incomparable even subgraphs, and the
    # lower bound 2^3 - 1 is their exact count: a cap of 7 admits it
    monkeypatch.setattr(overview, "LOOP_UPSET_CAP", 7)
    assert overview._upset_stat(Graph(2, ((0, 1),) * 3))[1] == 7
    monkeypatch.setattr(overview, "polynomial_masses", no_pass)
    monkeypatch.setattr(overview, "LOOP_UPSET_CAP", 126)
    with pytest.raises(CapExceededError) as info:
        overview.loop_dominating_steps(complete_graph(4), dyadic_grid(6))
    assert (info.value.what, info.value.size, info.value.cap) == (
        "loop support up-sets",
        "at least 127",
        126,
    )
    # seven parallel edges have 35 pairwise incomparable even subgraphs of
    # four edges, so at least 2^35 - 1 up-sets: the bound refuses them
    # before any up-set is enumerated
    monkeypatch.undo()
    monkeypatch.setattr(overview, "polynomial_masses", no_pass)
    with pytest.raises(CapExceededError) as info:
        overview.loop_dominating_steps(Graph(2, ((0, 1),) * 7), dyadic_grid(6))
    assert info.value.size == f"at least {(1 << 35) - 1}"
