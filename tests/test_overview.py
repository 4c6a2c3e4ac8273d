from collections import Counter
from itertools import combinations

from loopcurrents import checkers, overview
from loopcurrents.events import connect, custom
from loopcurrents.graphs import component_labels, complete_graph, counter_family, generalized_theta
from loopcurrents.measures import MODELS, build, prob
from loopcurrents.rationals import dyadic_grid, format_rational

from oracles import prob_bruteforce


def test_each_law_is_built_once_and_shared_by_the_scans(monkeypatch):
    built = Counter()
    def counting_build(name, graph, x):
        built[name, graph.edges, x] += 1
        return build(name, graph, x)

    monkeypatch.setattr(overview, "build", counting_build)
    theta111 = generalized_theta([1, 1, 1])
    report = overview.build_overview(6, 3, graphs=[("theta[1,1,1]", theta111)])
    assert report["consistent_with_expected"]
    assert set(built.values()) == {1}
    rows = report["models"]
    scanned = [m for m in MODELS if rows[m]["MON"]["status"] != overview.CERTIFIED_FALSE]
    # the MON grid is inside the scan grid, so each scanned model needs one
    # law per scan grid point; the two certified SING rows need two each
    assert len(built) == len(scanned) * len(dyadic_grid(6)) + 4


def test_connection_masses_are_exact_connection_probabilities():
    g = counter_family(2, 2)
    grid = dyadic_grid(3)
    laws = [build("double_current", g, x) for x in grid]
    masses = overview._connection_masses(laws, g, overview._singleton_pairs(g), {})
    assert masses == [[prob(d, connect(g)) for d in laws]]


def test_one_labels_pass_serves_both_connection_scans(monkeypatch):
    labelled = Counter()

    def counting_labels(g, mask):
        labelled[g.edges, mask] += 1
        return component_labels(g, mask)

    monkeypatch.setattr(overview, "component_labels", counting_labels)
    graphs = [
        ("counter(2,2)", counter_family(2, 2)),
        ("theta[1,1,1]", generalized_theta([1, 1, 1])),
    ]
    report = overview.build_overview(6, 3, graphs=graphs)
    rows = report["models"]
    scanned = [m for m in MODELS if rows[m]["CON"]["status"] != overview.CERTIFIED_FALSE]
    assert len(scanned) == 3
    # CON and SING of the three scanned rows share one labels pass per
    # configuration of each graph
    support = {
        (g.edges, m) for _, g in graphs for model in scanned for x in dyadic_grid(6)
        for m in build(model, g, x).nums
    }
    assert labelled == Counter(support)


def test_fkg_scan_returns_exactly_the_oracles_negative_gaps():
    grid = dyadic_grid(3)
    for name, g in (("counter(2,2)", counter_family(2, 2)), ("K4", complete_graph(4))):
        laws = {x: build("loop", g, x) for x in grid}
        expected = []
        for x in grid:
            for a, b in combinations(overview._fkg_events(g), 2):
                both = custom(g, lambda m: a.holds(m) and b.holds(m))
                d = laws[x]
                gap = prob_bruteforce(d, both) - prob_bruteforce(d, a) * prob_bruteforce(d, b)
                if gap < 0:
                    expected.append(
                        {
                            "graph": name,
                            "events": [a.describe(), b.describe()],
                            "x": format_rational(x),
                            "gap": format_rational(gap),
                        }
                    )
        assert expected  # the loop model breaks FKG on both graphs
        assert overview.scan_fkg(name, g, laws, grid) == expected


def test_mon_scans_run_a_flow_only_where_the_local_route_declines(flow_networks):
    # random-cluster and double-cluster laws have full support and are
    # lattice laws; double-current laws fail the lattice condition
    grid = dyadic_grid(4)
    for name, g in (("theta[1,1,1]", generalized_theta([1, 1, 1])), ("K4", complete_graph(4))):
        for model, flows in (("random_cluster", 0), ("double_cluster", 0), ("double_current", 1)):
            laws = {x: build(model, g, x) for x in grid}
            flow_networks.clear()
            assert overview.scan_mon(name, laws, grid) == []
            assert len(flow_networks) == flows * (len(grid) - 1)


def test_a_double_current_mon_scan_builds_its_covering_arcs_once(flow_networks):
    g = counter_family(2, 2)
    grid = dyadic_grid(4)
    laws = {x: build("double_current", g, x) for x in grid}
    checkers._covering_arcs.cache_clear()
    assert overview.scan_mon("counter(2,2)", laws, grid) == []
    # every law has full support, so every flow runs on the 8-dimensional
    # lattice: one network per flow, one set of arc lists for the scan
    assert flow_networks == [2 + (1 << g.edge_count)] * (len(grid) - 1)
    info = checkers._covering_arcs.cache_info()
    assert (info.misses, info.hits) == (1, len(grid) - 2)
