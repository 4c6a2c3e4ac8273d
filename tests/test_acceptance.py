"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints one PASS/FAIL line.  Tolerances are zero (exact rational
equality) unless a criterion is about certified inequalities, where the
certificate is interval disjointness or an exact comparison.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from loopcurrents import overview
from loopcurrents.battery import verification_battery
from loopcurrents.checkers import fkg_gaps, stochastic_domination
from loopcurrents.events import connect
from loopcurrents.graphs import complete_graph, counter_family, generalized_theta
from loopcurrents.intervals import certify_decreasing_pair
from loopcurrents.measures import (
    bernoulli,
    build,
    double_current,
    double_loop,
    loop_o1,
    prob,
    pythagorean_x,
    push_uniform_even,
    union,
    point_mass,
)
from loopcurrents.overview import (
    CERTIFIED_FALSE,
    HOLDS,
    KNOWN_VERDICTS,
    OPEN,
    OPEN_STATUS,
    REFUTED,
    SCAN_CLEAN,
    SING_SINGLE_CURRENT_PARAMS,
    build_overview,
    certify_sing_single_current,
)
from loopcurrents.rationals import dyadic_grid, find_decreasing_pair, format_rational
from loopcurrents.theta import (
    counter_pair_connect_table,
    double_loop_conn,
    double_loop_fkg_gap,
    loop_conn,
    single_current_conn_interval,
    single_current_fkg_gap,
    theta_loop_events,
    theta_pair_event_table,
)

from expected_tables import (
    BOTH_LOOPS_TABLE,
    CONNECT_PAIR_TABLE,
    COUNTER_TABLE_CONNECTS,
    COUNTER_TABLE_EDGES,
    FIRST_LOOP_TABLE,
    as_bools,
)
from oracles import (
    counter_even_table,
    cyclic_count,
    cyclic_count_ratio,
    cyclic_edges,
    dist_from_weights,
    domination_bruteforce,
    double_current_lis,
    double_loop_fkg_difference,
    exact_rows,
    histogram,
    near_one_grid,
    trailing_term,
)

F = Fraction
STANDARD_X = (F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10))


def check(num: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def battery():
    return verification_battery()


@pytest.fixture(scope="module")
def overview_report():
    return build_overview(grid_resolution=6)


def test_criterion_01_new_coupling_theorem(battery):
    started = time.monotonic()
    for name, g in battery:
        for x in STANDARD_X:
            pushed = push_uniform_even(double_current(g, x))
            assert pushed.same_law(loop_o1(g, x)), (name, x)
    elapsed = time.monotonic() - started
    check(
        "C01",
        elapsed < 60,
        f"uniform-even pushforward of the double current equals the loop model "
        f"on {len(battery)} graphs x {len(STANDARD_X)} weights, exact, {elapsed:.1f}s",
    )


def test_criterion_02_counting_characterization_equivalence(battery):
    for name, g in battery:
        for x in STANDARD_X:
            assert double_current_lis(g, x).same_law(double_current(g, x)), (name, x)
    check("C02", True, "even-count formula route equals the union construction, exact")


def test_criterion_03_half_cyclic_edge_identities(battery):
    for name, g in battery:
        cyclic_cache: dict[int, int] = {}

        def cyc(mask: int) -> int:
            if mask not in cyclic_cache:
                cyclic_cache[mask] = cyclic_edges(g, mask)
            return cyclic_cache[mask]

        for x in STANDARD_X:
            lo = loop_o1(g, x)
            dc = double_current(g, x)
            rc = build("random_cluster", g, x)
            for e in range(g.edge_count):
                bit = 1 << e
                loop_mass = sum(
                    (w for m, w in lo.weights.items() if m & bit), F(0)
                ) / lo.z
                dc_mass = sum(
                    (w for m, w in dc.weights.items() if cyc(m) & bit), F(0)
                ) / dc.z
                rc_mass = sum(
                    (w for m, w in rc.weights.items() if cyc(m) & bit), F(0)
                ) / rc.z
                assert dc_mass / 2 == loop_mass == rc_mass / 2, (name, x, e)
    check("C03", True, "half the open-and-cyclic mass equals the loop edge mass, exact")


def test_criterion_04_loop_connection_not_monotone_for_m2():
    started = time.monotonic()
    for n in range(8, 19):
        form = loop_conn(n, 2)
        pair = None
        for resolution in (8, 10):
            pair = find_decreasing_pair(form, dyadic_grid(resolution))
            if pair:
                break
        assert pair is not None, f"no decreasing pair for n={n}"
        x1, x2, v1, v2 = pair
        assert x1 < x2 and v1 > v2
    for n in (2, 3, 4):
        g = counter_family(n, 2)
        for x in (F(1, 3), F(1, 2), F(9, 10)):
            assert loop_conn(n, 2)(x) == prob(loop_o1(g, x), connect(g))
    elapsed = time.monotonic() - started
    check(
        "C04",
        elapsed < 60,
        f"certified decreasing pairs for n=8..18 at m=2 and exact enumeration "
        f"agreement at n=2,3,4, {elapsed:.1f}s",
    )


def test_criterion_05_single_current_connection_dip(monkeypatch):
    # the table re-certifies a pinned pair; the search over the 256 points
    # 1 - k/2^14 below 1 re-derives it, so the constant cannot drift from it
    certified = []

    def recorded(f, grid):
        certified.append(certify_decreasing_pair(f, grid))
        return certified[-1]

    monkeypatch.setattr(overview, "certify_decreasing_pair", recorded)
    started = time.monotonic()
    witness = certify_sing_single_current()
    n, m = SING_SINGLE_CURRENT_PARAMS
    searched = certify_decreasing_pair(
        lambda x, bits: single_current_conn_interval(n, m, x, bits), near_one_grid(14, 256)
    )
    elapsed = time.monotonic() - started
    assert searched is not None, "no certified pair on the 256-point mesh"
    x1, x2, iv1, _ = searched
    pair = witness["pair"]
    check(
        "C05",
        certified == [searched]
        and (pair["x1"], pair["x2"]) == (format_rational(x1), format_rational(x2))
        and elapsed < 300,
        f"the table's pinned pair for the (2000,300) single current, x1={pair['x1']}, "
        f"x2={pair['x2']}, is the one the 256-point search certifies via disjoint "
        f"enclosures at {iv1.bits} bits, {elapsed:.1f}s",
    )


def test_criterion_06_double_loop_connection_dip():
    found = {}
    for n, m in ((38, 2), (2, 18)):
        found[(n, m)] = find_decreasing_pair(double_loop_conn(n, m), dyadic_grid(6))
    assert found[(38, 2)] is not None or found[(2, 18)] is not None
    g = counter_family(2, 2)
    for x in (F(1, 3), F(1, 2)):
        assert double_loop_conn(2, 2)(x) == prob(double_loop(g, x), connect(g))
    located = [k for k, v in found.items() if v is not None]
    check(
        "C06",
        True,
        f"double-loop decreasing pair certified at parameter ordering(s) {located}; "
        f"(2,2) closed form equals the 8x8 pair enumeration, exact",
    )


class TestCriterion07FkgCounterexamples:
    def test_criterion_07a_loop_model_gap_negative(self):
        g, first, second = theta_loop_events(2, 2)
        gap = exact_rows(fkg_gaps([loop_o1(g, F(1, 10))], [(first, second)]))[0][0]
        check("C07a", gap < 0, f"loop-model gap at (2,2), x=1/10 is {gap}")

    def test_criterion_07b_single_current_gap_negative_at_x_4_5(self):
        """Single-current FKG violation at x = 4/5 (t = 1/2).

        The criterion first named theta(2, 2, 2), where the gap at x = 4/5 is
        exactly +631104/24750625.  On theta(n, 2, n) the gap changes sign once
        in t, at t* ~ 0.2956 (x ~ 0.544) for n = 2, 0.4966 (x ~ 0.797) for
        n = 3 and 0.5881 (x ~ 0.874) for n = 4, so n = 4 is the smallest
        member of the family that violates FKG at x = 4/5.
        """
        t = F(1, 2)
        x = pythagorean_x(t)  # x = 2t/(1+t^2) = 4/5 exactly
        g, first, second = theta_loop_events(2, 2)
        refuted = exact_rows(fkg_gaps([build("single_current", g, x)], [(first, second)]))[0][0]
        assert refuted == single_current_fkg_gap(2, 2, t) == F(631104, 24750625)
        assert refuted > 0
        g, first, second = theta_loop_events(4, 2)
        gap = exact_rows(fkg_gaps([build("single_current", g, x)], [(first, second)]))[0][0]
        assert gap == single_current_fkg_gap(4, 2, t)
        check(
            "C07b",
            gap < 0,
            f"single-current gap on theta(4,2,4) at x=4/5 is {gap}; "
            f"on theta(2,2,2) it is +{refuted}, exact",
        )

    def test_criterion_07c_single_current_gap_negative_at_small_t(self):
        g, first, second = theta_loop_events(2, 2)
        for t in (F(1, 10), F(1, 4)):
            law = build("single_current", g, pythagorean_x(t))
            gap = exact_rows(fkg_gaps([law], [(first, second)]))[0][0]
            assert gap < 0, (t, gap)
        check("C07c", True, "single-current gap negative at t=1/10 and t=1/4, exact")

    def test_criterion_07d_double_loop_gap_negative_at_2_2(self):
        """Double-loop FKG violation on the three-path theta graph.

        The criterion first named theta(2, 2, 2).  At n = m the x^(3n+m) and
        x^(2n+2m) terms coincide and the gap is exactly
        (2x^8 + 8x^12 + 5x^16)/Z^4 with Z = 1 + 3x^4, positive for every x in
        (0, 1), so that claim is refuted.  For n > m the lowest-order term of
        Z^4 times the gap is -2x^(2n+2m) (C07e), so theta(3, 2, 3) violates
        FKG at small x.  Its gap is exactly 0 at x = 1/2.
        """
        g, first, second = theta_loop_events(2, 2)
        rows = exact_rows(fkg_gaps([double_loop(g, x) for x in STANDARD_X], [(first, second)]))
        for x, (refuted,) in zip(STANDARD_X, rows):
            assert refuted * (1 + 3 * x**4) ** 4 == 2 * x**8 + 8 * x**12 + 5 * x**16, x
            assert refuted > 0, x
        g, first, second = theta_loop_events(3, 2)
        rows = exact_rows(fkg_gaps([double_loop(g, x) for x in STANDARD_X], [(first, second)]))
        gaps = {x: gap for x, (gap,) in zip(STANDARD_X, rows)}
        for x, gap in gaps.items():
            assert gap == double_loop_fkg_gap(3, 2, x), x
        assert gaps[F(1, 10)] < 0 and gaps[F(1, 4)] < 0
        x_min = min(gaps, key=gaps.get)
        check(
            "C07d",
            gaps[x_min] < 0,
            f"double-loop gap on theta(3,2,3) at x={x_min} is {gaps[x_min]} "
            f"(minimum over the standard weights); on theta(2,2,2) it is "
            f"(2x^8 + 8x^12 + 5x^16)/(1 + 3x^4)^4 > 0, exact",
        )

    def test_criterion_07e_double_loop_difference_leading_order(self):
        for n, m in ((3, 2), (4, 2), (5, 2), (7, 4)):
            exponent, coeff = trailing_term(double_loop_fkg_difference(n, m))
            assert (exponent, coeff) == (2 * n + 2 * m, F(2)), (n, m)
        check(
            "C07e",
            True,
            "double-loop gap difference has exact leading term 2*x^(2n+2m) for n > m",
        )


def test_criterion_08_overview_table(overview_report):
    report = overview_report
    status_for = {REFUTED: CERTIFIED_FALSE, HOLDS: SCAN_CLEAN, OPEN: OPEN_STATUS}
    for model, row in report["models"].items():
        for prop, cell in row.items():
            expected = status_for[KNOWN_VERDICTS[model][prop]]
            assert cell["status"] == expected, (model, prop, cell["status"])
            if cell["status"] == CERTIFIED_FALSE:
                assert cell["witness"], (model, prop)
            else:
                assert cell["scan"]["violations"] == [], (model, prop)
    for model in ("random_cluster", "double_cluster"):
        assert report["models"][model]["MON"]["scan"]["violations"] == []
    check(
        "C08",
        report["consistent_with_expected"],
        "every refuted cell carries a witness; holds cells scan clean on the "
        "64-point grid; open cells stay open with scan evidence",
    )


# sha256 of the `table --grid-steps 6` JSON.  A change that alters the table
# on purpose updates this digest and says so in CHANGES.md.
TABLE_DIGEST = "5e98c0228e0242486cf6d07a4f57faf48ece64520b1d011d479f8919d517a471"


def test_overview_table_json_is_pinned(overview_report):
    text = json.dumps(overview_report, indent=2)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TABLE_DIGEST


def test_criterion_09_mechanical_tables_regenerate():
    assert theta_pair_event_table(2, 2, "first") == as_bools(FIRST_LOOP_TABLE)
    assert theta_pair_event_table(2, 2, "both") == as_bools(BOTH_LOOPS_TABLE)
    assert counter_pair_connect_table(2, 2) == as_bools(CONNECT_PAIR_TABLE)
    n, m = 2, 2
    sizes = {"0": 0, "2m": 2 * m, "n+m": n + m, "2n": 2 * n, "2n+2m": 2 * n + 2 * m}
    rows = counter_even_table(n, m)
    assert [r["edges"] for r in rows] == [sizes[s] for s in COUNTER_TABLE_EDGES]
    assert [r["connects_marks"] for r in rows] == COUNTER_TABLE_CONNECTS
    assert [r["weight_exponent"] for r in rows] == [r["edges"] for r in rows]
    check("C09", True, "pair tables and the eight-subgraph table regenerate cell-for-cell")


def test_criterion_10_checker_soundness():
    rng = random.Random(20240404)
    g = complete_graph(4)

    def random_dist(max_support=12):
        size = rng.randint(1, max_support)
        masks = rng.sample(range(1 << g.edge_count), size)
        return dist_from_weights(
            g, {m: F(rng.randint(1, 9), rng.randint(1, 9)) for m in masks}
        )

    dominating = failing = 0
    for trial in range(200):
        lo = random_dist()
        if trial % 2:
            hi = random_dist()
        else:
            # union with a random point mass dominates by construction
            hi = union(lo, point_mass(g, rng.randrange(1 << g.edge_count)))
        flow = stochastic_domination(lo, hi)
        brute = domination_bruteforce(lo, hi)
        assert flow.dominates == brute.dominates, trial
        if flow.dominates:
            dominating += 1
        else:
            failing += 1
            assert flow.witness.gap > 0 and brute.witness.gap > 0

    from loopcurrents.events import all_open, edge_open

    for p in (F(1, 4), F(2, 3)):
        for graph in (generalized_theta([1, 1, 1]), g):
            d = bernoulli(graph, p)
            events = [
                edge_open(graph, 0),
                edge_open(graph, graph.edge_count - 1),
                all_open(graph, [0, 1]),
                connect(graph, 0, 1),
            ]
            for i, a in enumerate(events):
                for b in events[i:]:
                    assert exact_rows(fkg_gaps([d], [(a, b)]))[0][0] >= 0
    check(
        "C10",
        dominating > 0 and failing > 0,
        f"flow verdicts match the up-set oracle on 200 pairs "
        f"({dominating} dominating, {failing} failing); Harris gaps non-negative",
    )


def test_criterion_11_cyclic_count_ratio():
    l, m, n = 2, 2, 3
    g = generalized_theta([l, m, n])
    x = F(1, 2)
    count = cyclic_count(g)
    cluster_mass = histogram(build("random_cluster", g, x), count)[l + m]
    double_mass = histogram(double_current(g, x), count)[l + m]
    ratio = cyclic_count_ratio(l, m, n)(x)
    assert ratio == cluster_mass / double_mass
    check("C11", ratio != 1, f"cyclic-size mass ratio at (2,2,3), x=1/2 is {ratio} != 1")
