"""Model-by-property certification: the overview table.

For each of the six models (loop, single current, random cluster, and
their doubles) and each property (FKG, MON, CON, SING) the builder emits
one cell:

* CERTIFIED-FALSE: the property is refuted by an exact witness
  (a negative FKG gap, a certified decreasing pair, or an up-set whose
  masses reverse);
* SCAN-CLEAN: the property is expected to hold; our scans found no
  violation (this is evidence, not a proof, and is reported as such);
* OPEN: the property's status is unknown; scans are attached as evidence
  with no verdict claimed.

The expected verdict per cell is fixed (KNOWN_VERDICTS); the builder
refuses to upgrade an open cell to a claim and treats a failed scan on a
"holds" cell as an error worth surfacing loudly.

The loop and double-loop SING pairs' falling event {a <-> b} is increasing,
so its up-set is their MON witness, and no flow runs (:func:`certify_sing`).
The single current's SING witness is a pinned pair near x = 1 on
counter(2000, 300) (``SING_SINGLE_CURRENT_PAIR``), which every run
re-certifies by disjoint enclosures and no run searches for: acceptance
C05 re-derives it from the 256-point mesh it came from, and
``figure --model P --window`` is the search a user runs.

The scans run graph by graph.  FKG, CON and SING come from one
:func:`scan_graph` per graph: ``measures.polynomial_masses`` builds each
scanned row once, as integer polynomials in x, and evaluates its masses at
every grid point, so no law is built per point, and the FKG events and the
component labels run once per configuration for all the rows.  The scans
compare integer masses by cross-multiplying, and build a ``Fraction`` only
for a violation they write out.  Every falling step, of a watched pair's
connection mass or of a loop up-set's mass, comes from
:func:`falling_steps`, which compares each distinct series once: the
watched pairs of a symmetric graph share series, and every pair still
writes its own records.

MON takes each step of a scanned row by one of three routes, all in one
:func:`scan_mon` call over the graphs.  The first, ``loop-union``, is this
module's alone: the rows are k independent loop laws unioned with
Bernoulli(p(x)), so if the loop law at x2 dominates the one at x1 and
p(x1) <= p(x2), the row at x2 dominates the row at x1.  The steps where p
does not fall are read once per row; a graph's loop steps are read once,
off the masses of the up-sets of the loop law's support
(:func:`loop_dominating_steps`), so no law is built and no flow runs for
such a step.  Every other step goes to ``holley-local`` and then ``flow``
on the row's own laws (``checkers.monotonicity_scan``), built only for
such a step, so every violation and its up-set still comes from a min cut
on the model's laws.  ``verify sumthm`` checks this very lemma, so it
scans the union laws themselves and never uses the route.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Callable

from . import theta
from .battery import scan_battery
from .checkers import _upset_witness, fkg_stat, monotonicity_scan
from .errors import CapExceededError, LoopCurrentsError, ParametrizationError
from .events import Event, all_open, connect, edge_open
from .graphs import Graph, component_labels, counter_family, even_subgraphs
from .intervals import certify_decreasing_pair
from .measures import MODELS, build, polynomial_masses, pythagorean_x
from .rationals import dyadic_grid, find_decreasing_pair, format_rational

REFUTED = "refuted"
HOLDS = "holds"
OPEN = "open"

PROPERTIES = ("FKG", "MON", "CON", "SING")

KNOWN_VERDICTS: dict[str, dict[str, str]] = {
    "loop": {p: REFUTED for p in PROPERTIES},
    "single_current": {p: REFUTED for p in PROPERTIES},
    "random_cluster": {p: HOLDS for p in PROPERTIES},
    "double_loop": {p: REFUTED for p in PROPERTIES},
    "double_current": {"FKG": OPEN, "MON": OPEN, "CON": OPEN, "SING": HOLDS},
    "double_cluster": {p: HOLDS for p in PROPERTIES},
}

CERTIFIED_FALSE = "CERTIFIED-FALSE"
SCAN_CLEAN = "SCAN-CLEAN"
SCAN_FAILED = "SCAN-FAILED"
OPEN_STATUS = "OPEN"

# Family parameters for the refutation witnesses.  FKG gaps live on the
# three-path theta graph; the double-loop gap needs n > m (at n = m the two
# leading terms collide and the gap is positive).  Connection-probability
# dips live on the four-path counter family.
FKG_LOOP_PARAMS = (2, 2, Fraction(1, 10))
FKG_SINGLE_CURRENT_PARAMS = (2, 2, Fraction(1, 4))  # t, not x
FKG_DOUBLE_LOOP_PARAMS = (3, 2, Fraction(1, 10))
SING_LOOP_PARAMS = (18, 2)
SING_DOUBLE_LOOP_PARAMS = (38, 2)
# The least grid resolution whose grid holds a decreasing pair of both
# closed forms: loop_conn(18, 2) has none at resolutions 1 to 3, and
# double_loop_conn(38, 2) none at 4.
MIN_GRID_RESOLUTION = 5
SING_SINGLE_CURRENT_PARAMS = (2000, 300)
# The single current's dip sits in a narrow window near x = 1, between the
# neighbouring points 1 - k/2^14 at k = 17 and 16.
SING_SINGLE_CURRENT_PAIR = (Fraction(16367, 16384), Fraction(1023, 1024))


# ---------------------------------------------------------------------------
# Refutation witnesses


def certify_fkg(gap_fn, params: tuple[int, int, Fraction], param: str = "x") -> dict:
    """Negative FKG gap of the closed form ``gap_fn`` on theta(n, m, n).

    The third parameter is x, or with ``param="t"`` the Pythagorean t of
    x = 2t/(1+t^2), which the witness then records beside x.
    """
    n, m, s = params
    gap = gap_fn(n, m, s)
    if gap >= 0:
        raise LoopCurrentsError(f"expected a negative gap from {gap_fn.__name__}{params}")
    point = {"x": format_rational(s)}
    if param == "t":
        point = {"t": format_rational(s), "x": format_rational(pythagorean_x(s))}
    return {
        "family": f"theta({n},{m},{n})",
        **point,
        "gap": format_rational(gap),
        "events": "both n+m loops fully open",
    }


def certify_sing(model: str, family: tuple[int, int], grid: Sequence[Fraction]) -> tuple[dict, dict]:
    """Decreasing pair of ``model``'s P(a <-> b) on counter(n, m), read on
    its core, and the MON witness: the up-set U of the lower law's connected
    masks lies inside {a <-> b} and holds all its mass, value1, so the higher
    law gives U at most value2, and no flow runs (Strassen 1965)."""
    n, m = family
    pair = find_decreasing_pair(theta._core_conn(model, n, m), grid)
    if pair is None:
        raise LoopCurrentsError(f"no decreasing pair of the {model} on counter({n},{m}) on the grid")
    x1, x2, v1, v2 = pair
    g = counter_family(n, m)
    lo, hi = build(model, g, x1), build(model, g, x2)
    witness = _upset_witness([mask for mask in lo.nums if connect(g).holds(mask)], lo, hi)
    if witness.gap <= 0:
        raise LoopCurrentsError("internal error: a falling connection event gave no up-set gap")
    pair = {
        "x1": format_rational(x1),
        "x2": format_rational(x2),
        "value1": format_rational(v1),
        "value2": format_rational(v2),
        "exact": True,
    }
    sing = {"family": f"counter({n},{m})", "pair": pair}
    return sing, dict(sing, upset_witness=witness.to_json_dict())


def certify_sing_single_current() -> dict:
    """Interval-certified decreasing pair for the single current at (2000, 300).

    Every run re-certifies the pinned pair ``SING_SINGLE_CURRENT_PAIR`` as a
    two-point grid: the enclosures at both points are refined until they
    are disjoint, which proves the drop, and a pair that does not certify
    is refused.  No search runs here; acceptance C05 re-derives the pair by
    searching the mesh near x = 1, and ``figure --model P --window`` is the
    search a user runs.
    """
    n, m = SING_SINGLE_CURRENT_PARAMS

    def enclosure(x, bits):
        return theta.single_current_conn_interval(n, m, x, bits)

    found = certify_decreasing_pair(enclosure, SING_SINGLE_CURRENT_PAIR)
    if found is None:
        x1, x2 = map(format_rational, SING_SINGLE_CURRENT_PAIR)
        raise LoopCurrentsError(
            f"the pinned pair x1={x1}, x2={x2} does not certify a drop "
            f"of the single current at {(n, m)}"
        )
    x1, x2, iv1, iv2 = found
    return {
        "family": f"counter({n},{m})",
        "pair": {
            "x1": format_rational(x1),
            "x2": format_rational(x2),
            "value1_enclosure": [format_rational(iv1.lo), format_rational(iv1.hi)],
            "value2_enclosure": [format_rational(iv2.lo), format_rational(iv2.hi)],
            "exact": False,
            "certified": "enclosures disjoint",
        },
    }


# ---------------------------------------------------------------------------
# Scan evidence for holds / open cells


def _connection_stat(g: Graph, side_pairs: Sequence[tuple[tuple, tuple]]) -> Callable[[int], int]:
    """The stat with bit i set when some vertex of A and some of B share a
    component, for the i-th pair (A, B): one component labelling per
    configuration."""
    # each vertex pair {u, v} carries the bits of the pairs it would connect
    joins: dict[tuple[int, int], int] = {}
    for i, (side_a, side_b) in enumerate(side_pairs):
        for u in side_a:
            for v in side_b:
                key = (min(u, v), max(u, v))
                joins[key] = joins.get(key, 0) | 1 << i

    def stat(m):
        lab = component_labels(g, m)
        bits = 0
        for (u, v), joined in joins.items():
            if lab[u] == lab[v]:
                bits |= joined
        return bits

    return stat


def _fkg_pairs(g: Graph) -> list[tuple[Event, Event]]:
    """Every pair of the FKG scan's four increasing events on g: the first
    and the last edge open, edges 0 and 1 both open, and the marks (else
    vertices 0 and 1) connected."""
    events = [edge_open(g, 0), edge_open(g, g.edge_count - 1), all_open(g, [0, 1])]
    events.append(connect(g) if g.marks is not None else connect(g, 0, 1))
    return list(combinations(events, 2))


def _watched(g: Graph) -> list[tuple[str, tuple[tuple, tuple], str]]:
    """(property, vertex-set pair, event label) for every pair the
    connection scans watch on g: CON's disjoint pairs of vertex sets of
    one or two vertices, then SING's single vertices, the marks if the
    graph has them, else every pair."""
    verts = range(g.vertex_count)
    sets = [c for k in (1, 2) for c in combinations(verts, k)]
    singles = [tuple(g.marks)] if g.marks is not None else combinations(verts, 2)
    disjoint = [(a, b) for a in sets for b in sets if a < b and not set(a) & set(b)]
    return [("CON", (a, b), f"connect-sets:{a},{b}") for a, b in disjoint] + [
        ("SING", ((u,), (v,)), f"connect:{u},{v}") for u, v in singles
    ]


def scan_graph(name: str, g: Graph, models: Sequence[str], grid) -> dict[str, dict[str, list]]:
    """The FKG, CON and SING scans of graph ``name`` for each row of
    ``models``, as ``{model: {"FKG": [...], "CON": [...], "SING": [...]}}``.
    One ``polynomial_masses`` call reads a stat whose first ``width`` bits
    are the FKG battery's (``checkers.fkg_stat``) and whose bit ``width +
    i`` is watched pair i (:func:`_watched`), so the events and the
    component labels run once per configuration for all the rows.  Signs
    are read off the integer masses, and only a violation becomes a
    ``Fraction``.  Each watched pair's falling steps come from
    :func:`falling_steps`.  FKG records run by (x, pair), CON and SING by
    (watched pair, step), each with the keys graph, event, x1 and x2, and
    SING's with the drop too."""
    pairs = _fkg_pairs(g)
    fkg, width, gaps = fkg_stat(pairs)
    watched = _watched(g)
    connected = _connection_stat(g, [pair for _, pair, _ in watched])
    masses = polynomial_masses(
        g, models, lambda m: fkg(m) | connected(m) << width, width + len(watched), grid
    )
    scans = {}
    for model, rows in masses.items():
        found = {"CON": [], "SING": []}
        found["FKG"] = [
            {
                "graph": name,
                "events": [a.label, b.label],
                "x": format_rational(x),
                "gap": format_rational(Fraction(gap, den)),
            }
            for x, (row, den) in zip(grid, gaps(rows))
            for (a, b), gap in zip(pairs, row)
            if gap < 0
        ]
        connections = [(counts[width:], total) for counts, total in rows]
        for (prop, _, event), falls in zip(watched, falling_steps(connections)):
            for j, drop in falls:
                x1, x2 = map(format_rational, grid[j - 1 : j + 1])
                record = {"graph": name, "event": event, "x1": x1, "x2": x2}
                if prop == "SING":
                    record["drop"] = format_rational(drop)
                found[prop].append(record)
        scans[model] = found
    return scans


def falling_steps(rows: Sequence[tuple[Sequence[int], int]]) -> list[list[tuple[int, Fraction]]]:
    """For each bit i of the mass rows ``(counts, total)`` along a grid, one
    per point, the steps ``(j, drop)`` at which its mass counts[i] / total
    falls from point j - 1 to point j, by ``drop``.  The rows are transposed
    once into one series per bit, each distinct series is compared once, by
    cross-multiplying, and a ``Fraction`` is built only for a drop; bits
    with the same series share one list."""
    totals = [total for _, total in rows]
    falls: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}  # a series' falls
    out = []
    for series in zip(*(counts for counts, _ in rows)):
        if series not in falls:
            falls[series] = [
                (j, Fraction(series[j - 1], totals[j - 1]) - Fraction(series[j], totals[j]))
                for j in range(1, len(series))
                # series[j] / totals[j] < series[j-1] / totals[j-1], cross-multiplied
                if series[j] * totals[j - 1] < series[j - 1] * totals[j]
            ]
        out.append(falls[series])
    return out


# Most nontrivial up-sets of a loop law's support that
# :func:`loop_dominating_steps` reads, one mass bit each.  The battery has
# 7, 7, 127 and 64.  Cycle dimension 4 has at most 2^15 - 1, when its 15
# nonempty even subgraphs are pairwise incomparable, as on K3,3 (0.15-0.18 s
# and a 40 MB peak on a 63-point grid, CPython 3.11, 2-vCPU Xeon), and the cap
# admits it; six parallel edges (dimension 5) have 89,126, which took
# 0.6-1.4 s and 86 MB, and it refuses them while they are counted.
LOOP_UPSET_CAP = 1 << 15


def _upset_stat(g: Graph) -> tuple[Callable[[int], int], int]:
    """``(stat, width)`` for the nontrivial up-sets of g's loop support, the
    even subgraphs under inclusion: bit i of stat(h) is set when the even
    subgraph h lies in up-set i, for the ``width`` up-sets other than the
    empty one and the whole support, which holds the empty subgraph.

    They are enumerated over the nonempty subgraphs in ascending size, so
    each one's supersets come after it: every up-set so far either leaves
    the next subgraph out or, if it does not hold it yet, gains it and all
    its supersets, and each up-set comes out once.  They are counted as
    they grow, and refused above :data:`LOOP_UPSET_CAP`, first by a lower
    bound on their number, before any is built."""
    support = sorted((h for h in even_subgraphs(g) if h), key=int.bit_count)
    # each subgraph's supersets are one up-set, and subgraphs of one size are
    # pairwise incomparable, so every nonempty set of them spans its own
    widest = max(Counter(map(int.bit_count, support)).values(), default=0)
    least = max(len(support), (1 << min(widest, 64)) - 1)
    if least > LOOP_UPSET_CAP:
        raise CapExceededError("loop support up-sets", f"at least {least}", LOOP_UPSET_CAP)
    upsets = [0]  # as bit sets over the positions of support, the empty one first
    for i, h in enumerate(support):
        above = sum(1 << k for k, h2 in enumerate(support) if h2 & h == h)
        upsets += [u | above for u in upsets if not u >> i & 1]
        if len(upsets) - 1 > LOOP_UPSET_CAP:
            raise CapExceededError(
                "loop support up-sets", f"at least {len(upsets) - 1}", LOOP_UPSET_CAP
            )
    upsets = upsets[1:]
    member = {0: 0}
    for k, h in enumerate(support):  # bit i of member[h] is bit k of upsets[i]
        member[h] = int("".join("01"[u >> k & 1] for u in reversed(upsets)), 2)
    return member.__getitem__, len(upsets)


def loop_dominating_steps(g: Graph, grid: Sequence[Fraction]) -> set[int]:
    """Steps j at which g's loop law at ``grid[j]`` dominates the one at
    ``grid[j - 1]``.  By Strassen's theorem on a finite poset, it does iff
    no up-set of the laws' support, the even subgraphs under inclusion,
    loses mass from one to the other; the empty up-set and the whole
    support weigh 0 and 1 at every x.  So one ``polynomial_masses`` call
    reads every other up-set as one bit (:func:`_upset_stat`), and a step
    is kept when no up-set's mass falls (:func:`falling_steps`): no loop
    law is built and no flow runs."""
    stat, width = _upset_stat(g)
    masses = polynomial_masses(g, ["loop"], stat, width, grid)["loop"]
    return set(range(1, len(grid))) - {j for falls in falling_steps(masses) for j, _ in falls}


def scan_mon(graphs, rows: Sequence[str], grid) -> dict[str, list[dict]]:
    """Consecutive-pair stochastic domination scans of each row of ``rows``
    on each ``(name, graph)`` of ``graphs`` along ``grid``, as ``{row:
    records}`` in graph order, then step order.

    A step j takes the ``loop-union`` route when the graph's loop law at
    grid[j] dominates the one at grid[j - 1] (:func:`loop_dominating_steps`,
    read once per graph) and the row's Bernoulli parameter does not fall,
    p(grid[j - 1]) <= p(grid[j]), checked exactly once per row for all
    graphs.  The lemma: the row is k independent loop laws unioned with
    Bernoulli(p(x)).  Couple each loop copy monotonically from x1 to x2 and
    each Bernoulli edge monotonically, all independently; union is
    increasing in each part, so the coupling keeps the row at x1 below the
    row at x2.  The route only certifies, never refutes, and reads no law.
    Every other step goes to :func:`~loopcurrents.checkers.monotonicity_scan`
    (``holley-local``, else ``flow``) on the row's two laws there, each
    built once per (graph, row) and dropped before the next row's."""
    steps = range(1, len(grid))
    ps = {row: list(map(MODELS[row][1], grid)) for row in rows}
    rising = {row: {j for j in steps if p[j - 1] <= p[j]} for row, p in ps.items()}
    scans: dict[str, list[dict]] = {row: [] for row in rows}
    for name, g in graphs:
        loop_steps = loop_dominating_steps(g, grid)
        for row in rows:
            certified = loop_steps & rising[row]
            law = cache(partial(build, row, g))
            scans[row] += [
                {
                    "graph": name,
                    "x1": format_rational(grid[j - 1]),
                    "x2": format_rational(grid[j]),
                    "witness": witness.to_json_dict(),
                }
                for j in steps
                if j not in certified
                for _, witness in monotonicity_scan([law(grid[j - 1]), law(grid[j])])
            ]
    return scans


# ---------------------------------------------------------------------------
# Table assembly


def build_overview(
    grid_resolution: int = 6,
    mon_grid_resolution: int | None = None,
    graphs=None,
) -> dict:
    """Build the full model-by-property table with certificates and scans.

    ``grid_resolution`` controls the dyadic grid (2^r - 1 points) used both
    for counterexample localization and for scans; below
    :data:`MIN_GRID_RESOLUTION` it is refused before any work.  Domination
    scans may use another grid via ``mon_grid_resolution``; the ``table``
    command scans on the one grid.  A grid above ``rationals.GRID_CAP``
    points is refused before any of its points is built, so before any
    witness or scan.  FKG, CON and SING come from one :func:`scan_graph`
    per graph, MON from one :func:`scan_mon` over all of them, and the
    table is consistent with the expected verdicts when no cell is
    SCAN-FAILED.
    """
    if grid_resolution < MIN_GRID_RESOLUTION:
        raise ParametrizationError(
            f"grid resolution {grid_resolution}: the SING witnesses need at least "
            f"{MIN_GRID_RESOLUTION}"
        )
    mon_resolution = grid_resolution if mon_grid_resolution is None else mon_grid_resolution
    grid, mon_grid = dyadic_grid(grid_resolution), dyadic_grid(mon_resolution)
    graphs = scan_battery() if graphs is None else graphs
    scan_meta = {
        "battery": [name for name, _ in graphs],
        "grid_points": len(grid),
        "mon_grid_points": len(mon_grid),
    }

    cells: dict[str, dict[str, dict]] = {m: {} for m in MODELS}

    def put(model, prop, status, key, value):
        cells[model][prop] = {"expected": KNOWN_VERDICTS[model][prop], "status": status, key: value}

    # --- refuted cells: FKG, SING and MON witnesses; CON follows from SING --
    sc_sing = certify_sing_single_current()
    refutations = {
        "loop": (
            certify_fkg(theta.loop_fkg_gap, FKG_LOOP_PARAMS),
            *certify_sing("loop", SING_LOOP_PARAMS, grid),
        ),
        "single_current": (
            certify_fkg(theta.single_current_fkg_gap, FKG_SINGLE_CURRENT_PARAMS, param="t"),
            sc_sing,
            dict(
                sc_sing,
                note="the connection event is increasing and its probability certifiably "
                "drops, so no monotone coupling exists across the pair",
            ),
        ),
        "double_loop": (
            certify_fkg(theta.double_loop_fkg_gap, FKG_DOUBLE_LOOP_PARAMS),
            *certify_sing("double_loop", SING_DOUBLE_LOOP_PARAMS, grid),
        ),
    }

    for model, (fkg, sing, mon) in refutations.items():
        con = dict(sing, note="singleton sets; follows from the SING witness")
        for prop, witness in (("FKG", fkg), ("SING", sing), ("MON", mon), ("CON", con)):
            put(model, prop, CERTIFIED_FALSE, "witness", witness)

    scanned = [m for m in MODELS if m not in refutations]
    scans = [scan_graph(name, g, scanned, grid) for name, g in graphs]
    mon = scan_mon(graphs, scanned, mon_grid)
    consistent = True
    for model in scanned:
        for prop in PROPERTIES:
            found = mon[model] if prop == "MON" else [r for s in scans for r in s[model][prop]]
            status = OPEN_STATUS
            if KNOWN_VERDICTS[model][prop] == HOLDS:
                status = SCAN_FAILED if found else SCAN_CLEAN
                consistent = consistent and not found
            put(model, prop, status, "scan", dict(scan_meta, violations=found))
    return {
        "properties": list(PROPERTIES),
        "models": cells,
        "consistent_with_expected": consistent,
    }
