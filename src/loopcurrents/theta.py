"""Closed-form evaluators for the two generalized-theta families.

Two graph families drive every counterexample in this package:

* the three-path theta graph with segment lengths (n, m, l), used for the
  FKG counterexamples through the events "all edges of one n+m loop open";
* the four-path "counter" family with segment lengths (n, n, m, m), marks
  a and b at the midpoints of the two m-paths, used for the monotonicity
  counterexamples through the connection event {a <-> b}.

Every closed form here is a plain function of x, generic over the scalar
type: Fractions, rounded intervals and sympy symbols take the same code.
Each is also validated against an exhaustive-enumeration oracle from the
measures module on small instances; a disagreement would be reported as a
formula discrepancy rather than silently trusting either side (see
:func:`closed_form_discrepancies`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from .errors import GraphStructureError, ParametrizationError
from .events import Event, all_open, connect, cyclic_count, statistic_dist
from .graphs import Graph, counter_family, generalized_theta, is_connected, segment_edge_ranges
from .intervals import START_BITS, Interval, sqrt_interval
from .measures import build, loop_o1, prob, pythagorean_x, single_current_p


def check_counter(n: int, m: int) -> None:
    """Parameters (n, m) of the four-path family; m even so midpoints exist."""
    if n < 1 or m < 1:
        raise GraphStructureError("segment lengths must be positive")
    if m % 2:
        raise GraphStructureError(f"m={m} must be even to place midpoint marks")


# ---------------------------------------------------------------------------
# Partition functions


def _power_sum(terms, x):
    """Sum of c * x^e over (exponent, coefficient) ``terms``, exponents
    distinct and ascending.  Each power is the previous one times x^gap, so
    a sparse high degree costs one fast power per gap; on rounded intervals
    every step rounds, so this order fixes the enclosure endpoints."""
    result = Fraction(0)
    power = None
    prev_exp = 0
    for e, c in terms:
        if e == 0:
            result = result + c
            continue
        power = x ** e if power is None else power * x ** (e - prev_exp)
        prev_exp = e
        result = result + c * power
    return result


def partition_function(lengths):
    """Loop-model normalizer of a generalized theta graph, as a function of x.

    Even subgraphs are exactly the unions of an even number of full paths,
    so Z = sum over even-size path subsets S of x^(total length of S).
    """
    lengths = list(lengths)
    counts = Counter()
    for k in range(0, len(lengths) + 1, 2):
        counts.update(map(sum, combinations(lengths, k)))
    terms = [(e, Fraction(c)) for e, c in sorted(counts.items())]
    return lambda x: _power_sum(terms, x)


def theta_partition(n: int, m: int, l: int | None = None):
    """Z for the three-path theta graph; l defaults to n."""
    return partition_function([n, m, n if l is None else l])


def counter_partition(n: int, m: int):
    """Z for the four-path family: 1 + x^2n + x^2m + 4x^(n+m) + x^(2n+2m)."""
    return partition_function([n, n, m, m])


# ---------------------------------------------------------------------------
# Connection probabilities on the counter family


def loop_conn(n: int, m: int):
    """Loop-model probability of {a <-> b}: (x^2m + x^(2m+2n)) / Z.

    Only the both-m-paths subgraph and the full subgraph connect the two
    midpoints.
    """
    check_counter(n, m)
    z = counter_partition(n, m)
    return lambda x: (x ** (2 * m) + x ** (2 * m + 2 * n)) / z(x)


def double_loop_conn(n: int, m: int):
    """Double-loop probability of {a <-> b} on the counter family.

    Numerator: 2x^2m Z - x^4m + 2x^(2n+2m) Z - x^(4n+4m) - 2x^(2n+4m)
    + 8x^(2n+2m), all over Z^2.
    """
    check_counter(n, m)
    z = counter_partition(n, m)

    def conn(x):
        zx = z(x)
        num = (
            2 * x ** (2 * m) * zx
            - x ** (4 * m)
            + 2 * x ** (2 * n + 2 * m) * zx
            - x ** (4 * n + 4 * m)
            - 2 * x ** (2 * n + 4 * m)
            + 8 * x ** (2 * n + 2 * m)
        )
        return num / (zx * zx)

    return conn


def single_current_conn_terms(n: int, m: int, x, p):
    """Single-current probability of {a <-> b}, generic over the scalar type.

    ``x`` weights the loop layer, ``p`` the percolation layer; both may be
    Fractions (Pythagorean mode) or certified intervals.  Conditioning on the
    loop-model configuration:

    * empty loop: a and b connect only through fully opened half-m segments;
      with at least three of the four open they connect, with exactly two
      they connect directly (two arrangements) or through an outer n-path
      (the other two arrangements);
    * both n-paths open: each midpoint needs one of its half-segments;
    * one n-path and one m-path open (4 ways): the marked midpoint of the
      closed m-path needs one of its half-segments;
    * both m-paths open, or everything open: connected outright.
    """
    check_counter(n, m)
    h = m // 2
    reach = 2 * p**h - p ** (2 * h)  # one midpoint reaches a hub
    outer = 2 * p**n - p ** (2 * n)  # hubs joined by some outer path
    empty_case = (
        4 * p ** (3 * h) * (1 - p**h)
        + p ** (4 * h)
        + p ** (2 * h) * (1 - p**h) ** 2 * (2 + 2 * outer)
    )
    numerator = (
        empty_case
        + x ** (2 * n) * reach**2
        + x ** (2 * m)
        + 4 * x ** (n + m) * reach
        + x ** (2 * n + 2 * m)
    )
    z = counter_partition(n, m)(x)
    return numerator / z


def single_current_conn_exact(n: int, m: int, t: Fraction) -> Fraction:
    """Evaluate the single-current connection probability at x = 2t/(1+t^2)."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise ParametrizationError(f"t={t} outside (0,1)")
    x = pythagorean_x(t)
    return single_current_conn_terms(n, m, x, single_current_p(x))


def single_current_conn_interval(n: int, m: int, x: Fraction, bits: int = START_BITS) -> Interval:
    """Certified enclosure of the same probability at generic rational x.

    Evaluated in interval arithmetic rounded to ``bits`` significant bits
    (the sqrt is the only inexact input; the rounding keeps the huge powers
    cheap).
    The returned enclosure always contains the true value.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ParametrizationError(f"x={x} outside (0,1)")
    p = 1 - sqrt_interval(1 - x * x, bits)
    return single_current_conn_terms(n, m, Interval.point(x, bits), p)


# ---------------------------------------------------------------------------
# FKG gap closed forms on the three-path theta graph (n = l)


def single_current_loop_event_weights(n: int, m: int, x, p):
    """Z-scaled single-current weights of the one-loop and both-loops events.

    Returns (Z*P(one n+m loop fully open), Z*P(both loops fully open)),
    generic over the scalar type.  Conditioning on the four loop-model
    configurations of the theta graph with segments (n, m, n):

        Z P(X) = p^(n+m) + x^(n+m) + x^(n+m) p^n + x^2n p^m
        Z P(both) = p^(2n+m) + 2 x^(n+m) p^n + x^2n p^m
    """
    single = p ** (n + m) + x ** (n + m) + x ** (n + m) * p**n + x ** (2 * n) * p**m
    both = p ** (2 * n + m) + 2 * x ** (n + m) * p**n + x ** (2 * n) * p**m
    return single, both


def single_current_fkg_gap(n: int, m: int, t: Fraction) -> Fraction:
    """Exact P(X1 and X2) - P(X1)P(X2) for the single current at Pythagorean t."""
    x = pythagorean_x(t)
    z = theta_partition(n, m)(x)
    single, both = single_current_loop_event_weights(n, m, x, single_current_p(x))
    return both / z - (single / z) ** 2


def double_loop_event_weights(n: int, m: int, x):
    """Z^2-scaled double-loop weights of the one-loop and both-loops events.

    Returns (Z^2 P(X1), Z^2 P(X1 and X2)), generic over the scalar type.
    Summing the pair table over the four even subgraphs of the theta graph:

        Z^2 P(X1) = 2x^(n+m) + 3x^(2(n+m)) + 4x^(3n+m)
        Z^2 P(X1 and X2) = 2x^(2(n+m)) + 4x^(3n+m)
    """
    one_loop = 2 * x ** (n + m) + 3 * x ** (2 * (n + m)) + 4 * x ** (3 * n + m)
    both = 2 * x ** (2 * (n + m)) + 4 * x ** (3 * n + m)
    return one_loop, both


def double_loop_fkg_gap(n: int, m: int, x: Fraction) -> Fraction:
    """Exact P(X1 and X2) - P(X1)P(X2) for the double loop model."""
    x = Fraction(x)
    one_loop, both = double_loop_event_weights(n, m, x)
    z = theta_partition(n, m)(x)
    return both / z**2 - (one_loop / z**2) ** 2


def loop_fkg_gap(n: int, m: int, x: Fraction) -> Fraction:
    """Exact loop-model FKG gap for the two loop events: -(x^(n+m)/Z)^2.

    The two events are disjoint on even subgraphs (all three segments open
    has odd hub degree), so the gap is minus the product of the single-loop
    probabilities.
    """
    x = Fraction(x)
    z = theta_partition(n, m)(x)
    p1 = x ** (n + m) / z
    return -(p1 * p1)


# ---------------------------------------------------------------------------
# Cyclic-edge count formulas on the three-path theta graph (l, m, n)


def cyclic_count_cluster_form(l: int, m: int, n: int):
    """Random-cluster probability that the cyclic part is the (l+m)-cycle.

    2 x^(l+m) (1 - x^n) / Z with Z = 1 + x^(n+l) + x^(n+m) + x^(l+m).
    """
    z = partition_function([l, m, n])
    return lambda x: 2 * x ** (l + m) * (1 - x**n) / z(x)


def cyclic_count_double_current_form(l: int, m: int, n: int):
    """Double-current probability that the cyclic part is the (l+m)-cycle.

    (x^(2(l+m)) + 2x^(l+m) + x^(2(l+m))) (1 - x^2n) / Z^2.
    """
    z = partition_function([l, m, n])

    def form(x):
        num = (x ** (2 * (l + m)) + 2 * x ** (l + m) + x ** (2 * (l + m))) * (1 - x ** (2 * n))
        return num / z(x) ** 2

    return form


# ---------------------------------------------------------------------------
# Event helpers and mechanical tables


def theta_graph(n: int, m: int, l: int | None = None) -> Graph:
    return generalized_theta([n, m, n if l is None else l])


def theta_loop_events(n: int, m: int, l: int | None = None):
    """The two all-open loop events on the theta graph (segments n, m, l).

    The first loop uses segments 0 and 1 (lengths n, m), the second
    segments 1 and 2 (lengths m, l); they share the middle segment.
    """
    g = theta_graph(n, m, l)
    ranges = segment_edge_ranges([n, m, n if l is None else l])
    first = all_open(g, list(ranges[0]) + list(ranges[1]))
    second = all_open(g, list(ranges[1]) + list(ranges[2]))
    return g, first, second


_THETA_PATH_SUBSETS = ((), (0, 1), (1, 2), (0, 2))  # empty, first loop, second loop, outer
_COUNTER_PATH_SUBSETS = (
    (),
    (2, 3),  # both m-paths
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 3),  # one n-path plus one m-path
    (0, 1),  # both n-paths
    (0, 1, 2, 3),
)


def _path_subset_masks(lengths, subsets) -> list[int]:
    ranges = segment_edge_ranges(lengths)
    masks = []
    for subset in subsets:
        mask = 0
        for seg in subset:
            for e in ranges[seg]:
                mask |= 1 << e
        masks.append(mask)
    return masks


def theta_even_masks(n: int, m: int, l: int | None = None) -> list[int]:
    """The four even subgraphs of the theta graph, in canonical table order."""
    return _path_subset_masks([n, m, n if l is None else l], _THETA_PATH_SUBSETS)


def counter_even_masks(n: int, m: int) -> list[int]:
    """The eight even subgraphs of the counter family, in canonical table order."""
    return _path_subset_masks([n, n, m, m], _COUNTER_PATH_SUBSETS)


def theta_pair_event_table(n: int, m: int, which: str) -> list[list[bool]]:
    """4x4 grid over ordered pairs of theta even subgraphs.

    ``which`` is "first" for the event that the first n+m loop is fully open
    in the union, or "both" for both loops (all segments) open.
    """
    g, first, second = theta_loop_events(n, m)
    masks = theta_even_masks(n, m)
    if which == "first":
        def cell(u): return first.holds(u)
    elif which == "both":
        def cell(u): return first.holds(u) and second.holds(u)
    else:
        raise ValueError("which must be 'first' or 'both'")
    return [[cell(a | b) for b in masks] for a in masks]


def counter_pair_connect_table(n: int, m: int) -> list[list[bool]]:
    """8x8 grid: is {a <-> b} satisfied in the union of each even-subgraph pair."""
    g = counter_family(n, m)
    masks = counter_even_masks(n, m)
    return [
        [is_connected(g, a | b, g.marks.a, g.marks.b) for b in masks] for a in masks
    ]


# ---------------------------------------------------------------------------
# Formula-vs-enumeration discrepancy reporting


def closed_form_discrepancies(n: int, m: int, t: Fraction, x: Fraction) -> list[dict]:
    """Compare every closed form against the exhaustive-enumeration oracle.

    Runs at enumeration scale (small n, m).  Returns one record per
    mismatch; an empty list certifies agreement at the sampled parameters.
    """
    out = []
    t = Fraction(t)
    x = Fraction(x)

    def record(name, formula, enumerated):
        if formula != enumerated:
            out.append(
                {"form": name, "formula": str(formula), "enumeration": str(enumerated)}
            )

    cg = counter_family(n, m)
    ab = connect(cg)
    record("loop_conn", loop_conn(n, m)(x), prob(loop_o1(cg, x), ab))
    record("double_loop_conn", double_loop_conn(n, m)(x), prob(build("double_loop", cg, x), ab))

    xp = pythagorean_x(t)
    record(
        "single_current_conn",
        single_current_conn_exact(n, m, t),
        prob(build("single_current", cg, xp), ab),
    )

    tg, first, second = theta_loop_events(n, m)
    z = theta_partition(n, m)(xp)
    single_w, both_w = single_current_loop_event_weights(n, m, xp, single_current_p(xp))
    sc = build("single_current", tg, xp)
    record("single_current_loop_event", single_w / z, prob(sc, first))
    record("single_current_both_loops", both_w / z, prob(sc, intersect_all_open(first, second)))

    one_loop, both = double_loop_event_weights(n, m, x)
    dl = build("double_loop", tg, x)
    z2 = theta_partition(n, m)(x) ** 2
    record("double_loop_loop_event", one_loop / z2, prob(dl, first))
    record("double_loop_both_loops", both / z2, prob(dl, intersect_all_open(first, second)))

    # cyclic-count forms: the third segment length must differ from the
    # first two, otherwise several cycles share the size l+m and the
    # closed form (which counts only the (l,m)-cycle) undercounts.
    third = n + m + 1
    tg2 = generalized_theta([n, m, third])
    stat = cyclic_count(tg2)
    target = n + m
    dist_cluster = statistic_dist(build("random_cluster", tg2, x), stat)
    dist_double = statistic_dist(build("double_current", tg2, x), stat)
    record(
        "cyclic_count_cluster",
        cyclic_count_cluster_form(n, m, third)(x),
        dist_cluster.get(target, Fraction(0)),
    )
    record(
        "cyclic_count_double_current",
        cyclic_count_double_current_form(n, m, third)(x),
        dist_double.get(target, Fraction(0)),
    )
    return out


def intersect_all_open(first: Event, second: Event) -> Event:
    """Both events hold: for two all-open events, all-open on the union of their masks."""
    return Event(
        first.graph,
        lambda mask: first.holds(mask) and second.holds(mask),
        first.increasing and second.increasing,
        f"{first.label}&{second.label}",
    )
