"""Connection probabilities and FKG gaps on the two generalized-theta families.

Two graph families drive every counterexample in this package:

* the three-path theta graph with segment lengths (n, m, l), used for the
  FKG counterexamples through the events "all edges of one n+m loop open";
* the four-path "counter" family with segment lengths (n, n, m, m), marks
  a and b at the midpoints of the two m-paths
  (:func:`loopcurrents.graphs.counter_family`, which also holds the rule
  on (n, m)), used for the monotonicity counterexamples through the
  connection event {a <-> b}.

Their values are kernel computations (:mod:`loopcurrents.measures`) on
*core* graphs, by series reduction (Sokal 2005, "The multivariate Tutte
polynomial (alias Potts model) for graphs and matroids"): each path of
length L is one core edge of length L, so :func:`counter_core` has 6 edges
and :func:`theta_core` 3, at any n and m.

The single current's connection probability is the core kernel too where
p is rational (:func:`single_current_conn_exact`, at Pythagorean t), and
keeps a hand-derived form, :func:`single_current_conn_terms`, for any
scalar: the commands evaluate it on rounded intervals at (2000, 300), where
p is irrational and the integer kernels do not apply.  Its numerator and
its five-term normalizer share the powers of x: one evaluation computes
each distinct power of p and x once.
:func:`closed_form_discrepancies` compares the core route and that form
with enumeration on the subdivided graphs.

The kernels, events and checkers are imported inside the functions that
use them, so ``figure --model P``, which evaluates only that form, runs
none of those modules.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .errors import ParametrizationError
from .graphs import (
    Graph,
    Marks,
    check_counter,
    counter_family,
    even_lattice,
    generalized_theta,
    is_connected,
    segment_edge_ranges,
)
from .intervals import START_BITS, Interval, sqrt_interval


# ---------------------------------------------------------------------------
# Core graphs and connection probabilities on the counter family


def counter_core(n: int, m: int) -> Graph:
    """Core of counter(n, m): hubs 0 and 1, marks a = 2 and b = 3.  The two
    n-paths are edges 0 and 1, and each m-path is two halves of length m/2
    through its mark: edges 2, 3 and edges 4, 5."""
    check_counter(n, m)
    h = m // 2
    edges = ((0, 1), (0, 1), (0, 2), (2, 1), (0, 3), (3, 1))
    return Graph(4, edges, Marks(2, 3), (n, n, h, h, h, h))


def theta_core(n: int, m: int, l: int) -> Graph:
    """Core of theta(n, m, l): three parallel edges of lengths n, m, l
    between the hubs 0 and 1."""
    return Graph(2, ((0, 1),) * 3, lengths=(n, m, l))


def _core_conn(model: str, n: int, m: int):
    """x -> the probability of {a <-> b} under ``model`` on counter_core(n,
    m); the connection test runs once per core mask for all the x."""
    from .events import connect
    from .measures import build, prob

    core = counter_core(n, m)
    ab = connect(core)
    ab = ab._replace(predicate=cache(ab.predicate))
    return lambda x: prob(build(model, core, x), ab)


def loop_conn(n: int, m: int):
    """Loop-model probability of {a <-> b} on counter(n, m), as a function of x."""
    return _core_conn("loop", n, m)


def double_loop_conn(n: int, m: int):
    """Double-loop probability of {a <-> b} on counter(n, m), as a function of x."""
    return _core_conn("double_loop", n, m)


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

    The eight even subgraphs fall into those five cases, so the normalizer
    sums their x-weights: Z = 1 + x^2n + x^2m + 4x^(n+m) + x^(2n+2m).
    """
    check_counter(n, m)
    h = m // 2
    # each distinct power once: the terms share p^h, p^2h, and the
    # numerator and Z share x^2n, x^2m, x^(n+m) and x^(2n+2m)
    pw, xw = cache(p.__pow__), cache(x.__pow__)
    reach = 2 * pw(h) - pw(2 * h)  # one midpoint reaches a hub
    outer = 2 * pw(n) - pw(2 * n)  # hubs joined by some outer path
    empty_case = (
        4 * pw(3 * h) * (1 - pw(h))
        + pw(4 * h)
        + pw(2 * h) * (1 - pw(h)) ** 2 * (2 + 2 * outer)
    )
    numerator = (
        empty_case
        + xw(2 * n) * reach**2
        + xw(2 * m)
        + 4 * xw(n + m) * reach
        + xw(2 * n + 2 * m)
    )
    z = 1 + xw(2 * n) + xw(2 * m) + 4 * xw(n + m) + xw(2 * n + 2 * m)
    return numerator / z


def single_current_conn_exact(n: int, m: int, t: Fraction) -> Fraction:
    """Exact single-current probability of {a <-> b} on counter(n, m) at
    x = 2t/(1+t^2): the kernels on :func:`counter_core`."""
    from .measures import pythagorean_x

    t = Fraction(t)
    if not 0 < t < 1:
        raise ParametrizationError(f"t={t} outside (0,1)")
    return _core_conn("single_current", n, m)(pythagorean_x(t))


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
# FKG gaps on the three-path theta graph (n = l)


def _theta_fkg_gap(model: str, n: int, m: int, x: Fraction) -> Fraction:
    """P(X1 and X2) - P(X1)P(X2) under ``model`` on theta(n, m, n) at x,
    where X1 and X2 say that one n+m loop is fully open: core edges {0, 1}
    and {1, 2}."""
    from .checkers import fkg_gaps
    from .events import all_open
    from .measures import build

    core = theta_core(n, m, n)
    loops = (all_open(core, [0, 1]), all_open(core, [1, 2]))
    (((gap,), den),) = fkg_gaps([build(model, core, x)], [loops])
    return Fraction(gap, den)


def loop_fkg_gap(n: int, m: int, x: Fraction) -> Fraction:
    """Exact loop-model FKG gap of the two loop events."""
    return _theta_fkg_gap("loop", n, m, x)


def double_loop_fkg_gap(n: int, m: int, x: Fraction) -> Fraction:
    """Exact double-loop FKG gap of the two loop events."""
    return _theta_fkg_gap("double_loop", n, m, x)


def single_current_fkg_gap(n: int, m: int, t: Fraction) -> Fraction:
    """Exact single-current FKG gap of the two loop events at Pythagorean t."""
    from .measures import pythagorean_x

    return _theta_fkg_gap("single_current", n, m, pythagorean_x(t))


# ---------------------------------------------------------------------------
# Event helpers and mechanical tables


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
    paths = [sum(1 << e for e in r) for r in segment_edge_ranges(lengths)]
    return [sum(paths[seg] for seg in subset) for subset in subsets]


def theta_loop_events(n: int, m: int):
    """The two all-open loop events on the theta graph (segments n, m, n).

    The first loop uses segments 0 and 1, the second segments 1 and 2;
    they share the middle segment.
    """
    from .events import all_open

    g = generalized_theta([n, m, n])
    first, second = _path_subset_masks([n, m, n], _THETA_PATH_SUBSETS[1:3])
    return g, all_open(g, first), all_open(g, second)


def theta_even_masks(n: int, m: int) -> list[int]:
    """The four even subgraphs of theta(n, m, n), in canonical table order."""
    return _path_subset_masks([n, m, n], _THETA_PATH_SUBSETS)


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
    return [[is_connected(g, a | b, g.marks.a, g.marks.b) for b in masks] for a in masks]


# ---------------------------------------------------------------------------
# Formula-vs-enumeration discrepancy reporting


def closed_form_discrepancies(n: int, m: int, t: Fraction, x: Fraction) -> list[dict]:
    """Compare the core route, and the single current's closed form, with
    exhaustive enumeration on the subdivided graphs.

    Runs at enumeration scale (small n, m).  Returns one record per
    mismatch; an empty list certifies agreement at the sampled parameters.
    """
    from .events import Event, all_open, connect
    from .measures import build, loop_o1, prob, pythagorean_x, single_current_p

    out = []
    x, xp = Fraction(x), pythagorean_x(t)

    def record(name, formula, enumerated):
        if formula != enumerated:
            out.append({"form": name, "formula": str(formula), "enumeration": str(enumerated)})

    cg = counter_family(n, m)
    ab = connect(cg)
    record("loop_conn", loop_conn(n, m)(x), prob(loop_o1(cg, x), ab))
    record("double_loop_conn", double_loop_conn(n, m)(x), prob(build("double_loop", cg, x), ab))
    single = prob(build("single_current", cg, xp), ab)
    record("single_current_conn", single_current_conn_exact(n, m, t), single)
    record("single_current_conn", single_current_conn_terms(n, m, xp, single_current_p(xp)), single)

    # one n+m loop fully open, and both loops: every path
    tg, first, _ = theta_loop_events(n, m)
    core = theta_core(n, m, n)
    events = [(all_open(core, [0, 1]), first), (all_open(core, 0b111), all_open(tg, tg.full_mask))]
    for model, point, names in (
        ("single_current", xp, ("single_current_loop_event", "single_current_both_loops")),
        ("double_loop", x, ("double_loop_loop_event", "double_loop_both_loops")),
    ):
        core_law, law = build(model, core, point), build(model, tg, point)
        for name, (core_event, event) in zip(names, events):
            record(name, prob(core_law, core_event), prob(law, event))

    # the probability that the cyclic part is the (n+m)-cycle of segments 0
    # and 1, on the core "the cyclic edges are exactly {0, 1}"; with the
    # third length n+m+1 no other cyclic part has n+m edges, so it is also
    # the probability of n+m cyclic edges
    third = n + m + 1
    tg2, core2 = generalized_theta([n, m, third]), theta_core(n, m, third)
    (loop,) = _path_subset_masks([n, m, third], [(0, 1)])
    cyclic, core_cyclic = even_lattice(tg2)[1], even_lattice(core2)[1]
    cycle = Event(tg2, lambda mask: cyclic[mask] == loop)
    core_cycle = Event(core2, lambda mask: core_cyclic[mask] == 0b11)
    for model, name in (
        ("random_cluster", "cyclic_count_cluster"),
        ("double_current", "cyclic_count_double_current"),
    ):
        record(name, prob(build(model, core2, x), core_cycle), prob(build(model, tg2, x), cycle))
    return out
