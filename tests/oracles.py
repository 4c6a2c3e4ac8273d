"""Independent brute-force oracles used to validate the library's routes.

Everything here is deliberately written along different algorithmic paths
than the package (degree filtering instead of cycle-basis spans, BFS
instead of union-find, Moebius inversion instead of pair iteration, one
``Fraction`` addition per configuration instead of integer mass passes), so
an agreement is meaningful.  The float goodness-of-fit statistics for the
samplers and the chain's exact transition matrix live here too: no
certifying route reads them.  So do the closed forms, tables and
serializations that only tests read.
"""

import json
from fractions import Fraction
from math import lcm
from typing import Iterable

from loopcurrents.checkers import DominationReport, UpSetWitness, _Dinic, _upset_witness
from loopcurrents.errors import CapExceededError, GraphMismatchError, LoopCurrentsError
from loopcurrents.events import Event
from loopcurrents.graphs import (
    Graph,
    counter_family,
    cycle_space_basis,
    edges_of_mask,
    is_connected,
    span_masks,
)
from loopcurrents.measures import Dist
from loopcurrents.rationals import format_rational, parse_rational
from loopcurrents.theta import (
    counter_even_masks,
    double_loop_event_weights,
    partition_function,
    theta_partition,
)


def degrees(g: Graph, mask: int) -> list[int]:
    deg = [0] * g.vertex_count
    for i in edges_of_mask(mask):
        u, v = g.edges[i]
        deg[u] += 1
        deg[v] += 1
    return deg


def brute_even_subgraphs(g: Graph) -> list[int]:
    """All subsets with every vertex degree even, by direct filtering."""
    out = []
    for mask in range(1 << g.edge_count):
        if all(d % 2 == 0 for d in degrees(g, mask)):
            out.append(mask)
    return out


def brute_even_subsets_of(g: Graph, omega: int) -> list[int]:
    out = []
    sub = omega
    while True:
        if all(d % 2 == 0 for d in degrees(g, sub)):
            out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & omega
    return out


def bfs_connected(g: Graph, mask: int, u: int, v: int) -> bool:
    adj: dict[int, set[int]] = {}
    for i in edges_of_mask(mask):
        a, b = g.edges[i]
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = {u}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for y in adj.get(w, ()):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return v in seen


def brute_cyclic_edges(g: Graph, omega: int) -> int:
    """An edge is cyclic iff it lies in some even subgraph of omega."""
    out = 0
    for sub in brute_even_subsets_of(g, omega):
        out |= sub
    return out


def brute_union(d1: Dist, d2: Dist) -> dict[int, Fraction]:
    """Union law via Moebius inversion of P(sample subset of S).

    P(union = w) = sum over S subset of w of (-1)^(|w|-|S|) F1(S) F2(S)
    where Fi(S) = P_i(sample subset of S).
    """
    n = d1.graph.edge_count
    p1 = d1.probabilities()
    p2 = d2.probabilities()

    def cumulative(p):
        out = {}
        for s in range(1 << n):
            out[s] = sum((w for m, w in p.items() if m & ~s == 0), Fraction(0))
        return out

    f1 = cumulative(p1)
    f2 = cumulative(p2)
    result = {}
    for w in range(1 << n):
        total = Fraction(0)
        sub = w
        while True:
            sign = -1 if (w ^ sub).bit_count() % 2 else 1
            total += sign * f1[sub] * f2[sub]
            if sub == 0:
                break
            sub = (sub - 1) & w
        if total:
            result[w] = total
    return result


def domination_bruteforce(d_lo: Dist, d_hi: Dist, cap: int = 16) -> DominationReport:
    """Test every up-set generated by a subset of the low support.

    For a fixed trace on the low support, the upward closure of that trace
    minimizes the high mass among up-sets with the same low mass, so these
    candidates suffice.  Exponential in |support(d_lo)|.
    """
    lo_masks = sorted(d_lo.weights)
    if len(lo_masks) > cap:
        raise LoopCurrentsError(f"brute-force oracle limited to {cap} support points")

    # generator-membership bitsets: bit i of above[m] says lo_masks[i] <= m
    def above(masks, dist):
        weights = dist.weights
        out = []
        for m in masks:
            bits = 0
            for i, gen in enumerate(lo_masks):
                if m & gen == gen:
                    bits |= 1 << i
            out.append((bits, weights[m]))
        return out

    lo_entries = above(lo_masks, d_lo)
    hi_entries = above(sorted(d_hi.weights), d_hi)
    for choice in range(1, 1 << len(lo_masks)):
        mass_lo = sum((w for bits, w in lo_entries if bits & choice), Fraction(0)) / d_lo.z
        mass_hi = sum((w for bits, w in hi_entries if bits & choice), Fraction(0)) / d_hi.z
        if mass_lo > mass_hi:
            # an antichain: dropping a non-minimal generator keeps the up-set
            # and gives a smaller choice, which would have failed first
            gens = tuple(lo_masks[i] for i in range(len(lo_masks)) if choice >> i & 1)
            return DominationReport(False, witness=UpSetWitness(gens, mass_lo, mass_hi))
    return DominationReport(True, coupling=())


def domination_bipartite(d_lo: Dist, d_hi: Dist) -> DominationReport:
    """Strassen domination on the bipartite comparability network.

    Source -> each low-support mask A (capacity P_lo(A)), A -> B whenever A
    is a subset of B, each high-support mask B -> sink (capacity P_hi(B)),
    on probabilities scaled by the lcm of their denominators.  Up to
    |supp lo| * |supp hi| arcs, against the covering network of the
    library; the up-set witness comes from the same minimal min cut.
    """
    lo_masks = sorted(d_lo.weights)
    hi_masks = sorted(d_hi.weights)
    p_lo = d_lo.probabilities()
    p_hi = d_hi.probabilities()
    total = lcm(*(f.denominator for f in p_lo.values()), *(f.denominator for f in p_hi.values()))
    a_index = {m: 2 + i for i, m in enumerate(lo_masks)}
    b_index = {m: 2 + len(lo_masks) + i for i, m in enumerate(hi_masks)}
    head: list[list[int]] = [[] for _ in range(2 + len(lo_masks) + len(hi_masks))]
    to: list[int] = []
    cap: list[int] = []

    def add_arc(u, v, capacity):
        for a, b, c in ((u, v, capacity), (v, u, 0)):
            head[a].append(len(to))
            to.append(b)
            cap.append(c)
        return len(to) - 2

    for m in lo_masks:
        add_arc(0, a_index[m], int(p_lo[m] * total))
    for m in hi_masks:
        add_arc(b_index[m], 1, int(p_hi[m] * total))
    arc_ids = {
        (a, b): add_arc(a_index[a], b_index[b], total)
        for a in lo_masks
        for b in hi_masks
        if a & ~b == 0
    }
    net = _Dinic(head, to, cap)
    if net.max_flow(0, 1) == total:
        coupling = tuple(
            (a, b, Fraction(total - net.cap[idx], total))
            for (a, b), idx in sorted(arc_ids.items())
            if total - net.cap[idx] > 0
        )
        return DominationReport(True, coupling=coupling)
    source_side = net.min_cut_side(0)
    cut_lo = [m for m in lo_masks if a_index[m] in source_side]
    return DominationReport(False, witness=_upset_witness(cut_lo, d_lo, d_hi))


def check_increasing_all_pairs(ev: Event, cap: int = 16):
    """Quadratic scan over all ordered pairs w subset of w'."""
    n = ev.graph.edge_count
    if n > cap:
        raise CapExceededError("all-pairs monotonicity scan", n, cap)
    full = ev.graph.full_mask
    for mask in range(1 << n):
        if not ev.holds(mask):
            continue
        # enumerate supersets by iterating over subsets of the complement
        comp = full & ~mask
        extra = comp
        while True:
            if extra and not ev.holds(mask | extra):
                return False, (mask, mask | extra)
            if extra == 0:
                break
            extra = (extra - 1) & comp
    return True, None


def prob_bruteforce(d: Dist, event: Event) -> Fraction:
    """P(event) by ``Event.holds`` on each configuration and one ``Fraction``
    addition per configuration where it holds."""
    if event.graph.edges != d.graph.edges:
        raise GraphMismatchError("event and distribution live on different graphs")
    total = Fraction(0)
    for mask, w in d.weights.items():
        if event.holds(mask):
            total += w
    return total / d.z


def bit_masses_per_law(dists, stat, width: int) -> list[list[Fraction]]:
    """``measures.bit_masses`` one law at a time, without packing: each
    law's integer numerators summed per stat value, each sum added to the
    total of every set bit below ``width``, one ``Fraction`` per bit."""
    keep = (1 << width) - 1
    rows = []
    for d in dists:
        by_value: dict[int, int] = {}
        for mask, w in d.nums.items():
            s = stat(mask) & keep
            by_value[s] = by_value.get(s, 0) + w
        totals = [0] * width
        for s, w in by_value.items():
            for i in range(width):
                if s >> i & 1:
                    totals[i] += w
        mass = d.z * d.den
        rows.append([Fraction(t * mass.denominator, mass.numerator) for t in totals])
    return rows


def empirical_counts(masks: Iterable[int]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for m in masks:
        counts[m] = counts.get(m, 0) + 1
    return counts


def chi_square_statistic(counts: dict[int, int], dist: Dist) -> tuple[float, int]:
    """Pearson chi-square of observed counts against the exact distribution.

    Outcomes outside the exact support are a hard failure (probability 0).
    Returns (statistic, degrees of freedom).
    """
    n = sum(counts.values())
    for mask in counts:
        if mask not in dist.nums:
            raise LoopCurrentsError(
                f"sampled configuration {hex(mask)} has probability zero under the exact law"
            )
    stat = 0.0
    for mask, w in dist.weights.items():
        expected = float(w / dist.z) * n
        observed = counts.get(mask, 0)
        stat += (observed - expected) ** 2 / expected
    return stat, len(dist.weights) - 1


def loop_chain_transition_matrix(g: Graph, x: Fraction):
    """Exact one-proposal transition matrix of ``sampler.loop_chain``.

    Returns (states, T) with T[i][j] a Fraction, for checking detailed
    balance against the stationary weights x^|state| exactly.
    """
    basis = cycle_space_basis(g)
    states = sorted(span_masks(basis.elements))
    index = {s: i for i, s in enumerate(states)}
    dim = max(len(basis.elements), 1)
    x = Fraction(x)
    size = len(states)
    T = [[Fraction(0)] * size for _ in range(size)]
    for s in states:
        i = index[s]
        stay = Fraction(0)
        for c in basis.elements:
            new = s ^ c
            delta = new.bit_count() - s.bit_count()
            accept = min(Fraction(1), x**delta) if delta > 0 else Fraction(1)
            T[i][index[new]] += Fraction(1, dim) * accept
            stay += Fraction(1, dim) * (1 - accept)
        T[i][i] += stay
    return states, T


# ---------------------------------------------------------------------------
# Closed forms, tables and serializations that only tests read


def _symbol_x():
    # sympy is a test dependency; it is imported on use so that the test
    # modules importing this one still collect where it is missing
    import sympy

    return sympy, sympy.Symbol("x")


def trailing_term(f) -> tuple[int, Fraction]:
    """Lowest-order term (exponent, coefficient) of the polynomial function
    ``f``, expanded symbolically; the zero polynomial has none."""
    sympy, x = _symbol_x()
    poly = sympy.Poly(f(x), x)
    if poly.is_zero:
        raise ValueError("zero polynomial has no trailing term")
    (exponent,), coeff = min(poly.terms())
    return exponent, Fraction(int(coeff.p), int(coeff.q))


def same_function(f, g) -> bool:
    """Equality of two rational functions of x: their symbolic difference
    cancels to zero."""
    sympy, x = _symbol_x()
    return sympy.cancel(f(x) - g(x)) == 0


def dist_to_json(d: Dist) -> str:
    weights = [[hex(mask), format_rational(w)] for mask, w in sorted(d.weights.items())]
    return json.dumps({"z": format_rational(d.z), "weights": weights})


def dist_from_json(graph: Graph, text: str) -> Dist:
    data = json.loads(text)
    weights = {int(mask, 16): parse_rational(w) for mask, w in data["weights"]}
    return Dist.from_weights(graph, weights, parse_rational(data["z"]))


def double_loop_fkg_difference(n: int, m: int):
    """The polynomial (Z^2 P(X1))^2 - (Z^2 P(X1 and X2)) Z^2, as a function of x.

    Positive values certify an FKG violation for the double loop model
    (divide by Z^4 to recover P(X1)P(X2) - P(X1 and X2) Z^2, and Z >= 1).
    For n > m the trailing term is 2 x^(2n+2m); at n = m the x^(3n+m) and
    x^(2n+2m) terms collide and the difference is negative instead.
    """
    z = theta_partition(n, m)

    def difference(x):
        one_loop, both = double_loop_event_weights(n, m, x)
        return one_loop * one_loop - both * z(x) ** 2

    return difference


def cyclic_count_ratio(l: int, m: int, n: int):
    """Ratio of the two cyclic-count probabilities: Z / ((1+x^n)(1+x^(l+m))).

    Differs from 1 on (0,1), which separates the loop structure of the
    random cluster model from the double current even though single-edge
    cyclic probabilities agree.
    """
    z = partition_function([l, m, n])

    def ratio(x):
        return z(x) * 2 * x ** (l + m) / ((1 + x**n) * (2 * x ** (l + m)) * (1 + x ** (l + m)))

    return ratio


COUNTER_CONFIG_LABELS = (
    "empty",
    "2m",
    "n-up + m-up",
    "n-up + m-down",
    "n-down + m-up",
    "n-down + m-down",
    "2n",
    "2n + 2m",
)


def counter_even_table(n: int, m: int) -> list[dict]:
    """The eight even subgraphs with edge counts, weights and connectivity.

    Regenerates the counterexample bookkeeping mechanically: each row holds
    the canonical label, the number of edges, the weight exponent (weight is
    x^edges) and whether the marks a, b are connected in the subgraph.
    """
    g = counter_family(n, m)
    rows = []
    for label, mask in zip(COUNTER_CONFIG_LABELS, counter_even_masks(n, m)):
        rows.append(
            {
                "label": label,
                "mask": mask,
                "edges": mask.bit_count(),
                "weight_exponent": mask.bit_count(),
                "connects_marks": is_connected(g, mask, g.marks.a, g.marks.b),
            }
        )
    return rows
