"""Independent brute-force oracles used to validate the library's routes.

Everything here is deliberately written along different algorithmic paths
than the package (degree filtering instead of cycle-basis spans, BFS
instead of union-find, Moebius inversion instead of pair iteration, one
``Fraction`` addition per configuration instead of integer mass passes), so
an agreement is meaningful.  The per-configuration ``Fraction`` routes of
the double current's counting formula and of the uniform-even push, which
the package now computes as subset-lattice transforms, and the
per-configuration cyclic-edge route (the union of one cycle basis), which
the package reads off the even-subgraph lattice, live here as their
references, and so does the histogram of a statistic.  The float
goodness-of-fit statistics for the samplers, the coupled sampler's per-draw
``Generator.choice`` route and the chain's exact transition matrix live
here too: no certifying route reads them.  So do the closed forms, tables,
grids and serializations that only tests read (among them the mesh near
x = 1 on which acceptance C05 searches the single current's dip), the
vertex-set connection event (the oracle of the table's connection masses),
the covering-pair and all-pairs scans of an event's monotonicity, the
all-pairs lattice condition (the oracle of the two-edge form the Holley
route checks) with the FKG report around it, the Holley route's criterion
checked mask by mask on one step, the cycle basis climbed by one
graph-wide XOR per path edge (the reference for the package's linear
one), and a shortest-augmenting-path
max-flow (Edmonds & Karp): the bipartite domination oracle runs it (and
builds its up-set witness from the min cut itself), and so do the flow
tests on the package's own covering networks, so neither shares flow code
with the package's Dinic.  The oracles import no private name of the
package but the vertex-set validation of ``events`` (``test_surface``
checks this).  The exact interval
(``ExactInterval``, Fraction endpoints) is the reference the package's
rounded intervals must enclose, and shares no code with them; the ``Dist``
helpers that only tests call (a law from ``Fraction`` weights, its
probabilities, membership in a witness's up-set) live here too.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from loopcurrents.checkers import DominationReport, UpSetWitness, fkg_gaps, monotonicity_scan
from loopcurrents.errors import (
    CapExceededError,
    GraphMismatchError,
    GraphStructureError,
    LoopCurrentsError,
    ParametrizationError,
)
from loopcurrents.events import Event, _check_vertices
from loopcurrents.graphs import (
    Graph,
    check_counter,
    component_labels,
    counter_family,
    cycle_space_basis,
    edges_of_mask,
    even_lattice,
    is_connected,
    lattice_size,
    span_masks,
)
from loopcurrents.measures import (
    MODELS,
    Dist,
    build,
    counting_weights,
    loop_o1,
    point_mass,
    pythagorean_x,
    single_current_p,
)
from loopcurrents.rationals import format_rational, parse_rational
from loopcurrents.sampler import PUSHFORWARD, PUSHFORWARD_BASE, make_rng
from loopcurrents.theta import counter_even_masks


def dist_from_weights(graph: Graph, weights: dict[int, Fraction], z: Fraction | None = None) -> Dist:
    """``Dist.from_integers`` on ``Fraction`` weights over their least common
    denominator."""
    den = lcm(*(w.denominator for w in weights.values()))
    nums = {m: w.numerator * (den // w.denominator) for m, w in weights.items()}
    return Dist.from_integers(graph, nums, den, z)


def probabilities(d: Dist) -> dict[int, Fraction]:
    """P(mask) for every mask of the support."""
    mass = d.z * d.den
    return {mask: w / mass for mask, w in d.nums.items()}


def upset_contains(witness: UpSetWitness, mask: int) -> bool:
    """Is ``mask`` in the up-set generated by the witness's minimal elements?"""
    return any(mask & m == m for m in witness.minimal_elements)


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


def cycle_space_basis_by_xor(g: Graph, mask: int | None = None) -> tuple[int, ...]:
    """The package's cycle basis as it was first written: the same BFS
    forest, roots by vertex index and non-forest edges ascending, but the
    forest collected by ``tree_mask |= 1 << i`` and each fundamental cycle
    climbed with one graph-wide XOR per path edge.  Its cost grows with the
    square of a long path's length; ``graphs.cycle_space_basis`` must give
    the same elements in the same order."""
    if mask is None:
        mask = g.full_mask
    adj: dict[int, list[tuple[int, int]]] = {}
    for i in edges_of_mask(mask):
        u, v = g.edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    parent_edge = [-1] * g.vertex_count
    depth = [-1] * g.vertex_count
    tree_mask = 0
    for root in range(g.vertex_count):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        if root not in adj:
            continue
        queue = [root]
        while queue:
            u = queue.pop()
            for v, i in adj.get(u, ()):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent_edge[v] = i
                    tree_mask |= 1 << i
                    queue.append(v)
    elements = []
    for i in edges_of_mask(mask & ~tree_mask):
        u, v = g.edges[i]
        cycle = 1 << i
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            e = parent_edge[u]
            cycle ^= 1 << e
            a, b = g.edges[e]
            u = b if a == u else a
        elements.append(cycle)
    return tuple(elements)


def cyclic_edges(g: Graph, mask: int) -> int:
    """Edges of ``mask`` that lie on some cycle of (V, mask).

    These are the edges of some element of a cycle basis: every element is
    a cycle, and an edge on a cycle C lies in one of the elements whose XOR
    is C.  So the union of the fundamental cycles is the answer, and
    self-loops and doubled parallel edges are always cyclic.
    """
    cyclic = 0
    for cycle in cycle_space_basis(g, mask):
        cyclic |= cycle
    return cyclic


def double_current_lis(graph: Graph, x: Fraction) -> Dist:
    """The double current's counting formula as a law: the package's
    ``measures.counting_weights`` at x = a/b, over a^|E| b^(2|E|), so they
    add up to Z^2.  :func:`double_current_lis_per_mask` is its reference."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ParametrizationError(f"x={x} outside [0,1)")
    a, b, n = x.numerator, x.denominator, graph.edge_count
    weights = counting_weights(graph, a, b)
    if x == 0:
        return point_mass(graph, 0)
    return Dist.from_integers(graph, dict(enumerate(weights)), a**n * b ** (2 * n))


def double_current_lis_per_mask(graph: Graph, x: Fraction) -> Dist:
    """:func:`double_current_lis` one configuration at a time: for each
    w, |even(w)| = 2^dim(w) from a cycle basis of w and the inner sum over
    the even g inside w in ``Fraction``s."""
    x = Fraction(x)
    n = graph.edge_count
    if x == 0:
        return point_mass(graph, 0)
    evens = list(span_masks(cycle_space_basis(graph)))
    z = sum((x ** g.bit_count() for g in evens), Fraction(0))
    weights: dict[int, Fraction] = {}
    for mask in range(1 << n):
        inner = Fraction(0)
        for g in evens:
            if g & ~mask == 0:
                inner += x ** g.bit_count() * (x * x) ** (mask & ~g).bit_count()
        count = 1 << len(cycle_space_basis(graph, mask))
        weights[mask] = count * inner * (1 - x * x) ** (n - mask.bit_count())
    return dist_from_weights(graph, weights, z * z)


def push_uniform_even_per_support(d: Dist) -> Dist:
    """``measures.push_uniform_even`` one support element at a time: each w
    spreads its numerator, scaled to the common 2^top, over the span of its
    own cycle basis."""
    bases = [(w, cycle_space_basis(d.graph, mask)) for mask, w in d.nums.items()]
    top = max(len(basis) for _, basis in bases)
    acc: dict[int, int] = {}
    for w, basis in bases:
        share = w << (top - len(basis))
        for h in span_masks(basis):
            acc[h] = acc.get(h, 0) + share
    return Dist.from_integers(d.graph, acc, d.den << top, d.z)


def brute_union(d1: Dist, d2: Dist) -> dict[int, Fraction]:
    """Union law via Moebius inversion of P(sample subset of S).

    P(union = w) = sum over S subset of w of (-1)^(|w|-|S|) F1(S) F2(S)
    where Fi(S) = P_i(sample subset of S).
    """
    n = d1.graph.edge_count
    p1 = probabilities(d1)
    p2 = probabilities(d2)

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


def loop_dominating_steps_by_flow(g: Graph, grid) -> set[int]:
    """``overview.loop_dominating_steps`` by the covering network: g's loop
    law built at every grid point, and each step that Holley's local
    criterion does not settle decided by a max-flow
    (``checkers.monotonicity_scan``)."""
    failing = {j for j, _ in monotonicity_scan([build("loop", g, x) for x in grid])}
    return set(range(1, len(grid))) - failing


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


class EdmondsKarp:
    """Max flow by shortest augmenting paths (Edmonds & Karp 1972), one BFS
    per path, with arbitrary-precision integer capacities.  Arc idx runs to
    ``to[idx]`` with residual capacity ``cap[idx]``, its reverse arc is
    idx ^ 1, and ``head[u]`` lists the arcs out of u: the package's arc
    lists, so the flow tests run it on the package's own networks."""

    def __init__(self, head: list[list[int]], to: list[int], cap: list[int]):
        self.n = len(head)
        self.head, self.to, self.cap = head, to, cap

    def _tree(self, s: int, t: int = -1) -> list[int]:
        """The arc into each vertex reachable from s on a shortest residual
        path, s at s and -1 where s does not reach; the search stops once
        it reaches t."""
        head, to, cap = self.head, self.to, self.cap
        into = [-1] * self.n
        into[s] = s
        queue = [s]
        for u in queue:
            for idx in head[u]:
                if cap[idx]:
                    v = to[idx]
                    if into[v] < 0:
                        into[v] = idx
                        if v == t:
                            return into
                        queue.append(v)
        return into

    def max_flow(self, s: int, t: int) -> int:
        to, cap, flow = self.to, self.cap, 0
        while (into := self._tree(s, t))[t] >= 0:
            path, v = [], t
            while v != s:
                path.append(into[v])
                v = to[into[v] ^ 1]
            pushed = min(cap[idx] for idx in path)
            for idx in path:
                cap[idx] -= pushed
                cap[idx ^ 1] += pushed
            flow += pushed
        return flow

    def min_cut_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network."""
        return {v for v, idx in enumerate(self._tree(s)) if idx >= 0}


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
    p_lo = probabilities(d_lo)
    p_hi = probabilities(d_hi)
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
    net = EdmondsKarp(head, to, cap)
    if net.max_flow(0, 1) == total:
        coupling = tuple(
            (a, b, Fraction(total - net.cap[idx], total))
            for (a, b), idx in sorted(arc_ids.items())
            if total - net.cap[idx] > 0
        )
        return DominationReport(True, coupling=coupling)
    source_side = net.min_cut_side(0)
    cut_lo = [m for m in lo_masks if a_index[m] in source_side]
    # the up-set generated by the cut's low masks: its minimal elements are
    # the cut masks that contain no other cut mask
    minimal = tuple(a for a in cut_lo if not any(b != a and b & ~a == 0 for b in cut_lo))

    def mass(d: Dist) -> Fraction:
        inside = sum(w for mask, w in d.nums.items() if any(mask & g == g for g in minimal))
        return Fraction(inside, sum(d.nums.values()))

    return DominationReport(False, witness=UpSetWitness(minimal, mass(d_lo), mass(d_hi)))


# ---------------------------------------------------------------------------
# Events only tests build, and the two monotonicity scans of an event


def connect_sets(g: Graph, side_a, side_b) -> Event:
    """The event that some vertex of side_a connects to some vertex of side_b."""
    a = tuple(sorted(set(side_a)))
    b = tuple(sorted(set(side_b)))
    if not a or not b:
        raise GraphStructureError("vertex sets must be non-empty")
    _check_vertices(g, a + b)

    def connected(mask: int) -> bool:
        labels = component_labels(g, mask)
        return not {labels[u] for u in a}.isdisjoint([labels[v] for v in b])

    return Event(g, connected, increasing=True, label=f"connect-sets:{a},{b}")


def check_increasing(ev: Event):
    """Covering-pair scan: is ev closed under adding one edge?

    Returns (True, None) or (False, (mask, mask | bit)).  The covering-pair
    criterion is equivalent to monotonicity over all comparable pairs on the
    subset lattice; the equivalence is cross-checked in tests against an
    all-pairs oracle.
    """
    for mask in range(lattice_size(ev.graph, "covering-pair scan")):
        if not ev.holds(mask):
            continue
        free = ~mask & ev.graph.full_mask
        while free:
            bit = free & -free
            free ^= bit
            if not ev.holds(mask | bit):
                return False, (mask, mask | bit)
    return True, None


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


# ---------------------------------------------------------------------------
# The lattice condition over all support pairs, the oracle of the two-edge
# form that the Holley route checks, the Holley route's per-mask pair check,
# and the FKG report that bundles the lattice condition with
# ``checkers.fkg_gaps``


@dataclass(frozen=True)
class LatticeViolation:
    first: int
    second: int
    join_weight: Fraction
    meet_weight: Fraction
    product: Fraction

    def to_json_dict(self) -> dict:
        return {
            "first": hex(self.first),
            "second": hex(self.second),
            "join_times_meet": format_rational(self.join_weight * self.meet_weight),
            "product": format_rational(self.product),
        }


@dataclass(frozen=True)
class FkgReport:
    pair_gaps: tuple[tuple[str, str, Fraction], ...] = ()
    lattice_holds: bool | None = None
    lattice_violation: LatticeViolation | None = None

    def to_json_dict(self) -> dict:
        out: dict = {
            "pair_gaps": [[a, b, format_rational(g)] for a, b, g in self.pair_gaps],
        }
        if self.lattice_holds is not None:
            out["lattice_condition"] = self.lattice_holds
        if self.lattice_violation is not None:
            out["lattice_violation"] = self.lattice_violation.to_json_dict()
        return out


def fkg_report(
    d: Dist,
    event_pairs: Sequence[tuple[Event, Event]],
    check_lattice: bool = False,
) -> FkgReport:
    """Bundle pairwise FKG gaps over an event battery, optionally with the
    lattice-condition verdict.  Negative gaps certify FKG violations; the
    lattice condition is only sufficient, so its failure alone proves
    nothing about FKG."""
    (row,) = exact_rows(fkg_gaps([d], event_pairs))
    gaps = tuple((a.label, b.label, gap) for (a, b), gap in zip(event_pairs, row))
    if not check_lattice:
        return FkgReport(pair_gaps=gaps)
    lattice = lattice_condition(d)
    return FkgReport(
        pair_gaps=gaps,
        lattice_holds=lattice.lattice_holds,
        lattice_violation=lattice.lattice_violation,
    )


def lattice_condition(d: Dist) -> FkgReport:
    """Check P(join) P(meet) >= P(w) P(w') over all support pairs.

    Off-support configurations count as weight zero.  Returns the first
    violating pair in lexicographic mask order; the condition is sufficient
    for FKG but not necessary, so a failure here is not an FKG violation by
    itself.
    """
    nums, den = d.nums, d.den
    masks = sorted(nums)
    for i, m1 in enumerate(masks):
        w1 = nums[m1]
        for m2 in masks[i + 1 :]:
            w2 = nums[m2]
            join = nums.get(m1 | m2, 0)
            meet = nums.get(m1 & m2, 0)
            if join * meet < w1 * w2:
                violation = LatticeViolation(
                    m1, m2, Fraction(join, den), Fraction(meet, den), Fraction(w1 * w2, den * den)
                )
                return FkgReport(lattice_holds=False, lattice_violation=violation)
    return FkgReport(lattice_holds=True)


def holley_local_bruteforce(d_lo: Dist, d_hi: Dist) -> bool:
    """Holley's local criterion on one step, mask by mask: True when both
    laws give every mask positive weight and, for every mask m and edges
    e != f outside it, with lo and hi the laws' integer weights,
    hi(m|e|f) hi(m) >= hi(m|e) hi(m|f) and hi(m|e) lo(m) >= lo(m|e) hi(m).
    The reference of the family route ``checkers._holley_steps``: every
    mask, one step, no weight classes."""
    graphs = [(d.graph.edges, d.graph.vertex_count, d.graph.lengths) for d in (d_lo, d_hi)]
    if graphs[0] != graphs[1]:
        raise GraphMismatchError("distributions live on different graphs")
    n = d_lo.graph.edge_count
    size = 1 << n
    if len(d_lo.nums) < size or len(d_hi.nums) < size:
        return False
    lo = [d_lo.nums[m] for m in range(size)]
    hi = [d_hi.nums[m] for m in range(size)]
    for e, f in combinations([1 << i for i in range(n)], 2):
        ef = e | f
        if any(hi[m | ef] * hi[m] < hi[m | e] * hi[m | f] for m in range(size) if not m & ef):
            return False
    return all(
        hi[m | e] * lo[m] >= lo[m | e] * hi[m]
        for e in (1 << i for i in range(n))
        for m in range(size)
        if not m & e
    )


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


def connection_scan_bruteforce(name: str, g: Graph, laws, grid, watched) -> dict[str, list[dict]]:
    """``overview.scan_connection`` by ``prob_bruteforce``: for each property
    and vertex-set pair of ``watched`` (CON and SING to their pairs), the
    connection probability as a ``Fraction`` under ``laws[x]`` at every grid
    point, and one record per step where it falls, SING's with the drop."""
    found: dict[str, list[dict]] = {}
    for prop, pairs in watched.items():
        records = found[prop] = []
        for side_a, side_b in pairs:
            values = [prob_bruteforce(laws[x], connect_sets(g, side_a, side_b)) for x in grid]
            for x1, x2, v1, v2 in zip(grid, grid[1:], values, values[1:]):
                if v2 >= v1:
                    continue
                step = {"graph": name, "x1": format_rational(x1), "x2": format_rational(x2)}
                if prop == "SING":
                    label = f"connect:{side_a[0]},{side_b[0]}"
                    records.append({**step, "event": label, "drop": format_rational(v1 - v2)})
                else:
                    records.append({**step, "event": f"connect-sets:{side_a},{side_b}"})
    return found


def cyclic_count(g: Graph):
    """The number of open edges on a cycle of the open subgraph, per mask,
    read from the package's even-subgraph lattice."""
    cyclic = even_lattice(g)[1]
    return lambda mask: cyclic[mask].bit_count()


def histogram(d: Dist, value) -> dict[int, Fraction]:
    """The law of ``value(mask)`` under d, one ``Fraction`` addition per
    configuration, without values of mass 0."""
    out: dict[int, Fraction] = {}
    for mask, p in probabilities(d).items():
        k = value(mask)
        out[k] = out.get(k, Fraction(0)) + p
    return {k: p for k, p in sorted(out.items()) if p}


def bit_masses_per_law(dists, stat, width: int) -> list[tuple[list[int], int]]:
    """``measures.bit_masses`` one law at a time, bit by bit: each law's
    integer numerators summed per stat value, each sum added to the count
    of every set bit below ``width``, beside the law's numerator sum."""
    keep = (1 << width) - 1
    rows = []
    for d in dists:
        by_value: dict[int, int] = {}
        for mask, w in d.nums.items():
            s = stat(mask) & keep
            by_value[s] = by_value.get(s, 0) + w
        counts = [0] * width
        for s, w in by_value.items():
            for i in range(width):
                if s >> i & 1:
                    counts[i] += w
        rows.append((counts, sum(d.nums.values())))
    return rows


def exact_rows(rows) -> list[list[Fraction]]:
    """The ``Fraction`` values of integer rows ``(values, den)``: the masses
    of ``measures.bit_masses`` and the gaps of ``checkers.fkg_gaps``."""
    return [[Fraction(v, den) for v in values] for values, den in rows]


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


def sample_stream_per_draw(model: str, g: Graph, x: Fraction, seed: int, count: int) -> list[int]:
    """Reference for ``sampler.sample_stream``: one ``Generator.choice`` per
    loop copy, one ``random(|E|)`` call for the Bernoulli coins, and a fresh
    cycle basis for every pushforward draw."""
    import numpy as np

    x = Fraction(x)
    push = model == PUSHFORWARD
    copies, p = MODELS[PUSHFORWARD_BASE if push else model]
    p_float = None if p is None else float(p(x))
    d = loop_o1(g, x)
    masks = sorted(d.nums)
    probs = np.array([float(d.nums[m] / (d.z * d.den)) for m in masks])
    probs /= probs.sum()
    rng = make_rng(seed)
    draws = []
    for _ in range(count):
        mask = 0
        for _ in range(copies):
            mask |= masks[int(rng.choice(len(masks), p=probs))]
        if p_float is not None:
            coins = rng.random(g.edge_count)
            for i in range(g.edge_count):
                if coins[i] < p_float:
                    mask |= 1 << i
        if push:
            basis = cycle_space_basis(g, mask)
            out = 0
            if basis:
                flips = rng.integers(0, 2, size=len(basis))
                for i, c in enumerate(basis):
                    if flips[i]:
                        out ^= c
            mask = out
        draws.append(mask)
    return draws


def loop_chain_transition_matrix(g: Graph, x: Fraction):
    """Exact one-proposal transition matrix of ``sampler.loop_chain``.

    Returns (states, T) with T[i][j] a Fraction, for checking detailed
    balance against the stationary weights x^|state| exactly.
    """
    basis = cycle_space_basis(g)
    states = sorted(span_masks(basis))
    index = {s: i for i, s in enumerate(states)}
    dim = max(len(basis), 1)
    x = Fraction(x)
    size = len(states)
    T = [[Fraction(0)] * size for _ in range(size)]
    for s in states:
        i = index[s]
        stay = Fraction(0)
        for c in basis:
            new = s ^ c
            delta = new.bit_count() - s.bit_count()
            accept = min(Fraction(1), x**delta) if delta > 0 else Fraction(1)
            T[i][index[new]] += Fraction(1, dim) * accept
            stay += Fraction(1, dim) * (1 - accept)
        T[i][i] += stay
    return states, T


# ---------------------------------------------------------------------------
# Exact interval arithmetic


@dataclass(frozen=True)
class ExactInterval:
    """A closed interval with ``Fraction`` endpoints and exact arithmetic on
    them, by the textbook endpoint rules (Moore 1966): the reference that
    the package's rounded ``intervals.Interval`` must enclose.  Nothing here
    comes from ``loopcurrents.intervals``; a scalar operand is a point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value) -> "ExactInterval":
        return cls(value, value)

    @staticmethod
    def _of(value) -> "ExactInterval":
        return value if isinstance(value, ExactInterval) else ExactInterval.point(value)

    def __add__(self, other) -> "ExactInterval":
        other = self._of(other)
        return ExactInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "ExactInterval":
        return ExactInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "ExactInterval":
        return self + -self._of(other)

    def __rsub__(self, other) -> "ExactInterval":
        return -self + other

    def __mul__(self, other) -> "ExactInterval":
        other = self._of(other)
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return ExactInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactInterval":
        other = self._of(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing 0")
        return self * ExactInterval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other) -> "ExactInterval":
        return self._of(other) / self

    def __pow__(self, n: int) -> "ExactInterval":
        if n < 0:
            raise ValueError("negative interval power")
        lo, hi = sorted((self.lo**n, self.hi**n))
        if n > 0 and n % 2 == 0 and self.lo < 0 < self.hi:
            lo = Fraction(0)
        return ExactInterval(lo, hi)


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


def near_one_grid(resolution: int, count: int) -> list[Fraction]:
    """Points 1 - k/2^resolution for k = count..1, ascending toward 1; an
    empty grid is refused.  Acceptance C05 searches the single current's
    dip on it, and the table's pinned pair must be what that search finds."""
    den = 1 << resolution
    if count < 1:
        raise ParametrizationError(f"count {count} must be at least 1")
    if count >= den:
        raise ParametrizationError("count must be below 2^resolution")
    return [Fraction(den - k, den) for k in range(count, 0, -1)]


def dist_to_json(d: Dist) -> str:
    weights = [[hex(mask), format_rational(w)] for mask, w in sorted(d.weights.items())]
    return json.dumps({"z": format_rational(d.z), "weights": weights})


def dist_from_json(graph: Graph, text: str) -> Dist:
    data = json.loads(text)
    weights = {int(mask, 16): parse_rational(w) for mask, w in data["weights"]}
    return dist_from_weights(graph, weights, parse_rational(data["z"]))


# Hand-derived closed forms on the theta and counter families, each a plain
# function of x over any scalar type (``Fraction``, an interval, a sympy
# symbol): the references the core route of ``theta`` is compared with.


def partition_function(lengths):
    """Loop-model normalizer of a generalized theta graph, as a function of
    x.  The even subgraphs are the unions of an even number of full paths,
    so Z sums x^(total length of S) over the even-size path subsets S."""
    lengths = list(lengths)
    exponents = [sum(s) for k in range(0, len(lengths) + 1, 2) for s in combinations(lengths, k)]
    return lambda x: sum(x**e for e in exponents)


def counter_partition(n: int, m: int):
    """Z for the four-path family: 1 + x^2n + x^2m + 4x^(n+m) + x^(2n+2m)."""
    return partition_function([n, n, m, m])


def theta_partition(n: int, m: int, l: int | None = None):
    """Z for the three-path theta graph; l defaults to n."""
    return partition_function([n, m, n if l is None else l])


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
