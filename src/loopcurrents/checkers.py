"""FKG, stochastic domination and monotonicity certification.

Stochastic domination is decided by Strassen's criterion: mu_hi dominates
mu_lo iff a coupling supported on comparable pairs exists, iff the max flow
through the covering graph of the subset lattice carries all the mass.
Dinic's flow runs on integers (the laws' integer weights scaled to a common
total), so the verdict and both kinds of certificate are exact:

* success returns the coupling (joint weights with exact marginals);
* failure returns an up-set U, as its minimal elements, whose masses
  violate mu_lo(U) <= mu_hi(U), extracted from the min cut.

Every maximum flow has the same value and the same minimal min cut, so
the verdict and the up-set do not depend on the flow algorithm.

Monotonicity scans need only the verdict, and :func:`monotonicity_scan`
takes each step by the first of two routes that applies:

* ``holley-local``: when both laws give every configuration positive
  weight and mu_hi is a lattice law, Holley's criterion in its local form
  (:func:`_holley_steps`) proves mu_lo <= mu_hi with exact integer products,
  once per distinct weight pattern of the family.
* ``flow``: the covering network's max-flow, the only route that can fail
  a step; every refutation and witness comes from its min cut.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .errors import CapExceededError, LoopCurrentsError
from .events import Event
from .graphs import _refuse_assignment
from .measures import Dist, _require_same_graph, bit_masses
from .rationals import format_rational

# Most k * 2^k for the k lattice coordinates of a covering network.  Its
# 2^(k-1) * (k + 4) arcs peak at about 215 bytes each while their lists are
# built (tracemalloc, CPython 3.11, k = 10 to 15), about 140 bytes per unit
# of k * 2^k: the cap admits k <= 16, about 150 MB, and refuses k = 17
# (about 300 MB) and up.
COVERING_NETWORK_CAP = 1 << 20


# ---------------------------------------------------------------------------
# Reports


class UpSetWitness(NamedTuple):
    """An increasing set with more mass below than above.

    The up-set is the upward closure of ``minimal_elements`` in the subset
    lattice; ``gap = mass_lo - mass_hi > 0`` refutes domination.
    """

    minimal_elements: tuple[int, ...]
    mass_lo: Fraction
    mass_hi: Fraction

    @property
    def gap(self) -> Fraction:
        return self.mass_lo - self.mass_hi

    def to_json_dict(self) -> dict:
        return {
            "minimal_elements": [hex(m) for m in self.minimal_elements],
            "mass_lo": format_rational(self.mass_lo),
            "mass_hi": format_rational(self.mass_hi),
            "gap": format_rational(self.gap),
        }


class DominationReport:
    """A verdict with its certificate: a coupling (tuples ``(lo_mask,
    hi_mask, mass)``) if ``dominates``, an up-set witness if not."""

    __slots__ = ("dominates", "witness", "coupling")

    def __init__(self, dominates: bool, witness: UpSetWitness | None = None, coupling=None):
        if dominates == (witness is not None) or dominates != (coupling is not None):
            raise LoopCurrentsError("report must carry exactly one of witness/coupling")
        for name, value in zip(DominationReport.__slots__, (dominates, witness, coupling)):
            object.__setattr__(self, name, value)

    __setattr__ = _refuse_assignment


# ---------------------------------------------------------------------------
# FKG


def fkg_gaps(
    dists: Sequence[Dist],
    event_pairs: Sequence[tuple[Event, Event]],
) -> list[tuple[list[int], int]]:
    """P(A and B) - P(A)P(B), exact, for each law of ``dists`` and each
    pair (A, B) of ``event_pairs``: one row ``(gaps, den)`` per law, the
    gap of pair j being ``Fraction(gaps[j], den)``.  Negative certifies an
    FKG violation.  One :func:`~loopcurrents.measures.bit_masses` pass over
    the family with the stat of :func:`fkg_stat`."""
    stat, width, gaps = fkg_stat(event_pairs)
    _require_same_graph(
        *(ev.graph for pair in event_pairs for ev in pair),
        *(d.graph for d in dists),
        what="events and distributions",
    )
    return gaps(bit_masses([d.nums for d in dists], stat, width))


def fkg_stat(
    event_pairs: Sequence[tuple[Event, Event]],
) -> tuple[Callable[[int], int], int, Callable[[Sequence[tuple[Sequence[int], int]]], list]]:
    """``(stat, width, gaps)`` for the FKG gaps of ``event_pairs``: stat sets
    bit i when distinct event i holds, then bit k + j when both events of
    pair j hold, and ``gaps(rows)`` reads mass rows ``(counts, total)`` of
    stat (bits at or above ``width`` are not read) as gap rows ``(gaps,
    den)``.  With the masses c over their total S, the numerator is
    c_AB S - c_A c_B over den = S^2, so the sign is read without building a
    ``Fraction``.  Every event must be flagged increasing (the FKG
    inequality says nothing about other events); any other is refused."""
    events = list({id(ev): ev for pair in event_pairs for ev in pair}.values())
    if not all(ev.increasing for ev in events):
        raise LoopCurrentsError("FKG gaps need events flagged increasing (connect, edge_open, all_open)")
    pairs = [(events.index(a), events.index(b)) for a, b in event_pairs]
    k = len(events)

    def stat(mask):
        s = sum(1 << i for i, ev in enumerate(events) if ev.holds(mask))
        return s | sum(1 << k + j for j, (i, i2) in enumerate(pairs) if s >> i & s >> i2 & 1)

    def gaps(rows):
        return [
            ([c[k + j] * total - c[i] * c[i2] for j, (i, i2) in enumerate(pairs)], total * total)
            for c, total in rows
        ]

    return stat, k + len(pairs), gaps


# ---------------------------------------------------------------------------
# Exact max-flow (Dinic) on the covering graph of the subset lattice


class _Dinic:
    """Max flow with arbitrary-precision integer capacities.  Arc idx runs
    to ``to[idx]`` with residual capacity ``cap[idx]``, its reverse arc is
    idx ^ 1, and ``head[u]`` lists the arcs out of u.  The flow writes only
    ``cap``, so one pair of arc lists can serve many networks.  Dinic
    (1970): residual BFS levels, then an iterative blocking flow, until t
    is out of reach."""

    def __init__(self, head: list[list[int]], to: list[int], cap: list[int]):
        self.n = len(head)
        self.head, self.to, self.cap = head, to, cap

    def max_flow(self, s: int, t: int) -> int:
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            # BFS levels of the residual network, up to t's level
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                if level[t] >= 0:
                    break
                nxt = level[u] + 1
                for idx in head[u]:
                    v = to[idx]
                    if level[v] < 0 and cap[idx]:
                        level[v] = nxt
                        queue.append(v)
            if level[t] < 0:
                return flow
            # blocking flow: walk forward along admissible arcs, push on
            # reaching t, retreat when stuck
            it = [0] * self.n
            stack = [s]
            path: list[int] = []
            while stack:
                u = stack[-1]
                if u == t:
                    pushed = min(cap[idx] for idx in path)
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    flow += pushed
                    for pos, idx in enumerate(path):
                        if not cap[idx]:
                            del stack[pos + 1 :]
                            del path[pos:]
                            break
                    continue
                arcs, i, want = head[u], it[u], level[u] + 1
                end = len(arcs)
                while i < end:
                    idx = arcs[i]
                    if cap[idx] and level[to[idx]] == want:
                        break
                    i += 1
                it[u] = i
                if i < end:
                    stack.append(to[idx])
                    path.append(idx)
                else:
                    level[u] = -1  # dead end for this phase
                    stack.pop()
                    if path:
                        path.pop()

    def min_cut_side(self, s: int) -> set[int]:
        """Vertices reachable from s in the residual network."""
        seen = {s}
        queue = [s]
        for u in queue:
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _minimal_masks(masks: Sequence[int]) -> tuple[int, ...]:
    out = []
    for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not any(m & kept == kept for kept in out):
            out.append(m)
    return tuple(sorted(out))


def _lattice_coordinates(full: int, masks: Sequence[int]) -> list[int]:
    """Classes of edges that every mask contains all or none of, leaving out
    the edges in every mask or in none: mask A is inside mask B iff the
    classes A meets are among those B meets, so the subset lattice of the
    classes keeps every containment between the masks."""
    some, every = 0, full
    for m in masks:
        some |= m
        every &= m
    varying = some & ~every
    classes = [varying] if varying else []
    for m in masks:
        if len(classes) == varying.bit_count():
            break
        classes = [part for c in classes for part in (c & m, c & ~m) if part]
    return classes


@lru_cache(maxsize=1)
def _covering_arcs(k: int) -> tuple[list[list[int]], list[int]]:
    """Arc lists of the covering network of the subset lattice of k
    coordinates, shared by every flow on it: node 0 is the source, 1 the
    sink and 2 + c the lattice point c.  Point c has its source arc at 4c
    and its sink arc at 4c + 2, and the covering arcs c -> c | bit follow
    from 4 << k on.  A flow with no mass at a point gives those arcs
    capacity 0."""
    size = 1 << k
    head: list[list[int]] = [[] for _ in range(2 + size)]
    to: list[int] = []
    arcs = [arc for c in range(size) for arc in ((0, 2 + c), (2 + c, 1))]
    arcs += [(2 + c, 2 + (c | 1 << i)) for c in range(size) for i in range(k) if not c >> i & 1]
    for u, v in arcs:
        head[u].append(len(to))
        to.append(v)
        head[v].append(len(to))
        to.append(u)
    return head, to


class _CoveringFlow:
    """Strassen's network for d_lo <=st d_hi, saturated by a max-flow.

    Network on the covering graph of the subset lattice of the edge classes
    (:func:`_lattice_coordinates`): source -> the point of each low-support
    mask A (capacity P_lo(A)), uncapacitated covering arcs c -> c | bit,
    the point of each high-support mask B -> sink (capacity P_hi(B)).
    Containment is the transitive closure of covering, so full flow exists
    iff a coupling on comparable pairs does (Strassen 1965), and
    :meth:`coupling` reads it off the flow's path decomposition.  On a
    deficit the residual source side is the minimal min cut, closed upward,
    and its low-support masks generate the violating up-set ``witness``;
    ``witness`` is None when the flow carries all the mass.
    """

    def __init__(self, d_lo: Dist, d_hi: Dist):
        _require_same_graph(d_lo.graph, d_hi.graph)
        nums_lo, nums_hi = d_lo.nums, d_hi.nums
        classes = _lattice_coordinates(d_lo.graph.full_mask, [*nums_lo, *nums_hi])
        k = len(classes)
        # refuse the network before any of its arcs is built
        if k << k > COVERING_NETWORK_CAP:
            raise CapExceededError("domination lattice", k << k, COVERING_NETWORK_CAP)
        node = dict.fromkeys((*nums_lo, *nums_hi), 2)
        for i, c in enumerate(classes):
            for m in node:
                if m & c:
                    node[m] += 1 << i

        # P(m) = nums[m] / (z * den), and the numerators sum to z * den:
        # scale both laws to the same integer total
        mass_lo, mass_hi = sum(nums_lo.values()), sum(nums_hi.values())
        total = lcm(mass_lo, mass_hi)
        scale_lo, scale_hi = total // mass_lo, total // mass_hi
        head, to = _covering_arcs(k)
        cap = [0] * (4 << k) + [total, 0] * (k << k >> 1)
        source_arcs = {m: 4 * (node[m] - 2) for m in nums_lo}
        for m, w in nums_lo.items():
            cap[source_arcs[m]] = w * scale_lo
        # a point with mass in both laws starts by sending the smaller mass
        # straight from the source to the sink
        direct = 0
        for m, w in nums_hi.items():
            a = 4 * (node[m] - 2)
            f = min(cap[a], w * scale_hi)
            cap[a : a + 4] = cap[a] - f, f, w * scale_hi - f, f
            direct += f
        net = _Dinic(head, to, cap)
        self.net, self.node, self.total = net, node, total
        self.source_arcs, self.hi_masks = source_arcs, list(nums_hi)

        self.witness = None
        if direct + net.max_flow(0, 1) < total:
            source_side = net.min_cut_side(0)
            self.witness = _upset_witness(
                [m for m in nums_lo if node[m] in source_side], d_lo, d_hi
            )
            if self.witness.gap <= 0:
                raise LoopCurrentsError("internal error: min cut produced a non-violating up-set")

    def coupling(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Split the full flow into source-to-sink paths: the lattice points,
        in topological order, pass the parcels of low mass they hold on
        along their outgoing arcs (the flow on arc idx is the residual
        capacity of its reverse arc idx ^ 1)."""
        net, node = self.net, self.node
        held: list[list[list[int]]] = [[] for _ in range(net.n)]
        for a, arc in self.source_arcs.items():
            held[node[a]].append([a, net.cap[arc ^ 1]])
        hi_at = {node[m]: m for m in self.hi_masks}
        pairs: dict[tuple[int, int], int] = {}
        for u in range(2, net.n):
            parcels = held[u]
            for idx in net.head[u]:
                flow = 0 if idx & 1 else net.cap[idx ^ 1]
                while flow:
                    parcel = parcels[-1]
                    a, moved = parcel[0], min(parcel[1], flow)
                    if net.to[idx] == 1:
                        pairs[a, hi_at[u]] = pairs.get((a, hi_at[u]), 0) + moved
                    else:
                        held[net.to[idx]].append([a, moved])
                    flow -= moved
                    parcel[1] -= moved
                    if not parcel[1]:
                        parcels.pop()
        return tuple((a, b, Fraction(f, self.total)) for (a, b), f in sorted(pairs.items()))


def stochastic_domination(d_lo: Dist, d_hi: Dist) -> DominationReport:
    """Decide whether d_hi stochastically dominates d_lo, with certificate:
    the coupling of the covering network's full flow, or the up-set of its
    min cut (:class:`_CoveringFlow`)."""
    flow = _CoveringFlow(d_lo, d_hi)
    if flow.witness is not None:
        return DominationReport(False, witness=flow.witness)
    return DominationReport(True, coupling=flow.coupling())


def _holley_steps(laws: Sequence[Dist]) -> list[bool]:
    """Holley's criterion in its local form at each step of a family: entry
    j - 1 is True when lo = laws[j - 1] and hi = laws[j] give every mask
    positive weight and, for every mask m and edges e != f outside it, their
    integer weights meet hi(m|e|f) hi(m) >= hi(m|e) hi(m|f) (the lattice
    condition on two-edge differences) and hi(m|e) lo(m) >= lo(m|e) hi(m)
    (given the other edges, e is at least as likely open under hi as lo).

    For strictly positive laws the first implies the full lattice condition,
    so the conditional probability that hi opens e increases with the rest
    of the configuration; with the second, for xi <= omega it is at least
    the probability that lo opens e given xi.  The heat-bath chain that
    resamples one edge of both configurations with the same uniform then
    keeps xi <= omega; each marginal chain is irreducible with stationary
    law lo or hi, so its limit couples lo below hi (Holley 1974).  The
    condition is only sufficient: False proves nothing.

    The weights enter through classes of masks equal in every full-support
    law, each named by its first mask, so one pass finds the distinct class
    tuples of the triples (m, e, f) and a step multiplies out one triple per
    tuple.  A family with no full-support step reads no weight.
    """
    _require_same_graph(*(d.graph for d in laws))
    full = [len(d.nums) == 1 << d.graph.edge_count for d in laws]
    steps = [a and b for a, b in zip(full, full[1:])]
    if not any(steps):
        return steps
    masks = range(1 << laws[0].graph.edge_count)
    first: dict[tuple[int, ...], int] = {}
    keys = zip(*(map(d.nums.__getitem__, masks) for d, ok in zip(laws, full) if ok))
    cls = [first.setdefault(key, m) for m, key in zip(masks, keys)]
    nums = [d.nums for d in laws]
    bits = [1 << i for i in range(laws[0].graph.edge_count)]
    quads, pairs = set(), set()
    for i, e in enumerate(bits):
        pairs.update((cls[m | e], cls[m]) for m in masks if not m & e)
        for f in bits[i + 1 :]:
            ef = e | f
            quads.update((cls[m | ef], cls[m], cls[m | e], cls[m | f]) for m in masks if not m & ef)
    return [
        ok
        and all(hi[a] * hi[b] >= hi[c] * hi[d] for a, b, c, d in quads)
        and all(hi[a] * lo[b] >= lo[a] * hi[b] for a, b in pairs)
        for ok, lo, hi in zip(steps, nums, nums[1:])
    ]


def _upset_witness(generators: Sequence[int], d_lo: Dist, d_hi: Dist) -> UpSetWitness:
    minimal = _minimal_masks(generators)

    def inside(mask):
        return any(mask & g == g for g in minimal)

    ((lo,), total_lo), ((hi,), total_hi) = bit_masses([d_lo.nums, d_hi.nums], inside, 1)
    return UpSetWitness(minimal, Fraction(lo, total_lo), Fraction(hi, total_hi))


# ---------------------------------------------------------------------------
# Scans


def monotonicity_scan(laws: Sequence[Dist]) -> list[tuple[int, UpSetWitness]]:
    """Check stochastic domination between consecutive laws of a family.

    Returns ``(j, witness)`` for every step where ``laws[j]`` fails to
    dominate ``laws[j - 1]``, with the min cut's up-set.  A step whose laws
    meet the local Holley criterion (:func:`_holley_steps`, called once for
    the family: both laws strictly positive, the higher one a lattice law)
    dominates without a flow; every other step runs the covering network's
    max-flow, and no coupling is built.  An empty list is scan evidence,
    never a monotonicity proof.
    """
    declined = [j for j, holds in enumerate(_holley_steps(laws), 1) if not holds]
    witnesses = [(j, _CoveringFlow(laws[j - 1], laws[j]).witness) for j in declined]
    return [(j, witness) for j, witness in witnesses if witness is not None]
