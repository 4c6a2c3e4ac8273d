"""Exact finitely-supported distributions over edge configurations.

A :class:`Dist` stores unnormalized weights, as integer numerators over one
common denominator, together with the normalizer Z, so quantities like "Z
times the probability of an event" stay representable as single exact
rationals.  All constructors and combinators are exact; no floating point
enters this module.

The models follow the union-coupling definitions, each one row of the
registry :data:`MODELS`: k independent loop-model copies, unioned with
Bernoulli(p(x)) percolation.  :func:`point_laws` builds the rows at one
(graph, x) on one shared loop law and its k-fold unions, and keeps no row;
:func:`build` takes one row of them.  The rows:

* loop model: weight x^|g| on every even subgraph g;
* random cluster (q=2): loop union Bernoulli(x);
* single random current: loop union Bernoulli(p), p = 1 - sqrt(1-x^2),
  which is rational exactly when 1 - x^2 is a rational square, that is
  when x = 2t/(1+t^2) for rational t;
* doubles: two independent copies of the base model, unioned, or
  equivalently the double loop model union Bernoulli at the doubled
  parameter (x^2 for currents, x(2-x) for clusters).

On a core graph (``Graph.lengths``) an edge of length L carries x^L in the
loop layer and opens with p^L in the Bernoulli layer, so every row is the
law of the whole-path events of the subdivided graph.

Event and edge masses over a family of laws all come from
:func:`bit_masses`, as integer counts over each law's numerator sum; a
``Fraction`` is built only where a value is returned or written
(:func:`prob`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, isqrt
from typing import Callable, Sequence

from .errors import (
    CapExceededError,
    GraphMismatchError,
    LoopCurrentsError,
    ParametrizationError,
)
from .graphs import (
    Graph,
    edges_of_mask,
    even_lattice,
    even_subgraphs,
    lattice_size,
    subset_sums,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Dist:
    """Exact distribution over edge masks: P(mask) = nums[mask] / (z * den),
    with positive integer numerators in lowest terms, gcd(den, *nums) == 1,
    summing to z * den.  The constructor checks this, so ``==`` can compare
    the fields; :meth:`from_integers` brings any weights to that form."""

    graph: Graph
    nums: dict[int, int]
    den: int
    z: Fraction

    def __post_init__(self):
        den, nums, z = self.den, self.nums, self.z
        if den <= 0:
            raise LoopCurrentsError(f"denominator {den} must be positive")
        full = self.graph.full_mask
        for mask, w in nums.items():
            if mask & ~full:
                raise LoopCurrentsError(f"mask {hex(mask)} has bits outside the graph's edges")
            if w <= 0:
                raise LoopCurrentsError(f"non-positive weight {Fraction(w, den)} at {hex(mask)}")
        if z <= 0:
            raise LoopCurrentsError(f"normalizer Z={z} must be positive")
        total = sum(nums.values())
        if total != z * den:
            raise LoopCurrentsError(f"weights sum to {Fraction(total, den)}, expected Z={z}")
        if gcd(den, *nums.values()) != 1:
            raise LoopCurrentsError(f"weights over {den} are not in lowest terms")

    @classmethod
    def from_integers(
        cls, graph: Graph, nums: dict[int, int], den: int, z: Fraction | None = None
    ) -> "Dist":
        """The law with weights nums/den: drops zero weights and reduces by
        the gcd; the constructor checks the rest.  If ``z`` is given, the
        numerators must sum to exactly z * den, which verifies identities like
        "these weights add up to Z^2" on construction."""
        clean = {mask: w for mask, w in nums.items() if w}
        if z is None:
            z = Fraction(sum(clean.values()), den) if den else ZERO
        common = gcd(den, *clean.values())
        if common > 1:
            clean = {m: w // common for m, w in clean.items()}
            den //= common
        return cls(graph, clean, den, Fraction(z))

    @property
    def weights(self) -> dict[int, Fraction]:
        """The weights nums/den as ``Fraction``s, P(mask) = weights[mask] / z."""
        return {m: Fraction(w, self.den) for m, w in self.nums.items()}

    def same_law(self, other: "Dist") -> bool:
        """Exact equality as probability measures (Z conventions may differ)."""
        if not _same_graph(self.graph, other.graph):
            return False
        if self.nums.keys() != other.nums.keys():
            return False
        # nums / mass == other.nums / other_mass, cross-multiplied in integers
        mass, other_mass = self.z * self.den, other.z * other.den
        scale = other_mass.numerator * mass.denominator
        other_scale = mass.numerator * other_mass.denominator
        return all(w * scale == other.nums[m] * other_scale for m, w in self.nums.items())


def point_mass(graph: Graph, mask: int) -> Dist:
    return Dist.from_integers(graph, {mask: 1}, 1)


# ---------------------------------------------------------------------------
# Parameters


def pythagorean_x(t) -> Fraction:
    """x = 2t/(1+t^2) for t in [0,1): then sqrt(1-x^2) = (1-t^2)/(1+t^2)."""
    t = Fraction(t)
    if not 0 <= t < 1:
        raise ParametrizationError(f"t={t} outside [0,1)")
    return 2 * t / (1 + t * t)


def single_current_p(x) -> Fraction:
    """p = 1 - sqrt(1-x^2), exact.  For x = a/b in lowest terms this is
    rational iff b^2 - a^2 is a perfect square s^2, and then p = 1 - s/b."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ParametrizationError(f"x={x} outside [0,1)")
    a, b = x.numerator, x.denominator
    s = isqrt(b * b - a * a)
    if s * s != b * b - a * a:
        raise ParametrizationError(
            f"exact single-current p needs 1 - x^2 to be a rational square, not at x={x}; "
            "x = 2t/(1+t^2) gives one (certified interval evaluation is available for "
            "closed forms at generic x)"
        )
    return 1 - Fraction(s, b)


# ---------------------------------------------------------------------------
# Basic constructors


# Most bits of the loop law's denominator b^n (x = a/b, n the total edge
# length), bounded above by n * bit_length(b) before any power is built.
# At the cap, figure --model l --n 43000 --m 2 --grid-steps 2 (three laws
# of about 2^18 bits) takes 0.9 s and --model l2 3.4 s; at 2^20 bits
# (--n 174000) they took 11 s and 50 s (CPython 3.11, 2-vCPU Xeon).  The
# README's figures need at most 560 bits, and the exact single current at
# (2000, 300) and x = 1012/1013 needs 46,000.
LOOP_WEIGHT_BITS_CAP = 1 << 18


def bernoulli(graph: Graph, p: Fraction) -> Dist:
    """Independent edge percolation: with p = c/e, weight c^|w| (e-c)^(|E|-|w|)
    over e^|E|, Z = 1."""
    return union_bernoulli(point_mass(graph, 0), p)


def loop_o1(graph: Graph, x: Fraction) -> Dist:
    """Loop model: weight x^|g| on every even subgraph g, Z = sum of weights,
    where |g| is the total length of g's edges (its edge count unless the
    graph is a core).  With x = a/b and total length n of the graph, the
    weights are a^|g| b^(n-|g|) over b^n."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ParametrizationError(f"x={x} outside [0,1)")
    if x == 0:
        return point_mass(graph, 0)
    lengths = graph.lengths
    a, b = x.numerator, x.denominator
    n = graph.edge_count if lengths is None else sum(lengths)
    if n * b.bit_length() > LOOP_WEIGHT_BITS_CAP:
        raise CapExceededError("loop-model weight bits", n * b.bit_length(), LOOP_WEIGHT_BITS_CAP)
    nums: dict[int, int] = {}
    powers: dict[int, int] = {}
    for g in even_subgraphs(graph):
        k = g.bit_count() if lengths is None else sum(lengths[i] for i in edges_of_mask(g))
        if k not in powers:
            powers[k] = a**k * b ** (n - k)
        nums[g] = powers[k]
    return Dist.from_integers(graph, nums, b**n)


# ---------------------------------------------------------------------------
# Union couplings


# Most support pairs union() iterates.  The CLI's largest union is 64 x 64
# pairs (the double loop of verify's random-14); a double loop model at
# CYCLE_DIMENSION_CAP is 2^40.
UNION_PAIR_CAP = 1 << 24


def union(d1: Dist, d2: Dist) -> Dist:
    """Distribution of the union of independent samples from d1 and d2.

    Iterates support pairs on integer numerators; the result has
    Z = Z1*Z2 over the denominator den1*den2.
    """
    _require_same_graph(d1.graph, d2.graph)
    pairs = len(d1.nums) * len(d2.nums)
    if pairs > UNION_PAIR_CAP:
        raise CapExceededError("union support pairs", pairs, UNION_PAIR_CAP)
    items2 = list(d2.nums.items())
    acc: dict[int, int] = {}
    get = acc.get
    for m1, w1 in d1.nums.items():
        for m2, w2 in items2:
            m = m1 | m2
            acc[m] = get(m, 0) + w1 * w2
    return Dist.from_integers(d1.graph, acc, d1.den * d2.den, d1.z * d2.z)


def union_bernoulli(d: Dist, p: Fraction) -> Dist:
    """Union of d with independent Bernoulli(p) percolation.

    Same measure as ``union(d, bernoulli(graph, p))`` (asserted by tests) but
    computed edge by edge over the 2^|E| lattice, which keeps the doubled
    models usable inside exhaustive verification batteries.  An edge of
    length L opens with p^L: on a core, its path is open when all its
    edges are.  With p^L = c^L/e^L and the weights of d as integers over
    their denominator, opening each edge independently maps the pair
    (lo, hi) of masks without and with that edge to

        (lo, hi) -> ((e^L - c^L) * lo, e^L * hi + c^L * lo),

    so the whole pass stays in integers, over the denominator den * e^n,
    n the total length of the graph.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise LoopCurrentsError(f"p={p} outside [0,1]")
    lengths = d.graph.lengths or (1,) * d.graph.edge_count
    size = lattice_size(d.graph, "Bernoulli union lattice")
    table = [0] * size
    for mask, w in d.nums.items():
        table[mask] = w
    for bit, length in enumerate(lengths):
        c, e = p.numerator**length, p.denominator**length
        q = e - c
        step = 1 << bit
        for block in range(0, size, step << 1):
            for lo in range(block, block + step):
                low = table[lo]
                table[lo + step] = e * table[lo + step] + c * low
                table[lo] = q * low
    den = d.den * p.denominator ** sum(lengths)
    return Dist.from_integers(d.graph, dict(enumerate(table)), den, d.z)


# Every model is k independent loop-model copies, unioned with Bernoulli(p(x))
# when p is given: name -> (loop copies, p or None).  The order is the row
# order of the overview table.
MODELS: dict[str, tuple[int, Callable[[Fraction], Fraction] | None]] = {
    "loop": (1, None),
    "single_current": (1, single_current_p),
    "random_cluster": (1, lambda x: x),
    "double_loop": (2, None),
    "double_current": (2, lambda x: x * x),
    "double_cluster": (2, lambda x: x * (2 - x)),
}


def point_laws(graph: Graph, x: Fraction) -> Callable[[str], Dist]:
    """``law(name)``: the exact law of the registered model ``name`` at edge
    weight ``x``, built on each call (a caller that rereads rows caches it)
    on one loop law and its k-fold unions, each built once on first use.
    The name and p(x) are checked before anything is enumerated."""
    x = Fraction(x)

    @cache
    def loops(copies: int) -> Dist:
        return loop_o1(graph, x) if copies == 1 else union(loops(copies - 1), loops(1))

    def law(name: str) -> Dist:
        if name not in MODELS:
            raise LoopCurrentsError(f"unknown model {name!r}; choose from {tuple(MODELS)}")
        copies, p = MODELS[name]
        p_x = None if p is None else p(x)  # may raise: check before enumerating
        return loops(copies) if p_x is None else union_bernoulli(loops(copies), p_x)

    return law


def build(name: str, graph: Graph, x: Fraction) -> Dist:
    """Exact law of the registered model ``name`` at edge weight ``x``."""
    return point_laws(graph, x)(name)


def double_loop(graph: Graph, x: Fraction) -> Dist:
    """Union of two independent loop-model samples."""
    return build("double_loop", graph, x)


def double_current(graph: Graph, x: Fraction) -> Dist:
    """Traced sourceless double random current: double loop union Bernoulli(x^2)."""
    return build("double_current", graph, x)


def double_current_lis(graph: Graph, x: Fraction) -> Dist:
    """Double random current built from its even-subgraph counting formula.

    For each configuration w:

        P(w) = |even(w)| / Z^2 * sum_{g even, g subset of w}
               x^|g| * x^(2|w \\ g|) * (1-x^2)^(|E|-|w|)

    With x = a/b and q = b^2 - a^2, the sum over g is the subset-sum S[w] of
    a^(|E|-|g|) b^|g| over the even g, so the weight of w is the integer
    |even(w)| a^(2|w|) S[w] q^(|E|-|w|) over a^|E| b^(2|E|), and the weights
    must add up to Z^2.  This is an independent route to the same measure
    as the ``double_current`` row; the two are compared exactly in tests.
    """
    x = Fraction(x)
    if not 0 <= x < 1:
        raise LoopCurrentsError(f"x={x} outside [0,1)")
    size = lattice_size(graph, "double-current lattice")
    if x == 0:
        return point_mass(graph, 0)
    a, b, n = x.numerator, x.denominator, graph.edge_count
    count, _ = even_lattice(graph)
    sums = [0] * size
    z = 0
    for g in even_subgraphs(graph):
        k = g.bit_count()
        sums[g] = a ** (n - k) * b**k
        z += a**k * b ** (n - k)
    subset_sums(sums)
    scale = [a ** (2 * k) * (b * b - a * a) ** (n - k) for k in range(n + 1)]
    nums = {w: count[w] * scale[w.bit_count()] * sums[w] for w in range(size)}
    return Dist.from_integers(graph, nums, a**n * b ** (2 * n), Fraction(z, b**n) ** 2)


def push_uniform_even(d: Dist) -> Dist:
    """Pick a configuration from d, then a uniform even subgraph of it.

    P_out(h) = sum over w containing h of P(w) / |even(w)|, read at the even
    h, on numerators over den * 2^top, with top the largest cycle-space
    dimension in the support.  The supersets of h are the complements of
    the subsets of its complement, so the sum is a subset-sum.
    """
    size = lattice_size(d.graph, "uniform-even push lattice")
    count, _ = even_lattice(d.graph)
    dims = {w: count[w].bit_length() - 1 for w in d.nums}
    top = max(dims.values())
    full = d.graph.full_mask
    acc = [0] * size
    for w, num in d.nums.items():
        acc[full ^ w] = num << (top - dims[w])
    subset_sums(acc)
    nums = {h: acc[full ^ h] for h in even_subgraphs(d.graph)}
    return Dist.from_integers(d.graph, nums, d.den << top, d.z)


# ---------------------------------------------------------------------------
# Probabilities


def bit_masses(
    dists: Sequence[Dist], stat: Callable[[int], int], width: int
) -> list[tuple[list[int], int]]:
    """Integer masses of bit i of stat(mask), for each i < width: one row
    ``(counts, total)`` per law of ``dists``, where P(bit i is set) is
    counts[i] / total and total is the sum of the law's numerators.  No
    ``Fraction`` is built: a caller compares masses by cross-multiplying,
    and builds ``Fraction(count, total)`` only for a value it writes out.

    stat runs once per distinct configuration across the family; each law
    adds its integer numerators per stat value.  The laws' totals per value
    are packed into one integer, law j in lane j, each packed total goes to
    its value's set bits once, and each lane is read back by shift and
    mask: a lane is as wide as the largest numerator sum, and the
    numerators are positive, so no carry crosses a lane.  An event is the
    one-bit stat ``holds``, the edge masses are the stat ``mask`` at width
    |E|; bits of stat at or above ``width`` are not counted."""
    keep = (1 << width) - 1
    stats = {m: stat(m) & keep for m in dict.fromkeys(m for d in dists for m in d.nums)}
    sums = [sum(d.nums.values()) for d in dists]
    lane = max(sums, default=0).bit_length()
    packed: dict[int, int] = {}
    for j, d in enumerate(dists):
        by_value: dict[int, int] = {}
        for mask, w in d.nums.items():
            by_value[stats[mask]] = by_value.get(stats[mask], 0) + w
        for s, w in by_value.items():
            packed[s] = packed.get(s, 0) + (w << j * lane)
    totals = [0] * width
    for s, w in packed.items():
        while s:
            low = s & -s
            totals[low.bit_length() - 1] += w
            s ^= low
    lane_mask = (1 << lane) - 1
    return [([t >> j * lane & lane_mask for t in totals], total) for j, total in enumerate(sums)]


def prob(d: Dist, event) -> Fraction:
    """Exact probability of an event (see events module) under d."""
    _require_same_graph(event.graph, d.graph, what="event and distribution")
    (((count,), total),) = bit_masses([d], event.holds, 1)
    return Fraction(count, total)


def _same_graph(*graphs: Graph) -> bool:
    """The one "same graph" test of the package: equal edge lists, vertex
    counts and edge lengths."""
    first = graphs[0]
    return all(
        (g.edges, g.vertex_count, g.lengths) == (first.edges, first.vertex_count, first.lengths)
        for g in graphs[1:]
    )


def _require_same_graph(*graphs: Graph, what: str = "distributions") -> None:
    if not _same_graph(*graphs):
        raise GraphMismatchError(f"{what} live on different graphs")
