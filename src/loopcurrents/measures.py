"""Exact finitely-supported distributions over edge configurations.

A :class:`Dist` stores unnormalized weights, as integer numerators over one
common denominator, together with the normalizer Z, so quantities like "Z
times the probability of an event" stay representable as single exact
rationals.  The numerators are kept as the kernels build them, not
reduced, and ``==`` compares laws.  All constructors and combinators are
exact; no floating point enters this module.

The models follow the union-coupling definitions, each one row of the
registry :data:`MODELS`: k independent loop-model copies, unioned with
Bernoulli(p(x)) percolation, and :func:`build` makes one row's law.  The
rows:

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

The rows whose p is a polynomial in x also come as integer polynomials
from :func:`polynomial_laws`, the one packed-row builder: its lattice
tables, read at an evaluation point (a, b), are the weights at x = a/b,
or at (2^S, 1) each weight packed into one integer by x -> 2^S.  The
union and the Bernoulli pass (:func:`_open_edges`, shared with
:func:`union_bernoulli`) run only ring operations, so they serve both,
and so do the counting formula (:func:`counting_weights`) and the
uniform-even push (:func:`push_even`).  :func:`polynomial_masses` reads
the packed rows to give the masses along a grid of x without building a
law per point, decoding and evaluating each distinct mass polynomial of a
row once; ``verify`` compares the tables themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from math import isqrt
from operator import add, mul
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


@dataclass(frozen=True, eq=False)
class Dist:
    """Exact distribution over edge masks: P(mask) = nums[mask] / (z * den),
    with positive integer numerators summing to z * den.  The numerators are
    kept as built, with no common factor taken out, so one law has many
    (nums, den) pairs: ``==`` is :meth:`same_law` with equal ``z``, and a
    law is not hashable.  The constructor refuses fields that break this."""

    graph: Graph
    nums: dict[int, int]
    den: int
    z: Fraction

    def __post_init__(self):
        den, nums, z = self.den, self.nums, self.z
        if den <= 0:
            raise LoopCurrentsError(f"denominator {den} must be positive")
        full = self.graph.full_mask
        if nums and (min(nums) < 0 or max(nums) > full):
            mask = next(m for m in nums if m & ~full)
            raise LoopCurrentsError(f"mask {hex(mask)} has bits outside the graph's edges")
        if nums and min(nums.values()) <= 0:
            mask, w = next((m, w) for m, w in nums.items() if w <= 0)
            raise LoopCurrentsError(f"non-positive weight {Fraction(w, den)} at {hex(mask)}")
        if z <= 0:
            raise LoopCurrentsError(f"normalizer Z={z} must be positive")
        total = sum(nums.values())
        if total != z * den:
            raise LoopCurrentsError(f"weights sum to {Fraction(total, den)}, expected Z={z}")

    @classmethod
    def from_integers(
        cls, graph: Graph, nums: dict[int, int], den: int, z: Fraction | None = None
    ) -> "Dist":
        """The law with weights nums/den, zero weights dropped.  Without
        ``z`` the normalizer is their sum; with it, the numerators must sum
        to exactly z * den, which verifies identities like "these weights
        add up to Z^2" on construction."""
        clean = {mask: w for mask, w in nums.items() if w}
        if z is None:
            z = Fraction(sum(clean.values()), den) if den else ZERO
        return cls(graph, clean, den, Fraction(z))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self.z == other.z and self.same_law(other)

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
    a, b = x.numerator, x.denominator
    n = sum(_edge_lengths(graph))
    if n * b.bit_length() > LOOP_WEIGHT_BITS_CAP:
        raise CapExceededError("loop-model weight bits", n * b.bit_length(), LOOP_WEIGHT_BITS_CAP)
    sizes = _even_sizes(graph)
    powers = {k: a**k * b ** (n - k) for k in set(sizes.values())}
    return Dist.from_integers(graph, {g: powers[k] for g, k in sizes.items()}, b**n)


def _edge_lengths(graph: Graph) -> tuple[int, ...]:
    """The length of each edge: ``graph.lengths`` on a core, else all 1."""
    return graph.lengths or (1,) * graph.edge_count


def _even_sizes(graph: Graph) -> dict[int, int]:
    """|g|, the total length of g's edges, for every even subgraph g."""
    lengths = graph.lengths
    if lengths is None:
        return {g: g.bit_count() for g in even_subgraphs(graph)}
    return {g: sum(lengths[i] for i in edges_of_mask(g)) for g in even_subgraphs(graph)}


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
    acc = _union_nums(d1.nums, d2.nums)
    return Dist.from_integers(d1.graph, acc, d1.den * d2.den, d1.z * d2.z)


def _union_nums(nums1: dict[int, int], nums2: dict[int, int]) -> dict[int, int]:
    """The weight of m is the sum of w1 * w2 over the support pairs with
    m1 | m2 = m, refused above :data:`UNION_PAIR_CAP` pairs."""
    pairs = len(nums1) * len(nums2)
    if pairs > UNION_PAIR_CAP:
        raise CapExceededError("union support pairs", pairs, UNION_PAIR_CAP)
    items2 = list(nums2.items())
    acc: dict[int, int] = {}
    get = acc.get
    for m1, w1 in nums1.items():
        for m2, w2 in items2:
            m = m1 | m2
            acc[m] = get(m, 0) + w1 * w2
    return acc


def union_bernoulli(d: Dist, p: Fraction) -> Dist:
    """Union of d with independent Bernoulli(p) percolation: the law of
    ``union(d, bernoulli(graph, p))``, computed edge by edge over the 2^|E|
    lattice (:func:`_open_edges`) in integers over den * e^n, for p = c/e
    and n the total length.  An edge of length L opens with p^L: on a core,
    its path is open when all its edges are."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise LoopCurrentsError(f"p={p} outside [0,1]")
    lengths = _edge_lengths(d.graph)
    table = [0] * lattice_size(d.graph, "Bernoulli union lattice")
    for mask, w in d.nums.items():
        table[mask] = w
    _open_edges(table, [(p.numerator**length, p.denominator**length) for length in lengths])
    den = d.den * p.denominator ** sum(lengths)
    return Dist.from_integers(d.graph, dict(enumerate(table)), den, d.z)


def _open_edges(table: list[int], opens: Sequence[tuple[int, int]]) -> None:
    """The Bernoulli pass, in place on the 2^|E| lattice ``table``: edge i
    opens with c/e for ``opens[i] = (c, e)``, mapping each pair (lo, hi) of
    masks without and with it to ((e - c) * lo, e * hi + c * lo).  Only
    ring operations run, so the pass serves any integer encoding of the
    weights: numerators at a point, or polynomials packed into integers."""
    size = len(table)
    for bit, (c, e) in enumerate(opens):
        q = e - c
        step = 1 << bit
        for block in range(0, size, step << 1):
            for lo in range(block, block + step):
                low = table[lo]
                table[lo + step] = e * table[lo + step] + c * low
                table[lo] = q * low


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


def _model(name: str) -> tuple[int, Callable[[Fraction], Fraction] | None]:
    if name not in MODELS:
        raise LoopCurrentsError(f"unknown model {name!r}; choose from {tuple(MODELS)}")
    return MODELS[name]


def build(name: str, graph: Graph, x: Fraction) -> Dist:
    """Exact law of the registered model ``name`` at edge weight ``x``: the
    loop law, unioned with a copy of itself per further copy, then with
    Bernoulli(p(x)); the name and p(x) are checked before any enumeration."""
    x = Fraction(x)
    copies, p = _model(name)
    p_x = None if p is None else p(x)  # may raise: check before enumerating
    loop = law = loop_o1(graph, x)
    for _ in range(copies - 1):
        law = union(law, loop)
    return law if p_x is None else union_bernoulli(law, p_x)


def double_loop(graph: Graph, x: Fraction) -> Dist:
    """Union of two independent loop-model samples."""
    return build("double_loop", graph, x)


def double_current(graph: Graph, x: Fraction) -> Dist:
    """Traced sourceless double random current: double loop union Bernoulli(x^2)."""
    return build("double_current", graph, x)


def counting_weights(graph: Graph, a: int, b: int) -> list[int]:
    """The double random current from its even-subgraph counting formula,
    at the evaluation point (a, b).  For each configuration w:

        P(w) = |even(w)| / Z^2 * sum_{g even, g subset of w}
               x^|g| * x^(2|w \\ g|) * (1-x^2)^(|E|-|w|)

    With q = b^2 - a^2, the sum over g is the subset-sum S[w] of
    a^(|E|-|g|) b^|g| over the even g, and entry w is the integer
    |even(w)| a^(2|w|) S[w] q^(|E|-|w|).  Only ring operations run, so at
    x = a/b the entries are a^|E| b^(2|E|) Z^2 P(w), and at (2^S, 1) the
    polynomials x^|E| Z(x)^2 P(w) packed, q signed.  At a = 0 (x = 0) the
    empty configuration alone carries weight.  This is an independent
    route to the ``double_current`` row; ``verify lis-equivalence``
    compares the two."""
    size = lattice_size(graph, "double-current lattice")
    if not a:
        return [1] + [0] * (size - 1)
    n = graph.edge_count
    count, _ = even_lattice(graph)
    sums = [0] * size
    for g in even_subgraphs(graph):
        k = g.bit_count()
        sums[g] = a ** (n - k) * b**k
    subset_sums(sums)
    scale = [a ** (2 * k) * (b * b - a * a) ** (n - k) for k in range(n + 1)]
    return [count[w] * scale[w.bit_count()] * sums[w] for w in range(size)]


def push_uniform_even(d: Dist) -> Dist:
    """Pick a configuration from d, then a uniform even subgraph of it:
    :func:`push_even` of its numerators, over den * 2^top."""
    nums, top = push_even(d.graph, d.nums)
    return Dist.from_integers(d.graph, nums, d.den << top, d.z)


def push_even(graph: Graph, nums: dict[int, int]) -> tuple[dict[int, int], int]:
    """The lattice step of the uniform-even push: the weight of each even h,
    the sum over w containing h of nums[w] 2^(top - dim w), and top, the
    largest cycle-space dimension dim w in the support of ``nums``.  The
    supersets of h are the complements of the subsets of its complement,
    so the sum is a subset-sum.  Only shifts and sums run, so the weights
    may be any integer encoding: numerators, or packed polynomials."""
    size = lattice_size(graph, "uniform-even push lattice")
    count, _ = even_lattice(graph)
    dims = {w: count[w].bit_length() - 1 for w in nums}
    top = max(dims.values())
    full = graph.full_mask
    acc = [0] * size
    for w, num in nums.items():
        acc[full ^ w] = num << (top - dims[w])
    subset_sums(acc)
    return {h: acc[full ^ h] for h in even_subgraphs(graph)}, top


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
    sums its integer numerators per stat value, and each sum goes to its
    value's set bits.  An event is the one-bit stat ``holds``, the edge
    masses are the stat ``mask`` at width |E|; bits of stat at or above
    ``width`` are not counted."""
    keep = (1 << width) - 1
    stats = {m: stat(m) & keep for m in dict.fromkeys(m for d in dists for m in d.nums)}
    rows = []
    for d in dists:
        by_value: dict[int, int] = {}
        for mask, w in d.nums.items():
            by_value[stats[mask]] = by_value.get(stats[mask], 0) + w
        counts = [0] * width
        for s, w in by_value.items():
            while s:
                low = s & -s
                counts[low.bit_length() - 1] += w
                s ^= low
        rows.append((counts, sum(d.nums.values())))
    return rows


# ---------------------------------------------------------------------------
# Masses of a row along a grid, as polynomials in x


# Most bits of the packed lattice of :func:`polynomial_masses`, 2^|E| * S *
# (D + 1) for a row of digit width S and degree D.  The table's largest row,
# the double cluster on counter(2,2), packs 256 weights of 30 * 33 bits,
# about 2^18; on counter_core(18, 2) it takes 2^19.6.  The budget is about
# half a second and 100 MB: the random cluster on a path, the row with the
# most work per bit, took 0.47 s and an 83 MB peak on 17 edges (2^26.9 bits,
# its edge masses at 63 points, CPython 3.11, 2-vCPU Xeon), which the cap
# admits, and 1.1 s and 155 MB on 18 edges (2^28.1), which it refuses.
PACKED_LATTICE_BITS_CAP = 1 << 27

# A registered p is read off p(2^_PROBE_BITS): its coefficients are small
# integers, far below 2^63.
_PROBE_BITS = 64


def polynomial_laws(
    graph: Graph, names: Sequence[str], xs: Sequence[Fraction]
) -> tuple[dict[str, tuple[int, int]], Callable[[int, int], Callable[[str], list[int]]]]:
    """The model rows ``names`` as integer polynomials in x: ``(shapes,
    at)``, with nothing enumerated until a row is read.

    A row's weight of mask m is an integer polynomial W_m(x) of degree at
    most D = (k + deg P) n, n the total length: the k-fold union of the
    loop weights x^|g|, then the Bernoulli pass with (c, e) = (P^L, 1) on an
    edge of length L, P = p(x).  ``at(a, b)`` gives ``row(name)``, the
    2^|E| lattice of b^D W_m(a/b), the weights homogenized at the
    evaluation point (a, b), from the union (:func:`_union_nums`) and the
    Bernoulli pass (:func:`_open_edges`), which run only ring operations.
    At x = a/b these are the weights of ``build(name, graph, x)`` up to a
    positive factor; at (2^S, 1) they are the polynomials packed by
    x -> 2^S.  Each row, and each k-fold union, is built once per point.

    ``shapes[name]`` is ``(bound, D)``, where bound is at least the sum over
    all masks of W_m's absolute coefficient sum, so it bounds that of any
    sum of the W_m.  That sum is subadditive and submultiplicative, so it
    is at most (2^dim)^k prod_e (1 + 2 |P|^L_e): 2^dim even subgraphs per
    copy, and an edge maps W to (1 - P^L) W and P^L W.

    Refused before anything is enumerated: an x of ``xs`` outside [0, 1),
    an unknown row, and a p that is not an integer polynomial (the single
    current) or leaves [0, 1] at an x of ``xs``."""
    bad = [x for x in xs if not 0 <= x < 1]
    if bad:
        raise ParametrizationError(f"x={bad[0]} outside [0,1)")
    size = lattice_size(graph, "polynomial mass lattice")
    lengths = _edge_lengths(graph)
    sizes = _even_sizes(graph)
    n, dim = sum(lengths), len(sizes).bit_length() - 1
    rows, shapes = {}, {}
    for name in names:
        copies, p = _model(name)
        coeffs = _polynomial_p(name, p, xs)
        bound = 1 << copies * dim
        if coeffs:
            norm = sum(map(abs, coeffs))
            for length in lengths:
                bound *= 1 + 2 * norm**length
        rows[name] = copies, coeffs
        shapes[name] = bound, (copies + max(len(coeffs) - 1, 0)) * n

    def at(a: int, b: int) -> Callable[[str], list[int]]:
        @cache
        def loops(copies: int) -> dict[int, int]:
            if copies > 1:
                return _union_nums(loops(copies - 1), loops(1))
            powers = {k: a**k * b ** (n - k) for k in set(sizes.values())}
            return {g: powers[k] for g, k in sizes.items()}

        @cache
        def row(name: str) -> list[int]:
            copies, coeffs = rows[name]
            table = [0] * size
            for mask, w in loops(copies).items():
                table[mask] = w
            if coeffs:
                top = len(coeffs) - 1
                c = sum(f * a**j * b ** (top - j) for j, f in enumerate(coeffs))
                _open_edges(table, [(c**length, b ** (top * length)) for length in lengths])
            return table

        return row

    return shapes, at


def edge_masses(table: list[int]) -> tuple[list[int], int]:
    """The edge masses of a 2^|E| lattice table, entry m the weight of mask
    m in any integer encoding: ``(counts, total)``, counts[e] the sum of
    the entries at the masks with edge e.  The masks with the top edge are
    the upper half of the table; adding that half onto the lower one drops
    the edge, n halvings in all."""
    counts = []
    while len(table) > 1:
        half = len(table) >> 1
        counts.append(sum(table[half:]))
        table = list(map(add, table[:half], table[half:]))
    return counts[::-1], table[0]


def polynomial_masses(
    graph: Graph,
    names: Sequence[str],
    stat: Callable[[int], int],
    width: int,
    xs: Sequence[Fraction],
) -> dict[str, list[tuple[list[int], int]]]:
    """For each model row in ``names``, :func:`bit_masses` of its laws at the
    points ``xs``: one ``(counts, total)`` per x, P(bit i of stat is set)
    being counts[i] / total.  The ratios are those of ``bit_masses([build(
    name, graph, x) for x in xs], stat, width)``, though the integers may
    differ from its by a positive factor per x.

    A row is built once for all the points, as its :func:`polynomial_laws`
    packed by x -> 2^S, and each bit's count (the sum of W_m over the masks
    with the bit) and the total come out packed.  As in :func:`bit_masses`,
    stat runs once per configuration of any row's support, the masks are
    grouped by stat value, a row sums its packed weights once per group, and
    each bit's count is the sum over the groups with the bit, which are
    listed once for all the rows.  Each distinct packed value of a row is
    read back once, as S-bit signed digits, exact while every
    |f_j| < 2^(S-1): S is one more than the bit length of the row's bound.
    The rows of one degree D are evaluated in one :func:`_at_points` call:
    at x = a/b a polynomial reads the integer b^D f(a/b) = sum f_j a^j
    b^(D-j).

    Refused before any pass: what :func:`polynomial_laws` refuses, and a
    row above :data:`PACKED_LATTICE_BITS_CAP`."""
    xs = [Fraction(x) for x in xs]
    shapes, at = polynomial_laws(graph, names, xs)
    size = 1 << graph.edge_count
    rows = []
    for name in names:
        bound, degree = shapes[name]
        digits = bound.bit_length() + 1
        bits = size * digits * (degree + 1)
        if bits > PACKED_LATTICE_BITS_CAP:
            raise CapExceededError("packed polynomial lattice bits", bits, PACKED_LATTICE_BITS_CAP)
        rows.append((digits, degree))
    tables = [at(1 << digits, 1)(name) for name, (digits, _) in zip(names, rows)]

    keep = (1 << width) - 1
    groups: dict[int, list[int]] = {}  # stat value -> the masks with it
    for mask in range(size):
        if any(table[mask] for table in tables):
            groups.setdefault(stat(mask) & keep, []).append(mask)
    with_bit: list[list[int]] = [[] for _ in range(width)]  # bit -> the groups with it
    for k, s in enumerate(groups):
        bits = bin(s)[:1:-1]  # bit i at position i, read without shifting a wide s
        i = bits.find("1")
        while i >= 0:
            with_bit[i].append(k)
            i = bits.find("1", i + 1)
    by_degree: dict[int, list[tuple[str, list[int], int]]] = {}
    for name, table, (digits, degree) in zip(names, tables, rows):
        get = table.__getitem__
        weights = [sum(map(get, masks)) for masks in groups.values()]
        # the total, then the count of each bit
        packed = [sum(weights), *(sum(map(weights.__getitem__, ks)) for ks in with_bit)]
        by_degree.setdefault(degree, []).append((name, packed, digits))
    out = {}
    for degree, members in by_degree.items():
        polys, layouts = [], []
        for _, packed, digits in members:
            index = dict.fromkeys(packed)  # each distinct value -> its polynomial
            for value in index:
                index[value] = len(polys)
                polys.append(_signed_digits(value, digits, degree + 1))
            layouts.append([index[value] for value in packed])
        values = _at_points(polys, [layout[0] for layout in layouts], degree, xs)
        for (name, _, _), (total, *counts) in zip(members, layouts):
            out[name] = [([at_x[k] for k in counts], at_x[total]) for at_x in values]
    return {name: out[name] for name in names}


def _polynomial_p(name: str, p, xs: Sequence[Fraction]) -> list[int]:
    """The coefficients of the row's p(x), lowest first, and [] for a row
    without a Bernoulli layer, after checking 0 <= p(x) <= 1 at every x."""
    if p is None:
        return []
    if p is single_current_p:
        raise LoopCurrentsError(f"{name}: p(x) = 1 - sqrt(1 - x^2) is not a polynomial in x")
    for x in xs:
        if not 0 <= p(x) <= 1:
            raise LoopCurrentsError(f"{name}: p={p(x)} outside [0,1] at x={x}")
    probe = p(1 << _PROBE_BITS)
    if type(probe) is not int:
        raise LoopCurrentsError(f"{name}: p(x) is not an integer polynomial")
    coeffs = _signed_digits(probe, _PROBE_BITS, probe.bit_length() // _PROBE_BITS + 1)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _signed_digits(value: int, digits: int, count: int) -> list[int]:
    """The coefficients f_0, ..., f_(count-1) of the packed value f(2^digits),
    each read as a signed digit in [-2^(digits-1), 2^(digits-1))."""
    half, low = 1 << digits - 1, (1 << digits) - 1
    out = []
    for _ in range(count):
        f = value & low
        if f >= half:
            f -= 1 << digits
        out.append(f)
        value = (value - f) >> digits
    if value:
        raise LoopCurrentsError(
            f"internal error: a packed polynomial has more than {count} coefficients"
        )
    return out


def _at_points(
    polys: list[list[int]], totals: list[int], degree: int, xs: list[Fraction]
) -> list[list[int]]:
    """Each polynomial f of ``polys`` read at each x = a/b as the integer
    b^degree f(a/b): one list per x, in the order of ``polys``.  The
    polynomials at the positions ``totals`` are row totals, and every other
    lies in [0, its row's total] at every x, so all the values at all the
    points fit side by side in lanes of the largest total's width, and one
    product per coefficient fills every lane.  The power columns
    a^j b^(degree-j) are built once, by running products."""
    powers = []
    for x in xs:
        lows = accumulate(repeat(x.numerator, degree), mul, initial=1)
        highs = list(accumulate(repeat(x.denominator, degree), mul, initial=1))
        powers.append(list(map(mul, lows, reversed(highs))))
    top = max((sum(map(mul, polys[t], w)) for t in totals for w in powers), default=0)
    lane = (top.bit_length() + 7) // 8
    columns = [
        int.from_bytes(b"".join(w[j].to_bytes(lane, "little") for w in powers), "little")
        for j in range(degree + 1)
    ]
    lanes = [sum(map(mul, f, columns)).to_bytes(lane * len(xs), "little") for f in polys]
    return [
        [int.from_bytes(v[i * lane : (i + 1) * lane], "little") for v in lanes]
        for i in range(len(xs))
    ]


def prob(d: Dist, event) -> Fraction:
    """Exact probability of an event (see events module) under d."""
    _require_same_graph(event.graph, d.graph, what="event and distribution")
    (((count,), total),) = bit_masses([d], event.holds, 1)
    return Fraction(count, total)


def _same_graph(*graphs: Graph) -> bool:
    """The one "same graph" test of the package: equal edge lists, vertex
    counts and edge lengths."""
    return len({(g.edges, g.vertex_count, g.lengths) for g in graphs}) <= 1


def _require_same_graph(*graphs: Graph, what: str = "distributions") -> None:
    if not _same_graph(*graphs):
        raise GraphMismatchError(f"{what} live on different graphs")
