"""Finite multigraphs, connectivity, cycle space and even-subgraph enumeration.

Two routines answer every configuration question: :func:`component_labels`
(are u and v connected?) and :func:`even_lattice` (how many even subgraphs
does each configuration have, and which of its open edges lie on a cycle?),
which reads the even subgraphs off one :func:`cycle_space_basis`.

Edge subsets ("configurations") are plain integer bitmasks: bit ``i`` of a
mask refers to ``graph.edges[i]``.  Set algebra is ``& | ^``, cardinality is
``int.bit_count()``.  Edge indices are assigned in input order and never
reordered, so masks are stable identifiers for a given graph.

A *core* graph (``Graph.lengths``) stands for a subdivided one: its edge i
is a path of ``lengths[i]`` edges (series reduction).  The lengths take
part in equality, hashing and every "same graph" test.

All types here are immutable values; they can be shared freely between
threads and used as dict keys.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import CapExceededError, GraphStructureError

# Refuse spanning the cycle space above this dimension.
CYCLE_DIMENSION_CAP = 20
# Refuse a pass over the 2^|E| subset lattice that costs above this many
# element operations, |E| * 2^|E|: up to 19 edges.
LATTICE_PASS_CAP = 1 << 24


class Marks(NamedTuple):
    """The two distinguished vertices used by connection events."""

    a: int
    b: int


def _refuse_assignment(self, name: str, value) -> None:
    """``__setattr__`` of the package's immutable ``__slots__`` classes."""
    raise AttributeError(f"cannot assign to field {name!r}")


class Graph:
    """A finite multigraph. Parallel edges and self-loops are allowed.

    With ``lengths`` set, the graph is a *core*: edge i stands for a path of
    ``lengths[i]`` edges, whose inner vertices are left out.  ``None`` means
    every length is 1.  The row-building kernels ``measures._loop_nums`` and
    ``measures._opened``, and so every registered model and
    ``measures.polynomial_laws``, read the lengths; the events, the
    samplers and ``measures.counting_weights`` count each core edge as one
    edge.  The graph JSON format has no lengths, so a core is neither
    written nor read.  A graph is immutable, and compares and hashes by
    its four fields.
    """

    __slots__ = ("vertex_count", "edges", "marks", "lengths")

    def __init__(self, vertex_count: int, edges: tuple, marks: Marks | None = None, lengths=None):
        if vertex_count < 0:
            raise GraphStructureError(f"vertex count {vertex_count} is negative")
        for idx, (u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphStructureError(
                    f"edge {idx}=({u},{v}) has an endpoint outside 0..{vertex_count - 1}"
                )
        if marks is not None:
            for name, vtx in (("a", marks.a), ("b", marks.b)):
                if not 0 <= vtx < vertex_count:
                    raise GraphStructureError(f"mark {name}={vtx} is not a vertex")
        if lengths is not None and (
            not isinstance(lengths, tuple)
            or len(lengths) != len(edges)
            or not all(type(L) is int and L > 0 for L in lengths)
        ):
            raise GraphStructureError(
                f"lengths {lengths!r} do not give one positive integer per edge"
            )
        for name, value in zip(Graph.__slots__, (vertex_count, edges, marks, lengths)):
            object.__setattr__(self, name, value)

    __setattr__ = _refuse_assignment

    def _key(self) -> tuple:
        return self.vertex_count, self.edges, self.marks, self.lengths

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Graph{self._key()!r}"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.edges)) - 1

    def edge_mask(self, indices: Iterable[int]) -> int:
        mask = 0
        for i in indices:
            if not 0 <= i < len(self.edges):
                raise GraphStructureError(f"edge index {i} out of range")
            mask |= 1 << i
        return mask


def _json_int(value, field: str) -> int:
    if type(value) is not int:  # a JSON float, string or bool (an int subclass)
        raise GraphStructureError(f"{field}: {value!r} is not an integer")
    return value


def graph_to_json(g: Graph) -> str:
    if g.lengths is not None:
        raise GraphStructureError("a core graph (with edge lengths) has no JSON form")
    out: dict = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.marks is not None:
        out["marks"] = {"a": g.marks.a, "b": g.marks.b}
    return json.dumps(out)


def graph_from_json(text: str) -> Graph:
    data = json.loads(text)
    if "lengths" in data:
        raise GraphStructureError("graph JSON takes no edge lengths")
    marks = None
    if "marks" in data and data["marks"] is not None:
        marks = Marks(_json_int(data["marks"]["a"], "marks"), _json_int(data["marks"]["b"], "marks"))
    edges = tuple((_json_int(u, "edges"), _json_int(v, "edges")) for u, v in data["edges"])
    return Graph(_json_int(data["vertices"], "vertices"), edges, marks)


def edges_of_mask(mask: int) -> Iterator[int]:
    """Yield the edge indices present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Construction helpers


def segment_edge_ranges(lengths: Iterable[int]) -> list[range]:
    """Edge-index ranges occupied by each segment of a generalized theta graph."""
    ranges = []
    start = 0
    for length in lengths:
        ranges.append(range(start, start + length))
        start += length
    return ranges


def generalized_theta(segment_lengths: Iterable[int]) -> Graph:
    """Two hub vertices joined by internally disjoint paths of the given lengths.

    Hubs are vertices 0 and 1.  Edges are laid out segment by segment, each
    segment running hub 0 -> internal vertices -> hub 1, so
    :func:`segment_edge_ranges` recovers the edge indices of every path and
    the internal vertices are numbered from 2 in the same order.
    """
    lengths = list(segment_lengths)
    if len(lengths) < 2:
        raise GraphStructureError("a generalized theta graph needs at least 2 segments")
    if any(l < 1 for l in lengths):
        raise GraphStructureError("segment lengths must be positive")

    edges: list[tuple[int, int]] = []
    next_vertex = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, next_vertex))
            prev = next_vertex
            next_vertex += 1
        edges.append((prev, 1))
    return Graph(next_vertex, tuple(edges))


def check_counter(n: int, m: int) -> None:
    """Parameters (n, m) of the four-path family; m even so midpoints exist."""
    if n < 1 or m < 1:
        raise GraphStructureError("segment lengths must be positive")
    if m % 2:
        raise GraphStructureError(f"m={m} must be even to place midpoint marks")


def counter_family(n: int, m: int) -> Graph:
    """The four-path family used for monotonicity counterexamples.

    Paths of lengths (n, n, m, m); m must be even.  Segment order: n-up,
    n-down, m-up, m-down.  The m-paths' inner vertices start at 2n and at
    2n + m - 1, and the marks a, b sit at their midpoints.
    """
    check_counter(n, m)
    g = generalized_theta([n, n, m, m])
    h = m // 2
    return Graph(g.vertex_count, g.edges, Marks(2 * n + h - 1, 2 * n + m + h - 2))


def complete_graph(n: int) -> Graph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Connectivity


def is_connected(g: Graph, mask: int, u: int, v: int) -> bool:
    """True iff u and v lie in the same component of the spanning subgraph (V, mask)."""
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise GraphStructureError(f"vertex pair ({u},{v}) out of range")
    labels = component_labels(g, mask)
    return labels[u] == labels[v]


def component_labels(g: Graph, mask: int) -> tuple[int, ...]:
    """Per-vertex component representative of (V, mask), from one
    union-find walk with path halving over the open edges.

    Two vertices are connected iff their labels agree, so one pass answers
    every connection query on the same configuration.
    """
    parent = list(range(g.vertex_count))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i in edges_of_mask(mask):
        u, v = g.edges[i]
        parent[root(u)] = root(v)
    return tuple(map(root, range(g.vertex_count)))


# ---------------------------------------------------------------------------
# Cycle space


def cycle_space_basis(g: Graph, mask: int | None = None) -> tuple[int, ...]:
    """Cycle basis of the spanning subgraph (V, mask); the whole graph by default.

    The fundamental cycles of a BFS forest, one per non-forest edge: each is
    an even mask, that edge plus the forest path between its endpoints.
    They are independent under symmetric difference and span the cycle
    space, so XOR-combinations enumerate every even subgraph exactly once.
    Their number, the dimension, is |mask| - |V| + #components.  The forest
    is rooted at the vertices in index order and the elements follow the
    non-forest edges ascending.  The work is linear in the graph plus the
    cycles' total length: the open edges are read off the mask's binary
    digits, and each cycle's bits are set in one byte array.
    """
    edges = g.edges
    if mask is None:
        open_edges = range(len(edges))
    else:
        open_edges = [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    # BFS forest over the open edges; parent_edge[v] = edge index into v.
    adj: dict[int, list[tuple[int, int]]] = {}
    for i in open_edges:
        u, v = edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))

    parent_edge = [-1] * g.vertex_count
    depth = [-1] * g.vertex_count
    tree = bytearray(len(edges))
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
                    tree[i] = 1
                    queue.append(v)

    elements = []
    width = (len(edges) + 7) >> 3
    for i in open_edges:
        if tree[i]:
            continue
        u, v = edges[i]
        bits = bytearray(width)
        bits[i >> 3] = 1 << (i & 7)
        # climb to the common ancestor; a forest path repeats no edge
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            e = parent_edge[u]
            bits[e >> 3] |= 1 << (e & 7)
            a, b = edges[e]
            u = b if a == u else a
        elements.append(int.from_bytes(bits, "little"))
    return tuple(elements)


def span_masks(elements: tuple[int, ...]) -> Iterator[int]:
    """All XOR-combinations of the given masks, in Gray-code order."""
    current = 0
    yield 0
    for i in range(1, 1 << len(elements)):
        current ^= elements[(i & -i).bit_length() - 1]
        yield current


def even_subgraphs(g: Graph) -> Iterator[int]:
    """Enumerate the even subgraphs of g without duplicates."""
    basis = cycle_space_basis(g)
    if len(basis) > CYCLE_DIMENSION_CAP:
        raise CapExceededError("even-subgraph span", len(basis), CYCLE_DIMENSION_CAP)
    return span_masks(basis)


def lattice_size(g: Graph, what: str) -> int:
    """2^|E|, after refusing a lattice pass above :data:`LATTICE_PASS_CAP`."""
    n = g.edge_count
    if n << n > LATTICE_PASS_CAP:
        raise CapExceededError(what, n << n, LATTICE_PASS_CAP)
    return 1 << n


def subset_sums(table: list[int]) -> None:
    """Replace table[w] by the sum of table[s] over the subsets s of w, in
    place: one pass per edge bit adds each mask without the bit to the mask
    with it, n * 2^(n-1) additions in all."""
    size = len(table)
    step = 1
    while step < size:
        for block in range(0, size, step << 1):
            for lo in range(block, block + step):
                table[lo + step] += table[lo]
        step <<= 1


@lru_cache(maxsize=1)
def even_lattice(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For every configuration w of g: ``count[w]``, the number of even
    subgraphs of w, and ``cyclic[w]``, the edges of w on a cycle of (V, w).
    The last graph's tables are kept, as read-only tuples: the suites that
    ``verify`` runs on one graph all read them.

    count is the subset-sum of the even subgraphs' indicator and total the
    subset-sum of the even subgraphs as integers.  The even subgraphs of w
    form a space of size count[w]; an edge of w is on a cycle iff one of
    them contains it, and then half of them do: 2 total = count * cyclic.
    """
    size = lattice_size(g, "even-subgraph lattice")
    count = [0] * size
    total = [0] * size
    for h in even_subgraphs(g):
        count[h] = 1
        total[h] = h
    subset_sums(count)
    subset_sums(total)
    return tuple(count), tuple(2 * t // c for t, c in zip(total, count))
