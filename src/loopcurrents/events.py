"""Events and statistics over edge configurations.

An :class:`Event` is a predicate on masks together with a monotonicity flag.
The constructors build the predicate from two graph routines: connection
events read ``component_labels``, and the cyclic-edge event reads
``cyclic_edges``.  The flag is only trusted where it holds by construction
(connection, edge-open, all-open); anything else must earn it through
:func:`check_increasing`.  A :class:`Statistic` is an integer function on
masks; the cyclic-edge count reads one ``even_lattice``.

Masses of events and statistics come from ``measures.bit_masses``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from .errors import GraphStructureError
from .graphs import (
    Graph,
    component_labels,
    cyclic_edges,
    even_lattice,
    is_connected,
    lattice_size,
)
from .measures import Dist, _require_same_graph, bit_masses


@dataclass(frozen=True)
class Event:
    graph: Graph
    predicate: Callable[[int], object]
    increasing: bool = False
    label: str = ""

    def holds(self, mask: int) -> bool:
        return bool(self.predicate(mask))

    def describe(self) -> str:
        return self.label


def _check_vertices(g: Graph, vertices) -> None:
    for v in vertices:
        if not 0 <= v < g.vertex_count:
            raise GraphStructureError(f"vertex {v} out of range")


def connect(g: Graph, u: int | None = None, v: int | None = None) -> Event:
    """The event that two vertices are connected; defaults to the marks a, b."""
    if (u is None) != (v is None):
        raise GraphStructureError("pass both vertices or neither")
    if u is None:
        if g.marks is None:
            raise GraphStructureError("graph has no marks; pass vertices explicitly")
        u, v = g.marks.a, g.marks.b
    _check_vertices(g, (u, v))
    return Event(
        g, lambda mask: is_connected(g, mask, u, v), increasing=True, label=f"connect:{u},{v}"
    )


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


def _check_edge(g: Graph, e: int) -> int:
    if not 0 <= e < g.edge_count:
        raise GraphStructureError(f"edge {e} out of range")
    return 1 << e


def edge_open(g: Graph, e: int) -> Event:
    bit = _check_edge(g, e)
    return Event(g, lambda mask: mask & bit, increasing=True, label=f"edge:{e}")


def edge_open_cyclic(g: Graph, e: int) -> Event:
    """Edge e is open and lies on a cycle of the open subgraph.

    Not flagged increasing: the flag is reserved for events where it holds
    by construction.  (On any fixed graph the scan can still verify it.)
    """
    bit = _check_edge(g, e)
    return Event(
        g, lambda mask: mask & bit and cyclic_edges(g, mask) & bit, label=f"edge-cyclic:{e}"
    )


def all_open(g: Graph, edges) -> Event:
    mask = g.edge_mask(edges) if not isinstance(edges, int) else edges
    if mask & ~g.full_mask:
        raise GraphStructureError("all-open mask has bits outside the graph")
    return Event(g, lambda m: m & mask == mask, increasing=True, label=f"allopen:{hex(mask)}")


def custom(g: Graph, fn: Callable[[int], object], label: str = "custom") -> Event:
    """Arbitrary predicate; treated as non-increasing unless verified."""
    return Event(g, fn, label=label)


def verified_increasing(ev: Event) -> Event:
    """Return the event flagged increasing, or raise if the scan refutes it."""
    ok, witness = check_increasing(ev)
    if not ok:
        raise GraphStructureError(f"event {ev.describe()} is not increasing, witness {witness}")
    return replace(ev, increasing=True)


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


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class Statistic:
    graph: Graph
    value: Callable[[int], int]
    label: str = ""


def edge_count(g: Graph) -> Statistic:
    return Statistic(g, int.bit_count, "edge count")


def cyclic_count(g: Graph) -> Statistic:
    """Number of open edges lying on a cycle of the open subgraph, read from
    one even-subgraph lattice of g."""
    cyclic = even_lattice(g)[1]
    return Statistic(g, lambda mask: cyclic[mask].bit_count(), "cyclic edge count")


def statistic_dist(d: Dist, s: Statistic) -> dict[int, Fraction]:
    """Exact pushforward of the statistic under d, without values of mass 0."""
    _require_same_graph(s.graph, d.graph, what="statistic and distribution")
    (masses,) = bit_masses([d], lambda m: 1 << s.value(m), d.graph.edge_count + 1)
    return {k: p for k, p in enumerate(masses) if p}
