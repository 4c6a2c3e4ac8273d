"""Events and statistics over edge configurations.

An :class:`Event` is a predicate on masks together with a monotonicity flag.
The constructors set the flag where it holds by construction: connection
(read from ``is_connected``), edge-open and all-open.  An event built
directly as ``Event(g, fn)`` is not flagged, and ``checkers.fkg_gaps``
refuses it unless the caller passes ``require_increasing=False``.  A
:class:`Statistic` is an integer function on masks; the cyclic-edge count
reads one ``even_lattice``.

Masses of events and statistics come from ``measures.bit_masses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import GraphStructureError
from .graphs import Graph, even_lattice, is_connected
from .measures import Dist, _require_same_graph, bit_masses


@dataclass(frozen=True)
class Event:
    graph: Graph
    predicate: Callable[[int], object]
    increasing: bool = False
    label: str = ""

    def holds(self, mask: int) -> bool:
        return bool(self.predicate(mask))


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


def edge_open(g: Graph, e: int) -> Event:
    if not 0 <= e < g.edge_count:
        raise GraphStructureError(f"edge {e} out of range")
    bit = 1 << e
    return Event(g, lambda mask: mask & bit, increasing=True, label=f"edge:{e}")


def all_open(g: Graph, edges) -> Event:
    mask = g.edge_mask(edges) if not isinstance(edges, int) else edges
    if mask & ~g.full_mask:
        raise GraphStructureError("all-open mask has bits outside the graph")
    return Event(g, lambda m: m & mask == mask, increasing=True, label=f"allopen:{hex(mask)}")


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class Statistic:
    graph: Graph
    value: Callable[[int], int]
    label: str = ""


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
