"""Events over edge configurations.

An :class:`Event` is a predicate on masks together with a monotonicity flag.
The constructors set the flag where it holds by construction: connection
(read from ``is_connected``), edge-open and all-open.  An event built
directly as ``Event(g, fn)`` is not flagged, and ``checkers.fkg_gaps``
refuses it.

Masses of events, each a one-bit statistic, come from
``measures.bit_masses`` as integer counts over the total of each law's
weight map; ``measures.prob`` turns one event's mass under one law into a
``Fraction``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import GraphStructureError
from .graphs import Graph, is_connected


class Event(NamedTuple):
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
