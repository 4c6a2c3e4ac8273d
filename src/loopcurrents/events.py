"""Reified events and statistics over edge configurations.

An :class:`Event` is a predicate on masks together with a monotonicity flag.
The flag is only trusted for kinds that are increasing by construction
(connection, edge-open, all-open); anything else must earn it through
:func:`check_increasing`.

Masses of events and statistics come from ``measures.bit_masses``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import CapExceededError, GraphStructureError
from .graphs import EDGE_ENUMERATION_CAP, Graph, cyclic_edges, is_connected
from .measures import Dist, _require_same_graph, bit_masses

CONNECT = "connect"
CONNECT_SETS = "connect-sets"
EDGE_OPEN = "edge"
EDGE_OPEN_CYCLIC = "edge-cyclic"
ALL_OPEN = "allopen"
CUSTOM = "custom"


@dataclass(frozen=True)
class Event:
    graph: Graph
    kind: str
    data: tuple = ()
    increasing: bool = False
    predicate: Callable[[int], bool] | None = None
    label: str = ""

    def holds(self, mask: int) -> bool:
        if self.kind == CONNECT:
            u, v = self.data
            return is_connected(self.graph, mask, u, v)
        if self.kind == CONNECT_SETS:
            side_a, side_b = self.data
            return any(
                is_connected(self.graph, mask, u, v) for u in side_a for v in side_b
            )
        if self.kind == EDGE_OPEN:
            return bool(mask >> self.data[0] & 1)
        if self.kind == EDGE_OPEN_CYCLIC:
            e = self.data[0]
            return bool(mask >> e & 1) and bool(cyclic_edges(self.graph, mask) >> e & 1)
        if self.kind == ALL_OPEN:
            required = self.data[0]
            return mask & required == required
        return bool(self.predicate(mask))  # type: ignore[misc]

    def describe(self) -> str:
        return self.label or f"{self.kind}:{','.join(map(str, self.data))}"


def connect(g: Graph, u: int | None = None, v: int | None = None) -> Event:
    """The event that two vertices are connected; defaults to the marks a, b."""
    if u is None or v is None:
        if g.marks is None:
            raise GraphStructureError("graph has no marks; pass vertices explicitly")
        u, v = g.marks.a, g.marks.b
    if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
        raise GraphStructureError(f"vertices ({u},{v}) out of range")
    return Event(g, CONNECT, (u, v), increasing=True, label=f"connect:{u},{v}")


def connect_sets(g: Graph, side_a, side_b) -> Event:
    """The event that some vertex of side_a connects to some vertex of side_b."""
    a = tuple(sorted(set(side_a)))
    b = tuple(sorted(set(side_b)))
    if not a or not b:
        raise GraphStructureError("vertex sets must be non-empty")
    for v in a + b:
        if not 0 <= v < g.vertex_count:
            raise GraphStructureError(f"vertex {v} out of range")
    return Event(
        g, CONNECT_SETS, (a, b), increasing=True, label=f"connect-sets:{a},{b}"
    )


def edge_open(g: Graph, e: int) -> Event:
    if not 0 <= e < g.edge_count:
        raise GraphStructureError(f"edge {e} out of range")
    return Event(g, EDGE_OPEN, (e,), increasing=True, label=f"edge:{e}")


def edge_open_cyclic(g: Graph, e: int) -> Event:
    """Edge e is open and lies on a cycle of the open subgraph.

    Not flagged increasing: the flag is reserved for kinds where it holds by
    construction.  (On any fixed graph the scan can still verify it.)
    """
    if not 0 <= e < g.edge_count:
        raise GraphStructureError(f"edge {e} out of range")
    return Event(g, EDGE_OPEN_CYCLIC, (e,), increasing=False, label=f"edge-cyclic:{e}")


def all_open(g: Graph, edges) -> Event:
    mask = g.edge_mask(edges) if not isinstance(edges, int) else edges
    if mask & ~g.full_mask:
        raise GraphStructureError("all-open mask has bits outside the graph")
    return Event(g, ALL_OPEN, (mask,), increasing=True, label=f"allopen:{hex(mask)}")


def custom(g: Graph, fn: Callable[[int], bool], label: str = "custom") -> Event:
    """Arbitrary predicate; treated as non-increasing unless verified."""
    return Event(g, CUSTOM, (), increasing=False, predicate=fn, label=label)


def verified_increasing(ev: Event, cap: int = EDGE_ENUMERATION_CAP) -> Event:
    """Return the event flagged increasing, or raise if the scan refutes it."""
    ok, witness = check_increasing(ev, cap=cap)
    if not ok:
        raise GraphStructureError(f"event {ev.describe()} is not increasing, witness {witness}")
    return Event(ev.graph, ev.kind, ev.data, True, ev.predicate, ev.label)


def check_increasing(ev: Event, cap: int = EDGE_ENUMERATION_CAP):
    """Covering-pair scan: is ev closed under adding one edge?

    Returns (True, None) or (False, (mask, mask | bit)).  The covering-pair
    criterion is equivalent to monotonicity over all comparable pairs on the
    subset lattice; the equivalence is cross-checked in tests against an
    all-pairs oracle.
    """
    n = ev.graph.edge_count
    if n > cap:
        raise CapExceededError("covering-pair scan", n, cap)
    for mask in range(1 << n):
        if not ev.holds(mask):
            continue
        free = ~mask & ev.graph.full_mask
        while free:
            bit = free & -free
            free ^= bit
            if not ev.holds(mask | bit):
                return False, (mask, mask | bit)
    return True, None


def parse_event(g: Graph, spec: str) -> Event:
    """Parse CLI event strings: connect:a,b | edge:3 | edge-cyclic:3 | allopen:0,1,2."""
    kind, _, rest = spec.partition(":")
    if kind == CONNECT:
        parts = rest.split(",")
        if len(parts) != 2:
            raise GraphStructureError(f"bad connect spec {spec!r}")
        named = {"a": g.marks.a if g.marks else None, "b": g.marks.b if g.marks else None}
        vals = []
        for p in parts:
            p = p.strip()
            if p in named:
                if named[p] is None:
                    raise GraphStructureError("graph has no marks for named vertices")
                vals.append(named[p])
            else:
                vals.append(int(p))
        return connect(g, *vals)
    if kind == EDGE_OPEN:
        return edge_open(g, int(rest))
    if kind == EDGE_OPEN_CYCLIC:
        return edge_open_cyclic(g, int(rest))
    if kind == ALL_OPEN:
        return all_open(g, [int(p) for p in rest.split(",") if p.strip() != ""])
    raise GraphStructureError(f"unknown event kind {kind!r}")


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class Statistic:
    graph: Graph
    kind: str
    label: str = ""

    def value(self, mask: int) -> int:
        if self.kind == "edge_count":
            return mask.bit_count()
        if self.kind == "cyclic_count":
            return cyclic_edges(self.graph, mask).bit_count()
        raise GraphStructureError(f"unknown statistic {self.kind!r}")


def edge_count(g: Graph) -> Statistic:
    return Statistic(g, "edge_count", "edge count")


def cyclic_count(g: Graph) -> Statistic:
    """Number of open edges lying on a cycle of the open subgraph."""
    return Statistic(g, "cyclic_count", "cyclic edge count")


def statistic_dist(d: Dist, s: Statistic) -> dict[int, Fraction]:
    """Exact pushforward of the statistic under d, without values of mass 0."""
    _require_same_graph(s.graph, d.graph, what="statistic and distribution")
    (masses,) = bit_masses([d], lambda m: 1 << s.value(m), d.graph.edge_count + 1)
    return {k: p for k, p in enumerate(masses) if p}
