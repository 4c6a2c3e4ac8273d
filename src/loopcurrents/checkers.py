"""FKG, stochastic domination and monotonicity certification.

Stochastic domination is decided by Strassen's criterion: mu_hi dominates
mu_lo iff a coupling supported on comparable pairs exists, iff the max flow
through the bipartite comparability network carries all the mass.  The flow
runs on integers (probabilities scaled by a common denominator), so the
verdict and both kinds of certificate are exact:

* success returns the coupling (joint weights with exact marginals);
* failure returns an up-set U, as its minimal elements, whose masses
  violate mu_lo(U) <= mu_hi(U), extracted from the min cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .errors import GraphMismatchError, LoopCurrentsError
from .events import Event
from .measures import Dist, union as _union
from .rationals import format_rational

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class UpSetWitness:
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

    def contains(self, mask: int) -> bool:
        return any(mask & m == m for m in self.minimal_elements)

    def to_json_dict(self) -> dict:
        return {
            "minimal_elements": [hex(m) for m in self.minimal_elements],
            "mass_lo": format_rational(self.mass_lo),
            "mass_hi": format_rational(self.mass_hi),
            "gap": format_rational(self.gap),
        }


@dataclass(frozen=True)
class DominationReport:
    dominates: bool
    witness: UpSetWitness | None = None
    coupling: tuple[tuple[int, int, Fraction], ...] | None = None

    def __post_init__(self):
        if self.dominates == (self.witness is not None) or self.dominates != (
            self.coupling is not None
        ):
            raise LoopCurrentsError("report must carry exactly one of witness/coupling")

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": "dominates" if self.dominates else "fails"}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.coupling is not None:
            out["coupling"] = [
                [hex(a), hex(b), format_rational(w)] for a, b, w in self.coupling
            ]
        return out


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


# ---------------------------------------------------------------------------
# FKG


def fkg_pair_gap(d: Dist, a: Event, b: Event, require_increasing: bool = True) -> Fraction:
    """P(A and B) - P(A)P(B), exact.  Negative certifies an FKG violation."""
    if require_increasing and not (a.increasing and b.increasing):
        raise LoopCurrentsError(
            "fkg_pair_gap needs events verified increasing; "
            "use events.verified_increasing or pass require_increasing=False"
        )
    w_a = w_b = w_ab = ZERO
    for mask, w in d.weights.items():
        in_a = a.holds(mask)
        in_b = b.holds(mask)
        if in_a:
            w_a += w
        if in_b:
            w_b += w
        if in_a and in_b:
            w_ab += w
    return w_ab / d.z - (w_a / d.z) * (w_b / d.z)


def fkg_report(
    d: Dist,
    event_pairs: Sequence[tuple[Event, Event]],
    check_lattice: bool = False,
) -> FkgReport:
    """Bundle pairwise FKG gaps over an event battery, optionally with the
    lattice-condition verdict.  Negative gaps certify FKG violations; the
    lattice condition is only sufficient, so its failure alone proves
    nothing about FKG."""
    gaps = tuple(
        (a.describe(), b.describe(), fkg_pair_gap(d, a, b)) for a, b in event_pairs
    )
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
    masks = sorted(d.weights)
    for i, m1 in enumerate(masks):
        w1 = d.weights[m1]
        for m2 in masks[i + 1 :]:
            w2 = d.weights[m2]
            join = d.weights.get(m1 | m2, ZERO)
            meet = d.weights.get(m1 & m2, ZERO)
            if join * meet < w1 * w2:
                return FkgReport(
                    lattice_holds=False,
                    lattice_violation=LatticeViolation(m1, m2, join, meet, w1 * w2),
                )
    return FkgReport(lattice_holds=True)


# ---------------------------------------------------------------------------
# Exact max-flow (Dinic) on the bipartite comparability network


class _Dinic:
    """Max flow with arbitrary-precision integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(capacity)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    if v == t:
                        return level
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _blocking_flow(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        # walk forward along admissible arcs, push on reaching t, retreat when stuck
        total = 0
        stack = [s]
        path: list[int] = []
        while stack:
            u = stack[-1]
            if u == t:
                pushed = min(self.cap[idx] for idx in path)
                for idx in path:
                    self.cap[idx] -= pushed
                    self.cap[idx ^ 1] += pushed
                total += pushed
                for pos, idx in enumerate(path):
                    if self.cap[idx] == 0:
                        del stack[pos + 1 :]
                        del path[pos:]
                        break
                continue
            advanced = False
            while it[u] < len(self.head[u]):
                idx = self.head[u][it[u]]
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] == level[u] + 1:
                    stack.append(v)
                    path.append(idx)
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                level[u] = -1  # dead end for this phase
                stack.pop()
                if path:
                    path.pop()
        return total

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            flow += self._blocking_flow(s, t, level, it)

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


def stochastic_domination(d_lo: Dist, d_hi: Dist) -> DominationReport:
    """Decide whether d_hi stochastically dominates d_lo, with certificate.

    Network: source -> each low-support mask A (capacity P_lo(A)),
    A -> B whenever A is a subset of B, each high-support mask B -> sink
    (capacity P_hi(B)).  Full flow carries the coupling; a deficit yields a
    violating up-set from the residual cut.
    """
    if d_lo.graph.edges != d_hi.graph.edges:
        raise GraphMismatchError("distributions live on different graphs")
    lo_masks = sorted(d_lo.weights)
    hi_masks = sorted(d_hi.weights)
    p_lo = d_lo.probabilities()
    p_hi = d_hi.probabilities()

    denom = lcm(
        *(f.denominator for f in p_lo.values()),
        *(f.denominator for f in p_hi.values()),
    )
    total = denom  # both measures scale to the same integer total

    a_index = {m: 2 + i for i, m in enumerate(lo_masks)}
    b_index = {m: 2 + len(lo_masks) + i for i, m in enumerate(hi_masks)}
    net = _Dinic(2 + len(lo_masks) + len(hi_masks))
    for m in lo_masks:
        net.add_edge(0, a_index[m], int(p_lo[m] * denom))
    for m in hi_masks:
        net.add_edge(b_index[m], 1, int(p_hi[m] * denom))
    arc_ids: dict[tuple[int, int], int] = {}
    for a in lo_masks:
        for b in hi_masks:
            if a & ~b == 0:
                arc_ids[(a, b)] = net.add_edge(a_index[a], b_index[b], total)

    flow = net.max_flow(0, 1)
    if flow == total:
        # flow on an arc = original capacity - residual capacity
        coupling = tuple(
            (a, b, Fraction(total - net.cap[idx], denom))
            for (a, b), idx in sorted(arc_ids.items())
            if total - net.cap[idx] > 0
        )
        return DominationReport(True, coupling=coupling)

    source_side = net.min_cut_side(0)
    cut_lo = [m for m in lo_masks if a_index[m] in source_side]
    witness = _upset_witness(cut_lo, d_lo, d_hi)
    if witness.gap <= 0:
        raise LoopCurrentsError("internal error: min cut produced a non-violating up-set")
    return DominationReport(False, witness=witness)


def _upset_witness(generators: Sequence[int], d_lo: Dist, d_hi: Dist) -> UpSetWitness:
    minimal = _minimal_masks(generators)
    mass_lo = sum(
        (w for m, w in d_lo.weights.items() if any(m & g == g for g in minimal)), ZERO
    ) / d_lo.z
    mass_hi = sum(
        (w for m, w in d_hi.weights.items() if any(m & g == g for g in minimal)), ZERO
    ) / d_hi.z
    return UpSetWitness(minimal, mass_lo, mass_hi)


# ---------------------------------------------------------------------------
# Scans


def monotonicity_scan(
    family: Callable[[Fraction], Dist], grid: Sequence[Fraction]
) -> list[tuple[Fraction, Fraction, DominationReport]]:
    """Check stochastic domination between consecutive grid points.

    Returns all failures with witnesses.  An empty list is scan evidence,
    never a monotonicity proof.
    """
    failures = []
    prev_x = None
    prev_d = None
    for x in grid:
        d = family(x)
        if prev_d is not None:
            report = stochastic_domination(prev_d, d)
            if not report.dominates:
                failures.append((prev_x, x, report))
        prev_x, prev_d = x, d
    return failures


def union_preservation_test(
    fam1: Callable[[Fraction], Dist],
    fam2: Callable[[Fraction], Dist],
    grid: Sequence[Fraction],
    union_family: Callable[[Fraction], Dist] | None = None,
    event_pairs: Sequence[tuple[Event, Event]] = (),
) -> dict:
    """Evidence that unions preserve monotonicity (and pairwise FKG gaps).

    If either input family already fails its own scan the hypothesis is not
    met and the result is "inconclusive" rather than a theorem violation; a
    family passed as both inputs is scanned once.  FKG is only probed
    through gaps on the supplied event battery.
    """
    if union_family is None:

        def union_family(x):
            return _union(fam1(x), fam2(x))

    inputs = (("first", fam1),) if fam2 is fam1 else (("first", fam1), ("second", fam2))
    for name, fam in inputs:
        fails = monotonicity_scan(fam, grid)
        if fails:
            return {
                "status": "inconclusive",
                "reason": f"{name} input family fails its own monotonicity scan",
                "input_failures": [(str(a), str(b)) for a, b, _ in fails],
            }

    union_fails = monotonicity_scan(union_family, grid)
    gap_records = []
    negative_gap = False
    for x in grid:
        d = union_family(x)
        for ev_a, ev_b in event_pairs:
            gap = fkg_pair_gap(d, ev_a, ev_b)
            gap_records.append((str(x), ev_a.describe(), ev_b.describe(), format_rational(gap)))
            if gap < 0:
                negative_gap = True

    status = "verified" if not union_fails and not negative_gap else "violated"
    return {
        "status": status,
        "union_scan_failures": [
            (str(a), str(b), rep.to_json_dict()) for a, b, rep in union_fails
        ],
        "event_pair_gaps": gap_records,
    }
