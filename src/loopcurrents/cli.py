"""Command-line interface: figure data, the overview table, verification
suites and sample dumps.

``verify`` runs its four battery suites (``newcoupling``, ``cor1``,
``edge-identities``, ``lis-equivalence``) once per graph, on the model rows
as integer lattice tables at one evaluation point (a, b): with ``--x a/b``
a check at that x, and by default (2^S, 1), where every comparison is one
of integer polynomials packed by x -> 2^S, so each identity is proved for
every x by the same code.

Exit codes: 0 all checks pass (or nothing was found where nothing was
expected), 2 a certified counterexample was found where one was requested
(success for counterexample commands), 1 internal error, rejected
arguments or failed verification.  Every command writes a JSON run
manifest next to its output with parameters and SHA-256 digests, so
reports are reproducible.

A module that not every command runs is imported inside the functions
that use it, so each command runs only the modules it needs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import CapExceededError, GraphStructureError, LoopCurrentsError, ParametrizationError
from .graphs import (
    Graph,
    counter_family,
    cycle_space_basis,
    even_lattice,
    generalized_theta,
    graph_from_json,
    lattice_size,
)
from .rationals import (
    decimal_string,
    dyadic_grid,
    dyadic_steps,
    dyadic_window_grid,
    find_decreasing_pair,
    format_rational,
    parse_rational,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_COUNTEREXAMPLE = 2


# ---------------------------------------------------------------------------
# Manifest


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_manifest(out_path: Path, command: str, parameters: dict, outputs: list[Path], started: float):
    manifest = {
        "command": command,
        "parameters": parameters,
        "tool_version": __version__,
        "started_utc": datetime.fromtimestamp(started, tz=timezone.utc).isoformat(),
        "elapsed_seconds": round(time.time() - started, 3),
        "outputs": {str(p): _sha256(p) for p in outputs if p.exists()},
    }
    path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Graph selection flags


def add_graph_args(parser: argparse.ArgumentParser):
    parser.add_argument("--graph", help="path to a graph JSON file")
    parser.add_argument("--family", choices=["theta", "counter"], help="built-in family")
    parser.add_argument("--segments", help="comma-separated segment lengths for theta")
    parser.add_argument("--n", type=int, help="outer path length for the counter family")
    parser.add_argument("--m", type=int, help="inner path length for the counter family")


# Most vertices plus edges of a graph built from command-line input,
# checked before it is built.  The cycle basis is linear in the graph:
# sample --model loop_mcmc --segments 65000,1,1 --samples 10 takes 0.2-0.4 s
# and, past the cap, 320000,1,1 takes 0.7-0.8 s and 186 MB; verify --theorem
# cor1 on a graph file of 10^7 vertices and 3 edges takes 1.7-2.5 s and
# 174 MB (CPython 3.11, 2-vCPU Xeon).
GRAPH_SIZE_CAP = 1 << 17


def _require_graph_size(vertices: int, edges: int) -> None:
    if vertices + edges > GRAPH_SIZE_CAP:
        raise CapExceededError("graph vertices plus edges", vertices + edges, GRAPH_SIZE_CAP)


def read_graph(path: str) -> Graph:
    """The graph in a JSON file, size-checked before it is built; a bad file is a typed error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        data = json.loads(text)
        vertices = data["vertices"]  # graph_from_json refuses one that is not an int
        _require_graph_size(vertices if type(vertices) is int else 0, len(data["edges"]))
        return graph_from_json(text)
    except CapExceededError:
        raise
    except KeyError as exc:
        raise GraphStructureError(f"graph file {path} has no key {exc}") from exc
    except (OSError, ValueError, TypeError) as exc:
        raise GraphStructureError(f"graph file {path}: {exc}") from exc


def graph_from_args(args) -> Graph:
    if args.graph:
        return read_graph(args.graph)
    if args.family == "theta":
        if not args.segments:
            raise LoopCurrentsError("--family theta needs --segments")
        try:
            lengths = [int(s) for s in args.segments.split(",")]
        except ValueError as exc:
            raise GraphStructureError(f"--segments {args.segments!r}: {exc}") from exc
    elif args.family == "counter":
        if args.n is None or args.m is None:
            raise LoopCurrentsError("--family counter needs --n and --m")
        lengths = [args.n, args.n, args.m, args.m]
    else:
        raise LoopCurrentsError("select a graph with --graph or --family")
    # a theta graph: the two hubs and each segment's inner vertices
    _require_graph_size(2 + sum(lengths) - len(lengths), sum(lengths))
    return generalized_theta(lengths) if args.family == "theta" else counter_family(args.n, args.m)


# ---------------------------------------------------------------------------
# figure


# Most --precision-digits, for every model: an inexact MAX_BITS enclosure
# is about 2^-MAX_BITS wide relative to its value, so it certifies at most
# floor(MAX_BITS * log10(2)) = 1233 significant digits; --model P would
# fail a larger request only after evaluating every rung.
PRECISION_DIGITS_CAP = 1233


def _decimal_bits(digits: int) -> int:
    """First rung of the START_BITS doubling ladder with 2^-bits < 10^-digits:
    on a coarser rung an inexact enclosure, a unit in its last bit wide, is
    about as wide as a decimal cell, so its endpoints mostly round apart."""
    from .intervals import MAX_BITS, START_BITS

    bits, cell = START_BITS, 10**digits
    while 1 << bits <= cell and bits < MAX_BITS:
        bits *= 2
    return bits


def _interval_decimal(fn, x: Fraction, digits: int) -> str:
    """Decimal string of an interval-valued function, refined until the
    rounding of both endpoints agrees (then it is the correctly rounded
    value).  Raises if they still disagree at ``MAX_BITS``."""
    from .intervals import MAX_BITS

    bits = _decimal_bits(digits)
    while True:
        iv = fn(x, bits)
        lo_s = decimal_string(iv.lo, digits)
        hi_s = decimal_string(iv.hi, digits)
        if lo_s == hi_s:
            return lo_s
        if bits >= MAX_BITS:
            raise LoopCurrentsError(
                f"value at x={x} not certified to {digits} digits at {MAX_BITS} bits: "
                f"the enclosure rounds to {lo_s} and {hi_s}"
            )
        bits *= 2


def cmd_figure(args) -> int:
    import csv

    from . import theta

    started = time.time()
    n, m = args.n, args.m  # the closed forms check them
    if args.window:
        lo, colon, hi = args.window.partition(":")
        if not colon:
            raise ParametrizationError("--window needs the form lo:hi")
        grid = dyadic_window_grid(parse_rational(lo), parse_rational(hi), dyadic_steps(args.grid_steps))
    else:
        grid = dyadic_grid(args.grid_steps)

    digits = args.precision_digits
    if digits < 1:
        raise ParametrizationError(f"--precision-digits {digits} must be positive")
    if digits > PRECISION_DIGITS_CAP:
        raise CapExceededError("--precision-digits", digits, PRECISION_DIGITS_CAP)
    out = Path(args.out)
    rows = []
    pair_record = None

    if args.model in ("l", "l2"):
        fn = theta.loop_conn(n, m) if args.model == "l" else theta.double_loop_conn(n, m)
        # one evaluation per grid point, for the rows and the pair search
        values = {x: fn(x) for x in grid}
        for x, v in values.items():
            rows.append(
                (
                    x.numerator,
                    x.denominator,
                    decimal_string(x, digits),
                    decimal_string(v, digits),
                    format_rational(v),
                )
            )
        pair = find_decreasing_pair(values.__getitem__, grid)
        if pair is not None:
            x1, x2, v1, v2 = pair
            pair_record = {
                "x1": format_rational(x1),
                "x2": format_rational(x2),
                "value1": format_rational(v1),
                "value2": format_rational(v2),
                "method": "exact-rational",
            }
    else:  # "P"
        from .intervals import certify_decreasing_pair

        # the decimal refinement and the pair search start on the same rung
        # and ask for the same enclosures; compute each (x, bits) once
        enclosure = functools.cache(functools.partial(theta.single_current_conn_interval, n, m))
        for x in grid:
            v_str = _interval_decimal(enclosure, x, digits)
            rows.append((x.numerator, x.denominator, decimal_string(x, digits), v_str, ""))
        found = certify_decreasing_pair(enclosure, grid, start_bits=_decimal_bits(digits))
        if found is not None:
            x1, x2, iv1, iv2 = found
            pair_record = {
                "x1": format_rational(x1),
                "x2": format_rational(x2),
                "value1_enclosure": [str(iv1.lo), str(iv1.hi)],
                "value2_enclosure": [str(iv2.lo), str(iv2.hi)],
                "method": "certified-interval",
            }

    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_num", "x_den", "x_decimal", "value_decimal", "value_exact"])
        writer.writerows(rows)

    sidecar = out.with_suffix(out.suffix + ".pair.json")
    sidecar.write_text(
        json.dumps(
            {
                "model": args.model,
                "n": n,
                "m": m,
                "grid_points": len(grid),
                "decreasing_pair": pair_record,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    write_manifest(out, "figure", _params(args), [out, sidecar], started)
    return EXIT_COUNTEREXAMPLE if pair_record else EXIT_OK


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    from .overview import build_overview

    started = time.time()
    report = build_overview(grid_resolution=args.grid_steps)
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2), encoding="utf-8")
    write_manifest(out, "table", _params(args), [out], started)
    if not report["consistent_with_expected"]:
        print("table: scans contradict the expected verdicts", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# The model rows the battery suites read, as lattice tables of
# measures.polynomial_laws at one evaluation point per graph.
BATTERY_ROWS = ("loop", "double_loop", "random_cluster", "double_current")

# Most bits of a graph's packed lattice in the default run, 2^|E| * S *
# (D + 1) with D = 4|E|, the double current's degree.  With all four
# suites the cap admits every graph of at most 12 edges and 13-edge graphs
# of cycle dimension at most 8; the battery's largest takes 2^21.1.  Past
# it the proof costs more than --x at three points (CPython 3.11, 2-vCPU
# Xeon): 0.34 s against 0.29 s on 13 edges of dimension 9 (2^25.03), and
# 1.1 s against 0.88 s on 14 edges of dimension 10 (2^26.3).  At 12 edges
# of dimension 10 (2^23.8) the 4^dim support pairs of the double loop's
# union lead both, 0.88 s against 0.61 s.
PACKED_PROOF_BITS_CAP = 1 << 25

# Most work of a graph's tables in a --x run at x = a/b: 2^|E| weights of
# at most S + D w bits meet factors of about w bits, w the bit length of
# max(a, b), counted in 30-bit int digits.  It admits every graph of the
# lattice pass cap at x = 1/2 (at most 2^27.2; 19 edges take 7-8 s and 180
# MB) and the battery at 1/10^100 (2^27.3, 0.5 s); the battery took 3.5 s at
# 1/10^300 (2^30.4) and 15 s at 1/10^1000 (CPython 3.11, 2-vCPU Xeon).
POINT_CHECK_WORK_CAP = 1 << 28


def verify_newcoupling(where, g, x, point, rows) -> list[str]:
    from .measures import _same_law, push_even

    current = rows("double_current")
    pushed, _ = push_even(g, {w: v for w, v in enumerate(current) if v})
    loop = rows("loop")
    if _same_law(list(pushed.values()), [loop[h] for h in pushed]):
        return []
    return [f"newcoupling: {where}"]


def verify_lis_equivalence(where, g, x, point, rows) -> list[str]:
    from .measures import _same_law, counting_weights

    if _same_law(counting_weights(g, *point), rows("double_current")):
        return []
    return [f"lis-equivalence: {where}"]


def verify_cor1(where, g, x, point, rows) -> list[str]:
    from .measures import edge_masses

    # the open cyclic edges of every configuration, from the graph's one lattice
    _, cyclic = even_lattice(g)

    def cyclic_masses(row):
        law = [0] * len(cyclic)  # the law of the set of open cyclic edges
        for w, edges in zip(rows(row), cyclic):
            law[edges] += w
        return edge_masses(law)

    (left, lt), (right, rt) = map(cyclic_masses, ("double_current", "random_cluster"))
    mid, mt = edge_masses(rows("loop"))
    # left/lt / 2 == mid/mt == right/rt / 2, cross-multiplied
    return [
        f"cor1: {where} edge={e}"
        for e in range(g.edge_count)
        if not (left[e] * mt == 2 * mid[e] * lt and right[e] * mt == 2 * mid[e] * rt)
    ]


def verify_edge_identities(where, g, x, point, rows) -> list[str]:
    from .measures import _open_edges, edge_masses

    failures = []
    loop = rows("loop")
    third = list(loop)
    _open_edges(third, [(1, 3)] * g.edge_count)  # the loop model united with Bernoulli(1/3)
    # the random cluster is the loop model united with Bernoulli(x), x = a/b
    tables = [loop, rows("double_loop"), third, rows("random_cluster")]
    (base, s), (doubled, sd), *unioned = map(edge_masses, tables)
    ps = (((1, 3), "1/3"), (point, "x" if x is None else x))
    # with b = base/s: united b + p(1 - b), doubled b(2 - b), cross-multiplied
    for e in range(g.edge_count):
        b = base[e]
        for ((a, c), p), (masses, su) in zip(ps, unioned):
            if masses[e] * s * c != su * (b * c + a * (s - b)):
                failures.append(f"edge-identities: {where} e={e} p={p}")
        if doubled[e] * s * s != sd * b * (2 * s - b):
            failures.append(f"edge-identities double: {where} e={e}")
    return failures


def _evaluation_point(theorems, name: str, g: Graph, shapes, x) -> tuple[int, int]:
    """The point (a, b) at which the suites read g's tables: x = a/b, or
    with x None (2^S, 1), S one more than the bit length of a bound on the
    absolute coefficient sum of either side of every comparison the suites
    make, products included.  Two such sides that agree at x = 2^S agree
    as polynomials, and a nonzero side is nonzero there.  A row's bound
    covers the sum of any of its weights, and a product's is at most the
    product of its factors'.  Refused above :data:`PACKED_PROOF_BITS_CAP`,
    or at x above :data:`POINT_CHECK_WORK_CAP`."""
    loop, double, cluster, current = (shapes[row][0] for row in BATTERY_ROWS)
    n, dim = g.edge_count, len(cycle_space_basis(g))
    sides = {
        # a pushed weight, and their total, are at most 2^dim of the current's
        "newcoupling": (current << dim) * loop,
        "cor1": 2 * loop * max(current, cluster),
        # Bernoulli(1/3) triples the loop's bound per edge, and 2s - b,
        # 3b + (s - b) and b + x(s - b) are within 3 times the loop's
        "edge-identities": 3 * loop * max(3**n * loop, cluster, double * loop),
        # a counting weight is |even(w)|^2 2^(n - |w|) at most: 4^dim 3^n in all
        "lis-equivalence": (current * 3**n) << 2 * dim,
    }
    digits = max((sides[t] for t in theorems), default=0).bit_length() + 1
    degree = max(3 * n, *(d for _, d in shapes.values()))  # counting weights: 3n
    if x is None:
        point, cap = (1 << digits, 1), PACKED_PROOF_BITS_CAP
        size = (1 << n) * digits * (degree + 1)
        what = f"proving the identities on {name} for every x (verify --x checks one point)"
    else:  # a weight at x = a/b is the integer b^D W(a/b), at most S + D w bits
        point, cap = (x.numerator, x.denominator), POINT_CHECK_WORK_CAP
        width = max(point).bit_length()
        size = (1 << n) * (digits + degree * width) * -(-width // 30)
        what = f"checking the identities on {name} at an x of {width} bits"
    if size > cap:
        raise CapExceededError(what, size, cap)
    return point


def verify_battery(theorems, battery, x) -> dict[str, list[str]]:
    """The failure lines of the named battery suites, each in its (graph,
    edge) order.  Every suite reads a graph's rows as lattice tables at its
    :func:`_evaluation_point`; at (2^S, 1) each comparison is one of integer
    polynomials packed by x -> 2^S, so each identity holds for every x.
    Every graph's rows are checked, and its tables' size capped, before
    any pass; a row that several suites read is built once."""
    from .measures import polynomial_laws

    xs = () if x is None else (x,)
    cases = []
    for name, g in battery:
        shapes, at = polynomial_laws(g, BATTERY_ROWS, xs)
        where = name if x is None else f"{name} x={x}"
        cases.append((where, g, at, _evaluation_point(theorems, name, g, shapes, x)))
    failures: dict[str, list[str]] = {name: [] for name in theorems}
    for where, g, at, point in cases:
        rows = at(*point)
        for suite in theorems:
            failures[suite] += VERIFY_SUITES[suite](where, g, x, point, rows)
    return failures


def verify_sumthm() -> list[str]:
    """The sum theorem on the scan battery: Bernoulli percolation united
    with itself, and the random cluster's double, stay monotone; a case is
    "inconclusive" when its laws fail their own scan.  Bernoulli(x) united
    with an independent Bernoulli(x) is ``union_bernoulli(d, x)``, one pass
    over the 2^|E| lattice in place of the 4^|E| support pairs of
    ``union(d, d)``."""
    from .battery import scan_battery
    from .checkers import monotonicity_scan
    from .measures import bernoulli, build, union_bernoulli

    failures = []
    grid = dyadic_grid(4)
    for name, g in scan_battery():
        percolation = [bernoulli(g, x) for x in grid]
        cases = (
            ("bernoulli", percolation, [union_bernoulli(d, x) for d, x in zip(percolation, grid)]),
            (
                "random-cluster",
                [build("random_cluster", g, x) for x in grid],
                [build("double_cluster", g, x) for x in grid],
            ),
        )
        for label, laws, unions in cases:
            if monotonicity_scan(laws):
                failures.append(f"sumthm {label}: {name}: inconclusive")
            elif monotonicity_scan(unions):
                failures.append(f"sumthm {label}: {name}: violated")
    return failures


def verify_appendix_tables() -> list[str]:
    """Regenerate the even-subgraph pair tables and cross-check them against
    the independent containment rules, plus the closed-form oracle checks."""
    from . import theta

    failures = []
    for n, m in ((2, 2), (3, 2)):
        masks = theta.theta_even_masks(n, m)
        ranges = theta.segment_edge_ranges([n, m, n])
        upper = sum(1 << e for r in ranges[:2] for e in r)
        everything = sum(1 << e for r in ranges for e in r)
        table_first = theta.theta_pair_event_table(n, m, "first")
        table_both = theta.theta_pair_event_table(n, m, "both")
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if table_first[i][j] != ((a | b) & upper == upper):
                    failures.append(f"appendix-tables: first-loop cell ({i},{j}) at ({n},{m})")
                if table_both[i][j] != ((a | b) == everything):
                    failures.append(f"appendix-tables: both-loops cell ({i},{j}) at ({n},{m})")

        cmasks = theta.counter_even_masks(n, m)
        cranges = theta.segment_edge_ranges([n, n, m, m])
        m_up = sum(1 << e for e in cranges[2])
        m_down = sum(1 << e for e in cranges[3])
        ctable = theta.counter_pair_connect_table(n, m)
        for i, a in enumerate(cmasks):
            for j, b in enumerate(cmasks):
                both_inner = (a | b) & (m_up | m_down) == (m_up | m_down)
                if ctable[i][j] != both_inner:
                    failures.append(f"appendix-tables: connect cell ({i},{j}) at ({n},{m})")

    for n, m, t, x in ((2, 2, Fraction(1, 2), Fraction(1, 2)), (3, 2, Fraction(1, 3), Fraction(1, 3))):
        for rec in theta.closed_form_discrepancies(n, m, t, x):
            failures.append(f"appendix-tables: formula discrepancy {rec}")
    return failures


# Each suite returns one line per failure.  All but FIXED_SUITES check one
# battery graph, at one x or for every x, on the tables verify_battery
# shares between them; those two check fixed instances (the scan battery
# on a dyadic grid, the theta and counter tables), so they read neither
# --graph nor --x.
VERIFY_SUITES = {
    "newcoupling": verify_newcoupling,
    "cor1": verify_cor1,
    "edge-identities": verify_edge_identities,
    "sumthm": verify_sumthm,
    "lis-equivalence": verify_lis_equivalence,
    "appendix-tables": verify_appendix_tables,
}
FIXED_SUITES = ("sumthm", "appendix-tables")


def cmd_verify(args) -> int:
    from .battery import verification_battery

    started = time.time()
    theorems = list(VERIFY_SUITES) if args.theorem == "all" else [args.theorem]
    user_input = args.graph or args.x
    if user_input and args.theorem in FIXED_SUITES:
        raise LoopCurrentsError(f"verify --theorem {args.theorem} reads neither --graph nor --x")
    battery = verification_battery() + ([("cli-graph", read_graph(args.graph))] if args.graph else [])
    for _, g in battery:  # every battery suite sweeps each graph's subset lattice
        lattice_size(g, "verify graph lattice")
    x = parse_rational(args.x) if args.x else None
    if user_input and args.theorem == "all":
        print(f"verify: {', '.join(FIXED_SUITES)} read neither --graph nor --x", file=sys.stderr)
    found = verify_battery([t for t in theorems if t not in FIXED_SUITES], battery, x)
    failures: list[str] = []
    results = {}
    for name in theorems:
        fails = VERIFY_SUITES[name]() if name in FIXED_SUITES else found[name]
        results[name] = {"pass": not fails, "failures": fails}
        failures.extend(fails)
        print(f"verify {name}: {'PASS' if not fails else 'FAIL'}")
        for line in fails:
            print("  " + line)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(results, indent=2), encoding="utf-8")
        write_manifest(out, "verify", _params(args), [out], started)
    return EXIT_OK if not failures else EXIT_FAILURE


# ---------------------------------------------------------------------------
# sample

SAMPLER_SETTINGS = ("burn_in", "thin")


class _SampleModels:
    """The names ``sample --model`` takes: the chain's and the sampler's
    coupled models, read from :mod:`.sampler` only when argparse checks a
    value or prints help, so parsing another command runs no sampler."""

    def __iter__(self):
        from .sampler import COUPLED_MODELS

        return iter(("loop_mcmc", *COUPLED_MODELS))


def cmd_sample(args) -> int:
    from .measures import pythagorean_x
    from .sampler import loop_chain, sample_stream, write_sample_dump

    started = time.time()
    g = graph_from_args(args)
    x = parse_rational(args.x) if args.t is None else pythagorean_x(parse_rational(args.t))
    if args.samples < 0:
        raise ParametrizationError(f"--samples {args.samples} must be non-negative")

    if args.model == "loop_mcmc":
        masks = list(loop_chain(g, x, args.seed, args.samples, args.thin, args.burn_in))
        settings = {"burn_in": args.burn_in, "thin": args.thin}
    else:
        masks = sample_stream(args.model, g, x, args.seed, args.samples)
        settings = {}
    out = Path(args.out)
    write_sample_dump(out, args.model, g, x, args.seed, masks, settings)
    # record only the sampler settings the draws read
    recorded = {
        k: v for k, v in _params(args).items() if k not in SAMPLER_SETTINGS or k in settings
    }
    write_manifest(out, "sample", recorded, [out], started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopcurrents",
        description="Exact loop/current/cluster couplings and monotonicity certification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit connection-probability curves as CSV")
    fig.add_argument("--model", required=True, choices=["l", "P", "l2"])
    fig.add_argument("--n", type=int, required=True)
    fig.add_argument("--m", type=int, required=True)
    fig.add_argument("--grid-steps", type=int, default=8, help="dyadic resolution s (2^s points)")
    fig.add_argument("--window", help="lo:hi rational window to refine (default full (0,1))")
    fig.add_argument("--precision-digits", type=int, default=40)
    fig.add_argument("--out", required=True)
    fig.set_defaults(func=cmd_figure)

    tab = sub.add_parser("table", help="model-by-property certification table")
    tab.add_argument(
        "--grid-steps", type=int, default=6, help="dyadic resolution (2^s - 1 points), at least 5"
    )
    tab.add_argument("--out", required=True)
    tab.set_defaults(func=cmd_table)

    ver = sub.add_parser("verify", help="run an exact identity suite")
    ver.add_argument(
        "--theorem",
        default="all",
        choices=["all"] + list(VERIFY_SUITES),
    )
    ver.add_argument("--graph", help="add a graph JSON file to the battery")
    ver.add_argument(
        "--x", help="check the identities at one x=num/den; by default they are proved for every x"
    )
    ver.add_argument("--out", help="write a JSON report")
    ver.set_defaults(func=cmd_verify)

    smp = sub.add_parser("sample", help="dump Monte Carlo samples (cross-check tool)")
    add_graph_args(smp)
    # a metavar, so that adding the option does not list the choices
    smp.add_argument(
        "--model", required=True, choices=_SampleModels(), metavar="MODEL", help="one of %(choices)s"
    )
    point = smp.add_mutually_exclusive_group(required=True)
    point.add_argument("--x", help="x as num/den")
    point.add_argument("--t", help="Pythagorean t as num/den (sets x = 2t/(1+t^2))")
    smp.add_argument("--samples", type=int, default=1000)
    smp.add_argument("--burn-in", type=int, default=100)
    smp.add_argument("--thin", type=int, default=1)
    smp.add_argument("--seed", type=int, default=1)
    smp.add_argument("--out", required=True)
    smp.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help or --version, 2 on bad arguments
        return EXIT_OK if exc.code == 0 else EXIT_FAILURE
    try:
        return args.func(args)
    except (LoopCurrentsError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
