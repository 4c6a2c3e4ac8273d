"""Correctness checks of CLI outputs, each an independent re-computation
through the library's public API.

Every check returns ``(attempted, failures)``: the number of operations it
judged and one line per failed operation.  A check never trusts the output
it is judging: witnesses are recomputed, values re-evaluated, and statuses
compared with ``overview.KNOWN_VERDICTS``.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from loopcurrents import measures, theta
from loopcurrents.graphs import counter_family, generalized_theta
from loopcurrents.overview import KNOWN_VERDICTS, PROPERTIES
from loopcurrents.rationals import decimal_string, dyadic_grid, dyadic_window_grid, format_rational

STATUS_FOR_VERDICT = {"refuted": "CERTIFIED-FALSE", "holds": "SCAN-CLEAN", "open": "OPEN"}
# Precision of the independent enclosures that certify a decimal or a pair.
CHECK_BITS = 4096
# A decimal is certified by any enclosure whose two endpoints round to it, so
# a row is first tried at this cheaper precision and escalates to CHECK_BITS
# only if the endpoints disagree: the verdict is the one CHECK_BITS gives.
FIRST_CHECK_BITS = 1024
DIGITS = 40


def _family(text: str, kind: str) -> tuple[int, ...]:
    found = re.fullmatch(rf"{kind}\((\d+(?:,\d+)*)\)", text)
    if found is None:
        raise ValueError(f"unexpected family {text!r}")
    return tuple(int(v) for v in found.group(1).split(","))


@lru_cache(maxsize=None)
def _conn(model: str, n: int, m: int, x: Fraction) -> Fraction:
    fn = theta.loop_conn(n, m) if model == "loop" else theta.double_loop_conn(n, m)
    return fn(x)


@lru_cache(maxsize=None)
def _enclosure(n: int, m: int, x: Fraction, bits: int = CHECK_BITS):
    return theta.single_current_conn_interval(n, m, x, bits)


# ---------------------------------------------------------------------------
# table


def _check_fkg(model: str, w: dict) -> None:
    n, m, _ = _family(w["family"], "theta")
    if model == "single_current":
        gap = theta.single_current_fkg_gap(n, m, Fraction(w["t"]))
    elif model == "loop":
        gap = theta.loop_fkg_gap(n, m, Fraction(w["x"]))
    else:
        gap = theta.double_loop_fkg_gap(n, m, Fraction(w["x"]))
    if not gap < 0 or format_rational(gap) != w["gap"]:
        raise ValueError(f"FKG gap {w['gap']} is not the negative gap {gap}")


def _check_exact_pair(model: str, prop: str, w: dict) -> None:
    n, m = _family(w["family"], "counter")
    pair = w["pair"]
    x1, x2 = Fraction(pair["x1"]), Fraction(pair["x2"])
    v1, v2 = _conn(model, n, m, x1), _conn(model, n, m, x2)
    if not (x1 < x2 and v2 < v1):
        raise ValueError("pair is not decreasing")
    if (pair["value1"], pair["value2"]) != (format_rational(v1), format_rational(v2)):
        raise ValueError("pair values differ from the closed form")
    if prop != "MON":
        return
    upset = w["upset_witness"]
    minimal = [int(h, 16) for h in upset["minimal_elements"]]
    build = measures.loop_o1 if model == "loop" else measures.double_loop
    g = counter_family(n, m)
    masses = []
    for x in (x1, x2):
        d = build(g, x)
        inside = sum((wt for mask, wt in d.weights.items() if any(mask & e == e for e in minimal)), Fraction(0))
        masses.append(inside / d.z)
    if not masses[0] > masses[1]:
        raise ValueError("up-set masses do not reverse")
    if (upset["mass_lo"], upset["mass_hi"]) != tuple(format_rational(v) for v in masses):
        raise ValueError("up-set masses differ from the model distributions")


def _widened(text: str) -> tuple[Fraction, Fraction]:
    """A reported bound as an interval: an exact rational, or a rounded
    decimal widened by one unit in its last digit."""
    value = Fraction(text)
    unit = 0 if "/" in text else Fraction(10) ** Decimal(text).as_tuple().exponent
    return value - unit, value + unit


def _check_enclosed_pair(w: dict) -> None:
    """A certified decrease: x1 < x2, disjoint independent enclosures of the
    two values, and each reported enclosure overlapping its independent one."""
    n, m = _family(w["family"], "counter")
    pair = w["pair"]
    x1, x2 = Fraction(pair["x1"]), Fraction(pair["x2"])
    iv1, iv2 = _enclosure(n, m, x1), _enclosure(n, m, x2)
    if not (x1 < x2 and iv1.lo > iv2.hi):
        raise ValueError("enclosures do not certify a decrease")
    for reported, iv in ((pair["value1_enclosure"], iv1), (pair["value2_enclosure"], iv2)):
        lo, hi = _widened(reported[0])[0], _widened(reported[1])[1]
        if not (lo <= iv.hi and iv.lo <= hi):
            raise ValueError("reported enclosure misses the value")


def check_table(report: dict, exit_code: int) -> tuple[int, list[str]]:
    """One operation per model-by-property cell, plus the process itself."""
    failures = []
    if exit_code != 0 or report.get("consistent_with_expected") is not True:
        failures.append(f"table: exit code {exit_code}, consistent={report.get('consistent_with_expected')}")
    cells = report.get("models", {})
    attempted = 1
    for model, verdicts in KNOWN_VERDICTS.items():
        for prop in PROPERTIES:
            attempted += 1
            cell = cells.get(model, {}).get(prop)
            want = STATUS_FOR_VERDICT[verdicts[prop]]
            if cell is None or cell.get("status") != want:
                failures.append(f"table {model}/{prop}: status {cell and cell.get('status')}, want {want}")
                continue
            try:
                if want == "SCAN-CLEAN" and cell["scan"]["violations"]:
                    raise ValueError("clean scan lists violations")
                if want == "CERTIFIED-FALSE":
                    w = cell["witness"]
                    if prop == "FKG":
                        _check_fkg(model, w)
                    elif "value1_enclosure" in w["pair"]:
                        _check_enclosed_pair(w)
                    else:
                        _check_exact_pair(model, prop, w)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                failures.append(f"table {model}/{prop}: {exc!r}")
    return attempted, failures


# ---------------------------------------------------------------------------
# verify


def check_verify(stdout: str, report: dict | None, exit_code: int, suites) -> tuple[int, list[str]]:
    """One operation per suite, plus the process itself."""
    failures = []
    if exit_code != 0:
        failures.append(f"verify: exit code {exit_code}")
    lines = set(stdout.splitlines())
    for name in suites:
        passed = report is not None and report.get(name, {}).get("pass") is True
        if f"verify {name}: PASS" not in lines or not passed:
            failures.append(f"verify {name}: not passed")
    return len(suites) + 1, failures


# ---------------------------------------------------------------------------
# figure


def figure_grid(args: dict) -> list[Fraction]:
    if "window" in args:
        lo, hi = (Fraction(v) for v in args["window"].split(":"))
        return dyadic_window_grid(lo, hi, 1 << args["grid_steps"])
    return dyadic_grid(args["grid_steps"])


def _check_row(args: dict, x: Fraction, row: list[str]) -> None:
    if row[:3] != [str(x.numerator), str(x.denominator), decimal_string(x, DIGITS)]:
        raise ValueError("grid point columns")
    n, m = args["n"], args["m"]
    if args["model"] == "P":
        for bits in (FIRST_CHECK_BITS, CHECK_BITS):
            iv = _enclosure(n, m, x, bits)
            lo, hi = decimal_string(iv.lo, DIGITS), decimal_string(iv.hi, DIGITS)
            if lo == hi:
                break
        if not lo == hi == row[3] or row[4] != "":
            raise ValueError(f"decimal {row[3]} not certified (enclosure rounds to {lo}, {hi})")
    else:
        v = _conn("loop" if args["model"] == "l" else "double_loop", n, m, x)
        if row[3:] != [decimal_string(v, DIGITS), format_rational(v)]:
            raise ValueError("value differs from the closed form")


def _check_figure_pair(args: dict, pair: dict | None) -> None:
    if pair is None:
        raise ValueError("no certified decreasing pair")
    n, m = args["n"], args["m"]
    x1, x2 = Fraction(pair["x1"]), Fraction(pair["x2"])
    if not x1 < x2:
        raise ValueError("pair points out of order")
    if args["model"] == "P":
        _check_enclosed_pair({"family": f"counter({n},{m})", "pair": pair})
        return
    model = "loop" if args["model"] == "l" else "double_loop"
    v1, v2 = _conn(model, n, m, x1), _conn(model, n, m, x2)
    if not v2 < v1 or (pair["value1"], pair["value2"]) != (format_rational(v1), format_rational(v2)):
        raise ValueError("pair is not a decreasing pair of the closed form")


def check_figure(args: dict, csv_path: Path, exit_code: int) -> tuple[int, list[str]]:
    """One operation per grid row, plus the certified pair (exit code 2)."""
    grid = figure_grid(args)
    label = f"figure {args['model']}"
    failures = []
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError as exc:
        rows = []
        failures.append(f"{label}: {exc!r}")
    for i, x in enumerate(grid):
        try:
            if i >= len(rows):
                raise ValueError("row missing")
            _check_row(args, x, rows[i])
        except (IndexError, ValueError) as exc:
            failures.append(f"{label} row {i}: {exc}")
    try:
        if exit_code != 2:
            raise ValueError(f"exit code {exit_code}, want 2")
        sidecar = json.loads(Path(str(csv_path) + ".pair.json").read_text(encoding="utf-8"))
        _check_figure_pair(args, sidecar.get("decreasing_pair"))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        failures.append(f"{label} pair: {exc}")
    return len(grid) + 1, failures


# ---------------------------------------------------------------------------
# sample


@lru_cache(maxsize=None)
def sample_support(model: str, segments: tuple[int, ...], x: Fraction) -> frozenset[int]:
    g = generalized_theta(list(segments))
    if model == "loop_mcmc":
        d = measures.loop_o1(g, x)
    elif model == "uniform_even_of_double_current":
        d = measures.push_uniform_even(measures.double_current(g, x))
    else:
        d = getattr(measures, model)(g, x)
    return frozenset(d.weights)


def check_sample(args: dict, dump_path: Path, exit_code: int) -> tuple[int, list[str]]:
    """One operation per requested draw."""
    label = f"sample {args['model']}"
    support = sample_support(args["model"], tuple(args["segments"]), Fraction(args["x"]))
    try:
        lines = dump_path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return args["samples"], [f"{label}: {exc!r}"] * args["samples"]
    header = f"# model={args['model']} rng=philox4x64 seed={args['seed']}"
    failures = [] if lines[:1] == [header] and exit_code == 0 else [f"{label}: header or exit code {exit_code}"]
    draws = [line for line in lines if not line.startswith("#")]
    outside = sum(1 for line in draws if not re.fullmatch(r"0x[0-9a-f]+", line) or int(line, 16) not in support)
    missing = max(args["samples"] - len(draws), 0)
    failures += [f"{label}: draw outside the exact support"] * outside
    failures += [f"{label}: draw missing"] * missing
    return args["samples"], failures[: args["samples"]]
