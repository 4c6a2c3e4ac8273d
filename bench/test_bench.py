"""Tests of the benchmark itself: span arithmetic, tracing from outside, and
the output checks that feed `failed`.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import copy
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from loopcurrents import cli  # noqa: E402
from loopcurrents.graphs import generalized_theta  # noqa: E402
from loopcurrents.overview import build_overview  # noqa: E402
from loopcurrents.rationals import decimal_string  # noqa: E402


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]
    t = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 7, 10))
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    assert t.stats["a"] == [1, 10, 5]
    assert t.stats["b"] == [2, 5, 4]
    assert t.stats["c"] == [1, 1, 1]
    assert t.edges[("a", "b")] == [2, 5]
    assert t.edges[("b", "c")] == [1, 1]
    assert t.edges[("", "a")] == [1, 10]


def test_recursive_span_total_counts_outermost_call_once():
    # f [0, 10] calls f [2, 6]
    t = Tracer(clock=FakeClock(0, 2, 6, 10))
    t.enter("f")
    t.enter("f")
    t.exit()
    t.exit()
    calls, total, self_s = t.stats["f"]
    assert (calls, total, self_s) == (2, 10, 10)


def test_excluded_tracer_time_leaves_parent_self_time():
    t = Tracer(clock=FakeClock(0, 8))
    t.enter("a")
    t.exclude(3)
    t.exit()
    assert t.stats["a"] == [1, 8, 5]


def test_child_traces_from_outside_through_imported_names(tmp_path):
    """`cli` calls find_decreasing_pair through `from .rationals import ...`;
    the wrapper must still see it, nested under cmd_figure."""
    ready, trace = tmp_path / "ready.json", tmp_path / "trace.json"
    argv = ["figure", "--model", "l", "--n", "18", "--m", "2", "--grid-steps", "6", "--out", "l.csv"]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(ready), "--trace", str(trace), "--", *argv],
        cwd=tmp_path,
        env=dict(run.CHILD_ENV),
        timeout=120,
    )
    assert proc.returncode == 2
    data = json.loads(trace.read_text())
    assert data["spans"]["rationals.find_decreasing_pair"]["calls"] == 1
    assert ["cli.cmd_figure", "rationals.find_decreasing_pair", 1] == [
        e[:3] for e in data["edges"] if e[1] == "rationals.find_decreasing_pair"
    ][0]
    assert "graphs.is_connected" not in data["spans"]
    assert json.loads(ready.read_text())["module"].startswith(str(ROOT / "src"))


def test_layer_value_reads_spans_counters_and_maxima():
    trace = run.merge_traces(
        [
            {"spans": {"m.f": {"calls": 2, "total_s": 1.0, "self_s": 0.5}}, "counters": {"m.f.pairs": 3}, "maxima": {"m.max": 4}},
            {"spans": {"m.f": {"calls": 1, "total_s": 2.0, "self_s": 1.5}}, "counters": {"m.f.pairs": 5}, "maxima": {"m.max": 2}},
            None,
        ]
    )
    assert run.layer_value(trace, "m.f.calls") == 3
    assert run.layer_value(trace, "m.f.self_s") == 2.0
    assert run.layer_value(trace, "m.f.pairs") == 8
    assert run.layer_value(trace, "m.max") == 4
    assert run.layer_value(trace, "m.g.calls") == 0


# ---------------------------------------------------------------------------
# Output checks


@pytest.fixture(scope="module")
def table_report():
    # full certificates, scans on one small graph to keep the test short
    report = build_overview(6, 1, graphs=[("theta[1,1,1]", generalized_theta([1, 1, 1]))])
    return json.loads(json.dumps(report))


def test_table_check_accepts_the_program_output(table_report):
    assert checks.check_table(table_report, 0) == (25, [])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["models"]["double_current"]["FKG"].update(status="SCAN-CLEAN"),
        lambda r: r["models"]["random_cluster"]["MON"].update(status="OPEN"),
        lambda r: r["models"]["loop"]["FKG"]["witness"].update(gap="-1/100060008"),
        lambda r: r["models"]["double_loop"]["MON"]["witness"]["upset_witness"].update(mass_hi="0"),
        lambda r: r["models"]["loop"]["SING"]["witness"]["pair"].update(x2="59/64"),
        lambda r: r["models"]["single_current"]["SING"]["witness"]["pair"].update(x2="1/2"),
        lambda r: _single_current_pair(r).update(value2_enclosure=_single_current_pair(r)["value1_enclosure"]),
    ],
)
def test_table_check_counts_a_corrupted_cell(table_report, corrupt):
    report = copy.deepcopy(table_report)
    corrupt(report)
    attempted, failures = checks.check_table(report, 0)
    assert attempted == 25 and len(failures) == 1, failures


def _single_current_pair(report: dict) -> dict:
    return report["models"]["single_current"]["SING"]["witness"]["pair"]


def test_table_check_accepts_a_wider_enclosure(table_report):
    # a coarser enclosure (fewer bits, or another interval type) is still correct
    report = copy.deepcopy(table_report)
    pair = _single_current_pair(report)
    lo, hi = (Fraction(v) for v in pair["value1_enclosure"])
    pair["value1_enclosure"] = [decimal_string(lo - Fraction(1, 10**12), 12), decimal_string(hi + Fraction(1, 10**12), 12)]
    assert checks.check_table(report, 0) == (25, [])


def test_table_check_counts_a_failed_process(table_report):
    assert len(checks.check_table(table_report, 1)[1]) == 1
    assert checks.check_table({}, 1)[0] == 25
    assert len(checks.check_table({}, 1)[1]) == 25


def _figure(tmp_path, argv_extra, model="l"):
    out = tmp_path / f"{model}.csv"
    cmd = workloads._figure(model, *argv_extra)
    cmd.argv[-1] = str(out)
    code = cli.main(cmd.argv)
    return cmd.args, out, code


def test_figure_check_counts_a_changed_digit(tmp_path):
    args, out, code = _figure(tmp_path, (18, 2, 6))
    assert checks.check_figure(args, out, code) == (64, [])
    rows = list(csv.reader(out.open()))
    digits = rows[5][3]
    last = digits.index("E") - 1 if "E" in digits else len(digits) - 1
    rows[5][3] = digits[:last] + str((int(digits[last]) + 1) % 10) + digits[last + 1 :]
    with out.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    attempted, failures = checks.check_figure(args, out, code)
    assert attempted == 64 and len(failures) == 1 and "row 4" in failures[0]


def test_figure_check_counts_a_missing_pair(tmp_path):
    # one grid point near 1: no decreasing pair, exit code 0
    args, out, code = _figure(tmp_path, (2000, 300, 1, "255/256:1"), model="P")
    assert code == 0
    attempted, failures = checks.check_figure(args, out, code)
    assert attempted == 2 and len(failures) == 1 and "pair" in failures[0]


def test_verify_check_counts_failed_suites_and_exit_code():
    suites = workloads.VERIFY_SUITES
    out = "".join(f"verify {s}: PASS\n" for s in suites)
    report = {s: {"pass": True, "failures": []} for s in suites}
    assert checks.check_verify(out, report, 0, suites) == (7, [])
    bad = out.replace("verify cor1: PASS", "verify cor1: FAIL")
    assert len(checks.check_verify(bad, report, 1, suites)[1]) == 2
    assert len(checks.check_verify(out, None, 0, suites)[1]) == 6


def test_sample_check_counts_draws_outside_the_support(tmp_path):
    cmd = workloads.Sample().commands(3, 0, tmp_path)[2]
    assert cmd.args["model"] == "loop_mcmc"
    cmd.args["samples"] = 50
    cmd.argv[cmd.argv.index("--samples") + 1] = "50"
    cmd.argv[-1] = str(tmp_path / cmd.output)
    assert cli.main(cmd.argv) == 0
    dump = tmp_path / cmd.output
    assert checks.check_sample(cmd.args, dump, 0) == (50, [])
    lines = dump.read_text().splitlines()
    lines[-1] = "0x1"  # a single edge is not an even subgraph
    lines[-2] = "zz"
    dump.write_text("\n".join(lines[:-3] + lines[-2:]) + "\n")
    attempted, failures = checks.check_sample(cmd.args, dump, 0)
    assert attempted == 50 and len(failures) == 3  # two outside, one missing


# ---------------------------------------------------------------------------
# Inputs and the contract file


def test_inputs_follow_the_seed():
    g = workloads.extra_graph(5)
    assert g == workloads.extra_graph(5) and g != workloads.extra_graph(6)
    assert g["vertices"] == 5 and len(g["edges"]) == 9
    assert workloads._connected(5, g["edges"])
    assert workloads.sample_seeds(5, 0) == workloads.sample_seeds(5, 0) != workloads.sample_seeds(5, 1)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
