import csv
import hashlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from loopcurrents import cli, graphs, measures, sampler, theta
from loopcurrents.battery import scan_battery, verification_battery
from loopcurrents.cli import _interval_decimal, main
from loopcurrents.errors import CapExceededError, LoopCurrentsError
from loopcurrents.graphs import (
    Graph,
    complete_graph,
    even_lattice,
    graph_to_json,
)
from loopcurrents.intervals import Interval
from loopcurrents.measures import MODELS, build, point_laws, union_bernoulli
from loopcurrents.rationals import dyadic_grid

from oracles import cyclic_edges

F = Fraction

# sha256 of the CSV of `figure --model P --n 2000 --m 300 --grid-steps 7
# --window 255/256:1`, the README's single-current figure.
README_P_FIGURE_DIGEST = "644e2b6bc8496d857de45a91710879750480e6057d939bec0af981fdb096d943"
# sha256 of the CSV and the `.pair.json` sidecar of the README's loop and
# double-loop figures (`--n 18` and `--n 38`, `--m 2 --grid-steps 6`), and of
# the single-current figure's sidecar.  Their values are exact rationals, so
# the digests pin every closed form on the figure grids.
README_FIGURE_DIGESTS = {
    "l": (
        "6731769bc58bf1328e89774d690ac6f5a37659801fde973ffc93bb907a631c33",
        "5ed1801bf3635921c6266d3a38ad37a1ca145ac2e57ce738ef36dd76bae34b59",
    ),
    "l2": (
        "87ec5a9146825d8fa58d34d79d32c7d7966f545bf30c5d02ba1773dd438513e5",
        "76f4abb2fdde557e2fde9b8f92f37ed0ad6809b04bdec59db3d562b2fd146754",
    ),
}
# The single-current sidecar holds rounded enclosures: its digest also pins
# the order in which the hand form rounds its sums.
README_P_PAIR_DIGEST = "33613ea920db603088323a00befdf6c410e426867813ffd81a3b01fef257df7c"
# sha256 of the `verify --out` JSON with the default battery, suites and x values.
VERIFY_DIGEST = "aa62c0a80682c698d690a2e967fb10d7503a2b8db2ce0c218adc749042da3d78"
# sha256 of `sample --family theta --segments 2,3,2 --samples 1000 --seed 7`
# dumps: the README's double-current command and three more coupled models.
# They pin the coupled streams draw by draw.
SAMPLE_DIGESTS = {
    ("double_current", "--x", "1/2"): "b1833ad87a44da1cfe79d85d56d4cf0a82105f03cc79a6a4e8ac3e3d6cf31604",
    ("random_cluster", "--x", "1/2"): "ee617644e724a80ddb0aed894442a8d628b7f6236dd3aee58c1fc56bb05e96ff",
    ("single_current", "--t", "1/2"): "ebf13ba86859449f3fc636dff5dd8a060084fa449c6c1cf97d4cdf2c9441e690",
    ("uniform_even_of_double_current", "--x", "1/2"): (
        "07473d34eecb0e27a10de414ae7ef0edd400fc0f46110231157f419eb0e723f5"
    ),
}


def run(*argv) -> int:
    return main(list(argv))


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestFigure:
    def test_loop_model_counterexample(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = run(
            "figure", "--model", "l", "--n", "18", "--m", "2",
            "--grid-steps", "6", "--out", str(out),
        )
        assert code == 2  # certified counterexample found
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_num", "x_den", "x_decimal", "value_decimal", "value_exact"]
        assert len(rows) == 1 + 63
        x = F(int(rows[1][0]), int(rows[1][1]))
        assert x == F(1, 64)
        num, den = rows[1][4].split("/")
        assert F(int(num), int(den)) > 0

        sidecar = json.loads((tmp_path / "fig.csv.pair.json").read_text())
        pair = sidecar["decreasing_pair"]
        assert pair is not None and pair["method"] == "exact-rational"
        assert F(pair["x1"]) < F(pair["x2"])
        assert F(pair["value1"]) > F(pair["value2"])
        assert (sha256(out), sha256(tmp_path / "fig.csv.pair.json")) == README_FIGURE_DIGESTS["l"]

    def test_double_loop_counterexample_is_pinned(self, tmp_path):
        out = tmp_path / "l2.csv"
        code = run(
            "figure", "--model", "l2", "--n", "38", "--m", "2",
            "--grid-steps", "6", "--out", str(out),
        )
        assert code == 2
        assert (sha256(out), sha256(tmp_path / "l2.csv.pair.json")) == README_FIGURE_DIGESTS["l2"]

    @pytest.mark.parametrize("model,conn", [("l", "loop_conn"), ("l2", "double_loop_conn")])
    def test_closed_form_runs_once_per_grid_point(self, model, conn, tmp_path, monkeypatch):
        # the CSV rows and the pair search read the same 63 values
        closed_form = getattr(theta, conn)
        calls = []

        def counting(n, m):
            fn = closed_form(n, m)

            def value(x):
                calls.append(x)
                return fn(x)

            return value

        monkeypatch.setattr(theta, conn, counting)
        out = tmp_path / "f.csv"
        argv = ["figure", "--model", model, "--n", "18", "--m", "2", "--grid-steps", "6"]
        run(*argv, "--out", str(out))
        assert sorted(calls) == dyadic_grid(6)

    @pytest.mark.parametrize("model, conn", [("l", "loop_conn"), ("l2", "double_loop_conn")])
    def test_exact_values_past_the_digit_limit_are_written(self, model, conn, tmp_path):
        # at (2000, 300) the exact values have more digits than Python's
        # int-to-str limit, which applies while the command runs
        out = tmp_path / "big.csv"
        argv = ["figure", "--model", model, "--n", "2000", "--m", "300", "--grid-steps", "4"]
        run(*argv, "--out", str(out))
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        fn = getattr(theta, conn)(2000, 300)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert max(len(r[4]) for r in rows) > limit
            assert [F(r[4]) for r in rows] == [fn(x) for x in dyadic_grid(4)]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_monotone_window_yields_no_pair(self, tmp_path):
        out = tmp_path / "flat.csv"
        code = run(
            "figure", "--model", "l", "--n", "1", "--m", "2",
            "--grid-steps", "2", "--window", "1/8:1/4", "--out", str(out),
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "flat.csv.pair.json").read_text())
        assert sidecar["decreasing_pair"] is None

    def test_single_current_interval_mode(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run(
            "figure", "--model", "P", "--n", "4", "--m", "2",
            "--grid-steps", "3", "--precision-digits", "12", "--out", str(out),
        )
        assert code in (0, 2)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        # interval values carry decimals but no exact rational column
        assert rows[1][3] != "" and rows[1][4] == ""

    def test_single_current_large_family_certifies(self, tmp_path):
        out = tmp_path / "big.csv"
        code = run(
            "figure", "--model", "P", "--n", "2000", "--m", "300",
            "--grid-steps", "7", "--window", "255/256:1", "--out", str(out),
        )
        assert code == 2
        # the README command: its decimals are correctly rounded, so the CSV
        # does not depend on how the enclosures are computed
        assert sha256(out) == README_P_FIGURE_DIGEST
        assert sha256(tmp_path / "big.csv.pair.json") == README_P_PAIR_DIGEST
        sidecar = json.loads((tmp_path / "big.csv.pair.json").read_text())
        pair = sidecar["decreasing_pair"]
        assert pair["method"] == "certified-interval"
        assert (pair["x1"], pair["x2"]) == ("32735/32768", "1023/1024")
        # disjoint enclosures: the lower bound at x1 beats the upper at x2
        assert F(pair["value1_enclosure"][0]) > F(pair["value2_enclosure"][1])

    def test_uncertified_decimal_is_an_error(self):
        bits_seen = []

        def straddling(x, bits):
            # 0.1449 and 0.1451 round apart at 2 digits, at every precision
            bits_seen.append(bits)
            return Interval(F(1449, 10000), F(1451, 10000), bits)

        with pytest.raises(LoopCurrentsError):
            _interval_decimal(straddling, F(1, 2), 2)
        assert bits_seen == [128, 256, 512, 1024, 2048, 4096]

    def test_certified_decimal_is_returned(self):
        def certified(x, bits):
            return Interval(F(1451, 10000), F(1452, 10000), bits)

        value, _ = _interval_decimal(certified, F(1, 2), 2)
        assert value == "0.15"

    @pytest.mark.parametrize(
        "x, expected",
        [
            (F(1, 128), "4.720828367073453849137036503378959454522E-1265"),
            (F(1, 2), "2.409919865102884117740750034712508936431E-181"),
        ],
    )
    def test_tiny_values_keep_their_digits(self, x, expected):
        # far below 1 (x^600 = 2^-4200 at x = 1/128) the enclosures keep
        # their significant bits, so 40 digits are fixed on the first rung
        def enclosure(x, bits):
            return theta.single_current_conn_interval(2000, 300, x, bits)

        value, iv = _interval_decimal(enclosure, x, 40)
        assert value == expected
        assert iv.bits == 256

    def test_odd_m_rejected(self, tmp_path):
        code = run(
            "figure", "--model", "l", "--n", "2", "--m", "3",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_manifest_digests_outputs(self, tmp_path):
        out = tmp_path / "fig.csv"
        run(
            "figure", "--model", "l", "--n", "8", "--m", "2",
            "--grid-steps", "4", "--out", str(out),
        )
        manifest = json.loads((tmp_path / "fig.csv.manifest.json").read_text())
        assert manifest["command"] == "figure"
        assert manifest["outputs"][str(out)] == sha256(out)
        assert manifest["parameters"]["n"] == 8


FIGURE_L = ("figure", "--model", "l", "--n", "18", "--m", "2")
SAMPLE_THETA = ("sample", "--family", "theta", "--segments", "1,1,1", "--x", "1/2")
# --graph files that are not graphs: invalid JSON, no edge list, an edge of
# three vertices, a vertex count, endpoints and a mark that are not JSON
# integers, a negative vertex count, and edge lengths (the format has none)
MALFORMED_GRAPHS = {
    "invalid.json": "{not json",
    "no_edges.json": '{"vertices": 3}',
    "triple.json": '{"vertices": 3, "edges": [[0, 1, 2]]}',
    "float_vertices.json": '{"vertices": 2.9, "edges": [[0, 1.9]]}',
    "bool_endpoints.json": '{"vertices": 2, "edges": [[true, false]]}',
    "float_mark.json": '{"vertices": 3, "edges": [[0, 1], [1, 2]], "marks": {"a": 0.5, "b": 2}}',
    "negative_vertices.json": '{"vertices": -3, "edges": []}',
    "lengths.json": '{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [2, 3]}',
}


@pytest.mark.parametrize(
    "argv",
    [
        (*FIGURE_L, "--grid-steps", "0"),
        (*FIGURE_L, "--window", "1:0"),
        (*FIGURE_L, "--window", "1/2:1", "--grid-steps", "-1"),
        (*FIGURE_L, "--window", "1/2"),
        ("table", "--grid-steps", "0"),
        ("verify", "--x", "abc"),
        ("verify", "--x", "1/0"),
        # exponent notation is refused before a power of ten is built
        ("verify", "--x", "1e-9999999999"),
        (*SAMPLE_THETA[:5], "--x", "1e-9999999999", "--model", "loop"),
        (*SAMPLE_THETA[:5], "--t", "1e-9999999999", "--model", "loop"),
        (*FIGURE_L, "--window", "1e-9999999999:1"),
        *(
            (*command, "--graph", name)
            for name in ("missing.json", *MALFORMED_GRAPHS)
            for command in (("verify",), ("sample", "--model", "loop", "--x", "1/2"))
        ),
        (*FIGURE_L, "--precision-digits", "0"),
        (*FIGURE_L, "--precision-digits", "-5"),
        (*SAMPLE_THETA, "--model", "loop", "--seed", "-1"),
        (*SAMPLE_THETA, "--model", "loop_mcmc", "--thin", "0"),
        (*SAMPLE_THETA, "--model", "loop", "--samples", "-3"),
        (*SAMPLE_THETA, "--model", "loop_mcmc", "--burn-in", "-2"),
        # the two suites that check fixed instances read neither flag
        *(
            ("verify", "--theorem", suite, *flag)
            for suite in cli.FIXED_SUITES
            for flag in (("--graph", "k4.json"), ("--x", "1/2"))
        ),
        *(
            (*SAMPLE_THETA[:4], segments, *SAMPLE_THETA[5:], "--model", "loop")
            for segments in ("a,2", "2,,3")
        ),
        # the counter family's inner paths carry midpoint marks
        *((*FIGURE_L[:2], model, *FIGURE_L[3:], "--m", "3") for model in ("l", "P", "l2")),
        # one step of the window 255/256:1 lands on 1, which the grids leave out
        (*FIGURE_L, "--window", "255/256:1", "--grid-steps", "0"),
        # the chain refuses an x outside [0, 1) as the exact models do
        *(
            ("sample", "--model", "loop_mcmc", "--family", "theta", "--segments", "2,3,2", x)
            for x in ("--x=3/2", "--x=-1/2")
        ),
    ],
)
def test_malformed_numbers_are_typed_errors(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED_GRAPHS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "k4.json").write_text(graph_to_json(complete_graph(4)))
    assert run(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--family", "counter", "--n", "2", "--m", "3", "--model", "loop", "--x", "1/2"),
        ("figure", "--model", "l", "--n", "2", "--m", "3"),
    ],
)
def test_every_command_gives_the_counter_rule(argv, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: m=3 must be even to place midpoint marks\n"


@pytest.mark.parametrize(
    "argv",
    [
        (*FIGURE_L, "--grid-steps", "2"),
        ("table",),
        ("verify", "--theorem", "appendix-tables"),
        (*SAMPLE_THETA, "--model", "loop", "--samples", "3"),
    ],
)
def test_an_unwritable_out_is_one_error_line(argv, tmp_path, capsys, monkeypatch):
    # the table's scans are not what this checks: an empty report stands in
    report = {"consistent_with_expected": True}
    monkeypatch.setattr(cli, "build_overview", lambda grid_resolution: report)
    assert run(*argv, "--out", str(tmp_path / "missing" / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        (*FIGURE_L, "--grid-steps", "40"),
        (*FIGURE_L, "--window", "1/2:1", "--grid-steps", "40"),
        ("table", "--grid-steps", "30"),
        # a size too long to print in decimal is named by its bit length
        (*FIGURE_L, "--grid-steps", "20000"),
    ],
)
def test_grids_above_the_cap_are_refused_before_they_are_built(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid points needs size") and err.endswith("above the cap 65536\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "model, n, extra, refusal, cap",
    [
        ("l", "2", ("--precision-digits", "1000000000"), "--precision-digits", cli.PRECISION_DIGITS_CAP),
        ("P", "2", ("--precision-digits", "100000000"), "--precision-digits", cli.PRECISION_DIGITS_CAP),
        # the first grid point, x = 1/4: 4^2000004 is bounded by 3 * 2000004 bits
        ("l", "1000000", (), "loop-model weight bits", measures.LOOP_WEIGHT_BITS_CAP),
    ],
)
def test_figures_above_the_caps_are_one_error_line(
    model, n, extra, refusal, cap, tmp_path, capsys, monkeypatch
):
    # uncapped, each was still running after 30 s; no grid point gets a row
    rows = []
    monkeypatch.setattr(cli, "decimal_string", lambda *args: rows.append(args))
    started = time.perf_counter()
    argv = ("figure", "--model", model, "--n", n, "--m", "2", "--grid-steps", "2", *extra)
    assert run(*argv, "--out", str(tmp_path / "out")) == 1
    assert time.perf_counter() - started < 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refusal} needs size ") and err.endswith(f", above the cap {cap}\n")
    assert err.count("\n") == 1 and rows == []


@pytest.mark.parametrize(
    "model, extra, refusal, size",
    [
        ("double_current", ("--samples", str(10**9)), "sample draws", 10**9),
        # (burn-in 100 + 10 samples * 10^12 sweeps) * 2 basis cycles
        ("loop_mcmc", ("--samples", "10", "--thin", str(10**12)), "chain proposals", 2 * 10**13 + 200),
        ("loop_mcmc", ("--samples", str(10**9)), "chain proposals", 2 * 10**9 + 200),
    ],
)
def test_samples_above_the_cap_are_one_error_line(model, extra, refusal, size, tmp_path, capsys):
    # uncapped, these build a billion masks or run the chain for hours
    out = tmp_path / "out"
    started = time.perf_counter()
    argv = ("sample", "--model", model, "--family", "theta", "--segments", "2,3,2", "--x", "1/2")
    assert run(*argv, *extra, "--out", str(out)) == 1
    assert time.perf_counter() - started < 5
    err = capsys.readouterr().err
    assert err == f"error: {refusal} needs size {size}, above the cap {sampler.SAMPLE_WORK_CAP}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "refuse",
    [
        lambda tmp_path: dyadic_grid(10**8),
        lambda tmp_path: cli.cmd_figure(
            cli.build_parser().parse_args(
                [*FIGURE_L, "--window", "1/2:1", "--grid-steps", str(10**8), "--out", str(tmp_path / "out")]
            )
        ),
    ],
    ids=["dyadic_grid", "figure_window"],
)
def test_an_absurd_resolution_is_refused_by_its_exponent(refuse, tmp_path):
    # 2^(10^8) alone takes 12.5 MB: the exponent meets the cap before any shift
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=r"^grid points needs size above 2\^99999999,"):
            refuse(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv, named",
    [
        ((*FIGURE_L[:2], "X", *FIGURE_L[3:]), "--model"),
        # the domination scans run on the table's one grid
        (("table", "--grid-steps", "6", "--mon-grid-steps", "3"), "--mon-grid-steps"),
    ],
)
def test_rejected_arguments_fail_without_the_counterexample_code(argv, named, tmp_path, capsys):
    # 2 means a certified counterexample; argparse's own exit code would say so
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    assert run(flag) == 0
    assert capsys.readouterr().out


class TestVerify:
    def test_default_report_is_pinned(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run("verify", "--out", str(out)) == 0
        assert sha256(out) == VERIFY_DIGEST

    def test_graph_above_the_lattice_cap_is_refused_first(self, tmp_path, monkeypatch, capsys):
        # a 20-edge path: one lattice pass would cost 20 * 2^20 > 2^24
        path = tmp_path / "path20.json"
        path.write_text(graph_to_json(Graph(21, tuple((i, i + 1) for i in range(20)))))

        def refuse(*args):
            raise AssertionError("built a law past the cap")

        monkeypatch.setattr(cli, "point_laws", refuse)
        assert run("verify", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err == "error: verify graph lattice needs size 20971520, above the cap 16777216\n"

    def test_single_theorem_at_one_x(self, capsys):
        assert run("verify", "--theorem", "newcoupling", "--x", "1/2") == 0
        assert "verify newcoupling: PASS" in capsys.readouterr().out

    def test_appendix_tables(self):
        assert run("verify", "--theorem", "appendix-tables") == 0

    def test_extra_graph_joins_battery(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        path.write_text(graph_to_json(complete_graph(4)))
        assert run(
            "verify", "--theorem", "lis-equivalence", "--x", "1/3", "--graph", str(path)
        ) == 0

    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(
            "verify", "--theorem", "edge-identities", "--x", "1/2", "--out", str(out)
        ) == 0
        report = json.loads(out.read_text())
        assert report["edge-identities"]["pass"] is True

    def test_graph_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "k4.json"
        path.write_text(graph_to_json(complete_graph(4)))
        read = []
        real_read_graph = cli.read_graph

        def counting_read_graph(name):
            read.append(name)
            return real_read_graph(name)

        monkeypatch.setattr(cli, "read_graph", counting_read_graph)
        assert run("verify", "--graph", str(path), "--x", "1/2") == 0
        assert read == [str(path)]
        # the suites that skip the user's graph and x say so
        assert capsys.readouterr().err == (
            "verify: sumthm, appendix-tables read neither --graph nor --x\n"
        )


BATTERY = verification_battery()
# the battery suites' arguments at one x: the battery and the x list
ONE_X = (BATTERY, [F(1, 2)])


BATTERY_SUITES = [name for name in cli.VERIFY_SUITES if name not in cli.FIXED_SUITES]


def suite(name, battery, xs) -> list[str]:
    """The failure lines of one battery suite, run alone."""
    return cli.verify_battery([name], battery, xs)[name]


def cyclic_edge_lines(fmt: str) -> list[str]:
    """``fmt`` for every (battery graph, edge on a cycle of that graph) at x = 1/2,
    in the suites' order: the edges whose loop-model marginal lies in (0, 1)."""
    return [
        fmt.format(name=name, e=e)
        for name, g in BATTERY
        for e in range(g.edge_count)
        if cyclic_edges(g, g.full_mask) >> e & 1
    ]


def record_calls(monkeypatch, *names) -> dict[str, list]:
    """Wrap each ``cli.<name>`` so that its calls are logged as (args,
    result), one list per name."""
    calls = {name: [] for name in names}

    def logging(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, logging(name, getattr(cli, name)))
    return calls


def at_one_minus_x(model):
    """``point_laws`` with the row ``model`` read at 1 - x and the others at x."""

    def laws(g, x):
        return lambda name: point_laws(g, 1 - x if name == model else x)(name)

    return laws


def counting_rows(monkeypatch) -> Counter:
    """Count, per (graph, x, row), the rows that ``cli.point_laws`` builds."""
    rows = Counter()
    real = cli.point_laws

    def counting_point_laws(g, x):
        law = real(g, x)
        return lambda name: rows.update([(g, x, name)]) or law(name)

    monkeypatch.setattr(cli, "point_laws", counting_point_laws)
    return rows


class TestBatchedSuites:
    """The per-edge mass vectors still catch a wrong law, in the suites'
    exact failure formats, and read each configuration's bridges once."""

    def test_cor1_catches_a_wrong_double_current(self, monkeypatch):
        assert suite("cor1", *ONE_X) == []
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("cor1", *ONE_X) == cyclic_edge_lines("cor1: {name} x=1/2 edge={e}")

    def test_cor1_catches_a_wrong_random_cluster(self, monkeypatch):
        monkeypatch.setitem(MODELS, "random_cluster", MODELS["loop"])
        assert suite("cor1", *ONE_X) == cyclic_edge_lines("cor1: {name} x=1/2 edge={e}")

    def test_edge_identities_catch_a_wrong_double_loop(self, monkeypatch):
        assert suite("edge-identities", *ONE_X) == []
        monkeypatch.setitem(MODELS, "double_loop", MODELS["loop"])
        assert suite("edge-identities", *ONE_X) == cyclic_edge_lines(
            "edge-identities double: {name} x=1/2 e={e}"
        )

    def test_edge_identities_catch_a_wrong_bernoulli_union(self, monkeypatch):
        # p = 1/3 is a union the suite makes; p = x is the shared random cluster
        monkeypatch.setattr(cli, "union_bernoulli", lambda d, p: union_bernoulli(d, p / 2))
        monkeypatch.setitem(MODELS, "random_cluster", (1, lambda x: x / 2))
        # p = 1/3, then p = x = 1/2, for every edge
        assert suite("edge-identities", *ONE_X) == [
            f"edge-identities: {name} x=1/2 e={e} p={p}"
            for name, g in BATTERY
            for e in range(g.edge_count)
            for p in ("1/3", "1/2")
        ]

    def test_newcoupling_catches_a_wrong_double_current(self, monkeypatch):
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("newcoupling", BATTERY, cli.DEFAULT_VERIFY_XS) == [
            f"newcoupling: {name} x={x}" for name, _ in BATTERY for x in ("1/4", "1/2", "3/4")
        ]

    def test_lis_equivalence_catches_a_wrong_double_current(self, monkeypatch):
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("lis-equivalence", BATTERY, cli.DEFAULT_VERIFY_XS) == [
            f"lis-equivalence: {name} x={x}" for name, _ in BATTERY for x in ("1/4", "1/2", "3/4")
        ]

    def test_sumthm_catches_a_non_monotone_union(self, monkeypatch):
        assert cli.verify_sumthm() == []
        monkeypatch.setattr(cli, "point_laws", at_one_minus_x("double_cluster"))
        assert cli.verify_sumthm() == [
            f"sumthm random-cluster: {name}: violated" for name, _ in scan_battery()
        ]

    def test_sumthm_is_inconclusive_on_a_non_monotone_input(self, monkeypatch):
        monkeypatch.setattr(cli, "point_laws", at_one_minus_x("random_cluster"))
        assert cli.verify_sumthm() == [
            f"sumthm random-cluster: {name}: inconclusive" for name, _ in scan_battery()
        ]

    def test_sumthm_builds_each_law_once(self, monkeypatch):
        built = counting_rows(monkeypatch)
        calls = record_calls(monkeypatch, "bernoulli", "point_laws", "union_bernoulli")
        assert cli.verify_sumthm() == []
        # one law per grid point and battery graph, the random cluster and
        # its double from one point_laws, and the Bernoulli union reads the
        # scan's own laws at their own x
        points = len(dyadic_grid(4)) * len(scan_battery())
        assert len(calls["point_laws"]) == points
        rows = Counter(row for (_, _, row) in built.elements())
        assert rows == dict.fromkeys(("random_cluster", "double_cluster"), points)
        assert len(calls["bernoulli"]) == len(calls["union_bernoulli"]) == points
        for ((d, p), _), ((_, x), law) in zip(calls["union_bernoulli"], calls["bernoulli"]):
            assert d is law and p == x

    def test_cor1_builds_one_even_lattice_per_battery_graph(self):
        even_lattice.cache_clear()
        # the lattice of each graph serves all of its x values, and the
        # laws of the other battery suites read it too
        found = cli.verify_battery(BATTERY_SUITES, BATTERY, cli.DEFAULT_VERIFY_XS)
        assert found == dict.fromkeys(BATTERY_SUITES, [])
        info = even_lattice.cache_info()
        assert info.misses == len(BATTERY) and info.hits > 0

    def test_cor1_runs_no_per_configuration_bridge_search(self, monkeypatch):
        # a cycle basis of one configuration is the per-mask bridge search;
        # the lattice and the loop law span bases of the whole graph
        masks = []
        basis = graphs.cycle_space_basis

        def counting_basis(g, mask=None):
            masks.append(mask)
            return basis(g, mask)

        monkeypatch.setattr(graphs, "cycle_space_basis", counting_basis)
        even_lattice.cache_clear()
        assert suite("cor1", *ONE_X) == []
        assert masks and [mask for mask in masks if mask is not None] == []

    def test_one_verify_builds_each_law_once(self, monkeypatch):
        rows = counting_rows(monkeypatch)
        calls = record_calls(monkeypatch, "point_laws", "double_current_lis", "bernoulli")
        assert run("verify") == 0
        built = Counter((name, *args) for name, log in calls.items() for args, _ in log)
        built.update(("row", *key) for key in rows.elements())
        expected = Counter()
        # the battery suites read their rows from one cached point_laws per
        # (graph, x), so each row they read is built once
        for _, g in BATTERY:
            for x in cli.DEFAULT_VERIFY_XS:
                expected["point_laws", g, x] += 1
                expected["double_current_lis", g, x] += 1
                for row in ("double_current", "loop", "random_cluster", "double_loop"):
                    expected["row", g, x, row] += 1
        # sumthm scans its own grid, so it builds its random-cluster laws
        # again where that grid meets the battery's x values
        for _, g in scan_battery():
            for x in dyadic_grid(4):
                expected["point_laws", g, x] += 1
                expected["bernoulli", g, x] += 1
                for row in ("random_cluster", "double_cluster"):
                    expected["row", g, x, row] += 1
        assert built == expected

    def test_battery_builds_one_loop_law_and_one_double_per_point(self, monkeypatch):
        battery = [("theta[1,2,2]", graphs.generalized_theta([1, 2, 2])), ("K4", complete_graph(4))]
        xs = cli.DEFAULT_VERIFY_XS
        loops, doubles = Counter(), Counter()
        real_loop_o1, real_union = measures.loop_o1, measures.union

        def loop_o1(g, x):
            loops[g, x] += 1
            return real_loop_o1(g, x)

        def union(d1, d2):
            doubles[d1.graph] += 1
            return real_union(d1, d2)

        monkeypatch.setattr(measures, "loop_o1", loop_o1)
        monkeypatch.setattr(measures, "union", union)
        assert cli.verify_battery(BATTERY_SUITES, battery, xs) == dict.fromkeys(BATTERY_SUITES, [])
        assert loops == {(g, x): 1 for _, g in battery for x in xs}
        assert doubles == {g: len(xs) for _, g in battery}

    def test_failing_run_prints_suites_and_lines_in_order(self, monkeypatch, capsys):
        # a wrong pushforward fails newcoupling and a wrong counting formula
        # fails lis-equivalence; the suites between them pass
        monkeypatch.setattr(cli, "push_uniform_even", lambda d: d)
        monkeypatch.setattr(cli, "double_current_lis", lambda g, x: build("double_cluster", g, x))
        assert run("verify") == 1
        lines = [f"{name} x={x}" for name, _ in BATTERY for x in ("1/4", "1/2", "3/4")]
        assert capsys.readouterr().out == "\n".join(
            [
                "verify newcoupling: FAIL",
                *(f"  newcoupling: {line}" for line in lines),
                "verify cor1: PASS",
                "verify edge-identities: PASS",
                "verify sumthm: PASS",
                "verify lis-equivalence: FAIL",
                *(f"  lis-equivalence: {line}" for line in lines),
                "verify appendix-tables: PASS",
                "",
            ]
        )


class TestSample:
    @pytest.mark.parametrize("model, flag, value", sorted(SAMPLE_DIGESTS))
    def test_coupled_dumps_are_pinned(self, tmp_path, model, flag, value):
        out = tmp_path / "dump.txt"
        code = run(
            "sample", "--model", model, "--family", "theta", "--segments", "2,3,2",
            flag, value, "--samples", "1000", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert sha256(out) == SAMPLE_DIGESTS[model, flag, value]

    def test_dump_and_manifest(self, tmp_path):
        out = tmp_path / "samples.txt"
        code = run(
            "sample", "--model", "random_cluster", "--family", "theta",
            "--segments", "1,1,1", "--x", "1/2", "--samples", "30",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# model=random_cluster")
        assert len(lines) == 2 + 30
        assert all(int(s, 16) < 8 for s in lines[2:])
        assert (tmp_path / "samples.txt.manifest.json").exists()

    def test_mcmc_model(self, tmp_path):
        out = tmp_path / "chain.txt"
        code = run(
            "sample", "--model", "loop_mcmc", "--family", "counter",
            "--n", "2", "--m", "2", "--x", "1/2", "--samples", "20",
            "--burn-in", "5", "--out", str(out),
        )
        assert code == 0

    def test_sweeps_flag_is_rejected(self, tmp_path, capsys):
        # no sampling route reads a sweep count, so the parser offers none
        code = run(
            "sample", "--model", "loop_mcmc", "--family", "theta", "--segments", "1,1,1",
            "--x", "1/2", "--sweeps", "5", "--out", str(tmp_path / "chain.txt"),
        )
        assert code == 1
        assert "--sweeps" in capsys.readouterr().err
        assert not (tmp_path / "chain.txt").exists()

    def test_records_only_settings_the_sampler_reads(self, tmp_path):
        settings = ("sweeps", "burn_in", "thin")
        for model, read in (("double_current", ()), ("loop_mcmc", ("burn_in", "thin"))):
            out = tmp_path / f"{model}.txt"
            code = run(
                "sample", "--model", model, "--family", "theta", "--segments", "1,1,1",
                "--x", "1/2", "--samples", "5", "--burn-in", "3", "--out", str(out),
            )
            assert code == 0
            header = out.read_text().splitlines()[1]
            manifest = json.loads((tmp_path / f"{model}.txt.manifest.json").read_text())
            for key in settings:
                assert (f"{key}=" in header) == (key in read), (model, key)
                assert (key in manifest["parameters"]) == (key in read), (model, key)

    def test_pythagorean_flag(self, tmp_path):
        out = tmp_path / "sc.txt"
        code = run(
            "sample", "--model", "single_current", "--family", "theta",
            "--segments", "2,2,2", "--t", "1/2", "--samples", "10",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "x=4/5" in out.read_text().splitlines()[1]

    def test_single_current_at_an_exact_x(self, tmp_path):
        # x = 4/5 has sqrt(1 - x^2) = 3/5, so no t is needed; the draws are
        # the ones --t 1/2 gives
        dumps = []
        for flag, value in (("--x", "4/5"), ("--t", "1/2")):
            out = tmp_path / f"sc{len(dumps)}.txt"
            code = run(
                "sample", "--model", "single_current", "--family", "theta",
                "--segments", "2,3,2", flag, value, "--samples", "50",
                "--seed", "3", "--out", str(out),
            )
            assert code == 0
            dumps.append(out.read_text())
        assert dumps[0] == dumps[1]

    def test_missing_graph_is_an_error(self, tmp_path):
        code = run(
            "sample", "--model", "loop", "--x", "1/2",
            "--samples", "5", "--out", str(tmp_path / "no.txt"),
        )
        assert code == 1
