import csv
import hashlib
import json
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from loopcurrents import cli, graphs, measures, overview, sampler, theta
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
from loopcurrents.measures import MODELS, bit_masses, build, push_uniform_even
from loopcurrents.rationals import dyadic_grid

from oracles import cyclic_edges, double_current_lis, probabilities

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
    monkeypatch.setattr(overview, "build_overview", lambda grid_resolution: report)
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
    "graph_args, size",
    [
        # theta[2,3,2]: 7 edges, 2 hubs and 4 inner vertices
        (("--family", "theta", "--segments", "2,3,2"), 13),
        # counter(2, 2): 8 edges, 2 hubs and 4 inner vertices
        (("--family", "counter", "--n", "2", "--m", "2"), 14),
        (("--graph", "k4.json"), 10),
    ],
)
def test_a_graph_above_the_size_cap_is_refused_before_it_is_built(
    graph_args, size, tmp_path, capsys, monkeypatch
):
    # uncapped, --segments 320000,1,1 took 11 s and a file of 10^7 vertices 2.5 s
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4.json").write_text(graph_to_json(complete_graph(4)))
    argv = ("sample", "--model", "loop_mcmc", *graph_args, "--x", "1/2", "--samples", "3")
    monkeypatch.setattr(cli, "GRAPH_SIZE_CAP", size)
    assert run(*argv, "--out", "at_cap.txt") == 0

    def refuse(*args):
        raise AssertionError("a graph was built past the cap")

    for builder in ("generalized_theta", "counter_family", "graph_from_json"):
        monkeypatch.setattr(cli, builder, refuse)
    monkeypatch.setattr(cli, "GRAPH_SIZE_CAP", size - 1)
    assert run(*argv, "--out", "above.txt") == 1
    err = capsys.readouterr().err
    assert err == f"error: graph vertices plus edges needs size {size}, above the cap {size - 1}\n"
    assert not (tmp_path / "above.txt").exists()


def test_huge_graph_inputs_are_refused_at_once(tmp_path, capsys):
    # uncapped, verify took 2.5 s and 174 MB on a file of 10^7 vertices, and
    # a segment of 10^12 edges would be built edge by edge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 10**7, "edges": [[0, 1], [1, 2], [0, 2]]}))
    sample = ("sample", "--model", "loop_mcmc", "--x", "1/2", "--out", str(tmp_path / "out"))
    started = time.perf_counter()
    for argv in (
        ("verify", "--theorem", "cor1", "--graph", str(path)),
        (*sample, "--graph", str(path)),
        (*sample, "--family", "theta", "--segments", f"{10**12},1,1"),
    ):
        assert run(*argv) == 1
        assert capsys.readouterr().err.startswith("error: graph vertices plus edges needs size")
    assert time.perf_counter() - started < 5


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


SAMPLE_MODELS = ("loop_mcmc", *sampler.COUPLED_MODELS)


def test_an_unknown_sample_model_lists_the_models(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*SAMPLE_THETA, "--model", "loop_o1", "--out", str(out)) == 1
    choices = ", ".join(map(repr, SAMPLE_MODELS))
    assert capsys.readouterr().err.endswith(
        f"error: argument --model: invalid choice: 'loop_o1' (choose from {choices})\n"
    )
    assert not out.exists()


def test_sample_help_lists_the_models(capsys):
    assert run("sample", "--help") == 0
    # argparse wraps the help text at spaces, after a comma
    assert " ".join(capsys.readouterr().out.split()).count(", ".join(SAMPLE_MODELS)) == 1


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

        monkeypatch.setattr(measures, "polynomial_laws", refuse)
        assert run("verify", "--graph", str(path)) == 1
        err = capsys.readouterr().err
        assert err == "error: verify graph lattice needs size 20971520, above the cap 16777216\n"

    def test_the_packed_cap_refuses_before_any_pass(self, monkeypatch, capsys):
        def no_pass(*args):
            raise AssertionError("a pass ran before the cap was checked")

        for name in ("_union_nums", "_open_edges"):
            monkeypatch.setattr(measures, name, no_pass)
        # the battery's largest packed lattice: 2^|E| S (4|E| + 1) bits
        bits = {
            name: (1 << g.edge_count) * proof_digits(name, g) * (4 * g.edge_count + 1)
            for name, g in BATTERY
        }
        largest = max(bits, key=bits.get)
        monkeypatch.setattr(cli, "PACKED_PROOF_BITS_CAP", bits[largest] - 1)
        assert run("verify") == 1
        assert capsys.readouterr().err == (
            f"error: proving the identities on {largest} for every x (verify --x checks one "
            f"point) needs size {bits[largest]}, above the cap {bits[largest] - 1}\n"
        )

    def test_the_one_point_check_reads_its_own_cap(self, monkeypatch, capsys):
        # the packed cap is the default run's; at one x, 2^|E| (S + D w) bits
        # times w in 30-bit digits, w = 3 for 3/7
        monkeypatch.setattr(cli, "PACKED_PROOF_BITS_CAP", 0)
        work = {name: point_work(g, F(3, 7)) for name, g in BATTERY}
        largest = max(work, key=work.get)
        monkeypatch.setattr(cli, "POINT_CHECK_WORK_CAP", work[largest])
        assert run("verify", "--x", "3/7") == 0
        monkeypatch.setattr(cli, "POINT_CHECK_WORK_CAP", work[largest] - 1)
        assert run("verify", "--x", "3/7") == 1
        assert capsys.readouterr().err.endswith(
            f"error: checking the identities on {largest} at an x of 3 bits needs size "
            f"{work[largest]}, above the cap {work[largest] - 1}\n"
        )

    def test_a_wide_x_is_refused_before_any_pass(self, monkeypatch, capsys):
        # x = 1/10^1000 took 15 s on the battery; its second graph is refused
        def no_pass(*args):
            raise AssertionError("a pass ran before the cap was checked")

        for name in ("_union_nums", "_open_edges"):
            monkeypatch.setattr(measures, name, no_pass)
        assert run("verify", "--theorem", "lis-equivalence", "--x", f"1/{10**1000}") == 1
        assert capsys.readouterr().err.startswith(
            "error: checking the identities on theta[2,3,2] at an x of 3322 bits needs size"
        )

    @pytest.mark.parametrize("dim", [0, 12, 19])
    def test_the_point_cap_admits_every_lattice_graph_at_one_half(self, dim):
        # the lattice pass cap admits 19 edges; at x = 1/2 any dimension fits
        vertices = 20 - dim
        edges = tuple((i, i + 1) for i in range(vertices - 1))
        g = Graph(vertices, edges + ((0, 1) if vertices > 1 else (0, 0),) * dim)
        assert g.edge_count == 19
        assert point_work(g, F(1, 2)) <= cli.POINT_CHECK_WORK_CAP

    @pytest.mark.parametrize(
        "edges, dim, admitted", [(12, 11, True), (13, 8, True), (13, 9, False), (14, 0, False)]
    )
    def test_the_packed_cap_admits_the_graphs_the_readme_names(self, edges, dim, admitted):
        # every graph of at most 12 edges, and 13-edge graphs of cycle
        # dimension at most 8: S grows with |E| and the dimension alone
        vertices = edges - dim + 1
        g = Graph(vertices, tuple((i, i + 1) for i in range(vertices - 1)) + ((0, 1),) * dim)
        if admitted:
            proof_digits("g", g)
        else:
            with pytest.raises(CapExceededError, match="verify --x checks one point"):
                proof_digits("g", g)

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
# The x values at which the battery suites checked their identities before
# they proved them for every x: the points of the point checks.
DEFAULT_VERIFY_XS = (F(1, 4), F(1, 2), F(3, 4))
# the battery suites' arguments at one x, and for every x
ONE_X = (BATTERY, F(1, 2))
EVERY_X = (BATTERY, None)


BATTERY_SUITES = [name for name in cli.VERIFY_SUITES if name not in cli.FIXED_SUITES]


def suite(name, battery, x) -> list[str]:
    """The failure lines of one battery suite, run alone at x, or for every
    x when x is None."""
    return cli.verify_battery([name], battery, x)[name]


def proof_digits(name, g, theorems=BATTERY_SUITES) -> int:
    """The digit width S of the default run on g."""
    shapes, _ = measures.polynomial_laws(g, cli.BATTERY_ROWS, ())
    a, _ = cli._evaluation_point(theorems, name, g, shapes, None)
    return a.bit_length() - 1


def point_work(g, x, theorems=BATTERY_SUITES) -> int:
    """The work the cap of a --x run counts on g, read off its refusal."""
    shapes, _ = measures.polynomial_laws(g, cli.BATTERY_ROWS, (x,))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "POINT_CHECK_WORK_CAP", -1)
        with pytest.raises(CapExceededError) as refused:
            cli._evaluation_point(theorems, "g", g, shapes, x)
    return refused.value.size


def cyclic_edge_lines(fmt: str) -> list[str]:
    """``fmt`` for every (battery graph, edge on a cycle of that graph), in
    the suites' order: the edges whose loop-model marginal lies in (0, 1)."""
    return [
        fmt.format(name=name, e=e)
        for name, g in BATTERY
        for e in range(g.edge_count)
        if cyclic_edges(g, g.full_mask) >> e & 1
    ]


def route_calls(monkeypatch, caller, name, replacement):
    """Send the calls that module ``caller`` makes to ``measures.<name>`` to
    ``replacement``; every other caller, the kernels' calls of one another
    included, keeps the real function."""
    real = getattr(measures, name)

    def route(*args):
        fn = replacement if sys._getframe(1).f_globals["__name__"] == caller.__name__ else real
        return fn(*args)

    monkeypatch.setattr(measures, name, route)


def record_calls(monkeypatch, *names) -> dict[str, list]:
    """Log the calls that ``cli`` makes to each ``measures.<name>`` as
    (args, result), one list per name."""
    calls = {name: [] for name in names}

    def logging(name, fn):
        def wrapper(*args):
            result = fn(*args)
            calls[name].append((args, result))
            return result

        return wrapper

    for name in names:
        route_calls(monkeypatch, cli, name, logging(name, getattr(measures, name)))
    return calls


def at_one_minus_x(model):
    """``build`` with the row ``model`` built at 1 - x and the others at x."""
    return lambda name, g, x: build(name, g, 1 - x if name == model else x)


def counting_rows(monkeypatch) -> Counter:
    """Count, per (graph, x, row), the rows that ``cli`` builds."""
    rows = Counter()
    real = measures.build

    def counting_build(name, g, x):
        rows.update([(g, x, name)])
        return real(name, g, x)

    route_calls(monkeypatch, cli, "build", counting_build)
    return rows


def counting_loop_laws(monkeypatch) -> Counter:
    """Count, per (graph, x), the loop laws that ``measures.loop_o1`` builds."""
    loops = Counter()
    real = measures.loop_o1

    def counting_loop_o1(g, x):
        loops.update([(g, x)])
        return real(g, x)

    monkeypatch.setattr(measures, "loop_o1", counting_loop_o1)
    return loops


class TestBatchedSuites:
    """The battery suites still catch a wrong law, at one x and for every x,
    in their exact failure formats, build each row once per graph and read
    each configuration's bridges once."""

    def test_cor1_catches_a_wrong_double_current(self, monkeypatch):
        assert suite("cor1", *ONE_X) == suite("cor1", *EVERY_X) == []
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("cor1", *ONE_X) == cyclic_edge_lines("cor1: {name} x=1/2 edge={e}")
        assert suite("cor1", *EVERY_X) == cyclic_edge_lines("cor1: {name} edge={e}")

    def test_cor1_catches_a_wrong_random_cluster(self, monkeypatch):
        monkeypatch.setitem(MODELS, "random_cluster", MODELS["loop"])
        assert suite("cor1", *ONE_X) == cyclic_edge_lines("cor1: {name} x=1/2 edge={e}")
        assert suite("cor1", *EVERY_X) == cyclic_edge_lines("cor1: {name} edge={e}")

    def test_edge_identities_catch_a_wrong_double_loop(self, monkeypatch):
        assert suite("edge-identities", *ONE_X) == suite("edge-identities", *EVERY_X) == []
        monkeypatch.setitem(MODELS, "double_loop", MODELS["loop"])
        assert suite("edge-identities", *ONE_X) == cyclic_edge_lines(
            "edge-identities double: {name} x=1/2 e={e}"
        )
        assert suite("edge-identities", *EVERY_X) == cyclic_edge_lines(
            "edge-identities double: {name} e={e}"
        )

    def test_edge_identities_catch_a_wrong_bernoulli_union(self, monkeypatch):
        # p = 1/3 is a union the suite makes, here at p/2; p = x is the
        # shared random cluster, here at p = x^2
        real = measures._open_edges

        def halved(table, opens):
            real(table, [(c, 2 * e) for c, e in opens])

        route_calls(monkeypatch, cli, "_open_edges", halved)
        monkeypatch.setitem(MODELS, "random_cluster", (1, lambda x: x * x))
        # p = 1/3, then p = x, for every edge
        for (battery, x), where, p in ((ONE_X, " x=1/2", "1/2"), (EVERY_X, "", "x")):
            assert suite("edge-identities", battery, x) == [
                f"edge-identities: {name}{where} e={e} p={q}"
                for name, g in BATTERY
                for e in range(g.edge_count)
                for q in ("1/3", p)
            ]

    def test_newcoupling_catches_a_wrong_double_current(self, monkeypatch):
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("newcoupling", *EVERY_X) == [f"newcoupling: {name}" for name, _ in BATTERY]
        for x in DEFAULT_VERIFY_XS:
            assert suite("newcoupling", BATTERY, x) == [
                f"newcoupling: {name} x={x}" for name, _ in BATTERY
            ]

    def test_lis_equivalence_catches_a_wrong_double_current(self, monkeypatch):
        monkeypatch.setitem(MODELS, "double_current", MODELS["double_cluster"])
        assert suite("lis-equivalence", *EVERY_X) == [
            f"lis-equivalence: {name}" for name, _ in BATTERY
        ]
        for x in DEFAULT_VERIFY_XS:
            assert suite("lis-equivalence", BATTERY, x) == [
                f"lis-equivalence: {name} x={x}" for name, _ in BATTERY
            ]

    def test_proofs_catch_a_double_current_at_a_cubic_p(self, monkeypatch):
        # p = x^2 + x^3 agrees with the double current's x^2 at no x in (0, 1)
        monkeypatch.setitem(MODELS, "double_current", (2, lambda x: x * x + x**3))
        found = cli.verify_battery(["cor1", "newcoupling"], *EVERY_X)
        assert found["cor1"] == cyclic_edge_lines("cor1: {name} edge={e}")
        assert len(found["cor1"]) == 161
        assert found["newcoupling"] == [f"newcoupling: {name}" for name, _ in BATTERY]

    def test_sumthm_catches_a_non_monotone_union(self, monkeypatch):
        assert cli.verify_sumthm() == []
        route_calls(monkeypatch, cli, "build", at_one_minus_x("double_cluster"))
        assert cli.verify_sumthm() == [
            f"sumthm random-cluster: {name}: violated" for name, _ in scan_battery()
        ]

    def test_sumthm_is_inconclusive_on_a_non_monotone_input(self, monkeypatch):
        route_calls(monkeypatch, cli, "build", at_one_minus_x("random_cluster"))
        assert cli.verify_sumthm() == [
            f"sumthm random-cluster: {name}: inconclusive" for name, _ in scan_battery()
        ]

    def test_sumthm_builds_no_flow_network(self, flow_networks):
        # every step of the sum theorem's families passes Holley's local
        # criterion, so a flow here means the family route declined a step
        assert cli.verify_sumthm() == []
        assert flow_networks == []

    def test_sumthm_builds_each_law_once(self, monkeypatch):
        built = counting_rows(monkeypatch)
        calls = record_calls(monkeypatch, "bernoulli", "union_bernoulli")
        loops = counting_loop_laws(monkeypatch)
        assert cli.verify_sumthm() == []
        # one law per grid point and battery graph: the random cluster and
        # its double each stand on a loop law of their own, and the
        # Bernoulli union reads the scan's own laws at their own x
        points = [(g, x) for _, g in scan_battery() for x in dyadic_grid(4)]
        rows = ("random_cluster", "double_cluster")
        assert built == Counter((g, x, row) for g, x in points for row in rows)
        assert loops == Counter(points * 2)
        assert len(calls["bernoulli"]) == len(calls["union_bernoulli"]) == len(points)
        for ((d, p), _), ((_, x), law) in zip(calls["union_bernoulli"], calls["bernoulli"]):
            assert d is law and p == x

    def test_cor1_builds_one_even_lattice_per_battery_graph(self):
        even_lattice.cache_clear()
        # the lattice of each graph serves cor1's cyclic edges, and the push
        # and the counting formula read it too
        found = cli.verify_battery(BATTERY_SUITES, *EVERY_X)
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
        calls = record_calls(monkeypatch, "polynomial_laws", "counting_weights", "bernoulli")
        assert run("verify") == 0
        built = Counter((name, *args) for name, log in calls.items() for args, _ in log)
        built.update(("row", *key) for key in rows.elements())
        expected = Counter()
        # the battery suites build no law: each graph's rows come from one
        # polynomial_laws, read at one packed point, where the counting
        # formula runs once
        for name, g in BATTERY:
            expected["polynomial_laws", g, cli.BATTERY_ROWS, ()] += 1
            expected["counting_weights", g, 1 << proof_digits(name, g), 1] += 1
        # sumthm scans its own grid
        for _, g in scan_battery():
            for x in dyadic_grid(4):
                expected["bernoulli", g, x] += 1
                for row in ("random_cluster", "double_cluster"):
                    expected["row", g, x, row] += 1
        assert built == expected

    def test_battery_builds_one_loop_law_and_one_double_per_point(self, monkeypatch):
        battery = [("theta[1,2,2]", graphs.generalized_theta([1, 2, 2])), ("K4", complete_graph(4))]
        unions, passes = [], []
        real_union, real_pass = measures._union_nums, measures._open_edges

        def union(nums1, nums2):
            unions.append(len(nums1))
            return real_union(nums1, nums2)

        def open_edges(table, opens):
            passes.append(len(table))
            return real_pass(table, opens)

        def refuse(*args):
            raise AssertionError("the battery suites built a point law")

        monkeypatch.setattr(measures, "_union_nums", union)
        # the kernels' passes; edge-identities' own Bernoulli(1/3) pass is not a row
        route_calls(monkeypatch, measures, "_open_edges", open_edges)
        for name in ("loop_o1", "union", "union_bernoulli"):
            monkeypatch.setattr(measures, name, refuse)
        for x in (*DEFAULT_VERIFY_XS, None):
            unions.clear()
            passes.clear()
            found = cli.verify_battery(BATTERY_SUITES, battery, x)
            assert found == dict.fromkeys(BATTERY_SUITES, [])
            # per graph, one union of two loop copies, which the double loop
            # and the double current share, and one Bernoulli pass for each
            # of the random cluster and the double current
            sizes = [1 << g.edge_count for _, g in battery]
            assert unions == [len(list(graphs.even_subgraphs(g))) for _, g in battery]
            assert passes == [size for size in sizes for _ in range(2)]

    def test_failing_run_prints_suites_and_lines_in_order(self, monkeypatch, capsys):
        # a wrong pushforward fails newcoupling and a wrong counting formula
        # fails lis-equivalence; the suites between them pass
        route_calls(monkeypatch, cli, "push_even", lambda g, nums: (nums, 0))

        def double_cluster(g, a, b):
            _, at = measures.polynomial_laws(g, ["double_cluster"], ())
            return at(a, b)("double_cluster")

        route_calls(monkeypatch, cli, "counting_weights", double_cluster)
        assert run("verify") == 1
        names = [name for name, _ in BATTERY]
        assert capsys.readouterr().out == "\n".join(
            [
                "verify newcoupling: FAIL",
                *(f"  newcoupling: {name}" for name in names),
                "verify cor1: PASS",
                "verify edge-identities: PASS",
                "verify sumthm: PASS",
                "verify lis-equivalence: FAIL",
                *(f"  lis-equivalence: {name}" for name in names),
                "verify appendix-tables: PASS",
                "",
            ]
        )


# Battery graphs for the decoded-polynomial oracles: a theta, the counter,
# K4, and a random multigraph of 10 edges and cycle dimension 5.
ORACLE_GRAPHS = [
    (name, g) for name, g in BATTERY if name in ("theta[2,3,2]", "counter(2,2)", "K4", "random-00")
]
# Non-dyadic points: no packed digit is a power of their denominators.
ORACLE_XS = (F(3, 7), F(5, 11))


def decoded(value: int, digits: int, degree: int) -> list[int]:
    """The coefficients of the packed polynomial ``value`` of the given
    degree, read as signed digits of width ``digits``."""
    return measures._signed_digits(value, digits, degree + 1)


def at_x(coeffs: list[int], x: Fraction) -> Fraction:
    return sum(c * x**j for j, c in enumerate(coeffs))


def law_of(weights: dict[int, Fraction]) -> dict[int, Fraction]:
    """The probabilities of the nonzero ``weights``."""
    total = sum(weights.values())
    return {m: w / total for m, w in weights.items() if w}


def cyclic_law(table: list[int], cyclic) -> list[int]:
    """cor1's table of the set of open cyclic edges: entry s sums the
    entries at the masks whose cyclic edges are s."""
    law = [0] * len(table)
    for w, edges in zip(table, cyclic):
        law[edges] += w
    return law


def comparison_sides(name: str, g: Graph, digits: int) -> list[tuple[int, int]]:
    """Both sides of every comparison the four battery suites make on g,
    packed at x = 2^digits, as they compute them: pairs (left, right)."""
    _, at = measures.polynomial_laws(g, cli.BATTERY_ROWS, ())
    rows = at(1 << digits, 1)
    x = 1 << digits
    sides = []
    current, loop = rows("double_current"), rows("loop")
    pushed, _ = measures.push_even(g, {w: v for w, v in enumerate(current) if v})
    pt, lt, ct = sum(pushed.values()), sum(loop), sum(current)
    sides += [(v * lt, loop[h] * pt) for h, v in pushed.items()]
    counting = measures.counting_weights(g, x, 1)
    wt = sum(counting)
    sides += [(u * ct, v * wt) for u, v in zip(counting, current)]
    mid, mt = measures.edge_masses(loop)
    _, cyclic = even_lattice(g)
    for row in ("double_current", "random_cluster"):
        left, total = measures.edge_masses(cyclic_law(rows(row), cyclic))
        sides += [(u * mt, 2 * m * total) for u, m in zip(left, mid)]
    third = list(loop)
    measures._open_edges(third, [(1, 3)] * g.edge_count)
    (doubled, sd), (thirds, st), (united, su) = map(
        measures.edge_masses, (rows("double_loop"), third, rows("random_cluster"))
    )
    for e, b in enumerate(mid):
        sides.append((thirds[e] * mt * 3, st * (3 * b + (mt - b))))
        sides.append((united[e] * mt, su * (b + x * (mt - b))))
        sides.append((doubled[e] * mt * mt, sd * b * (2 * mt - b)))
    return sides


class TestProvedForm:
    """The default run's packed values, decoded: each is the polynomial
    whose values at non-dyadic rationals are those of the point laws, and
    the digit width leaves every comparison room."""

    @pytest.mark.parametrize("name, g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
    def test_decoded_values_are_the_point_laws(self, name, g):
        digits = proof_digits(name, g)
        shapes, at = measures.polynomial_laws(g, cli.BATTERY_ROWS, ())
        rows = at(1 << digits, 1)
        n = g.edge_count
        _, cyclic = even_lattice(g)
        pushed, _ = measures.push_even(
            g, {w: v for w, v in enumerate(rows("double_current")) if v}
        )
        counting = measures.counting_weights(g, 1 << digits, 1)
        for x in ORACLE_XS:
            def law(row, x=x):
                return build(row, g, x)

            def value(packed, row):
                return at_x(decoded(packed, digits, shapes[row][1]), x)

            for row in cli.BATTERY_ROWS:
                weights = {m: value(v, row) for m, v in enumerate(rows(row))}
                assert law_of(weights) == probabilities(law(row)), (row, x)
                # the suites' edge masses, and cor1's masses of cyclic edges
                tables = (rows(row), lambda m: m), (cyclic_law(rows(row), cyclic), cyclic.__getitem__)
                for table, stat in tables:
                    counts, total = measures.edge_masses(table)
                    ((bits, bit_total),) = bit_masses([law(row).nums], stat, n)
                    assert [value(c, row) / value(total, row) for c in counts] == [
                        F(c, bit_total) for c in bits
                    ]
            pushforward = {h: value(v, "double_current") for h, v in pushed.items()}
            expected = probabilities(push_uniform_even(law("double_current")))
            assert law_of(pushforward) == expected
            weights = {w: at_x(decoded(v, digits, 3 * n), x) for w, v in enumerate(counting)}
            assert law_of(weights) == probabilities(double_current_lis(g, x))

    @pytest.mark.parametrize("name, g", ORACLE_GRAPHS, ids=[name for name, _ in ORACLE_GRAPHS])
    def test_every_comparison_decodes_alike_at_twice_the_digits(self, name, g):
        digits = proof_digits(name, g)
        degree = 7 * g.edge_count + 1  # the counting weights times the current's total
        narrow, wide = (comparison_sides(name, g, d) for d in (digits, 2 * digits))
        assert len(narrow) == len(wide)
        for (left, right), (wide_left, wide_right) in zip(narrow, wide):
            assert decoded(left, digits, degree) == decoded(wide_left, 2 * digits, degree)
            assert decoded(right, digits, degree) == decoded(wide_right, 2 * digits, degree)
            assert (left == right) == (wide_left == wide_right)


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

    def test_x_and_t_together_are_refused(self, tmp_path, capsys):
        # --t 1/3 alone draws at x = 3/5, which a manifest with x: 1/2 would hide
        out = tmp_path / "both.txt"
        code = run(*SAMPLE_THETA, "--t", "1/3", "--model", "loop", "--out", str(out))
        assert code == 1
        assert "argument --t: not allowed with argument --x" in capsys.readouterr().err
        assert run(*SAMPLE_THETA[:5], "--model", "loop", "--out", str(out)) == 1
        assert "one of the arguments --x --t is required" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_graph_is_an_error(self, tmp_path):
        code = run(
            "sample", "--model", "loop", "--x", "1/2",
            "--samples", "5", "--out", str(tmp_path / "no.txt"),
        )
        assert code == 1
