"""The benchmark's workloads: which CLI commands one pass runs, and how each
command's output is judged.

Every workload is a closed loop with one client: its commands run one after
another, each in a fresh single-threaded process, as a user would type
them.  Inputs come from the run's ``--seed`` only (``table`` and ``figure``
take no random input).  See README.md in this directory for why each
workload is here and which layers it exercises.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

VERIFY_SUITES = ("newcoupling", "cor1", "edge-identities", "sumthm", "lis-equivalence", "appendix-tables")

# The extra `verify --graph` input: a connected loopless multigraph inside the
# battery's range (4-7 vertices, 5-10 edges).  Fixing both counts fixes the
# cycle-space dimension (9 - 5 + 1 = 5), so the work per seed stays level.
EXTRA_GRAPH_VERTICES = 5
EXTRA_GRAPH_EDGES = 9

# `sample`: enough draws that sampling, not the ~0.3 s import, dominates.
SAMPLE_SEGMENTS = (2, 3, 2)
SAMPLE_X = "1/2"
SAMPLE_DRAWS = {"double_current": 6000, "uniform_even_of_double_current": 6000, "loop_mcmc": 60000}


@dataclass
class Command:
    argv: list[str]  # arguments after `loopcurrents`
    output: str  # main output file, relative to the work directory
    args: dict = field(default_factory=dict)  # what the check needs to know


def _figure(model: str, n: int, m: int, grid_steps: int, window: str | None = None) -> Command:
    out = f"{model}.csv"
    argv = ["figure", "--model", model, "--n", str(n), "--m", str(m), "--grid-steps", str(grid_steps)]
    args = {"model": model, "n": n, "m": m, "grid_steps": grid_steps}
    if window:
        argv += ["--window", window]
        args["window"] = window
    return Command(argv + ["--out", out], out, args)


def extra_graph(seed: int) -> dict:
    """Graph JSON for `verify --graph`, drawn from the seed."""
    rng = random.Random(f"verify-graph:{seed}")
    while True:
        edges = []
        for _ in range(EXTRA_GRAPH_EDGES):
            u, v = rng.sample(range(EXTRA_GRAPH_VERTICES), 2)
            edges.append([min(u, v), max(u, v)])
        if _connected(EXTRA_GRAPH_VERTICES, edges):
            return {"vertices": EXTRA_GRAPH_VERTICES, "edges": edges}


def _connected(n: int, edges: list[list[int]]) -> bool:
    reached = {0}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grew = True
    return len(reached) == n


def sample_seeds(seed: int, pass_index: int) -> list[int]:
    rng = random.Random(f"sample:{seed}:{pass_index}")
    return [rng.randrange(1, 2**31) for _ in SAMPLE_DRAWS]


class Workload:
    name = ""

    def commands(self, seed: int, pass_index: int, work: Path) -> list[Command]:
        raise NotImplementedError

    def check(self, cmd: Command, result, work: Path) -> tuple[int, list[str]]:
        """Judge one command's output; ``result`` has ``exit_code`` and ``stdout``."""
        raise NotImplementedError


class Table(Workload):
    name = "table"

    def commands(self, seed, pass_index, work):
        return [Command(["table", "--grid-steps", "6", "--out", "table.json"], "table.json")]

    def check(self, cmd, result, work):
        try:
            report = json.loads((work / cmd.output).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = {}
        return checks.check_table(report, result.exit_code)


class Verify(Workload):
    name = "verify"

    def commands(self, seed, pass_index, work):
        (work / "extra_graph.json").write_text(json.dumps(extra_graph(seed)), encoding="utf-8")
        return [Command(["verify", "--graph", "extra_graph.json", "--out", "verify.json"], "verify.json")]

    def check(self, cmd, result, work):
        try:
            report = json.loads((work / cmd.output).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        return checks.check_verify(result.stdout, report, result.exit_code, VERIFY_SUITES)


class Figure(Workload):
    """The three README figure commands."""

    name = "figure"

    def commands(self, seed, pass_index, work):
        return [
            _figure("l", 18, 2, 6),
            _figure("l2", 38, 2, 6),
            _figure("P", 2000, 300, 7, "255/256:1"),
        ]

    def check(self, cmd, result, work):
        return checks.check_figure(cmd.args, work / cmd.output, result.exit_code)


class Sample(Workload):
    name = "sample"

    def commands(self, seed, pass_index, work):
        out = []
        segments = ",".join(map(str, SAMPLE_SEGMENTS))
        for (model, draws), draw_seed in zip(SAMPLE_DRAWS.items(), sample_seeds(seed, pass_index)):
            dump = f"{model}.txt"
            argv = ["sample", "--model", model, "--family", "theta", "--segments", segments]
            argv += ["--x", SAMPLE_X, "--samples", str(draws), "--seed", str(draw_seed), "--out", dump]
            args = {"model": model, "segments": SAMPLE_SEGMENTS, "x": SAMPLE_X, "samples": draws, "seed": draw_seed}
            out.append(Command(argv, dump, args))
        return out

    def check(self, cmd, result, work):
        return checks.check_sample(cmd.args, work / cmd.output, result.exit_code)


WORKLOADS = {w.name: w for w in (Table(), Verify(), Figure(), Sample())}
