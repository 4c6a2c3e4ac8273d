"""The package runs its modules lazily: ``import loopcurrents`` runs none of
them, a re-exported name is its module's own object, and each command runs
only the modules it uses.

A module registered for lazy loading sits in ``sys.modules`` from the
package's import on, as an instance of a subclass of ``types.ModuleType``,
and becomes a plain module when it runs.  Its type is read with ``type()``:
reading ``__class__`` would run it.  The probes run in fresh interpreters,
since this one has run every module.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loopcurrents
from loopcurrents import (
    checkers,
    errors,
    events,
    graphs,
    intervals,
    measures,
    rationals,
    sampler,
)

PACKAGE = Path(loopcurrents.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# The names the package re-exports, by module.
EXPORTS = {
    checkers: ("DominationReport", "fkg_gaps", "monotonicity_scan", "stochastic_domination"),
    errors: (
        "CapExceededError",
        "GraphMismatchError",
        "GraphStructureError",
        "LoopCurrentsError",
        "ParametrizationError",
    ),
    events: ("Event", "all_open", "connect", "edge_open"),
    graphs: (
        "Graph",
        "Marks",
        "complete_graph",
        "counter_family",
        "cycle_space_basis",
        "even_lattice",
        "even_subgraphs",
        "generalized_theta",
        "graph_from_json",
        "graph_to_json",
        "is_connected",
    ),
    intervals: ("Interval", "certify_decreasing_pair", "sqrt_interval"),
    measures: (
        "Dist",
        "bernoulli",
        "build",
        "double_current",
        "double_loop",
        "loop_o1",
        "point_mass",
        "prob",
        "push_uniform_even",
        "pythagorean_x",
        "single_current_p",
        "union",
        "union_bernoulli",
    ),
    rationals: ("dyadic_grid", "find_decreasing_pair"),
    sampler: ("loop_chain", "sample_stream"),
}

# Prints, after what the command prints, a line of the exit code of
# ``cli.main`` on the arguments (0 with none), the package modules that ran
# and those of numpy, dataclasses, inspect and csv that were imported.
PROBE = """
import sys, types
from loopcurrents import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = {
    name.rpartition(".")[2]
    for name, module in sys.modules.items()
    if name.startswith("loopcurrents.") and type(module) is types.ModuleType
}
print(code, *sorted(ran | ({"numpy", "dataclasses", "inspect", "csv"} & sys.modules.keys())))
"""


def python(*argv, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package's source tree."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )


def test_every_reexported_name_is_its_modules_own_object():
    assert sum(map(len, EXPORTS.values())) == 44
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(loopcurrents, name) is getattr(module, name), name


def test_dir_and_star_list_the_reexported_names():
    names = {name for names in EXPORTS.values() for name in names}
    listed = set(dir(loopcurrents))
    assert names | set(MODULES) - {"cli"} <= listed
    star = {}
    exec("from loopcurrents import *", star)
    assert star.keys() - {"__builtins__"} == names


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'MODELS'"):
        loopcurrents.MODELS  # a module's name, not re-exported
    with pytest.raises(ImportError):
        from loopcurrents import no_such_name  # noqa: F401


def test_a_bare_import_runs_no_module():
    probe = (
        "import sys, types, loopcurrents\n"
        "for name in sorted(n for n in sys.modules if n.startswith('loopcurrents.')):\n"
        "    print(name, type(sys.modules[name]) is types.ModuleType)\n"
    )
    lines = python("-c", probe).stdout.splitlines()
    # every module but cli is registered, and none has run
    assert lines == [f"loopcurrents.{name} False" for name in MODULES if name != "cli"]


def test_reading_a_name_runs_its_module_alone():
    probe = (
        "import sys, types, loopcurrents\n"
        "loopcurrents.dyadic_grid\n"
        "print(*(n for n, m in sys.modules.items() if type(m) is types.ModuleType"
        " and n.startswith('loopcurrents.')))\n"
    )
    # rationals imports errors, and nothing else runs
    assert python("-c", probe).stdout.split() == ["loopcurrents.errors", "loopcurrents.rationals"]


def test_the_cli_registers_every_module_for_the_benchmark_tracer():
    # the tracer finds the modules in sys.modules once the cli is imported,
    # events among them, and wraps their functions after running them
    probe = "import sys, loopcurrents.cli; print(*sorted(sys.modules))"
    names = [n for n in python("-c", probe).stdout.split() if n.startswith("loopcurrents.")]
    assert names == [f"loopcurrents.{name}" for name in MODULES]


def test_running_the_cli_as_a_module_warns_nothing():
    # runpy warns when the package's import has already imported the module
    result = python("-m", "loopcurrents.cli", "--version")
    assert (result.stdout, result.stderr) == (f"{loopcurrents.__version__}\n", "")


FIGURE = ("figure", "--grid-steps", "3", "--out", "f")
SAMPLE = ("sample", "--family", "theta", "--segments", "2,3,2", "--x", "1/2", "--out", "s")
SAMPLE_NOT_RUN = {"checkers", "events", "intervals", "overview", "battery", "theta"}
LOOP_NOT_RUN = {"checkers", "overview", "battery", "sampler"}


@pytest.mark.parametrize(
    "argv, not_run",
    [
        pytest.param((), {"numpy"}, id="import-cli"),
        pytest.param(
            (*FIGURE, "--model", "P", "--n", "2000", "--m", "300"),
            {"measures", "checkers", "events", "overview", "battery", "sampler"},
            id="figure-P",
        ),
        pytest.param((*FIGURE, "--model", "l", "--n", "18", "--m", "2"), LOOP_NOT_RUN, id="figure-l"),
        pytest.param((*FIGURE, "--model", "l2", "--n", "38", "--m", "2"), LOOP_NOT_RUN, id="figure-l2"),
        pytest.param((*SAMPLE, "--model", "double_current"), SAMPLE_NOT_RUN, id="sample"),
        pytest.param((*SAMPLE, "--model", "loop_mcmc"), SAMPLE_NOT_RUN, id="sample-chain"),
        pytest.param(("verify",), {"overview", "sampler"}, id="verify"),
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, not_run, tmp_path):
    code, *ran = python("-c", PROBE, *argv, cwd=tmp_path).stdout.splitlines()[-1].split()
    assert code == "0"
    assert not_run.isdisjoint(ran)
    # the package's value classes are no dataclasses, whose import runs
    # inspect; numpy imports inspect itself, and only figure writes CSV
    command = argv[0] if argv else None
    assert "dataclasses" not in ran
    assert ("inspect" in ran) == (command == "sample")
    assert ("csv" in ran) == (command == "figure")
