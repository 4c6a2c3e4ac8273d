"""Exact couplings and monotonicity certification for loop, random-current
and FK-Ising percolation models on finite multigraphs.

Importing the package runs none of its modules.  Each one but ``cli`` is
registered in ``sys.modules`` with a lazy loader, and runs when one of its
attributes is first read; a name re-exported here is read from its module
on each access.  So a command runs only the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The names re-exported at the package, by module.
_EXPORTS = {
    "checkers": ("DominationReport", "fkg_gaps", "monotonicity_scan", "stochastic_domination"),
    "errors": (
        "CapExceededError",
        "GraphMismatchError",
        "GraphStructureError",
        "LoopCurrentsError",
        "ParametrizationError",
    ),
    "events": ("Event", "all_open", "connect", "edge_open"),
    "graphs": (
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
    "intervals": ("Interval", "certify_decreasing_pair", "sqrt_interval"),
    "measures": (
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
    "rationals": ("dyadic_grid", "find_decreasing_pair"),
    "sampler": ("loop_chain", "sample_stream"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_ORIGIN)

# ``cli`` is left out, so ``python -m loopcurrents.cli`` finds it unimported.
for _module in ("battery", "overview", "theta", *_EXPORTS):
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN})
