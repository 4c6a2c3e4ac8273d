"""Exact couplings and monotonicity certification for loop, random-current
and FK-Ising percolation models on finite multigraphs."""

__version__ = "0.1.0"

from .checkers import (
    DominationReport,
    fkg_gaps,
    monotonicity_scan,
    stochastic_domination,
)
from .errors import (
    CapExceededError,
    GraphMismatchError,
    GraphStructureError,
    LoopCurrentsError,
    ParametrizationError,
)
from .events import (
    Event,
    all_open,
    connect,
    edge_open,
)
from .graphs import (
    Graph,
    Marks,
    complete_graph,
    counter_family,
    cycle_space_basis,
    even_lattice,
    even_subgraphs,
    generalized_theta,
    graph_from_json,
    graph_to_json,
    is_connected,
)
from .intervals import Interval, certify_decreasing_pair, sqrt_interval
from .measures import (
    Dist,
    bernoulli,
    build,
    double_current,
    double_loop,
    loop_o1,
    point_mass,
    prob,
    push_uniform_even,
    pythagorean_x,
    single_current_p,
    union,
    union_bernoulli,
)
from .rationals import dyadic_grid, find_decreasing_pair
from .sampler import loop_chain, sample_stream
