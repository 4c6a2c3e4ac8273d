"""Standard graph batteries for verification runs.

The random members are generated from a fixed seed so the battery is the
same in every run and in every report.
"""

from __future__ import annotations

import random

from .graphs import Graph, complete_graph, counter_family, generalized_theta

RANDOM_BATTERY_SEED = 20220919
RANDOM_BATTERY_SIZE = 20


def k5_minus_edge() -> Graph:
    k5 = complete_graph(5)
    return Graph(5, k5.edges[:-1])


def random_multigraph(rng: random.Random) -> Graph:
    """A random loopless multigraph with 4 to 7 vertices and 5 to 10 edges."""
    vertices = rng.randint(4, 7)
    edge_count = rng.randint(5, 10)
    edges = []
    for _ in range(edge_count):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        while v == u:
            v = rng.randrange(vertices)
        edges.append((min(u, v), max(u, v)))
    return Graph(vertices, tuple(edges))


def verification_battery() -> list[tuple[str, Graph]]:
    """Named graphs for the exact identity suites: small families plus
    complete graphs plus seeded random multigraphs with at most 10 edges."""
    battery: list[tuple[str, Graph]] = [
        ("theta[1,1,1]", generalized_theta([1, 1, 1])),
        ("theta[2,3,2]", generalized_theta([2, 3, 2])),
        ("counter(2,2)", counter_family(2, 2)),
        ("K4", complete_graph(4)),
        ("K5-e", k5_minus_edge()),
    ]
    rng = random.Random(RANDOM_BATTERY_SEED)
    for i in range(RANDOM_BATTERY_SIZE):
        battery.append((f"random-{i:02d}", random_multigraph(rng)))
    return battery


def scan_battery() -> list[tuple[str, Graph]]:
    """Small graphs (|E| <= 8) for the domination-scan columns."""
    return [
        ("theta[1,1,1]", generalized_theta([1, 1, 1])),
        ("theta[1,2,2]", generalized_theta([1, 2, 2])),
        ("K4", complete_graph(4)),
        ("counter(2,2)", counter_family(2, 2)),
    ]
