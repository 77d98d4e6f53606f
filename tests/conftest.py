"""Shared fixtures: the worked examples and a random-instance generator."""

import numpy as np
import pytest

from rigidform import Configuration, Graph, Orientation, build_graph, orient

# Five-node wheel: hub joined to a 4-cycle rim.  Edge list in canonical order.
W5_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (4, 5)]

# Target placement used throughout: hub at the origin, rim nodes around it.
P_STAR = np.array(
    [
        [0.0, 0.0],
        [-0.5, -0.5],
        [-1.0, 1.0],
        [2.0 / 3.0, 1.0],
        [1.0, -1.0],
    ]
)

# Same shape with node 1 relocated; the certificate fails there.
Q_STAR = P_STAR.copy()
Q_STAR[0] = [9.0 / 5.0, -5.0 / 3.0]

# One-way sensing on the wheel: rim cycle 2->3->4->5->2, hub watches 2 and 3,
# nodes 4 and 5 watch the hub.  Pairs listed in canonical edge order.
W5_ARROWS = [(1, 2), (1, 3), (4, 1), (5, 1), (2, 3), (5, 2), (3, 4), (4, 5)]


@pytest.fixture
def w5() -> Graph:
    return build_graph(5, W5_EDGES)


@pytest.fixture
def p_star() -> Configuration:
    return Configuration(2, P_STAR)


@pytest.fixture
def q_star() -> Configuration:
    return Configuration(2, Q_STAR)


@pytest.fixture
def w5_arrows(w5) -> Orientation:
    return orient(w5, W5_ARROWS)


def random_graph(rng: np.random.Generator, n_max: int = 8) -> Graph:
    """A random connected-ish graph with at least one edge."""
    n = int(rng.integers(2, n_max + 1))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    keep = [p for p in pairs if rng.random() < 0.6]
    if not keep:
        keep = [pairs[int(rng.integers(len(pairs)))]]
    return build_graph(n, keep)


def random_instance(rng: np.random.Generator, n_max: int = 8):
    """(graph, configuration) with generic coordinates in [-1, 1]."""
    graph = random_graph(rng, n_max)
    d = int(rng.integers(1, 4))
    p = Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d)))
    return graph, p


def random_orientation(rng: np.random.Generator, graph: Graph) -> Orientation:
    """Each edge pointed a random way."""
    pairs = []
    for i, j in graph.edge_labels:
        pairs.append((i, j) if rng.random() < 0.5 else (j, i))
    return orient(graph, pairs)


def grid_formation(n: int, rng: np.random.Generator):
    """(graph, target, start): a Henneberg 2-tree plus n // 2 chords on a
    jittered grid, with a start perturbed by 5% of the spacing."""
    side = int(np.ceil(np.sqrt(n)))
    grid = np.array([(i % side, i // side) for i in range(n)], dtype=float)
    target = grid + 0.2 * rng.standard_normal(grid.shape)
    edges = {(1, 2)}
    for k in range(3, n + 1):
        i, j = rng.choice(k - 1, size=2, replace=False) + 1
        edges.update({(int(i), k), (int(j), k)})
    while len(edges) < 2 * n - 3 + n // 2:
        i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
        edges.add((int(i), int(j)))
    start = target + 0.05 * rng.standard_normal(target.shape)
    return build_graph(n, sorted(edges)), Configuration(2, target), Configuration(2, start)
