"""Graphs, edge orientations, and agent configurations.

Shared vocabulary for the whole toolkit.  Vertices are labelled 1..n in all
user-facing input and output (matching the usual figure conventions) and
stored 0-based internally; the conversion happens in the constructors and
accessors below and nowhere else.  Edges live in a single canonical order,
lexicographic on (i, j) with i < j, and every matrix row and measurement
entry in the toolkit follows that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _index_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only index columns from a sequence of pairs."""
    cols = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T.copy()
    cols.setflags(write=False)
    return tuple(cols)


def _strong_components(n: int, tails: np.ndarray, heads: np.ndarray):
    """:attr:`Orientation.strong_components` of the digraph on n vertices
    with arcs tails[k] -> heads[k], from the closure of its reachability
    relation: each squaring doubles the path length it covers."""
    reach = np.eye(n, dtype=bool)
    reach[tails, heads] = True
    while True:
        closed = (reach.astype(float) @ reach) > 0  # exact counts of 0/1 products
        if (closed == reach).all():
            break
        reach = closed
    mutual = reach & reach.T
    sizes = mutual.sum(axis=1)
    first = mutual.argmax(axis=1)  # least vertex of each vertex's component
    parts = [np.flatnonzero(sizes == 1)]
    parts += [np.flatnonzero(first == v) for v in np.unique(first[sizes > 1])]
    for part in parts:
        part.setflags(write=False)
    return parts[0], tuple(parts[1:])


@dataclass(frozen=True)
class Graph:
    """Undirected graph with a canonical edge order.

    ``edges`` holds 0-based pairs (i, j), i < j, sorted lexicographically
    with no duplicates.  Use :func:`build_graph` to construct one from
    1-based vertex labels.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def edge_labels(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-based label pairs, in canonical order."""
        return tuple((i + 1, j + 1) for i, j in self.edges)

    def index_of(self, i: int, j: int) -> int:
        """Canonical row index of the edge with 0-based endpoints {i, j}."""
        key = (i, j) if i < j else (j, i)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"({i + 1}, {j + 1}) is not an edge") from None

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint index arrays (I, J): edge k joins 0-based
        vertices I[k] < J[k]."""
        return _index_arrays(self.edges)

    @cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def _rank_memo(self) -> dict[tuple[int, int], int]:
        """Generic ranks of this graph keyed by (d, seed); freed with the graph."""
        return {}

    @cached_property
    def _draw_memo(self) -> dict[tuple[int, int], list[np.ndarray]]:
        """Rigidity matrices at the generic-rank draws keyed by (d, seed), for
        ranking spanning subgraphs as row subsets; holds the newest (d, seed)
        only and is freed with the graph."""
        return {}

    @cached_property
    def _index_memo(self) -> dict:
        """Edge-index records of this graph keyed by d; freed with the graph."""
        return {}


@dataclass(frozen=True)
class Orientation:
    """An assignment of a tail (the sensing, responsible agent) to each edge.

    ``tails[k]`` is the 0-based tail vertex of edge k in the canonical order
    of the underlying graph.  Use :func:`orient` to construct one.
    """

    graph: Graph
    tails: tuple[int, ...]
    heads: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tails) != self.graph.num_edges:
            raise ValueError("exactly one direction flag per edge is required")
        for k, ((i, j), t) in enumerate(zip(self.graph.edges, self.tails)):
            if t not in (i, j):
                raise ValueError(
                    f"tail {t + 1} of edge {k} is not an endpoint of "
                    f"({i + 1}, {j + 1})"
                )
        heads = tuple(j if t == i else i for (i, j), t in zip(self.graph.edges, self.tails))
        object.__setattr__(self, "heads", heads)

    @cached_property
    def arrows(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays (tails, heads), in canonical edge order."""
        return _index_arrays(zip(self.tails, self.heads))

    @cached_property
    def _index_memo(self) -> dict:
        """Edge-index records of this orientation keyed by d; freed with it."""
        return {}

    @cached_property
    def strong_components(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Strongly connected components of the sensing digraph, with an arc
        from each tail to its head: (the vertices that are a component on
        their own, the larger components), as read-only 0-based index
        arrays in ascending order."""
        return _strong_components(self.graph.n, *self.arrows)

    @property
    def directed_labels(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-based (tail, head) pairs, in canonical order."""
        return tuple((t + 1, h + 1) for t, h in zip(self.tails, self.heads))

    def reversed(self) -> "Orientation":
        """The orientation with every edge flipped."""
        return Orientation(self.graph, self.heads)

    @cached_property
    def _out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the ascending indices of the edges whose tail it is."""
        table = [[] for _ in range(self.graph.n)]
        for k, t in enumerate(self.tails):
            table[t].append(k)
        return tuple(map(tuple, table))

    def out_edges(self, v: int) -> tuple[int, ...]:
        """Canonical indices of the edges whose tail is 0-based vertex v."""
        return self._out_edges[v] if 0 <= v < self.graph.n else ()


def _require_count(name: str, value, least: int) -> int:
    """``value`` as an int, when it is a Python or NumPy integer of at least
    ``least``; otherwise ValueError naming ``name``.  The one rule for every
    count, dimension, seed and vertex label: a bool (whose type is not int),
    a float, even an integral one, or a string is rejected, never truncated."""
    if type(value) is int and value >= least:  # the common case, first
        return value
    if isinstance(value, np.integer) and value >= least:
        return int(value)
    bound = {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer >= {least}")
    raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Configuration:
    """n points in R^d: one position per agent, in vertex order.

    The flattened vector stacks the points agent by agent, so the block
    ``vector[d*i : d*(i+1)]`` is the position of (0-based) agent i.
    """

    d: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_count("dimension", self.d, 1)
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must be an (n, {self.d}) array")
        if pts.shape[0] < 2:
            raise ValueError("a configuration needs at least two points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def vector(self) -> np.ndarray:
        """Copy of the configuration as a flat vector in R^(d*n)."""
        return self.points.reshape(-1).copy()

    @classmethod
    def from_vector(cls, d: int, vec: np.ndarray) -> "Configuration":
        _require_count("dimension", d, 1)
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.size % d != 0:
            raise ValueError("flat vector length must be a multiple of d")
        return cls(d, vec.reshape(-1, d))

    def diameter(self) -> float:
        """Largest inter-point distance."""
        diff = self.points[:, None, :] - self.points[None, :, :]
        return float(np.sqrt((diff**2).sum(axis=-1)).max())


@dataclass(frozen=True, eq=False)
class Measurement:
    """Squared edge lengths, one entry per edge in canonical order."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("measurement values must be a flat vector")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


def build_graph(n: int, edges) -> Graph:
    """Build a canonical :class:`Graph` from 1-based vertex pairs.

    Pairs may appear in either endpoint order and may repeat; the result is
    sorted, deduplicated, and stored 0-based.
    """
    n = _require_count("vertex count", n, 2)
    canonical = set()
    for pair in edges:
        a, b = (_require_count("vertex label", v, 1) for v in pair)
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"edge ({a}, {b}) references a vertex outside 1..{n}")
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        i, j = (a - 1, b - 1) if a < b else (b - 1, a - 1)
        canonical.add((i, j))
    return Graph(n, tuple(sorted(canonical)))


def orient(graph: Graph, directed_pairs) -> Orientation:
    """Build an :class:`Orientation` from 1-based (tail, head) pairs.

    Every edge of ``graph`` must be oriented exactly once.
    """
    tails: dict[int, int] = {}
    for pair in directed_pairs:
        a, b = (_require_count("vertex label", v, 1) for v in pair)
        if not (1 <= a <= graph.n and 1 <= b <= graph.n) or a == b:
            raise ValueError(f"({a}, {b}) is not a valid directed pair")
        k = graph.index_of(a - 1, b - 1)  # raises on non-edges
        if k in tails:
            i, j = graph.edges[k]
            raise ValueError(f"edge ({i + 1}, {j + 1}) oriented twice")
        tails[k] = a - 1
    missing = [k for k in range(graph.num_edges) if k not in tails]
    if missing:
        i, j = graph.edges[missing[0]]
        raise ValueError(f"edge ({i + 1}, {j + 1}) left unoriented")
    return Orientation(graph, tuple(tails[k] for k in range(graph.num_edges)))


def edge_index(graph: Graph, i: int, j: int) -> int:
    """Canonical row index of the edge with 1-based endpoints {i, j}."""
    if not (1 <= i <= graph.n and 1 <= j <= graph.n):
        raise ValueError(f"({i}, {j}) references a vertex outside 1..{graph.n}")
    return graph.index_of(i - 1, j - 1)
