"""Graph, orientation, and configuration plumbing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rigidform import Configuration, build_graph, edge_index, orient

from conftest import W5_ARROWS, W5_EDGES, random_instance, random_orientation


def test_w5_canonical_order(w5):
    assert w5.n == 5
    assert w5.num_edges == 8
    assert w5.edge_labels == tuple(W5_EDGES)


def test_build_graph_canonicalizes_and_dedups():
    g = build_graph(4, [(3, 1), (1, 3), (4, 2), (2, 1)])
    assert g.edge_labels == ((1, 2), (1, 3), (2, 4))


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(1, [])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        build_graph(3, [(2, 2)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 1)])


def test_edge_index_is_one_based(w5):
    assert edge_index(w5, 1, 2) == 0
    assert edge_index(w5, 2, 1) == 0
    assert edge_index(w5, 4, 5) == 7
    with pytest.raises(ValueError):
        edge_index(w5, 2, 4)


def test_orient_round_trip(w5):
    o = orient(w5, W5_ARROWS)
    assert o.directed_labels == tuple(W5_ARROWS)
    assert o.reversed().directed_labels == tuple((h, t) for t, h in W5_ARROWS)
    assert o.reversed().reversed().tails == o.tails


def test_orient_errors(w5):
    with pytest.raises(ValueError):
        orient(w5, W5_ARROWS[:-1])  # edge left unoriented
    with pytest.raises(ValueError):
        orient(w5, W5_ARROWS + [(2, 1)])  # edge oriented twice
    with pytest.raises(ValueError):
        orient(w5, W5_ARROWS[:-1] + [(2, 4)])  # not an edge


@pytest.mark.parametrize("label", [1.7, "1", True, np.float64(1.0)])
def test_vertex_labels_are_integers_never_truncated(w5, label):
    # int() would read each of these as vertex 1, and the edge as (1, 2)
    message = re.escape(f"vertex label must be a positive integer, got {label!r}")
    with pytest.raises(ValueError, match=message):
        build_graph(5, [(label, 2)] + W5_EDGES[1:])
    with pytest.raises(ValueError, match=message):
        orient(w5, [(label, 2)] + W5_ARROWS[1:])


def test_out_edges(w5):
    o = orient(w5, W5_ARROWS)
    # 0-based vertex 0 (= node 1) is the tail of edges (1,2) and (1,3).
    assert o.out_edges(0) == (0, 1)
    assert o.out_edges(1) == (4,)


def test_strong_components(w5, w5_arrows):
    # the wheel's arrows close the cycle 1 -> 2 -> 3 -> 4 -> 5 -> 1
    singles, larger = w5_arrows.strong_components
    assert singles.size == 0 and [c.tolist() for c in larger] == [[0, 1, 2, 3, 4]]
    assert w5_arrows.strong_components is w5_arrows.strong_components
    # a path sensed one way has singletons only; the cycle 1 -> 2 -> 3 -> 1
    # is one component, and 4, which senses it, is its own
    path = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    singles, larger = orient(path, [(2, 1), (3, 2), (4, 3)]).strong_components
    assert singles.tolist() == [0, 1, 2, 3] and larger == ()
    g = build_graph(4, [(1, 2), (2, 3), (1, 3), (1, 4)])
    singles, larger = orient(g, [(1, 2), (2, 3), (3, 1), (4, 1)]).strong_components
    assert singles.tolist() == [3] and [c.tolist() for c in larger] == [[0, 1, 2]]
    assert not singles.flags.writeable


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_strong_components_match_scipy(seed):
    rng = np.random.default_rng(seed)
    graph, _ = random_instance(rng, n_max=12)
    o = random_orientation(rng, graph)
    T, H = o.arrows
    adjacency = coo_matrix((np.ones(T.size), (T, H)), shape=(graph.n, graph.n))
    _, labels = connected_components(adjacency, directed=True, connection="strong")
    singles, larger = o.strong_components
    ours = [[int(v)] for v in singles] + [c.tolist() for c in larger]
    theirs = [np.flatnonzero(labels == lab).tolist() for lab in np.unique(labels)]
    assert sorted(ours) == sorted(theirs)


def test_configuration_round_trip():
    p = Configuration(2, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert p.n == 3
    v = p.vector
    assert v.shape == (6,)
    q = Configuration.from_vector(2, v)
    assert np.array_equal(q.points, p.points)


@pytest.mark.parametrize("d", [0, -2, 2.0, True])
def test_from_vector_names_a_bad_dimension(d):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        Configuration.from_vector(d, np.zeros(4))


@pytest.mark.parametrize("d", [0, -2, 2.0, True, np.float64(2.0), "2"])
def test_constructor_names_a_bad_dimension(d):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        Configuration(d, np.zeros((3, 2)))


def test_numpy_integer_dimensions_are_accepted():
    p = Configuration(np.int64(2), np.zeros((3, 2)))
    q = Configuration.from_vector(np.int32(2), np.zeros(6))
    assert p.d == q.d == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_out_edges_match_a_scan_of_the_tails(seed):
    rng = np.random.default_rng(seed)
    graph, _ = random_instance(rng, n_max=12)
    o = random_orientation(rng, graph)
    for v in range(-1, graph.n + 1):
        assert o.out_edges(v) == tuple(k for k, t in enumerate(o.tails) if t == v)


def test_configuration_is_read_only(p_star):
    with pytest.raises(ValueError):
        p_star.points[0, 0] = 99.0


def test_diameter(p_star):
    # max pairwise distance is between nodes 3 (-1,1) and 5 (1,-1)
    assert p_star.diameter() == pytest.approx(np.sqrt(8.0))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = st.tuples(
        st.integers(min_value=1, max_value=n), st.integers(min_value=1, max_value=n)
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=1, max_size=20))
    return n, edges


@settings(max_examples=80)
@given(edge_lists())
def test_canonicalization_is_idempotent(ne):
    n, edges = ne
    g = build_graph(n, edges)
    g2 = build_graph(n, g.edge_labels)
    assert g2.edges == g.edges
    # canonical form: sorted, i < j, no duplicates
    assert list(g.edges) == sorted(set(g.edges))
    assert all(i < j for i, j in g.edges)
