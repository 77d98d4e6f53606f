"""Rigidity machinery: distance map, rigidity matrices, ranks, lifts.

Oracle values (the frozen literals below) were computed by hand from the
definitions before the implementation existed; see the derivation notes in
each test.
"""

import gc
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidform.rigidity as rigidity_mod
from rigidform import (
    Configuration,
    build_graph,
    directed_field,
    congruence_check,
    directed_rigidity_matrix,
    distance_map,
    generic_rank,
    gradient_field,
    is_generically_rigid,
    is_regular_point,
    matrix_rank,
    max_generic_rank,
    min_norm_lift,
    orient,
    projector,
    rigid_motion_basis,
    rigidity_matrix,
    tangent_basis,
)
from rigidform.scenarios import builtin_scenario

from conftest import random_instance, random_orientation

# Squared target lengths of the wheel at the standard placement, by hand:
# |p1-p2|^2 = .25+.25, |p1-p3|^2 = 1+1, |p1-p4|^2 = 4/9+1, |p1-p5|^2 = 1+1,
# |p2-p3|^2 = .25+2.25, |p2-p5|^2 = 2.25+.25, |p3-p4|^2 = (5/3)^2,
# |p4-p5|^2 = 1/9+4.
W5_MSTAR = [0.5, 2.0, 13.0 / 9.0, 2.0, 2.5, 2.5, 25.0 / 9.0, 37.0 / 9.0]


def test_distance_map_w5(w5, p_star):
    m = distance_map(w5, p_star)
    assert np.allclose(m.values, W5_MSTAR, rtol=0, atol=1e-14)


def test_rigidity_matrix_shape_and_rows(w5, p_star):
    R = rigidity_matrix(w5, p_star)
    assert R.shape == (8, 10)
    # row 0 is edge (1,2): blocks (p1-p2)^T at node 1 and (p2-p1)^T at node 2
    assert np.allclose(R[0, 0:2], [0.5, 0.5])
    assert np.allclose(R[0, 2:4], [-0.5, -0.5])
    assert np.allclose(R[0, 4:], 0.0)


def test_directed_rigidity_zeroes_head_blocks(w5, p_star, w5_arrows):
    Rd = directed_rigidity_matrix(w5_arrows, p_star)
    R = rigidity_matrix(w5, p_star)
    # edge (1,4) has tail 4: node-1 (head) block zeroed, node-4 block kept
    k = 2
    assert np.allclose(Rd[k, 0:2], 0.0)
    assert np.allclose(Rd[k, 6:8], R[k, 6:8])
    # P6: the two one-way matrices add back to the full one
    Rd_rev = directed_rigidity_matrix(w5_arrows.reversed(), p_star)
    assert np.allclose(Rd + Rd_rev, R, atol=1e-15)


def test_single_edge_matrices():
    g = build_graph(2, [(1, 2)])
    p = Configuration(1, [[0.0], [1.0]])
    assert np.allclose(rigidity_matrix(g, p), [[-1.0, 1.0]])
    o = orient(g, [(1, 2)])
    assert np.allclose(directed_rigidity_matrix(o, p), [[-1.0, 0.0]])


def test_collinear_triangle_drops_rank():
    # Three collinear points: row (1,3) = 2*row(1,2) + 2*row(2,3), so rank 2.
    g = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    p = Configuration(2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert matrix_rank(rigidity_matrix(g, p)) == 2
    assert generic_rank(g, 2) == 3
    assert not is_regular_point(g, p)


def test_generic_ranks():
    tri = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    cyc4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert generic_rank(tri, 2) == 3
    assert generic_rank(cyc4, 2) == 4
    assert max_generic_rank(3, 2) == 3
    assert max_generic_rank(4, 2) == 5
    assert is_generically_rigid(tri, 2)
    assert not is_generically_rigid(cyc4, 2)


def test_w5_is_generically_rigid(w5):
    assert generic_rank(w5, 2) == 7
    assert max_generic_rank(5, 2) == 7
    assert is_generically_rigid(w5, 2)


def _count_matrix_ranks(monkeypatch) -> list:
    calls = []
    real = rigidity_mod.matrix_rank

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(rigidity_mod, "matrix_rank", counting)
    return calls


def test_generic_rank_stops_at_the_ceiling(monkeypatch, w5):
    # no draw can exceed min(|E|, 2n - 3) = 7, so the first draw that
    # reaches it ends the estimate
    calls = _count_matrix_ranks(monkeypatch)
    assert generic_rank(w5, 2) == 7
    assert len(calls) == 1
    # the flexible 4-cycle's four edges are independent: rank |E| = 4 < 5
    cyc4 = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert generic_rank(cyc4, 2) == 4
    assert len(calls) == 2


def test_generic_rank_below_the_ceiling_takes_every_draw(monkeypatch):
    # K4 plus a pendant vertex: K4 has one redundant edge and the pendant
    # vertex one free rotation, so the rank 6 stays under min(7, 7)
    calls = _count_matrix_ranks(monkeypatch)
    g = build_graph(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert generic_rank(g, 2) == 6
    assert len(calls) == 3


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_subgraph_rank_matches_its_own_graph(seed):
    # the rows ``edges`` of R at the shared draws rank the spanning
    # subgraph exactly as a Graph built from those edges does
    rng = np.random.default_rng(seed)
    graph, _ = random_instance(rng, n_max=7)
    kept = sorted(rng.choice(graph.num_edges, size=rng.integers(0, graph.num_edges + 1),
                             replace=False).tolist())
    sub = rigidity_mod.Graph(graph.n, tuple(graph.edges[k] for k in kept))
    for d in (2, 3):
        assert generic_rank(graph, d, seed, edges=kept) == generic_rank(sub, d, seed)
        assert (is_generically_rigid(graph, d, seed, edges=tuple(kept))
                == is_generically_rigid(sub, d, seed))


def test_subgraph_ranks_build_the_draws_once(monkeypatch, w5):
    # R at the draws is built once per (d, seed) and kept on the graph;
    # subgraph ranks are not memoized, and the graph's own rank is
    built = []
    real = rigidity_mod.rigidity_matrix

    def counting(graph, p):
        built.append(graph)
        return real(graph, p)

    monkeypatch.setattr(rigidity_mod, "rigidity_matrix", counting)
    spokes_and_rim = list(range(w5.num_edges))
    for drop in range(w5.num_edges):
        kept = spokes_and_rim[:drop] + spokes_and_rim[drop + 1:]
        assert generic_rank(w5, 2, 7, edges=kept) <= 7
    assert len(built) == rigidity_mod.GENERIC_SAMPLES
    assert all(g is w5 for g in built)
    assert (2, 7) not in w5._rank_memo
    # the wheel's 8 edges with one dropped leave 7 independent rows
    assert is_generically_rigid(w5, 2, 7, edges=spokes_and_rim[1:])


def test_small_n_rank_formula():
    # with n <= d the motion count saturates: a single edge in d=2 has
    # max rank n(n-1)/2 = 1
    g = build_graph(2, [(1, 2)])
    assert max_generic_rank(2, 2) == 1
    assert generic_rank(g, 2) == 1
    assert is_generically_rigid(g, 2)


def test_rigid_motion_basis_spans_kernel(w5, p_star):
    # P4: at a regular point of a generically rigid graph, Ker R is exactly
    # the rigid motions (3 of them in the plane).
    R = rigidity_matrix(w5, p_star)
    B = rigid_motion_basis(p_star)
    assert B.shape == (10, 3)
    assert np.allclose(R @ B, 0.0, atol=1e-12)
    assert matrix_rank(B) == 3
    assert R.shape[1] - matrix_rank(R) == 3


def test_tangent_basis_and_projector(w5, p_star):
    basis = tangent_basis(w5, p_star)
    assert basis.rank == 7
    P = basis.matrix
    assert np.allclose(P.T @ P, np.eye(7), atol=1e-12)
    Pi = projector(w5, p_star)
    assert np.allclose(Pi, Pi.T, atol=1e-10)
    assert np.allclose(Pi @ Pi, Pi, atol=1e-10)
    R = rigidity_matrix(w5, p_star)
    assert np.allclose(Pi @ R, R, atol=1e-10)


def test_min_norm_lift_recovers_projected_velocity(w5, p_star):
    rng = np.random.default_rng(7)
    R = rigidity_matrix(w5, p_star)
    v = R @ rng.standard_normal(10)  # a feasible edge velocity (v in Im R)
    u = min_norm_lift(w5, p_star, v)
    Pi = projector(w5, p_star)
    # P5: 2R u = Pi v, and u is orthogonal to Ker(2R) = rigid motions
    assert np.allclose(2.0 * R @ u, Pi @ v, atol=1e-10)
    assert np.allclose(2.0 * R @ u, v, atol=1e-10)
    B = rigid_motion_basis(p_star)
    assert np.allclose(B.T @ u, 0.0, atol=1e-10)


@pytest.mark.parametrize("bad, message", [
    (np.nan, "configuration is not finite"),
    (np.inf, "configuration is not finite"),
    (1e308, "R would overflow"),  # finite, but p_i - p_j is not
], ids=["nan", "inf", "overflow"])
def test_non_finite_configuration_is_not_regular(capfd, w5, p_star, bad, message):
    # rejected before R reaches LAPACK, which may not return on it
    pts = p_star.points.copy()
    pts[0, 0] = bad
    pts[1, 0] = -bad
    p = Configuration(2, pts)
    assert not is_regular_point(w5, p)
    with pytest.raises(rigidity_mod.RankDeficiencyError, match=message):
        min_norm_lift(w5, p, np.ones(8))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_arguments_are_named(capfd, w5, p_star, bad):
    # named before LAPACK sees them, which raises on NaN and prints to stderr
    # and returns a wrong answer on inf
    R = rigidity_matrix(w5, p_star)
    R[0, 0] = bad
    with pytest.raises(ValueError, match="^m is not finite"):
        matrix_rank(R)
    pts = p_star.points.copy()
    pts[2, 1] = bad
    with pytest.raises(ValueError, match="^p is not finite"):
        congruence_check(Configuration(2, pts), p_star)
    with pytest.raises(ValueError, match="^q is not finite"):
        congruence_check(p_star, Configuration(2, pts))
    v = np.ones(8)
    v[3] = bad
    with pytest.raises(ValueError, match="^edge velocity v is not finite"):
        min_norm_lift(w5, p_star, v)
    assert capfd.readouterr().err == ""


def test_congruence_check_names_overflowing_coordinates(capfd, p_star):
    # finite, but its square overflows when the two are aligned
    pts = p_star.points.copy()
    pts[2, 1] = 1e308
    with pytest.raises(ValueError, match="^q has an entry of magnitude 1e\\+150 or more"):
        congruence_check(p_star, Configuration(2, pts))
    assert capfd.readouterr().err == ""


def test_rank_cutoff_does_not_overflow(capfd):
    # s[0] * max(shape) * SVD_RTOL overflowed at s[0] = 1e308 before the
    # small factor applied; every other singular value is below the cutoff
    scn = builtin_scenario("w5-directed-good")
    R = rigidity_matrix(scn.graph, scn.target)
    R[0, 0] = 1e308
    assert matrix_rank(R) == 1
    assert capfd.readouterr().err == ""


def test_min_norm_lift_names_an_overflowing_edge_velocity(capfd, w5, p_star):
    # finite, but the norms of the residual check would overflow
    v = np.ones(8)
    v[3] = 1e308
    with pytest.raises(ValueError,
                       match="^edge velocity v has an entry of magnitude 1e\\+150 or more"):
        min_norm_lift(w5, p_star, v)
    assert capfd.readouterr().err == ""


def test_negative_seed_is_named():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        generic_rank(build_graph(3, [(1, 2), (2, 3)]), 2, -1)


@pytest.mark.parametrize("d, seed, message", [
    (2, 2.5, "seed must be a non-negative integer, got 2.5"),
    (2, np.float64(2.0), "seed must be a non-negative integer, got np.float64(2.0)"),
    (2.0, 2, "dimension must be a positive integer, got 2.0"),
    (2.5, 2, "dimension must be a positive integer, got 2.5"),
], ids=["fractional-seed", "float-seed", "float-dimension", "fractional-dimension"])
def test_generic_rank_names_a_count_that_is_no_integer(d, seed, message):
    # on a cold memo, and once the memo holds (2, 2), which int() would return
    graph = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    with pytest.raises(ValueError, match=re.escape(message)):
        generic_rank(graph, d, seed)
    assert generic_rank(graph, 2, 2) == 5
    with pytest.raises(ValueError, match=re.escape(message)):
        generic_rank(graph, d, seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_least_squares_rank_is_the_toolkit_rank(seed):
    # the solver's own rank under rcond = max(shape) * SVD_RTOL counts the
    # singular values the toolkit's rule counts, full rank or not
    rng = np.random.default_rng(seed)
    rows, cols = (int(k) for k in rng.integers(1, 40, size=2))
    k = int(rng.integers(0, min(rows, cols) + 1))
    for m in (rng.standard_normal((rows, cols)),
              rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))):
        b = rng.standard_normal(rows)
        _, _, r, s = np.linalg.lstsq(m, b, rcond=max(m.shape) * rigidity_mod.SVD_RTOL)
        assert r == rigidity_mod._rank_from_singular_values(s, m.shape) == matrix_rank(m)
        assert rigidity_mod._min_norm_solve(m, b)[1] == r
    assert r == k


def test_min_norm_lift_warns_off_image():
    # a 1-D pair can only change its one edge at rate 2R u; asking for an
    # infeasible edge velocity on a *rank-deficient* configuration warns
    g = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    p = Configuration(2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])  # collinear
    v = np.array([1.0, -1.0, 1.0])
    with pytest.warns(RuntimeWarning):
        min_norm_lift(g, p, v)


def test_congruence_check_accepts_rigid_motions(p_star):
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = Configuration(2, p_star.points @ rot.T + np.array([3.0, -2.0]))
    ok, res = congruence_check(moved, p_star)
    assert ok and res < 1e-12
    # reflections count as congruences too
    mirrored = Configuration(2, p_star.points * np.array([-1.0, 1.0]))
    ok, _ = congruence_check(mirrored, p_star)
    assert ok


def test_congruence_check_rejects_distortion(p_star, q_star):
    ok, res = congruence_check(q_star, p_star)
    assert not ok and res > 0.1


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_linearity_identity_random(seed):
    # P2: R(p) vec(p) = F(p) exactly (each row telescopes to the squared length)
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng)
    R = rigidity_matrix(graph, p)
    m = distance_map(graph, p).values
    scale = max(1.0, float(np.abs(m).max()))
    assert np.allclose(R @ p.vector, m, rtol=0, atol=1e-12 * scale)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_distance_map_differential_random(seed):
    # P1: central differences of F match 2R at step 1e-5
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng, n_max=6)
    R = rigidity_matrix(graph, p)
    x = p.vector
    h = 1e-5
    J = np.empty_like(R)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        fp = distance_map(graph, Configuration.from_vector(p.d, x + e)).values
        fm = distance_map(graph, Configuration.from_vector(p.d, x - e)).values
        J[:, k] = (fp - fm) / (2.0 * h)
    scale = max(1.0, float(np.abs(2.0 * R).max()))
    assert np.allclose(J, 2.0 * R, rtol=0, atol=1e-6 * scale)


def test_rank_cache_determinism(w5):
    assert generic_rank(w5, 2, seed=0) == generic_rank(w5, 2, seed=0)
    assert generic_rank(w5, 2, seed=1) == 7  # generic property: seed-independent


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_incidence_kernels_match_edge_loops(seed):
    # the gathers and puts of the flat edge index reproduce the per-edge
    # definitions exactly: same arithmetic, so bit-for-bit equal
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng)
    o = random_orientation(rng, graph)
    pts, d = p.points, p.d
    lengths = np.array([np.sum((pts[j] - pts[i]) ** 2) for i, j in graph.edges])
    R = np.zeros((graph.num_edges, d * graph.n))
    Rdir = np.zeros_like(R)
    for k, ((i, j), t, h) in enumerate(zip(graph.edges, o.tails, o.heads)):
        R[k, d * i : d * (i + 1)] = pts[i] - pts[j]
        R[k, d * j : d * (j + 1)] = pts[j] - pts[i]
        Rdir[k, d * t : d * (t + 1)] = pts[t] - pts[h]
    assert np.array_equal(distance_map(graph, p).values, lengths)
    assert np.array_equal(rigidity_matrix(graph, p), R)
    assert np.array_equal(directed_rigidity_matrix(o, p), Rdir)


def test_edge_index_does_not_outlive_its_graph():
    # the index records, like every value cached on the graph and on the
    # orientation, are kept on them, so they are freed with them
    graph = build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    orientation = orient(graph, [(1, 2), (2, 3), (3, 4), (4, 1)])
    p = Configuration(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    m_star = distance_map(graph, p)
    gradient_field(graph, p, m_star)
    directed_field(orientation, p, m_star)
    generic_rank(graph, 2, edges=[0, 1, 2])
    refs = [weakref.ref(rigidity_mod._edge_index(graph, 2)),
            weakref.ref(rigidity_mod._edge_index(graph, 2, orientation)),
            weakref.ref(orientation.arrows[0]),
            weakref.ref(orientation.strong_components[1][0]),
            weakref.ref(graph._draw_memo[(2, 0)][0])]
    assert refs[0]() is graph._index_memo[2]
    assert refs[1]() is orientation._index_memo[2]
    assert refs[2]() is orientation.arrows[0]
    assert refs[3]() is orientation.strong_components[1][0]
    del graph, orientation
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
