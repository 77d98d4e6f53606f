"""Rigidity machinery: distance map, rigidity matrices, ranks, lifts.

Oracle values (the frozen literals below) were computed by hand from the
definitions before the implementation existed; see the derivation notes in
each test.
"""

import gc
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidform.rigidity as rigidity_mod
from rigidform import (
    Configuration,
    Graph,
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

from conftest import grid_formation, random_instance, random_orientation

# the unit square with one diagonal: 5 edges, minimally rigid in the plane
BRACED_SQUARE = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])

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
    # an oracle of the whole graph offered the edges a spanning subgraph
    # keeps accepts as many as the subgraph's own generic rank: the pebble
    # game in the plane, and in R^3 the row basis at the first draw, which
    # depends on (n, d, seed) only and so is the subgraph's first draw too
    rng = np.random.default_rng(seed)
    graph, _ = random_instance(rng, n_max=7)
    kept = sorted(rng.choice(graph.num_edges, size=rng.integers(0, graph.num_edges + 1),
                             replace=False).tolist())
    sub = rigidity_mod.Graph(graph.n, tuple(graph.edges[k] for k in kept))
    for oracle in (rigidity_mod._PebbleGame(graph.n), rigidity_mod._RowBasis(graph, 3, seed)):
        accepted = sum(oracle.insert(*graph.edges[k]) for k in kept)
        assert accepted == generic_rank(sub, oracle.d, seed)


def test_subgraph_ranks_build_the_draws_once(monkeypatch, w5):
    # the row basis draws its configuration once; its copies share it and
    # the basis built so far, and only an accepted row replaces the basis
    drawn = []
    real = rigidity_mod._draws

    def counting(graph, d, seed):
        drawn.append((graph, d, seed))
        return real(graph, d, seed)

    monkeypatch.setattr(rigidity_mod, "_draws", counting)
    basis = rigidity_mod._RowBasis(w5, 3, 7)
    for i, j in w5.edges[:4]:
        basis.insert(i, j)
    copies = [basis.copy() for _ in range(3)]
    assert drawn == [(w5, 3, 7)]
    assert all(c.points is basis.points and c.rows is basis.rows for c in copies)
    rows = basis.rows
    assert copies[0].insert(*w5.edges[4])
    assert copies[0].rows is not rows and basis.rows is rows and copies[1].rows is rows
    assert w5._rank_memo == {}


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rigid_motions_span_the_kernel_in_every_dimension(d):
    # at a random point of the complete graph on d + 3 vertices, generically
    # rigid in R^d, the public basis spans Ker R, and the certificate's
    # motion frame is an orthonormal basis of the rigid motions at the
    # centred points
    n, k = d + 3, d * (d + 1) // 2
    graph = build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    p = Configuration(d, np.random.default_rng(d).standard_normal((n, d)))
    R = rigidity_matrix(graph, p)
    B = rigid_motion_basis(p)
    assert B.shape == (d * n, k)
    assert np.allclose(R @ B, 0.0, atol=1e-12)
    assert matrix_rank(B) == k
    assert matrix_rank(R) == d * n - k
    # unit translations, then the rotations by their definitions
    pts, columns = p.points, B.reshape(n, d, k)
    assert np.array_equal(columns[:, :, :d], np.broadcast_to(np.eye(d), (n, d, d)))
    if d == 2:
        assert np.array_equal(columns[:, :, 2], np.stack([-pts[:, 1], pts[:, 0]], axis=1))
    elif d == 3:
        for a, axis in enumerate(np.eye(3)):
            assert np.array_equal(columns[:, :, 3 + a], np.cross(axis, pts))
    Q = rigidity_mod._motion_frame(p.points)
    centred = Configuration(d, pts - pts.mean(axis=0))
    B_centred = rigid_motion_basis(centred)
    assert Q.shape == (d * n, k)
    assert np.allclose(Q.T @ Q, np.eye(k), atol=1e-12)
    assert np.allclose(Q @ (Q.T @ B_centred), B_centred, atol=1e-12)
    assert np.allclose(rigidity_matrix(graph, centred) @ Q, 0.0, atol=1e-12)


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
    refs = [weakref.ref(rigidity_mod._edge_index(graph, 2)),
            weakref.ref(rigidity_mod._edge_index(graph, 2, orientation)),
            weakref.ref(orientation.arrows[0]),
            weakref.ref(orientation.strong_components[1][0])]
    assert refs[0]() is graph._index_memo[2]
    assert refs[1]() is orientation._index_memo[2]
    assert refs[2]() is orientation.arrows[0]
    assert refs[3]() is orientation.strong_components[1][0]
    del graph, orientation
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


@pytest.mark.parametrize("call", [
    distance_map, rigidity_matrix, is_regular_point, tangent_basis,
    lambda g, p: min_norm_lift(g, p, np.ones(g.num_edges)),
], ids=["distance_map", "rigidity_matrix", "is_regular_point", "tangent_basis",
        "min_norm_lift"])
def test_configuration_of_another_size_is_named(w5, p_star, call):
    with pytest.raises(ValueError, match="configuration has 4 points, graph has 5 vertices"):
        call(w5, Configuration(2, p_star.points[:4]))


@pytest.mark.parametrize("call, message", [
    (lambda g, p: tangent_basis(g, Configuration(2, np.zeros((5, 2)))),
     "rigidity matrix is zero: all edge endpoints coincide"),
    (lambda g, p: min_norm_lift(g, p, np.ones(7)), "edge velocity must have length 8"),
    (lambda g, p: rigid_motion_basis(Configuration(4, np.zeros((5, 4)))),
     "rigid motions implemented for dimensions 1, 2, 3 only"),
    (lambda g, p: congruence_check(p, Configuration(2, p.points[:4])),
     "configurations have 5 and 4 points"),
    (lambda g, p: congruence_check(p, Configuration(3, np.zeros((5, 3)))),
     "configurations have dimensions 2 and 3"),
    (lambda g, p: matrix_rank(np.ones(3)), "m must be a 2-D matrix, got 1 dimensions"),
    (lambda g, p: matrix_rank(np.ones((2, 2, 2))), "m must be a 2-D matrix, got 3 dimensions"),
], ids=["coincident-points", "lift-length", "motions-in-4d", "congruence-n",
        "congruence-d", "rank-1d", "rank-3d"])
def test_rigidity_argument_errors_are_named(w5, p_star, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(w5, p_star)


def test_edge_subset_in_canonical_order_is_accepted():
    # a reduction's edges taken in index order are a canonical Graph of
    # their own, which persistence_check ranks as the witness
    def subgraph(kept):
        return Graph(BRACED_SQUARE.n, tuple(BRACED_SQUARE.edges[k] for k in kept))

    assert is_generically_rigid(subgraph([0, 1, 2, 3, 4]), 2)
    assert is_generically_rigid(subgraph(np.arange(5)), 2)
    assert not is_generically_rigid(subgraph([0, 1, 2, 3]), 2)
    assert not is_generically_rigid(subgraph([]), 2)


def test_tiny_trace_declines_the_certificate_not_regularity(monkeypatch):
    # below tr(R^T R) = 1 / SQUARE_LIMIT the certificate decides nothing,
    # and the SVD rule, relative to sigma_max, still finds the full rank
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from inputs import rigid_formation

    pts, edges, _ = rigid_formation(20, 10, np.random.default_rng(20))
    graph = Graph(20, edges)
    for scale, certified in ((1.0, True), (1e-80, False)):
        p = Configuration(2, scale * pts)
        index, D = rigidity_mod._edge_vectors(graph, p)
        assert (rigidity_mod._certify_full_rank(index, D, p) is not None) == certified
        assert is_regular_point(graph, p)


def _assert_one_block(graph, d):
    """The band layout of ``graph`` in R^d is one block in vertex order,
    whose slots are the flat positions of the edges' blocks in R^T R."""
    index = rigidity_mod._edge_index(graph, d)
    band, size = index.band, index.size
    ends = np.stack((index.first, index.second))
    dense = ends[:, None, :, :, None] * size + ends[None, :, :, None, :]
    assert (band.count, band.width) == (1, size)
    assert np.array_equal(band.order, np.arange(graph.n))
    assert np.array_equal(band.at, np.arange(size))
    assert np.array_equal(band.slot, dense) and np.array_equal(band.vertex_slot, dense)


def test_band_order_is_no_wider_than_the_vertex_order(monkeypatch):
    # on the bench formations the reverse Cuthill-McKee order has a vertex
    # bandwidth no larger than the vertex order's; from _BANDED_MIN_SIZE on
    # the band layout holds every edge in a diagonal block or the one below
    # it; and the layout is one block in vertex order below that size, and
    # on the tests' grid formation of seed 150 (d*n = 300), whose order
    # gives three blocks, too few for the windows of the banded factor
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from inputs import rigid_formation

    for n in (20, 60, 150, 500):
        _, edges, _ = rigid_formation(n, n // 2, np.random.default_rng(n))
        first, second = np.array(edges).T
        order = rigidity_mod._band_order(n, first, second)
        assert np.array_equal(np.sort(order), np.arange(n))
        rank = np.argsort(order)
        width = np.abs(rank[first] - rank[second]).max()
        assert width <= np.abs(first - second).max()
        if 2 * n < rigidity_mod._BANDED_MIN_SIZE:
            _assert_one_block(Graph(n, edges), 2)
            continue
        band = rigidity_mod._edge_index(Graph(n, edges), 2).band
        assert band.count >= 4 and band.width == 2 * width
        blocks = rank // width
        assert np.all(np.abs(blocks[first] - blocks[second]) <= 1)
        assert np.array_equal(band.at.reshape(n, 2)[:, 0], 2 * rank)
    graph, _, _ = grid_formation(150, np.random.default_rng(150))
    first, second = graph.endpoints
    rank = np.argsort(rigidity_mod._band_order(150, first, second))
    assert -(-150 // np.abs(rank[first] - rank[second]).max()) == 3
    _assert_one_block(graph, 2)


def test_matrix_rank_takes_nested_lists():
    # an array-like ranks like the array it converts to, and a flat list is
    # named as the wrong shape, not failed on a missing attribute
    assert matrix_rank([[1.0, 0.0], [0.0, 1.0]]) == 2
    with pytest.raises(ValueError, match="m must be a 2-D matrix, got 1 dimensions"):
        matrix_rank([1.0, 2.0])


@st.composite
def _graphs_in_order(draw):
    """(a simple graph on 2..10 vertices, its edges in a drawn order, a seed)."""
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    order = draw(st.permutations(edges))
    return Graph(n, tuple(sorted(edges))), order, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_graphs_in_order())
def test_pebble_game_counts_the_generic_rank_in_the_plane(drawn):
    # the exact count of Laman independent edges against the SVD rule at a
    # random point and the seeded generic-rank estimate, in any edge order
    graph, order, seed = drawn
    game = rigidity_mod._PebbleGame(graph.n)
    accepted = sum(game.insert(i, j) for i, j in order)
    p = Configuration(2, np.random.default_rng(seed).uniform(-1.0, 1.0, size=(graph.n, 2)))
    assert accepted == matrix_rank(rigidity_matrix(graph, p)) == generic_rank(graph, 2)
    canonical = rigidity_mod._PebbleGame(graph.n)
    assert sum(canonical.insert(i, j) for i, j in graph.edges) == accepted


@settings(max_examples=60, deadline=None)
@given(_graphs_in_order())
def test_pebble_game_copy_shares_no_state(drawn):
    # a copy taken partway goes on like the original, and inserting into
    # the copy leaves the original as it was
    graph, order, _ = drawn
    half = len(order) // 2
    game = rigidity_mod._PebbleGame(graph.n)
    head = sum(game.insert(i, j) for i, j in order[:half])
    pebbles, out = list(game.pebbles), [list(heads) for heads in game.out]
    copy = game.copy()
    tail = sum(copy.insert(i, j) for i, j in order[half:])
    assert (game.pebbles, game.out) == (pebbles, out)
    assert sum(game.insert(i, j) for i, j in order[half:]) == tail
    assert head + tail == generic_rank(graph, 2)


def _rank_at_first_draw(graph, d, seed):
    return matrix_rank(rigidity_matrix(graph, next(rigidity_mod._draws(graph, d, seed))))


@settings(max_examples=150, deadline=None)
@given(_graphs_in_order())
def test_row_basis_counts_the_rank_at_its_draw(drawn):
    # the rows accepted, in any edge order, are as many as the SVD rank of
    # R at the first seeded draw, in R^3 (where persistence uses it) and
    # in the plane
    graph, order, seed = drawn
    for d in (3, 2):
        basis = rigidity_mod._RowBasis(graph, d, seed)
        accepted = sum(basis.insert(i, j) for i, j in order)
        assert accepted == len(basis.rows) == _rank_at_first_draw(graph, d, seed)


@settings(max_examples=60, deadline=None)
@given(_graphs_in_order())
def test_row_basis_copy_shares_no_state(drawn):
    # a copy taken partway goes on like the original, and inserting into
    # the copy leaves the original as it was
    graph, order, seed = drawn
    half = len(order) // 2
    basis = rigidity_mod._RowBasis(graph, 3, seed)
    head = sum(basis.insert(i, j) for i, j in order[:half])
    rows = basis.rows.copy()
    copy = basis.copy()
    tail = sum(copy.insert(i, j) for i, j in order[half:])
    assert np.array_equal(basis.rows, rows)
    assert sum(basis.insert(i, j) for i, j in order[half:]) == tail
    assert np.array_equal(basis.rows, copy.rows)
    assert head + tail == _rank_at_first_draw(graph, 3, seed)
