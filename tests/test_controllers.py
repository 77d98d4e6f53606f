"""Controller fields: hand-computed examples and structural invariants."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidform.rigidity as rigidity_mod
from rigidform import (
    Configuration,
    ControllerSpec,
    Measurement,
    RankDeficiencyError,
    build_graph,
    directed_field,
    directed_rigidity_matrix,
    distance_map,
    edge_potential,
    evaluate_field,
    eta_matrix,
    field_gain,
    generic_rank,
    gradient_field,
    is_regular_point,
    matrix_rank,
    max_generic_rank,
    model_field,
    node_potential,
    orient,
    projector,
    restricted_sym_form,
    rigidity_matrix,
)

from rigidform.rigidity import (
    _certified_solve,
    _certify_full_rank,
    _edge_vectors,
    _min_norm_solve,
    _tail_blocks,
)

from conftest import grid_formation, random_graph, random_instance, random_orientation

# The one-edge example in d=1: p = (0, 1), current squared length 1,
# target 4, error e = 3.
#   gradient: u = R^T e       = (-1, 1)^T * 3       = (-3, 3)
#   model:    u = (1/2) R+ e  = (1/2)(-1,1)/2 * 3   = (-3/4, 3/4)
#   directed: u = ->R^T e     = (-1, 0)^T * 3       = (-3, 0)
PAIR = build_graph(2, [(1, 2)])
PAIR_P = Configuration(1, [[0.0], [1.0]])
PAIR_M = Measurement([4.0])


PAIR_R = rigidity_matrix(PAIR, PAIR_P)


def test_gradient_single_edge():
    u = gradient_field(PAIR, PAIR_P, PAIR_M)
    assert np.allclose(u, [-3.0, 3.0])
    assert np.allclose(2.0 * PAIR_R @ u, [12.0])  # v = 2R u = 2*(3+3)


def test_model_single_edge():
    u = model_field(PAIR, PAIR_P, PAIR_M)
    assert np.allclose(u, [-0.75, 0.75])
    assert np.allclose(2.0 * PAIR_R @ u, [3.0])  # the full projected error: Im R = R^1


def test_directed_single_edge():
    o = orient(PAIR, [(1, 2)])
    u = directed_field(o, PAIR_P, PAIR_M)
    assert np.allclose(u, [-3.0, 0.0])
    assert np.allclose(2.0 * PAIR_R @ u, [6.0])


def test_eta_single_edge():
    o = orient(PAIR, [(1, 2)])
    spec = ControllerSpec(PAIR, "directed", PAIR_M, o)
    assert np.allclose(eta_matrix(spec, PAIR_P), [[2.0]])
    grad = ControllerSpec(PAIR, "gradient", PAIR_M)
    assert np.allclose(eta_matrix(grad, PAIR_P), [[4.0]])  # 2RR^T = 2*(1+1)
    model = ControllerSpec(PAIR, "model", PAIR_M)
    assert np.allclose(eta_matrix(model, PAIR_P), [[1.0]])


def test_potentials_single_edge():
    assert node_potential(PAIR, PAIR_P, PAIR_M) == pytest.approx(9.0 / 4.0)
    m = distance_map(PAIR, PAIR_P)
    assert edge_potential(m, PAIR_M) == pytest.approx(9.0 / 2.0)


def test_potentials_name_a_target_of_another_length(w5, p_star):
    with pytest.raises(ValueError, match="target has 1 entries, graph has 8 edges"):
        node_potential(w5, p_star, Measurement([1.0]))
    with pytest.raises(ValueError, match="target has 1 entries, graph has 2 edges"):
        edge_potential(Measurement([1.0, 2.0]), Measurement([1.0]))


@pytest.mark.parametrize("entries", [1, 9], ids=["one-entry", "one-extra"])
def test_fields_name_a_target_of_another_length(w5, p_star, w5_arrows, entries):
    # a 1-entry target would broadcast over every edge, and |E| + 1 entries
    # would fail inside NumPy: both are named as the spec names them
    m_star = Measurement(np.ones(entries))
    message = f"target has {entries} entries, graph has 8 edges"
    for call in (lambda: gradient_field(w5, p_star, m_star),
                 lambda: model_field(w5, p_star, m_star),
                 lambda: directed_field(w5_arrows, p_star, m_star)):
        with pytest.raises(ValueError, match=message):
            call()


def test_spec_validation(w5, p_star, w5_arrows):
    m = distance_map(w5, p_star)
    with pytest.raises(ValueError):
        ControllerSpec(w5, "directed", m)  # needs an orientation
    with pytest.raises(ValueError):
        ControllerSpec(w5, "gradient", m, w5_arrows)  # must not carry one
    with pytest.raises(ValueError):
        ControllerSpec(w5, "sliding-mode", m)
    with pytest.raises(ValueError):
        ControllerSpec(w5, "gradient", Measurement([1.0, 2.0]))



def test_spec_with_an_orientation_of_another_graph_is_named(w5, p_star):
    with pytest.raises(ValueError, match="orientation is over a different graph"):
        ControllerSpec(w5, "directed", distance_map(w5, p_star), orient(PAIR, [(1, 2)]))

def test_model_requires_regular_point():
    tri = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    collinear = Configuration(2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RankDeficiencyError):
        model_field(tri, collinear, Measurement([1.0, 1.0, 1.0]))


def test_model_rank_loss_carries_the_rank():
    tri = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    collinear = Configuration(2, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(RankDeficiencyError, match="rank 2 != generic rank 3") as info:
        model_field(tri, collinear, Measurement([1.0, 1.0, 1.0]))
    assert info.value.rank == 2


@pytest.mark.parametrize("bad, message", [
    (np.nan, "configuration is not finite"),
    (np.inf, "configuration is not finite"),
    (-1e308, "R would overflow"),  # finite, but beyond COORD_LIMIT
], ids=["nan", "inf", "overflow"])
def test_model_field_rejects_non_finite_configuration(capfd, w5, p_star, bad, message):
    pts = p_star.points.copy()
    pts[2, 1] = bad
    with pytest.raises(RankDeficiencyError, match=message):
        model_field(w5, Configuration(2, pts), distance_map(w5, p_star))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("scale", [1e110, 1e160, 1e200])
def test_squares_that_overflow_get_rank_verdicts(capfd, scale):
    # R is finite here but |D_k|^2 and R^T R are not, or (at 1e110) the
    # products e_k D_k of the gradient and directed fields; every function
    # built on R names the bound instead of returning NaN with an overflow
    # warning, which the suite's filterwarnings setting turns into a failure
    k4 = build_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    arrows = orient(k4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    p = Configuration(2, scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    m_star = Measurement(np.ones(6))
    message = "coordinates exceed 1e+75: R^T R would overflow"
    spec = ControllerSpec(k4, "model", m_star)
    for call in (lambda: model_field(k4, p, m_star), lambda: field_gain(spec, p),
                 lambda: gradient_field(k4, p, m_star), lambda: directed_field(arrows, p, m_star),
                 lambda: evaluate_field(ControllerSpec(k4, "gradient", m_star), p),
                 lambda: evaluate_field(ControllerSpec(k4, "directed", m_star, arrows), p)):
        with pytest.raises(RankDeficiencyError) as info:
            call()
        assert str(info.value) == message
    assert not is_regular_point(k4, p)
    for kind in ("gradient", "model", "directed"):
        spec = ControllerSpec(k4, kind, m_star, arrows if kind == "directed" else None)
        rep = restricted_sym_form(spec, p)
        assert rep.verdict == "indeterminate" and rep.detail == f"target: {message}"
    assert capfd.readouterr().err == ""


def test_coordinate_bound_is_exact_at_coord_limit(w5, p_star):
    # the gather rejects a coordinate at the bound, and not one just below it
    limit = rigidity_mod.COORD_LIMIT
    for bound, below in ((limit, np.nextafter(limit, 0.0)), (-limit, np.nextafter(-limit, 0.0))):
        pts = np.zeros((5, 2))
        pts[3, 1] = bound
        with pytest.raises(RankDeficiencyError, match="coordinates exceed"):
            distance_map(w5, Configuration(2, pts))
        pts[3, 1] = below
        assert np.isfinite(distance_map(w5, Configuration(2, pts)).values).all()
    pts = p_star.points.copy()
    pts[1, 0] = np.nan
    with pytest.raises(RankDeficiencyError, match="configuration is not finite"):
        gradient_field(w5, Configuration(2, pts), distance_map(w5, p_star))


@pytest.mark.parametrize("scale", [1e160, 1e200])
@pytest.mark.parametrize("kind", ["gradient", "directed"])
def test_eta_matrix_names_coordinates_whose_squares_overflow(capfd, kind, scale):
    k4 = build_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    arrows = orient(k4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    p = Configuration(2, scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    spec = ControllerSpec(k4, kind, Measurement(np.ones(6)), arrows if kind == "directed" else None)
    with pytest.raises(RankDeficiencyError) as info:
        eta_matrix(spec, p)
    assert str(info.value) == "coordinates exceed 1e+75: R^T R would overflow"
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad, message", [
    (np.nan, "configuration is not finite"),
    (np.inf, "configuration is not finite"),
    (1e308, "R would overflow"),
], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("kind", ["gradient", "directed"])
def test_field_gain_rejects_non_finite_configuration(capfd, w5, p_star, w5_arrows,
                                                     kind, bad, message):
    # the rank verdict the model branch gives, where LAPACK would raise a bare
    # LinAlgError on NaN and print to stderr on inf
    pts = p_star.points.copy()
    pts[2, 1] = bad
    spec = ControllerSpec(w5, kind, distance_map(w5, p_star),
                          w5_arrows if kind == "directed" else None)
    with pytest.raises(RankDeficiencyError, match=message):
        field_gain(spec, Configuration(2, pts))
    assert capfd.readouterr().err == ""


def test_model_field_takes_no_svd(monkeypatch, w5, p_star):
    # the field and its regularity verdict come from one least-squares solve
    calls = []
    real = rigidity_mod._svd

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rigidity_mod, "_svd", counting)
    model_field(w5, p_star, Measurement(np.full(8, 3.0)))
    assert calls == []


@pytest.mark.parametrize("seed, shown", [(-1, "-1"), (1.5, "1.5"), (True, "True")],
                         ids=["negative", "fractional", "bool"])
def test_model_field_names_a_bad_seed_on_both_routes(w5, p_star, seed, shown):
    # d*n = 40 takes the certified lift, which draws no generic rank, and
    # w5 (d*n = 10) the least-squares one: both name the seed
    graph, target, p = grid_formation(20, np.random.default_rng(1))
    index, D = _edge_vectors(graph, p)
    assert _certified_solve(index, D, p, np.zeros(graph.num_edges)) is not None
    message = f"seed must be a non-negative integer, got {shown}"
    m_star = distance_map(graph, target)
    with pytest.raises(ValueError, match=message):
        model_field(graph, p, m_star, seed=seed)
    with pytest.raises(ValueError, match=message):
        evaluate_field(ControllerSpec(graph, "model", m_star), p, seed)
    with pytest.raises(ValueError, match=message):
        model_field(w5, p_star, distance_map(w5, p_star), seed=seed)


@pytest.mark.parametrize("n", [20, 60])
def test_model_field_is_the_pseudoinverse_lift(n):
    # u = 1/2 R^+ (m* - m) and 2 R u = Pi (m* - m), against the SVD-based
    # pinv and projector
    graph, target, p = grid_formation(n, np.random.default_rng(n))
    m_star = distance_map(graph, target)
    u = model_field(graph, p, m_star)
    err = m_star.values - distance_map(graph, p).values
    R = rigidity_matrix(graph, p)
    u_ref = 0.5 * np.linalg.pinv(R) @ err
    v_ref = projector(graph, p) @ err
    assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
    assert np.linalg.norm(2.0 * R @ u - v_ref) <= 1e-10 * np.linalg.norm(v_ref)


def test_gradient_sums_both_orientations(w5, p_star, w5_arrows):
    # the two-way field is the sum of the one-way field and its reverse
    m_star = Measurement(np.full(8, 3.0))
    u_fwd = directed_field(w5_arrows, p_star, m_star)
    u_rev = directed_field(w5_arrows.reversed(), p_star, m_star)
    u_grad = gradient_field(w5, p_star, m_star)
    assert np.allclose(u_fwd + u_rev, u_grad, atol=1e-12)


def test_model_field_matches_projected_error(w5, p_star):
    # C3 (first half): the model controller's edge velocity is the projected
    # error, v = 2 R u = -Pi (m - m*)
    rng = np.random.default_rng(3)
    m_star = Measurement(distance_map(w5, p_star).values + 0.3 * rng.standard_normal(8))
    u = model_field(w5, p_star, m_star)
    Pi = projector(w5, p_star)
    e = m_star.values - distance_map(w5, p_star).values
    assert np.allclose(2.0 * rigidity_matrix(w5, p_star) @ u, Pi @ e, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tangency_random(seed):
    # C1: the edge velocity 2 R u of every controller kind is eta e, in every
    # dimension; the incidence kernels of the gradient and directed fields
    # also agree with the matrix forms u = R^T e and u = Rdir^T e
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n_max=6)
    o = random_orientation(rng, graph)
    for d in (1, 2, 3):
        p = Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d)))
        R = rigidity_matrix(graph, p)
        m_star = Measurement(distance_map(graph, p).values + rng.standard_normal(graph.num_edges))
        e = m_star.values - distance_map(graph, p).values
        reference = {"gradient": R.T @ e, "directed": directed_rigidity_matrix(o, p).T @ e}
        for kind, orientation in (("gradient", None), ("model", None), ("directed", o)):
            spec = ControllerSpec(graph, kind, m_star, orientation)
            try:
                u = evaluate_field(spec, p)
                v = eta_matrix(spec, p) @ e
            except RankDeficiencyError:
                continue  # random instance happened to be non-regular
            vnorm = float(np.linalg.norm(v))
            assert np.linalg.norm(v - 2.0 * R @ u) <= 1e-10 * (1.0 + vnorm)
            if kind in reference:
                ref = reference[kind]
                assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_equilibria_random(seed):
    # C4: every field vanishes identically when the target is already met
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng, n_max=6)
    m_star = distance_map(graph, p)
    o = random_orientation(rng, graph)
    for kind, orientation in (("gradient", None), ("model", None), ("directed", o)):
        spec = ControllerSpec(graph, kind, m_star, orientation)
        try:
            u = evaluate_field(spec, p)
        except RankDeficiencyError:
            continue
        assert np.all(u == 0.0)


def test_directed_locality(w5, p_star, w5_arrows):
    # C5: agent i's command depends only on its own position and the heads
    # of its out-edges.  Node 2's single out-edge is 2->3, so moving nodes
    # 1, 4, 5 must not change u_2.
    m_star = Measurement(np.full(8, 3.0))
    u_before = directed_field(w5_arrows, p_star, m_star).reshape(5, 2)
    moved = p_star.points.copy()
    rng = np.random.default_rng(11)
    for node in (0, 3, 4):
        moved[node] += rng.standard_normal(2)
    u_after = directed_field(
        w5_arrows, Configuration(2, moved), m_star
    ).reshape(5, 2)
    assert np.allclose(u_after[1], u_before[1], atol=1e-15)


def test_nu_norm_is_operator_bound(w5, p_star, w5_arrows):
    # the gain nu = field_gain bounds the edge-to-node map: ||u|| <= nu * ||error||
    rng = np.random.default_rng(5)
    for _ in range(5):
        m_star = Measurement(
            distance_map(w5, p_star).values + rng.standard_normal(8)
        )
        e = m_star.values - distance_map(w5, p_star).values
        for kind in ("gradient", "model", "directed"):
            spec = ControllerSpec(w5, kind, m_star, w5_arrows if kind == "directed" else None)
            u = evaluate_field(spec, p_star)
            assert np.linalg.norm(u) <= field_gain(spec, p_star) * np.linalg.norm(e) + 1e-12


# exact small values as well as drawn ones, so that edge vectors, errors and
# pulls hit zeros of either sign
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
                    st.floats(min_value=-4.0, max_value=4.0))


@st.composite
def oriented_frameworks(draw):
    """(orientation, configuration, target) in d in {1, 2, 3}; the graph may
    have no edge and vertices with none."""
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    graph = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    flips = draw(st.lists(st.booleans(), min_size=graph.num_edges, max_size=graph.num_edges))
    o = orient(graph, [(j, i) if f else (i, j) for (i, j), f in zip(graph.edge_labels, flips)])
    coords = draw(st.lists(_VALUES, min_size=n * d, max_size=n * d))
    m_star = draw(st.lists(_VALUES, min_size=graph.num_edges, max_size=graph.num_edges))
    return o, Configuration(d, np.reshape(coords, (n, d))), Measurement(m_star)


def _add_at_oracle(o, p, m_star):
    """The gradient field, the directed field and the diagonal blocks of
    M = 2 Rdir^T R, each scattered edge by edge with np.add.at."""
    graph, P, n, d = o.graph, p.points, p.n, p.d
    I, J = graph.endpoints
    T, H = o.arrows
    D, Dt = P[I] - P[J], P[T] - P[H]
    err = (m_star.values - (D * D).sum(axis=1))[:, None]
    plus, minus, tail = np.zeros((n, d)), np.zeros((n, d)), np.zeros((n, d))
    blocks = np.zeros((n, d, d))
    np.add.at(plus, I, err * D)
    np.add.at(minus, J, err * D)
    np.add.at(tail, T, err * Dt)
    np.add.at(blocks, T, 2.0 * Dt[:, :, None] * Dt[:, None, :])
    return (plus - minus).reshape(-1), tail.reshape(-1), blocks


@settings(max_examples=150, deadline=None)
@given(oriented_frameworks())
def test_edge_index_sums_equal_add_at(case):
    # np.bincount adds in edge order, as np.add.at does, so every entry and
    # its sign bit are the same
    o, p, m_star = case
    ours = (gradient_field(o.graph, p, m_star), directed_field(o, p, m_star),
            _tail_blocks(*_edge_vectors(o.graph, p, o))[1])
    for got, want in zip(ours, _add_at_oracle(o, p, m_star)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def near_degenerate_frameworks(draw):
    """(graph, p, target) in d in {1, 2, 3}: a complete (rigid) or sparse
    (often flexible) graph with n <= 8, or a strip of 3d + 1 to 16
    vertices, each joined to the d before it (rigid, and of bandwidth d, so
    that it has a band layout of four blocks or more); and points that are
    generic or a distance 10^-j, j in 3..12, from collinear or from two
    coinciding."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    d = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["complete", "sparse", "strip"]))
    if kind == "strip":
        n = draw(st.integers(min_value=3 * d + 1, max_value=16))
    else:
        n = draw(st.integers(min_value=2, max_value=8))
    shape = draw(st.sampled_from(["generic", "collinear", "coincident"]))
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if kind == "complete":
        graph = build_graph(n, pairs)
    elif kind == "strip":
        graph = build_graph(n, [(i, j) for i, j in pairs if j - i <= d])
    else:
        graph = random_graph(rng, n_max=n)
    pts = rng.uniform(-1.0, 1.0, size=(graph.n, d))
    if shape != "generic":
        offset = 10.0 ** -draw(st.integers(min_value=3, max_value=12))
        if shape == "collinear":
            pts = pts[:1] + rng.uniform(-1.0, 1.0, size=(graph.n, 1)) * rng.standard_normal(d)
        else:
            pts[1] = pts[0]
        pts = pts + offset * rng.standard_normal(pts.shape)
    target = pts + 0.1 * rng.standard_normal(pts.shape)
    return graph, Configuration(d, pts), Configuration(d, target)


@settings(max_examples=300, deadline=None)
@given(near_degenerate_frameworks())
def test_certified_lift_agrees_with_the_least_squares_rule(case):
    # where the Cholesky certificate is issued the SVD rule finds the largest
    # rank and the lift is the least-squares one; where it is not, the model
    # field raises or returns exactly what the least-squares path does
    _check_certified_lift(case)


@settings(max_examples=200, deadline=None)
@given(near_degenerate_frameworks())
def test_factored_lift_agrees_with_the_least_squares_rule(case):
    # the same through the banded certificate, as from _BANDED_MIN_SIZE
    # on: the block factor of K_P in band order, on graphs whose order
    # gives four blocks; on the others, the one block of K
    _check_certified_lift(case, banded=True)


def _check_certified_lift(case, banded=False):
    graph, p, target = case
    R = rigidity_matrix(graph, p)
    m_star = distance_map(graph, target)
    e = m_star.values - distance_map(graph, p).values
    ref, r = _min_norm_solve(R, e)
    with pytest.MonkeyPatch.context() as mp:
        # every size tries the certificate, as from _CERTIFIED_MIN_SIZE on
        mp.setattr(rigidity_mod, "_CERTIFIED_MIN_SIZE", 0)
        if banded:
            mp.setattr(rigidity_mod, "_BANDED_MIN_SIZE", 0)
        x = _certified_solve(*_edge_vectors(graph, p), p, e)
        if x is not None:
            top = max_generic_rank(graph.n, p.d)
            s = np.linalg.svd(R, compute_uv=False)
            assert matrix_rank(R) == r == top
            # any backward-stable solver may differ from the exact lift by
            # eps (kappa + kappa^2 tan theta), Wedin's least-squares condition
            kappa = s[0] / s[top - 1]
            fit = R @ ref
            tan = np.linalg.norm(e - fit) / np.linalg.norm(fit)
            tol = max(1e-12, 16.0 * np.finfo(float).eps * (kappa + kappa**2 * tan))
            assert np.linalg.norm(x - ref) <= tol * np.linalg.norm(ref)
            assert np.array_equal(model_field(graph, p, m_star), 0.5 * x)
        elif r == generic_rank(graph, p.d):
            assert np.array_equal(model_field(graph, p, m_star), 0.5 * ref)
        else:
            with pytest.raises(RankDeficiencyError) as info:
                model_field(graph, p, m_star)
            assert info.value.rank == r


@settings(max_examples=300, deadline=None)
@given(near_degenerate_frameworks())
def test_certified_full_rank_is_the_svd_rank(case):
    # wherever the certificate proves full rank with the rounding shift
    # alone, the SVD rule counts max_generic_rank too; so the rank decisions
    # routed through it, here at every size, in one block and then banded
    # where the graph's order gives four blocks, are those of the SVD alone
    graph, p, _ = case
    R = rigidity_matrix(graph, p)
    svd_only = generic_rank(rigidity_mod.Graph(graph.n, graph.edges), p.d)
    for banded_from in (10**9, 0):
        fresh = rigidity_mod.Graph(graph.n, graph.edges)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rigidity_mod, "_CERTIFIED_MIN_SIZE", 0)
            mp.setattr(rigidity_mod, "_BANDED_MIN_SIZE", banded_from)
            if _certify_full_rank(*_edge_vectors(fresh, p), p) is not None:
                assert matrix_rank(R) == max_generic_rank(graph.n, p.d)
            routed = generic_rank(fresh, p.d), is_regular_point(fresh, p)
        assert routed == (svd_only, matrix_rank(R) == svd_only)


def test_rank_decisions_at_n60_take_no_svd(monkeypatch):
    # a certified draw reaches the ceiling and ends the generic-rank loop,
    # and the certificate decides regularity for the model restriction
    graph, target, _ = grid_formation(60, np.random.default_rng(61))
    spec = ControllerSpec(graph, "model", distance_map(graph, target))

    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert generic_rank(graph, 2) == max_generic_rank(60, 2) == 117
    assert is_regular_point(graph, target)
    rep = restricted_sym_form(spec, target)
    assert rep.verdict == "pass" and rep.spectrum == (1.0,) * 117


def _certified_calls(monkeypatch, call):
    """(what ``call()`` returns, the np.linalg factors, solves and inverses
    it takes), where it must take no lstsq, SVD or generic-rank draw."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    def count(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "lstsq", refuse("lstsq"))
    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    monkeypatch.setattr(rigidity_mod, "generic_rank", refuse("generic_rank"))
    for name in ("cholesky", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, count(name))
    return call(), calls


def _bench_formation(monkeypatch, n, seed):
    """(graph, start, target measurement): the model lift digest's formation
    ``rigid_formation(n, n // 2, default_rng(seed))`` of bench/inputs.py,
    from its perturbed start."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from inputs import rigid_formation

    rng = np.random.default_rng(seed)
    pts, edges, _ = rigid_formation(n, n // 2, rng)
    start = pts + 0.05 * rng.standard_normal(pts.shape)
    graph = build_graph(n, [(i + 1, j + 1) for i, j in edges])
    return graph, Configuration(2, start), distance_map(graph, Configuration(2, pts))


def test_certified_lift_at_n60_takes_no_lstsq_svd_or_generic_rank(monkeypatch):
    # below _BANDED_MIN_SIZE both solves with K are LU solves
    assert 120 < rigidity_mod._BANDED_MIN_SIZE
    graph, target, p = grid_formation(60, np.random.default_rng(60))
    m_star = distance_map(graph, target)
    u, calls = _certified_calls(monkeypatch, lambda: model_field(graph, p, m_star))
    assert u.shape == (120,) and calls == ["cholesky", "solve", "solve"]


def test_certified_lift_at_n150_factors_once(monkeypatch):
    # the banded route: one Cholesky per window of two blocks of the
    # shifted K_P, which proves, then as many of K_P itself, and the sweeps
    # built once on that factor for both solves, from one batched inverse
    # of its 8-wide diagonal leaves, with no dense solve
    graph, p, m_star = _bench_formation(monkeypatch, 150, 0)
    band = rigidity_mod._edge_index(graph, 2).band
    assert 300 >= rigidity_mod._BANDED_MIN_SIZE and band.count >= 4
    u, calls = _certified_calls(monkeypatch, lambda: model_field(graph, p, m_star))
    assert u.shape == (300,) and calls == ["cholesky"] * (2 * band.count - 2) + ["inv"]


def test_banded_rank_decision_at_n150_forms_no_inverse(monkeypatch):
    # a rank decision, with no floor, on the banded route takes one
    # Cholesky per window of two blocks and nothing else: the sweeps that a
    # solve needs are not built
    graph, p, _ = _bench_formation(monkeypatch, 150, 0)
    index, D = _edge_vectors(graph, p)
    assert index.size == 300 and index.band.count >= 4
    certificate, calls = _certified_calls(monkeypatch, lambda: _certify_full_rank(index, D, p))
    assert certificate is not None and calls == ["cholesky"] * (index.band.count - 1)
    assert "_sweeps" not in vars(certificate)


def test_gram_is_the_stiffness_in_vertex_order_in_either_layout(monkeypatch):
    # the certificate's R^T R, read by the gradient eigensolve, is in
    # vertex order whether K_P is one block (d*n = 120) or banded (300)
    for n, one_block in ((60, True), (150, False)):
        graph, p, _ = _bench_formation(monkeypatch, n, 0)
        index, D = _edge_vectors(graph, p)
        certificate = _certify_full_rank(index, D, p)
        assert (len(certificate.K) == 1) == one_block
        R = rigidity_matrix(graph, p)
        gram = R.T @ R
        assert np.allclose(certificate.gram(), gram, rtol=0.0, atol=1e-13 * np.trace(gram))


@pytest.mark.parametrize("seed, low, high", [(0, 100.0, np.inf), (50, 2.0, 8.0), (192, 1.0, 2.0)],
                         ids=["0", "50", "192"])
def test_banded_lift_takes_one_path_at_every_conditioning(monkeypatch, seed, low, high):
    # the digest's n = 150 formations, certified banded with
    # lambda_min(K_P) / delta about 539, 3.8 and 1.4: each takes the same
    # factor of K_P, the same sweeps and no dense solve, and its lift is the
    # least-squares one
    graph, p, m_star = _bench_formation(monkeypatch, 150, seed)
    index, D = _edge_vectors(graph, p)
    certificate = _certify_full_rank(index, D, p, np.sqrt(np.finfo(float).eps))
    m, w, _ = certificate.K.shape
    assert m == index.band.count >= 4
    full = np.zeros((m, w, m, w))
    for t in range(m):
        full[t, :, t] = certificate.K[t]
    for t, block in enumerate(certificate.lower):
        full[t + 1, :, t], full[t, :, t + 1] = block, block.T
    ratio = np.linalg.eigvalsh(full.reshape(m * w, m * w))[0] / certificate.delta
    assert low < ratio < high
    e = m_star.values - distance_map(graph, p).values
    ref, r = _min_norm_solve(rigidity_matrix(graph, p), e)
    x, calls = _certified_calls(monkeypatch, lambda: _certified_solve(index, D, p, e))
    assert calls == ["cholesky"] * (2 * m - 2) + ["inv"]
    assert np.array_equal(model_field(graph, p, m_star), 0.5 * x)
    assert r == 297 and np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("d", [2, 3])
def test_degenerate_patch_declines_and_least_squares_decides(monkeypatch, d):
    # a strip of bandwidth d + 1 whose first two band blocks, the patch,
    # are coincident (d = 2, where their motion frame has no rotation) or
    # collinear (d = 3, where the rotation about the line vanishes on them):
    # the certificate declines, and the model field is the least-squares
    # lift, or raises with its rank, as wherever no certificate is issued
    monkeypatch.setattr(rigidity_mod, "_CERTIFIED_MIN_SIZE", 0)
    monkeypatch.setattr(rigidity_mod, "_BANDED_MIN_SIZE", 0)
    n = 16
    graph = build_graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                            if j - i <= d + 1])
    pts = np.random.default_rng(d).uniform(-1.0, 1.0, size=(n, d))
    band = rigidity_mod._edge_index(graph, d).band
    assert band.count >= 4
    patch = band.order[: 2 * band.width // d]
    steps = np.linspace(0.0, 1.0, patch.size)[:, None] * (d == 3)
    pts[patch] = pts[patch[0]] + steps * np.array([0.3, -0.2, 0.5])[:d]
    p, target = Configuration(d, pts), Configuration(d, pts + 0.1)
    m_star = distance_map(graph, target)
    index, D = _edge_vectors(graph, p)
    assert _certify_full_rank(index, D, p, np.sqrt(np.finfo(float).eps)) is None
    e = m_star.values - distance_map(graph, p).values
    ref, r = _min_norm_solve(rigidity_matrix(graph, p), e)
    if r == generic_rank(graph, d):
        assert np.array_equal(model_field(graph, p, m_star), 0.5 * ref)
    else:
        with pytest.raises(RankDeficiencyError) as info:
            model_field(graph, p, m_star)
        assert info.value.rank == r


def test_one_size_rule_routes_rank_and_lift_through_the_certificate(monkeypatch, w5, p_star):
    # the certificate's size rule has one binding, in rigidity: lowering it
    # there alone sends the wheel (d*n = 10) through the Cholesky
    # certificate for a rank decision and for the model field, with no SVD,
    # no least-squares solve and no generic-rank draw
    m_star = distance_map(w5, p_star)
    p = Configuration(2, p_star.points + 0.05 * np.random.default_rng(5).standard_normal((5, 2)))
    e = m_star.values - distance_map(w5, p).values
    monkeypatch.setattr(rigidity_mod, "_CERTIFIED_MIN_SIZE", 0)
    x = _certified_solve(*_edge_vectors(w5, p), p, e)
    assert x is not None

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    monkeypatch.setattr(np.linalg, "lstsq", refuse("lstsq"))
    monkeypatch.setattr(rigidity_mod, "generic_rank", refuse("generic_rank"))
    assert is_regular_point(w5, p)
    assert np.array_equal(model_field(w5, p, m_star), 0.5 * x)
