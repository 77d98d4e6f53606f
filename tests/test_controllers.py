"""Controller fields: hand-computed examples and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidform.controllers as controllers_mod
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

from rigidform.certificates import _diagonal_blocks
from rigidform.rigidity import (
    _certified_solve,
    _certify_full_rank,
    _edge_vectors,
    _min_norm_solve,
)

from conftest import random_graph, random_instance, random_orientation

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


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_squares_that_overflow_get_rank_verdicts(capfd, scale):
    # R is finite here but |D_k|^2 and R^T R are not; every function built on
    # R names the bound instead of returning NaN with an overflow warning,
    # which the suite's filterwarnings setting turns into a failure
    k4 = build_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    p = Configuration(2, scale * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    m_star = Measurement(np.ones(6))
    message = "coordinates exceed 1e+75: R^T R would overflow"
    spec = ControllerSpec(k4, "model", m_star)
    with pytest.raises(RankDeficiencyError) as info:
        model_field(k4, p, m_star)
    assert str(info.value) == message
    with pytest.raises(RankDeficiencyError) as info:
        field_gain(spec, p)
    assert str(info.value) == message
    assert not is_regular_point(k4, p)
    arrows = orient(k4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    for kind in ("gradient", "model", "directed"):
        spec = ControllerSpec(k4, kind, m_star, arrows if kind == "directed" else None)
        rep = restricted_sym_form(spec, p)
        assert rep.verdict == "indeterminate" and rep.detail == f"target: {message}"
    assert capfd.readouterr().err == ""


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


def _rigid_formation(n: int, rng: np.random.Generator):
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


@pytest.mark.parametrize("n", [20, 60])
def test_model_field_is_the_pseudoinverse_lift(n):
    # u = 1/2 R^+ (m* - m) and 2 R u = Pi (m* - m), against the SVD-based
    # pinv and projector
    graph, target, p = _rigid_formation(n, np.random.default_rng(n))
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
            _diagonal_blocks(o, p)[1])
    for got, want in zip(ours, _add_at_oracle(o, p, m_star)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def near_degenerate_frameworks(draw):
    """(graph, p, target) in d in {1, 2, 3} with n <= 8: a complete
    (rigid) or sparse (often flexible) graph, and points that are generic
    or a distance 10^-j, j in 3..12, from collinear or from two coinciding."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    d = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(min_value=2, max_value=8))
    shape = draw(st.sampled_from(["generic", "collinear", "coincident"]))
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if draw(st.booleans()):
        graph = build_graph(n, pairs)
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
    # the same with both solves with K refined on the certificate's factor,
    # as from _FACTORED_SOLVE_MIN_SIZE on; where the refinement stalls,
    # LU with K takes over
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity_mod, "_FACTORED_SOLVE_MIN_SIZE", 0)
        _check_certified_lift(case)


def _check_certified_lift(case):
    graph, p, target = case
    R = rigidity_matrix(graph, p)
    m_star = distance_map(graph, target)
    e = m_star.values - distance_map(graph, p).values
    x = _certified_solve(*_edge_vectors(graph, p), p, e)
    ref, r = _min_norm_solve(R, e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(controllers_mod, "_CERTIFIED_MIN_SIZE", 0)
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
    # routed through it, here at every size, are those of the SVD alone
    graph, p, _ = case
    R = rigidity_matrix(graph, p)
    if _certify_full_rank(*_edge_vectors(graph, p), p) is not None:
        assert matrix_rank(R) == max_generic_rank(graph.n, p.d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity_mod, "_CERTIFIED_MIN_SIZE", 0)
        routed = generic_rank(graph, p.d), is_regular_point(graph, p)
    svd_only = generic_rank(rigidity_mod.Graph(graph.n, graph.edges), p.d)
    assert routed == (svd_only, matrix_rank(R) == svd_only)


def test_rank_decisions_at_n60_take_no_svd(monkeypatch):
    # a certified draw reaches the ceiling and ends the generic-rank loop,
    # and the certificate decides regularity for the model restriction
    graph, target, _ = _rigid_formation(60, np.random.default_rng(61))
    spec = ControllerSpec(graph, "model", distance_map(graph, target))

    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert generic_rank(graph, 2) == max_generic_rank(60, 2) == 117
    assert is_regular_point(graph, target)
    rep = restricted_sym_form(spec, target)
    assert rep.verdict == "pass" and rep.spectrum == (1.0,) * 117


def _certified_lift_calls(monkeypatch, n):
    """The np.linalg calls of one model_field call on a rigid formation of
    n vertices, which must take no lstsq, SVD or generic-rank draw."""
    graph, target, p = _rigid_formation(n, np.random.default_rng(n))
    m_star = distance_map(graph, target)
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
    assert model_field(graph, p, m_star).shape == (2 * n,)
    return calls


def test_certified_lift_at_n60_takes_no_lstsq_svd_or_generic_rank(monkeypatch):
    # below _FACTORED_SOLVE_MIN_SIZE both solves with K are LU solves
    assert 120 < rigidity_mod._FACTORED_SOLVE_MIN_SIZE
    assert _certified_lift_calls(monkeypatch, 60) == ["cholesky", "solve", "solve"]


def test_certified_lift_at_n150_factors_once(monkeypatch):
    # one Cholesky, one batched inverse of its diagonal blocks, no dense solve
    assert 300 >= rigidity_mod._FACTORED_SOLVE_MIN_SIZE
    assert _certified_lift_calls(monkeypatch, 150) == ["cholesky", "inv"]


def test_refinement_that_cannot_converge_hands_both_solves_to_lu(monkeypatch):
    # a flat triangle, certified, with lambda_min(K) / delta between 1 and 2:
    # the refinement's iteration matrix -delta M^-1 has spectral radius
    # delta / (lambda_min - delta) > 1, so the residual grows, both solves
    # with K fall to LU, and the lift is bit for bit the LU-only one
    graph = build_graph(3, [(1, 2), (1, 3), (2, 3)])
    p = Configuration(2, [[0.0, 0.0], [1.0, 0.0], [0.5, 2e-4]])
    m_star = Measurement([1.0, 1.0, 1.0])
    index, D = _edge_vectors(graph, p)
    certificate = _certify_full_rank(index, D, p, np.sqrt(np.finfo(float).eps))
    assert certificate is not None
    ratio = (np.linalg.eigvalsh(certificate.M)[0] + certificate.delta) / certificate.delta
    assert 1.0 < ratio < 2.0
    e = m_star.values - distance_map(graph, p).values
    lu_only = _certified_solve(index, D, p, e)
    monkeypatch.setattr(rigidity_mod, "_FACTORED_SOLVE_MIN_SIZE", 0)
    solves, substitutions = [], []
    real_solve, real_substitute = np.linalg.solve, rigidity_mod._Certificate.substitute
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or real_solve(*a))
    monkeypatch.setattr(rigidity_mod._Certificate, "substitute",
                        lambda self, c: substitutions.append(1) or real_substitute(self, c))
    x = _certified_solve(index, D, p, e)
    assert len(solves) == 2 and len(substitutions) >= 2
    assert np.array_equal(x, lu_only)
    monkeypatch.setattr(controllers_mod, "_CERTIFIED_MIN_SIZE", 0)
    assert np.array_equal(model_field(graph, p, m_star), 0.5 * x)
    ref, r = _min_norm_solve(rigidity_matrix(graph, p), e)
    assert r == 3 and np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)
