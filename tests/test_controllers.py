"""Controller fields: hand-computed examples and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    gradient_field,
    model_field,
    node_potential,
    orient,
    projector,
    rigidity_matrix,
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


def test_gradient_single_edge():
    ev = gradient_field(PAIR, PAIR_P, PAIR_M)
    assert np.allclose(ev.u, [-3.0, 3.0])
    assert np.allclose(ev.v, [12.0])  # v = 2R u = 2*(3+3)


def test_model_single_edge():
    ev = model_field(PAIR, PAIR_P, PAIR_M)
    assert np.allclose(ev.u, [-0.75, 0.75])
    assert np.allclose(ev.v, [3.0])  # the full projected error: Im R = R^1


def test_directed_single_edge():
    o = orient(PAIR, [(1, 2)])
    ev = directed_field(o, PAIR_P, PAIR_M)
    assert np.allclose(ev.u, [-3.0, 0.0])
    assert np.allclose(ev.v, [6.0])


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


def test_gradient_sums_both_orientations(w5, p_star, w5_arrows):
    # the two-way field is the sum of the one-way field and its reverse
    m_star = Measurement(np.full(8, 3.0))
    u_fwd = directed_field(w5_arrows, p_star, m_star).u
    u_rev = directed_field(w5_arrows.reversed(), p_star, m_star).u
    u_grad = gradient_field(w5, p_star, m_star).u
    assert np.allclose(u_fwd + u_rev, u_grad, atol=1e-12)


def test_model_field_matches_projected_error(w5, p_star):
    # C3 (first half): the model controller's edge velocity is the projected
    # error, v = -Pi (m - m*)
    rng = np.random.default_rng(3)
    m_star = Measurement(distance_map(w5, p_star).values + 0.3 * rng.standard_normal(8))
    ev = model_field(w5, p_star, m_star)
    Pi = projector(w5, p_star)
    e = m_star.values - distance_map(w5, p_star).values
    assert np.allclose(ev.v, Pi @ e, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tangency_random(seed):
    # C1: v = 2 R u for every controller kind at every evaluation, in every
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
                ev = evaluate_field(spec, p)
            except RankDeficiencyError:
                continue  # random instance happened to be non-regular
            vnorm = float(np.linalg.norm(ev.v))
            assert np.linalg.norm(ev.v - 2.0 * R @ ev.u) <= 1e-10 * (1.0 + vnorm)
            if kind in reference:
                ref = reference[kind]
                assert np.linalg.norm(ev.u - ref) <= 1e-12 * np.linalg.norm(ref)


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
            ev = evaluate_field(spec, p)
        except RankDeficiencyError:
            continue
        assert np.all(ev.u == 0.0)


def test_directed_locality(w5, p_star, w5_arrows):
    # C5: agent i's command depends only on its own position and the heads
    # of its out-edges.  Node 2's single out-edge is 2->3, so moving nodes
    # 1, 4, 5 must not change u_2.
    m_star = Measurement(np.full(8, 3.0))
    u_before = directed_field(w5_arrows, p_star, m_star).u.reshape(5, 2)
    moved = p_star.points.copy()
    rng = np.random.default_rng(11)
    for node in (0, 3, 4):
        moved[node] += rng.standard_normal(2)
    u_after = directed_field(
        w5_arrows, Configuration(2, moved), m_star
    ).u.reshape(5, 2)
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
            ev = evaluate_field(spec, p_star)
            assert np.linalg.norm(ev.u) <= field_gain(spec, p_star) * np.linalg.norm(e) + 1e-12
