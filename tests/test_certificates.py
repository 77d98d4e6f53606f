"""Certificates: restricted positive definiteness, admissibility, persistence."""

import gc

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
    algebraic_admissibility,
    Graph,
    build_graph,
    distance_map,
    dynamic_admissibility,
    is_generically_rigid,
    linearized_edge_matrix,
    orient,
    persistence_check,
    restricted_sym_form,
)
from rigidform.certificates import reduction_count
from rigidform.scenarios import builtin_scenario

from conftest import random_instance, random_orientation


def _spec_for(scn):
    return scn.controller_spec()


# ---------------------------------------------------------------- triangle

def test_cyclic_triangle_certificate_matches_hand_computation():
    # Equilateral triangle with unit sides and cyclic one-way sensing.
    # By hand: with P an orthonormal basis of Im R (full edge space here),
    # S = (1/2) P^T (Z + Z^T) P has Gram form 2*[[1, .25, .25], [.25, 1, .25],
    # [.25, .25, 1]], eigenvalues {3, 1.5, 1.5}; A itself has eigenvalues
    # {3, 1.5 +/- sqrt(3)/2 i}.
    scn = builtin_scenario("triangle-cyclic")
    rep = restricted_sym_form(_spec_for(scn), scn.target)
    assert rep.verdict == "pass"
    assert rep.min_sym_eigenvalue == pytest.approx(1.5, abs=1e-9)
    assert rep.rank_r == 3
    eigs = sorted(rep.spectrum, key=lambda z: (z.real, z.imag))
    assert eigs[0] == pytest.approx(1.5 - np.sqrt(3) / 2 * 1j, abs=1e-9)
    assert eigs[1] == pytest.approx(1.5 + np.sqrt(3) / 2 * 1j, abs=1e-9)
    assert eigs[2] == pytest.approx(3.0 + 0j, abs=1e-9)


# ------------------------------------------------------------- wheel targets

def test_wheel_certificate_discriminates_targets():
    good = builtin_scenario("w5-directed-good")
    bad = builtin_scenario("w5-directed-bad")
    rep_good = restricted_sym_form(_spec_for(good), good.target)
    rep_bad = restricted_sym_form(_spec_for(bad), bad.target)
    assert rep_good.verdict == "pass"
    assert rep_good.min_sym_eigenvalue > 0
    assert rep_bad.verdict == "fail"
    assert rep_bad.min_sym_eigenvalue < 0


def test_certificate_pass_implies_hurwitz_builtin():
    # Z1 on every built-in: a passing certificate forces Re(lambda) > 0 for
    # the whole restricted spectrum, so the edge-error flow -A is Hurwitz.
    from rigidform.scenarios import builtin_names

    seen_pass = 0
    for name in builtin_names():
        scn = builtin_scenario(name)
        rep = restricted_sym_form(_spec_for(scn), scn.target)
        if rep.verdict != "pass":
            continue
        seen_pass += 1
        lin = linearized_edge_matrix(_spec_for(scn), scn.target)
        assert len(lin.spectrum) == lin.rank_r == rep.rank_r
        assert min(z.real for z in lin.spectrum) > 0.0
    assert seen_pass >= 3


def test_gradient_certificate_passes_on_rigid_graphs(w5, p_star):
    spec = ControllerSpec(w5, "gradient", distance_map(w5, p_star))
    rep = restricted_sym_form(spec, p_star)
    assert rep.verdict == "pass"
    # gradient eta is symmetric, so A's spectrum is real and positive
    assert all(abs(z.imag) < 1e-10 for z in rep.spectrum)
    assert all(z.real > 0 for z in rep.spectrum)


def test_model_certificate_takes_one_svd(monkeypatch):
    # model eta is the projector onto Im R, so its restriction is exactly I_r
    # and needs no SVD beyond the one that finds the basis
    scn = builtin_scenario("w5-undirected")
    real = rigidity_mod._svd
    calls = []

    def counting(graph, p):
        calls.append(p)
        return real(graph, p)

    monkeypatch.setattr(rigidity_mod, "_svd", counting)
    rep = restricted_sym_form(scn.controller_spec("model"), scn.target)
    assert len(calls) == 1
    assert rep.verdict == "pass" and rep.min_sym_eigenvalue == 1.0
    assert rep.spectrum == (1.0,) * rep.rank_r


def test_certificate_indeterminate_off_regular_points(w5, w5_arrows):
    collinear = Configuration(2, [[float(i), float(i)] for i in range(5)])
    spec = ControllerSpec(w5, "directed", distance_map(w5, collinear), w5_arrows)
    rep = restricted_sym_form(spec, collinear)
    assert rep.verdict == "indeterminate"
    assert "regular" in rep.detail
    with pytest.raises(RankDeficiencyError):
        linearized_edge_matrix(spec, collinear)


def test_scale_covariance_of_verdict(w5, w5_arrows):
    # Z3: scaling the target configuration rescales S by c^2 but cannot flip
    # the verdict
    for name in ("w5-directed-good", "w5-directed-bad"):
        scn = builtin_scenario(name)
        base = restricted_sym_form(_spec_for(scn), scn.target)
        scaled_p = Configuration(2, 3.7 * scn.target.points)
        spec = ControllerSpec(
            scn.graph, "directed", distance_map(scn.graph, scaled_p), scn.orientation
        )
        scaled = restricted_sym_form(spec, scaled_p)
        assert scaled.verdict == base.verdict


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_basis_invariance_random(seed):
    # Z2: the spectrum of A is a property of the restriction, not the basis;
    # conjugating by any orthogonal Q preserves it
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng, n_max=6)
    m_star = distance_map(graph, p)
    spec = ControllerSpec(graph, "gradient", m_star)
    try:
        lin = linearized_edge_matrix(spec, p)
    except RankDeficiencyError:
        return
    Q, _ = np.linalg.qr(rng.standard_normal((lin.rank_r, lin.rank_r)))
    rotated = np.sort_complex(np.linalg.eigvals(Q.T @ lin.matrix @ Q))
    assert np.allclose(rotated, np.sort_complex(np.asarray(lin.spectrum)), atol=1e-8)


# ------------------------------------------------------------ admissibility

def test_admissibility_wheel_and_triangle():
    for name in ("w5-directed-good", "triangle-cyclic"):
        scn = builtin_scenario(name)
        dyn = dynamic_admissibility(scn.graph, "directed", scn.orientation, 2)
        alg = algebraic_admissibility(scn.graph, "directed", scn.orientation, 2)
        assert dyn.verdict == "pass"
        assert alg.verdict == "pass"
        assert len(dyn.per_sample) == len(alg.per_sample) == 5


def test_admissibility_gradient_rigid_graph(w5):
    dyn = dynamic_admissibility(w5, "gradient", None, 2)
    alg = algebraic_admissibility(w5, "gradient", None, 2)
    assert dyn.verdict == "pass" and alg.verdict == "pass"


def test_admissibility_shares_samples_and_hierarchy(w5, w5_arrows):
    # same seed => the two tests examine identical sampled targets, so the
    # spectra agree; and |Re z| <= |z| makes dynamic the stricter test (Z4)
    dyn = dynamic_admissibility(w5, "directed", w5_arrows, 2, seed=42)
    alg = algebraic_admissibility(w5, "directed", w5_arrows, 2, seed=42)
    for s_dyn, s_alg in zip(dyn.per_sample, alg.per_sample):
        assert np.allclose(
            np.asarray(s_dyn.spectrum), np.asarray(s_alg.spectrum), atol=0
        )
        assert s_dyn.margin <= s_alg.margin + 1e-15
    if dyn.verdict == "pass":
        assert alg.verdict == "pass"


def test_admissibility_deterministic(w5, w5_arrows):
    a = dynamic_admissibility(w5, "directed", w5_arrows, 2, seed=9)
    b = dynamic_admissibility(w5, "directed", w5_arrows, 2, seed=9)
    assert a.verdict == b.verdict
    for sa, sb in zip(a.per_sample, b.per_sample):
        assert sa.margin == sb.margin
        assert sa.spectrum == sb.spectrum


# -------------------------------------------------------------- persistence

def test_triangle_and_wheel_are_persistent(w5_arrows):
    tri = builtin_scenario("triangle-cyclic")
    rep = persistence_check(tri.orientation, 2)
    assert rep.verdict == "persistent"
    assert rep.reductions_checked == 1  # all out-degrees <= 2
    rep_w5 = persistence_check(w5_arrows, 2)
    assert rep_w5.verdict == "persistent"
    assert rep_w5.reductions_checked == 1


def test_fig4_is_not_persistent():
    scn = builtin_scenario("fig4-nonpersistent")
    rep = persistence_check(scn.orientation, 2)
    assert rep.verdict == "not persistent"
    # Z5: two vertices of out-degree 3 give C(3,2)^2 = 9 reductions
    assert rep.reductions_checked == 9
    assert reduction_count(scn.orientation, 2) == 9
    assert rep.witness is not None
    # the witness reduction really is flexible
    witness_graph = build_graph(6, [tuple(sorted(e)) for e in rep.witness])
    assert not is_generically_rigid(witness_graph, 2)


def test_persistence_cap_yields_indeterminate():
    scn = builtin_scenario("fig4-nonpersistent")
    rep = persistence_check(scn.orientation, 2, max_reductions=5)
    assert rep.verdict == "indeterminate"
    assert "9" in rep.detail


def test_persistence_leaves_no_reduction_graphs_alive():
    # generic ranks are memoized per graph object, so the reduction subgraphs
    # of a check, each ranked under a seed no other call used, die with it
    scn = builtin_scenario("fig4-nonpersistent")

    def live_graphs():
        gc.collect()
        return sum(isinstance(obj, Graph) for obj in gc.get_objects())

    before = live_graphs()
    rep = persistence_check(scn.orientation, 2, seed=918_273)
    assert rep.reductions_checked == 9
    assert live_graphs() == before


def test_persistence_rejects_bad_dimension(w5_arrows):
    with pytest.raises(ValueError):
        persistence_check(w5_arrows, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reduction_count_formula_random(seed):
    # Z5 on random orientations: the enumeration size is the product of
    # C(outdeg, d) over vertices with more than d out-edges
    from math import comb

    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng, n_max=6)
    del p
    o = random_orientation(rng, graph)
    d = 2
    expected = 1
    for v in range(graph.n):
        k = len(o.out_edges(v))
        if k > d:
            expected *= comb(k, d)
    assert reduction_count(o, d) == expected
    rep = persistence_check(o, d)
    if rep.verdict != "indeterminate":
        assert rep.reductions_checked == expected
