"""Certificates: restricted positive definiteness, admissibility, persistence."""

import gc
from dataclasses import asdict
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import rigidform.rigidity as rigidity_mod
from rigidform import (
    Configuration,
    ControllerSpec,
    Measurement,
    RankDeficiencyError,
    admissibility,
    algebraic_admissibility,
    Graph,
    build_graph,
    distance_map,
    dynamic_admissibility,
    eta_matrix,
    is_generically_rigid,
    linearized_edge_matrix,
    matrix_rank,
    orient,
    persistence_check,
    restricted_sym_form,
    rigidity_matrix,
    tangent_basis,
)
from rigidform.certificates import _diagonal_blocks, _directed_spectrum, reduction_count
from rigidform.scenarios import builtin_names, builtin_scenario

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

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rigidity_mod, "_svd", counting)
    rep = restricted_sym_form(scn.controller_spec("model"), scn.target)
    assert len(calls) == 1
    assert rep.verdict == "pass" and rep.min_sym_eigenvalue == 1.0
    assert rep.spectrum == (1.0,) * rep.rank_r


# ------------------------------------------------------------- closed forms

def _assert_same_spectrum(got, ref, rtol=1e-10):
    # pair each eigenvalue with its nearest counterpart, so that rounding
    # cannot reorder near-equal ones; relative to the spectral radius, as a
    # directed operator may have eigenvalues at rounding level around zero
    got, ref = np.asarray(got, dtype=complex), np.asarray(ref, dtype=complex)
    assert got.shape == ref.shape
    rows, cols = linear_sum_assignment(np.abs(got[:, None] - ref[None, :]))
    assert np.abs(got[rows] - ref[cols]).max() <= rtol * np.abs(ref).max()


def _assert_matches_reference(spec, p):
    # the closed forms against their definition A = P^T eta P, P = U_r
    P = tangent_basis(spec.graph, p).matrix
    A_ref = P.T @ eta_matrix(spec, p) @ P
    lin = linearized_edge_matrix(spec, p)
    assert lin.rank_r == P.shape[1]
    assert np.linalg.norm(lin.matrix - A_ref) <= 1e-10 * np.linalg.norm(A_ref)
    _assert_same_spectrum(lin.spectrum, np.linalg.eigvals(A_ref))
    rep = restricted_sym_form(spec, p)
    sym_ref = np.linalg.eigvalsh(0.5 * (A_ref + A_ref.T))
    norm = np.abs(sym_ref).max()
    assert rep.spectral_norm == pytest.approx(norm, rel=1e-10)
    assert abs(rep.min_sym_eigenvalue - sym_ref[0]) <= 1e-10 * norm
    assert rep.spectrum == lin.spectrum


def test_closed_forms_match_the_definition_on_builtins():
    for name in builtin_names():
        scn = builtin_scenario(name)
        kinds = ("gradient", "model") + (("directed",) if scn.orientation else ())
        for kind in kinds:
            _assert_matches_reference(scn.controller_spec(kind), scn.target)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_closed_forms_match_the_definition_random(seed):
    rng = np.random.default_rng(seed)
    n = 20
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    graph = build_graph(n, [e for e in pairs if rng.random() < 0.25])
    p = Configuration(2, rng.uniform(-1.0, 1.0, size=(n, 2)))
    m_star = distance_map(graph, p)
    for spec in (
        ControllerSpec(graph, "gradient", m_star),
        ControllerSpec(graph, "model", m_star),
        ControllerSpec(graph, "directed", m_star, random_orientation(rng, graph)),
    ):
        _assert_matches_reference(spec, p)


@pytest.mark.parametrize("kind", ["gradient", "model", "directed"])
def test_eigensolves_per_certificate(monkeypatch, kind):
    # gradient and model restrictions are diagonal, read off the singular
    # values; only the directed one needs eigensolves
    calls = []
    for name in ("eigvals", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    scn = builtin_scenario("w5-directed-good")
    spec = scn.controller_spec(kind)
    restricted_sym_form(spec, scn.target)
    linearized_edge_matrix(spec, scn.target)
    dynamic_admissibility(scn.graph, kind, spec.orientation, 2, samples=2)
    if kind == "directed":
        assert sorted(calls) == ["eigvals"] * 4 + ["eigvalsh"]
    else:
        assert calls == []


def _acyclic_henneberg(n, seed):
    # each new vertex joins two earlier ones and senses both (the tail is
    # the later vertex), so every strongly connected component is a vertex
    rng = np.random.default_rng(seed)
    arrows = [(2, 1)]
    for v in range(3, n + 1):
        arrows += [(v, int(h) + 1) for h in rng.choice(v - 1, size=2, replace=False)]
    graph = build_graph(n, arrows)
    return graph, orient(graph, arrows), Configuration(2, rng.uniform(-1.0, 1.0, size=(n, 2)))


def test_acyclic_spectrum_is_the_vertex_blocks():
    # chi_M = x^(dn - r) chi_A for M = 2 Rdir^T R, whose blocks over an
    # acyclic orientation are triangular: A's eigenvalues are those of the
    # vertex blocks sum 2 D_k D_k^T over the out-edges, less the dn - r = 3
    # smallest (the leader's two and the one of vertex 2, of one out-edge)
    graph, orientation, p = _acyclic_henneberg(60, seed=3)
    spec = ControllerSpec(graph, "directed", distance_map(graph, p), orientation)
    lin = linearized_edge_matrix(spec, p)
    ref = []
    for v in range(graph.n):
        block = np.zeros((2, 2))
        for k in orientation.out_edges(v):
            D = p.points[v] - p.points[orientation.heads[k]]
            block += 2.0 * np.outer(D, D)
        ref.extend(np.linalg.eigvalsh(block))
    ref = np.sort(ref)[3:]
    got = np.asarray(lin.spectrum)
    assert lin.rank_r == got.size == ref.size == 2 * graph.n - 3
    assert np.abs(got - ref).max() <= 1e-12 * ref[-1]


def _dense_directed_spectrum(orientation, p, r):
    """The directed spectrum with every larger component's block cut from
    the whole dense (n, d, n, d) M = 2 Rdir^T R."""
    T, H = orientation.arrows
    n, d = p.n, p.d
    outer, blocks = _diagonal_blocks(orientation, p)
    singles, larger = orientation.strong_components
    eigs = [np.linalg.eigvalsh(blocks[singles]).ravel()] if singles.size else []
    M = np.zeros((n, d, n, d))
    M[np.arange(n), :, np.arange(n), :] = blocks
    M[T, :, H, :] = -outer
    for c in larger:
        eigs.append(np.linalg.eigvals(M[c][:, :, c].reshape(c.size * d, c.size * d)))
    eigs = np.concatenate(eigs)
    return eigs[np.argsort(np.abs(eigs), kind="stable")[d * n - r:]]


def _henneberg_with_one_cycle(n, seed):
    # each new vertex v senses both ends a -> b of an earlier arrow, as in the
    # benchmark's formations; flipping the last vertex's arrow to b closes
    # the one cycle b -> v -> a -> b
    rng = np.random.default_rng(seed)
    arrows = [(2, 1)]
    for v in range(3, n + 1):
        a, b = arrows[int(rng.integers(len(arrows)))]
        arrows += [(v, a), (v, b)]
    v, b = arrows[-1]
    arrows[-1] = (b, v)
    graph = build_graph(n, arrows)
    return orient(graph, arrows), Configuration(2, rng.uniform(-1.0, 1.0, size=(n, 2)))


def test_component_blocks_equal_the_dense_construction():
    cases = [(scn.orientation, scn.target) for scn in map(builtin_scenario, builtin_names())
             if scn.orientation is not None and scn.orientation.strong_components[1]]
    cases.append(_henneberg_with_one_cycle(150, seed=1))
    assert len(cases) >= 3
    for orientation, p in cases:
        r = matrix_rank(rigidity_matrix(orientation.graph, p))
        assert np.array_equal(_directed_spectrum(orientation, p, r),
                              _dense_directed_spectrum(orientation, p, r))
    assert [c.size for c in cases[-1][0].strong_components[1]] == [3]


def test_acyclic_admissibility_takes_no_eigvals_and_no_basis(monkeypatch):
    # the spectrum comes from symmetric vertex blocks and r from the
    # Cholesky certificate (d*n = 120), so no general eigensolve, no U or V
    # and no SVD at all is needed
    graph, orientation, _ = _acyclic_henneberg(60, seed=3)
    eigvals_calls, svd_uv, certified = [], [], []
    real_eigvals, real_svd = np.linalg.eigvals, np.linalg.svd
    real_certify = rigidity_mod._certify_full_rank

    def eigvals(*args, **kwargs):
        eigvals_calls.append(args)
        return real_eigvals(*args, **kwargs)

    def svd(a, *args, compute_uv=True, **kwargs):
        svd_uv.append(compute_uv)
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    def certify(*args, **kwargs):
        K = real_certify(*args, **kwargs)
        certified.append(K is not None)
        return K

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(rigidity_mod, "_certify_full_rank", certify)
    dyn, _ = admissibility(graph, "directed", orientation, 2)
    assert len(dyn.per_sample) == 5
    assert eigvals_calls == []
    assert not any(svd_uv)
    assert certified == [True] * 5 and svd_uv == []


@pytest.mark.parametrize("kind", ["gradient", "model", "directed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certificate_indeterminate_at_non_finite_target(capfd, w5, w5_arrows, p_star, kind, bad):
    pts = p_star.points.copy()
    pts[4, 0] = bad
    spec = ControllerSpec(w5, kind, distance_map(w5, p_star),
                          w5_arrows if kind == "directed" else None)
    rep = restricted_sym_form(spec, Configuration(2, pts))
    assert rep.verdict == "indeterminate" and rep.rank_r is None
    assert rep.detail == "target: configuration is not finite"
    assert capfd.readouterr().err == ""


def test_negative_seed_is_named(w5):
    scn = builtin_scenario("w5-directed-good")
    message = "seed must be a non-negative integer, got -1"
    with pytest.raises(ValueError, match=message):
        restricted_sym_form(scn.controller_spec(), scn.target, seed=-1)
    with pytest.raises(ValueError, match=message):
        admissibility(w5, "gradient", None, 2, seed=-1)


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


@pytest.mark.parametrize("kind", ["gradient", "model", "directed"])
def test_admissibility_shares_samples_and_hierarchy(w5, w5_arrows, kind):
    # same seed => the two tests examine identical sampled targets, so the
    # spectra agree; and |Re z| <= |z| makes dynamic the stricter test (Z4);
    # the one-pass pair is exactly the two named reports
    dyn = dynamic_admissibility(w5, kind, w5_arrows, 2, seed=42)
    alg = algebraic_admissibility(w5, kind, w5_arrows, 2, seed=42)
    pair = admissibility(w5, kind, w5_arrows, 2, seed=42)
    assert [asdict(rep) for rep in pair] == [asdict(dyn), asdict(alg)]
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


@pytest.mark.parametrize("samples", [0, -2, 2.5])
def test_admissibility_needs_a_positive_sample_count(w5, samples):
    # zero samples would be a vacuous pass, and SeedSequence rejects negatives
    with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}"):
        admissibility(w5, "gradient", None, 2, samples=samples)


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
    # vertices 1, 2, 3 each sense the same 30 others: C(30, 2)^3 = 82,312,875
    # reductions, counted without enumerating them
    sensed = range(4, 34)
    graph = build_graph(33, [(t, h) for t in (1, 2, 3) for h in sensed])
    orientation = orient(graph, [(t, h) for t in (1, 2, 3) for h in sensed])
    rep = persistence_check(orientation, 2)
    assert rep.verdict == "indeterminate"
    assert rep.reductions_checked == 0
    assert str(reduction_count(orientation, 2)) in rep.detail


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


def test_persistence_keeps_one_set_of_draws_per_graph():
    # the row-subset draws are kept for the newest (d, seed) only, so checks
    # at many seeds hold one set of rigidity matrices, not one per seed
    scn = builtin_scenario("fig4-nonpersistent")
    for seed in range(50):
        persistence_check(scn.orientation, 2, seed=seed)
    assert list(scn.graph._draw_memo) == [(2, 49)]


def test_persistence_ranks_each_reduction_up_to_the_witness(monkeypatch):
    # one is_generically_rigid call per reduction ranked, each a row subset
    # of the orientation's own graph, and none after the witness
    import rigidform.certificates as certificates_mod

    scn = builtin_scenario("fig4-nonpersistent")
    calls = []
    real = certificates_mod.is_generically_rigid

    def counting(graph, d, seed=0, edges=None):
        verdict = real(graph, d, seed, edges=edges)
        calls.append((graph, tuple(edges), verdict))
        return verdict

    monkeypatch.setattr(certificates_mod, "is_generically_rigid", counting)
    rep = persistence_check(scn.orientation, 2)
    assert rep.verdict == "not persistent" and 1 <= len(calls) <= 9
    assert all(g is scn.graph for g, _, _ in calls)
    assert [v for _, _, v in calls] == [True] * (len(calls) - 1) + [False]
    labels = scn.orientation.directed_labels
    assert tuple(labels[k] for k in calls[-1][1]) == rep.witness


def _reference_persistence(orientation, d, seed):
    # the enumeration with one Graph and one generic-rank estimate per
    # reduction: (verdict, reductions, witness)
    graph = orientation.graph
    heavy = [v for v in range(graph.n) if len(orientation.out_edges(v)) > d]
    fixed = [k for k in range(graph.num_edges) if orientation.tails[k] not in heavy]
    choices = [tuple(combinations(orientation.out_edges(v), d)) for v in heavy]
    total = reduction_count(orientation, d)
    for chosen in product(*choices):
        kept = sorted(fixed + [k for combo in chosen for k in combo])
        sub = Graph(graph.n, tuple(graph.edges[k] for k in kept))
        if not is_generically_rigid(sub, d, seed):
            labels = orientation.directed_labels
            return "not persistent", total, tuple(labels[k] for k in kept)
    return "persistent", total, None


def _assert_persistence_matches_reference(orientation, d, seed):
    rep = persistence_check(orientation, d, seed)
    ref = _reference_persistence(orientation, d, seed)
    assert (rep.verdict, rep.reductions_checked, rep.witness) == ref


def test_persistence_matches_reference_on_builtins():
    for name in builtin_names():
        scn = builtin_scenario(name)
        if scn.orientation is not None:
            for seed in (0, 1):
                _assert_persistence_matches_reference(scn.orientation, scn.d, seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_persistence_matches_reference_random(seed):
    rng = np.random.default_rng(seed)
    graph, p = random_instance(rng, n_max=7)
    o = random_orientation(rng, graph)
    for d in (2, 3):
        if reduction_count(o, d) <= 2000:
            _assert_persistence_matches_reference(o, d, seed)


def test_persistence_rejects_bad_dimension(w5_arrows):
    with pytest.raises(ValueError):
        persistence_check(w5_arrows, 1)


@pytest.mark.parametrize("d", [2.0, 2.5])
def test_persistence_names_a_dimension_that_is_no_integer(w5_arrows, d):
    with pytest.raises(ValueError, match=f"dimension must be a positive integer, got {d}"):
        persistence_check(w5_arrows, d)


@pytest.mark.parametrize("kind, oriented, d, message", [
    ("foo", False, 2, "unknown controller kind 'foo'"),
    ("directed", False, 2, "directed controller requires an orientation"),
    ("gradient", False, 2.0, "dimension must be a positive integer, got 2.0"),
    ("directed", True, 2.5, "dimension must be a positive integer, got 2.5"),
], ids=["unknown-kind", "directed-without-orientation", "float-dimension", "fractional-dimension"])
def test_admissibility_names_its_controller_and_dimension(w5, w5_arrows, kind, oriented, d, message):
    # the rule ControllerSpec keeps, not a gradient verdict for an unknown kind
    with pytest.raises(ValueError, match=message):
        admissibility(w5, kind, w5_arrows if oriented else None, d)


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
