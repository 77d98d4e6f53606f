"""Certificates: restricted positive definiteness, admissibility, persistence."""

import gc
import tracemalloc
from dataclasses import asdict
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import rigidform.certificates as certificates_mod
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
from rigidform.certificates import (
    _directed_spectrum,
    _sorted_spectrum,
    _spectrum,
    reduction_count,
)
from rigidform.rigidity import _edge_vectors, _tail_blocks, max_generic_rank
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
    # and needs no SVD beyond the one that finds the rank; that rank is the
    # largest the wheel can have, so no generic-rank draw is taken either
    scn = builtin_scenario("w5-undirected")
    real = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
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


def _henneberg(d, n, rng):
    """(graph, p): a Henneberg graph in R^d, each vertex after the first d
    joined to d earlier ones, plus n // 2 random chords, at points uniform
    in [-1, 1]^d: generically rigid, so the certificate is issued at
    almost every draw."""
    edges = {(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)}
    for v in range(d + 1, n + 1):
        edges.update((int(h) + 1, v) for h in rng.choice(v - 1, size=d, replace=False))
    for _ in range(n // 2):
        i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
        edges.add((int(i), int(j)))
    return build_graph(n, sorted(edges)), Configuration(d, rng.uniform(-1.0, 1.0, size=(n, d)))


def _certified(graph, p):
    return rigidity_mod._certify_full_rank(*_edge_vectors(graph, p), p) is not None


@pytest.mark.parametrize("d, n", [(2, 18), (2, 30), (2, 60), (3, 12), (3, 24), (3, 40)])
def test_certified_routes_match_the_definition(monkeypatch, d, n):
    # d*n from 36 to 120, where the certificate is issued: the gradient A
    # from the eigenvalues of R^T R (at every size here, not only from
    # _GRAM_EIGENSOLVE_MIN_SIZE on) and the directed symmetric part in the
    # QR basis of Im R, against A = U_r^T eta U_r
    monkeypatch.setattr(rigidity_mod, "_GRAM_EIGENSOLVE_MIN_SIZE", 0)
    rng = np.random.default_rng(100 * d + n)
    graph, p = _henneberg(d, n, rng)
    assert _certified(graph, p)
    m_star = distance_map(graph, p)
    for spec in (
        ControllerSpec(graph, "gradient", m_star),
        ControllerSpec(graph, "model", m_star),
        ControllerSpec(graph, "directed", m_star, random_orientation(rng, graph)),
    ):
        _assert_matches_reference(spec, p)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(min_value=36, max_value=90),
       st.sampled_from([None, 2, 4, 6, 8]), st.integers(min_value=0, max_value=2**32 - 1))
def test_gram_eigenvalues_are_the_squared_singular_values(d, size, near, seed):
    # wherever the certificate is issued, in d = 1, 2, 3 and also with the
    # last vertex 10^-near from the first, the gradient spectrum from one
    # eigensolve of R^T R is 2 s_r^2 of the SVD, and no SVD is taken
    rng = np.random.default_rng(seed)
    graph, p = _henneberg(d, -(-size // d), rng)
    if near is not None:
        pts = p.points.copy()
        pts[-1] = pts[0] + 10.0**-near * rng.standard_normal(d)
        p = Configuration(d, pts)
    assume(_certified(graph, p))
    s = np.linalg.svd(rigidity_matrix(graph, p), compute_uv=False)
    want = 2.0 * s[: max_generic_rank(graph.n, d)] ** 2

    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rigidity_mod, "_GRAM_EIGENSOLVE_MIN_SIZE", 0)
        mp.setattr(np.linalg, "svd", refuse)
        got = _spectrum(graph, "gradient", None, p, 0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * want[0]


def test_certified_gradient_and_directed_tests_take_no_svd(monkeypatch):
    # at d*n = 120, from _GRAM_EIGENSOLVE_MIN_SIZE on, with the certificate
    # issued: the gradient spectrum, its restriction, the directed
    # symmetric part and gradient admissibility run no SVD, and each call
    # takes the certificate once
    rng = np.random.default_rng(60)
    graph, p = _henneberg(2, 60, rng)
    assert _certified(graph, p)
    orientation = random_orientation(rng, graph)
    certified, real_certify = [], rigidity_mod._certify_full_rank

    def certify(*args, **kwargs):
        certificate = real_certify(*args, **kwargs)
        certified.append(certificate is not None)
        return certificate

    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(rigidity_mod, "_certify_full_rank", certify)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    m_star = distance_map(graph, p)
    for spec in (ControllerSpec(graph, "gradient", m_star),
                 ControllerSpec(graph, "directed", m_star, orientation)):
        assert restricted_sym_form(spec, p).rank_r == 117
    assert linearized_edge_matrix(ControllerSpec(graph, "gradient", m_star), p).rank_r == 117
    dyn, _ = admissibility(graph, "gradient", None, 2, samples=2)
    assert [len(sample.spectrum) for sample in dyn.per_sample] == [117, 117]
    assert certified == [True] * 5
    # the seed is named on the certified routes too
    for spec in (ControllerSpec(graph, "gradient", m_star),
                 ControllerSpec(graph, "directed", m_star, orientation)):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            restricted_sym_form(spec, p, seed=-1)


def _svd_path(spec, p):
    """The gradient spectrum and the directed (A, symmetric part's
    eigenvalues) as the SVD of R gives them, step for step."""
    R = rigidity_matrix(spec.graph, p)
    if spec.kind == "gradient":
        s = np.linalg.svd(R, compute_uv=False)
        return 2.0 * s[: matrix_rank(R)] ** 2
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    r = matrix_rank(R)
    RdirV = rigidity_mod.directed_rigidity_matrix(spec.orientation, p) @ Vt[:r].T
    A = 2.0 * s[:r, None] * (RdirV.T @ U[:, :r])
    return A, np.linalg.eigvalsh(0.5 * (A + A.T))


def _near_rank_loss(n, t, seed):
    """(graph, p, orientation): a Henneberg plane formation on n - 1
    vertices and a last vertex joined to vertices 1 and 2 alone, placed
    10^-7 off the line through them at parameter t: R has full rank, with
    sigma_min / sigma_max about 1e-8, too small for the certificate."""
    rng = np.random.default_rng(seed)
    graph, p = _henneberg(2, n - 1, rng)
    a, b = p.points[0], p.points[1]
    off = a + t * (b - a) + 1e-7 * np.array([a[1] - b[1], b[0] - a[0]])
    graph = build_graph(n, list(graph.edge_labels) + [(1, n), (2, n)])
    p = Configuration(2, np.vstack([p.points, off]))
    return graph, p, random_orientation(rng, graph)


@pytest.mark.parametrize("n, t", [(60, 0.5), (60, 2.0), (19, 0.3)])
def test_failed_certificate_keeps_the_svd_path(n, t):
    # near rank loss the Cholesky fails: the gradient spectrum, its
    # restriction and the directed symmetric part are those of the SVD, bit
    # for bit, and the verdicts and ranks with them
    graph, p, orientation = _near_rank_loss(n, t, seed=n)
    R = rigidity_matrix(graph, p)
    assert matrix_rank(R) == max_generic_rank(n, 2) and not _certified(graph, p)
    m_star = distance_map(graph, p)
    gradient = ControllerSpec(graph, "gradient", m_star)
    want = _svd_path(gradient, p)
    assert np.array_equal(_spectrum(graph, "gradient", None, p, 0), want)
    rep = restricted_sym_form(gradient, p)
    assert rep.spectrum == tuple(complex(z) for z in np.sort(want))
    assert rep.min_sym_eigenvalue == float(np.sort(want)[0])
    assert rep.spectral_norm == float(want.max())
    directed = ControllerSpec(graph, "directed", m_star, orientation)
    A, sym = _svd_path(directed, p)
    rep = restricted_sym_form(directed, p)
    assert rep.min_sym_eigenvalue == float(sym[0])
    assert rep.spectral_norm == float(np.abs(sym).max())
    assert rep.spectrum == linearized_edge_matrix(directed, p).spectrum
    assert np.array_equal(linearized_edge_matrix(directed, p).matrix, A)


@pytest.mark.parametrize("kind", ["gradient", "directed"])
def test_collinear_plane_frame_raises_as_the_svd_path(kind):
    # collinear points in the plane, d*n = 120: no certificate, and the
    # same rank and named error as the SVD rule gives
    n = 60
    rng = np.random.default_rng(7)
    graph, _ = _henneberg(2, n, rng)
    p = Configuration(2, np.outer(rng.uniform(-1.0, 1.0, n), [0.6, 0.8]))
    assert not _certified(graph, p)
    r = matrix_rank(rigidity_matrix(graph, p))
    message = f"not a regular point: rank {r} != generic rank {max_generic_rank(n, 2)}"
    orientation = random_orientation(rng, graph) if kind == "directed" else None
    with pytest.raises(RankDeficiencyError, match=message) as info:
        _spectrum(graph, kind, orientation, p, 0)
    assert info.value.rank == r
    rep = restricted_sym_form(ControllerSpec(graph, kind, distance_map(graph, p), orientation), p)
    assert (rep.verdict, rep.rank_r, rep.detail) == ("indeterminate", r, f"target: {message}")


def test_admissibility_without_certificates_keeps_the_svd_spectra(monkeypatch):
    # with every Cholesky failing, each gradient sample's spectrum is the
    # SVD's 2 s_r^2 at that sample, bit for bit
    n, seed, samples = 60, 3, 3
    graph, _ = _henneberg(2, n, np.random.default_rng(n))
    monkeypatch.setattr(rigidity_mod, "_certify_full_rank", lambda *args, **kwargs: None)
    dyn, alg = admissibility(graph, "gradient", None, 2, samples, seed)
    for i, (d_sample, a_sample) in enumerate(zip(dyn.per_sample, alg.per_sample)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        p = Configuration(2, rng.uniform(-1.0, 1.0, size=(n, 2)))
        want = _svd_path(ControllerSpec(graph, "gradient", distance_map(graph, p)), p)
        assert d_sample.spectrum == a_sample.spectrum == _sorted_spectrum(want)
        assert d_sample.spectral_norm == float(np.abs(want).max())
        assert d_sample.margin == float(np.abs(want).min())


def _key_sorted_spectrum(eigs):
    # the sort that _sorted_spectrum replaced
    return tuple(sorted((complex(z) for z in eigs), key=lambda z: (z.real, z.imag)))


def _bits(spectrum):
    return [(z.real, np.signbit(z.real), z.imag, np.signbit(z.imag)) for z in spectrum]


_TIES = [-1.5, -0.0, 0.0, 0.5, 2.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TIES), st.sampled_from(_TIES)), max_size=12),
       st.booleans())
def test_sorted_spectrum_is_the_key_order(pairs, real):
    # ties in the real part, in both parts, and -0.0 beside 0.0: the same
    # tuple, sign bits included, for real and for complex arrays
    if real:
        eigs = np.array([a for a, _ in pairs], dtype=float)
    else:
        eigs = np.array([complex(a, b) for a, b in pairs], dtype=complex)
    got = _sorted_spectrum(eigs)
    assert all(type(z) is complex for z in got)
    assert _bits(got) == _bits(_key_sorted_spectrum(eigs))


@pytest.mark.parametrize("kind", ["gradient", "model", "directed"])
def test_eigensolves_per_certificate(monkeypatch, kind):
    # on the wheel (d*n = 10) the gradient and model restrictions are
    # diagonal, read off the singular values; only the directed one needs
    # eigensolves
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
    outer, blocks = _tail_blocks(*_edge_vectors(orientation.graph, p, orientation))
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
    # named before the enumeration's size is judged: this one is too large
    # to rank (test_persistence_cap_yields_indeterminate)
    sensed = range(4, 34)
    graph = build_graph(33, [(t, h) for t in (1, 2, 3) for h in sensed])
    orientation = orient(graph, [(t, h) for t in (1, 2, 3) for h in sensed])
    with pytest.raises(ValueError, match=message):
        persistence_check(orientation, 2, seed=-1)


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


def _refuse_spectrum_draws(monkeypatch, refused):
    """Patch ``_spectrum`` to raise RankDeficiencyError at its first
    ``refused`` calls; returns the configurations it was called at."""
    real = certificates_mod._spectrum
    drawn = []

    def spectrum(graph, kind, orientation, p, seed):
        drawn.append(p.points.copy())
        if len(drawn) <= refused:
            raise RankDeficiencyError("refused")
        return real(graph, kind, orientation, p, seed)

    monkeypatch.setattr(certificates_mod, "_spectrum", spectrum)
    return drawn


def test_admissibility_redraws_a_refused_sample(monkeypatch, w5):
    # the sample is the stream's second draw, and its spectrum is the report's
    first_only = admissibility(w5, "gradient", None, 2, samples=1, seed=7)
    drawn = _refuse_spectrum_draws(monkeypatch, refused=1)
    dyn, alg = admissibility(w5, "gradient", None, 2, samples=1, seed=7)
    assert len(drawn) == 2
    rng = np.random.default_rng(np.random.SeedSequence(7).spawn(1)[0])
    for points in drawn:
        assert np.array_equal(points, rng.uniform(-1.0, 1.0, size=(5, 2)))
    monkeypatch.undo()
    q = Configuration(2, drawn[1])
    expected = restricted_sym_form(ControllerSpec(w5, "gradient", distance_map(w5, q)), q)
    assert dyn.per_sample[0].spectrum == alg.per_sample[0].spectrum == expected.spectrum
    assert dyn.per_sample[0].spectrum != first_only[0].per_sample[0].spectrum


@pytest.mark.parametrize("samples", [3, 10**5])
def test_admissibility_resample_cap_is_a_named_error(monkeypatch, w5, samples):
    # the first sample's stream is made as it is drawn, not all of them up
    # front, so a huge sample count costs no memory before the error
    drawn = _refuse_spectrum_draws(monkeypatch, refused=10**9)
    tracemalloc.start()
    try:
        with pytest.raises(RankDeficiencyError,
                           match="failed to sample a regular configuration in 50 tries"):
            admissibility(w5, "gradient", None, 2, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(drawn) == certificates_mod._RESAMPLE_CAP == 50
    assert peak < 4 * 2**20


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


def _layered_orientation(degrees, gadget_at=None, seed=0):
    # Vertex 1 senses vertex 0, vertex 2 both, and each later vertex the next
    # entry of ``degrees`` earlier vertices, so every out-degree-2 reduction
    # is a Henneberg construction: persistent.  A gadget at ``gadget_at``
    # adds three vertices that each sense a common anchor, one other earlier
    # vertex and the next of the three in a cycle; the reduction in which
    # all three keep the anchor and the cycle hangs a K4 on the rest by the
    # anchor alone, so the orientation is not persistent.
    rng = np.random.default_rng(seed)
    arcs, queue, n = [(1, 0), (2, 0), (2, 1)], list(degrees), 3
    while queue or n == gadget_at:
        if n == gadget_at:
            a, b, c, d = sorted(rng.choice(n, size=4, replace=False).tolist())
            arcs += [(n, a), (n, b), (n, n + 1), (n + 1, a), (n + 1, c), (n + 1, n + 2),
                     (n + 2, a), (n + 2, d), (n + 2, n)]
            n += 3
        else:
            arcs += [(n, int(h)) for h in rng.choice(n, size=queue.pop(0), replace=False)]
            n += 1
    labels = [(t + 1, h + 1) for t, h in arcs]
    return orient(build_graph(n, labels), labels)


def _product_position(orientation, d, witness):
    # the 0-based place of the witness reduction in itertools.product order
    graph = orientation.graph
    heavy = [v for v in range(graph.n) if len(orientation.out_edges(v)) > d]
    fixed = [k for k in range(graph.num_edges) if orientation.tails[k] not in heavy]
    choices = [tuple(combinations(orientation.out_edges(v), d)) for v in heavy]
    labels = orientation.directed_labels
    for at, chosen in enumerate(product(*choices)):
        kept = sorted(fixed + [k for combo in chosen for k in combo])
        if tuple(labels[k] for k in kept) == witness:
            return at
    return None


@pytest.mark.parametrize("degrees, gadget_at, reductions, verdict", [
    ((3, 4, 5, 4), None, 1080, "persistent"),
    ((3, 4, 4, 4, 3), None, 1944, "persistent"),
    ((3, 4, 4, 3), 7, 8748, "not persistent"),
    ((3, 4, 4, 3, 2), 4, 8748, "not persistent"),
], ids=["persistent-1080", "persistent-1944", "shallow-witness", "deep-witness"])
def test_plane_walk_matches_the_reference(degrees, gadget_at, reductions, verdict):
    # the pebble-game walk against one Graph and one seeded rank per reduction
    orientation = _layered_orientation(degrees, gadget_at)
    rep = persistence_check(orientation, 2, seed=5)
    assert (rep.verdict, rep.reductions_checked) == (verdict, reductions)
    assert (rep.verdict, rep.reductions_checked, rep.witness) == _reference_persistence(
        orientation, 2, 5)
    if gadget_at == 4:
        # the gadget's 27 choices follow vertex 3's first, and the witness
        # waits for 13 of them, each over the 108 reductions after them
        assert _product_position(orientation, 2, rep.witness) == 13 * 108


def test_persistent_plane_check_takes_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    rep = persistence_check(_layered_orientation((3, 4, 5, 4)), 2, seed=7)
    assert (rep.verdict, rep.reductions_checked, rep.witness) == ("persistent", 1080, None)


def test_nonpersistent_plane_check_ranks_the_witness_alone(monkeypatch):
    orientation = _layered_orientation((3, 4, 4, 3, 2), 4)
    calls = []
    real = certificates_mod.is_generically_rigid

    def counting(graph, d, seed=0, edges=None):
        calls.append((graph, d, seed, tuple(edges)))
        return real(graph, d, seed, edges=edges)

    monkeypatch.setattr(certificates_mod, "is_generically_rigid", counting)
    rep = persistence_check(orientation, 2, seed=3)
    assert rep.verdict == "not persistent"
    assert len(calls) == 1 and calls[0][:3] == (orientation.graph, 2, 3)
    labels = orientation.directed_labels
    assert tuple(labels[k] for k in calls[0][3]) == rep.witness


def test_plane_walk_and_draws_that_disagree_give_indeterminate(monkeypatch):
    # a sampled rank that calls the pebble game's witness rigid is reported
    # by name, not taken as either verdict
    scn = builtin_scenario("fig4-nonpersistent")
    witness = persistence_check(scn.orientation, 2).witness
    monkeypatch.setattr(certificates_mod, "is_generically_rigid",
                        lambda graph, d, seed=0, edges=None: True)
    rep = persistence_check(scn.orientation, 2, seed=4)
    assert (rep.verdict, rep.reductions_checked, rep.witness) == ("indeterminate", 9, None)
    reduction = ", ".join(f"{t}->{h}" for t, h in witness)
    assert rep.detail == (f"the pebble game finds reduction {reduction} flexible, but its "
                          "rank at the draws of seed 4 is full")


def test_persistence_rejects_bad_dimension(w5_arrows):
    with pytest.raises(ValueError):
        persistence_check(w5_arrows, 1)


@pytest.mark.parametrize("d", [2.5, 0, -1])
def test_reduction_count_names_a_bad_dimension(w5_arrows, d):
    with pytest.raises(ValueError, match=f"dimension must be a positive integer, got {d}"):
        reduction_count(w5_arrows, d)


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
