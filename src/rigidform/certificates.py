"""Stability and structure certificates for formation controllers.

All tests revolve around the restriction of the controller's edge-error
response matrix eta to the achievable edge velocities at the target: with P
an orthonormal basis of Im R(p*), the restricted operator is A = P^T eta P
and the linearized edge-error flow is e' = -A e.

The basis is P = U_r from the SVD R = U diag(s) V^T, and A comes in
closed form from its factors; the |E| x |E| eta of
:func:`~rigidform.controllers.eta_matrix` is never built:

* gradient: eta = 2 R R^T, so A = diag(2 s_r^2), from the singular values
  alone.  Where the Cholesky certificate of :mod:`rigidform.rigidity`
  proves rank r = dn - k, from d*n = ``rigidity._GRAM_EIGENSOLVE_MIN_SIZE``
  on, they are the r largest eigenvalues of 2 R^T R, descending: one
  symmetric eigensolve of the R^T R that the certificate's own scatter
  builds, with no R and no SVD;
* model:    eta = P P^T, so A = I_r, from the rank r alone;
* directed: eta = 2 R Rdir^T, so A = XY with X = 2 diag(s_r) V_r^T and
  Y = Rdir^T U_r.  Its spectrum comes from the dn x dn matrix
  M = YX = 2 Rdir^T R, since chi_M(x) = x^(dn - r) chi_A(x).  M is the
  matrix-weighted out-Laplacian of the sensing digraph: block (i, i) is the
  sum of 2 D_k D_k^T over the edges k with tail i, block (i, head k) is
  -2 D_k D_k^T, with D_k = p_tail - p_head.  The D_k are the gather of the
  orientation's edge index (:mod:`rigidform.rigidity`), and all n diagonal
  blocks are one scatter of the 2 D_k D_k^T over the tails' block
  positions, by the kernel ``rigidity._tail_blocks``.  So M is
  block-triangular over the strongly connected components of the digraph,
  and the spectrum of A is that of M's diagonal blocks, less the dn - r
  eigenvalues of least magnitude (the zeros that ker R contributes).  A
  vertex that is a component of its own has a symmetric d x d block, and
  all of them take one batched symmetric eigensolve; each larger
  component c takes one general eigensolve of its
  own d|c| x d|c| block, built from its vertex blocks and the edges with
  both ends in c, so the whole dn x dn M is never formed.

Two functions answer the two questions asked of A.  :func:`_spectrum`
gives its r eigenvalues and forms no matrix: all that admissibility reads.
Where they need r alone (model and directed), the regularity decision and r
come from :func:`rigidform.rigidity._regular_rank`, which takes them from
the Cholesky certificate where :mod:`rigidform.rigidity` issues it, with no
SVD and no generic-rank draw; the gradient A reads the squared singular
values, from the certificate's eigensolve as above.  :func:`_linearization`
gives A itself in the basis U_r, with its eigenvalues, for
:func:`linearized_edge_matrix`; only there are the directed A, and the
full SVD's U and V it is built from, formed.  The gradient and model A are
diagonal, so the certificate takes their symmetric part's eigenvalues as
the sorted spectrum and forms no r x r matrix.  The directed certificate
reads only the eigenvalues of the symmetric part
(1/2) P^T (eta + eta^T) P, which are the same in every orthonormal basis
P of Im R.  Where the Cholesky certificate is issued, P is the Q factor of
a Householder QR of R Q_perp, with Q_perp the orthonormal complement of
the rigid motions (``rigidity._certified_image_basis``), and the
symmetric part is X^T Y + Y^T X with X = R^T P and Y = Rdir^T P: one QR
and no SVD.

An SVD of R is still taken, and gives the same results as before, bit for
bit, wherever the certificate is not issued: below d*n = 36, near rank
loss, on flexible graphs and collinear frames, and for d outside
{1, 2, 3}, where only the SVD rule decides the rank.  It is also taken for
the gradient spectrum below d*n = 100, where it costs less than the
certificate and eigensolve, and wherever a matrix in the basis U_r is
returned: the directed :func:`linearized_edge_matrix` here, and
``tangent_basis``, ``projector``, ``eta_matrix`` and ``field_gain``
elsewhere.

* :func:`restricted_sym_form` decides positive definiteness of the symmetric
  part (1/2) P^T (eta + eta^T) P, a sufficient certificate for local
  exponential convergence to the target shape.
* :func:`admissibility` decides, by randomized sampling of generic targets,
  whether A is hyperbolic (dynamic) and invertible (algebraic): necessary
  conditions for exponential convergence anywhere.  One pass takes each
  sampled target's spectrum once and judges both tests on it;
  :func:`dynamic_admissibility` / :func:`algebraic_admissibility` return
  its halves.
* :func:`persistence_check` decides the classical directed-graph persistence
  property over all out-degree-d reductions; the enumeration is exponential
  in the redundant out-edges, hence the cap.  In the plane one pebble-game
  walk of the enumeration decides every reduction exactly, sharing the
  choices that reductions have in common and pruning each subtree that
  holds no rigid reduction, and only the witness is ranked, as a
  cross-check.  In R^3 each reduction up to the witness is ranked in turn.
  A reduction is ranked as the row subset of the whole graph's R that it
  keeps (``is_generically_rigid`` with ``edges``), so no reduction graph is
  built.

Verdicts are numerical: thresholds are relative to the spectral norm of the
tested matrix, and randomized tests decide generic properties with
probability 1 but are not proofs.  The one exact decision is the plane
persistence walk, which is combinatorial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from rigidform.controllers import ControllerSpec, _require_controller
from rigidform.graphs import Configuration, Graph, Orientation, _require_count
from rigidform.rigidity import (
    RankDeficiencyError,
    _certified_image_basis,
    _edge_vectors,
    _PebbleGame,
    _regular_rank,
    _regular_squared_singular_values,
    _regular_svd,
    _tail_blocks,
    directed_rigidity_matrix,
    is_generically_rigid,
    max_generic_rank,
    rigidity_matrix,
)

TOL_PD = 1e-8
TOL_HYP = 1e-7
TOL_INV = 1e-10
DEFAULT_SAMPLES = 5
REDUCTION_CAP = 10**6

_RESAMPLE_CAP = 50


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of a positive-definiteness certificate at one target."""

    kind: str
    verdict: str  # "pass" | "fail" | "indeterminate"
    min_sym_eigenvalue: float | None
    spectrum: tuple[complex, ...]
    rank_r: int
    tol: float
    spectral_norm: float | None
    detail: str = ""


@dataclass(frozen=True, eq=False)
class EdgeLinearization:
    """Restricted operator A = P^T eta P and its eigenvalues; the linearized
    edge-error flow matrix is -A."""

    matrix: np.ndarray = field(repr=False)
    spectrum: tuple[complex, ...]
    rank_r: int


@dataclass(frozen=True, eq=False)
class SampleSpectrum:
    """Spectral data of the restricted operator at one sampled target."""

    margin: float
    spectral_norm: float
    spectrum: tuple[complex, ...]
    ok: bool


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Verdict of a randomized generic-eigenstructure test."""

    test: str  # "dynamic" | "algebraic"
    controller_kind: str
    verdict: str  # "pass" | "fail"
    samples: int
    seed: int
    tol: float
    per_sample: tuple[SampleSpectrum, ...]


@dataclass(frozen=True, eq=False)
class PersistenceReport:
    """Outcome of the out-degree-reduction rigidity test."""

    verdict: str  # "persistent" | "not persistent" | "indeterminate"
    reductions_checked: int
    witness: tuple[tuple[int, int], ...] | None = None
    detail: str = ""


def _sorted_spectrum(eigs: np.ndarray) -> tuple[complex, ...]:
    """``eigs`` as Python complex numbers, by real part and then imaginary
    part; a stable sort, so ties (-0.0 with 0.0 among them) keep their order."""
    return tuple(eigs[np.lexsort((eigs.imag, eigs.real))].astype(complex).tolist())


def _directed_spectrum(orientation: Orientation, p: Configuration, r: int) -> np.ndarray:
    """Eigenvalues of the directed controller's A at p, where R has rank r:
    those of the diagonal blocks of M = 2 Rdir^T R over the strongly
    connected components of the sensing digraph, less the d*n - r of least
    magnitude (module docstring)."""
    T, H = orientation.arrows
    n, d = p.n, p.d
    outer, blocks = _tail_blocks(*_edge_vectors(orientation.graph, p, orientation))
    singles, larger = orientation.strong_components
    eigs = [np.linalg.eigvalsh(blocks[singles]).ravel()] if singles.size else []
    local = np.full(n, -1)
    for c in larger:
        # the d|c| x d|c| diagonal block of M: blocks[c] on its diagonal, and
        # -2 D_k D_k^T for each edge k with tail and head in c
        local[c] = np.arange(c.size)
        inside = np.flatnonzero((local[T] >= 0) & (local[H] >= 0))
        Mc = np.zeros((c.size, d, c.size, d))
        Mc[np.arange(c.size), :, np.arange(c.size), :] = blocks[c]
        Mc[local[T[inside]], :, local[H[inside]], :] = -outer[inside]
        eigs.append(np.linalg.eigvals(Mc.reshape(c.size * d, c.size * d)))
        local[c] = -1
    eigs = np.concatenate(eigs)
    return eigs[np.argsort(np.abs(eigs), kind="stable")[d * n - r:]]


def _spectrum(
    graph: Graph, kind: str, orientation: Orientation | None, p: Configuration, seed: int
) -> np.ndarray:
    """The r eigenvalues of A = P^T eta P at p, in the closed forms of the
    module docstring, with no A, U or V formed: for the gradient the 2 s_r^2
    in descending order, from one eigensolve of 2 R^T R where the
    certificate is issued from d*n = ``rigidity._GRAM_EIGENSOLVE_MIN_SIZE``
    on and from the singular values of R elsewhere.  ``orientation`` is
    read only by the directed controller.  Raises off regular points."""
    if kind == "gradient":
        # P^T R R^T P = diag(s_r^2)
        return 2.0 * _regular_squared_singular_values(graph, p, seed)
    r = _regular_rank(graph, p, seed)
    # the model's eta is the projector P P^T
    return _directed_spectrum(orientation, p, r) if kind == "directed" else np.ones(r)


def _linearization(
    spec: ControllerSpec, p: Configuration, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(A, its eigenvalues) for A = P^T eta P over the basis P = U_r of
    Im R(p): diagonal for the gradient and model controllers, and for the
    directed one 2 diag(s_r) V_r^T Rdir^T U_r from the full SVD of R.
    Raises off regular points."""
    if spec.kind != "directed":
        eigs = _spectrum(spec.graph, spec.kind, None, p, seed)
        return np.diag(eigs), eigs
    U, s, Vt, r = _regular_svd(spec.graph, p, seed)
    RdirV = directed_rigidity_matrix(spec.orientation, p) @ Vt[:r].T
    return 2.0 * s[:r, None] * (RdirV.T @ U[:, :r]), _directed_spectrum(spec.orientation, p, r)


def _directed_sym_spectrum(
    spec: ControllerSpec, p: Configuration, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(the ascending eigenvalues of the symmetric part of the directed
    controller's A, the eigenvalues of A) at p.  Where the certificate is
    issued, the symmetric part (1/2) P^T (eta + eta^T) P = X^T Y + Y^T X,
    X = R^T P and Y = Rdir^T P, is taken in the basis P of
    :func:`~rigidform.rigidity._certified_image_basis`, with no SVD;
    otherwise from A of :func:`_linearization`.  Raises off regular points."""
    P = _certified_image_basis(spec.graph, p, seed)
    if P is None:
        A, eigs = _linearization(spec, p, seed)
        return np.linalg.eigvalsh(0.5 * (A + A.T)), eigs
    X = rigidity_matrix(spec.graph, p).T @ P
    S = X.T @ (directed_rigidity_matrix(spec.orientation, p).T @ P)
    return np.linalg.eigvalsh(S + S.T), _directed_spectrum(spec.orientation, p, P.shape[1])


def restricted_sym_form(
    spec: ControllerSpec, p_star: Configuration, seed: int = 0
) -> CertificateReport:
    """Positive-definiteness certificate of the controller at a target.

    Restricts the symmetric part of eta at p* to an orthonormal basis P of
    Im R(p*), in the closed forms of the module docstring, and passes iff
    the smallest eigenvalue exceeds ``TOL_PD`` times the spectral norm of
    the restricted symmetric matrix.  For the gradient and model
    controllers A is diagonal, so it is its own symmetric part.  For the
    directed one, P is the QR basis of the module docstring where the
    Cholesky certificate is issued, with no SVD, and U_r elsewhere.
    A target where R drops below the generic rank, or that is not finite,
    yields "indeterminate" with the cause in ``detail``.
    """
    kind = f"restricted-positive-definite[{spec.kind}]"
    try:
        if spec.kind == "directed":
            sym_eigs, eigs = _directed_sym_spectrum(spec, p_star, seed)
        else:  # A is diagonal, so it is its own symmetric part
            eigs = _spectrum(spec.graph, spec.kind, None, p_star, seed)
            sym_eigs = np.sort(eigs)
    except RankDeficiencyError as exc:
        return CertificateReport(
            kind=kind,
            verdict="indeterminate",
            min_sym_eigenvalue=None,
            spectrum=(),
            rank_r=exc.rank,
            tol=TOL_PD,
            spectral_norm=None,
            detail=f"target: {exc}",
        )
    min_eig = float(sym_eigs[0])
    norm = float(np.abs(sym_eigs).max())
    verdict = "pass" if min_eig > TOL_PD * norm else "fail"
    return CertificateReport(
        kind=kind,
        verdict=verdict,
        min_sym_eigenvalue=min_eig,
        spectrum=_sorted_spectrum(eigs),
        rank_r=eigs.size,
        tol=TOL_PD,
        spectral_norm=norm,
    )


def linearized_edge_matrix(
    spec: ControllerSpec, p_star: Configuration, seed: int = 0
) -> EdgeLinearization:
    """Restriction A = P^T eta P of the edge-error response at a target.

    Raises :class:`RankDeficiencyError` at non-regular targets, where the
    restriction does not describe the local edge dynamics.
    """
    A, eigs = _linearization(spec, p_star, seed)
    return EdgeLinearization(A, _sorted_spectrum(eigs), eigs.size)


def admissibility(
    graph: Graph,
    kind: str,
    orientation: Orientation | None,
    d: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> tuple[AdmissibilityReport, AdmissibilityReport]:
    """(dynamic, algebraic) admissibility from one pass over sampled targets.

    Each of ``samples`` random configurations, sample i drawn from the
    stream with spawn key (i,) under ``seed`` (the i-th child that
    ``SeedSequence(seed).spawn`` gives, made only as it is drawn) and
    redrawn until regular, has the spectrum of its restricted operator
    taken once; the dynamic test judges min |Re z| against
    ``TOL_HYP`` and the algebraic test min |z| against ``TOL_INV``, both
    relative to the spectral norm.  Raises ValueError unless ``kind`` names
    a controller that ``orientation`` pairs with (only "directed" reads it)
    and ``d``, ``samples`` are positive integers, ``seed`` a non-negative one,
    and :class:`RankDeficiencyError` when ``_RESAMPLE_CAP`` draws of one
    sample are all off regular points.
    """
    _require_controller(graph, kind, orientation if kind == "directed" else None)
    d = _require_count("dimension", d, 1)
    samples = _require_count("samples", samples, 1)
    seed = _require_count("seed", seed, 0)
    tests = (("dynamic", TOL_HYP), ("algebraic", TOL_INV))
    per_sample = ([], [])
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for _ in range(_RESAMPLE_CAP):
            p = Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d)))
            try:
                eigs = _spectrum(graph, kind, orientation, p, seed)
                break
            except RankDeficiencyError:
                continue
        else:
            raise RankDeficiencyError(
                f"failed to sample a regular configuration in {_RESAMPLE_CAP} tries"
            )
        norm = float(np.abs(eigs).max())
        spectrum = _sorted_spectrum(eigs)
        margins = (float(np.abs(eigs.real).min()), float(np.abs(eigs).min()))
        for out, margin, (_, tol) in zip(per_sample, margins, tests):
            out.append(SampleSpectrum(margin, norm, spectrum, margin > tol * norm))
    return tuple(
        AdmissibilityReport(
            test=test,
            controller_kind=kind,
            verdict="pass" if all(s.ok for s in out) else "fail",
            samples=samples,
            seed=seed,
            tol=tol,
            per_sample=tuple(out),
        )
        for (test, tol), out in zip(tests, per_sample)
    )


def dynamic_admissibility(
    graph: Graph,
    kind: str,
    orientation: Orientation | None,
    d: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AdmissibilityReport:
    """Hyperbolicity of the restricted edge-error operator at generic targets.

    Samples random configurations, restricts eta to Im R there, and requires
    every eigenvalue's real part to clear ``TOL_HYP`` times the spectral
    norm, on every sample.  Necessary for exponential convergence to any
    target.  Deterministic per seed.
    """
    return admissibility(graph, kind, orientation, d, samples, seed)[0]


def algebraic_admissibility(
    graph: Graph,
    kind: str,
    orientation: Orientation | None,
    d: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> AdmissibilityReport:
    """Invertibility of the restricted edge-error operator at generic targets.

    Same sampling scheme as :func:`dynamic_admissibility` (identical seeds
    draw identical configurations) but thresholds eigenvalue magnitudes, so a
    dynamic pass implies an algebraic pass.
    """
    return admissibility(graph, kind, orientation, d, samples, seed)[1]


def reduction_count(orientation: Orientation, d: int) -> int:
    """Number of out-degree-d reductions the persistence test enumerates;
    ValueError unless d is a positive integer."""
    d = _require_count("dimension", d, 1)
    count = 1
    for v in range(orientation.graph.n):
        outdeg = len(orientation.out_edges(v))
        if outdeg > d:
            count *= math.comb(outdeg, d)
    return count


def _first_flexible_in_plane(
    graph: Graph, fixed: list[int], choice_sets: list[tuple[tuple[int, ...], ...]]
) -> tuple[tuple[int, ...], ...] | None:
    """The first reduction, in ``itertools.product`` order of
    ``choice_sets``, whose edges (``fixed`` and one subset from each choice
    set) are not generically rigid in the plane, as its chosen subsets;
    None when every reduction is rigid.

    One walk of the reduction product, depth first and in product order,
    decides every reduction exactly with the pebble game: ``fixed`` goes in
    once, and each choice goes into a copy of its parent's game.  A
    reduction keeps |kept| edges of which a rigid one has
    max_generic_rank(n, 2) independent, so it is flexible exactly when the
    game rejects more than the slack |kept| - max_generic_rank(n, 2).
    Rejections only grow down the tree, so a node past the slack has no
    rigid leaf below it, and every leaf before it passed: the first leaf of
    its subtree is the answer."""
    ends = graph.edges
    slack = len(fixed) + sum(len(c[0]) for c in choice_sets) - max_generic_rank(graph.n, 2)

    def rejected(game: _PebbleGame, edges) -> int:
        return sum(not game.insert(*ends[k]) for k in edges)

    def walk(game: _PebbleGame, lost: int, depth: int):
        if lost > slack:
            return tuple(c[0] for c in choice_sets[depth:])
        if depth == len(choice_sets):
            return None
        for combo in choice_sets[depth]:
            child = game.copy()
            below = walk(child, lost + rejected(child, combo), depth + 1)
            if below is not None:
                return (combo,) + below
        return None

    root = _PebbleGame(graph.n)
    return walk(root, rejected(root, fixed), 0)


def persistence_check(orientation: Orientation, d: int, seed: int = 0) -> PersistenceReport:
    """Directed persistence via rigidity of all out-degree-d reductions.

    Every vertex with out-degree above d is trimmed to each d-subset of its
    out-edges; the orientation is persistent iff the underlying undirected
    graph of every such reduction is generically d-rigid.  The first failing
    reduction in ``itertools.product`` order is returned as a witness (as
    1-based tail->head pairs); ``reductions_checked`` is the size of the
    whole enumeration either way.

    In the plane the reductions are decided exactly and with no draw, by
    one pebble-game walk of the enumeration (:func:`_first_flexible_in_plane`),
    and only the witness is ranked by ``is_generically_rigid`` at the
    seeded draws: a cross-check of the exact verdict by the sampled one.
    Should the two disagree, the verdict is "indeterminate", with the
    disagreement in ``detail``.  In R^3 each reduction is ranked by
    ``is_generically_rigid`` in turn, and no reduction after the witness
    is ranked.  An enumeration above ``REDUCTION_CAP`` is not walked and
    yields "indeterminate".  Raises ValueError unless d is 2 or 3 and
    ``seed`` a non-negative integer, whatever the enumeration's size.
    """
    if _require_count("dimension", d, 1) not in (2, 3):
        raise ValueError("persistence test supports d in {2, 3}")
    seed = _require_count("seed", seed, 0)
    graph = orientation.graph
    total = reduction_count(orientation, d)
    if total > REDUCTION_CAP:
        return PersistenceReport(
            verdict="indeterminate",
            reductions_checked=0,
            detail=f"{total} reductions exceed the cap of {REDUCTION_CAP}",
        )
    heavy = [v for v in range(graph.n) if len(orientation.out_edges(v)) > d]
    fixed = [k for k, t in enumerate(orientation.tails) if len(orientation.out_edges(t)) <= d]
    choice_sets = [
        tuple(combinations(orientation.out_edges(v), d)) for v in heavy
    ]

    def kept(chosen) -> list[int]:
        return sorted(fixed + [k for combo in chosen for k in combo])

    if d == 2:
        chosen = _first_flexible_in_plane(graph, fixed, choice_sets)
    else:
        chosen = next((c for c in product(*choice_sets)
                       if not is_generically_rigid(graph, d, seed, edges=kept(c))), None)
    if chosen is None:
        return PersistenceReport(verdict="persistent", reductions_checked=total)
    edges = kept(chosen)
    labels = orientation.directed_labels
    # the exact plane verdict is cross-checked by the sampled one; R^3 took it already
    if d == 2 and is_generically_rigid(graph, d, seed, edges=edges):
        reduction = ", ".join(f"{labels[k][0]}->{labels[k][1]}" for k in edges)
        return PersistenceReport(
            verdict="indeterminate",
            reductions_checked=total,
            detail=(f"the pebble game finds reduction {reduction} flexible, but its "
                    f"rank at the draws of seed {seed} is full"),
        )
    return PersistenceReport(
        verdict="not persistent",
        reductions_checked=total,
        witness=tuple(labels[k] for k in edges),
        detail="witness reduction is not generically rigid",
    )
