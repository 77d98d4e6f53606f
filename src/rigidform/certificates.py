"""Stability and structure certificates for formation controllers.

All tests revolve around the restriction of the controller's edge-error
response matrix eta to the achievable edge velocities at the target: with P
an orthonormal basis of Im R(p*), the restricted operator is A = P^T eta P
and the linearized edge-error flow is e' = -A e.

The basis is P = U_r from the SVD R = U diag(s) V^T that also decides
regularity, and A comes in closed form from the factors of that one SVD;
the |E| x |E| eta of :func:`~rigidform.controllers.eta_matrix` is never
built:

* gradient: eta = 2 R R^T, so A = diag(2 s_r^2), from the singular values
  alone and with no eigensolve;
* model:    eta = P P^T, so A = I_r, from the rank r alone;
* directed: eta = 2 R Rdir^T, so A = XY with X = 2 diag(s_r) V_r^T and
  Y = Rdir^T U_r.  Its spectrum comes from the dn x dn matrix
  M = YX = 2 Rdir^T R, since chi_M(x) = x^(dn - r) chi_A(x).  M is the
  matrix-weighted out-Laplacian of the sensing digraph: block (i, i) is the
  sum of 2 D_k D_k^T over the edges k with tail i, block (i, head k) is
  -2 D_k D_k^T, with D_k = p_tail - p_head.  The D_k are the gather of the
  orientation's edge index (:mod:`rigidform.rigidity`), and all n diagonal
  blocks are one scatter of the 2 D_k D_k^T over the tails' block
  positions, d^2 entries per edge, by the same kernel that assembles the
  stiffness matrix there.  So M is block-triangular over
  the strongly connected components of the digraph, and the spectrum of A
  is that of M's diagonal blocks, less the dn - r eigenvalues of least
  magnitude (the zeros that ker R contributes).  A vertex that is a component of its own
  has a symmetric d x d block, and all of them take one batched symmetric
  eigensolve; each larger component c takes one general eigensolve of its
  own d|c| x d|c| block, built from its vertex blocks and the edges with
  both ends in c, so the whole dn x dn M is never formed.  A itself, and
  the U and V it is built from, are formed only for the certificate's
  symmetric part and for :func:`linearized_edge_matrix`.

Where A needs r alone (model, and directed without A or its symmetric part,
as in every admissibility sample), the regularity decision and r come from
:func:`rigidform.rigidity._regular_rank`.  From d*n = its
``_CERTIFIED_MIN_SIZE`` on, the Cholesky certificate of the stiffness
matrix proves r = max_generic_rank(n, d) with no SVD and no generic-rank
draw; the singular values decide where it does not.  The gradient A reads
the singular values themselves.

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
  property by enumerating all out-degree-d reductions and rank-testing each;
  the enumeration is exponential in the redundant out-edges, hence the cap.
  Every reduction is ranked as the row subset of the whole graph's R that it
  keeps (``is_generically_rigid`` with ``edges``), so no reduction graph is
  built.

Verdicts are numerical: thresholds are relative to the spectral norm of the
tested matrix, and randomized tests decide generic properties with
probability 1 but are not proofs.
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
    _edge_vectors,
    _regular_rank,
    _regular_svd,
    _scatter_outer,
    directed_rigidity_matrix,
    is_generically_rigid,
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
    return tuple(sorted((complex(z) for z in eigs), key=lambda z: (z.real, z.imag)))


def _diagonal_blocks(orientation: Orientation, p: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """(the (|E|, d, d) stack of 2 D_k D_k^T, with D_k = p_tail - p_head;
    the (n, d, d) diagonal blocks of M = 2 Rdir^T R, their sums over the
    edges with tail i)."""
    index, D = _edge_vectors(orientation.graph, p, orientation)
    d = p.d
    # 2 D_k D_k^T belongs at flat positions (d T_k + a) d + b of the blocks
    at = d * index.first[:, :, None] + np.arange(d)
    blocks = _scatter_outer(at, D, np.array(2.0), d * index.size).reshape(-1, d, d)
    return 2.0 * D[:, :, None] * D[:, None, :], blocks


def _directed_spectrum(orientation: Orientation, p: Configuration, r: int) -> np.ndarray:
    """Eigenvalues of the directed controller's A at p, where R has rank r:
    those of the diagonal blocks of M = 2 Rdir^T R over the strongly
    connected components of the sensing digraph, less the d*n - r of least
    magnitude (module docstring)."""
    T, H = orientation.arrows
    n, d = p.n, p.d
    outer, blocks = _diagonal_blocks(orientation, p)
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


def _restricted_operator(
    graph: Graph, kind: str, orientation: Orientation | None, p: Configuration,
    seed: int, matrix: bool = False, sym: bool = False,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None, int]:
    """(A, eigenvalues of A, ascending eigenvalues of its symmetric part, r)
    for A = P^T eta P over the basis P = U_r of Im R(p), in the closed forms
    of the module docstring.  A is returned only with ``matrix`` and the
    symmetric part's eigenvalues only with ``sym``, None otherwise; the
    directed A, and the U and V it is built from, are formed only then.
    ``orientation`` is read only by the directed controller.  Raises off
    regular points."""
    if kind == "gradient":
        _, s, _, r = _regular_svd(graph, p, seed, compute_uv=False)
        eigs = 2.0 * s[:r] ** 2  # P^T R R^T P = diag(s_r^2)
    elif kind == "model" or not (matrix or sym):
        r = _regular_rank(graph, p, seed)
        if kind == "directed":
            return None, _directed_spectrum(orientation, p, r), None, r
        eigs = np.ones(r)  # eta is the projector P P^T
    else:
        U, s, Vt, r = _regular_svd(graph, p, seed)
        eigs = _directed_spectrum(orientation, p, r)
        RdirV = directed_rigidity_matrix(orientation, p) @ Vt[:r].T
        A = 2.0 * s[:r, None] * (RdirV.T @ U[:, :r])
        sym_eigs = np.linalg.eigvalsh(0.5 * (A + A.T)) if sym else None
        return (A if matrix else None), eigs, sym_eigs, r
    # A is diagonal, so it is its own symmetric part
    return (np.diag(eigs) if matrix else None), eigs, (np.sort(eigs) if sym else None), r


def restricted_sym_form(
    spec: ControllerSpec, p_star: Configuration, seed: int = 0
) -> CertificateReport:
    """Positive-definiteness certificate of the controller at a target.

    Restricts the symmetric part of eta at p* to the orthonormal basis P of
    Im R(p*), in the closed forms of the module docstring (for the gradient
    and model controllers A is diagonal, so no eigensolve is needed), and
    passes iff the smallest eigenvalue exceeds ``TOL_PD`` times the spectral
    norm of the restricted symmetric matrix.
    A target where R drops below the generic rank, or that is not finite,
    yields "indeterminate" with the cause in ``detail``.
    """
    kind = f"restricted-positive-definite[{spec.kind}]"
    try:
        _, eigs, sym_eigs, r = _restricted_operator(
            spec.graph, spec.kind, spec.orientation, p_star, seed, sym=True)
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
        rank_r=r,
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
    A, eigs, _, r = _restricted_operator(
        spec.graph, spec.kind, spec.orientation, p_star, seed, matrix=True)
    return EdgeLinearization(A, _sorted_spectrum(eigs), r)


def admissibility(
    graph: Graph,
    kind: str,
    orientation: Orientation | None,
    d: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> tuple[AdmissibilityReport, AdmissibilityReport]:
    """(dynamic, algebraic) admissibility from one pass over sampled targets.

    Each of ``samples`` random configurations, one per stream spawned from
    ``seed`` and redrawn until regular, has the spectrum of its restricted
    operator taken once; the dynamic test judges min |Re z| against
    ``TOL_HYP`` and the algebraic test min |z| against ``TOL_INV``, both
    relative to the spectral norm.  Raises ValueError unless ``kind`` names
    a controller that ``orientation`` pairs with (only "directed" reads it)
    and ``d``, ``samples`` are positive integers, ``seed`` a non-negative one.
    """
    _require_controller(graph, kind, orientation if kind == "directed" else None)
    d = _require_count("dimension", d, 1)
    samples = _require_count("samples", samples, 1)
    seed = _require_count("seed", seed, 0)
    tests = (("dynamic", TOL_HYP), ("algebraic", TOL_INV))
    per_sample = ([], [])
    for stream in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(stream)
        for _ in range(_RESAMPLE_CAP):
            p = Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d)))
            try:
                eigs = _restricted_operator(graph, kind, orientation, p, seed)[1]
                break
            except RankDeficiencyError:
                continue
        else:
            raise RuntimeError(
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
    """Number of out-degree-d reductions the persistence test enumerates."""
    count = 1
    for v in range(orientation.graph.n):
        outdeg = len(orientation.out_edges(v))
        if outdeg > d:
            count *= math.comb(outdeg, d)
    return count


def persistence_check(orientation: Orientation, d: int, seed: int = 0) -> PersistenceReport:
    """Directed persistence via rigidity of all out-degree-d reductions.

    Every vertex with out-degree above d is trimmed to each d-subset of its
    out-edges; the orientation is persistent iff the underlying undirected
    graph of every such reduction is generically d-rigid.  The first failing
    reduction is returned as a witness (as 1-based tail->head pairs), and no
    reduction after it is ranked; ``reductions_checked`` is the size of the
    whole enumeration either way.  An enumeration above ``REDUCTION_CAP``
    is not ranked and yields "indeterminate".
    """
    if _require_count("dimension", d, 1) not in (2, 3):
        raise ValueError("persistence test supports d in {2, 3}")
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
    for chosen in product(*choice_sets):
        kept = sorted(fixed + [k for combo in chosen for k in combo])
        if not is_generically_rigid(graph, d, seed, edges=kept):
            labels = orientation.directed_labels
            return PersistenceReport(
                verdict="not persistent",
                reductions_checked=total,
                witness=tuple(labels[k] for k in kept),
                detail="witness reduction is not generically rigid",
            )
    return PersistenceReport(verdict="persistent", reductions_checked=total)
