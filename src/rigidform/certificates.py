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
* model:    eta = P P^T, so A = I_r, again from the singular values alone;
* directed: eta = 2 R Rdir^T, so A = 2 diag(s_r) V_r^T Rdir^T U_r, whose
  spectrum takes one general eigensolve.

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

from rigidform.controllers import ControllerSpec
from rigidform.graphs import Configuration, Graph, Orientation
from rigidform.rigidity import (
    RankDeficiencyError,
    _regular_svd,
    _require_seed,
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


def _restricted_operator(
    graph: Graph, kind: str, orientation: Orientation | None, p: Configuration,
    seed: int, sym: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
    """(A, eigenvalues of A, ascending eigenvalues of its symmetric part or
    None, r) for A = P^T eta P over the basis P = U_r of Im R(p), in the
    closed forms of the module docstring; the symmetric part's eigenvalues
    are computed only with ``sym``; ``orientation`` is read only by the
    directed controller.  Raises off regular points."""
    if kind == "directed":
        U, s, Vt, r = _regular_svd(graph, p, seed)
        RdirV = directed_rigidity_matrix(orientation, p) @ Vt[:r].T
        A = 2.0 * s[:r, None] * (RdirV.T @ U[:, :r])
        sym_eigs = np.linalg.eigvalsh(0.5 * (A + A.T)) if sym else None
        return A, np.linalg.eigvals(A), sym_eigs, r
    _, s, _, r = _regular_svd(graph, p, seed, compute_uv=False)
    if kind == "model":
        eigs = np.ones(r)  # eta is the projector P P^T
    else:
        eigs = 2.0 * s[:r] ** 2  # P^T R R^T P = diag(s_r^2)
    # A is diagonal, so it is its own symmetric part
    return np.diag(eigs), eigs, np.sort(eigs) if sym else None, r


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
    A, eigs, _, r = _restricted_operator(spec.graph, spec.kind, spec.orientation, p_star, seed)
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
    relative to the spectral norm.  Raises ValueError unless ``samples`` is
    a positive integer and ``seed`` a non-negative one.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    _require_seed(seed)
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
    if d not in (2, 3):
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
    fixed = [
        k
        for k in range(graph.num_edges)
        if orientation.tails[k] not in heavy
    ]
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
