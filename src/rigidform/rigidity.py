"""Rigidity machinery for frameworks (graph + configuration).

The central object is the rigidity matrix R(p): one row per edge, one d-wide
block per vertex, with the block for vertex i of edge {i, j} holding
(p_i - p_j)^T.  It is half the differential of the squared-length map, so
its image is the space of squared-edge-length velocities reachable by moving
the agents, and its kernel at regular points of rigid graphs is exactly the
rigid motions.  Everything else here (tangent bases, projectors, minimum-norm
lifts, rank tests) is derived from R via SVD.

Per-edge quantities are array expressions over the endpoint arrays (I, J)
of :attr:`Graph.endpoints`: the edge vectors D = P[I] - P[J], their squared
norms, and R with D and -D in the blocks of I and J.

Rank decisions use the relative singular-value cutoff
``sigma > sigma_max * max(shape) * SVD_RTOL``; generic ranks are estimated by
maximizing the rank over a few seeded random configurations, which depend
only on (n, d, seed).  A regular point is one where R attains the generic
rank; :func:`_regular_svd` is the single test of it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from rigidform.graphs import Configuration, Graph, Measurement, Orientation

SVD_RTOL = 1e-12

# samples drawn when estimating a generic rank; one generic sample realizes
# the rank with probability 1, repetition guards against near-degeneracy
GENERIC_SAMPLES = 3


class RankDeficiencyError(RuntimeError):
    """Raised when an operation requires a regular point but the rigidity
    matrix has dropped rank there; ``rank`` is that rank when known."""

    rank: int | None = None


def _check_dims(graph: Graph, p: Configuration) -> None:
    if p.n != graph.n:
        raise ValueError(f"configuration has {p.n} points, graph has {graph.n} vertices")


def _rank_from_singular_values(s: np.ndarray, shape: tuple[int, int]) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > s[0] * max(shape) * SVD_RTOL))


def matrix_rank(m: np.ndarray) -> int:
    """Numerical rank with the toolkit-wide relative SVD cutoff."""
    return _rank_from_singular_values(np.linalg.svd(m, compute_uv=False), m.shape)


def _edge_vectors(graph: Graph, p: Configuration) -> np.ndarray:
    """D = P[I] - P[J]: row k is p_i - p_j for edge k = {i, j}, i < j."""
    _check_dims(graph, p)
    I, J = graph.endpoints
    return p.points[I] - p.points[J]


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (|E|, d) arrays."""
    return (a * b).sum(axis=1)


def distance_map(graph: Graph, p: Configuration) -> Measurement:
    """Squared lengths of all edges, in canonical edge order."""
    D = _edge_vectors(graph, p)
    return Measurement(_rowdot(D, D))


def rigidity_matrix(graph: Graph, p: Configuration) -> np.ndarray:
    """The |E| x (d*n) rigidity matrix R(p).

    Satisfies R(p) @ p.vector == distance_map(graph, p) and equals half the
    differential of the squared-length map.
    """
    I, J = graph.endpoints
    D = _edge_vectors(graph, p)
    out = np.zeros((graph.num_edges, graph.n, p.d))
    rows = np.arange(graph.num_edges)
    out[rows, I], out[rows, J] = D, -D
    return out.reshape(graph.num_edges, graph.n * p.d)


def directed_rigidity_matrix(orientation: Orientation, p: Configuration) -> np.ndarray:
    """R(p) with, in each row, the block of the head vertex zeroed out.

    Only the tail (sensing) agent's block survives, so transposing this
    matrix routes each edge error to its responsible agent alone.
    """
    graph = orientation.graph
    _check_dims(graph, p)
    T, H = orientation.arrows
    out = np.zeros((graph.num_edges, graph.n, p.d))
    out[np.arange(graph.num_edges), T] = p.points[T] - p.points[H]
    return out.reshape(graph.num_edges, graph.n * p.d)


def _draw_matrices(graph: Graph, d: int, seed: int):
    """R(p) at each of the GENERIC_SAMPLES configurations a generic rank is
    estimated at: coordinates uniform on [-1, 1], drawn from ``seed``.  The
    draws depend on (n, d, seed) only, so a spanning subgraph's R at a draw
    is the rows of the graph's R for the edges it keeps."""
    rng = np.random.default_rng(seed)
    for _ in range(GENERIC_SAMPLES):
        yield rigidity_matrix(graph, Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d))))


def generic_rank(graph: Graph, d: int, seed: int = 0, edges=None) -> int:
    """Rank of R at a generic configuration in R^d.

    Estimated as the max rank over the seeded draws of
    :func:`_draw_matrices`.  No draw can exceed the ceiling
    min(|E|, max_generic_rank(n, d)), so the draws stop once one reaches it:
    a generically rigid graph takes one SVD.  Deterministic per seed;
    memoized on the graph object per (d, seed), so the memo is freed with
    the graph.

    With ``edges``, a sequence of edge indices, the rank is that of the
    spanning subgraph on those edges, taken as the rows ``edges`` of the
    graph's R at the same draws.  Those R are built once per (d, seed) and
    kept on the graph, so ranking many subgraphs builds no graph and no R
    of their own; subgraph ranks are not memoized.
    """
    key = (int(d), int(seed))
    if edges is None:
        cached = graph._rank_memo.get(key)
        if cached is not None:
            return cached
        ceiling = min(graph.num_edges, max_generic_rank(graph.n, d))
        matrices = _draw_matrices(graph, d, seed)
    else:
        draws = graph._draw_memo.get(key)
        if draws is None:
            draws = graph._draw_memo[key] = list(_draw_matrices(graph, d, seed))
        rows = np.asarray(edges, dtype=np.intp)
        ceiling = min(rows.size, max_generic_rank(graph.n, d))
        matrices = (R[rows] for R in draws)
    best = 0
    for R in matrices:
        best = max(best, matrix_rank(R))
        if best == ceiling:
            break
    if edges is None:
        graph._rank_memo[key] = best
    return best


def max_generic_rank(n: int, d: int) -> int:
    """Largest possible generic rank for n points in R^d (complete graph)."""
    if n >= d + 1:
        return d * n - d * (d + 1) // 2
    return n * (n - 1) // 2


def is_generically_rigid(graph: Graph, d: int, seed: int = 0, edges=None) -> bool:
    """Whether generic frameworks of the graph in R^d admit only rigid motions;
    with ``edges``, of its spanning subgraph on those edges (see
    :func:`generic_rank`)."""
    return generic_rank(graph, d, seed, edges) == max_generic_rank(graph.n, d)


def is_regular_point(graph: Graph, p: Configuration, seed: int = 0) -> bool:
    """Whether R(p) attains the graph's generic rank at this configuration."""
    try:
        _regular_svd(graph, p, seed, compute_uv=False)
    except RankDeficiencyError:
        return False
    return True


@dataclass(frozen=True, eq=False)
class TangentBasis:
    """Orthonormal basis (columns of ``matrix``) of Im R(p), with its rank."""

    matrix: np.ndarray = field(repr=False)
    rank: int


def _svd(graph: Graph, p: Configuration, compute_uv: bool = True):
    """SVD of R(p) plus its numerical rank: (U, s, Vt, r).  With
    ``compute_uv=False`` only the singular values are computed and U, Vt
    are None."""
    R = rigidity_matrix(graph, p)
    if compute_uv:
        U, s, Vt = np.linalg.svd(R, full_matrices=False)
    else:
        U, s, Vt = None, np.linalg.svd(R, compute_uv=False), None
    return U, s, Vt, _rank_from_singular_values(s, R.shape)


def _regular_svd(graph: Graph, p: Configuration, seed: int = 0, compute_uv: bool = True):
    """:func:`_svd` of R(p); raises :class:`RankDeficiencyError`, with its
    ``rank`` set, unless the rank is the generic rank (p is regular)."""
    U, s, Vt, r = _svd(graph, p, compute_uv)
    expected = generic_rank(graph, p.d, seed)
    if r != expected:
        exc = RankDeficiencyError(f"not a regular point: rank {r} != generic rank {expected}")
        exc.rank = r
        raise exc
    return U, s, Vt, r


def tangent_basis(graph: Graph, p: Configuration) -> TangentBasis:
    """Orthonormal columns spanning the achievable squared-length velocities.

    The image of R(p) is the tangent space of the feasible-measurement set at
    F(p) whenever p is a regular point; at other points it is still the
    column space of R(p).
    """
    U, _, _, r = _svd(graph, p)
    if r == 0:
        raise ValueError("rigidity matrix is zero: all edge endpoints coincide")
    return TangentBasis(np.ascontiguousarray(U[:, :r]), r)


def projector(graph: Graph, p: Configuration) -> np.ndarray:
    """Orthogonal projector of R^|E| onto Im R(p), as P @ P.T."""
    P = tangent_basis(graph, p).matrix
    return P @ P.T


def min_norm_lift(
    graph: Graph,
    p: Configuration,
    v: np.ndarray,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Least-norm node velocity u with 2 R(p) u equal to the projection of v.

    ``v`` is an edge velocity expected to lie in Im R(p); a component outside
    it (integrator drift) is reported via a RuntimeWarning and projected away,
    which the pseudoinverse does implicitly.  The returned u is orthogonal to
    Ker R(p), hence minimal among all node velocities realizing the same edge
    velocity.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.num_edges,):
        raise ValueError(f"edge velocity must have length {graph.num_edges}")
    U, s, Vt, r = _svd(graph, p)
    coeffs = U[:, :r].T @ v
    residual = float(np.linalg.norm(v - U[:, :r] @ coeffs))
    if residual > residual_tol * (1.0 + float(np.linalg.norm(v))):
        warnings.warn(
            f"edge velocity has residual {residual:.3e} outside Im R; projected",
            RuntimeWarning,
            stacklevel=2,
        )
    # u = (2R)^+ v = 1/2 V_r diag(1/s) U_r^T v
    return 0.5 * (Vt[:r].T @ (coeffs / s[:r]))


def rigid_motion_basis(p: Configuration) -> np.ndarray:
    """Columns spanning the infinitesimal rigid motions at p.

    d translations plus d(d-1)/2 rotations, stacked as a (d*n, d(d+1)/2)
    matrix; every column is annihilated by any rigidity matrix at p.
    Supported for d in {1, 2, 3}.
    """
    d, n, pts = p.d, p.n, p.points
    if d not in (1, 2, 3):
        raise ValueError("rigid motions implemented for dimensions 1, 2, 3 only")
    cols = []
    for k in range(d):
        t = np.zeros((n, d))
        t[:, k] = 1.0
        cols.append(t.reshape(-1))
    if d == 2:
        rot = np.stack([-pts[:, 1], pts[:, 0]], axis=1)
        cols.append(rot.reshape(-1))
    elif d == 3:
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = 1.0
            cols.append(np.cross(e, pts).reshape(-1))
    return np.stack(cols, axis=1)


def congruence_check(
    p: Configuration, q: Configuration, tol: float = 1e-8
) -> tuple[bool, float]:
    """Whether q equals p up to translation, rotation, or reflection.

    Aligns q onto p by centering both and solving the orthogonal Procrustes
    problem (reflections allowed, as congruence is distance-preserving).
    Returns (verdict, max per-node displacement after alignment).
    """
    if p.n != q.n:
        raise ValueError(f"configurations have {p.n} and {q.n} points")
    if p.d != q.d:
        raise ValueError(f"configurations have dimensions {p.d} and {q.d}")
    P = p.points - p.points.mean(axis=0)
    Q = q.points - q.points.mean(axis=0)
    U, _, Vt = np.linalg.svd(Q.T @ P)
    aligned = Q @ (U @ Vt)
    displacement = float(np.linalg.norm(aligned - P, axis=1).max())
    return displacement < tol, displacement
