"""Rigidity machinery for frameworks (graph + configuration).

The central object is the rigidity matrix R(p): one row per edge, one d-wide
block per vertex, with the block for vertex i of edge {i, j} holding
(p_i - p_j)^T.  It is half the differential of the squared-length map, so
its image is the space of squared-edge-length velocities reachable by moving
the agents, and its kernel at regular points of rigid graphs is exactly the
rigid motions.  Everything else here (tangent bases, projectors, minimum-norm
lifts, rank tests) is derived from R via SVD.

Every per-edge quantity goes through one edge-index record
(:func:`_edge_index`), kept per d on the graph, or on an orientation for
its (tail, head) arrows: the flat positions in vec(p) of each edge's two
endpoint blocks, and the flat positions of R's nonzeros.  The edge vectors
are one gather D = x[first] - x[second] over x = vec(p); R and Rdir are
zeros with D (and -D) put at their nonzeros; and R^T e, Rdir^T e are
``np.bincount`` sums over the same positions, which add in edge order.

Rank decisions use the relative singular-value cutoff
``sigma > sigma_max * max(shape) * SVD_RTOL``; generic ranks are estimated by
maximizing the rank over a few seeded random configurations, which depend
only on (n, d, seed).  A regular point is one where R attains the generic
rank; :func:`_require_regular` is the single test of it, applied to the rank
of an SVD (:func:`_regular_svd`) or of a least-squares solve.

Minimum-norm lifts R^+ b come from one LAPACK least-squares call
(:func:`_min_norm_solve`) whose singular values also give the rank under the
same cutoff, so no U or V factor is formed; the full SVD of :func:`_svd` is
kept for what needs a basis.

``COORD_LIMIT`` = SQUARE_LIMIT^(1/2) = 1e75 is the one coordinate bound for
everything built from R: below it R, the squared edge lengths and R^T R
are finite.  A configuration with a NaN or infinite coordinate, or one of
magnitude ``COORD_LIMIT`` or more, is not a regular point:
:func:`_require_coordinates` raises :class:`RankDeficiencyError` before R
reaches LAPACK, which may not return on a non-finite matrix.  The gradient
and directed fields skip the check, which would cost one more reduction
per evaluation; where their squared lengths overflow they return
non-finite values, which :func:`rigidform.simulate.integrate` rejects.

From a measured size on (:mod:`rigidform.controllers`) the model field
takes R^+ b from the stiffness matrix instead, when a Cholesky test proves
regularity (:func:`_certified_solve`).  With Q an orthonormal basis of the
k = d(d+1)/2 rigid motions at p (of the centred points) and
s = tr(R^T R) / dn, let K = R^T R + s Q Q^T.  Forming K, shifting its
diagonal and factoring it perturb it in the 2-norm by at most
(|E| + k + dn + 3) u tr(K), u = eps / 2 (Demmel 1989; Rump, *BIT* 46,
2006), so when the floating-point Cholesky of K - delta I succeeds with
delta = max(2 (|E| + k + dn + 3) eps, sqrt(eps)) tr(K), the exact
R^T R + s Q Q^T has every eigenvalue above delta / 2.  Its s Q Q^T term
has rank k, so by interlacing sigma_g(R)^2 >= delta / 2 with
g = dn - k = max_generic_rank(n, d) (n >= d): R has the largest rank any
graph can have, p is regular, and no generic-rank draw is needed.  The SVD
rule gives the same verdict: sigma_g / sigma_1 >= (sqrt(eps) / 2)^(1/2),
about 9e-5, is above its cutoff max(|E|, dn) * SVD_RTOL for any R with
fewer than 8e7 rows and columns, while the other k singular values are of
the size of R's rounding.  The sqrt(eps) floor also bounds cond(R)^2 by
2 / sqrt(eps), so the normal-equation solution with one corrected
semi-normal step (Bjorck, *Numerical Methods for Least Squares Problems*,
1996, 2.2) is as accurate as the least-squares solve.  A Cholesky that
fails decides nothing, and the least-squares path runs as before: near
rank loss, on flexible graphs, on collinear frames, or for d outside
{1, 2, 3}.  It assumes coordinates below ``COORD_LIMIT``, checked by its
caller, so that no product overflows, and it needs tr(R^T R) above
1 / SQUARE_LIMIT, so that underflow stays far below delta.
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

LIFT_RESIDUAL_TOL = 1e-8

# below it a sum of squares of entries stays finite: congruence_check's
# alignment and min_norm_lift's norms
SQUARE_LIMIT = 1e150

# the one coordinate bound for everything built from R (module docstring)
COORD_LIMIT = SQUARE_LIMIT**0.5


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
    # the small factor first, so that a finite s[0] cannot overflow the cutoff
    return int(np.count_nonzero(s > s[0] * (max(shape) * SVD_RTOL)))


def _require_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a non-negative integer, as NumPy's
    seeding requires."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _require_finite(name: str, a: np.ndarray, limit: float = np.inf) -> None:
    """Raise ValueError naming ``name`` unless every entry of ``a`` is finite
    and below ``limit`` in magnitude, so that LAPACK never sees NaN or inf."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} is not finite")
    if np.abs(a).max(initial=0.0) >= limit:
        raise ValueError(f"{name} has an entry of magnitude {limit:g} or more")


def matrix_rank(m: np.ndarray) -> int:
    """Numerical rank with the toolkit-wide relative SVD cutoff; m must be finite."""
    _require_finite("m", m)
    return _rank_from_singular_values(np.linalg.svd(m, compute_uv=False), m.shape)


@dataclass(frozen=True, eq=False)
class _EdgeIndex:
    """Flat positions of the blocks each edge touches, for one graph or
    orientation in R^d.

    Row k of the (|E|, d) arrays ``first`` and ``second`` holds the
    positions in vec(p), of length ``size`` = d*n, of the blocks of edge
    k's endpoints (I[k], J[k]), or (tail, head) for an orientation.
    ``nonzeros`` (2, |E|, d) holds the positions of the same two blocks in
    row k of the flattened |E| x dn matrix R.
    """

    first: np.ndarray
    second: np.ndarray
    nonzeros: np.ndarray
    size: int


def _edge_index(graph: Graph, d: int, orientation: Orientation | None = None) -> _EdgeIndex:
    """The :class:`_EdgeIndex` of ``graph`` over its endpoints or, given
    ``orientation``, over its arrows; memoized per d on the graph or the
    orientation, so it is freed with it."""
    owner = graph if orientation is None else orientation
    index = owner._index_memo.get(d)
    if index is None:
        ends = graph.endpoints if orientation is None else orientation.arrows
        first, second = (d * v[:, None] + np.arange(d) for v in ends)
        rows = (d * graph.n) * np.arange(graph.num_edges)[:, None]
        nonzeros = np.stack((rows + first, rows + second))
        for a in (first, second, nonzeros):
            a.setflags(write=False)
        index = owner._index_memo[d] = _EdgeIndex(first, second, nonzeros, d * graph.n)
    return index


def _edge_vectors(
    graph: Graph, p: Configuration, orientation: Orientation | None = None
) -> tuple[_EdgeIndex, np.ndarray]:
    """(the edge index, D): row k of D is p_i - p_j for edge k = {i, j},
    i < j, or p_tail - p_head given ``orientation``."""
    _check_dims(graph, p)
    index = _edge_index(graph, p.d, orientation)
    x = p.points.reshape(-1)
    return index, x[index.first] - x[index.second]


def _put_blocks(index: _EdgeIndex, *blocks: np.ndarray) -> np.ndarray:
    """The |E| x dn matrix that holds blocks[c] at the flat positions
    ``index.nonzeros[c]`` and zeros elsewhere: R from (D, -D) and the
    graph's index, Rdir from D alone and the orientation's."""
    out = np.zeros(blocks[0].shape[0] * index.size)
    for at, block in zip(index.nonzeros, blocks):
        out[at] = block
    return out.reshape(-1, index.size)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (|E|, d) arrays."""
    return (a * b).sum(axis=1)


def _transpose_apply(index: _EdgeIndex, D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R^T w for the R that ``index`` and D give: the ``np.bincount`` of
    w_k D_k over the first endpoints' positions less that over the
    second's."""
    pull = (w[:, None] * D).reshape(-1)
    return (np.bincount(index.first.reshape(-1), pull, minlength=index.size)
            - np.bincount(index.second.reshape(-1), pull, minlength=index.size))


def distance_map(graph: Graph, p: Configuration) -> Measurement:
    """Squared lengths of all edges, in canonical edge order."""
    _, D = _edge_vectors(graph, p)
    return Measurement(_rowdot(D, D))


def rigidity_matrix(graph: Graph, p: Configuration) -> np.ndarray:
    """The |E| x (d*n) rigidity matrix R(p).

    Satisfies R(p) @ p.vector == distance_map(graph, p) and equals half the
    differential of the squared-length map.
    """
    index, D = _edge_vectors(graph, p)
    return _put_blocks(index, D, -D)


def directed_rigidity_matrix(orientation: Orientation, p: Configuration) -> np.ndarray:
    """R(p) with, in each row, the block of the head vertex zeroed out.

    Only the tail (sensing) agent's block survives, so transposing this
    matrix routes each edge error to its responsible agent alone.
    """
    return _put_blocks(*_edge_vectors(orientation.graph, p, orientation))


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
    kept on the graph until a subgraph is ranked at another (d, seed), so
    ranking many subgraphs builds no graph and no R of their own and the
    graph keeps one set of draws at most; subgraph ranks are not memoized.
    """
    _require_seed(seed)
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
            graph._draw_memo.clear()
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


def _require_coordinates(p: Configuration) -> None:
    """Raise :class:`RankDeficiencyError` unless every coordinate of p is
    finite and below ``COORD_LIMIT`` in magnitude, so that R, the squared
    lengths and R^T R are finite."""
    if not np.abs(p.points).max() < COORD_LIMIT:  # False for NaN too
        if not np.isfinite(p.points).all():
            raise RankDeficiencyError("configuration is not finite")
        raise RankDeficiencyError(f"coordinates exceed {COORD_LIMIT:.4g}: R^T R would overflow")


def _require_regular(graph: Graph, d: int, r: int, seed: int) -> None:
    """Raise :class:`RankDeficiencyError`, with its ``rank`` set to r, unless
    r, the rank of R at a configuration in R^d, is the generic rank."""
    expected = generic_rank(graph, d, seed)
    if r != expected:
        exc = RankDeficiencyError(f"not a regular point: rank {r} != generic rank {expected}")
        exc.rank = r
        raise exc


def _svd(graph: Graph, p: Configuration, compute_uv: bool = True):
    """SVD of R(p) plus its numerical rank: (U, s, Vt, r).  With
    ``compute_uv=False`` only the singular values are computed and U, Vt
    are None."""
    _require_coordinates(p)
    R = rigidity_matrix(graph, p)
    if compute_uv:
        U, s, Vt = np.linalg.svd(R, full_matrices=False)
    else:
        U, s, Vt = None, np.linalg.svd(R, compute_uv=False), None
    return U, s, Vt, _rank_from_singular_values(s, R.shape)


def _regular_svd(graph: Graph, p: Configuration, seed: int = 0, compute_uv: bool = True):
    """:func:`_svd` of R(p), checked by :func:`_require_regular`."""
    U, s, Vt, r = _svd(graph, p, compute_uv)
    _require_regular(graph, p.d, r, seed)
    return U, s, Vt, r


def _min_norm_solve(R: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(R^+ b, rank of R) from one least-squares solve with no U or V.

    With rcond = max(shape) * SVD_RTOL the solver treats as zero exactly
    the singular values that :func:`_rank_from_singular_values` does not
    count, so its pseudoinverse is the one of that rank.  R must be finite.
    """
    x, _, _, s = np.linalg.lstsq(R, b, rcond=max(R.shape) * SVD_RTOL)
    return x, _rank_from_singular_values(s, R.shape)


def _certified_solve(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, b: np.ndarray
) -> np.ndarray | None:
    """R^+ b for the rigidity matrix R at p, given by its edge index and
    edge vectors D, from the stiffness matrix K = R^T R + s Q Q^T when a
    Cholesky test proves that R has rank max_generic_rank(n, d); otherwise
    None, and nothing is decided.

    The test, its shift delta and why it proves the rank are in the module
    docstring.  The lift is the normal-equation solution with one corrected
    semi-normal step.  R itself is not formed: R^T R puts each edge's
    D_k D_k^T at its two endpoint blocks and subtracts it at the two mixed
    ones, R x is a gather and R^T w is :func:`_transpose_apply`.  The
    caller guarantees coordinates below ``COORD_LIMIT``.
    """
    d, n, size = p.d, p.n, index.size
    # dn - k is max_generic_rank only for n >= d, and fewer rows rule it out
    if d not in (1, 2, 3) or n < d or D.shape[0] < max_generic_rank(n, d):
        return None
    ends = np.stack((index.first, index.second))
    at = ends[:, None, :, :, None] * size + ends[None, :, :, None, :]
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None, None, None]
    outer = signs * (D[:, :, None] * D[:, None, :])
    K = np.bincount(at.reshape(-1), outer.reshape(-1), minlength=size * size).reshape(size, size)
    trace = float(np.trace(K))
    if not trace > 1.0 / SQUARE_LIMIT:
        return None
    Q = np.linalg.qr(rigid_motion_basis(Configuration(d, p.points - p.points.mean(axis=0))))[0]
    W = np.sqrt(trace / size) * Q
    K += W @ W.T
    eps = np.finfo(float).eps
    delta = max(2.0 * (D.shape[0] + Q.shape[1] + size + 3) * eps, np.sqrt(eps)) * float(np.trace(K))
    shifted = K.copy()
    shifted.flat[:: size + 1] -= delta
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None
    x = np.linalg.solve(K, _transpose_apply(index, D, b))
    residual = b - _rowdot(D, x[index.first] - x[index.second])
    return x + np.linalg.solve(K, _transpose_apply(index, D, residual))


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


def min_norm_lift(graph: Graph, p: Configuration, v: np.ndarray) -> np.ndarray:
    """Least-norm node velocity u with 2 R(p) u equal to the projection of v.

    ``v`` is an edge velocity expected to lie in Im R(p); a component outside
    it (integrator drift) of norm above ``LIFT_RESIDUAL_TOL`` * (1 + |v|) is
    reported via a RuntimeWarning and projected away, which the
    pseudoinverse does implicitly.  The returned u is orthogonal to
    Ker R(p), hence minimal among all node velocities realizing the same edge
    velocity.  A NaN or infinite entry of ``v``, or one of magnitude
    ``SQUARE_LIMIT`` or more, raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.num_edges,):
        raise ValueError(f"edge velocity must have length {graph.num_edges}")
    _require_finite("edge velocity v", v, SQUARE_LIMIT)
    _require_coordinates(p)
    R = rigidity_matrix(graph, p)
    x, _ = _min_norm_solve(R, v)
    # R R^+ is the projector onto Im R, so v - R x is the part outside it
    residual = float(np.linalg.norm(v - R @ x))
    if residual > LIFT_RESIDUAL_TOL * (1.0 + float(np.linalg.norm(v))):
        warnings.warn(
            f"edge velocity has residual {residual:.3e} outside Im R; projected",
            RuntimeWarning,
            stacklevel=2,
        )
    # u = (2R)^+ v = 1/2 R^+ v
    return 0.5 * x


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
    Returns (verdict, max per-node displacement after alignment); ValueError
    names p or q if it is not finite or reaches ``SQUARE_LIMIT`` in magnitude.
    """
    if p.n != q.n:
        raise ValueError(f"configurations have {p.n} and {q.n} points")
    if p.d != q.d:
        raise ValueError(f"configurations have dimensions {p.d} and {q.d}")
    _require_finite("p", p.points, SQUARE_LIMIT)
    _require_finite("q", q.points, SQUARE_LIMIT)
    P = p.points - p.points.mean(axis=0)
    Q = q.points - q.points.mean(axis=0)
    U, _, Vt = np.linalg.svd(Q.T @ P)
    aligned = Q @ (U @ Vt)
    displacement = float(np.linalg.norm(aligned - P, axis=1).max())
    return displacement < tol, displacement
