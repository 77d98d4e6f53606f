"""Rigidity machinery for frameworks (graph + configuration).

The central object is the rigidity matrix R(p): one row per edge, one d-wide
block per vertex, with the block for vertex i of edge {i, j} holding
(p_i - p_j)^T.  It is half the differential of the squared-length map, so
its image is the space of squared-edge-length velocities reachable by moving
the agents, and its kernel at regular points of rigid graphs is exactly the
rigid motions.  Everything else here (tangent bases, projectors, minimum-norm
lifts, rank tests) is derived from R via SVD, or via the Cholesky
certificate of the stiffness matrix R^T R + s Q Q^T below.

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
of an SVD (:func:`_regular_svd`) or of a least-squares solve.  From
d*n = ``_CERTIFIED_MIN_SIZE`` on, a decision that needs the rank alone (a
generic-rank draw, :func:`is_regular_point`, :func:`_regular_rank`) is first
put to the Cholesky certificate below, and an SVD decides only where that
fails.

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

The certificate (:func:`_certify_full_rank`).  With Q an orthonormal
basis of the k = d(d+1)/2 rigid motions at p (of the centred points,
:func:`_motion_frame`) and s = tr(R^T R) / dn, let K = R^T R + s Q Q^T.
Forming K, shifting its diagonal and factoring it perturb it in the 2-norm
by at most (|E| + k + dn + 3) u tr(K), u = eps / 2 (Demmel 1989; Rump,
*BIT* 46, 2006), that is by delta_0 / 4 with
delta_0 = 2 (|E| + k + dn + 3) eps tr(K).  So when the floating-point
Cholesky of K - delta I succeeds for a shift delta >= delta_0, the exact
R^T R + s Q Q^T has every eigenvalue above delta - delta_0 / 4 >= 3 delta / 4.
Its s Q Q^T term is positive semidefinite of rank k, so by interlacing
sigma_g(R)^2 >= 3 delta / 4 > delta / 2 with g = dn - k = max_generic_rank(n, d)
(n >= d): R has the largest rank any graph can have, p is regular, and no
generic-rank draw is needed.  This holds for either shift in use: a rank
decision takes delta = delta_0, the least the argument allows, and the
model lift delta = max(delta_0, sqrt(eps) tr(K)); each takes one Cholesky.
The SVD rule gives the same verdict.  As sigma_1^2 <= tr(R^T R) <= tr(K),
sigma_g / sigma_1 >= ((|E| + k + dn + 3) eps)^(1/2), about 4e-7 at
n = 150 in the plane, which is above the cutoff max(|E|, dn) * SVD_RTOL
for any R with fewer than 2e8 rows and columns, while the other k
singular values are of the size of R's rounding.  So wherever the
certificate decides, ranks, verdicts and outputs are those of the SVD.  A
Cholesky that fails decides nothing, and the SVD or least-squares path
runs as before: near rank loss, on flexible graphs, on collinear frames,
or for d outside {1, 2, 3}.  The certificate assumes coordinates below
``COORD_LIMIT``, checked by its caller, so that no product overflows, and
it needs tr(R^T R) above 1 / SQUARE_LIMIT, so that underflow stays far
below delta.

From the same size on (:mod:`rigidform.controllers`) the model field takes
R^+ b from the certificate instead (:func:`_certified_solve`).  The
sqrt(eps) floor of its shift makes lambda_min(K) >= 3 delta / 4 >=
(3/4) sqrt(eps) tr(K), which bounds cond(R)^2 by 4 / (3 sqrt(eps)), so the
normal-equation solution with one corrected semi-normal step (Bjorck,
*Numerical Methods for Least Squares Problems*, 1996, 2.2), both solves
with K backward stable, is as accurate as the least-squares solve.

Factor once (:class:`_Certificate`).  From d*n = ``_FACTORED_SOLVE_MIN_SIZE``
on, both solves with K run on the certificate's own factor L of
M = K - delta I, and the certified lift takes that one factorization and no
LU, least-squares or SVD.  K itself is not kept: K y = M y + delta y.  A
solve of K y = c starts from y = M^-1 c and refines, y <- y + M^-1 (c - K y),
with M^-1 applied as L^-T L^-1: L^-1 is formed once per certificate, its
diagonal blocks by one batched inverse and the rest block row by block row
with matrix products (:func:`_lower_inverse`).  The iteration matrix is
-delta M^-1, which contracts by delta / (lambda_min(K) - delta) per step.
Each step is checked a posteriori: with the residual rho computed as
fl(c - M y - delta y), its rounding is at most
beta = (dn + 2) eps (|c| + nu |y|), nu = ||M||_F + delta >= ||K||_2
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.5), so y
solves (K + E) y = c with ||E||_2 <= (|rho| + beta) / |y| (Rigal and
Gaches 1967), and ||y - K^-1 c|| <= (4 / (3 delta)) (|rho| + beta).  y is
taken once |rho| + beta <= 4 (dn + 2) eps nu |y|: E is then within the
normwise backward error of the LU or Cholesky solve it replaces (Higham
2002, 9.3 and 10.1), which is all the semi-normal argument above needs.  A
residual that fails to halve before that (lambda_min(K) < 3 delta, or so
near it that the steps stall) hands the solve to LU with K, rebuilt from M
and K's own diagonal and bit-identical to it, which the same argument
covers; a least-squares solve there would cost several times more.  Below
``_FACTORED_SOLVE_MIN_SIZE`` both solves are such LU solves: there forming
L^-1 costs more than the two solves it replaces.  Per model_field call on d = 2
formations of bench.inputs.rigid_formation(n, n // 2) (one BLAS thread,
median over three formations of the best of fifteen interleaved trials),
LU vs refinement on L: d*n = 40, 125 vs 229 us; 80, 446 vs 661; 120, 476
vs 569; 150, 1045 vs 1025; 160, 2046 vs 1843; 200, 3387 vs 2630; 240,
4772 vs 3613; 300, 5348 vs 3511.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from rigidform.graphs import Configuration, Graph, Measurement, Orientation, _require_count

SVD_RTOL = 1e-12

_EPS = np.finfo(float).eps

# samples drawn when estimating a generic rank; one generic sample realizes
# the rank with probability 1, repetition guards against near-degeneracy
GENERIC_SAMPLES = 3

LIFT_RESIDUAL_TOL = 1e-8

# below it a sum of squares of entries stays finite: congruence_check's
# alignment and min_norm_lift's norms
SQUARE_LIMIT = 1e150

# the one coordinate bound for everything built from R (module docstring)
COORD_LIMIT = SQUARE_LIMIT**0.5

# d*n from which rank decisions and the model field's lift try the
# Cholesky certificate (_certify_full_rank) before an SVD or least-squares
# solve: about where the two cost the same for the lift.  Per model_field
# call on d = 2 Henneberg formations with n/2 chords (one BLAS thread,
# median over five formations of the best of fifteen 100-call trials),
# least squares vs certified: d*n = 24, 115 vs 182 us; 28, 137 vs 185;
# 32, 165 vs 180; 36, 197 vs 184; 40, 238 vs 189; 48, 350 vs 212.  A rank
# alone breaks even sooner.  Per decision on one formation of
# bench.inputs.rigid_formation(n, n // 2) (best of five 30-call trials),
# singular values of R vs certificate, both from p: d*n = 24, 48 vs 52 us;
# 28, 58 vs 52; 36, 83 vs 56; 40, 93 vs 57; 120, 1053 vs 158; 300, 11204
# vs 1843.  The built-ins have d*n <= 12, persistence reductions d*n <= 22.
# The lift column stands with the factored solve: below
# _FACTORED_SOLVE_MIN_SIZE the certified lift is bit-identical to the one
# measured here, and at d*n = 40 it took 116 us against 118 before (best of
# thirty interleaved 100-call trials, one formation), so the constant stays.
_CERTIFIED_MIN_SIZE = 36


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

    @cached_property
    def stiffness(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where R^T R lives in the flat dn x dn matrix: (touched, slot,
        diagonal).  ``touched`` holds, sorted, the distinct flat positions
        of the dn diagonal entries and of edge k's blocks (first, first),
        (first, second), (second, first) and (second, second), where R^T R
        adds _STIFFNESS_SIGNS * D_k D_k^T; ``slot`` (2, 2, |E|, d, d) and
        ``diagonal`` (dn,) index those block entries and the diagonal, in
        order, into ``touched``."""
        ends = np.stack((self.first, self.second))
        at = ends[:, None, :, :, None] * self.size + ends[None, :, :, None, :]
        diagonal = np.arange(self.size) * (self.size + 1)
        touched, slot = np.unique(np.concatenate((diagonal, at.reshape(-1))), return_inverse=True)
        slot = slot.reshape(-1)
        plan = touched, slot[self.size:].reshape(at.shape), slot[: self.size]
        for a in plan:
            a.setflags(write=False)
        return plan


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


def _scatter_outer(at: np.ndarray, D: np.ndarray, scale: np.ndarray, bins: int) -> np.ndarray:
    """The one scatter of matrix-weighted Laplacian terms c D_k D_k^T: the
    ``np.bincount``, ``bins`` long, of the products (c D_k) D_k^T over the
    flat positions or slots ``at``, of shape scale.shape + (|E|, d, d),
    where c runs over ``scale``.  Each position sums its terms in edge
    order, as ``np.add.at`` does, so every sum and sign bit is the same."""
    outer = (scale[..., None, None] * D)[..., :, None] * D[:, None, :]
    return np.bincount(at.reshape(-1), outer.reshape(-1), minlength=bins)


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


def _draws(graph: Graph, d: int, seed: int):
    """The GENERIC_SAMPLES configurations a generic rank is estimated at:
    coordinates uniform on [-1, 1], drawn from ``seed``.  They depend on
    (n, d, seed) only, so a spanning subgraph's R at a draw is the rows of
    the graph's R for the edges it keeps."""
    rng = np.random.default_rng(seed)
    for _ in range(GENERIC_SAMPLES):
        yield Configuration(d, rng.uniform(-1.0, 1.0, size=(graph.n, d)))


def _draw_rank(graph: Graph, p: Configuration) -> int:
    """Rank of R at a draw: max_generic_rank(n, d) when
    :func:`_certifies_full_rank` proves it, else the SVD rank."""
    if _certifies_full_rank(graph, p):
        return max_generic_rank(p.n, p.d)
    return matrix_rank(rigidity_matrix(graph, p))


def generic_rank(graph: Graph, d: int, seed: int = 0, edges=None) -> int:
    """Rank of R at a generic configuration in R^d.

    Estimated as the max rank over the seeded draws of :func:`_draws`.  No
    draw can exceed the ceiling min(|E|, max_generic_rank(n, d)), so the
    draws stop once one reaches it: a generically rigid graph takes one
    draw, which from d*n = ``_CERTIFIED_MIN_SIZE`` on is decided by the
    Cholesky certificate and no SVD.  Deterministic per seed; memoized on
    the graph object per (d, seed), so the memo is freed with the graph.

    With ``edges``, a sequence of edge indices, the rank is that of the
    spanning subgraph on those edges, taken as the SVD rank of the rows
    ``edges`` of the graph's R at the same draws.  Those R are built once
    per (d, seed) and kept on the graph until a subgraph is ranked at
    another (d, seed), so ranking many subgraphs builds no graph and no R
    of their own and the graph keeps one set of draws at most; subgraph
    ranks are not memoized.
    Raises ValueError unless d is a positive integer and seed a non-negative one.
    """
    d = _require_count("dimension", d, 1)
    key = (d, _require_count("seed", seed, 0))
    if edges is None:
        cached = graph._rank_memo.get(key)
        if cached is not None:
            return cached
        ceiling = min(graph.num_edges, max_generic_rank(graph.n, d))
        ranks = (_draw_rank(graph, p) for p in _draws(graph, d, seed))
    else:
        draws = graph._draw_memo.get(key)
        if draws is None:
            graph._draw_memo.clear()
            draws = graph._draw_memo[key] = [rigidity_matrix(graph, p) for p in _draws(graph, d, seed)]
        rows = np.asarray(edges, dtype=np.intp)
        ceiling = min(rows.size, max_generic_rank(graph.n, d))
        ranks = (matrix_rank(R[rows]) for R in draws)
    best = 0
    for r in ranks:
        best = max(best, r)
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
        _regular_rank(graph, p, seed)
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


def _regular_rank(graph: Graph, p: Configuration, seed: int = 0) -> int:
    """The rank r of R(p), checked by :func:`_require_regular`:
    max_generic_rank(n, d) with no SVD and no generic-rank draw when
    :func:`_certifies_full_rank` proves it, otherwise that of
    :func:`_regular_svd` without U and V."""
    _require_coordinates(p)
    if _certifies_full_rank(graph, p):
        return max_generic_rank(p.n, p.d)
    return _regular_svd(graph, p, seed, compute_uv=False)[3]


def _min_norm_solve(R: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(R^+ b, rank of R) from one least-squares solve with no U or V.

    With rcond = max(shape) * SVD_RTOL the solver treats as zero exactly
    the singular values that :func:`_rank_from_singular_values` does not
    count, so its pseudoinverse is the one of that rank.  R must be finite.
    """
    x, _, _, s = np.linalg.lstsq(R, b, rcond=max(R.shape) * SVD_RTOL)
    return x, _rank_from_singular_values(s, R.shape)


def _motion_frame(p: Configuration) -> np.ndarray:
    """Orthonormal columns spanning the rigid motions at the centred points
    of p, for d in {1, 2, 3}.  For d <= 2 in closed form: the d unit
    translations over sqrt(n) and, for d = 2, the normalized rotation
    (-y, x) of the centred points, orthogonal to both because the points
    are centred.  For d = 3, the Q of a QR.  Some two points of p must
    differ, so that the rotation is not zero."""
    d, n = p.d, p.n
    centred = p.points - p.points.sum(axis=0) / n
    if d == 3:
        return np.linalg.qr(rigid_motion_basis(Configuration(d, centred)))[0]
    frame = np.zeros((n, d, d * (d + 1) // 2))
    for a in range(d):
        frame[:, a, a] = 1.0 / math.sqrt(n)
    if d == 2:
        rotation = frame[:, :, 2]
        rotation[:, 0] = -centred[:, 1]
        rotation[:, 1] = centred[:, 0]
        rotation /= np.linalg.norm(rotation)
    return frame.reshape(d * n, -1)


_STIFFNESS_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])

# the widest diagonal block of L that _lower_inverse inverts directly
_INVERSE_BLOCK = 32

# d*n from which _Certificate.solve refines on L instead of solving with K
# by LU: about where the two cost the same (table in the module docstring)
_FACTORED_SOLVE_MIN_SIZE = 160


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower-triangular L, block row by block row: the diagonal
    blocks, at most ``_INVERSE_BLOCK`` wide, from one batched inverse (the
    last padded with the identity), and left of block (i, i)
    -L_ii^-1 L_i,<i (L^-1)_<i,<i."""
    size = L.shape[0]
    count = -(-size // _INVERSE_BLOCK)
    width = -(-size // count)
    spans = [(start, min(start + width, size)) for start in range(0, size, width)]
    stack = np.zeros((count, width, width))
    stack[:, np.arange(width), np.arange(width)] = 1.0
    for block, (start, stop) in zip(stack, spans):
        block[: stop - start, : stop - start] = L[start:stop, start:stop]
    X = np.zeros_like(L)
    for inverse, (start, stop) in zip(np.linalg.inv(stack), spans):
        diagonal = inverse[: stop - start, : stop - start]
        X[start:stop, start:stop] = diagonal
        if start:
            X[start:stop, :start] = -(diagonal @ (L[start:stop, :start] @ X[:start, :start]))
    return X


@dataclass(frozen=True, eq=False)
class _Certificate:
    """A successful certificate: the Cholesky factor ``L`` of the shifted
    stiffness matrix ``M`` = K - ``delta`` I, which is kept in place of K,
    and K's own ``diagonal``.  :meth:`solve` solves with K."""

    M: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    delta: float
    diagonal: np.ndarray = field(repr=False)

    @cached_property
    def _inverse(self) -> np.ndarray:
        return _lower_inverse(self.L)

    @cached_property
    def _scale(self) -> float:
        """||M||_F + delta, at least ||K||_2 and || |M| ||_2 + delta."""
        return float(np.linalg.norm(self.M)) + self.delta

    @cached_property
    def _stiffness(self) -> np.ndarray:
        K = self.M.copy()
        K.flat[:: K.shape[0] + 1] = self.diagonal
        return K

    def substitute(self, c: np.ndarray) -> np.ndarray:
        """M^-1 c, as L^-T (L^-1 c)."""
        X = self._inverse
        return X.T @ (X @ c)

    def solve(self, c: np.ndarray) -> np.ndarray:
        """K^-1 c, backward stable.  From d*n = ``_FACTORED_SOLVE_MIN_SIZE``
        on, refined from :meth:`substitute` until the module docstring's
        a-posteriori test shows it backward stable, as long as each step at
        least halves the residual; otherwise, and below that size, by LU
        with K."""
        M, delta = self.M, self.delta
        if M.shape[0] >= _FACTORED_SOLVE_MIN_SIZE:
            scale = self._scale
            rounding = (M.shape[0] + 2) * _EPS
            c_norm = math.sqrt(c @ c)
            y = self.substitute(c)
            last = math.inf
            while True:
                residual = c - M @ y
                residual -= delta * y
                r_norm, y_norm = math.sqrt(residual @ residual), math.sqrt(y @ y)
                if r_norm + rounding * (c_norm + scale * y_norm) <= 4.0 * rounding * scale * y_norm:
                    return y
                if not r_norm <= 0.5 * last:
                    break
                last = r_norm
                y += self.substitute(residual)
        return np.linalg.solve(self._stiffness, c)


def _certify_full_rank(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, floor: float = 0.0
) -> _Certificate | None:
    """The certificate that the rigidity matrix R at p, given by its edge
    index and edge vectors D, has rank max_generic_rank(n, d): the
    :class:`_Certificate` of K = R^T R + s Q Q^T when a Cholesky of
    K - delta I succeeds; otherwise None, and nothing is decided.

    delta is max(2 (|E| + k + dn + 3) eps, ``floor``) tr(K): a rank
    decision takes the rounding term alone, and the model lift of
    :func:`_certified_solve` its sqrt(eps) floor; the module docstring
    proves both.  Q is :func:`_motion_frame`.  R itself is not formed:
    R^T R puts each edge's D_k D_k^T at its two endpoint blocks and
    subtracts it at the two mixed ones, summed by :func:`_scatter_outer`
    over the distinct positions ``index.stiffness`` and added to
    s Q Q^T, which is the one dense matrix formed; the shift is taken in
    place.  The caller guarantees coordinates below ``COORD_LIMIT``.
    """
    d, n, size = p.d, p.n, index.size
    # dn - k is max_generic_rank only for n >= d, and fewer rows rule it out
    if d not in (1, 2, 3) or n < d or D.shape[0] < max_generic_rank(n, d):
        return None
    touched, slot, diagonal = index.stiffness
    sums = _scatter_outer(slot, D, _STIFFNESS_SIGNS, touched.size)
    trace = float(sums[diagonal].sum())
    if not trace > 1.0 / SQUARE_LIMIT:
        return None
    Q = _motion_frame(p)
    W = np.sqrt(trace / size) * Q
    M = W @ W.T
    M.reshape(-1)[touched] += sums
    delta = max(2.0 * (D.shape[0] + Q.shape[1] + size + 3) * _EPS, floor) * float(np.trace(M))
    diagonal = M.diagonal().copy()
    M.flat[:: size + 1] -= delta
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    return _Certificate(M, L, delta, diagonal)


def _certifies_full_rank(graph: Graph, p: Configuration) -> bool:
    """Whether a rank decision at p is taken from :func:`_certify_full_rank`
    with no SVD: from d*n = ``_CERTIFIED_MIN_SIZE`` on, when it proves
    full rank.  The caller guarantees coordinates below ``COORD_LIMIT``."""
    return (p.d * p.n >= _CERTIFIED_MIN_SIZE
            and _certify_full_rank(*_edge_vectors(graph, p), p) is not None)


def _certified_solve(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, b: np.ndarray
) -> np.ndarray | None:
    """R^+ b for the rigidity matrix R at p, given by its edge index and
    edge vectors D, when :func:`_certify_full_rank` with the sqrt(eps)
    floor proves that R has rank max_generic_rank(n, d); otherwise None,
    and nothing is decided.

    The lift is the normal-equation solution with one corrected
    semi-normal step, both solves with K taken by
    :meth:`_Certificate.solve`: R x is a gather and R^T w is
    :func:`_transpose_apply`.  The caller guarantees
    coordinates below ``COORD_LIMIT``.
    """
    certificate = _certify_full_rank(index, D, p, math.sqrt(_EPS))
    if certificate is None:
        return None
    x = certificate.solve(_transpose_apply(index, D, b))
    residual = b - _rowdot(D, x[index.first] - x[index.second])
    return x + certificate.solve(_transpose_apply(index, D, residual))


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
