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
zeros with D (and -D) put at their nonzeros; and R^T e, Rdir^T e and the
tail blocks of 2 Rdir^T R are ``np.bincount`` sums over the same
positions, which add in edge order.  No other module reads the index.

Rank decisions use the relative singular-value cutoff
``sigma > sigma_max * max(shape) * SVD_RTOL``; generic ranks are estimated by
maximizing the rank over a few seeded random configurations, which depend
only on (n, d, seed).  A regular point is one where R attains the generic
rank; :func:`_require_regular` is the single test of it, applied to the rank
of an SVD (:func:`_regular_svd`, :func:`_regular_singular_values`), of
:func:`_rank` or of a least-squares solve.  A rank of max_generic_rank(n, d)
is the largest any graph can have, so it is the generic rank and takes no
generic-rank draw.  :func:`_rank` is the one rank rule where the rank alone
is needed (the generic-rank draws, :func:`is_regular_point`,
:func:`_regular_rank`): max_generic_rank when the Cholesky certificate
below proves it, else the SVD rule.

In the plane, generic rank is also decided exactly, with no draw, by the
(2,3) pebble game (:class:`_PebbleGame`), one edge at a time; in R^3, by
an orthonormal basis of the accepted rows of R at the first seeded draw
(:class:`_RowBasis`).  The persistence test walks its reductions with
one of the two.  :func:`generic_rank` and :func:`is_generically_rigid`
keep their seeded draws.

Each SVD helper answers one question.  :func:`_svd` and
:func:`_regular_svd` always return the thin factors and the rank,
(U, s, Vt, r), for what needs the basis U_r; :func:`_regular_singular_values`
returns (s, r) and forms no U or V, for what reads the singular values
alone (the model's field gain).  One helper takes no SVD where the
certificate below is issued: :func:`_regular_squared_singular_values`,
for the gradient spectrum, gives the r nonzero s_i^2 as the r largest
eigenvalues of R^T R, from d*n = ``_GRAM_EIGENSOLVE_MIN_SIZE`` on.  Minimum-norm
lifts R^+ b come from one LAPACK least-squares call
(:func:`_min_norm_solve`) whose singular values also give the rank under
the same cutoff, so no U or V factor is formed there either.
:func:`_regular_lift`, the model field's lift, takes R^+ b from the
certificate where it is issued and from that least-squares call
elsewhere.

``COORD_LIMIT`` = SQUARE_LIMIT^(1/2) = 1e75 is the one coordinate bound for
everything built from R: below it R, the squared edge lengths and R^T R
are finite.  A configuration with a NaN or infinite coordinate, or one of
magnitude ``COORD_LIMIT`` or more, is not a regular point: the gather
:func:`_edge_vectors`, which everything built from R starts with, raises
:class:`RankDeficiencyError` before a product can overflow or R reach
LAPACK, which may not return on a non-finite matrix.

The certificate (:func:`_certify_full_rank`).  With Q an orthonormal
basis of the k = d(d+1)/2 rigid motions at p (of the centred points,
:func:`_motion_frame`, whose columns come from :func:`_rigid_motions`,
the one builder of the rigid motions that :func:`rigid_motion_basis`
also calls) and s = tr(R^T R) / dn, let K = R^T R + s Q Q^T.
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
The certificate is tried from d*n = ``_CERTIFIED_MIN_SIZE`` on, a rule
that :func:`_certify_full_rank` applies itself, so its callers share it.
The SVD rule gives the same verdict.  As sigma_1^2 <= tr(R^T R) <= tr(K),
sigma_g / sigma_1 >= ((|E| + k + dn + 3) eps)^(1/2), about 4e-7 at
n = 150 in the plane, which is above the cutoff max(|E|, dn) * SVD_RTOL
for any R with fewer than 2e8 rows and columns, while the other k
singular values are of the size of R's rounding.  So wherever the
certificate decides, ranks and verdicts are those of the SVD, and so are
outputs, save those of the reader below and of the model lift after
it, which agree to rounding.  A
Cholesky that fails decides nothing, and the SVD or least-squares path
runs as before: near rank loss, on flexible graphs, on collinear frames,
or for d outside {1, 2, 3}.  The certificate assumes coordinates below
``COORD_LIMIT``, checked by the gather of D, so that no product overflows,
and it needs tr(R^T R) above 1 / SQUARE_LIMIT, so that underflow stays far
below delta.

One reader of a certified R takes no SVD.  The symmetric eigensolve of
R^T R, built by the certificate's stiffness scatter, returns each eigenvalue
to within about dn eps tr(R^T R): the rounding of the scatter and the
eigensolver's backward error, by Weyl's bound.  The k eigenvalues that
Ker R gives are of that size, and the other r are at least
sigma_g^2 >= 3 delta / 4 >= 3 (|E| + dn) eps tr(R^T R) / 2, above it, so
the r largest are the squared singular values, in the SVD's descending
order and equal to its squares to that rounding.

Where the certificate is issued, the model field's lift takes R^+ b from
it (:func:`_certified_solve`).  The sqrt(eps) floor of its shift makes
lambda_min(K) >= 3 delta / 4 >= (3/4) sqrt(eps) tr(K), which bounds
cond(R)^2 by 4 / (3 sqrt(eps)), so the normal-equation solution with one
corrected semi-normal step (Bjorck, *Numerical Methods for Least Squares
Problems*, 1996, 2.2), both solves with K backward stable, or banded
within the factor below, is as accurate as the least-squares solve.

One certificate on one layout (:class:`_Certificate`, from
:func:`_certify_full_rank`).  R^T R is laid out as a block-tridiagonal
matrix (``_EdgeIndex.band``), kept on the edge index and so freed with the
graph.  From d*n = ``_BANDED_MIN_SIZE`` on, the vertices go in reverse
Cuthill-McKee order (:func:`_band_order`), in which R^T R is block
tridiagonal with blocks w = d b wide for a vertex bandwidth b, where that
gives four blocks or more; below that size, or with fewer blocks, the
layout is one block of every vertex in vertex order, the dense dn x dn
matrix (George and Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981).  The certificate is taken on
K_P = R^T R + s Q_P Q_P^T, with Q_P the motion frame of the vertices of
blocks 0 and 1, the patch, and zero elsewhere, so s Q_P Q_P^T lies inside
the first two diagonal blocks and the block between them, and K_P is
block tridiagonal too: its Cholesky factor is block bidiagonal and costs
O(dn w^2), not O((dn)^3).  With one block the patch is every vertex,
Q_P = Q and K_P = K, and a solve is LU with K.  The proof above carries
over.
tr(K_P) = tr(K), so delta is the same.  s Q_P Q_P^T is positive
semidefinite of rank k, so by interlacing a Cholesky of K_P - delta I that
succeeds proves rank R = dn - k as one of K - delta I does.  The factor is
taken by Choleskys of two-block windows (:func:`_block_cholesky`): each
entry of L is still a Cholesky inner product of at most dn terms, summed in
another order, so the rounding bound above, and delta_0, hold unchanged.
Where K_P is positive definite, v^T K_P v = s |Q_P^T v|^2 > 0 for every
nonzero v in Ker R = span Q, so Q_P^T Q is nonsingular: K_P x = R^T b has
the one solution R^+ b + Q c with Q_P^T Q c = -Q_P^T R^+ b, a rigid motion
added to the lift, and R^+ b = x - Q Q^T x with the global motion frame Q.
Adding a rigid motion leaves R x as it is, so the semi-normal step reads
the same residual, and the floor bounds cond(K_P) as it bounds cond(K).
The patch keeps the rigid motions weighted by s sigma_min(Q_J)^2, with Q_J
the rows of Q at the patch, about s times the patch's share of the
vertices; k pinned coordinates, whose rows Q_J are few, keep far less.  A
patch that a rigid motion leaves fixed (its points coincide in d = 2, or
are collinear in d = 3) makes K_P singular, so the certificate declines,
and the SVD or least-squares rule decides, as at any point where it is not
issued.  On the 40 model starts at n = 150 of the benchmark's
large-formation workload for seeds 1 to 10, lambda_min(K_P) / delta is
0.29 to 0.92 times lambda_min(K) / delta, and never below 17; a patch of
block 0 alone gave 0.12 to 0.99, and down to 10.  The shift is taken in
place for the Cholesky and undone by writing the saved diagonal back,
exactly, so the certificate keeps the K_P it certified.

Solves with K_P of more than one block (:meth:`_Certificate.solve`) take
the block-bidiagonal Cholesky factor of K_P itself, unshifted, by the same
two-block windows, on the certificate's first solve (so a rank decision
takes none), and sweep down it and up its transpose on the inverses of its
diagonal blocks (:func:`_triangular_inverses`).  That factorization cannot
fail where the shifted one succeeded: the exact K_P has every eigenvalue
at least 3 delta / 4 >= 3 delta_0 / 4, above the delta_0 / 4 that forming
and factoring it may perturb it by, so no fallback is needed.  The sweeps
are the substitutions of a Cholesky solve, save that each diagonal block's
product with its computed inverse leaves a residual up to cond(L_tt) times
a substitution's; L_tt^-1 is a block of L^-1, so cond(L_tt) <= cond(L) =
cond(K_P)^(1/2) <= (4 / (3 sqrt(eps)))^(1/2), about 1e4 under the floor,
which leaves u cond(R)^2 times that factor far below 1, as the semi-normal
step needs.  Per model_field call on d = 2 formations of
bench.inputs.rigid_formation(n, n // 2) (one BLAS thread, 2 shared CPUs,
median over three formations of the best of fifteen interleaved 5-call
trials, the best of three such runs), one block vs banded: d*n = 40, 110
us, too few blocks; 80, 279 vs 449; 120, 602 vs 656; 140, 957 vs 736; 160,
1227 vs 974; 200, 1965 vs 1042; 240, 2915 vs 1325; 300, 5014 vs 1708; 500,
17256 vs 3275; 1000, 86188 vs 9017.
"""

from __future__ import annotations

import copy
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
# The lift column stands: below _BANDED_MIN_SIZE the certified lift is
# bit-identical to the one measured here, and at d*n = 40 it took 116 us
# against 118 before (best of thirty interleaved 100-call trials, one
# formation), so the constant stays.
_CERTIFIED_MIN_SIZE = 36

# d*n from which the squared singular values of R are the eigenvalues of
# R^T R where the certificate is issued (_regular_squared_singular_values),
# not those of an SVD: where the eigensolve wins in every d.  Per call on
# Henneberg formations with n/2 chords (bench.inputs.rigid_formation in the
# plane; one BLAS thread, median over three formations of the best of
# fifteen interleaved trials), SVD vs certificate and eigensolve: d = 1,
# d*n = 36, 83 vs 99 us; 48, 150 vs 142; 80, 440 vs 334.  d = 2: 40, 94 vs
# 122; 56, 191 vs 192; 64, 244 vs 227; 80, 386 vs 357.  d = 3, where the
# motion frame costs more: 36, 67 vs 132; 72, 260 vs 318; 90, 452 vs 466;
# 102, 597 vs 595; 108, 698 vs 643; 120, 905 vs 748.
_GRAM_EIGENSOLVE_MIN_SIZE = 100

# d*n from which the band layout (_EdgeIndex.band) orders the vertices by
# reverse Cuthill-McKee, where that gives four blocks or more: where the
# banded lift has stopped costing more than one block (table in the module
# docstring; it already cost less at d*n = 140 there, one step of the grid
# below, and the constant stays)
_BANDED_MIN_SIZE = 160


class RankDeficiencyError(RuntimeError):
    """Raised when an operation requires a regular point but the rigidity
    matrix has dropped rank there; ``rank`` is that rank when known."""

    rank: int | None = None


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


def matrix_rank(m) -> int:
    """Numerical rank with the toolkit-wide relative SVD cutoff; m, an
    ndarray or any array-like (such as nested lists), must be a finite 2-D
    matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"m must be a 2-D matrix, got {m.ndim} dimensions")
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
    def band(self) -> _Band:
        """The block-tridiagonal layout of R^T R.  From d*n =
        ``_BANDED_MIN_SIZE`` on, its vertices go in the order of
        :func:`_band_order`, in blocks of as many vertices as its bandwidth,
        so that each meets only the next, where that gives four blocks or
        more; otherwise the layout is one block of every vertex in vertex
        order, whose ``slot`` holds the flat positions of the dense dn x dn
        matrix.  Two blocks are no layout that the two-block windows of
        :func:`_block_cholesky` take, and with three one block is faster.
        ``model_field`` on the three-block formations ``grid_formation(150,
        default_rng(seed))`` of the tests, where both layouts are certified,
        in ms (best of 20 in two alternating runs, one BLAS thread, 2 shared
        CPUs):

        ====  =====  =========  ======
        seed  width  one block  banded
        ====  =====  =========  ======
        150   142    3.23       5.41
        151   138    3.25       5.12
        153   148    3.19       6.05
        ====  =====  =========  ======
        """
        d = self.first.shape[1]
        n = self.size // d
        vertices = np.stack((self.first[:, 0], self.second[:, 0])) // d
        order, per_block = np.arange(n), max(n, 1)
        if self.size >= _BANDED_MIN_SIZE:
            banded = _band_order(n, *vertices)
            ends = np.argsort(banded)[vertices]
            bandwidth = max(1, int(np.abs(ends[0] - ends[1]).max(initial=0)))
            if -(-n // bandwidth) >= 4:
                order, per_block = banded, bandwidth
        count, width = -(-n // per_block), d * per_block
        at = (d * np.argsort(order)[:, None] + np.arange(d)).reshape(-1)
        ends = np.stack((self.first, self.second))
        vertex_slot = ends[:, None, :, :, None] * self.size + ends[None, :, :, None, :]
        ends = at[ends]
        row, col = ends[:, None, :, :, None], ends[None, :, :, None, :]
        row_block, col_block = row // width, col // width
        within = (row % width) * width + col % width
        # diagonal blocks first, then the blocks below them; an entry above
        # the diagonal blocks goes to one last bin, which is dropped
        slot = np.where(row_block == col_block, row_block * width**2 + within,
                        np.where(row_block == col_block + 1,
                                 (count + col_block) * width**2 + within,
                                 (2 * count - 1) * width**2))
        for a in (order, at, slot, vertex_slot):
            a.setflags(write=False)
        return _Band(order, at, slot, vertex_slot, count, width)


@dataclass(frozen=True, eq=False)
class _Band:
    """R^T R, for the R of one graph in R^d, as a symmetric block-
    tridiagonal matrix: its rows and columns in the vertex order ``order``,
    padded at the end to ``count`` blocks of ``width`` = d * (vertices per
    block).  ``at`` (dn,) holds the position in that layout of each entry
    of vec(p), and ``slot`` (2, 2, |E|, d, d) the flat position, in the
    ``count`` diagonal blocks followed by the ``count`` - 1 blocks below
    them, of each entry of edge k's stiffness blocks (first, first),
    (first, second), (second, first) and (second, second), where R^T R adds
    _STIFFNESS_SIGNS * D_k D_k^T; ``vertex_slot`` holds their flat
    positions in the dn x dn matrix in vertex order.  With one block,
    ``order`` is the vertex order, ``width`` is dn and ``slot`` equals
    ``vertex_slot``."""

    order: np.ndarray
    at: np.ndarray
    slot: np.ndarray
    vertex_slot: np.ndarray
    count: int
    width: int


def _band_order(n: int, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The n vertices of the edges (first[k], second[k]) in reverse
    Cuthill-McKee order (Cuthill and McKee 1969; George and Liu, *Computer
    Solution of Large Sparse Positive Definite Systems*, 1981), or in their
    own order when that has no larger bandwidth.  Each component is walked
    breadth first, neighbours by increasing degree, from a pseudo-peripheral
    root: from a vertex of least degree, the root moves to the least-degree
    vertex of the walk's last level for as long as that deepens the walk."""
    neighbours = [[] for _ in range(n)]
    for i, j in zip(first.tolist(), second.tolist()):
        neighbours[i].append(j)
        neighbours[j].append(i)
    degree = [len(a) for a in neighbours]
    for a in neighbours:
        a.sort(key=degree.__getitem__)

    def walk(root):
        level = {root: 0}
        order = [root]
        for v in order:
            for u in neighbours[v]:
                if u not in level:
                    level[u] = level[v] + 1
                    order.append(u)
        return order, level

    order = []
    placed = set()
    for root in sorted(range(n), key=degree.__getitem__):
        if root in placed:
            continue
        path, level = walk(root)
        while True:
            depth = level[path[-1]]
            far = min((v for v in path if level[v] == depth), key=degree.__getitem__)
            far_path, far_level = walk(far)
            if far_level[far_path[-1]] <= depth:
                break
            path, level = far_path, far_level
        order += path
        placed.update(path)
    order = np.array(order[::-1], dtype=np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    if np.abs(rank[first] - rank[second]).max(initial=0) >= np.abs(first - second).max(initial=0):
        return np.arange(n)
    return order


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
    i < j, or p_tail - p_head given ``orientation``.  Raises
    :class:`RankDeficiencyError` unless every coordinate of p is finite
    and below ``COORD_LIMIT``, and ValueError unless p has one point per
    vertex."""
    if p.n != graph.n:
        raise ValueError(f"configuration has {p.n} points, graph has {graph.n} vertices")
    index = _edge_index(graph, p.d, orientation)
    x = p.points.reshape(-1)
    if not np.abs(x).max() < COORD_LIMIT:  # False for NaN too
        if not np.isfinite(x).all():
            raise RankDeficiencyError("configuration is not finite")
        raise RankDeficiencyError(f"coordinates exceed {COORD_LIMIT:.4g}: R^T R would overflow")
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


def _scatter_outer(
    at: np.ndarray, D: np.ndarray, scale: np.ndarray, bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one scatter of matrix-weighted Laplacian terms c D_k D_k^T:
    (the products (c D_k) D_k^T, of shape scale.shape + (|E|, d, d), where
    c runs over ``scale``; their ``np.bincount``, ``bins`` long, over the
    flat positions or slots ``at`` of the same shape).  Each position sums
    its terms in edge order, as ``np.add.at`` does, so every sum and sign
    bit is the same."""
    outer = (scale[..., None, None] * D)[..., :, None] * D[:, None, :]
    return outer, np.bincount(at.reshape(-1), outer.reshape(-1), minlength=bins)


def _transpose_apply(index: _EdgeIndex, D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """R^T w for the R that ``index`` and D give: the ``np.bincount`` of
    w_k D_k over the first endpoints' positions less that over the
    second's."""
    pull = (w[:, None] * D).reshape(-1)
    return (np.bincount(index.first.reshape(-1), pull, minlength=index.size)
            - np.bincount(index.second.reshape(-1), pull, minlength=index.size))


def _tail_apply(index: _EdgeIndex, D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rdir^T w for the Rdir that an orientation's ``index`` and D give:
    the ``np.bincount`` of w_k D_k over the tails' positions."""
    pull = (w[:, None] * D).reshape(-1)
    return np.bincount(index.first.reshape(-1), pull, minlength=index.size)


def _tail_blocks(index: _EdgeIndex, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the (|E|, d, d) stack of 2 D_k D_k^T; its (n, d, d) sums over the
    edges with tail i, the diagonal blocks of 2 Rdir^T R) for the Rdir
    that an orientation's ``index`` and D give."""
    d = D.shape[1]
    # 2 D_k D_k^T belongs at flat positions (d T_k + a) d + b of the blocks
    at = d * index.first[:, :, None] + np.arange(d)
    outer, blocks = _scatter_outer(at, D, np.array(2.0), d * index.size)
    return outer, blocks.reshape(-1, d, d)


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


def _rank(graph: Graph, p: Configuration) -> int:
    """The rank of R at p: max_generic_rank(n, d) when
    :func:`_certify_full_rank` proves it, else the SVD rank."""
    index, D = _edge_vectors(graph, p)
    if _certify_full_rank(index, D, p) is not None:
        return max_generic_rank(p.n, p.d)
    return matrix_rank(_put_blocks(index, D, -D))


def generic_rank(graph: Graph, d: int, seed: int = 0) -> int:
    """Rank of R at a generic configuration in R^d.

    Estimated as the max rank over the seeded draws of :func:`_draws`.  No
    draw can exceed the ceiling min(|E|, max_generic_rank(n, d)), so the
    draws stop once one reaches it: a generically rigid graph takes one
    draw, ranked by :func:`_rank`, so wherever the Cholesky certificate
    is issued with no SVD.  Deterministic per seed; memoized on
    the graph object per (d, seed), so the memo is freed with the graph.
    Raises ValueError unless d is a positive integer and seed a non-negative one.
    """
    d = _require_count("dimension", d, 1)
    key = (d, _require_count("seed", seed, 0))
    best = graph._rank_memo.get(key)
    if best is None:
        ceiling = min(graph.num_edges, max_generic_rank(graph.n, d))
        best = 0
        for p in _draws(graph, d, seed):
            best = max(best, _rank(graph, p))
            if best == ceiling:
                break
        graph._rank_memo[key] = best
    return best


def max_generic_rank(n: int, d: int) -> int:
    """Largest possible generic rank for n points in R^d (complete graph)."""
    if n >= d + 1:
        return d * n - d * (d + 1) // 2
    return n * (n - 1) // 2


def is_generically_rigid(graph: Graph, d: int, seed: int = 0) -> bool:
    """Whether generic frameworks of the graph in R^d admit only rigid
    motions: whether :func:`generic_rank` reaches max_generic_rank(n, d).
    Raises ValueError unless d is a positive integer and seed a non-negative one.
    """
    return generic_rank(graph, d, seed) == max_generic_rank(graph.n, d)


class _PebbleGame:
    """The (2,3) pebble game of Jacobs and Hendrickson (*J. Comput. Phys.*
    137, 1997) on n vertices, played one edge at a time.

    :meth:`insert` accepts an edge exactly when it is independent of the
    edges accepted before it in the generic rigidity matroid of the plane
    (Laman 1970), so the number accepted is the generic rank in R^2 of the
    edges offered, in whatever order they come, with no configuration drawn.
    Each vertex starts with two pebbles; every accepted edge holds one
    pebble of the vertex it points out of.  :meth:`copy` is a cheap copy of
    the state, so callers that extend one edge set in several ways share
    the work of its common part."""

    __slots__ = ("pebbles", "out")

    d = 2  # the dimension whose generic rank it counts

    def __init__(self, n: int):
        self.pebbles = [2] * n
        self.out = [[] for _ in range(n)]

    def copy(self) -> _PebbleGame:
        game = _PebbleGame.__new__(_PebbleGame)
        game.pebbles = self.pebbles.copy()
        game.out = [heads.copy() for heads in self.out]
        return game

    def _fetch(self, root: int, other: int) -> bool:
        """Move a free pebble to ``root`` from a vertex its accepted edges
        lead to, never through ``other``, by reversing the path to it;
        False when no such vertex holds one."""
        pebbles, out = self.pebbles, self.out
        parent = {root: root, other: other}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y]:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    while y != root:
                        x = parent[y]
                        out[x].remove(y)
                        out[y].append(x)
                        y = x
                    return True
                stack.append(y)
        return False

    def insert(self, u: int, v: int) -> bool:
        """Offer the edge {u, v} of 0-based vertices u != v: accept it, and
        return True, when four pebbles gather on u and v.  Filling u first
        loses nothing: once no pebble is reachable from u, the paths that v's
        searches reverse stay outside what u reaches, so none appears."""
        pebbles = self.pebbles
        while pebbles[u] < 2 and self._fetch(u, v):
            pass
        while pebbles[v] < 2 and self._fetch(v, u):
            pass
        if pebbles[u] + pebbles[v] < 4:
            return False
        pebbles[u] -= 1
        self.out[u].append(v)
        return True


class _RowBasis:
    """An orthonormal basis of the rows of R(p) accepted so far, at p the
    first of the seeded draws :func:`_draws` of ``graph`` in R^d, offered
    one edge at a time: the independence oracle of the persistence walk in
    R^3, where no pebble game is known.

    :meth:`insert` builds the row of edge {u, v} from D = p_u - p_v (D at
    u's block, -D at v's), takes its component orthogonal to the basis by
    classical Gram-Schmidt run twice, which keeps the basis orthonormal to
    working precision (Giraud, Langou and Rozloznik, *Comput. Math. Appl.*
    50, 2005), and accepts the row when that residual exceeds
    tau = max(|E|, dn) * SVD_RTOL of the row's norm: the factor of the SVD
    rule that ranks R(graph) at the same p.  The residual is the last
    diagonal entry of the triangular factor of the accepted rows and this
    one, so a rejected row leaves them with a singular value of at most
    tau |row| <= tau sigma_1, which the SVD rule at the factor tau does not
    count either.  A row that depends on the basis at p leaves a residual
    of the order of the basis size times eps of its norm, far below tau;
    one that does not leaves its distance from the span, which at a
    generic draw is far above it.  So the number accepted is the rank of
    the rows offered at p, in whatever order they come, with the
    probability-1 caveat of every generic-rank draw.  The basis grows by a
    new array on each accepted row and is never written in place, so
    :meth:`copy` shares it."""

    def __init__(self, graph: Graph, d: int, seed: int):
        self.d, self.points = d, next(_draws(graph, d, seed)).points
        self.rows = np.empty((0, d * graph.n))
        self.tol = max(graph.num_edges, d * graph.n) * SVD_RTOL

    def copy(self) -> _RowBasis:
        return copy.copy(self)

    def insert(self, u: int, v: int) -> bool:
        """Offer the row of the edge {u, v} of 0-based vertices u != v:
        accept it, and return True, when it is independent of the basis."""
        d, rows = self.d, self.rows
        row = np.zeros(rows.shape[1])
        row[d * u:d * u + d] = D = self.points[u] - self.points[v]
        row[d * v:d * v + d] = -D
        norm2 = row @ row
        for _ in range(2):
            row -= (rows @ row) @ rows
        residual2 = row @ row
        if residual2 <= self.tol**2 * norm2:
            return False
        self.rows = np.concatenate([rows, row[None] / math.sqrt(residual2)])
        return True


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


def _require_regular(graph: Graph, d: int, r: int, seed: int) -> None:
    """Raise :class:`RankDeficiencyError`, with its ``rank`` set to r, unless
    r, the rank of R at a configuration in R^d, is the generic rank; a
    rank of max_generic_rank(n, d) is, with no generic-rank draw.  Raises
    ValueError unless ``seed`` is a non-negative integer, drawn or not."""
    _require_count("seed", seed, 0)
    if r == max_generic_rank(graph.n, d):
        return
    expected = generic_rank(graph, d, seed)
    if r != expected:
        exc = RankDeficiencyError(f"not a regular point: rank {r} != generic rank {expected}")
        exc.rank = r
        raise exc


def _svd(graph: Graph, p: Configuration):
    """The thin SVD of R(p) plus its numerical rank: (U, s, Vt, r)."""
    R = rigidity_matrix(graph, p)
    U, s, Vt = np.linalg.svd(R, full_matrices=False)
    return U, s, Vt, _rank_from_singular_values(s, R.shape)


def _regular_svd(graph: Graph, p: Configuration, seed: int):
    """:func:`_svd` of R(p), checked by :func:`_require_regular`."""
    U, s, Vt, r = _svd(graph, p)
    _require_regular(graph, p.d, r, seed)
    return U, s, Vt, r


def _regular_singular_values(graph: Graph, p: Configuration, seed: int) -> tuple[np.ndarray, int]:
    """(s, r): the singular values of R(p) and its numerical rank, checked
    by :func:`_require_regular`, with no U or V formed."""
    R = rigidity_matrix(graph, p)
    s = np.linalg.svd(R, compute_uv=False)
    r = _rank_from_singular_values(s, R.shape)
    _require_regular(graph, p.d, r, seed)
    return s, r


def _regular_squared_singular_values(graph: Graph, p: Configuration, seed: int) -> np.ndarray:
    """The r nonzero squared singular values of R(p), descending, where
    r, their count, is its rank, checked by :func:`_require_regular`.  From
    d*n = ``_GRAM_EIGENSOLVE_MIN_SIZE`` on, where the certificate is issued,
    they are the r largest eigenvalues of R^T R from one symmetric
    eigensolve, with R^T R built by the certificate's stiffness scatter and no
    R or SVD formed; otherwise the squares of :func:`_regular_singular_values`."""
    index, D = _edge_vectors(graph, p)
    if index.size >= _GRAM_EIGENSOLVE_MIN_SIZE:
        certificate = _certify_full_rank(index, D, p)
        if certificate is not None:
            r = max_generic_rank(p.n, p.d)
            _require_regular(graph, p.d, r, seed)
            return np.linalg.eigvalsh(certificate.gram())[::-1][:r]
    s, r = _regular_singular_values(graph, p, seed)
    return s[:r] ** 2


def _regular_rank(graph: Graph, p: Configuration, seed: int) -> int:
    """The rank r of R(p) by :func:`_rank`, checked by
    :func:`_require_regular`: where the certificate is issued, with no SVD
    and no generic-rank draw."""
    r = _rank(graph, p)
    _require_regular(graph, p.d, r, seed)
    return r


def _min_norm_solve(R: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(R^+ b, rank of R) from one least-squares solve with no U or V.

    With rcond = max(shape) * SVD_RTOL the solver treats as zero exactly
    the singular values that :func:`_rank_from_singular_values` does not
    count, so its pseudoinverse is the one of that rank.  R must be finite.
    """
    x, _, _, s = np.linalg.lstsq(R, b, rcond=max(R.shape) * SVD_RTOL)
    return x, _rank_from_singular_values(s, R.shape)


def _rigid_motions(points: np.ndarray, translation: float = 1.0) -> np.ndarray:
    """The infinitesimal rigid motions at ``points``, an (n, d) array with
    d in {1, 2, 3}, as an (n, d, d(d+1)/2) array whose last axis indexes
    the motions: first the d translations, each entry ``translation``,
    then the rotations written by component, (-y, x) for d = 2 and
    e_a x (x, y, z) for each axis a for d = 3.  Each translation entry is
    written once, so a scaled one costs no second pass."""
    n, d = points.shape
    frame = np.zeros((n, d, d * (d + 1) // 2))
    for a in range(d):
        frame[:, a, a] = translation
    if d == 2:
        frame[:, 0, 2], frame[:, 1, 2] = -points[:, 1], points[:, 0]
    elif d == 3:
        x, y, z = points.T
        frame[:, 1, 3], frame[:, 2, 3] = -z, y
        frame[:, 0, 4], frame[:, 2, 4] = z, -x
        frame[:, 0, 5], frame[:, 1, 5] = -y, x
    return frame


def _motion_frame(points: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the rigid motions at the centred
    ``points``, an (n, d) array with d in {1, 2, 3}: :func:`_rigid_motions`
    of the centred points with translations 1/sqrt(n), so that each is a
    unit vector, and the rotations orthogonal to them because the points
    are centred.  For d = 2 the one rotation is normalized; for d = 3 the
    three are the Q of a QR of their own.  Some two points must differ, so
    that the rotation is not zero."""
    n, d = points.shape
    centred = points - points.sum(axis=0) / n
    frame = _rigid_motions(centred, 1.0 / math.sqrt(n))
    if d == 2:
        rotation = frame[:, :, 2]
        rotation /= np.linalg.norm(rotation)
    elif d == 3:
        frame[:, :, 3:] = np.linalg.qr(frame[:, :, 3:].reshape(3 * n, 3))[0].reshape(n, 3, 3)
    return frame.reshape(d * n, -1)


_STIFFNESS_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


@dataclass(frozen=True, eq=False)
class _Certificate:
    """A successful certificate (module docstring) of K_P = R^T R +
    s Q_P Q_P^T in the order and layout of ``index.band``, for the R that
    the edge index gives at ``points``: ``delta`` is the shift of its
    Cholesky, which proved and was discarded, ``outer`` (2, 2, |E|, d, d)
    the terms of R^T R that the stiffness scatter summed, ``K`` K_P's m
    diagonal blocks, w x w, and ``lower`` the m - 1 blocks below them; with
    one block, K_P is K in vertex order.  :meth:`solve` solves with K_P,
    and :meth:`gram` forms R^T R."""

    delta: float
    points: np.ndarray = field(repr=False)
    index: _EdgeIndex = field(repr=False)
    outer: np.ndarray = field(repr=False)
    K: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)

    def gram(self) -> np.ndarray:
        """R^T R in vertex order: ``outer`` summed over ``band.vertex_slot``,
        as the certificate summed it over ``band.slot``."""
        size = self.index.size
        return np.bincount(self.index.band.vertex_slot.reshape(-1), self.outer.reshape(-1),
                           minlength=size * size).reshape(size, size)

    @cached_property
    def Q(self) -> np.ndarray:
        """The motion frame at ``points``, built on the first banded solve."""
        return _motion_frame(self.points)

    @cached_property
    def _sweeps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(inverse, forward, backward) for the block-bidiagonal Cholesky
        factor L of K_P itself, unshifted: the inverses of L's diagonal
        blocks, and L's blocks below them multiplied by those inverses, so
        that each step of a sweep is one product.  Built on the first
        solve, so that a rank decision builds none of them."""
        factor, panels = _block_cholesky(self.K, self.lower)
        inverse = _triangular_inverses(factor)
        forward = inverse[1:] @ panels
        return inverse, forward, np.swapaxes(panels @ inverse[:-1], 1, 2)

    def solve(self, c: np.ndarray) -> np.ndarray:
        """K^-1 c for c in Im R^T.  With one block, by LU with K.  With
        more, y = K_P^-1 c by one sweep down L and one up L^T, then y less
        its component along the rigid motions, y - Q Q^T y."""
        m, w, _ = self.K.shape
        if m == 1:
            return np.linalg.solve(self.K[0], c)
        inverse, forward, backward = self._sweeps
        at = self.index.band.at
        z = np.zeros(m * w)
        z[at] = c
        z = (inverse @ z.reshape(m, w, 1))[:, :, 0]
        for t, step in enumerate(forward, 1):
            z[t] -= step @ z[t - 1]
        y = (z[:, None, :] @ inverse)[:, 0]
        for t in range(m - 2, -1, -1):
            y[t] -= backward[t] @ y[t + 1]
        x = y.reshape(-1)[at]
        return x - self.Q @ (self.Q.T @ x)


def _triangular_inverses(L: np.ndarray) -> np.ndarray:
    """The inverses of a stack of lower-triangular matrices, (m, w, w):
    their 8-wide diagonal blocks, the last padded with the identity, from
    one batched inverse, and left of block (i, i), block row by block row,
    -X_ii L_i,<i X_<i,<i.  LAPACK's inverse of a whole block costs several
    times more from w = 12 on."""
    m, w, _ = L.shape
    q = -(-w // 8)
    padded = np.zeros((m, 8 * q, 8 * q))
    padded[:, :w, :w] = L
    padded[:, np.arange(w, 8 * q), np.arange(w, 8 * q)] = 1.0
    leaves = np.linalg.inv(np.diagonal(padded.reshape(m, q, 8, q, 8), axis1=1, axis2=3)
                           .transpose(0, 3, 1, 2))
    X = np.zeros_like(padded)
    for i in range(q):
        a, b = 8 * i, 8 * i + 8
        X[:, a:b, a:b] = leaves[:, i]
        if a:
            X[:, a:b, :a] = -(leaves[:, i] @ (padded[:, a:b, :a] @ X[:, :a, :a]))
    return X[:, :w, :w]


def _trace(K: np.ndarray) -> float:
    """The trace of the diagonal blocks K, (m, w, w): one block summed
    pairwise, as ``np.trace`` sums, and more block by block, each in turn,
    as ``np.einsum`` sums; so each layout keeps the last bits of its
    outputs."""
    return float(K[0].trace() if len(K) == 1 else np.einsum("tii->", K))


def _block_cholesky(K: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(factor, panels): the diagonal blocks of the block-bidiagonal
    Cholesky factor L of the symmetric block-tridiagonal matrix with
    diagonal blocks K, (m, w, w), and the m - 1 blocks ``lower`` below
    them, and L's blocks below its diagonal; LinAlgError where it is not
    positive definite.  One block is one Cholesky.  More are factored two
    at a time: the Cholesky of the window [[S_t, K_t+1,t^T], [K_t+1,t,
    K_t+1,t+1]], with S_0 = K_00, gives L_tt, the panel L_t+1,t below it
    and the factor of the next block; the next window starts from
    S_t+1 = K_t+1,t+1 - L_t+1,t L_t+1,t^T.  So every entry of L comes from
    LAPACK's Cholesky, and its panels from its own triangular solves, which
    NumPy does not offer alone."""
    m, w, _ = K.shape
    if m == 1:
        return np.linalg.cholesky(K), lower
    factor, panels = np.empty_like(K), np.empty_like(lower)
    window = np.empty((2 * w, 2 * w))
    schur = K[0]
    for t, below in enumerate(lower):
        window[:w, :w], window[w:, :w] = schur, below
        window[:w, w:], window[w:, w:] = below.T, K[t + 1]
        F = np.linalg.cholesky(window)
        factor[t], panels[t], factor[t + 1] = F[:w, :w], F[w:, :w], F[w:, w:]
        schur = window[w:, w:] - panels[t] @ panels[t].T
    return factor, panels


def _certify_full_rank(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, floor: float = 0.0
) -> _Certificate | None:
    """The certificate that the rigidity matrix R at p, given by its edge
    index and edge vectors D, has rank max_generic_rank(n, d), when d*n is
    at least ``_CERTIFIED_MIN_SIZE``; otherwise None, and nothing is
    decided.  It is the :class:`_Certificate` of K_P = R^T R + s Q_P Q_P^T
    in the layout of ``index.band``, with s = tr(R^T R) / dn and Q_P the
    motion frame (:func:`_motion_frame`) of the vertices of blocks 0 and 1,
    the patch, and zero elsewhere: with one block, the patch is every
    vertex and K_P is K.  None when tr(R^T R) is not above 1 / SQUARE_LIMIT,
    the patch's points coincide, or :func:`_block_cholesky` of
    K_P - delta I fails.

    delta is max(2 (|E| + k + dn + 3) eps, ``floor``) tr(K_P): a rank
    decision takes the rounding term alone, and the model lift of
    :func:`_certified_solve` its sqrt(eps) floor; the module docstring
    proves both.  R itself is not formed: R^T R puts each edge's D_k D_k^T
    at its two endpoint blocks and subtracts it at the two mixed ones, one
    scatter (:func:`_scatter_outer`) over ``band.slot``.  The last block's
    padding is a diagonal of s, which stays apart from the rest.  The shift
    is taken in place and undone by writing the saved diagonal back, so the
    certificate holds exactly the K_P it certified; the shifted factor only
    proves, and is discarded.
    """
    d, n, size = p.d, p.n, index.size
    # dn - k is max_generic_rank only for n >= d, and fewer rows rule it out
    if (size < _CERTIFIED_MIN_SIZE or d not in (1, 2, 3) or n < d
            or D.shape[0] < max_generic_rank(n, d)):
        return None
    band = index.band
    m, w = band.count, band.width
    outer, flat = _scatter_outer(band.slot, D, _STIFFNESS_SIGNS, (2 * m - 1) * w * w + 1)
    K = flat[: m * w * w].reshape(m, w, w)
    lower = flat[m * w * w: -1].reshape(m - 1, w, w)
    trace = _trace(K)
    # with one block the patch is every vertex, which a positive trace
    # already shows not to coincide
    patch = p.points if m == 1 else p.points[band.order[: 2 * w // d]]
    if not trace > 1.0 / SQUARE_LIMIT or m > 1 and d > 1 and (patch == patch[0]).all():
        return None
    W = math.sqrt(trace / size) * _motion_frame(patch)
    WW = W @ W.T
    K[0] += WW[:w, :w]
    if m > 1:
        K[1] += WW[w:, w:]
        lower[0] += WW[w:, :w]
    delta = max(2.0 * (D.shape[0] + W.shape[1] + size + 3) * _EPS, floor) * _trace(K)
    diagonal = K.reshape(m, -1)[:, :: w + 1]
    diagonal[-1, size - (m - 1) * w:] = trace / size
    saved = diagonal.copy()
    diagonal -= delta
    try:
        _block_cholesky(K, lower)
    except np.linalg.LinAlgError:
        return None
    diagonal[...] = saved
    return _Certificate(delta, p.points, index, outer, K, lower)


def _certified_solve(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, b: np.ndarray
) -> np.ndarray | None:
    """R^+ b for the rigidity matrix R at p, given by its edge index and
    edge vectors D, when :func:`_certify_full_rank` with the sqrt(eps)
    floor proves that R has rank max_generic_rank(n, d); otherwise None,
    and nothing is decided.

    The lift is the normal-equation solution with one corrected
    semi-normal step, both solves with K taken by the certificate's
    ``solve``: R x is a gather and R^T w is :func:`_transpose_apply`.
    """
    certificate = _certify_full_rank(index, D, p, math.sqrt(_EPS))
    if certificate is None:
        return None
    x = certificate.solve(_transpose_apply(index, D, b))
    residual = b - _rowdot(D, x[index.first] - x[index.second])
    return x + certificate.solve(_transpose_apply(index, D, residual))


def _regular_lift(
    graph: Graph, index: _EdgeIndex, D: np.ndarray, p: Configuration, b: np.ndarray, seed: int
) -> np.ndarray:
    """R^+ b for the rigidity matrix R at a regular point p, given by its
    edge index and edge vectors D: from :func:`_certified_solve` where the
    certificate is issued, otherwise from :func:`_min_norm_solve`.  Both
    routes end in :func:`_require_regular` on the rank they found, so
    either raises :class:`RankDeficiencyError` off regular points and
    ValueError on a seed that is not a non-negative integer."""
    x = _certified_solve(index, D, p, b)
    if x is None:
        x, r = _min_norm_solve(_put_blocks(index, D, -D), b)
    else:
        r = max_generic_rank(p.n, p.d)
    _require_regular(graph, p.d, r, seed)
    return x


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
    matrix; every column is annihilated by any rigidity matrix at p.  The
    columns are :func:`_rigid_motions` at p: unit translations and the
    rotations of the uncentred points.  Supported for d in {1, 2, 3}.
    """
    if p.d not in (1, 2, 3):
        raise ValueError("rigid motions implemented for dimensions 1, 2, 3 only")
    return _rigid_motions(p.points).reshape(p.d * p.n, -1)


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
