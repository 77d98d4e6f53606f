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
(2,3) pebble game (:class:`_PebbleGame`), one edge at a time; the
persistence test walks its reductions with it.  :func:`generic_rank` and
:func:`is_generically_rigid` keep their seeded draws.

Each SVD helper answers one question.  :func:`_svd` and
:func:`_regular_svd` always return the thin factors and the rank,
(U, s, Vt, r), for what needs the basis U_r; :func:`_regular_singular_values`
returns (s, r) and forms no U or V, for what reads the singular values
alone (the model's field gain).  Two helpers take no SVD where the
certificate below is issued: :func:`_regular_squared_singular_values`,
for the gradient spectrum, gives the r nonzero s_i^2 as the r largest
eigenvalues of R^T R, from d*n = ``_GRAM_EIGENSOLVE_MIN_SIZE`` on, and
:func:`_certified_image_basis` gives an orthonormal basis of Im R that is
not U_r, for what reads only basis-free quantities.  Minimum-norm
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
The certificate is tried from d*n = ``_CERTIFIED_MIN_SIZE`` on, a rule
that :func:`_certify_full_rank` applies itself, so its callers share it.
The SVD rule gives the same verdict.  As sigma_1^2 <= tr(R^T R) <= tr(K),
sigma_g / sigma_1 >= ((|E| + k + dn + 3) eps)^(1/2), about 4e-7 at
n = 150 in the plane, which is above the cutoff max(|E|, dn) * SVD_RTOL
for any R with fewer than 2e8 rows and columns, while the other k
singular values are of the size of R's rounding.  So wherever the
certificate decides, ranks and verdicts are those of the SVD, and so are
outputs, save those of the two readers below, which agree to rounding.  A
Cholesky that fails decides nothing, and the SVD or least-squares path
runs as before: near rank loss, on flexible graphs, on collinear frames,
or for d outside {1, 2, 3}.  The certificate assumes coordinates below
``COORD_LIMIT``, checked by the gather of D, so that no product overflows,
and it needs tr(R^T R) above 1 / SQUARE_LIMIT, so that underflow stays far
below delta.

Two readers of a certified R take no SVD.  The symmetric eigensolve of
R^T R, built from the certificate's own scatter, returns each eigenvalue
to within about dn eps tr(R^T R): the rounding of the scatter and the
eigensolver's backward error, by Weyl's bound.  The k eigenvalues that
Ker R gives are of that size, and the other r are at least
sigma_g^2 >= 3 delta / 4 >= 3 (|E| + dn) eps tr(R^T R) / 2, above it, so
the r largest are the squared singular values, in the SVD's descending
order and equal to its squares to that rounding.  And K is positive
definite, so no nonzero vector of Ker R is orthogonal to the motion frame
Q: R Q_perp, with Q_perp an orthonormal complement of Q, is injective, and
the Q factor of its Householder QR is an orthonormal basis of Im R.
R Q_perp is a gather of Q_perp's rows at the edges' endpoints.

Where the certificate is issued, the model field's lift takes R^+ b from
it (:func:`_certified_solve`).  The
sqrt(eps) floor of its shift makes lambda_min(K) >= 3 delta / 4 >=
(3/4) sqrt(eps) tr(K), which bounds cond(R)^2 by 4 / (3 sqrt(eps)), so the
normal-equation solution with one corrected semi-normal step (Bjorck,
*Numerical Methods for Least Squares Problems*, 1996, 2.2), both solves
with K backward stable, is as accurate as the least-squares solve.

Factor once (:class:`_Certificate`).  The certificate keeps K itself:
the shift is taken in place for the Cholesky and undone by writing K's
saved diagonal back, exactly, so the K it holds is the K it certified and
no second dn x dn matrix is formed.  From d*n = ``_FACTORED_SOLVE_MIN_SIZE``
on, both solves with K run on the certificate's own factor L of
M = K - delta I, and the certified lift takes that one factorization and no
LU, least-squares or SVD.  A solve of K y = c starts from y = M^-1 c and
refines, y <- y + M^-1 (c - K y), with M^-1 applied as L^-T L^-1: L^-1 is
formed once per certificate, its diagonal blocks by one batched inverse and
the rest block row by block row with matrix products
(:func:`_lower_inverse`).  The iteration matrix is -delta M^-1, which
contracts by delta / (lambda_min(K) - delta) per step.  Each step is checked
a posteriori: with the residual rho computed as fl(c - K y), its rounding
is at most beta = (dn + 2) eps (|c| + nu |y|), nu = ||K||_F >= || |K| ||_2
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.5), so y
solves (K + E) y = c with ||E||_2 <= (|rho| + beta) / |y| (Rigal and
Gaches 1967), and ||y - K^-1 c|| <= (4 / (3 delta)) (|rho| + beta).  y is
taken once |rho| + beta <= 4 (dn + 2) eps nu |y|: E is then within the
normwise backward error of the LU or Cholesky solve it replaces (Higham
2002, 9.3 and 10.1), which is all the semi-normal argument above needs.  A
residual that fails to halve before that (lambda_min(K) < 3 delta, or so
near it that the steps stall) hands the solve to LU with K, which the same
argument covers; a least-squares solve there would cost several times
more.  Below ``_FACTORED_SOLVE_MIN_SIZE`` both solves are such LU solves:
there forming L^-1 costs more than the two solves it replaces.  Per
model_field call on d = 2 formations of
bench.inputs.rigid_formation(n, n // 2) (one BLAS thread, median over
three formations of the best of fifteen interleaved trials), LU vs
refinement on L: d*n = 40, 125 vs 229 us; 80, 446 vs 661; 120, 476
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


def _edge_subset(graph: Graph, edges) -> np.ndarray:
    """``edges`` as an index array, when its entries are strictly increasing
    integers in 0..|E|-1; otherwise ValueError.  A plain loop, which costs
    less than array checks on the short lists persistence_check passes: one
    per reduction in R^3, and in the plane the one witness it confirms."""
    last, top = -1, graph.num_edges
    for k in edges:
        if not (type(k) is int or isinstance(k, np.integer)) or not last < k < top:
            raise ValueError(f"edges must be strictly increasing integers in "
                             f"0..{top - 1}, got {edges!r}")
        last = k
    return np.asarray(edges, dtype=np.intp)


def is_generically_rigid(graph: Graph, d: int, seed: int = 0, edges=None) -> bool:
    """Whether generic frameworks of the graph in R^d admit only rigid
    motions: whether :func:`generic_rank` reaches max_generic_rank(n, d).

    With ``edges``, a sequence of strictly increasing integer edge indices
    in 0..|E|-1 (the canonical order :class:`Graph` keeps; empty is
    allowed), the verdict is that of the spanning subgraph on those edges:
    whether it has at least max_generic_rank(n, d) edges and the rows
    ``edges`` of the graph's R reach that rank, by the SVD rule, at one of
    the same draws.  Those R are built once per (d, seed) and kept on the
    graph until a subgraph is tested at another (d, seed), so testing many
    subgraphs builds no graph and no R of their own and the graph keeps one
    set of draws at most; subgraph verdicts are not memoized.
    Raises ValueError unless d is a positive integer, seed a non-negative
    one and ``edges`` as above: a negative, fractional, repeated or
    out-of-range index is never wrapped, truncated or counted.
    """
    d = _require_count("dimension", d, 1)
    full = max_generic_rank(graph.n, d)
    if edges is None:
        return generic_rank(graph, d, seed) == full
    key = (d, _require_count("seed", seed, 0))
    if key not in graph._draw_memo:
        graph._draw_memo.clear()
        graph._draw_memo[key] = [rigidity_matrix(graph, p) for p in _draws(graph, d, seed)]
    rows = _edge_subset(graph, edges)
    return rows.size >= full and any(matrix_rank(R[rows]) == full for R in graph._draw_memo[key])


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
    eigensolve, with R^T R built from the certificate's own scatter and no
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


def _motion_frame(p: Configuration) -> np.ndarray:
    """Orthonormal columns spanning the rigid motions at the centred points
    of p, for d in {1, 2, 3}: the d unit translations over sqrt(n), and
    the rotations of the centred points, orthogonal to the translations
    because the points are centred.  For d = 2 the one rotation (-y, x) is
    normalized; for d = 3 the three, e_a x (x, y, z) for each axis a, are
    the Q of a QR of their own.  Some two points of p must differ, so that
    the rotation is not zero."""
    d, n = p.d, p.n
    centred = p.points - p.points.sum(axis=0) / n
    frame = np.zeros((n, d, d * (d + 1) // 2))
    for a in range(d):
        frame[:, a, a] = 1.0 / math.sqrt(n)
    if d == 2:
        rotation = frame[:, :, 2]
        rotation[:, 0] = -centred[:, 1]
        rotation[:, 1] = centred[:, 0]
        rotation /= np.linalg.norm(rotation)
    elif d == 3:
        x, y, z = centred.T
        rotations = np.zeros((n, 3, 3))
        rotations[:, 1, 0], rotations[:, 2, 0] = -z, y
        rotations[:, 0, 1], rotations[:, 2, 1] = z, -x
        rotations[:, 0, 2], rotations[:, 1, 2] = -y, x
        frame[:, :, 3:] = np.linalg.qr(rotations.reshape(3 * n, 3))[0].reshape(n, 3, 3)
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
    """A successful certificate: the stiffness matrix ``K`` it certifies,
    the Cholesky factor ``L`` of K - ``delta`` I, ``delta``, and what K is
    built from: the motion frame ``Q`` and the entries ``sums`` of R^T R
    at the flat positions ``touched``.  :meth:`solve` solves with K, and
    :meth:`gram` forms R^T R."""

    K: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)
    delta: float
    Q: np.ndarray = field(repr=False)
    touched: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)

    def gram(self) -> np.ndarray:
        """R^T R, from the stiffness scatter that K was built with."""
        G = np.zeros(self.K.size)
        G[self.touched] = self.sums
        return G.reshape(self.K.shape)

    @cached_property
    def _inverse(self) -> np.ndarray:
        return _lower_inverse(self.L)

    @cached_property
    def _scale(self) -> float:
        """||K||_F, at least ||K||_2 and || |K| ||_2."""
        return float(np.linalg.norm(self.K))

    def substitute(self, c: np.ndarray) -> np.ndarray:
        """(K - delta I)^-1 c, as L^-T (L^-1 c)."""
        X = self._inverse
        return X.T @ (X @ c)

    def solve(self, c: np.ndarray) -> np.ndarray:
        """K^-1 c, backward stable.  From d*n = ``_FACTORED_SOLVE_MIN_SIZE``
        on, refined from :meth:`substitute` until the module docstring's
        a-posteriori test shows it backward stable, as long as each step at
        least halves the residual; otherwise, and below that size, by LU
        with K."""
        K = self.K
        if K.shape[0] >= _FACTORED_SOLVE_MIN_SIZE:
            scale = self._scale
            rounding = (K.shape[0] + 2) * _EPS
            c_norm = math.sqrt(c @ c)
            y = self.substitute(c)
            last = math.inf
            while True:
                residual = c - K @ y
                r_norm, y_norm = math.sqrt(residual @ residual), math.sqrt(y @ y)
                if r_norm + rounding * (c_norm + scale * y_norm) <= 4.0 * rounding * scale * y_norm:
                    return y
                if not r_norm <= 0.5 * last:
                    break
                last = r_norm
                y += self.substitute(residual)
        return np.linalg.solve(K, c)


def _certify_full_rank(
    index: _EdgeIndex, D: np.ndarray, p: Configuration, floor: float = 0.0
) -> _Certificate | None:
    """The certificate that the rigidity matrix R at p, given by its edge
    index and edge vectors D, has rank max_generic_rank(n, d): the
    :class:`_Certificate` of K = R^T R + s Q Q^T when d*n is at least
    ``_CERTIFIED_MIN_SIZE`` and a Cholesky of K - delta I succeeds;
    otherwise None, and nothing is decided.

    delta is max(2 (|E| + k + dn + 3) eps, ``floor``) tr(K): a rank
    decision takes the rounding term alone, and the model lift of
    :func:`_certified_solve` its sqrt(eps) floor; the module docstring
    proves both.  Q is :func:`_motion_frame`.  R itself is not formed:
    R^T R puts each edge's D_k D_k^T at its two endpoint blocks and
    subtracts it at the two mixed ones, summed by :func:`_scatter_outer`
    over the distinct positions ``index.stiffness`` and added to
    s Q Q^T, which is the one dense matrix formed.  The shift is taken in
    place for the Cholesky and undone by writing K's saved diagonal back,
    so the certificate holds exactly the K it certified.
    """
    d, n, size = p.d, p.n, index.size
    # dn - k is max_generic_rank only for n >= d, and fewer rows rule it out
    if (size < _CERTIFIED_MIN_SIZE or d not in (1, 2, 3) or n < d
            or D.shape[0] < max_generic_rank(n, d)):
        return None
    touched, slot, diagonal = index.stiffness
    _, sums = _scatter_outer(slot, D, _STIFFNESS_SIGNS, touched.size)
    trace = float(sums[diagonal].sum())
    if not trace > 1.0 / SQUARE_LIMIT:
        return None
    Q = _motion_frame(p)
    W = np.sqrt(trace / size) * Q
    K = W @ W.T
    K.reshape(-1)[touched] += sums
    delta = max(2.0 * (D.shape[0] + Q.shape[1] + size + 3) * _EPS, floor) * float(np.trace(K))
    diagonal = K.diagonal().copy()
    K.flat[:: size + 1] -= delta
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    K.flat[:: size + 1] = diagonal
    return _Certificate(K, L, delta, Q, touched, sums)


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
    :func:`_transpose_apply`.
    """
    certificate = _certify_full_rank(index, D, p, math.sqrt(_EPS))
    if certificate is None:
        return None
    x = certificate.solve(_transpose_apply(index, D, b))
    residual = b - _rowdot(D, x[index.first] - x[index.second])
    return x + certificate.solve(_transpose_apply(index, D, residual))


def _certified_image_basis(graph: Graph, p: Configuration, seed: int) -> np.ndarray | None:
    """An orthonormal basis of Im R(p) where :func:`_certify_full_rank`
    proves that R has rank r = max_generic_rank(n, d), so that p is
    regular; otherwise None, and nothing is decided.  Raises ValueError
    unless ``seed`` is a non-negative integer, as :func:`_require_regular`.

    The basis is the Q factor of a Householder QR of R Q_perp, with Q_perp
    the orthonormal complement of the certificate's motion frame Q; the
    module docstring shows that R Q_perp has rank r.  R Q_perp is a gather
    of Q_perp's rows at the edges' endpoints, and R itself is not formed."""
    index, D = _edge_vectors(graph, p)
    certificate = _certify_full_rank(index, D, p)
    if certificate is None:
        return None
    Q = certificate.Q
    _require_regular(graph, p.d, max_generic_rank(p.n, p.d), seed)
    complement = np.linalg.qr(Q, mode="complete")[0][:, Q.shape[1]:]
    RQ = np.einsum("ka,kar->kr", D, complement[index.first] - complement[index.second])
    return np.linalg.qr(RQ)[0]


def _regular_lift(
    graph: Graph, index: _EdgeIndex, D: np.ndarray, p: Configuration, b: np.ndarray, seed: int
) -> np.ndarray:
    """R^+ b for the rigidity matrix R at a regular point p, given by its
    edge index and edge vectors D: from :func:`_certified_solve` where the
    certificate is issued, otherwise from :func:`_min_norm_solve`, whose
    rank :func:`_require_regular` checks (raising
    :class:`RankDeficiencyError` off regular points)."""
    x = _certified_solve(index, D, p, b)
    if x is None:
        x, r = _min_norm_solve(_put_blocks(index, D, -D), b)
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
