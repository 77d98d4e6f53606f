"""Formation controllers as node vector fields.

Each controller is a lift of edge-space descent to a node velocity u at a
configuration p with measurement m = F(p), linear in the edge error m* - m;
the fields return the flat u and nothing else:

* gradient: u = R^T (m* - m); the classical distributed law where every
  agent reacts to all its incident edges.
* model:    u = (1/2) R^+ Pi (m* - m); projected steepest descent of the
  edge error realized by the minimum-norm node velocity.  Centralized, and
  defined only at regular points.
* directed: u = Rdir^T (m* - m); only the tail agent of each edge reacts,
  so information flow is one-way and the flow is no longer a gradient.

The gradient and directed fields never build R.  Both run on the edge
index of :mod:`rigidform.rigidity`, the flat positions in vec(p) of each
edge's endpoint blocks: R^T e is the ``np.bincount`` of e_k D_k over the
first endpoints' positions less that over the second's, and Rdir^T e the
one ``np.bincount`` of e_k (p_t - p_h) over the tails' positions.  The
model field gathers D once and takes u = x / 2 with x = R^+ (m* - m).
From d*n = ``_CERTIFIED_MIN_SIZE`` on, x comes first from the stiffness
matrix K = R^T R + s Q Q^T, Q the rigid motions at p, built from D on the
same edge index: a floating-point Cholesky of K - delta I that succeeds
proves that R has the largest rank any graph can have, so p is regular
with no generic-rank draw, and x is the normal-equation solution with one
corrected semi-normal step (:mod:`rigidform.rigidity` gives delta and the
interlacing argument).  Below that size, and wherever the Cholesky fails,
R is built from D and x comes from one least-squares solve whose singular
values also decide regularity, so no SVD factor U or V is formed.
:func:`field_gain` gives the operator norm of the edge-to-node map.

The fields do not compute the edge velocity v = 2 R(p) u: that is
eta (m* - m), from :func:`eta_matrix`, whose restriction to the achievable
edge velocities is what the certificates module analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rigidform.graphs import Configuration, Graph, Measurement, Orientation
from rigidform.rigidity import (
    _certified_solve,
    _edge_vectors,
    _min_norm_solve,
    _regular_svd,
    _require_coordinates,
    _require_regular,
    _put_blocks,
    _rowdot,
    _transpose_apply,
    directed_rigidity_matrix,
    distance_map,
    rigidity_matrix,
)

CONTROLLER_KINDS = ("gradient", "model", "directed")

# d*n from which the model field tries the certified stiffness solve before
# the least-squares one: about where the two cost the same.  Per
# model_field call on d = 2 Henneberg formations with n/2 chords (one BLAS
# thread, median over five formations of the best of fifteen 100-call
# trials), least squares vs certified: d*n = 24, 115 vs 182 us; 28, 137 vs
# 185; 32, 165 vs 180; 36, 197 vs 184; 40, 238 vs 189; 48, 350 vs 212.
# The built-ins have d*n <= 12.
_CERTIFIED_MIN_SIZE = 36


@dataclass(frozen=True, eq=False)
class ControllerSpec:
    """A controller choice bound to a graph and a target measurement."""

    graph: Graph
    kind: str
    m_star: Measurement
    orientation: Orientation | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.kind == "directed":
            if self.orientation is None:
                raise ValueError("directed controller requires an orientation")
            if self.orientation.graph != self.graph:
                raise ValueError("orientation is over a different graph")
        elif self.orientation is not None:
            raise ValueError(f"{self.kind} controller takes no orientation")
        if len(self.m_star) != self.graph.num_edges:
            raise ValueError(
                f"target has {len(self.m_star)} entries, graph has "
                f"{self.graph.num_edges} edges"
            )


def gradient_field(graph: Graph, p: Configuration, m_star: Measurement) -> np.ndarray:
    """Distributed gradient-descent field of the squared-length error."""
    index, D = _edge_vectors(graph, p)
    return _transpose_apply(index, D, m_star.values - _rowdot(D, D))


def model_field(
    graph: Graph, p: Configuration, m_star: Measurement, seed: int = 0
) -> np.ndarray:
    """Minimum-norm node velocity realizing projected edge-error descent.

    Raises :class:`RankDeficiencyError` when R(p) has dropped below the
    graph's generic rank, where the projector stops tracking the feasible
    set and integration should abort.
    """
    _require_coordinates(p)
    index, D = _edge_vectors(graph, p)
    e = m_star.values - _rowdot(D, D)
    x = _certified_solve(index, D, p, e) if index.size >= _CERTIFIED_MIN_SIZE else None
    if x is None:
        x, r = _min_norm_solve(_put_blocks(index, D, -D), e)
        _require_regular(graph, p.d, r, seed)
    return 0.5 * x


def directed_field(
    orientation: Orientation, p: Configuration, m_star: Measurement
) -> np.ndarray:
    """One-way variant of the gradient field: per edge, only the tail moves."""
    # D_k = p_tail - p_head is +-(p_i - p_j), so its squared norm is exact
    index, D = _edge_vectors(orientation.graph, p, orientation)
    pull = (m_star.values - _rowdot(D, D))[:, None] * D
    return np.bincount(index.first.reshape(-1), pull.reshape(-1), minlength=index.size)


def evaluate_field(spec: ControllerSpec, p: Configuration, seed: int = 0) -> np.ndarray:
    """The node velocity u, flat, of the controller named by ``spec`` at p."""
    if spec.kind == "gradient":
        return gradient_field(spec.graph, p, spec.m_star)
    if spec.kind == "model":
        return model_field(spec.graph, p, spec.m_star, seed)
    return directed_field(spec.orientation, p, spec.m_star)


def field_gain(spec: ControllerSpec, p: Configuration, seed: int = 0) -> float:
    """Operator norm of the map from edge error m* - m to node velocity u at p:
    sigma_max(R) for gradient, sigma_max(Rdir) for directed, 1 / (2 sigma_r(R))
    for model (which, like the field, needs a regular point); coordinates
    that are not finite or reach ``COORD_LIMIT`` raise RankDeficiencyError."""
    if spec.kind == "model":
        _, s, _, r = _regular_svd(spec.graph, p, seed, compute_uv=False)
        return 0.5 / float(s[r - 1])
    _require_coordinates(p)
    if spec.kind == "directed":
        R = directed_rigidity_matrix(spec.orientation, p)
    else:
        R = rigidity_matrix(spec.graph, p)
    return float(np.linalg.svd(R, compute_uv=False).max(initial=0.0))


def eta_matrix(spec: ControllerSpec, p: Configuration, seed: int = 0) -> np.ndarray:
    """The |E| x |E| edge-error response matrix of the controller at p.

    gradient -> 2 R R^T, model -> the orthogonal projector onto Im R,
    directed -> 2 R Rdir^T.  In every case the edge velocity 2 R(p) u of the
    matching field's node velocity u is eta @ (m* - m).
    """
    if spec.kind == "gradient":
        R = rigidity_matrix(spec.graph, p)
        return 2.0 * (R @ R.T)
    if spec.kind == "model":
        U, _, _, r = _regular_svd(spec.graph, p, seed)
        P = U[:, :r]
        return P @ P.T
    R = rigidity_matrix(spec.graph, p)
    Rdir = directed_rigidity_matrix(spec.orientation, p)
    return 2.0 * (R @ Rdir.T)


def node_potential(graph: Graph, p: Configuration, m_star: Measurement) -> float:
    """Quarter squared norm of the edge error at p; the gradient field is
    its negative node-space gradient."""
    err = distance_map(graph, p).values - m_star.values
    return 0.25 * float(err @ err)


def edge_potential(m: Measurement, m_star: Measurement) -> float:
    """Half squared distance of a measurement from the target."""
    err = m.values - m_star.values
    return 0.5 * float(err @ err)
