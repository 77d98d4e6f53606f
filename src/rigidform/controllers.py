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

The gradient and directed fields never build R: over the edge vectors
D = P[I] - P[J], R^T e scatter-adds e_k D_k onto I[k] and subtracts it from
J[k], and Rdir^T e adds e_k (p_t - p_h) at each tail t only.  The model
field is u = x / 2 from one least-squares solve x = R^+ (m* - m), whose
singular values also decide regularity, so no SVD factor U or V is formed;
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
    _edge_vectors,
    _finite_rigidity_matrix,
    _min_norm_solve,
    _regular_svd,
    _require_regular,
    _rowdot,
    directed_rigidity_matrix,
    distance_map,
    rigidity_matrix,
)

CONTROLLER_KINDS = ("gradient", "model", "directed")


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


def _scatter(n: int, at: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, d) node array with rows[k] summed onto node at[k]."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, at, rows)
    return out


def gradient_field(graph: Graph, p: Configuration, m_star: Measurement) -> np.ndarray:
    """Distributed gradient-descent field of the squared-length error."""
    I, J = graph.endpoints
    D = _edge_vectors(graph, p)
    pull = (m_star.values - _rowdot(D, D))[:, None] * D
    return (_scatter(graph.n, I, pull) - _scatter(graph.n, J, pull)).reshape(-1)


def model_field(
    graph: Graph, p: Configuration, m_star: Measurement, seed: int = 0
) -> np.ndarray:
    """Minimum-norm node velocity realizing projected edge-error descent.

    Raises :class:`RankDeficiencyError` when R(p) has dropped below the
    graph's generic rank, where the projector stops tracking the feasible
    set and integration should abort.
    """
    R = _finite_rigidity_matrix(graph, p)
    D = _edge_vectors(graph, p)
    x, r = _min_norm_solve(R, m_star.values - _rowdot(D, D))
    _require_regular(graph, p.d, r, seed)
    return 0.5 * x


def directed_field(
    orientation: Orientation, p: Configuration, m_star: Measurement
) -> np.ndarray:
    """One-way variant of the gradient field: per edge, only the tail moves."""
    graph = orientation.graph
    T, H = orientation.arrows
    D = _edge_vectors(graph, p)
    pull = (m_star.values - _rowdot(D, D))[:, None] * (p.points[T] - p.points[H])
    return _scatter(graph.n, T, pull).reshape(-1)


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
    that are not finite or would overflow R raise RankDeficiencyError."""
    if spec.kind == "model":
        _, s, _, r = _regular_svd(spec.graph, p, seed)
        return 0.5 / float(s[r - 1])
    R = _finite_rigidity_matrix(spec.graph, p)
    if spec.kind == "directed":
        R = directed_rigidity_matrix(spec.orientation, p)
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
