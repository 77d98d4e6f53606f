"""Formation controllers as coupled node/edge vector fields.

Each controller evaluates, at a configuration p with measurement m = F(p), a
node velocity u and the matching edge velocity v = 2 R(p) u, both linear in
the edge error m* - m:

* gradient: u = R^T (m* - m); the classical distributed law where every
  agent reacts to all its incident edges.
* model:    u = (1/2) R^+ Pi (m* - m); projected steepest descent of the
  edge error realized by the minimum-norm node velocity.  Centralized, and
  defined only at regular points.
* directed: u = Rdir^T (m* - m); only the tail agent of each edge reacts,
  so information flow is one-way and the flow is no longer a gradient.

The gradient and directed fields never build R: over the edge vectors
D = P[I] - P[J], R^T e scatter-adds e_k D_k onto I[k] and subtracts it from
J[k], Rdir^T e adds e_k (p_t - p_h) at each tail t only, and v = 2 R u is
twice the row-wise dot of D with u[I] - u[J].  The operator norm of the
edge-to-node map is computed on demand by :func:`field_gain`.

The edge error dynamics of all three are v = eta (m* - m) with the matrix
eta given by :func:`eta_matrix`; its restriction to the achievable edge
velocities is what the certificates module analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rigidform.graphs import Configuration, Graph, Measurement, Orientation
from rigidform.rigidity import (
    _edge_vectors,
    _regular_svd,
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


@dataclass(frozen=True, eq=False)
class FieldEvaluation:
    """One controller evaluation: node velocity u and edge velocity v."""

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)


def _scatter(n: int, at: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, d) node array with rows[k] summed onto node at[k]."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, at, rows)
    return out


def _incidence_field(graph: Graph, D: np.ndarray, u: np.ndarray) -> FieldEvaluation:
    """Pack node velocity u, shape (n, d), with its edge velocity 2 R u."""
    I, J = graph.endpoints
    return FieldEvaluation(u.reshape(-1), 2.0 * _rowdot(D, u[I] - u[J]))


def gradient_field(graph: Graph, p: Configuration, m_star: Measurement) -> FieldEvaluation:
    """Distributed gradient-descent field of the squared-length error."""
    I, J = graph.endpoints
    D = _edge_vectors(graph, p)
    pull = (m_star.values - _rowdot(D, D))[:, None] * D
    u = _scatter(graph.n, I, pull) - _scatter(graph.n, J, pull)
    return _incidence_field(graph, D, u)


def model_field(
    graph: Graph, p: Configuration, m_star: Measurement, seed: int = 0
) -> FieldEvaluation:
    """Minimum-norm node velocity realizing projected edge-error descent.

    Raises :class:`RankDeficiencyError` when R(p) has dropped below the
    graph's generic rank, where the projector stops tracking the feasible
    set and integration should abort.
    """
    U, s, Vt, r = _regular_svd(graph, p, seed)
    err = m_star.values - distance_map(graph, p).values
    coeffs = U[:, :r].T @ err
    u = 0.5 * (Vt[:r].T @ (coeffs / s[:r]))
    v = U[:, :r] @ coeffs
    return FieldEvaluation(u, v)


def directed_field(
    orientation: Orientation, p: Configuration, m_star: Measurement
) -> FieldEvaluation:
    """One-way variant of the gradient field: per edge, only the tail moves."""
    graph = orientation.graph
    T, H = orientation.arrows
    D = _edge_vectors(graph, p)
    pull = (m_star.values - _rowdot(D, D))[:, None] * (p.points[T] - p.points[H])
    return _incidence_field(graph, D, _scatter(graph.n, T, pull))


def evaluate_field(spec: ControllerSpec, p: Configuration, seed: int = 0) -> FieldEvaluation:
    """Evaluate the controller named by ``spec`` at configuration p."""
    if spec.kind == "gradient":
        return gradient_field(spec.graph, p, spec.m_star)
    if spec.kind == "model":
        return model_field(spec.graph, p, spec.m_star, seed)
    return directed_field(spec.orientation, p, spec.m_star)


def field_gain(spec: ControllerSpec, p: Configuration, seed: int = 0) -> float:
    """Operator norm of the map from edge error m* - m to node velocity u at p:
    sigma_max(R) for gradient, sigma_max(Rdir) for directed, 1 / (2 sigma_r(R))
    for model (which, like the field, needs a regular point)."""
    if spec.kind == "model":
        _, s, _, r = _regular_svd(spec.graph, p, seed)
        return 0.5 / float(s[r - 1])
    if spec.kind == "gradient":
        R = rigidity_matrix(spec.graph, p)
    else:
        R = directed_rigidity_matrix(spec.orientation, p)
    return float(np.linalg.svd(R, compute_uv=False).max(initial=0.0))


def eta_matrix(spec: ControllerSpec, p: Configuration, seed: int = 0) -> np.ndarray:
    """The |E| x |E| edge-error response matrix of the controller at p.

    gradient -> 2 R R^T, model -> the orthogonal projector onto Im R,
    directed -> 2 R Rdir^T.  In every case the edge velocity of the matching
    field evaluation is eta @ (m* - m).
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
