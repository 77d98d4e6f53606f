"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns plain tuples
and arrays, so the program under test only ever sees the generated values.

* :func:`rigid_formation` builds a generically rigid 2D framework: a
  Henneberg 2-tree (each new vertex joined to both ends of the existing edge
  nearest to it) plus short chords, oriented with the tail at the later
  vertex.
* :func:`persistence_graph` builds an oriented graph whose persistence is
  known by construction, with a chosen number of out-degree-2 reductions.
* :func:`reference_rk4` integrates the three controllers with NumPy alone,
  as the independent answer the large-formation results are checked against.
"""

from __future__ import annotations

from math import comb, prod

import numpy as np


def rigid_formation(n: int, chords: int, rng: np.random.Generator):
    """A rigid formation in the plane: (points, edges, tails).

    Points are a jittered triangular lattice cut to the n sites nearest a
    random centre and numbered outward, so typical edge lengths stay near 1
    at every n.  Each new vertex joins both ends of the existing edge whose
    midpoint is nearest to it (a Henneberg 2-tree, minimally rigid), then
    ``chords`` extra edges join random vertices to their nearest earlier
    non-neighbour, which keeps R(p) well conditioned.  ``edges`` are 0-based
    pairs (i, j) with i < j and ``tails[k]`` is the later endpoint j, so
    every vertex senses only earlier ones.
    """
    side = int(np.ceil(np.sqrt(1.6 * n))) + 2
    lattice = np.array(
        [(x + 0.5 * (y % 2), y * np.sqrt(3) / 2) for y in range(side) for x in range(side)]
    )
    lattice += 0.15 * rng.standard_normal(lattice.shape)
    centre = lattice.mean(axis=0) + 0.3 * rng.standard_normal(2)
    pts = lattice[np.argsort(np.linalg.norm(lattice - centre, axis=1), kind="stable")[:n]]
    edges = {(0, 1)}
    for k in range(2, n):
        cand = sorted(edges)
        mid = np.array([(pts[i] + pts[j]) / 2 for i, j in cand])
        i, j = cand[int(np.argmin(np.linalg.norm(mid - pts[k], axis=1)))]
        edges.update({(i, k), (j, k)})
    added = 0
    while added < chords:
        k = int(rng.integers(3, n))
        dist = np.linalg.norm(pts[:k] - pts[k], axis=1)
        for i in np.argsort(dist, kind="stable"):
            if (int(i), k) not in edges:
                edges.add((int(i), k))
                added += 1
                break
    edges = tuple(sorted(edges))
    return pts, edges, tuple(j for _, j in edges)


def persistence_graph(
    degrees: tuple[int, ...],
    rng: np.random.Generator,
    gadget_at: int | None = None,
):
    """An oriented 2D graph with known persistence: (n, arcs, reductions).

    ``arcs`` are 0-based (tail, head) pairs.  Vertex 1 senses vertex 0,
    vertex 2 senses both, and each later plain vertex senses the next entry
    of ``degrees`` (2 <= degree <= vertices before it) distinct earlier
    vertices.  Every out-degree-2 reduction is then a Henneberg
    construction, so without the gadget the orientation is persistent.

    With ``gadget_at`` = g, three vertices g, g+1, g+2 go in there, each
    sensing a common anchor a, one other earlier vertex, and the next gadget
    vertex in the cycle g -> g+1 -> g+2 -> g.  The reduction in which all
    three keep the anchor and the cycle edge makes them a K4 with a that
    hangs on the rest by a alone, so it flexes: not persistent.  The anchor
    is the smallest of the four earlier vertices drawn, which makes that
    choice the second of each gadget vertex's three out-edge pairs in
    canonical edge order; the first witness is therefore reduction number
    13 * (product of the choice counts after the gadget) + 1, whatever the
    seed.

    ``reductions`` is the number of out-degree-2 reductions, counted here
    from the construction.
    """
    if gadget_at is not None and not 4 <= gadget_at <= 3 + len(degrees):
        raise ValueError("the gadget needs four earlier vertices and a place in the order")
    arcs = [(1, 0), (2, 0), (2, 1)]
    counts = []  # C(out-degree, 2) of every vertex that has a choice
    queue = list(degrees)
    n = 3
    while queue or n == gadget_at:
        if n == gadget_at:
            a, b, c, d = sorted(rng.choice(n, size=4, replace=False).tolist())
            e, k, m = n, n + 1, n + 2
            arcs += [(e, a), (e, b), (e, k), (k, a), (k, c), (k, m),
                     (m, a), (m, d), (m, e)]
            counts += [3, 3, 3]
            n += 3
            continue
        deg = queue.pop(0)
        if not 2 <= deg <= n:
            raise ValueError(f"vertex {n} cannot sense {deg} earlier vertices")
        arcs += [(n, int(h)) for h in rng.choice(n, size=deg, replace=False)]
        counts.append(comb(deg, 2))
        n += 1
    return n, tuple(arcs), prod(counts)


def _edge_arrays(edges):
    idx = np.asarray(edges, dtype=int).reshape(-1, 2)
    return idx[:, 0], idx[:, 1]


def reference_field(kind, pts, i, j, tails, m_star):
    """Node velocity of one controller, from the edge lists directly."""
    diff = pts[i] - pts[j]
    err = m_star - np.einsum("ij,ij->i", diff, diff)
    if kind == "model":
        n, d = pts.shape
        R = np.zeros((len(i), n * d))
        rows = np.arange(len(i))
        for a in range(d):
            R[rows, d * i + a] = diff[:, a]
            R[rows, d * j + a] = -diff[:, a]
        return 0.5 * (np.linalg.pinv(R, rcond=1e-10) @ err).reshape(n, d)
    u = np.zeros_like(pts)
    if kind == "gradient":
        np.add.at(u, i, err[:, None] * diff)
        np.add.at(u, j, -err[:, None] * diff)
    else:  # directed: only the tail of each edge moves, away from its head
        t = np.asarray(tails)
        h = np.where(t == i, j, i)
        np.add.at(u, t, err[:, None] * (pts[t] - pts[h]))
    return u


def reference_rk4(kind, edges, tails, target, start, dt, steps):
    """Classical RK4 with a fixed step, returning the final points."""
    i, j = _edge_arrays(edges)
    diff = target[i] - target[j]
    m_star = np.einsum("ij,ij->i", diff, diff)
    x = np.array(start, dtype=float)

    def f(p):
        return reference_field(kind, p, i, j, tails, m_star)

    for _ in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def eta_step(kind, edges, tails, target) -> float:
    """RK4 step from the largest |eigenvalue| of eta at the target.

    eta is 2 R R^T (gradient), the projector onto Im R (model) or
    2 R Rdir^T (directed); the step is the largest power of two at most
    0.125 / |lambda|_max, which keeps h*lambda well inside RK4's stability
    region, keeps two steps close to the flow (whose edge error falls
    monotonically for the gradient and model controllers), and makes every
    step time exact in binary.
    """
    i, j = _edge_arrays(edges)
    n, d = target.shape
    diff = target[i] - target[j]
    rows = np.arange(len(i))
    R = np.zeros((len(i), n * d))
    Rdir = np.zeros_like(R)
    t = np.asarray(tails)
    h = np.where(t == i, j, i)
    for a in range(d):
        R[rows, d * i + a] = diff[:, a]
        R[rows, d * j + a] = -diff[:, a]
        Rdir[rows, d * t + a] = (target[t] - target[h])[:, a]
    if kind == "gradient":
        lam = np.linalg.eigvalsh(2.0 * R @ R.T)[-1]
    elif kind == "model":
        lam = 1.0
    else:
        lam = np.abs(np.linalg.eigvals(2.0 * R @ Rdir.T)).max()
    return float(2.0 ** np.floor(np.log2(0.125 / lam)))
