#!/usr/bin/env python3
"""Print one SHA-256 per output of the CLI and the studies, so that two
checkouts compare byte for byte with one diff:

    PYTHONPATH=src python3 scripts/digest_outputs.py > digests.txt

Per built-in scenario it covers ``simulate`` with every controller, from
the scenario's own start and from ``--seed 4`` (CSV, JSON, SVG files,
stdout, stderr and exit code); ``analyze`` with and without
``--persistence``; ``admissibility``; and ``persistence`` (JSON, stdout,
stderr and exit code).  Then every file that ``run_studies.py --out``
writes, and its stdout.  Each command runs in-process in a fresh
directory, which is removed from the printed text ("wrote" lines, study
summaries), so digests do not depend on where they ran.

The built-ins all have d*n <= 12, below the size from which the rank
decisions and the model lift take the Cholesky certificate, so the library
is also called on the formations of ``bench/inputs.py`` (imported from this
checkout): ``rigid_formation(n, n // 2, default_rng(n))`` at n = 20, 60
and 150.  Per formation and controller it digests ``restricted_sym_form``,
``linearized_edge_matrix`` (A's bytes, spectrum and rank), three-sample
``admissibility`` and a two-step RK4 ``integrate`` from one perturbed start
(every recorded array's bytes), and at n = 60 also ``linearized_edge_matrix``
and then ``restricted_sym_form`` on a fresh spec, the reverse order, so that
a restriction kept across calls or orders moves a line; then
``persistence_check`` in d = 2 and in
d = 3 on the eight ``persistence_graph`` shapes of the certify workload,
three persistent and five not, so that one diff covers the plane's
pebble-game walk and the row-basis walk in R^3 (at most 64 reductions
each in d = 3); then in d = 3 on two Henneberg orientations built
here (:func:`_space_orientation`), a persistent one with 4096 reductions
and a non-persistent one whose witness comes 160 reductions into the
enumeration, so that the walk's pruning is covered too.  Then
``model_field`` at d*n = 300 from four perturbed starts, each of
``rigid_formation(150, 75, default_rng(s))``: s = 0, 50 and 192, certified
banded with lambda_min(K_P) / delta about 539, 3.8 and 1.4, so that the one
banded solve is covered across the conditioning the certificate admits;
and s = 3, where no certificate is issued and least squares decides; and
once at d*n = 1000, from ``rigid_formation(500, 250, default_rng(0))``,
where the banded factor pays most.  Then two 3-D formations built here
(:func:`_space_formation`), at d*n = 60, where the certificate is one
block, and at d*n = 180, where it is banded: per controller,
``restricted_sym_form`` and ``linearized_edge_matrix`` at the target and
the field at a perturbed start, for the model controller its lift.  Then
``model_field`` at d*n = 300 on ``rigid_formation(150, 75,
default_rng(0))`` with 75 more random chords, whose reverse Cuthill-McKee
order gives three blocks, so that the certificate keeps one block of the
dn x dn matrix (:func:`_wide_lift`).  An exception is digested as its type
and message.

Last come the public readers of R's SVD, at every built-in's target and at
the n = 20 and n = 60 formations: ``tangent_basis``, ``projector`` and
``is_regular_point``, and per controller ``field_gain`` and
``eta_matrix`` (a built-in with no orientation digests the directed
controller's ValueError).  Uses the standard library, NumPy, the package
and ``bench/inputs.py``; RIGIDFORM_SEED is ignored.

BLAS runs on one thread: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS are set to 1 before NumPy is imported, whatever the caller
set, because a multithreaded BLAS sums in another order and moves the last
bits of the large formations' results.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_threads] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread count is pinned)

from rigidform import (  # noqa: E402
    Configuration,
    ControllerSpec,
    Graph,
    IntegratorConfig,
    Orientation,
    TerminationCriteria,
    admissibility,
    build_graph,
    builtin_names,
    builtin_scenario,
    distance_map,
    eta_matrix,
    evaluate_field,
    field_gain,
    integrate,
    is_regular_point,
    linearized_edge_matrix,
    model_field,
    orient,
    persistence_check,
    projector,
    reduction_count,
    restricted_sym_form,
    tangent_basis,
)
from rigidform.cli import main as cli_main  # noqa: E402
from rigidform.controllers import CONTROLLER_KINDS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STUDIES = ROOT / "scripts" / "run_studies.py"
sys.path.insert(0, str(ROOT / "bench"))
from inputs import eta_step, persistence_graph, rigid_formation  # noqa: E402
# (out-degrees of the plain vertices from vertex 3 on, gadget position): the
# shapes of the certify workload's persistence tests
from workloads import PERSISTENCE_GRAPHS  # noqa: E402

# (out-degrees of the plain vertices from vertex 4 on, gadget position) of
# the two orientations of _space_orientation: six vertices of out-degree 4
# give 4**6 = 4096 reductions, all rigid; with the gadget, 1024 reductions
# of which the first flexible one is at place 160 of itertools.product order
SPACE_SHAPES = (
    ((4, 3, 4, 3, 3, 4, 3, 3, 4, 3, 3, 4, 3, 3, 4, 3, 3, 3, 3, 3), None),
    ((4, 4, 4, 3), 5),
)
FORMATION_SIZES = (20, 60, 150)
# the formation whose two restriction readers are also digested in reverse
REVERSED_READERS_SIZE = 60
# the formations whose SVD readers are digested; n = 150 would add only time
SVD_READER_SIZES = (20, 60)
# the first three starts are certified banded, with lambda_min(K_P) / delta
# about 539, 3.8 and 1.4, so that they cover the conditioning range of the
# one banded solve; the last is issued no certificate
LIFT_SEEDS = (0, 50, 192, 3)
# (n, window) of the 3-D formations of _space_formation digested per
# controller: d*n = 60, one block of the certificate's layout, and d*n = 180,
# whose window keeps the bandwidth at most 8 vertices, so that the reverse
# Cuthill-McKee order gives eight blocks
SPACE_FORMATIONS = ((20, 20), (60, 8))
# the seed of the model lift at d*n = 300 on rigid_formation(150, 75) with
# 75 more chords between random vertices, so that the reverse Cuthill-McKee
# order gives three blocks and the certificate keeps one
WIDE_LIFT_SEED = 0

def _digest(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(label: str, call) -> None:
    """Run ``call(out)`` in a fresh directory ``out`` and print the digest
    of its exit code, stdout, stderr and of each file it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = call(out)
            except SystemExit as exc:
                code = exc.code
        prefix = f"{out}{os.sep}"
        print(f"{label} exit {code}")
        for stream, text in (("stdout", stdout), ("stderr", stderr)):
            print(f"{label} {stream} {_digest(text.getvalue().replace(prefix, ''))}")
        for path in sorted(out.rglob("*")):
            print(f"{label} {path.relative_to(out)} {_digest(path.read_bytes())}")


def _cli(*argv: str):
    return lambda out: cli_main([a.replace("{out}", f"{out}{os.sep}") for a in argv])


def _studies(out: Path):
    argv = sys.argv
    sys.argv = [str(STUDIES), "--out", str(out)]
    try:
        runpy.run_path(str(STUDIES), run_name="__main__")
    finally:
        sys.argv = argv
    return 0


def _encode(value) -> bytes:
    """Bytes that pin ``value`` exactly: an array's dtype, shape and raw
    bytes, a dataclass's or tuple's entries in order, and the repr of
    anything else (that of a float round-trips)."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + value.tobytes()
    if dataclasses.is_dataclass(value):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return b"(" + b",".join(_encode(v) for v in value) + b")"
    return repr(value).encode()


def _value(label: str, call) -> None:
    """Print the digest of what ``call()`` returns, or of the type and
    message of what it raises."""
    try:
        data = _encode(call())
    except Exception as exc:  # an error is an output too
        data = f"{type(exc).__name__}: {exc}".encode()
    print(f"{label} {_digest(data)}")


def _recorded(traj) -> tuple:
    return (traj.times, traj.positions, traj.measurements, traj.edge_error,
            traj.speed, traj.energy, traj.termination)


def _reversed_readers(graph, kind, orientation, target) -> tuple:
    """``linearized_edge_matrix`` and then ``restricted_sym_form`` at
    ``target``, on a spec that no call has seen."""
    spec = ControllerSpec(graph, kind, distance_map(graph, target), orientation)
    return linearized_edge_matrix(spec, target), restricted_sym_form(spec, target)


def _formations() -> None:
    for n in FORMATION_SIZES:
        rng = np.random.default_rng(n)
        pts, edges, tails = rigid_formation(n, n // 2, rng)
        graph = Graph(n, edges)
        orientation = Orientation(graph, tails)
        target = Configuration(2, pts)
        start = Configuration(2, pts + 0.05 * rng.standard_normal(pts.shape))
        for kind in CONTROLLER_KINDS:
            o = orientation if kind == "directed" else None
            spec = ControllerSpec(graph, kind, distance_map(graph, target), o)
            dt = eta_step(kind, edges, tails, pts)
            rk4 = IntegratorConfig(method="rk4", dt=dt, t_max=2 * dt)
            label = f"formation n={n} {kind}"
            _value(f"{label} restricted_sym_form", lambda: restricted_sym_form(spec, target))
            _value(f"{label} linearized_edge_matrix", lambda: linearized_edge_matrix(spec, target))
            _value(f"{label} admissibility", lambda: admissibility(graph, kind, o, 2, 3))
            _value(f"{label} integrate",
                   lambda: _recorded(integrate(spec, start, rk4, TerminationCriteria())))
            if n == REVERSED_READERS_SIZE:
                _value(f"{label} linearized_edge_matrix then restricted_sym_form",
                       lambda: _reversed_readers(graph, kind, o, target))
    for degrees, gadget_at in PERSISTENCE_GRAPHS:
        n, arcs, _ = persistence_graph(degrees, np.random.default_rng(0), gadget_at)
        labels = [(t + 1, h + 1) for t, h in arcs]
        sensing = orient(build_graph(n, labels), labels)
        for d in (2, 3):
            _value(f"persistence_check d={d} n={n} reductions={reduction_count(sensing, d)}",
                   lambda: persistence_check(sensing, d))


def _space_orientation(degrees, gadget_at=None) -> Orientation:
    """A 3-D sensing orientation whose persistence is known by construction.

    Vertex 1 senses vertex 0, vertex 2 senses 0 and 1, vertex 3 senses 0, 1
    and 2, and each later vertex the next entry of ``degrees`` (3 or more)
    earlier vertices, drawn from ``default_rng(0)``; so every out-degree-3
    reduction is a Henneberg construction in R^3, and the orientation is
    persistent.  A gadget at ``gadget_at`` adds four vertices g0..g3 joined
    as a K4 (g0 senses g1 and g2, g1 senses g2 and g3, g2 senses g3, g3
    senses g0), each also sensing a common earlier anchor a and one other
    earlier vertex.  In the reductions where g0 and g1 drop their other
    vertex, the K4 and a form a K5 held to the rest by a and the two bars
    of g2 and g3, five constraints where a rigid body needs six, so it
    flexes: not persistent."""
    rng = np.random.default_rng(0)
    arcs, queue, n = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)], list(degrees), 4
    while queue or n == gadget_at:
        if n == gadget_at:
            a, b, c, d, e = rng.choice(n, size=5, replace=False).tolist()
            g0, g1, g2, g3 = range(n, n + 4)
            arcs += [(g0, g1), (g0, g2), (g0, a), (g0, b), (g1, g2), (g1, g3), (g1, a),
                     (g1, c), (g2, g3), (g2, a), (g2, d), (g3, g0), (g3, a), (g3, e)]
            n += 4
        else:
            arcs += [(n, int(h)) for h in rng.choice(n, size=queue.pop(0), replace=False)]
            n += 1
    labels = [(t + 1, h + 1) for t, h in arcs]
    return orient(build_graph(n, labels), labels)


def _space_persistence() -> None:
    for degrees, gadget_at in SPACE_SHAPES:
        sensing = _space_orientation(degrees, gadget_at)
        _value(f"persistence_check d=3 henneberg n={sensing.graph.n} "
               f"reductions={reduction_count(sensing, 3)}", lambda: persistence_check(sensing, 3))


def _lift_regimes() -> None:
    """Digest ``model_field`` at one perturbed start of each ``LIFT_SEEDS``
    formation at n = 150, and of the seed-0 formation at n = 500, toward the
    formation's own target."""
    for n, s in [(150, s) for s in LIFT_SEEDS] + [(500, 0)]:
        rng = np.random.default_rng(s)
        pts, edges, _ = rigid_formation(n, n // 2, rng)
        start = pts + 0.05 * rng.standard_normal(pts.shape)
        graph = Graph(n, edges)
        m_star = distance_map(graph, Configuration(2, pts))
        _value(f"model lift n={n} seed={s}",
               lambda: model_field(graph, Configuration(2, start), m_star, 0))


def _space_formation(n: int, window: int, rng):
    """(graph, orientation, target, start): a generically rigid formation in
    R^3.  Vertices 0 to 3 form a tetrahedron, each later vertex senses 3
    distinct vertices among the ``window`` before it (a Henneberg
    construction), and then n chords each join a random vertex k > 3 to one
    of the ``window`` before it that it does not sense yet.  Tails are at
    the later vertex.  The target is uniform on [-1, 1]^3 and the start is
    it perturbed by 0.05 of a standard normal, all drawn from ``rng``."""
    arcs = {(k, i) for k in range(4) for i in range(k)}
    for k in range(4, n):
        low = max(0, k - window)
        arcs.update((k, low + int(i)) for i in rng.choice(k - low, size=3, replace=False))
    chords = 0
    while chords < n:
        k = int(rng.integers(4, n))
        i = int(rng.integers(max(0, k - window), k))
        if (k, i) not in arcs:
            arcs.add((k, i))
            chords += 1
    labels = sorted((t + 1, h + 1) for t, h in arcs)
    graph = build_graph(n, labels)
    target = rng.uniform(-1.0, 1.0, size=(n, 3))
    start = target + 0.05 * rng.standard_normal(target.shape)
    return graph, orient(graph, labels), Configuration(3, target), Configuration(3, start)


def _space_formations() -> None:
    """Digest, on each ``SPACE_FORMATIONS`` formation from
    ``default_rng(n)`` and per controller, ``restricted_sym_form`` and
    ``linearized_edge_matrix`` at the target and the field at the start:
    for the model controller, the model lift."""
    for n, window in SPACE_FORMATIONS:
        graph, orientation, target, start = _space_formation(n, window, np.random.default_rng(n))
        for kind in CONTROLLER_KINDS:
            o = orientation if kind == "directed" else None
            spec = ControllerSpec(graph, kind, distance_map(graph, target), o)
            label = f"formation d=3 n={n} {kind}"
            _value(f"{label} restricted_sym_form", lambda: restricted_sym_form(spec, target))
            _value(f"{label} linearized_edge_matrix", lambda: linearized_edge_matrix(spec, target))
            _value(f"{label} field", lambda: evaluate_field(spec, start))


def _wide_lift() -> None:
    """Digest ``model_field`` at a perturbed start of
    ``rigid_formation(150, 75, default_rng(WIDE_LIFT_SEED))`` with 75 more
    chords, each between two random vertices, toward its own target."""
    n, rng = 150, np.random.default_rng(WIDE_LIFT_SEED)
    pts, edges, _ = rigid_formation(n, n // 2, rng)
    edges = set(edges)
    while len(edges) < 2 * n - 3 + n:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((i, j))
    graph = Graph(n, sorted(edges))
    start = pts + 0.05 * rng.standard_normal(pts.shape)
    m_star = distance_map(graph, Configuration(2, pts))
    _value(f"model lift n={n} seed={WIDE_LIFT_SEED} wide",
           lambda: model_field(graph, Configuration(2, start), m_star, 0))


def _svd_readers(label: str, graph, orientation, target) -> None:
    """Digest the public functions that read the SVD of R at ``target``:
    ``tangent_basis``, ``projector`` and ``is_regular_point``, then per
    controller ``field_gain`` and ``eta_matrix``."""
    _value(f"{label} tangent_basis", lambda: tangent_basis(graph, target))
    _value(f"{label} projector", lambda: projector(graph, target))
    _value(f"{label} is_regular_point", lambda: is_regular_point(graph, target))
    for kind in CONTROLLER_KINDS:
        o = orientation if kind == "directed" else None
        for reader in (field_gain, eta_matrix):
            _value(f"{label} {kind} {reader.__name__}", lambda: reader(
                ControllerSpec(graph, kind, distance_map(graph, target), o), target))


def _all_svd_readers() -> None:
    for name in builtin_names():
        scn = builtin_scenario(name)
        _svd_readers(f"builtin {name}", scn.graph, scn.orientation, scn.target)
    for n in SVD_READER_SIZES:
        pts, edges, tails = rigid_formation(n, n // 2, np.random.default_rng(n))
        graph = Graph(n, edges)
        _svd_readers(f"formation n={n}", graph, Orientation(graph, tails), Configuration(2, pts))


def main() -> None:
    os.environ.pop("RIGIDFORM_SEED", None)
    for name in builtin_names():
        for kind in CONTROLLER_KINDS:
            for start in ((), ("--seed", "4")):
                _run(f"simulate {name} {kind} {' '.join(start) or 'default'}",
                     _cli("simulate", name, "--controller", kind, *start,
                          "-o", "{out}run.csv", "--json", "{out}run.json", "--svg", "{out}fig"))
        _run(f"analyze {name}", _cli("analyze", name, "--json", "{out}report.json"))
        _run(f"analyze {name} --persistence",
             _cli("analyze", name, "--persistence", "--json", "{out}report.json"))
        _run(f"admissibility {name}",
             _cli("admissibility", "--builtin", name, "--json", "{out}report.json"))
        _run(f"persistence {name}",
             _cli("persistence", "--builtin", name, "--json", "{out}report.json"))
    _run("studies", _studies)
    _formations()
    _space_persistence()
    _lift_regimes()
    _space_formations()
    _wide_lift()
    _all_svd_readers()


if __name__ == "__main__":
    main()
