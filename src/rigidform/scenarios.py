"""Scenario files: a JSON description of one formation-control problem.

A scenario bundles a graph, an optional orientation, a controller kind, the
target configuration (whose measured edge lengths define the reference
measurement), an initial condition, and integrator/termination settings.
Validation is strict: unknown fields anywhere in the document are rejected
by name, so typos fail loudly instead of silently using a default.

The built-in scenarios under ``builtin/`` are the worked examples this
package reproduces; ``to_dict`` emits exactly the on-disk document so the
files round-trip through :func:`load_scenario` unchanged.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from rigidform.controllers import ControllerSpec, _require_controller
from rigidform.graphs import (
    Configuration,
    Graph,
    Measurement,
    Orientation,
    _require_count,
    build_graph,
    orient,
)
from rigidform.rigidity import COORD_LIMIT, distance_map
from rigidform.simulate import IntegratorConfig, TerminationCriteria

_BUILTIN_DIR = Path(__file__).parent / "builtin"

DEFAULT_RELATIVE_SCALE = 0.1


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def _reject_unknown(doc: dict, allowed: set[str], where: str):
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return doc[key]


def _reject_booleans(doc, where: str):
    """Raise, naming the key that holds it, if any value, list entry or
    nested entry of ``doc`` is a boolean: a bool is an int, but JSON true is
    no number, and no field takes a boolean."""
    pending = [(doc, where)]
    while pending:
        item, at = pending.pop()
        if isinstance(item, bool):
            raise ScenarioError(f"{at}: no field takes a boolean")
        if isinstance(item, list):
            pending.extend((entry, at) for entry in item)
        elif isinstance(item, dict):
            pending.extend((value, f"{at}.{key}") for key, value in item.items())


def _at(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a TypeError, ValueError or
    OverflowError it raises re-raised as a :class:`ScenarioError` located
    at ``where``, the key of the document it was built from."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def _coordinates(raw, n: int, d: int, where: str) -> Configuration:
    """An (n, d) configuration whose coordinates are numbers, finite and
    below ``COORD_LIMIT`` in magnitude, the bound of everything built from
    R; a string such as "1" is no number, though NumPy would convert it."""
    if _at(where, np.asarray, raw).dtype.kind in "SU":
        raise ScenarioError(f"{where}: coordinates must be numbers, not strings")
    arr = _at(where, np.asarray, raw, dtype=float)
    if arr.shape != (n, d):
        raise ScenarioError(f"{where}: expected {n} rows of {d} coordinates, got shape {arr.shape}")
    if not np.abs(arr).max() < COORD_LIMIT:  # False for NaN too
        raise ScenarioError(f"{where}: coordinates must be finite and below {COORD_LIMIT:g} in magnitude")
    return Configuration(d, arr)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fully validated formation-control problem."""

    name: str
    description: str
    d: int
    graph: Graph
    controller: str
    target: Configuration
    orientation: Orientation | None = None
    initial: Configuration | None = None
    initial_seed: int = 0
    relative_scale: float = DEFAULT_RELATIVE_SCALE
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    termination: TerminationCriteria = field(default_factory=TerminationCriteria)

    @property
    def m_star(self) -> Measurement:
        return distance_map(self.graph, self.target)

    def controller_spec(self, kind: str | None = None) -> ControllerSpec:
        """The scenario's controller, optionally overriding the kind."""
        kind = kind or self.controller
        return ControllerSpec(
            self.graph,
            kind,
            self.m_star,
            self.orientation if kind == "directed" else None,
        )

    def initial_configuration(self, seed: int | None = None) -> Configuration:
        """Resolve the start: the explicit coordinates when no ``seed`` is
        given and the scenario has them; otherwise a perturbation of the
        target, drawn from ``seed`` or else ``initial_seed``, scaled by
        ``relative_scale`` times the target's diameter."""
        if seed is None:
            if self.initial is not None:
                return self.initial
            seed = self.initial_seed
        rng = np.random.default_rng(_require_count("seed", seed, 0))
        rho = self.relative_scale * self.target.diameter()
        noise = rng.standard_normal(self.target.points.shape)
        return Configuration(self.d, self.target.points + rho * noise)

    def to_dict(self) -> dict:
        """The scenario as a plain JSON-ready document (inverse of parsing)."""
        doc: dict = {
            "name": self.name,
            "description": self.description,
            "dimension": self.d,
            "graph": {
                "vertices": self.graph.n,
                "edges": [[i + 1, j + 1] for i, j in self.graph.edges],
            },
            "controller": self.controller,
            "target": [[float(x) for x in row] for row in self.target.points],
        }
        if self.orientation is not None:
            doc["orientation"] = [list(lbl) for lbl in self.orientation.directed_labels]
        if self.initial is not None:
            doc["initial"] = [[float(x) for x in row] for row in self.initial.points]
        else:
            doc["initial"] = {
                "seed": self.initial_seed,
                "relative_scale": self.relative_scale,
            }
        doc["integrator"] = asdict(self.integrator)
        doc["termination"] = asdict(self.termination)
        return doc


_TOP_FIELDS = {
    "name",
    "description",
    "dimension",
    "graph",
    "orientation",
    "controller",
    "target",
    "initial",
    "integrator",
    "termination",
}


def _settings(doc: dict, key: str, cls, where: str):
    """The settings object ``cls`` from ``doc[key]`` (default: all defaults),
    its allowed keys being the dataclass fields."""
    sub = doc.get(key, {})
    where = f"{where}.{key}"
    if not isinstance(sub, dict):
        raise ScenarioError(f"{where}: must be an object")
    _reject_unknown(sub, {f.name for f in fields(cls)}, where)
    return _at(where, cls, **sub)


def scenario_from_dict(doc: dict, where: str = "scenario") -> Scenario:
    """Validate a parsed JSON document into a Scenario.

    Raises :class:`ScenarioError` naming the offending field on any
    unknown, missing, or ill-typed entry.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: document must be a JSON object")
    _reject_booleans(doc, where)
    _reject_unknown(doc, _TOP_FIELDS, where)

    name = _require(doc, "name", where)
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{where}.name: must be a non-empty string")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(f"{where}.description: must be a string")

    d = _at(f"{where}.dimension", _require_count, "dimension", _require(doc, "dimension", where), 1)
    if d > 3:
        raise ScenarioError(f"{where}.dimension: must be at most 3, got {d}")

    graph_doc = _require(doc, "graph", where)
    if not isinstance(graph_doc, dict):
        raise ScenarioError(f"{where}.graph: must be an object")
    _reject_unknown(graph_doc, {"vertices", "edges"}, f"{where}.graph")
    n = _require(graph_doc, "vertices", f"{where}.graph")
    edges = _require(graph_doc, "edges", f"{where}.graph")
    graph = _at(f"{where}.graph", build_graph, n, edges)

    controller = _require(doc, "controller", where)
    orientation = None
    if doc.get("orientation") is not None:
        orientation = _at(f"{where}.orientation", orient, graph, doc["orientation"])
    _at(f"{where}.controller", _require_controller, graph, controller, orientation)

    target = _coordinates(_require(doc, "target", where), graph.n, d, f"{where}.target")

    initial = None
    initial_seed = 0
    relative_scale = DEFAULT_RELATIVE_SCALE
    init_doc = doc.get("initial", {"seed": 0, "relative_scale": DEFAULT_RELATIVE_SCALE})
    if isinstance(init_doc, dict):
        _reject_unknown(init_doc, {"seed", "relative_scale"}, f"{where}.initial")
        initial_seed = _at(f"{where}.initial", _require_count, "seed",
                           _require(init_doc, "seed", f"{where}.initial"), 0)
        relative_scale = init_doc.get("relative_scale", DEFAULT_RELATIVE_SCALE)
        # an exact comparison, so that NaN, inf and an int beyond float range fail it
        if (not isinstance(relative_scale, (int, float))
                or not 0 < relative_scale <= sys.float_info.max):
            raise ScenarioError(f"{where}.initial.relative_scale: must be a positive, finite number")
        relative_scale = float(relative_scale)
    else:
        initial = _coordinates(init_doc, graph.n, d, f"{where}.initial")

    return Scenario(
        name=name,
        description=description,
        d=d,
        graph=graph,
        controller=controller,
        target=target,
        orientation=orientation,
        initial=initial,
        initial_seed=initial_seed,
        relative_scale=relative_scale,
        integrator=_settings(doc, "integrator", IntegratorConfig, where),
        termination=_settings(doc, "termination", TerminationCriteria, where),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return scenario_from_dict(doc, where=str(path))


def builtin_names() -> tuple[str, ...]:
    """Names of the shipped example scenarios."""
    return tuple(sorted(p.stem for p in _BUILTIN_DIR.glob("*.json")))


def builtin_path(name: str) -> Path:
    path = _BUILTIN_DIR / f"{name}.json"
    if not path.exists():
        known = ", ".join(builtin_names())
        raise ScenarioError(f"unknown built-in scenario {name!r} (known: {known})")
    return path


def builtin_scenario(name: str) -> Scenario:
    """Load one of the shipped example scenarios by name."""
    return load_scenario(builtin_path(name))
