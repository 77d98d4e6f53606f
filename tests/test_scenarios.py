"""Scenario files: validation, built-ins, round-trips, initial conditions."""

import contextlib
import copy
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigidform import builtin_names, builtin_scenario, load_scenario
from rigidform.cli import main
from rigidform.scenarios import ScenarioError, builtin_path, scenario_from_dict

from conftest import P_STAR, Q_STAR, W5_ARROWS, W5_EDGES

BUILTINS = (
    "fig4-nonpersistent",
    "square-flex",
    "triangle-cyclic",
    "w5-directed-bad",
    "w5-directed-good",
    "w5-undirected",
)


def test_builtin_names():
    assert builtin_names() == BUILTINS


def test_builtins_round_trip_through_loader():
    for name in BUILTINS:
        raw = json.loads(builtin_path(name).read_text())
        scn = builtin_scenario(name)
        assert scn.to_dict() == raw, name


def test_wheel_builtin_matches_reference_coordinates():
    scn = builtin_scenario("w5-undirected")
    assert scn.graph.edge_labels == tuple(W5_EDGES)
    assert np.allclose(scn.target.points, P_STAR, rtol=0, atol=1e-15)
    good = builtin_scenario("w5-directed-good")
    assert good.orientation.directed_labels == tuple(W5_ARROWS)
    bad = builtin_scenario("w5-directed-bad")
    assert np.allclose(bad.target.points, Q_STAR, rtol=0, atol=1e-15)
    assert bad.orientation.directed_labels == good.orientation.directed_labels


def test_fig4_builtin_shape():
    scn = builtin_scenario("fig4-nonpersistent")
    assert scn.graph.n == 6
    assert scn.graph.num_edges == 11
    arrows = set(scn.orientation.directed_labels)
    assert arrows == {
        (2, 1), (3, 1), (3, 5), (4, 2), (4, 3), (5, 1),
        (5, 6), (6, 2), (6, 4), (3, 2), (5, 2),
    }
    assert np.allclose(
        scn.target.points,
        [[0.11, -1.03], [-0.91, -0.11], [1.44, 1.64],
         [0.35, -1.99], [-1.87, 1.53], [1.61, 0.77]],
        rtol=0, atol=1e-15,
    )


def _wheel_doc(**overrides):
    doc = json.loads(builtin_path("w5-undirected").read_text())
    doc.update(overrides)
    return doc


def test_unknown_fields_rejected_by_name():
    with pytest.raises(ScenarioError, match="gravity"):
        scenario_from_dict(_wheel_doc(gravity=9.81))
    doc = _wheel_doc()
    doc["integrator"]["dtmax"] = 0.5
    with pytest.raises(ScenarioError, match="integrator.*dtmax"):
        scenario_from_dict(doc)
    doc = _wheel_doc()
    doc["initial"] = {"seed": 0, "scale": 0.1}
    with pytest.raises(ScenarioError, match="initial.*scale"):
        scenario_from_dict(doc)


def test_missing_required_field_named():
    doc = _wheel_doc()
    del doc["target"]
    with pytest.raises(ScenarioError, match="target"):
        scenario_from_dict(doc)


def test_orientation_controller_coupling():
    doc = _wheel_doc(controller="directed")  # no orientation given
    with pytest.raises(ScenarioError, match="orientation"):
        scenario_from_dict(doc)
    doc = _wheel_doc(orientation=[list(e) for e in W5_ARROWS])  # gradient + orientation
    with pytest.raises(ScenarioError, match="orientation"):
        scenario_from_dict(doc)


def test_bad_values_rejected():
    with pytest.raises(ScenarioError, match="controller"):
        scenario_from_dict(_wheel_doc(controller="pid"))
    with pytest.raises(ScenarioError, match="dimension"):
        scenario_from_dict(_wheel_doc(dimension=7))
    with pytest.raises(ScenarioError, match="target"):
        scenario_from_dict(_wheel_doc(target=[[0.0, 0.0]]))
    doc = _wheel_doc()
    doc["graph"]["edges"].append([2, 2])
    with pytest.raises(ScenarioError, match="graph"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where", ["target", "initial", "initial.relative_scale",
                                   "integrator.t_max", "termination.tol_edge",
                                   "dimension", "initial.seed", "integrator.sample_every",
                                   "graph.edges", "orientation"])
def test_non_finite_numbers_rejected_by_name(where):
    # json.loads accepts NaN and Infinity, and a JSON true is a Python int, so
    # a document can carry either where a number belongs: integer fields and
    # the vertex pairs of edges and orientation are tried with true, the rest
    # with all three
    nan, inf = float("nan"), float("inf")
    values = {"dimension": (True,), "initial.seed": (True,),
              "integrator.sample_every": (True,), "graph.edges": (True,),
              "orientation": (True,),
              # finite, but not below COORD_LIMIT, the bound of everything built from R
              "target": (nan, inf, True, 1e308), "initial": (nan, inf, True, 1e75)}
    for value in values.get(where, (nan, inf, True)):
        doc = _wheel_doc()
        if where == "target":
            doc["target"][1][0] = value
        elif where == "initial":
            doc["initial"] = [list(row) for row in doc["target"]]
            doc["initial"][2][1] = value
        elif where == "initial.relative_scale":
            doc["initial"] = {"seed": 0, "relative_scale": value}
        elif where == "initial.seed":
            doc["initial"] = {"seed": value}
        elif where == "dimension":
            doc["dimension"] = value
        elif where == "graph.edges":
            doc["graph"]["edges"][0][0] = value  # [true, 2] would read as (1, 2)
        elif where == "orientation":
            doc["controller"] = "directed"
            doc["orientation"] = [list(e) for e in W5_ARROWS]
            doc["orientation"][0][0] = value
        else:
            section, key = where.split(".")
            doc.setdefault(section, {})[key] = value
        reason = ":" if value is True else ".*finite"
        with pytest.raises(ScenarioError, match=where.replace(".", "[.: ]+") + reason):
            scenario_from_dict(doc)


def _slots(node, where):
    """(container, key or index, the key a boolean there is named by) for
    every value and list entry under ``node``, and one unknown key per object."""
    if isinstance(node, dict):
        yield node, "extra", f"{where}.extra"
        for key, value in node.items():
            yield node, key, f"{where}.{key}"
            yield from _slots(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield node, i, where
            yield from _slots(value, where)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUILTINS), st.data())
def test_a_boolean_anywhere_is_named_by_its_key(name, data):
    # a bool is an int, so true must not pass for 1 in a count, a seed or an
    # edge, nor reach a string or an unknown-field check
    doc = json.loads(builtin_path(name).read_text())
    slots = {}
    for container, key, where in _slots(doc, "scenario"):
        slots.setdefault(where, []).append((container, key))
    # draw the key first, so that a short field is drawn as often as a long array
    where = data.draw(st.sampled_from(sorted(slots)))
    container, key = data.draw(st.sampled_from(slots[where]))
    container[key] = True
    with pytest.raises(ScenarioError, match=f"^{re.escape(where)}: no field takes a boolean$"):
        scenario_from_dict(doc)


def _set(doc, where, value):
    if where == "graph.edges":
        doc["graph"]["edges"][0] = value
    elif where == "orientation":
        doc["controller"] = "directed"
        doc["orientation"] = [list(e) for e in W5_ARROWS]
        doc["orientation"][0] = value
    else:
        section, key = where.split(".")
        doc[section][key] = value


@pytest.mark.parametrize("where, value, message", [
    ("graph.edges", [1.7, 2], "graph: vertex label must be a positive integer, got 1.7"),
    ("graph.edges", ["1", 2], "graph: vertex label must be a positive integer, got '1'"),
    ("orientation", [1.9, 2], "orientation: vertex label must be a positive integer, got 1.9"),
    ("termination.window", 50.0, "termination: window must be an integer >= 2, got 50.0"),
    ("termination.window", 2.5, "termination: window must be an integer >= 2, got 2.5"),
    ("integrator.sample_every", 2.5,
     "integrator: sample_every must be a positive integer, got 2.5"),
    ("integrator.sample_every", 1.0,
     "integrator: sample_every must be a positive integer, got 1.0"),
], ids=["fractional-label", "string-label", "fractional-arrow-label", "float-window",
        "fractional-window", "fractional-sample-every", "float-sample-every"])
def test_counts_and_labels_are_integers_by_name(where, value, message):
    # each once loaded: the labels truncated to the edge (1, 2) and the
    # arrow 1 -> 2, the counts left fractional
    doc = _wheel_doc()
    _set(doc, where, value)
    with pytest.raises(ScenarioError, match=f"^scenario[.]{re.escape(message)}$"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where", ["target", "initial"])
def test_coordinate_strings_are_named(where):
    # NumPy reads the string "1" as the number 1.0, but JSON "1" is no number
    doc = _wheel_doc()
    doc[where] = [list(row) for row in doc["target"]]
    doc[where][1][0] = "1"
    with pytest.raises(ScenarioError, match=f"^scenario[.]{where}: coordinates must be numbers, not strings$"):
        scenario_from_dict(doc)


_FUZZ_VALUES = (2.5, 50.0, -1, 0, "1", None, 1e308, float("nan"), [], {}, 10**6, 10**400)
_FUZZ_KEYS = sorted({where for name in BUILTINS
                     for _, _, where in _slots(json.loads(builtin_path(name).read_text()), "scenario")})


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BUILTINS), st.sampled_from(_FUZZ_KEYS), st.integers(0, 99),
       st.sampled_from(_FUZZ_VALUES))
@example("w5-undirected", "scenario.termination.window", 0, 2.5)  # once a slice TypeError
@example("w5-undirected", "scenario.target", 1, 1e308)  # once overflow warnings
@example("w5-undirected", "scenario.initial.relative_scale", 0, 10**400)  # once a TypeError
def test_any_one_bad_leaf_is_named_or_runs(tmp_path_factory, name, where, slot, value):
    # one leaf, a key or a list slot anywhere, takes a value that is wrong for
    # most fields: the loader names a key, or the run ends in an exit code
    # with no traceback and no warning
    doc = json.loads(builtin_path(name).read_text())
    slots = [(container, key) for container, key, at in _slots(doc, "scenario") if at == where]
    assume(slots)
    container, key = slots[slot % len(slots)]
    container[key] = copy.deepcopy(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scenario_from_dict(doc)
        except ScenarioError as exc:
            assert re.match(r"scenario(\.\w+)+: |scenario: unknown field\(s\) 'extra'$", str(exc))
            return
        path = tmp_path_factory.mktemp("fuzz") / "leaf.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", str(path), "--t-max", "0.3"])
    assert code in (0, 1, 3)


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",\n  "dimension": }')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(bad)


def test_unknown_builtin_lists_known_names():
    with pytest.raises(ScenarioError, match="w5-undirected"):
        builtin_scenario("w9-mystery")


def test_seeded_initial_condition_is_reproducible():
    scn = builtin_scenario("w5-undirected")
    a = scn.initial_configuration(3)
    b = scn.initial_configuration(3)
    assert np.array_equal(a.points, b.points)
    # construction: target + 0.1 * diameter * standard normal draw
    rng = np.random.default_rng(3)
    expected = scn.target.points + 0.1 * scn.target.diameter() * rng.standard_normal((5, 2))
    assert np.array_equal(a.points, expected)


def test_explicit_initial_wins_without_seed():
    scn = builtin_scenario("square-flex")
    p0 = scn.initial_configuration()
    assert np.array_equal(p0.points, scn.initial.points)
    # an explicit seed asks for a perturbed start instead
    p1 = scn.initial_configuration(seed=1)
    assert not np.array_equal(p1.points, scn.initial.points)


def test_negative_seed_is_named():
    scn = builtin_scenario("w5-undirected")
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        scn.initial_configuration(-1)
    with pytest.raises(ScenarioError, match=r"initial: seed must be a non-negative integer, got -3"):
        scenario_from_dict(_wheel_doc(initial={"seed": -3}))


def test_relative_scale_honored():
    doc = _wheel_doc(initial={"seed": 5, "relative_scale": 0.02})
    scn = scenario_from_dict(doc)
    rng = np.random.default_rng(5)
    expected = scn.target.points + 0.02 * scn.target.diameter() * rng.standard_normal((5, 2))
    assert np.array_equal(scn.initial_configuration().points, expected)


def test_m_star_uses_squared_lengths():
    scn = builtin_scenario("w5-undirected")
    m = scn.m_star.values
    assert m[0] == pytest.approx(0.5)
    assert m[2] == pytest.approx(13.0 / 9.0)
    assert m[7] == pytest.approx(37.0 / 9.0)
