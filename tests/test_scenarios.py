"""Scenario files: validation, built-ins, round-trips, initial conditions."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidform import builtin_names, builtin_scenario, load_scenario
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
              "orientation": (True,)}
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
    with pytest.raises(ScenarioError, match=r"initial\.seed: must be non-negative, got -3"):
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
