"""Command-line interface: exit codes, file outputs, determinism."""

import json
import re
import xml.dom.minidom

import numpy as np
import pytest

import rigidform.certificates as certificates_mod
import rigidform.cli as cli_mod
import rigidform.simulate as simulate_mod
from rigidform.cli import main
from rigidform.rigidity import RankDeficiencyError
from rigidform.scenarios import builtin_path
from rigidform.svg import plane_paths

from conftest import P_STAR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_examples_lists_builtins(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("w5-undirected", "w5-directed-good", "w5-directed-bad",
                 "fig4-nonpersistent", "triangle-cyclic", "square-flex"):
        assert name in out


def test_analyze_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "w5-directed-good")
    assert code == 0
    assert "pass" in out and "generically rigid" in out

    code, out, _ = run(capsys, "analyze", "w5-directed-bad")
    assert code == 1
    assert "fail" in out

    # a non-regular target cannot be certified either way
    collinear = {
        "name": "collinear-wheel",
        "description": "",
        "dimension": 2,
        "graph": {"vertices": 5,
                  "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 5], [3, 4], [4, 5]]},
        "controller": "gradient",
        "target": [[float(i), float(i)] for i in range(5)],
        "initial": {"seed": 0, "relative_scale": 0.1},
    }
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(collinear))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    assert "indeterminate" in out

    code, _, err = run(capsys, "analyze", "no-such-scenario")
    assert code == 3
    assert "error" in err


def test_analyze_json_report(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "fig4-nonpersistent", "--persistence",
                     "--json", str(out_path))
    # exit code tracks the stability certificate, which passes here even
    # though the orientation is not persistent
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["certificate"]["verdict"] == "pass"
    assert doc["persistence"]["verdict"] == "not persistent"
    assert doc["persistence"]["reductions_checked"] == 9
    assert doc["generically_rigid"] is True
    assert len(doc["linearized_spectrum"]) == doc["certificate"]["rank_r"]
    assert doc["dynamic_admissibility"]["verdict"] == "pass"


def test_simulate_outputs(capsys, tmp_path):
    csv_path = tmp_path / "run.csv"
    json_path = tmp_path / "run.json"
    svg_prefix = tmp_path / "run"
    code, out, _ = run(capsys, "simulate", "w5-undirected",
                       "-o", str(csv_path), "--json", str(json_path),
                       "--svg", str(svg_prefix))
    assert code == 0
    assert "termination: converged" in out

    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    # 1 time column + 5 nodes * 2 coords + 8 measurements + 3 diagnostics
    assert len(header) == 1 + 10 + 8 + 3
    assert header[0] == "t"
    assert header[1] == "p1_x"
    assert header[11] == "m_1_2"
    assert header[-3:] == ["edge_err", "speed", "energy"]
    assert all(len(line.split(",")) == len(header) for line in lines[1:])

    summary = json.loads(json_path.read_text())
    assert summary["termination"] == "converged"
    assert summary["congruent"] is True
    assert summary["decay_rate"] > 0
    assert summary["samples"] == len(lines) - 1

    for suffix in ("-edge-error.svg", "-energy.svg", "-paths.svg"):
        f = tmp_path / f"run{suffix}"
        assert f.exists()
        xml.dom.minidom.parse(str(f))  # well-formed


def test_run_that_starts_at_its_target_writes_valid_svgs(capsys, tmp_path):
    # converged at sample 0: one time, zero edge error and energy, so the
    # charts meet a point-sized range and a log series with nothing to plot
    doc = json.loads(builtin_path("triangle-cyclic").read_text())
    doc["initial"] = doc["target"]
    path = tmp_path / "still.json"
    path.write_text(json.dumps(doc))
    json_path = tmp_path / "run.json"
    code, _, _ = run(capsys, "simulate", str(path), "--svg", str(tmp_path / "run"),
                     "--json", str(json_path))
    assert code == 0
    summary = json.loads(json_path.read_text())
    assert (summary["termination"], summary["samples"]) == ("converged", 1)
    assert summary["svg"] == ["run-edge-error.svg", "run-energy.svg", "run-paths.svg"]
    for name in summary["svg"]:
        xml.dom.minidom.parse(str(tmp_path / name))


def test_scenario_name_with_markup_characters_writes_valid_svgs(capsys, tmp_path):
    # the name goes into every title as XML text, escaped, and reads back
    doc = json.loads(builtin_path("triangle-cyclic").read_text())
    doc["name"] = "A&B <pair>"
    path = tmp_path / "markup.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "simulate", str(path), "--t-max", "0.1",
                     "--svg", str(tmp_path / "run"))
    assert code == 0
    for suffix in ("-edge-error.svg", "-energy.svg", "-paths.svg"):
        title = xml.dom.minidom.parse(str(tmp_path / f"run{suffix}")).getElementsByTagName("text")[0]
        assert title.firstChild.data.startswith("A&B <pair>: ")


def test_simulate_byte_determinism(capsys, tmp_path):
    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        run(capsys, "simulate", "w5-directed-good",
            "-o", str(d / "run.csv"), "--json", str(d / "run.json"))
        outputs.append((
            (d / "run.csv").read_bytes(), (d / "run.json").read_bytes()
        ))
    assert outputs[0] == outputs[1]


def test_simulate_controller_override(capsys, tmp_path):
    json_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "simulate", "w5-undirected", "--controller", "model",
                     "--json", str(json_path))
    assert code == 0
    assert json.loads(json_path.read_text())["controller"] == "model"


def test_simulate_seed_flag_and_env(capsys, tmp_path, monkeypatch):
    j1 = tmp_path / "s1.json"
    run(capsys, "simulate", "w5-undirected", "--seed", "11", "--json", str(j1))
    assert json.loads(j1.read_text())["seed"] == 11

    monkeypatch.setenv("RIGIDFORM_SEED", "7")
    j2 = tmp_path / "s2.json"
    run(capsys, "simulate", "w5-undirected", "--json", str(j2))
    assert json.loads(j2.read_text())["seed"] == 7

    # explicit flag beats the environment
    j3 = tmp_path / "s3.json"
    run(capsys, "simulate", "w5-undirected", "--seed", "3", "--json", str(j3))
    assert json.loads(j3.read_text())["seed"] == 3


def test_valid_env_seed_keeps_the_explicit_start(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("RIGIDFORM_SEED", raising=False)
    j1 = tmp_path / "plain.json"
    _, out1, _ = run(capsys, "simulate", "square-flex", "--json", str(j1))
    monkeypatch.setenv("RIGIDFORM_SEED", "7")
    j2 = tmp_path / "env.json"
    code, out2, _ = run(capsys, "simulate", "square-flex", "--json", str(j2))
    assert code == 0 and "seed: 0" in out2
    assert out2.replace("env.json", "plain.json") == out1
    assert j2.read_bytes() == j1.read_bytes()


def test_simulate_square_flex_stalls_non_congruent(capsys, tmp_path):
    json_path = tmp_path / "sq.json"
    code, out, _ = run(capsys, "simulate", "square-flex", "--json", str(json_path))
    assert code == 0
    summary = json.loads(json_path.read_text())
    # edge lengths match immediately, but the shape is wrong and stays wrong
    assert summary["termination"] == "converged"
    assert summary["edge_converged"] is True
    assert summary["congruent"] is False
    assert summary["decay_rate"] is None
    assert "n/a" in out


def test_simulate_t_max_override(capsys, tmp_path):
    json_path = tmp_path / "short.json"
    code, _, _ = run(capsys, "simulate", "w5-directed-bad", "--t-max", "1.0",
                     "--json", str(json_path))
    assert code == 0
    summary = json.loads(json_path.read_text())
    assert summary["termination"] == "horizon"
    assert summary["termination_time"] == pytest.approx(1.0)


def test_admissibility_takes_each_sample_spectrum_once(capsys, monkeypatch):
    # one spectrum per sampled target, shared by the dynamic and algebraic
    # verdicts; analyze adds one linearization for the certificate at the
    # directed controller's target
    calls = []
    for name in ("_spectrum", "_linearization"):
        def counting(*args, real=getattr(certificates_mod, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(certificates_mod, name, counting)
    run(capsys, "analyze", "w5-directed-good", "--seed", "0")
    assert len(calls) == 6
    calls.clear()
    run(capsys, "admissibility", "--builtin", "w5-directed-good", "--seed", "0")
    assert len(calls) == 5


def test_admissibility_command(capsys, tmp_path):
    code, out, _ = run(capsys, "admissibility", "--builtin", "triangle-cyclic")
    assert code == 0
    assert "dynamic admissibility: pass" in out
    assert "algebraic admissibility: pass" in out

    json_path = tmp_path / "adm.json"
    code, _, _ = run(capsys, "admissibility", "--builtin", "w5-directed-good",
                     "--samples", "3", "--seed", "5", "--json", str(json_path))
    doc = json.loads(json_path.read_text())
    assert doc["dynamic_admissibility"]["samples"] == 3
    assert doc["dynamic_admissibility"]["seed"] == 5


@pytest.mark.parametrize("argv, env_seed, message", [
    (["analyze", "w5-undirected", "--samples", "0"], None,
     "samples must be a positive integer, got 0"),
    (["analyze", "w5-undirected", "--samples", "-2"], None,
     "samples must be a positive integer, got -2"),
    (["admissibility", "--builtin", "w5-undirected", "--samples", "0"], None,
     "samples must be a positive integer, got 0"),
    (["admissibility", "--builtin", "w5-undirected", "--samples", "-2"], None,
     "samples must be a positive integer, got -2"),
    (["analyze", "w5-undirected", "--seed", "-1"], None,
     "--seed must be a non-negative integer, got '-1'"),
    (["simulate", "w5-undirected"], "-4",
     "RIGIDFORM_SEED must be a non-negative integer, got '-4'"),
    (["simulate", "square-flex"], "abc", "RIGIDFORM_SEED must be an integer, got 'abc'"),
    (["simulate", "square-flex"], "-1",
     "RIGIDFORM_SEED must be a non-negative integer, got '-1'"),
    (["analyze", "w5-undirected", "--samples", "abc"], None,
     "argument --samples: invalid int value: 'abc'"),
    (["simulate", "w5-undirected", "--controller", "pid"], None,
     "argument --controller: invalid choice: 'pid'"),
    (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    (["admissibility"], None, "one of the arguments --builtin --graph is required"),
    (["persistence"], None, "one of the arguments --builtin --graph is required"),
    (["admissibility", "--builtin", "fig4-nonpersistent", "--graph", "w5.json"], None,
     "argument --graph: not allowed with argument --builtin"),
    (["persistence", "--builtin", "fig4-nonpersistent", "--graph", "w5.json"], None,
     "argument --graph: not allowed with argument --builtin"),
], ids=["analyze-samples-0", "analyze-samples-neg", "admissibility-samples-0",
        "admissibility-samples-neg", "seed-neg", "env-seed-neg",
        "env-seed-not-int-explicit-start", "env-seed-neg-explicit-start", "samples-not-int",
        "unknown-controller", "unknown-command", "admissibility-no-source",
        "persistence-no-source", "admissibility-both-sources", "persistence-both-sources"])
def test_rejected_input_exits_3_with_its_name(capsys, monkeypatch, argv, env_seed, message):
    # 2 is the indeterminate verdict, so no usage or input error may exit 2
    if env_seed is None:
        monkeypatch.delenv("RIGIDFORM_SEED", raising=False)
    else:
        monkeypatch.setenv("RIGIDFORM_SEED", env_seed)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    err = capsys.readouterr().err
    assert code == 3
    assert message in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "rigidform" in capsys.readouterr().out


def test_persistence_command(capsys):
    code, out, _ = run(capsys, "persistence", "--builtin", "fig4-nonpersistent")
    assert code == 1
    assert "not persistent" in out and "witness" in out

    code, out, _ = run(capsys, "persistence", "--builtin", "triangle-cyclic")
    assert code == 0
    assert "persistent" in out

    code, _, err = run(capsys, "persistence", "--builtin", "w5-undirected")
    assert code == 3
    assert "orient" in err


@pytest.mark.parametrize("seed", ["0", "3"])
@pytest.mark.parametrize("name", ["w5-directed-good", "w5-directed-bad",
                                  "fig4-nonpersistent", "triangle-cyclic"])
def test_analyze_prints_each_report_as_its_subcommand_does(capsys, name, seed):
    _, analyzed, _ = run(capsys, "analyze", name, "--persistence", "--seed", seed)
    _, adm, _ = run(capsys, "admissibility", "--builtin", name, "--seed", seed)
    _, per, _ = run(capsys, "persistence", "--builtin", name, "--seed", seed)
    header, *adm_lines = adm.splitlines()
    per_header, *per_lines = per.splitlines()
    assert analyzed.splitlines()[0] == header == per_header
    assert "\n" + "\n".join(adm_lines + per_lines) + "\n" in analyzed


def test_analyze_persistence_past_the_cap_says_why(capsys, tmp_path):
    # the K3,30 orientation: vertices 1, 2, 3 each sense the same 30 others,
    # C(30, 2)^3 = 82,312,875 reductions
    arcs = [[t, h] for t in (1, 2, 3) for h in range(4, 34)]
    doc = {
        "name": "k3-30", "dimension": 2,
        "graph": {"vertices": 33, "edges": arcs},
        "orientation": arcs,
        "controller": "directed",
        "target": np.random.default_rng(0).uniform(-1.0, 1.0, (33, 2)).tolist(),
    }
    path = tmp_path / "k3-30.json"
    path.write_text(json.dumps(doc))
    _, analyzed, _ = run(capsys, "analyze", str(path), "--persistence")
    code, per, _ = run(capsys, "persistence", "--graph", str(path))
    assert code == 2
    note = "note: 82312875 reductions exceed the cap of 1000000\n"
    assert per.endswith("persistence: indeterminate  [0 reductions checked]\n" + note)
    assert analyzed.endswith(per.split("\n", 1)[1])


@pytest.mark.parametrize("argv", [
    ["analyze", "w5-undirected", "--persistence"],
    ["persistence", "--builtin", "w5-undirected"],
], ids=["analyze", "persistence"])
def test_persistence_needs_an_orientation_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ranked a graph before checking the orientation")

    monkeypatch.setattr(cli_mod, "generic_rank", no_work)
    monkeypatch.setattr(cli_mod, "admissibility", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: persistence requires an oriented scenario\n"


def test_custom_scenario_file(capsys, tmp_path):
    doc = {
        "name": "pair",
        "description": "",
        "dimension": 1,
        "graph": {"vertices": 2, "edges": [[1, 2]]},
        "controller": "gradient",
        "target": [[0.0], [2.0]],
        "initial": [[0.0], [1.0]],
        "integrator": {"t_max": 5.0},
        "termination": {"tol_edge": 1e-08},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    json_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "simulate", str(path), "--json", str(json_path))
    assert code == 0
    assert json.loads(json_path.read_text())["termination"] == "converged"

    code, _, err = run(capsys, "analyze", str(path))
    assert code == 0  # gradient certificate passes for the pair


def test_strict_validation_propagates(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "name": "x", "dimension": 2, "controler": "gradient",
        "graph": {"vertices": 2, "edges": [[1, 2]]},
        "target": [[0.0, 0.0], [1.0, 0.0]],
    }))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert "controler" in err


def test_non_finite_target_is_a_named_input_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "name": "x", "dimension": 2, "controller": "gradient",
        "graph": {"vertices": 2, "edges": [[1, 2]]},
        "target": [[0.0, 0.0], [float("nan"), 0.0]],
    }))
    assert "NaN" in path.read_text()
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 3
    assert "target: coordinates must be finite" in err


@pytest.mark.parametrize("command, key, value, message", [
    ("simulate", "termination", {"window": 2.5}, "x.json.termination: window must be an integer >= 2"),
    ("simulate", "target", [[0.0, 0.0], [1e308, 0.0]], "x.json.target: coordinates must be finite"),
    ("analyze", "target", [[0.0, 0.0], [1e308, 0.0]], "x.json.target: coordinates must be finite"),
], ids=["fractional-window", "simulate-huge-target", "analyze-huge-target"])
def test_bad_scenario_values_exit_3_with_no_traceback(capsys, tmp_path, command, key, value, message):
    # a fractional window once ended in a slice TypeError mid-run, and a
    # 1e308 target leaked overflow warnings (analyze then exited 2)
    doc = {"name": "x", "dimension": 2, "controller": "gradient",
           "graph": {"vertices": 2, "edges": [[1, 2]]}, "target": [[0.0, 0.0], [1.0, 0.0]]}
    doc[key] = value
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert message in err
    assert "Warning" not in err and out == ""


@pytest.mark.parametrize("integrator, extra, message", [
    ({"t_max": 1.0, "dt_init": 2.0}, [],
     "pair.json.integrator: dt_init must be positive and at most t_max"),
    ({"t_max": 5.0, "dt_init": 2.0}, ["--t-max", "1"],
     "dt_init must be positive and at most t_max"),
    ({"rtol": 1e-20}, [], "pair.json.integrator: rtol must be at least 2.22e-14"),
    ({"sample_every": 2.5}, [], "pair.json.integrator: sample_every must be a positive integer"),
], ids=["dt-init-past-horizon", "t-max-override-below-dt-init", "rtol-below-100-eps",
        "fractional-sample-every"])
def test_integrator_settings_rejected_by_name(capsys, tmp_path, integrator, extra, message):
    # named by the config field at fault, with no warning on stderr
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "name": "pair", "dimension": 1, "controller": "gradient",
        "graph": {"vertices": 2, "edges": [[1, 2]]},
        "target": [[0.0], [2.0]], "initial": [[0.0], [1.0]],
        "integrator": integrator,
    }))
    code, out, err = run(capsys, "simulate", str(path), *extra)
    assert code == 3
    assert message in err
    assert "Warning" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "triangle-cyclic", "--t-max", "0.1", "-o", "{missing}run.csv"],
    ["simulate", "triangle-cyclic", "--t-max", "0.1", "--svg", "{missing}p"],
    ["simulate", "triangle-cyclic", "--t-max", "0.1", "--json", "{missing}run.json"],
    ["analyze", "triangle-cyclic", "--json", "{missing}x.json"],
    ["admissibility", "--builtin", "triangle-cyclic", "--json", "{missing}x.json"],
    ["persistence", "--builtin", "triangle-cyclic", "--json", "{missing}x.json"],
], ids=["simulate-csv", "simulate-svg", "simulate-json", "analyze-json",
        "admissibility-json", "persistence-json"])
def test_unwritable_output_exits_3_naming_the_path(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-dir"
    code, _, err = run(capsys, *(a.replace("{missing}", f"{missing}/") for a in argv))
    assert code == 3
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err
    assert not missing.exists()


def test_admissibility_resample_cap_exits_3(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RankDeficiencyError("refused")

    monkeypatch.setattr(certificates_mod, "_spectrum", refuse)
    code, _, err = run(capsys, "admissibility", "--builtin", "triangle-cyclic")
    assert code == 3
    assert err == "error: failed to sample a regular configuration in 50 tries\n"


@pytest.mark.parametrize("argv", [
    ["admissibility", "--builtin", "w5-undirected", "--samples", "5"],
    ["analyze", "w5-undirected", "--samples", "5"],
])
def test_admissibility_sample_budget_exits_3(capsys, monkeypatch, argv):
    # a sample count above the budget is named before any sample is drawn
    monkeypatch.setattr(certificates_mod, "_SAMPLE_BUDGET", 4)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == "error: samples must be at most 4, got 5\n"
    assert "admissibility" not in out


def test_step_budget_ends_an_endless_run_aborted(capsys, monkeypatch, tmp_path):
    # dt_max = 1e-300 asks for about 1e300 steps; the step budget ends the
    # run "aborted" after its last accepted step, says so on the line after
    # the termination line, and simulate exits 3
    doc = json.loads(builtin_path("w5-undirected").read_text())
    doc["integrator"]["dt_max"] = 1e-300
    path = tmp_path / "tiny-steps.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(simulate_mod, "_STEP_BUDGET", 40)
    code, out, err = run(capsys, "simulate", str(path))
    assert code == 3 and err == ""
    assert ("termination: aborted at t=4e-299 (41 samples)\n"
            "cause: step budget: 40 accepted steps, the cap of 40\n") in out
    assert "fitted decay rate: n/a" in out


@pytest.mark.parametrize("command", ["admissibility", "persistence"])
def test_graph_file_reads_as_its_builtin(capsys, tmp_path, command):
    path = tmp_path / "fig4.json"
    path.write_text(builtin_path("fig4-nonpersistent").read_text())
    from_builtin = run(capsys, command, "--builtin", "fig4-nonpersistent", "--seed", "3")
    from_file = run(capsys, command, "--graph", str(path), "--seed", "3")
    assert from_file == from_builtin
    assert from_file[0] in (0, 1) and from_file[2] == ""

    code, out, err = run(capsys, command, "--graph", str(tmp_path / "none.json"))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {tmp_path / 'none.json'}: ") and "No such file" in err


def test_scenario_that_is_no_json_object_or_a_directory_exits_3(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err == f"error: {path}: document must be a JSON object\n"

    code, out, err = run(capsys, "simulate", str(tmp_path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and "Is a directory" in err


@pytest.mark.parametrize("shape", [(4, 2), (4, 3, 3)], ids=["2d", "3d-points"])
def test_plane_paths_names_a_bad_shape(tmp_path, shape):
    with pytest.raises(ValueError,
                       match=re.escape("plane_paths needs positions shaped (samples, nodes, 2)")):
        plane_paths(tmp_path / "p.svg", np.zeros(shape))
    assert not (tmp_path / "p.svg").exists()
