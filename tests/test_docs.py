"""The README's examples run as written: the Python API example, the scenario
file and every command of the command-line block."""

import json
import re
import shlex
from pathlib import Path

import pytest

from rigidform.cli import main
from rigidform.scenarios import scenario_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_python_example_runs(capsys):
    blocks = _blocks("python")
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    # the first line the example prints is the certificate verdict it documents
    assert capsys.readouterr().out.splitlines()[0] == "pass"


def test_readme_scenario_file_loads_and_simulates(capsys, tmp_path):
    blocks = _blocks("json")
    assert len(blocks) == 1
    doc = json.loads(blocks[0])
    assert scenario_from_dict(doc).name == doc["name"]
    path = tmp_path / "pair.json"
    path.write_text(blocks[0])
    assert main(["simulate", str(path), "--t-max", "1"]) == 0
    assert f"scenario: {doc['name']}" in capsys.readouterr().out


def _readme_commands() -> list[list[str]]:
    block = next(b for b in _blocks("sh") if "rigidform examples" in b)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("rigidform ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, monkeypatch, tmp_path, argv):
    # relative output paths land in tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RIGIDFORM_SEED", raising=False)
    assert main(argv) in (0, 1)
    capsys.readouterr()
    for flag, value in zip(argv, argv[1:]):
        if flag in ("-o", "--output", "--json"):
            assert (tmp_path / value).is_file(), value
        elif flag == "--svg":
            assert list(tmp_path.glob(f"{value}-*.svg")), value
