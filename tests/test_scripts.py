"""Tests of the repository scripts that are not part of the package."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# 7 code lines: the import, the constant, the def, its two-line call and
# the non-docstring string, and the class statement
FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps the line

# a comment line
LIMIT = 3


def area(r):
    """A function docstring."""

    return math.pi * max(r,
                         LIMIT)
    "a string after the first statement is code"


class Box:
    """A class docstring."""
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert _script("code_lines").code_lines(FIXTURE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# two\ny = 2\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert _script("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 2\nb 7\ntotal 9\n"
