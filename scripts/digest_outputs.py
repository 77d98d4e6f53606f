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
summaries), so digests do not depend on where they ran.  Uses the standard
library and the package only; RIGIDFORM_SEED is ignored.
"""

import contextlib
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

from rigidform import builtin_names
from rigidform.cli import main as cli_main
from rigidform.controllers import CONTROLLER_KINDS

STUDIES = Path(__file__).resolve().parent / "run_studies.py"


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


if __name__ == "__main__":
    main()
