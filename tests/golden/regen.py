"""Rewrite the expected output of every golden case, or of the cases named.

    PYTHONPATH=src python tests/golden/regen.py [CASE ...]

``cases.json`` maps each case name to the argv it passes to ``codiv``; paths
in it are relative to this directory and the job files live in ``jobs/``.
``expected/<case>.txt`` holds ``exit N`` on its first line, then the exact
stdout bytes.  An uncaught exception counts as exit 1, the status the
installed CLI exits with after printing the traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent


def load_cases() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def expected_path(name: str) -> Path:
    return GOLDEN / "expected" / f"{name}.txt"


def run_case(argv: list) -> bytes:
    """Exit status line and stdout of ``codiv.cli.main(argv)``, run from this directory."""
    from codiv.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            try:
                status = main(argv)
            except Exception:
                status = 1
    finally:
        os.chdir(cwd)
    return f"exit {status}\n{out.getvalue()}".encode("utf-8")


def main(names: list) -> int:
    cases = load_cases()
    unknown = sorted(set(names) - set(cases))
    if unknown:
        print(f"unknown cases: {', '.join(unknown)}", file=sys.stderr)
        return 2
    expected_path("").parent.mkdir(exist_ok=True)
    for name in names or sorted(cases):
        path = expected_path(name)
        got = run_case(cases[name])
        if not path.exists() or path.read_bytes() != got:
            path.write_bytes(got)
            print(f"rewrote {name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
