"""Every golden case still exits with the recorded status and prints the recorded bytes."""

import difflib
import os
import subprocess
import sys

import pytest

from regen import GOLDEN, expected_path, load_cases, run_case

CASES = load_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name):
    want = expected_path(name).read_bytes()
    got = run_case(CASES[name])
    if got != want:
        diff = difflib.unified_diff(want.decode().splitlines(True), got.decode().splitlines(True),
                                    "expected", "got")
        pytest.fail(f"golden case {name} changed; if that is intended, run "
                    f"tests/golden/regen.py {name} and record why in CHANGES.md\n" + "".join(diff))


@pytest.mark.parametrize("name", ["expand-local", "codiv-poisson-overflow", "dpi-not-dominated",
                                  "oracle-check-poisson-term-ratio-overflow",
                                  "dpi-property-violation"])
def test_module_entry_point(name):
    """``python -m codiv``, the command the benchmark times, exits with the golden status
    and prints the golden bytes."""
    path = [str(GOLDEN.parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout, which must be flushed before exit
    proc = subprocess.run([sys.executable, "-m", "codiv", *CASES[name]], cwd=GOLDEN, env=env,
                          capture_output=True, timeout=120)
    assert f"exit {proc.returncode}\n".encode() + proc.stdout == expected_path(name).read_bytes()


def test_corpus_is_consistent():
    """Every job file is the input of a case, and every case has exactly one expected file;
    ``no-such-job.json`` is the one reference to a job file that deliberately does not exist."""
    referenced = {arg for argv in CASES.values() for arg in argv if arg.startswith("jobs/")}
    jobs = {f"jobs/{path.name}" for path in (GOLDEN / "jobs").glob("*.json")}
    assert jobs - referenced == set()
    assert referenced - jobs == {"jobs/no-such-job.json"}
    expected = sorted(path.name for path in (GOLDEN / "expected").iterdir())
    assert expected == sorted(expected_path(name).name for name in CASES)
