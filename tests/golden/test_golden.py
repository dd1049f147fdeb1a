"""Every golden case still exits with the recorded status and prints the recorded bytes."""

import difflib

import pytest

from regen import expected_path, load_cases, run_case

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
