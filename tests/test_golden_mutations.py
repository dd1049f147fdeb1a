"""Mutated golden jobs still end in a documented way.

Each example takes a job of the golden corpus and changes one to three of its
leaves: it puts a value from a small pool in place of the leaf, deletes it, or
scales it when it is a number.  ``cli.run`` must raise nothing and exit 0, 2, 3
or 4, and its report must be canonical JSON: it reads back to the same text
through ``dumps_canonical`` (``parse_int=float`` keeps the sign of -0).
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from codiv.cli import EXIT_COMPUTE, EXIT_OK, EXIT_PROPERTY, EXIT_VALIDATION, run
from codiv.errors import is_number
from codiv.serialize import dumps_canonical

JOBS = Path(__file__).resolve().parent / "golden" / "jobs"


def _load_jobs() -> dict:
    jobs = {}
    for path in sorted(JOBS.glob("*.json")):
        try:
            job = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:  # the corpus's malformed job files
            continue
        if isinstance(job, dict):
            jobs[path.stem] = job
    return jobs


GOLDEN_JOBS = _load_jobs()
POOL = st.one_of(
    st.sampled_from(["", "x", "chi2", "hellinger", "alpha:0.5", "valpha:2", "off-support",
                     "poisson_product", "matrix", True, False, None, 0, -1, -0.5, -1e308, 1e308]),
    st.builds(list), st.builds(dict), st.integers(max_value=50))
FACTORS = (-1, 2, 10, 0.5, 1e-3)


def _leaves(node, path=()):
    """Paths to the values of ``node`` that are not non-empty lists or objects."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    children = list(children)
    if not children:
        if path:
            yield path
        return
    for key, child in children:
        yield from _leaves(child, path + (key,))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_golden_job_ends_in_a_documented_way(data):
    name = data.draw(st.sampled_from(sorted(GOLDEN_JOBS)), label="job")
    job = json.loads(json.dumps(GOLDEN_JOBS[name]))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        leaves = list(_leaves(job))
        if not leaves:
            break
        *parents, key = data.draw(st.sampled_from(leaves), label="leaf")
        owner = job
        for step in parents:
            owner = owner[step]
        ops = ["replace", "delete"] + (["scale"] if is_number(owner[key]) else [])
        op = data.draw(st.sampled_from(ops), label="operation")
        if op == "replace":
            owner[key] = data.draw(POOL, label="value")
        elif op == "delete":
            del owner[key]
        else:
            owner[key] *= data.draw(st.sampled_from(FACTORS), label="factor")
    text, status = run(job)
    assert status in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTE, EXIT_PROPERTY)
    assert dumps_canonical(json.loads(text, parse_int=float)) + "\n" == text
