"""Run a seeded sweep of family jobs under two source trees and print every job that moved.

    python tests/golden/sweep.py PARENT_SRC [SRC] [--jobs N] [--seed S]

PARENT_SRC and SRC are the ``src`` directories of two checkouts, as for ``replay.py`` (SRC
defaults to this tree's).  The sweep draws N ``codiv`` and ``oracle-check`` jobs (3,000 by
default, seed 1) on the five families: two thirds in the local regime, where members 1 and 2
lie within a relative step of 1e-8 to 1e-1 of member 0, and one third over the float range,
where every positive parameter is log-uniform from 5e-324 to 1e308.  Each tree runs the jobs
through ``cli.run`` in its own interpreter.  The script prints the table of exit-code moves
by family, then every job whose exit code or report moved, with the two reports, then the
counts; it exits 1 if any job moved.
"""

from __future__ import annotations

import difflib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from replay import GOLDEN, run_under

FAMILIES = {  # kind -> the names of its vector parameters
    "gaussian_iso": ["mean"], "poisson_product": ["lambda"], "bernoulli_product": ["theta"],
    "exponential_product": ["beta"], "gamma_product": ["shape", "rate"],
}


def _positive(rng: random.Random, local: bool) -> float:
    return rng.uniform(0.01, 100.0) if local else max(10.0 ** rng.uniform(-323.5, 308.25), 5e-324)


def _member(rng: random.Random, kind: str, d: int, local: bool) -> dict:
    """The vectors of a member of dimension d: modest in the local regime, and over the float
    range otherwise (a theta or 1 - theta log-uniform up to 1/2, a mean of either sign)."""
    def entry(name):
        if name == "theta":
            if local:
                return rng.uniform(0.05, 0.85)
            x = min(_positive(rng, False), 0.5)
            return x if rng.random() < 0.5 else 1.0 - x
        if name == "mean":
            return rng.choice([-1.0, 1.0]) * (rng.uniform(0.0, 10.0) if local
                                              else _positive(rng, False))
        return _positive(rng, local)
    return {name: [entry(name) for _ in range(d)] for name in FAMILIES[kind]}


def _near(rng: random.Random, reference: dict) -> dict:
    """The reference's vectors, each entry moved by one relative step of 1e-8 to 1e-1."""
    step = 10.0 ** rng.uniform(-8.0, -1.0)
    return {name: [x * (1.0 + step * rng.uniform(-1.0, 1.0)) for x in values]
            for name, values in reference.items()}


def draw_jobs(seed: int, count: int) -> list:
    """``count`` family jobs from a generator seeded with ``seed``; every third is drawn over
    the float range."""
    rng, jobs = random.Random(seed), []
    for i in range(count):
        local, kind, d = i % 3 != 2, rng.choice(sorted(FAMILIES)), rng.randint(1, 3)
        reference = _member(rng, kind, d, local)
        members = [reference] + [_near(rng, reference) if local else _member(rng, kind, d, False)
                                 for _ in range(2)]
        sigma = rng.uniform(0.1, 10.0) if local else _positive(rng, False)
        inputs = [{"kind": kind, "params": {**m, "sigma": sigma} if kind == "gaussian_iso"
                   else m} for m in members]
        alpha = 10.0 ** (rng.uniform(-2.0, 1.0) if local else rng.uniform(-12.0, 2.0))
        option = rng.choice(["chi2", "hellinger", f"alpha:{alpha!r}"])
        jobs.append({"command": rng.choice(["codiv", "oracle-check"]), "inputs": inputs,
                     "options": {"kind": option}})
    return jobs


def emit(src: str, seed: int, count: int) -> None:
    """Print one JSON line [job, exit code, report] per job, run under the tree ``src``."""
    sys.path.insert(0, src)
    from codiv import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"codiv loads from {cli.__file__}, not from {src}")
    for job in draw_jobs(seed, count):
        text, status = cli.run(job)
        print(json.dumps([job, status, text]))


def main(argv: list) -> int:
    options = {"--jobs": 3000, "--seed": 1}
    while len(argv) >= 2 and argv[-2] in options:
        options[argv[-2]] = int(argv[-1])
        argv = argv[:-2]
    if len(argv) == 4 and argv[0] == "--emit":
        emit(argv[1], int(argv[2]), int(argv[3]))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    trees = [argv[0], argv[1] if len(argv) == 2 else str(GOLDEN.parents[1] / "src")]
    results = run_under(trees, __file__, str(options["--seed"]), str(options["--jobs"]))
    if results is None:
        return 2
    moves, reports = Counter(), []
    for (job, code_a, text_a), (_, code_b, text_b) in zip(*results):
        if (code_a, text_a) != (code_b, text_b):
            moves[job["inputs"][0]["kind"], code_a, code_b] += 1
            reports.append((job, code_a, code_b, text_a, text_b))
    print("exit-code moves (family: parent -> this tree: jobs)")
    for (kind, code_a, code_b), n in sorted(moves.items()):
        if code_a != code_b:
            print(f"  {kind}: {code_a} -> {code_b}: {n}")
    for job, code_a, code_b, text_a, text_b in reports:
        print(f"{json.dumps(job)}: exit {code_a} -> {code_b}")
        sys.stdout.writelines(difflib.unified_diff(
            text_a.splitlines(True), text_b.splitlines(True), trees[0], trees[1]))
    exits = sum(code_a != code_b for _, code_a, code_b, _, _ in reports)
    print(f"{len(results[0])} jobs, {len(reports)} moved, {exits} of them in exit code")
    return 1 if reports else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
