"""Replay the golden job files under two source trees and print every job whose report differs.

    python tests/golden/replay.py PARENT_SRC [SRC]

PARENT_SRC and SRC are the ``src`` directories of two checkouts (SRC defaults to this
tree's); a copy of a commit made with ``git archive`` serves as PARENT_SRC.  Every job file
in ``jobs/`` that reads as a JSON object runs through ``cli.run`` with its command set to each
of the six commands and to six values that are not commands, each under eight option
variants: 12 x 8 jobs a file.  A suite is capped at 2 trials on 20 points.  Each tree runs in
its own interpreter, reading the files as ``main`` does.  The script prints every job whose
report bytes or exit code differ between the trees, then the count, and exits 1 if any do.
"""

from __future__ import annotations

import difflib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
COMMANDS = ["codiv", "matrix", "rank", "dpi", "expand", "oracle-check", [], {}, None, 5, "x",
            True]
# name -> the options of a variant, from the job's own options (a dict) and its support size n
VARIANTS = {
    "as-given": lambda o, n: o,
    "off-support": lambda o, n: {**o, "mode": "off-support"},
    "trials-2": lambda o, n: {**o, "trials": 2},
    "no-kind": lambda o, n: {k: v for k, v in o.items() if k != "kind"},
    "levels-0": lambda o, n: {**o, "levels": 0},
    "valpha": lambda o, n: {**o, "kind": "valpha:0.5"},
    "bogus-mode": lambda o, n: {**o, "mode": "bogus", "count": 2},
    "identity-kernel": lambda o, n: {
        **o, "kernel": {"matrix": [[float(i == j) for j in range(n)] for i in range(n)]}},
}
SUITE_CAPS = {"trials": 2, "support": 20, "output_support": 20}


def _support(job: dict) -> int:
    """The length of the first input's mass list, or 3 where there is none."""
    inputs = job.get("inputs")
    first = inputs[0] if isinstance(inputs, list) and inputs else None
    mass = first.get("mass") if isinstance(first, dict) else None
    return len(mass) if hasattr(mass, "__len__") and len(mass) else 3


def _jobs(load):
    """(label, job) for every replayed job, in a fixed order; ``load`` reads one job file."""
    for path in sorted((GOLDEN / "jobs").glob("*.json")):
        try:
            job = load(path)
        except ValueError:  # the corpus's unreadable job files
            continue
        if not isinstance(job, dict):
            continue
        given = job.get("options", {})
        for command in COMMANDS:
            for name, variant in VARIANTS.items():
                # where the options are no dict, each variant is the job as given
                options = variant(given, _support(job)) if isinstance(given, dict) else given
                if isinstance(options, dict) and "trials" in options:
                    options = {**options, **{k: cap for k, cap in SUITE_CAPS.items()
                                             if type(options.get(k)) is int and options[k] > cap}}
                yield (f"{path.name} command={command!r} options={name}",
                       {**job, "command": command, "options": options})


def emit(src: str) -> None:
    """Print one JSON line [label, exit code, report] per job, run under the tree ``src``."""
    sys.path.insert(0, src)
    from codiv import cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"codiv loads from {cli.__file__}, not from {src}")

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=getattr(cli, "mass_array_hook", None))

    for label, job in _jobs(load):
        text, status = cli.run(job)
        print(json.dumps([label, status, text]))


def run_under(trees: list, script: str = __file__, *args: str) -> list | None:
    """The JSON lines that ``script --emit SRC *args`` prints under each of the two trees,
    both run at once, each in its own interpreter whose stderr is dropped (the tracebacks of
    ``internal`` errors, numpy's warnings); None if one fails."""
    with tempfile.TemporaryFile() as out_a, tempfile.TemporaryFile() as out_b:
        procs = [subprocess.Popen([sys.executable, script, "--emit", src, *args], stdout=out,
                                  stderr=subprocess.DEVNULL)
                 for src, out in zip(trees, (out_a, out_b))]
        codes = [proc.wait() for proc in procs]
        for src, code in zip(trees, codes):
            if code != 0:
                print(f"replay under {src} failed with exit {code}", file=sys.stderr)
                return None
        results = []
        for out in (out_a, out_b):
            out.seek(0)
            results.append([json.loads(line) for line in out])
        return results


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    trees = [argv[0], argv[1] if len(argv) == 2 else str(GOLDEN.parents[1] / "src")]
    results = run_under(trees)
    if results is None:
        return 2
    differ = 0
    for (label, code_a, text_a), (_, code_b, text_b) in zip(*results):
        if (code_a, text_a) != (code_b, text_b):
            differ += 1
            print(f"{label}: exit {code_a} -> {code_b}")
            sys.stdout.writelines(difflib.unified_diff(
                text_a.splitlines(True), text_b.splitlines(True), trees[0], trees[1]))
    print(f"{len(results[0])} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
