"""Self-test of the report checkers: each accepts the program's report and rejects it corrupted.

    python3 bench/selftest.py

Run it from the repository root.  It makes the startup-mix and
oracle-families jobs (which use every checker between them), runs each
in-process through ``codiv.cli.run``, and shows for every job that its
checker accepts the real report, rejects the report with one checked number
changed in its sixth significant digit, and rejects a wrong exit code.  For
the two known faults it shows instead that the checker rejects today's
output and accepts the correct result.  Exits 1 on any miss.
"""

from __future__ import annotations

import json
import math
import os
import sys

import jobs as workloads

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import codiv.cli as cli  # noqa: E402


def nudge(x):
    return x * (1.0 + 1e-6) + 1e-9


def corrupt(job, out: bytes) -> bytes:
    """The report with one number the checker must look at changed."""
    if job.fmt == "csv":
        lines = out.decode().split("\r\n")
        cells = lines[-2].split(",")
        cells[-1] = repr(nudge(float(cells[-1])))
        lines[-2] = ",".join(cells)
        return "\r\n".join(lines).encode()
    doc = json.loads(out)
    command = job.doc["command"]
    if "error" in doc:
        doc["error"]["findings"][0]["path"] += "/0"
    elif command == "matrix":
        doc["matrix"]["entries"][-1] = nudge(doc["matrix"]["entries"][-1])
    elif command == "codiv":
        doc["value"] = nudge(doc["value"])
    elif command == "rank" and "trials" in doc:
        doc["agreements"] -= 1
    elif command == "rank":
        doc["matrix_rank"] -= 1
    elif command == "dpi" and "trials" in doc:
        doc["worst_scaled_min_eigenvalue"] = -1.0
    elif command == "dpi":
        doc["after"]["entries"][-1] = nudge(doc["after"]["entries"][-1])
    elif command == "expand" and doc["mode"] == "local":
        doc["report"]["fisher_inner"] = nudge(doc["report"]["fisher_inner"])
    elif command == "expand":
        doc["report"]["expected"]["ts"] = nudge(doc["report"]["expected"]["ts"])
    elif command == "oracle-check":
        doc["oracle"] = doc["closed_form"] * (1.0 + 1e-6) + 1e-6
    return json.dumps(doc).encode()


def correct_fault_reports(job) -> list[tuple[int, bytes]]:
    """Outcomes the known faults must give once they are mended."""
    if job.doc["command"] == "oracle-check":
        value = math.expm1(25.0)
        doc = {"closed_form": value, "oracle": value, "relative_error": 0.0,
               "tolerance": 1e-7, "passed": True}
        return [(0, json.dumps(doc).encode())]
    return [(0, b'{"value": "inf", "overflow": true}'),
            (3, b'{"error": {"code": "computation", "message": "overflow"}}')]


def main() -> int:
    misses = []
    job_list = workloads.make_jobs("startup-mix", 1) + workloads.make_jobs("oracle-families", 1)
    for job in job_list:
        try:
            text, code = cli.run(json.loads(json.dumps(job.doc)), fmt=job.fmt,
                                 seed=job.seed if job.seed is not None else 0)
            out = text.encode()
        except Exception:  # a known fault: the CLI would exit 1 with a traceback
            code, out = 1, b""
        if job.fault:
            cases = [("today's output", code, out, False)]
            cases += [("the correct result", c, o, True) for c, o in correct_fault_reports(job)]
        else:
            cases = [("the real report", code, out, True),
                     ("a corrupted report", code, corrupt(job, out), False),
                     ("a wrong exit code", 4 if code == 0 else 0, out, False)]
        for label, c, o, accept in cases:
            reason = job.check(c, o, b"")
            ok = (reason is None) == accept
            print(f"{'ok  ' if ok else 'MISS'} {job.name}: {label} "
                  f"{'accepted' if reason is None else 'rejected: ' + reason}")
            if not ok:
                misses.append(job.name)
    print(f"\n{len(job_list)} jobs, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
