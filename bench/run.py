"""Closed-loop benchmark of the codiv CLI, with a separate traced in-process run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the package under ``src/``.

--trace 0: one client runs one ``python -m codiv`` process at a time over
as many whole rounds of the workload's jobs as fit in S seconds (each round
in a new shuffled order), checks every report, and reports the end-to-end
metrics.  Fresh-interpreter ``import codiv.cli`` times are sampled between
jobs.

--trace 1: runs every job once through the CLI, then calls the same jobs
in-process through ``codiv.cli.run`` in rounds, each round once untraced and
once with the layer tracer installed, and reports the per-layer metrics.
Every in-process report must be byte-identical to the CLI's stdout.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Job files, results and traces go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

import jobs as workloads
from tracer import INTEGRAND_POINTS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_EVERY_S = 2.0  # interval between import samples in the timed loop
IMPORT_SAMPLES = 5   # `-X importtime` samples in a traced run

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, span or counter it reads)
PER_LAYER = {
    "import.total_ms": ("ms", None),
    "import.numpy_ms": ("ms", None),
    "import.codiv_self_ms": ("ms", None),
    "cli.parse_ms": ("ms", None),
    "cli.validate_ms": ("ms", "cli.validate"),
    "cli.run_ms": ("ms", "cli.run"),
    "measures.construct_ms": ("ms", "measures.construct"),
    "measures.construct_calls": ("count", "measures.construct"),
    "codivergence.pair_calls": ("count", "codivergence.pair"),
    "codivergence.pair_ms": ("ms", "codivergence.pair"),
    "matrices.build_self_ms": ("ms", "matrices.build"),
    "matrices.jacobi_ms": ("ms", "matrices.jacobi"),
    "matrices.jacobi_calls": ("count", "matrices.jacobi"),
    "matrices.push_forward_ms": ("ms", "matrices.push_forward"),
    "matrices.rank_self_ms": ("ms", "matrices.rank"),
    "matrices.dpi_self_ms": ("ms", "matrices.dpi"),
    "families.construct_ms": ("ms", "families.construct"),
    "families.closed_form_ms": ("ms", "families.closed_form"),
    "oracles.oracle_self_ms": ("ms", "oracles.oracle"),
    "oracles.quadrature_ms": ("ms", "oracles.quadrature"),
    "oracles.quadrature_calls": ("count", "oracles.quadrature"),
    "oracles.integrand_points": ("count", None),
    "local.expansion_ms": ("ms", "local.expansion"),
    "local.off_support_ms": ("ms", "local.off_support"),
    "serialize.dumps_ms": ("ms", "serialize.dumps"),
    "serialize.csv_ms": ("ms", "serialize.csv"),
    "serialize.report_bytes": ("B", None),
    "trace.overhead_ms": ("ms", None),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"  # multi-threaded BLAS start-up makes imports slower and noisier
    return env


class Runner:
    """Runs interpreter children one at a time through launcher.py; their stderr goes to err_path."""

    def __init__(self, err_path: str):
        self.err_path = err_path
        self._proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      env=child_env())

    def run(self, args: list[str]):
        """(exit code, stdout, seconds to stdout closed, seconds to reaped, peak RSS in KiB)
        of one `python <args>` child."""
        request = json.dumps({"args": args, "err": self.err_path}).encode() + b"\n"
        self._proc.stdin.write(request)
        self._proc.stdin.flush()
        header = json.loads(self._proc.stdout.readline())
        out = self._proc.stdout.read(header["nbytes"])
        return header["code"], out, header["closed_s"], header["reaped_s"], header["maxrss_kib"]

    def stderr(self) -> bytes:
        with open(self.err_path, "rb") as fh:
            return fh.read()

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Outcomes:
    """Checks each execution and counts attempts and failures.

    A job's first report is checked by its checker; later executions of the
    same job must reproduce that report byte for byte (reports are
    deterministic) and inherit its verdict.
    """

    def __init__(self, job_list):
        self.jobs = job_list
        self.first: dict[int, tuple[int, bytes, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, i: int, code: int, out: bytes, err: bytes) -> None:
        job = self.jobs[i]
        if i not in self.first:
            self.first[i] = (code, out, job.check(code, out, err))
        first_code, first_out, reason = self.first[i]
        if (code, out) != (first_code, first_out):
            reason = reason or "report differs from this job's earlier report"
        self.attempted += 1
        if reason:
            self.failed += 1
            if not job.fault and len(self.wrong) < 20:
                self.wrong.append(f"{job.name}: {reason}")

    def summary(self) -> dict:
        return {"correct": not self.wrong, "attempted": self.attempted, "failed": self.failed}


def prepare(runner: Runner, workload: str, seed: int, directory: str):
    """Warm the bytecode cache, make the jobs and write their files."""
    code, *_ = runner.run(["-m", "compileall", "-q", os.path.join(SRC, "codiv")])
    if code != 0:
        raise RuntimeError(f"compileall failed with exit {code}")
    job_list = workloads.make_jobs(workload, seed)
    paths = []
    for i, job in enumerate(job_list):
        path = os.path.join(directory, f"{i:02d}-{job.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job.doc, fh)
        job.doc = None  # the file is the job from here on; the document can be large
        paths.append(path)
    for _ in range(2):  # bring the interpreter and numpy into the page cache
        runner.run(["-c", "import codiv.cli"])
    return job_list, paths


def rounds(n_jobs: int, rnd: random.Random, start: float, seconds: float):
    """Yield whole rounds (each job once, in a new shuffled order) for as long as
    another round of the last round's length still ends within `seconds` of start."""
    while True:
        began = time.perf_counter()
        order = list(range(n_jobs))
        rnd.shuffle(order)
        yield order
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return


def timed_loop(runner: Runner, job_list, paths, seconds: float, seed: int):
    outcomes = Outcomes(job_list)
    rnd = random.Random(seed)
    closed_s, busy_s, rss_kib, setups = [], 0.0, 0, []
    start = last_setup = time.perf_counter()
    for order in rounds(len(job_list), rnd, start, seconds):
        for i in order:
            code, out, closed, reaped, rss = runner.run(
                ["-m", "codiv", *job_list[i].cli_args(paths[i])])
            closed_s.append(closed)
            busy_s += reaped
            rss_kib = max(rss_kib, rss)
            outcomes.record(i, code, out, runner.stderr() if code else b"")
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                setups.append(runner.run(["-c", "import codiv.cli"])[3])
                last_setup = time.perf_counter()
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(closed_s) / busy_s,
        "job_p50_ms": 1000.0 * statistics.median(closed_s),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return outcomes, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def import_times(runner: Runner) -> dict:
    """Milliseconds from one `python -X importtime -c "import codiv.cli"`."""
    runner.run(["-X", "importtime", "-c", "import codiv.cli"])
    total = numpy = codiv_self = 0.0
    for line in runner.stderr().decode().splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "codiv.cli":
            total = int(cumulative_us) / 1000.0
        elif name == "numpy" and not numpy:
            numpy = int(cumulative_us) / 1000.0
        if name == "codiv" or name.startswith("codiv."):
            codiv_self += int(self_us) / 1000.0
    return {"import.total_ms": total, "import.numpy_ms": numpy, "import.codiv_self_ms": codiv_self}


def in_process(cli, job, path: str, timings: dict) -> tuple[int, bytes, str]:
    """One job through codiv.cli.run, reading its file as the CLI's main() does."""
    start = time.perf_counter()
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    timings["parse_s"] += time.perf_counter() - start
    try:
        text, code = cli.run(doc, fmt=job.fmt, seed=job.seed if job.seed is not None else 0)
    except Exception as exc:  # the CLI would print this traceback and exit 1
        return 1, b"", f"{type(exc).__name__}: {exc}"
    out = text.encode("utf-8")
    timings["report_bytes"] += len(out)
    return code, out, ""


def traced_run(runner: Runner, job_list, paths, seconds: float, seed: int, trace_path: str):
    imports = [import_times(runner) for _ in range(IMPORT_SAMPLES)]
    outcomes = Outcomes(job_list)
    rnd = random.Random(seed)
    start = time.perf_counter()
    cli_errors = {}  # last stderr line of a job that exited 1: the uncaught exception
    for i in range(len(job_list)):
        code, out, *_ = runner.run(["-m", "codiv", *job_list[i].cli_args(paths[i])])
        err = runner.stderr()
        outcomes.record(i, code, out, err)
        cli_errors[i] = (err.decode(errors="replace").strip().splitlines() or [""])[-1] \
            if code == 1 else ""

    sys.path.insert(0, SRC)
    import codiv.cli as cli

    tracer = Tracer()
    per_round = []
    for order in rounds(len(job_list), rnd, start, seconds):
        elapsed = {}
        for traced in ((False, True) if len(per_round) % 2 == 0 else (True, False)):
            timings = {"parse_s": 0.0, "report_bytes": 0}
            if traced:
                tracer.reset()
                tracer.install()
            began = time.perf_counter()
            try:
                for i in order:
                    code, out, error = in_process(cli, job_list[i], paths[i], timings)
                    outcomes.record(i, code, out, b"")  # compares with the CLI's stdout
                    if error != cli_errors[i]:
                        outcomes.wrong.append(f"{job_list[i].name}: in-process error {error!r} "
                                              f"differs from the CLI's {cli_errors[i]!r}")
            finally:
                elapsed[traced] = time.perf_counter() - began
                if traced:
                    tracer.uninstall()
        per_round.append(round_metrics(tracer, timings, elapsed))

    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics.update({name: statistics.median(s[name] for s in imports) for name in imports[0]})
    with open(trace_path, "w", encoding="utf-8") as fh:
        for r in per_round:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    return outcomes, {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}


def round_metrics(tracer: Tracer, timings: dict, elapsed: dict) -> dict:
    """Per-layer totals of one traced round of jobs."""
    out = {"cli.parse_ms": 1000.0 * timings["parse_s"],
           "serialize.report_bytes": timings["report_bytes"],
           INTEGRAND_POINTS: tracer.counts[INTEGRAND_POINTS],
           "trace.overhead_ms": 1000.0 * (elapsed[True] - elapsed[False])}
    for name, (unit, span) in PER_LAYER.items():
        if span is not None:
            out[name] = tracer.calls[span] if unit == "count" else 1000.0 * tracer.self_s[span]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "codiv", "cli.py")):
        print(f"no codiv sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    directory = os.path.join(WORK, args.workload)
    os.makedirs(directory, exist_ok=True)
    with Runner(os.path.join(directory, "stderr.txt")) as runner:
        job_list, paths = prepare(runner, args.workload, args.seed, directory)
        if args.trace:
            outcomes, metrics = traced_run(runner, job_list, paths, args.seconds, args.seed,
                                           os.path.join(WORK, f"trace-{args.workload}.jsonl"))
        else:
            outcomes, metrics = timed_loop(runner, job_list, paths, args.seconds, args.seed)
    for job in job_list:
        if job.fault:
            print(f"known fault, counted as failed: {job.name}: {job.fault}", file=sys.stderr)
    for line in outcomes.wrong:
        print(f"WRONG {line}", file=sys.stderr)
    result = {**outcomes.summary(), "metrics": metrics}
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
