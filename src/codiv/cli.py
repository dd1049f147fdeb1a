"""Command-line front end.

A job is a JSON document {"command": ..., "inputs": [...], "options": {...}};
the tool validates it, runs the computation and prints a deterministic JSON
(or CSV) report.  Exit codes: 0 success, 2 validation error, 3 computational
error, 4 property violation in a check command.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import matrices
from .codivergence import PhiFunction, phi_alpha
from .errors import CodivError, DegeneratePhiError, OracleFailureError
from .families import (family_from_json_dict, family_problems, family_set_problems,
                       r_alpha_closed)
from .local import expansion_check, hellinger_off_support_check
from .matrices import (DivMatrix, MarkovKernel, divergence_matrix, dpi_check, kernel_problems,
                       rank_with_identity)
from .measures import DiscreteMeasure, SignedMeasure, measure_problems, support_problems
from .oracles import OracleConfig, oracle_r_alpha
from .serialize import dumps_canonical, matrix_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3
EXIT_PROPERTY = 4

COMMANDS = ("codiv", "matrix", "rank", "dpi", "expand", "oracle-check")

# Options whose values are counts or scales: name -> (test, what the value must be).
_OPTION_SCHEMA = {
    name: (lambda x: type(x) is int and x > 0, "a positive integer")
    for name in ("trials", "support", "count", "output_support", "levels", "grid_n")
}
_OPTION_SCHEMA["grid_scale"] = (lambda x: type(x) in (int, float) and 0 < x < math.inf,
                                "a positive finite number")

_INPUT_COUNTS = {"codiv": "codiv needs exactly 3 inputs",
                 "expand": "expand needs [reference, direction, direction]",
                 "oracle-check": "oracle-check needs exactly 3 families"}


def parse_kind(text: str) -> tuple[str, float | None]:
    """Split a kind/phi option into (base kind, alpha)."""
    if not isinstance(text, str):
        raise CodivError("kind option is required", "/options/kind")
    if text == "chi2":
        return "chi2", 1.0
    if text == "hellinger":
        return "hellinger", 0.5
    for prefix, base in (("alpha:", "rphi"), ("valpha:", "vphi")):
        if text.startswith(prefix):
            try:
                value = float(text[len(prefix):])
            except ValueError:
                raise CodivError(f"malformed alpha in kind {text!r}", "/options/kind")
            if not value > 0:
                raise CodivError("alpha must be positive", "/options/kind")
            if value == math.inf:
                raise CodivError("alpha must be finite", "/options/kind")
            return base, value
    raise CodivError(f"unknown kind {text!r}", "/options/kind")


def _kind_option(options: dict, problems: list) -> None:
    try:
        parse_kind(options.get("kind"))
    except CodivError as exc:
        problems.append(exc)


def _masses(inputs, problems: list, directions=()) -> list:
    """Check each input as a probability measure, or as a direction at the indices in
    ``directions``; returns their mass arrays."""
    masses = []
    for i, doc in enumerate(inputs):
        mass, found = measure_problems(doc, signed=i in directions, normalized=True,
                                       path=f"/inputs/{i}")
        masses.append(mass)
        problems += found
    return masses


def validate(job: dict) -> list:
    """Structural validation findings; an empty list means the job can run."""
    command = job.get("command")
    if command not in COMMANDS:
        return [{"path": "/command", "message": f"unknown command {command!r}"}]
    inputs = job.get("inputs")
    options = job.get("options", {})
    if not isinstance(options, dict):
        return [{"path": "/options", "message": "options must be an object"}]
    randomized = command in ("dpi", "rank") and "trials" in options
    if not randomized and not (isinstance(inputs, list) and inputs):
        return [{"path": "/inputs", "message": "inputs must be a non-empty list"}]
    if command in _INPUT_COUNTS and len(inputs) != 3:
        return [{"path": "/inputs", "message": _INPUT_COUNTS[command]}]

    problems: list = []
    if command == "oracle-check" or (
            command == "codiv" and all(isinstance(x, dict) and "kind" in x for x in inputs)):
        members = []
        for i, doc in enumerate(inputs):
            member, found = family_problems(doc, f"/inputs/{i}")
            members.append(member)
            problems += found
        _kind_option(options, problems)
        problems += family_set_problems(members, "/inputs")
        if command == "codiv" and str(options.get("kind")).startswith("valpha:"):
            problems.append(CodivError("covariance-type closed forms are not available for "
                                       "parametric families; use alpha:<value>", "/options/kind"))
    elif command == "codiv":
        masses = _masses(inputs, problems)
        _kind_option(options, problems)
        problems += support_problems(masses)
    elif command == "expand":
        mode = options.get("mode", "local")
        masses = _masses(inputs, problems, directions=(1, 2))
        if mode not in ("local", "off-support"):
            problems.append(CodivError(f"unknown mode {mode!r}", "/options/mode"))
        problems += support_problems(masses)
        if not problems:
            off = mode == "off-support"
            message = ("direction must be nonnegative outside the reference support" if off
                       else "direction puts mass on a reference null point")
            for i in (1, 2):
                bad = np.flatnonzero((masses[0] == 0) & (masses[i] < 0 if off else masses[i] != 0))
                if bad.size:
                    problems.append(CodivError(message, f"/inputs/{i}/mass/{bad[0]}"))
        if mode == "local":
            _kind_option(options, problems)
    elif not randomized:  # matrix, rank and dpi on explicit measures
        masses = _masses(inputs, problems)
        if len(inputs) < 2:
            problems.append(CodivError("need the reference measure plus at least one measure",
                                       "/inputs"))
        if command != "dpi":
            problems += support_problems(masses)
        elif "kernel" not in options:
            problems.append(CodivError("dpi needs a kernel", "/options/kernel"))
        else:
            kernel, found = kernel_problems(options["kernel"], "/options/kernel")
            problems += found + support_problems(masses, None if kernel is None else len(kernel))
    if command in ("matrix", "rank"):
        _kind_option(options, problems)
    for name, (test, what) in _OPTION_SCHEMA.items():
        if name in options and not test(options[name]):
            problems.append(CodivError(f"{name} must be {what}", f"/options/{name}"))
    return [{"path": p.path, "message": str(p)} for p in problems]


def _load_measures(inputs) -> list[DiscreteMeasure]:
    return [DiscreteMeasure.from_json_dict(doc) for doc in inputs]


def _finite_or_inf(x: float):
    return "inf" if math.isinf(x) else x


def _kind_and_link(options) -> tuple[str, float, PhiFunction | None]:
    """The base kind and alpha of the kind option, and the link phi of vphi and rphi."""
    base, alpha = parse_kind(options["kind"])
    return base, alpha, phi_alpha(alpha) if base in ("vphi", "rphi") else None


def _input_matrix(job) -> DivMatrix:
    """The divergence matrix of the job's measures around its first one."""
    measures = _load_measures(job["inputs"])
    base, _, phi = _kind_and_link(job.get("options", {}))
    return divergence_matrix(measures[0], measures[1:], base, phi=phi, reference="inputs[0]")


def _run_codiv(job, tolerance, seed):
    inputs = job["inputs"]
    kind = job.get("options", {})["kind"]
    if all("kind" in doc for doc in inputs):
        f0, f1, f2 = (family_from_json_dict(doc) for doc in inputs)
        value = r_alpha_closed(f0, f1, f2, parse_kind(kind)[1])
    else:
        value = float(_input_matrix(job).entries[0, 1])
    return {"command": "codiv", "kind": kind, "value": _finite_or_inf(value)}


def _run_matrix(job, tolerance, seed):
    return {"command": "matrix", "matrix": _input_matrix(job).to_json_dict()}


def _run_rank(job, tolerance, seed):
    options = job.get("options", {})
    base, _, phi = _kind_and_link(options)
    tol_factor = tolerance if tolerance is not None else matrices.RANK_TOL_FACTOR
    if "trials" in options:
        rng = np.random.default_rng(seed)
        trials = options["trials"]
        agree = 0
        for _ in range(trials):
            p0, ps = _random_dominated_instance(rng, options)
            report = rank_with_identity(p0, ps, base, phi=phi, tol_factor=tol_factor)
            if report.matrix_rank == report.function_rank:
                agree += 1
        return {"command": "rank", "kind": options["kind"], "trials": trials,
                "seed": seed, "agreements": agree, "passed": agree == trials}
    measures = _load_measures(job["inputs"])
    report = rank_with_identity(measures[0], measures[1:], base, phi=phi, tol_factor=tol_factor)
    if report.status is matrices.DiagnosticStatus.NOT_APPLICABLE:
        return {"command": "rank", "kind": options["kind"], "status": "not-applicable"}
    return {"command": "rank", "kind": options["kind"], "status": "ok",
            "matrix_rank": report.matrix_rank, "function_rank": report.function_rank,
            "passed": report.matrix_rank == report.function_rank}


def _random_dominated_instance(rng, options):
    """A reference and ``count`` measures on ``support`` points, all of full support."""
    measures = []
    for _ in range(options.get("count", 3) + 1):
        mass = rng.random(options.get("support", 6)) + 0.05
        measures.append(DiscreteMeasure(mass / math.fsum(mass)))
    return measures[0], measures[1:]


def _run_dpi(job, tolerance, seed):
    floor = tolerance if tolerance is not None else 1e-9
    options = job.get("options", {})
    if "trials" in options:
        rng = np.random.default_rng(seed)
        trials = options["trials"]
        worst = math.inf
        for _ in range(trials):
            q0, qs = _random_dominated_instance(rng, options)
            n = q0.support_size
            rows = rng.random((n, options.get("output_support", n))) + 0.02
            kernel = MarkovKernel(rows / rows.sum(axis=1, keepdims=True))
            report = dpi_check(q0, qs, kernel)
            worst = min(worst, report.min_eig_of_difference / report.scale)
        return {"command": "dpi", "trials": trials, "seed": seed,
                "worst_scaled_min_eigenvalue": worst, "floor": -floor,
                "passed": worst >= -floor}
    measures = _load_measures(job["inputs"])
    kernel = MarkovKernel.from_json_dict(options["kernel"])
    report = dpi_check(measures[0], measures[1:], kernel)
    return {"command": "dpi",
            "before": report.before.to_json_dict(), "after": report.after.to_json_dict(),
            "min_eigenvalue_of_difference": report.min_eig_of_difference,
            "scale": report.scale, "floor": -floor * report.scale,
            "passed": report.min_eig_of_difference >= -floor * report.scale}


def _run_expand(job, tolerance, seed):
    options = job.get("options", {})
    mode = options.get("mode", "local")
    p0 = DiscreteMeasure.from_json_dict(job["inputs"][0])
    mu = SignedMeasure.from_json_dict(job["inputs"][1])
    mu_tilde = SignedMeasure.from_json_dict(job["inputs"][2])
    if mode == "off-support":
        rel_tol = tolerance if tolerance is not None else 0.05
        report = hellinger_off_support_check(p0, mu, mu_tilde,
                                             grid_scale=float(options.get("grid_scale", 1e-3)),
                                             grid_n=options.get("grid_n", 4))
        return {"command": "expand", "mode": mode, "report": report.to_json_dict(),
                "passed": report.sqrt_rel_error <= rel_tol and report.bilinear_rel_error <= rel_tol}
    _, alpha = parse_kind(options["kind"])
    report = expansion_check(p0, mu, mu_tilde, phi_alpha(alpha), levels=options.get("levels", 5))
    return {"command": "expand", "mode": "local", "report": report.to_json_dict(),
            "passed": report.decay_ok()}


def _run_oracle_check(job, tolerance, seed):
    rel_tol = tolerance if tolerance is not None else 1e-7
    options = job.get("options", {})
    _, alpha = parse_kind(options["kind"])
    f0, f1, f2 = (family_from_json_dict(doc) for doc in job["inputs"])
    closed = r_alpha_closed(f0, f1, f2, alpha)
    numeric = oracle_r_alpha(f0, f1, f2, alpha, OracleConfig())
    if math.isinf(closed) or math.isinf(numeric):
        rel_err = 0.0 if closed == numeric else math.inf
    else:
        rel_err = abs(closed - numeric) / max(1.0, abs(closed), abs(numeric))
    return {"command": "oracle-check", "kind": options["kind"],
            "closed_form": _finite_or_inf(closed), "oracle": _finite_or_inf(numeric),
            "relative_error": _finite_or_inf(rel_err), "tolerance": rel_tol,
            "passed": rel_err <= rel_tol}


_HANDLERS = {
    "codiv": _run_codiv,
    "matrix": _run_matrix,
    "rank": _run_rank,
    "dpi": _run_dpi,
    "expand": _run_expand,
    "oracle-check": _run_oracle_check,
}


def _error(code: str, message: str, findings: list | None = None) -> str:
    error = {"code": code, "message": message}
    if findings:
        error["findings"] = findings
    return dumps_canonical({"error": error}) + "\n"


def run(job: dict, fmt: str = "json", tolerance: float | None = None,
        seed: int = 0) -> tuple[str, int]:
    """Validate and execute a job; returns (report text, exit status)."""
    findings = validate(job)
    if findings:
        return _error("validation", "job validation failed", findings), EXIT_VALIDATION
    if fmt == "csv" and job["command"] != "matrix":
        return _error("validation", "csv format is only available for matrix reports"), \
            EXIT_VALIDATION
    try:
        if fmt == "csv":
            return matrix_to_csv(_input_matrix(job)), EXIT_OK
        doc = _HANDLERS[job["command"]](job, tolerance, seed)
    except (DegeneratePhiError, OracleFailureError, OverflowError) as exc:
        return _error("computation", str(exc)), EXIT_COMPUTE
    except CodivError as exc:
        return _error("validation", str(exc)), EXIT_VALIDATION
    status = EXIT_OK if doc.get("passed", True) else EXIT_PROPERTY
    return dumps_canonical(doc) + "\n", status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="codiv",
                                     description="codivergence and divergence-matrix toolkit")
    parser.add_argument("--input", required=True, help="job specification JSON file")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override or supply the job's command")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="check tolerance (meaning depends on the command)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized check suites")
    args = parser.parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(_error("validation", f"cannot read job: {exc}"))
        return EXIT_VALIDATION
    if not isinstance(job, dict):
        sys.stdout.write(_error("validation", "job must be a JSON object"))
        return EXIT_VALIDATION
    if args.command:
        job = dict(job)
        job["command"] = args.command
    text, status = run(job, fmt=args.fmt, tolerance=args.tolerance, seed=args.seed)
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
