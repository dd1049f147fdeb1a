"""Command-line front end.

A job is a JSON document {"command": ..., "inputs": [...], "options": {...}};
the tool validates it, runs the computation and prints a deterministic JSON
(or CSV) report.  Exit codes: 0 success, 2 validation error, 3 computational
error (code "internal" for an exception no documented error covers), 4 property
violation in a check command.  The families, local and oracles modules are imported by the
handlers that use them, so a job loads only what its command needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import matrices
from .codivergence import PhiFunction, chi2_codiv, hellinger_codiv, phi_alpha, r_phi, v_phi
from .errors import CodivError, DegeneratePhiError, OracleFailureError, check_alpha, is_number
from .matrices import (DivMatrix, MarkovKernel, divergence_matrix, dpi_check, kernel_problems,
                       rank_with_identity)
from .measures import (DiscreteMeasure, SignedMeasure, direction_problems, exact_sum,
                       mass_array_hook, measure_problems, support_problems)
from .serialize import dumps_canonical, matrix_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3
EXIT_PROPERTY = 4

COMMANDS = ("codiv", "matrix", "rank", "dpi", "expand", "oracle-check")

# Upper bounds of the count options, which keep a job's work bounded; a suite kernel of
# support x output_support floats stays within 32 MB, and a suite's total work
# trials x (count + 1) x support x output_support within _SUITE_WORK (about 5 s).
_COUNT_BOUNDS = {"trials": 1000, "support": 2000, "count": 200, "output_support": 2000,
                 "levels": 50, "grid_n": 20}
_SUITE_WORK = 2 * 10 ** 9
# The value of each option a job leaves out; output_support defaults to support.
_DEFAULTS = {"mode": "local", "count": 3, "support": 6, "levels": 5, "grid_n": 4,
             "grid_scale": 1e-3}
# Options whose values are counts or scales: name -> (test, what the value must be).
_OPTION_SCHEMA = {name: (lambda x: type(x) is int and x > 0, "a positive integer")
                  for name in _COUNT_BOUNDS}
_OPTION_SCHEMA["grid_scale"] = (lambda x: is_number(x) and 0 < x < math.inf,
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
            check_alpha(value, "/options/kind")
            return base, value
    raise CodivError(f"unknown kind {text!r}", "/options/kind")


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


def _with_defaults(options: dict) -> dict:
    """The job's options, with the default of each one it leaves out (defaults go unchecked)."""
    return {**_DEFAULTS, "output_support": options.get("support", _DEFAULTS["support"]), **options}


def validate(job: dict) -> tuple[list, list | None]:
    """Structural validation findings, and the inputs built from what was checked: the job's
    measures, directions or families in order, then the dpi kernel.  The inputs are None
    unless there are no findings, which means the job can run."""
    command = job.get("command")
    if command not in COMMANDS:
        return [{"path": "/command", "message": f"unknown command {command!r}"}], None
    inputs = job.get("inputs")
    given = job.get("options", {})
    if not isinstance(given, dict):
        return [{"path": "/options", "message": "options must be an object"}], None
    options = _with_defaults(given)
    randomized = command in ("dpi", "rank") and "trials" in options
    if not randomized and not (isinstance(inputs, list) and inputs):
        return [{"path": "/inputs", "message": "inputs must be a non-empty list"}], None
    if command in _INPUT_COUNTS and len(inputs) != 3:
        return [{"path": "/inputs", "message": _INPUT_COUNTS[command]}], None

    problems: list = []
    masses, directions, kernel = [], (), None
    families = command == "oracle-check" or (
        command == "codiv" and all(isinstance(x, dict) and "kind" in x for x in inputs))
    if families:
        from .families import family_problems, family_set_problems

        members, built_families = [], []
        for i, doc in enumerate(inputs):
            member, found, family = family_problems(doc, f"/inputs/{i}")
            members.append(member)
            built_families.append(family)
            problems += found
        problems += family_set_problems(members, "/inputs")
    elif command == "expand":
        directions = (1, 2)
        masses = _masses(inputs, problems, directions)
        if options["mode"] not in ("local", "off-support"):
            problems.append(CodivError(f"unknown mode {options['mode']!r}", "/options/mode"))
        problems += support_problems(masses)
        if not problems:
            for i in directions:
                problems += direction_problems(masses[i], masses[0],
                                               options["mode"] == "off-support", f"/inputs/{i}")
    elif not randomized:  # codiv, matrix, rank and dpi on explicit measures
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
    if command != "dpi" and (command != "expand" or options["mode"] == "local"):
        try:
            if parse_kind(options.get("kind"))[0] == "vphi" and families:
                raise CodivError("covariance-type closed forms are not available for "
                                 "parametric families; use alpha:<value>", "/options/kind")
        except CodivError as exc:
            problems.append(exc)
    for name, (test, what) in _OPTION_SCHEMA.items():
        if name in given and not test(given[name]):
            problems.append(CodivError(f"{name} must be {what}", f"/options/{name}"))
        elif given.get(name, 0) > _COUNT_BOUNDS.get(name, math.inf):
            problems.append(CodivError(f"{name} must be {what} at most {_COUNT_BOUNDS[name]}",
                                       f"/options/{name}"))
    if randomized and not problems:
        work = (options["trials"] * (options["count"] + 1) * options["support"]
                * options["output_support"])
        if work > _SUITE_WORK:
            problems.append(CodivError(f"trials x (count + 1) x support x output_support must "
                                       f"be at most {_SUITE_WORK}, got {work}", "/options"))
    if problems:
        return [{"path": p.path, "message": str(p)} for p in problems], None
    if families:
        return [], built_families
    built = [(SignedMeasure if i in directions else DiscreteMeasure)(mass)
             for i, mass in enumerate(masses)]
    return [], built if kernel is None else built + [MarkovKernel(kernel)]


def _kind_and_link(options) -> tuple[str, float, PhiFunction]:
    """The base kind and alpha of the kind option, and the power link of alpha."""
    base, alpha = parse_kind(options["kind"])
    return base, alpha, phi_alpha(alpha)


def _input_matrix(options, inputs) -> DivMatrix:
    """The divergence matrix of the job's measures around its first one."""
    base, _, phi = _kind_and_link(options)
    return divergence_matrix(inputs[0], inputs[1:], base, phi=phi, reference="inputs[0]")


def _run_codiv(options, inputs, tolerance, seed):
    base, alpha, phi = _kind_and_link(options)
    if isinstance(inputs[0], DiscreteMeasure):
        # the one cell, not the matrix: a diagonal cell beyond the float range is no error
        pair = {"chi2": chi2_codiv, "hellinger": hellinger_codiv, "vphi": v_phi,
                "rphi": r_phi}[base]
        value = pair(*inputs, phi) if base in ("vphi", "rphi") else pair(*inputs)
    else:
        from .families import r_alpha_closed

        value = r_alpha_closed(*inputs, alpha)
    return {"command": "codiv", "kind": options["kind"], "value": value}


def _run_matrix(options, inputs, tolerance, seed):
    return {"command": "matrix", "matrix": _input_matrix(options, inputs).to_json_dict()}


def _run_rank(options, inputs, tolerance, seed):
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
    report = rank_with_identity(inputs[0], inputs[1:], base, phi=phi, tol_factor=tol_factor)
    if report.status is matrices.DiagnosticStatus.NOT_APPLICABLE:
        return {"command": "rank", "kind": options["kind"], "status": "not-applicable"}
    return {"command": "rank", "kind": options["kind"], "status": "ok",
            "matrix_rank": report.matrix_rank, "function_rank": report.function_rank,
            "passed": report.matrix_rank == report.function_rank}


def _random_dominated_instance(rng, options):
    """A reference and ``count`` measures on ``support`` points, all of full support."""
    measures = []
    for _ in range(options["count"] + 1):
        mass = rng.random(options["support"]) + 0.05
        measures.append(DiscreteMeasure(mass / exact_sum(mass)))
    return measures[0], measures[1:]


def _run_dpi(options, inputs, tolerance, seed):
    floor = tolerance if tolerance is not None else 1e-9
    if "trials" in options:
        rng = np.random.default_rng(seed)
        trials = options["trials"]
        worst = math.inf
        for _ in range(trials):
            q0, qs = _random_dominated_instance(rng, options)
            rows = rng.random((options["support"], options["output_support"])) + 0.02
            kernel = MarkovKernel(rows / rows.sum(axis=1, keepdims=True))
            report = dpi_check(q0, qs, kernel)
            worst = min(worst, report.min_eig_of_difference / report.scale)
        return {"command": "dpi", "trials": trials, "seed": seed,
                "worst_scaled_min_eigenvalue": worst, "floor": -floor,
                "passed": worst >= -floor}
    *measures, kernel = inputs
    report = dpi_check(measures[0], measures[1:], kernel)
    return {"command": "dpi",
            "before": report.before.to_json_dict(), "after": report.after.to_json_dict(),
            "min_eigenvalue_of_difference": report.min_eig_of_difference,
            "scale": report.scale, "floor": -floor * report.scale,
            "passed": report.min_eig_of_difference >= -floor * report.scale}


def _run_expand(options, inputs, tolerance, seed):
    from .local import expansion_check, hellinger_off_support_check

    if options["mode"] == "off-support":
        rel_tol = tolerance if tolerance is not None else 0.05
        report = hellinger_off_support_check(*inputs, grid_scale=float(options["grid_scale"]),
                                             grid_n=options["grid_n"])
        return {"command": "expand", "mode": "off-support", "report": report.to_json_dict(),
                "passed": report.sqrt_rel_error <= rel_tol and report.bilinear_rel_error <= rel_tol}
    report = expansion_check(*inputs, _kind_and_link(options)[2], levels=options["levels"])
    return {"command": "expand", "mode": "local", "report": report.to_json_dict(),
            "passed": report.decay_ok()}


def _run_oracle_check(options, inputs, tolerance, seed):
    from .families import r_alpha_closed
    from .oracles import oracle_r_alpha

    rel_tol = tolerance if tolerance is not None else 1e-7
    _, alpha, _ = _kind_and_link(options)
    closed = r_alpha_closed(*inputs, alpha)
    numeric = oracle_r_alpha(*inputs, alpha)
    if math.isinf(closed) or math.isinf(numeric):
        rel_err = 0.0 if closed == numeric else math.inf
    else:
        rel_err = abs(closed - numeric) / max(1.0, abs(closed), abs(numeric))
    return {"command": "oracle-check", "kind": options["kind"], "closed_form": closed,
            "oracle": numeric, "relative_error": rel_err, "tolerance": rel_tol,
            "passed": rel_err <= rel_tol}


_HANDLERS = {"codiv": _run_codiv, "matrix": _run_matrix, "rank": _run_rank, "dpi": _run_dpi,
             "expand": _run_expand, "oracle-check": _run_oracle_check}


def _error(code: str, message: str, findings: list | None = None) -> str:
    error = {"code": code, "message": message}
    if findings:
        error["findings"] = findings
    return dumps_canonical({"error": error}) + "\n"


def run(job: dict, fmt: str = "json", tolerance: float | None = None,
        seed: int = 0) -> tuple[str, int]:
    """Validate and execute a job; returns (report text, exit status).  An exception that no
    documented error covers is exit 3 with code "internal", naming its type; its traceback
    goes to stderr."""
    try:
        return _run(job, fmt, tolerance, seed)
    except Exception as exc:  # the last resort: a job never ends in a traceback
        import traceback  # here, not at the top: only a defect reaches this line

        traceback.print_exc(file=sys.stderr)
        return _error("internal", f"internal error: {type(exc).__name__}: {exc}"), EXIT_COMPUTE


def _run(job: dict, fmt: str, tolerance: float | None, seed: int) -> tuple[str, int]:
    findings, inputs = validate(job)
    if findings:
        return _error("validation", "job validation failed", findings), EXIT_VALIDATION
    for wrong, message in ((fmt == "csv" and job["command"] != "matrix",
                            "csv format is only available for matrix reports"),
                           (tolerance is not None
                            and not (is_number(tolerance) and math.isfinite(tolerance)),
                            "tolerance must be a finite number"),
                           (not (type(seed) is int and seed >= 0),
                            "seed must be a nonnegative integer")):
        if wrong:
            return _error("validation", message), EXIT_VALIDATION
    options = _with_defaults(job.get("options", {}))
    try:
        if fmt == "csv":
            return matrix_to_csv(_input_matrix(options, inputs)), EXIT_OK
        doc = _HANDLERS[job["command"]](options, inputs, tolerance, seed)
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
            job = json.load(fh, object_hook=mass_array_hook)
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


def entry(argv=None):
    """The ``codiv`` command: run ``main``, flush the report, and end the process at once with
    its status.  ``os._exit`` skips interpreter teardown, so no ``atexit`` handler runs.  If a
    flush fails (a closed pipe, say), the process exits through ``sys.exit`` instead."""
    status = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
