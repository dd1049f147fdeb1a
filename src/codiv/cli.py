"""Command-line front end.

A job is a JSON document {"command": ..., "inputs": [...], "options": {...}}; the tool validates
it, runs the computation and prints a deterministic JSON (or CSV) report.  Exit codes: 0 success,
2 validation error, 3 computational error (code "internal" for an exception no documented error
covers), 4 property violation in a check command.  A job loads only what its command needs: numpy,
and each module but errors and serialize, loads where the job first computes with it.  One table,
``_COMMANDS``, gives each command its handler, its 3-input finding and its input shapes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (CodivError, DegeneratePhiError, OracleFailureError, _from_checked,
                     check_alpha, is_number, numbers)
from .serialize import dumps_canonical, matrix_to_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3
EXIT_PROPERTY = 4

# Upper bounds of the count options, which keep a job's work bounded; a suite kernel of
# support x output_support floats stays within 32 MB.  A suite's work, the push-forward, Gram
# matrices and eigenvalues of count + 1 measures, stays within _SUITE_WORK, and the doubles
# of its kernels, at about 15 ns each to draw, within _KERNEL_DRAW (see validate).
_COUNT_BOUNDS = {"trials": 1000, "support": 2000, "count": 200, "output_support": 2000,
                 "levels": 50, "grid_n": 20}
_SUITE_WORK = 2 * 10 ** 9
_KERNEL_DRAW = 5 * 10 ** 8
# The value of each option a job leaves out; output_support defaults to support.
_DEFAULTS = {"mode": "local", "count": 3, "support": 6, "levels": 5, "grid_n": 4,
             "grid_scale": 1e-3}
# Options whose values are counts or scales: name -> (test, what the value must be).
_OPTION_SCHEMA = {name: (lambda x: type(x) is int and x > 0, "a positive integer")
                  for name in _COUNT_BOUNDS}
_OPTION_SCHEMA["grid_scale"] = (lambda x: is_number(x) and 0 < x < math.inf,
                                "a positive finite number")


def parse_kind(text: str) -> tuple[str, float | None]:
    """Split a kind/phi option into (base kind, alpha)."""
    if not isinstance(text, str):
        raise CodivError("kind option is required", "/options/kind")
    if text in ("chi2", "hellinger"):
        return text, 1.0 if text == "chi2" else 0.5
    for prefix, base in (("alpha:", "rphi"), ("valpha:", "vphi")):
        if text.startswith(prefix):
            try:
                value = float(text[len(prefix):])
            except ValueError:
                raise CodivError(f"malformed alpha in kind {text!r}", "/options/kind")
            check_alpha(value, "/options/kind")
            return base, value
    raise CodivError(f"unknown kind {text!r}", "/options/kind")


def _with_defaults(options: dict) -> dict:
    """The job's options, with the default of each one it leaves out (defaults go unchecked)."""
    return {**_DEFAULTS, "output_support": options.get("support", _DEFAULTS["support"]), **options}


def validate(job: dict) -> tuple[list, list | None]:
    """Structural validation findings, and the inputs built from the values their checkers
    returned (None if there are findings): the job's measures, directions or families in order,
    then the dpi kernel.  The shape is picked once from its command's ``_COMMANDS`` shapes: a
    suite if the options hold trials, families if every input has a "kind", else the last."""
    command = job.get("command")
    if not (isinstance(command, str) and command in _COMMANDS):  # a list is unhashable
        return [{"path": "/command", "message": f"unknown command {command!r}"}], None
    _, count, takes = _COMMANDS[command]
    inputs = job.get("inputs")
    given = job.get("options", {})
    if not isinstance(given, dict):
        return [{"path": "/options", "message": "options must be an object"}], None
    options = _with_defaults(given)
    suite = "suite" in takes and "trials" in options
    if not suite and not (isinstance(inputs, list) and inputs):
        return [{"path": "/inputs", "message": "inputs must be a non-empty list"}], None
    if count and len(inputs) != 3:
        return [{"path": "/inputs", "message": count}], None
    shape = "suite" if suite else "families" if "families" in takes and all(
        isinstance(x, dict) and "kind" in x for x in inputs) else takes[-1]

    problems: list = []
    masses, totals, directions, kernel, built = (), (), (), None, []
    if shape == "families":
        from .families import family_problems, family_set_problems
        members, found, built = zip(*(family_problems(doc, f"/inputs/{i}")
                                      for i, doc in enumerate(inputs)))
        problems += [p for ps in found for p in ps] + family_set_problems(members, "/inputs")
    elif shape != "suite":  # measures; the second and third inputs of "directions" are directions
        from .matrices import MarkovKernel, kernel_problems
        from .measures import (DiscreteMeasure, SignedMeasure, direction_problems,
                               measure_problems, support_problems)
        directions = (1, 2) if shape == "directions" else ()
        masses, found, totals = zip(*(measure_problems(doc, signed=i in directions,
                                                       normalized=True, path=f"/inputs/{i}")
                                      for i, doc in enumerate(inputs)))
        problems += [p for ps in found for p in ps]
        if len(inputs) < 2:
            problems.append(CodivError("need the reference measure plus at least one measure",
                                       "/inputs"))
    if shape == "directions":
        if options["mode"] not in ("local", "off-support"):
            problems.append(CodivError(f"unknown mode {options['mode']!r}", "/options/mode"))
        problems += support_problems(masses)
        if not problems:
            for i in directions:
                problems += direction_problems(masses[i], masses[0],
                                               options["mode"] == "off-support", f"/inputs/{i}")
    elif shape == "measures":
        problems += support_problems(masses)
    elif shape == "kernel" and "kernel" not in options:
        problems.append(CodivError("dpi needs a kernel", "/options/kernel"))
    elif shape == "kernel":
        kernel, found = kernel_problems(options["kernel"], "/options/kernel")
        problems += found + support_problems(masses, None if kernel is None else len(kernel))
    if "kernel" not in takes and (shape != "directions" or options["mode"] == "local"):
        try:
            if parse_kind(options.get("kind"))[0] == "vphi" and shape == "families":
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
    if shape == "suite" and not problems:  # a suite of the command that takes a kernel draws one
        n, cols = options["count"] + 1, options["output_support"] if "kernel" in takes else 0
        work = options["trials"] * n * (options["support"] + n) * (cols + n)
        draw = options["trials"] * options["support"] * cols
        if work > _SUITE_WORK:
            problems.append(CodivError(f"trials x (count + 1) x (support + count + 1) x (cols + "
                                       f"count + 1) must be at most {_SUITE_WORK}, got {work} "
                                       f"with cols = {cols}", "/options"))
        elif draw > _KERNEL_DRAW:
            problems.append(CodivError(f"trials x support x output_support must be at most "
                                       f"{_KERNEL_DRAW}, got {draw}", "/options"))
    if problems:
        return [{"path": p.path, "message": str(p)} for p in problems], None
    if shape in ("families", "suite"):  # a seeded suite draws its inputs when it runs
        return [], list(built)
    built = [_from_checked(SignedMeasure if i in directions else DiscreteMeasure, mass=mass,
                           total=total) for i, (mass, total) in enumerate(zip(masses, totals))]
    return [], built if kernel is None else built + [_from_checked(MarkovKernel, matrix=kernel)]


def _kind_and_link(options) -> tuple:
    """The base kind and alpha of the kind option, and the power link of alpha."""
    from .codivergence import phi_alpha
    base, alpha = parse_kind(options["kind"])
    return base, alpha, phi_alpha(alpha)


def _input_matrix(options, inputs):
    """The divergence matrix of the job's measures around its first one."""
    from .matrices import divergence_matrix
    base, _, phi = _kind_and_link(options)
    return divergence_matrix(inputs[0], inputs[1:], base, phi=phi, reference="inputs[0]")


def _run_codiv(options, inputs, tolerance, seed):
    if hasattr(inputs[0], "kind"):  # families: only alpha, and no link
        from .families import r_alpha_closed
        value = r_alpha_closed(*inputs, parse_kind(options["kind"])[1])
    else:  # the one cell, not the matrix: a diagonal cell beyond the float range is no error
        from .codivergence import chi2_codiv, hellinger_codiv, r_phi, v_phi
        base, _, phi = _kind_and_link(options)
        pair = {"chi2": chi2_codiv, "hellinger": hellinger_codiv, "vphi": v_phi,
                "rphi": r_phi}[base]
        value = pair(*inputs, phi) if base in ("vphi", "rphi") else pair(*inputs)
    return {"kind": options["kind"], "value": value}


def _run_matrix(options, inputs, tolerance, seed):
    return {"matrix": _input_matrix(options, inputs).to_json_dict()}


def _run_rank(options, inputs, tolerance, seed):
    from .matrices import RANK_TOL_FACTOR, DiagnosticStatus, rank_with_identity
    base, _, phi = _kind_and_link(options)
    tol_factor = tolerance if tolerance is not None else RANK_TOL_FACTOR
    if "trials" in options:
        reports = (rank_with_identity(p0, ps, base, phi=phi, tol_factor=tol_factor)
                   for p0, ps, _ in _suite_trials(seed, options))
        agree = sum(report.matrix_rank == report.function_rank for report in reports)
        return {"kind": options["kind"], "trials": options["trials"], "seed": seed,
                "agreements": agree, "passed": agree == options["trials"]}
    report = rank_with_identity(inputs[0], inputs[1:], base, phi=phi, tol_factor=tol_factor)
    if report.status is DiagnosticStatus.NOT_APPLICABLE:
        return {"kind": options["kind"], "status": "not-applicable"}
    return {"kind": options["kind"], "status": "ok", "matrix_rank": report.matrix_rank,
            "function_rank": report.function_rank,
            "passed": report.matrix_rank == report.function_rank}


def _splitmix64(seed: int, start: int, n: int):
    """Outputs start + 1 to start + n of SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) keyed
    by seed mod 2**64, in counter mode: output k mixes key + k * 0x9E3779B97F4A7C15."""
    import numpy as np
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z += seed % 2 ** 64
    for block in np.split(z, range(1 << 16, n, 1 << 16)):  # mixed in place, in cache
        for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1)):
            block ^= block >> shift
            block *= factor
    return z


def _suite_trials(seed: int, options, cols: int = 0):
    """Each seeded-suite trial, from its doubles (output >> 11) * 2**-53 of ``_splitmix64``: a
    reference and ``count`` measures on ``support`` points, then a support x ``cols`` kernel."""
    from .matrices import MarkovKernel
    from .measures import DiscreteMeasure, exact_sum
    n, size = options["support"], (options["count"] + 1 + cols) * options["support"]
    for start in range(0, options["trials"] * size, size):
        u = (_splitmix64(seed, start, size) >> 11) * 2.0 ** -53
        p0, *ps = (DiscreteMeasure(mass / exact_sum(mass))
                   for mass in u[:size - cols * n].reshape(-1, n) + 0.05)
        rows = u[size - cols * n:].reshape(n, cols) + 0.02
        rows /= rows.sum(axis=1, keepdims=True)  # sums within 2.3e-13 of 1: no row check
        rows.flags.writeable = False
        yield p0, ps, _from_checked(MarkovKernel, matrix=rows)


def _run_dpi(options, inputs, tolerance, seed):
    from .matrices import dpi_check
    floor = tolerance if tolerance is not None else 1e-9
    if "trials" in options:
        reports = (dpi_check(*t) for t in _suite_trials(seed, options, options["output_support"]))
        worst = min(report.min_eig_of_difference / report.scale for report in reports)
        return {"trials": options["trials"], "seed": seed, "worst_scaled_min_eigenvalue": worst,
                "floor": -floor, "passed": worst >= -floor}
    *measures, kernel = inputs
    report = dpi_check(measures[0], measures[1:], kernel)
    return {"before": report.before.to_json_dict(), "after": report.after.to_json_dict(),
            "min_eigenvalue_of_difference": report.min_eig_of_difference,
            "scale": report.scale, "floor": -floor * report.scale,
            "passed": report.min_eig_of_difference >= -floor * report.scale}


def _run_expand(options, inputs, tolerance, seed):
    from .local import expansion_check, hellinger_off_support_check
    if options["mode"] == "off-support":
        rel_tol = tolerance if tolerance is not None else 0.05
        report = hellinger_off_support_check(*inputs, grid_scale=float(options["grid_scale"]),
                                             grid_n=options["grid_n"])
        return {"mode": "off-support", "report": report.to_json_dict(),
                "passed": report.sqrt_rel_error <= rel_tol and report.bilinear_rel_error <= rel_tol}
    report = expansion_check(*inputs, _kind_and_link(options)[2], levels=options["levels"])
    return {"mode": "local", "report": report.to_json_dict(), "passed": report.decay_ok()}


def _run_oracle_check(options, inputs, tolerance, seed):
    from .families import r_alpha_closed
    from .oracles import oracle_r_alpha
    rel_tol = tolerance if tolerance is not None else 1e-7
    alpha = parse_kind(options["kind"])[1]
    closed = r_alpha_closed(*inputs, alpha)
    numeric = oracle_r_alpha(*inputs, alpha)
    if math.isinf(closed) or math.isinf(numeric):
        rel_err = 0.0 if closed == numeric else math.inf
    else:
        rel_err = abs(closed - numeric) / max(1.0, abs(closed), abs(numeric))
    return {"kind": options["kind"], "closed_form": closed, "oracle": numeric,
            "relative_error": rel_err, "tolerance": rel_tol, "passed": rel_err <= rel_tol}


# Each command, in the README's order.  A shape is "families", "measures", "kernel" (measures and
# the kernel option), "directions" or "suite"; dpi, which takes a kernel, reads no kind.
_COMMANDS = {
    "codiv": (_run_codiv, "codiv needs exactly 3 inputs", ("families", "measures")),
    "matrix": (_run_matrix, None, ("measures",)),
    "rank": (_run_rank, None, ("suite", "measures")),
    "dpi": (_run_dpi, None, ("suite", "kernel")),
    "expand": (_run_expand, "expand needs [reference, direction, direction]", ("directions",)),
    "oracle-check": (_run_oracle_check, "oracle-check needs exactly 3 families", ("families",))}


def _error(code: str, message: str, findings: list | None = None) -> str:
    error = {"code": code, "message": message}
    if findings:
        error["findings"] = findings
    return dumps_canonical({"error": error}) + "\n"


def run(job: dict, fmt: str = "json", tolerance: float | None = None,
        seed: int = 0) -> tuple[str, int]:
    """Validate and execute a job; returns (report text, exit status).  A job that is not a
    dict, or a format other than "json" or "csv", is exit 2.  An exception that no documented
    error covers is exit 3 with code "internal", naming its type; its traceback to stderr."""
    try:
        return _run(job, fmt, tolerance, seed)
    except Exception as exc:  # the last resort: a job never ends in a traceback
        import traceback  # here, not at the top: only a defect reaches this line
        traceback.print_exc(file=sys.stderr)
        return _error("internal", f"internal error: {type(exc).__name__}: {exc}"), EXIT_COMPUTE


def _run(job: dict, fmt: str, tolerance: float | None, seed: int) -> tuple[str, int]:
    if not isinstance(job, dict):
        return _error("validation", "job must be a JSON object"), EXIT_VALIDATION
    findings, inputs = validate(job)
    if findings:
        return _error("validation", "job validation failed", findings), EXIT_VALIDATION
    for wrong, message in ((fmt not in ("json", "csv"), "format must be json or csv"),
                           (fmt == "csv" and job["command"] != "matrix",
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
        handler = _COMMANDS[job["command"]][0]
        doc = {"command": job["command"], **handler(options, inputs, tolerance, seed)}
    except (DegeneratePhiError, OracleFailureError, OverflowError) as exc:
        return _error("computation", str(exc)), EXIT_COMPUTE
    except CodivError as exc:
        return _error("validation", str(exc)), EXIT_VALIDATION
    status = EXIT_OK if doc.get("passed", True) else EXIT_PROPERTY
    return dumps_canonical(doc) + "\n", status


def mass_array_hook(obj: dict) -> dict:
    """``main``'s ``json.load`` object hook: a non-empty "mass" list becomes the float array
    that ``measure_problems`` builds from it, so a job holds each mass once (numpy loads here)."""
    values = numbers(obj.get("mass"))
    if values is not None:
        import numpy as np
        obj["mass"] = np.array(values, dtype=float)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="codiv",
                                     description="codivergence and divergence-matrix toolkit")
    parser.add_argument("--input", required=True, help="job specification JSON file")
    parser.add_argument("--command", choices=_COMMANDS, help="override or supply the job's command")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="check tolerance (meaning depends on the command)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized check suites")
    args = parser.parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh, object_hook=mass_array_hook)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8, JSON or int
        sys.stdout.write(_error("validation", f"cannot read job: {exc}"))
        return EXIT_VALIDATION
    if args.command and isinstance(job, dict):  # run reports a job that is not an object
        job = {**job, "command": args.command}
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
