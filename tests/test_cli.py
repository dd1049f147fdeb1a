import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codiv import cli, families, matrices, measures
from codiv.cli import (EXIT_COMPUTE, EXIT_OK, EXIT_PROPERTY, EXIT_VALIDATION, main,
                       mass_array_hook, parse_kind, run, validate)
from codiv.errors import CodivError, DegeneratePhiError
from codiv.families import FAMILIES, BernoulliProd
from codiv.local import PerturbationPair, fisher_gram, hellinger_off_support_check
from codiv.matrices import MarkovKernel, kernel_problems
from codiv.measures import (DiscreteMeasure, SignedMeasure, ess_sup_ratio, exact_sum,
                            measure_problems)
from golden.regen import load_cases, run_case
from helpers import random_dominated, random_probability

UNIFORM = {"support": 2, "mass": [0.5, 0.5]}
TILTED = {"support": 2, "mass": [0.25, 0.75]}
RANK_JOB = {"command": "rank", "inputs": [UNIFORM, TILTED], "options": {"kind": "chi2"}}


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


def run_main(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


class TestValidate:
    def test_negative_mass_path(self):
        job = {"command": "matrix",
               "inputs": [UNIFORM, {"support": 3, "mass": [0.6, 0.5, -0.1]}],
               "options": {"kind": "chi2"}}
        findings, _ = validate(job)
        assert any(f["path"] == "/inputs/1/mass/2" for f in findings)

    def test_bernoulli_open_interval(self):
        fam = {"kind": "bernoulli_product", "params": {"theta": [1.0]}}
        job = {"command": "oracle-check", "inputs": [fam, fam, fam],
               "options": {"kind": "chi2"}}
        findings, _ = validate(job)
        assert any(f["path"] == "/inputs/0/params/theta/0"
                   and "open-interval" in f["message"] for f in findings)

    def test_kernel_row_sum(self):
        job = {"command": "dpi", "inputs": [UNIFORM, TILTED],
               "options": {"kernel": {"matrix": [[0.4, 0.5], [0.5, 0.5]]}}}
        findings, _ = validate(job)
        assert any(f["path"] == "/options/kernel/matrix/0"
                   and "row-stochastic" in f["message"] for f in findings)

    def test_unknown_command(self):
        # the command is looked up in a dict, which would raise on an unhashable list or dict
        for command in ("solve", [], {}, None, 5):
            assert validate({"command": command}) == (
                [{"path": "/command", "message": f"unknown command {command!r}"}], None)

    def test_probability_enforced(self):
        job = {"command": "matrix", "inputs": [UNIFORM, {"support": 2, "mass": [0.5, 0.4]}],
               "options": {"kind": "chi2"}}
        assert any("sum to 1" in f["message"] for f in validate(job)[0])

    @pytest.mark.parametrize("command", ["codiv", "oracle-check"])
    def test_covariance_type_rejected_for_families(self, command):
        fam = {"kind": "poisson_product", "params": {"lambda": [1.0]}}
        job = {"command": command, "inputs": [fam, fam, fam],
               "options": {"kind": "valpha:0.5"}}
        assert any(f["path"] == "/options/kind" for f in validate(job)[0])

    def test_support_mismatch_detected(self):
        job = {"command": "matrix",
               "inputs": [UNIFORM, {"support": 3, "mass": [0.2, 0.3, 0.5]}],
               "options": {"kind": "chi2"}}
        assert any("support sizes differ" in f["message"] for f in validate(job)[0])

    def test_family_dimension_mismatch_detected(self):
        f1 = {"kind": "poisson_product", "params": {"lambda": [1.0]}}
        f2 = {"kind": "poisson_product", "params": {"lambda": [1.0, 2.0]}}
        job = {"command": "codiv", "inputs": [f1, f1, f2], "options": {"kind": "chi2"}}
        assert any("dimensions differ" in f["message"] for f in validate(job)[0])

    def test_expand_direction_on_null_point_detected(self):
        job = {"command": "expand",
               "inputs": [{"support": 3, "mass": [0.5, 0.5, 0.0]},
                          {"support": 3, "mass": [0.1, -0.2, 0.1]},
                          {"support": 3, "mass": [0.1, -0.1, 0.0]}],
               "options": {"kind": "chi2", "mode": "local"}}
        findings, _ = validate(job)
        assert any(f["path"] == "/inputs/1/mass/2" for f in findings)

    def test_kernel_size_mismatch_detected(self):
        job = {"command": "dpi", "inputs": [UNIFORM, TILTED],
               "options": {"kernel": {"matrix": [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]}}}
        assert any("kernel input size" in f["message"] for f in validate(job)[0])


OFF_SUPPORT = [{"support": 4, "mass": [0.6, 0.4, 0.0, 0.0]},
               {"support": 4, "mass": [-0.10, -0.05, 0.10, 0.05]},
               {"support": 4, "mass": [-0.02, -0.13, 0.05, 0.10]}]
DIRECTIONS = [UNIFORM, {"support": 2, "mass": [0.25, -0.25]}, {"support": 2, "mass": [-0.25, 0.25]}]


@pytest.mark.parametrize("command, inputs, options, name", [
    ("rank", None, {"kind": "chi2", "trials": "x"}, "trials"),
    ("rank", None, {"kind": "chi2", "trials": 0}, "trials"),
    ("dpi", None, {"trials": 2, "support": "x"}, "support"),
    ("dpi", None, {"trials": 2, "count": 0}, "count"),
    ("dpi", None, {"trials": 2, "output_support": 2.5}, "output_support"),
    ("expand", OFF_SUPPORT, {"mode": "off-support", "grid_n": 0}, "grid_n"),
    ("expand", OFF_SUPPORT, {"mode": "off-support", "grid_scale": "x"}, "grid_scale"),
    ("expand", OFF_SUPPORT, {"mode": "off-support", "grid_scale": -1e-3}, "grid_scale"),
    ("expand", DIRECTIONS, {"kind": "chi2", "levels": "x"}, "levels"),
    ("expand", DIRECTIONS, {"kind": "chi2", "levels": 0}, "levels"),
    # over their upper bounds: rejected before anything is allocated
    ("rank", None, {"kind": "chi2", "trials": 1, "support": 10 ** 12}, "support"),
    ("rank", None, {"kind": "chi2", "trials": 2 ** 60}, "trials"),
    ("dpi", None, {"trials": 1, "output_support": 10 ** 12}, "output_support"),
    ("dpi", None, {"trials": 1, "count": 201}, "count"),
    ("expand", OFF_SUPPORT, {"mode": "off-support", "grid_n": 21}, "grid_n"),
    ("expand", DIRECTIONS, {"kind": "chi2", "levels": 51}, "levels"),
])
def test_malformed_options_are_validation_errors(command, inputs, options, name):
    job = {"command": command, "options": options}
    if inputs is not None:
        job["inputs"] = inputs
    text, status = run(job)
    assert status == EXIT_VALIDATION
    assert [f["path"] for f in json.loads(text)["error"]["findings"]] == [f"/options/{name}"]


@pytest.mark.parametrize("command, options, admitted", [
    ("dpi", {"trials": 5, "count": 200, "support": 2000}, False),
    # exactly 2e9, with a kernel draw of 4.94e8
    ("dpi", {"trials": 1000, "count": 3, "support": 496, "output_support": 996}, True),
    ("dpi", {"trials": 1000, "count": 1, "support": 999, "output_support": 998}, False),
    ("dpi", {"trials": 10, "count": 50, "support": 2000}, False),
    ("dpi", {"trials": 1000, "count": 200, "support": 10, "output_support": 2000}, False),
    ("dpi", {"trials": 1000, "support": 800}, False),  # count defaults to 3
    # the Gram matrices and eigenvalues of 201 measures count, however short their support
    ("dpi", {"trials": 1000, "count": 200, "support": 10, "output_support": 10}, False),
    ("rank", {"kind": "chi2", "trials": 1000, "count": 200, "support": 10}, False),
    ("rank", {"kind": "chi2", "trials": 1000, "count": 200, "support": 2000}, False),
    ("rank", {"kind": "chi2", "trials": 100, "count": 99, "support": 1900}, True),  # exactly 2e9
    ("rank", {"kind": "chi2", "trials": 100, "count": 99, "support": 1901}, False),
    # a rank trial draws no kernel, so output_support, which defaults to support, is no work
    ("rank", {"kind": "chi2", "trials": 1000, "count": 1, "support": 2000}, True),
])
def test_suite_work_is_bounded(command, options, admitted):
    # validate only: the admitted suites are never run
    findings, _ = validate({"command": command, "options": options})
    if admitted:
        assert findings == []
    else:
        assert [f["path"] for f in findings] == ["/options"]
        assert findings[0]["message"].startswith("trials x (count + 1) x (support + count + 1) x "
                                                 "(cols + count + 1) must be at most 2000000000")


@pytest.mark.parametrize("options, admitted", [
    # work of exactly 2e9, whose draw of 996 million kernel doubles took 14.5 s
    ({"trials": 1000, "count": 1, "support": 998, "output_support": 998}, False),
    ({"trials": 249, "count": 1, "support": 2000, "output_support": 2000}, False),  # 16.8 s
    ({"trials": 1000, "count": 1, "support": 500, "output_support": 1000}, True),  # exactly 5e8
    ({"trials": 1000, "count": 1, "support": 501, "output_support": 1000}, False),
])
def test_dpi_suite_kernel_draw_is_bounded(options, admitted):
    # validate only: the admitted suite is never run
    findings, _ = validate({"command": "dpi", "options": options})
    if admitted:
        assert findings == []
    else:
        assert [f["path"] for f in findings] == ["/options"]
        assert findings[0]["message"].startswith(
            "trials x support x output_support must be at most 500000000")


def test_readme_commands_are_the_command_table(capsys):
    """The README's Commands table lists exactly the commands of ``cli._COMMANDS``, in order,
    and they are the choices of ``main``'s --command, so no command can go without its row."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\nCommands:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    listed = [row.split("|")[1].strip().strip("`") for row in table]
    assert listed == list(cli._COMMANDS)
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out
    assert usage.split("--command {", 1)[1].split("}", 1)[0].split(",") == listed


def _poisson(*rates):
    return [{"kind": "poisson_product", "params": {"lambda": list(r)}} for r in rates]


@pytest.mark.parametrize("inputs, kind", [
    (_poisson([1.0], [100.0], [100.0]), "chi2"),
    ([{"kind": "gaussian_iso", "params": {"mean": [m], "sigma": 0.1}} for m in (0.0, 1.0, 1.0)],
     "alpha:5"),
    # log(R_alpha + 1) overflows to +inf, which is not the "inf" of an outside domain
    (_poisson([1.0], [1e200], [1e200]), "chi2"),
    # log(R_alpha + 1) is about -log(theta0) = 713.8, so R is beyond the float range
    ([{"kind": "bernoulli_product", "params": {"theta": [t]}} for t in (1e-310, 0.5, 0.5)],
     "alpha:2"),
    # one coordinate's term overflows to +inf and the other's to -inf
    (_poisson([1.0, 1.0], [1e300, 1e300], [1e300, 0.5]), "alpha:1.1"),
])
def test_overflow_is_a_computational_error(inputs, kind):
    text, status = run({"command": "codiv", "inputs": inputs, "options": {"kind": kind}})
    assert status == EXIT_COMPUTE
    error = json.loads(text)["error"]
    assert error["code"] == "computation" and "log(R_alpha + 1)" in error["message"]


@pytest.mark.parametrize("family, param, value", [
    ("poisson_product", "lambda", 1.5),
    ("bernoulli_product", "theta", 0.3),
])
def test_equal_members_at_huge_alpha_give_zero(family, param, value):
    # at alpha 1e200 the powers overflow, and the form relative to member 0 takes over
    inputs = [{"kind": family, "params": {param: [value]}}] * 3
    text, status = run({"command": "codiv", "inputs": inputs, "options": {"kind": "alpha:1e200"}})
    assert status == EXIT_OK
    assert json.loads(text)["value"] == 0.0


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def handler(options, inputs, tolerance, seed):
        raise IndexError("list index out of range")

    monkeypatch.setitem(cli._COMMANDS, "codiv", (handler, *cli._COMMANDS["codiv"][1:]))
    job = {"command": "codiv", "inputs": [UNIFORM, TILTED, UNIFORM], "options": {"kind": "chi2"}}
    text, status = run(job)
    assert status == EXIT_COMPUTE
    assert json.loads(text) == {"error": {
        "code": "internal", "message": "internal error: IndexError: list index out of range"}}
    assert "Traceback" in capsys.readouterr().err


# Entries of a malformed job: numbers at the edges of the float range among ordinary ones,
# three times as often as values of the wrong type.
_NUMBERS = st.sampled_from([0.0, 0.25, 0.5, -0.25, -0.5, 1e308, -1e308, 5e-324])
_WRONG = st.sampled_from([True, None, "x", [0.5], 2])
_VALUES = st.one_of(st.lists(_NUMBERS, min_size=4, max_size=4),
                    st.lists(st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _WRONG), max_size=4),
                    _WRONG, st.just({}))
# Valid values for each role, some at the edges of the float range, so that jobs also get
# past validation: measures on 4 points, directions, kernel rows and family parameters.
_PROBABILITY = st.sampled_from([[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5]])
_DIRECTION = st.sampled_from([[0.5, -0.5, 0.0, 0.0], [0.25, -0.25, 0.25, -0.25],
                              [1e308, 1e308, -1e308, -1e308], [1e308, -1e308, 5e-324, -5e-324]])
_ROW = st.sampled_from([[0.25] * 4, [1.0, 0.0, 0.0, 0.0], [5e-324, 0.5, 0.5, 0.0]])
_PARAM = st.one_of(st.sampled_from([0.25, 1e308, 5e-324]),
                   st.lists(st.sampled_from([0.25, 0.5, 1e308, 5e-324]), min_size=2, max_size=2))


@st.composite
def malformed_jobs(draw):
    """Jobs whose masses, kernel rows and family parameters are valid values, some at the
    edges of the float range, except for at most one value drawn from _VALUES.  Families
    go to ``oracle-check``, and to ``codiv`` as often as measures do."""
    command = draw(st.sampled_from(["codiv", "matrix", "rank", "dpi", "expand", "oracle-check"]))
    options = {"kind": draw(st.sampled_from(["chi2", "hellinger", "alpha:0.5", "valpha:2"]))}
    families = command == "oracle-check" or command == "codiv" and draw(st.booleans())
    if families:
        kind = draw(st.sampled_from(list(FAMILIES)))
        roles = [((i, name), _PARAM) for i in range(3) for name, _ in FAMILIES[kind].params]
    elif command == "expand":
        roles = [(0, _PROBABILITY), (1, _DIRECTION), (2, _DIRECTION)]
        if draw(st.booleans()):
            options = {"mode": "off-support"}
    else:
        count = 3 if command == "codiv" else draw(st.integers(2, 3))
        roles = [(i, _PROBABILITY) for i in range(count)]
    if command == "dpi":
        roles += [("row", _ROW)] * 4
    bad = draw(st.integers(-1, len(roles) - 1))  # the role whose value is malformed, or none
    values = [draw(_VALUES if k == bad else valid) for k, (_, valid) in enumerate(roles)]
    if families:
        inputs = [{"kind": kind, "params": {}} for _ in range(3)]
        for ((i, name), _), value in zip(roles, values):
            inputs[i]["params"][name] = value
        options["kind"] = options["kind"].lstrip("v")
    else:
        inputs = [{"mass": value} for (i, _), value in zip(roles, values) if i != "row"]
    if command == "dpi":
        options = {"kernel": {"matrix": values[len(inputs):]}}
    return {"command": command, "inputs": inputs, "options": options}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(malformed_jobs())
def test_no_malformed_job_is_an_internal_error(job):
    text, status = run(job)
    assert status in (EXIT_OK, EXIT_VALIDATION, EXIT_COMPUTE, EXIT_PROPERTY)
    assert '"code": "internal"' not in text, (job, text)
    if job["command"] == "oracle-check" and not validate(job)[0]:
        assert status != EXIT_VALIDATION, (job, text)


def _edge_member(kind, value):
    """A one-coordinate family member whose parameter is ``value``, as a Bernoulli theta capped
    at 0.9, as both the shape and the rate of a Gamma coordinate, or as a Gaussian mean."""
    return {"gaussian_iso": {"mean": [value], "sigma": 1.0}, "poisson_product": {"lambda": [value]},
            "bernoulli_product": {"theta": [min(value, 0.9)]},
            "exponential_product": {"beta": [value]},
            "gamma_product": {"shape": [value], "rate": [value]}}[kind]


@pytest.mark.parametrize("option", ["chi2", "hellinger", "alpha:3"])
@pytest.mark.parametrize("kind", list(FAMILIES))
def test_oracle_check_at_the_float_range_edge_ends_in_a_report_or_a_named_failure(kind, option):
    """Every triple of parameters at or inside the edges of the float range passes
    validation, and then ends in a report or a computation error: not exit 2, as when an
    integration window collapsed, and not ``internal``, as when log(S/R) took log 0."""
    for values in itertools.product([0.25, 3.0, 1e308, 5e-324], repeat=3):
        job = {"command": "oracle-check", "options": {"kind": option},
               "inputs": [{"kind": kind, "params": _edge_member(kind, v)} for v in values]}
        text, status = run(job)
        assert status in (EXIT_OK, EXIT_PROPERTY) or (
            status == EXIT_COMPUTE and '"code": "computation"' in text), (values, text)


@pytest.mark.parametrize("kind", ["chi2", "hellinger", "alpha:0.7", "valpha:1.5"])
@pytest.mark.parametrize("zeros", [0, 2])
def test_codiv_is_the_matrix_cell(kind, zeros):
    rng = np.random.default_rng(41)
    for i in range(30):
        p0 = random_probability(rng, 7, zeros=zeros)
        p1 = random_dominated(rng, p0, zeros=1)
        # with null points in p0, every third p2 is likely not dominated: an inf cell
        p2 = random_probability(rng, 7, zeros=zeros) if i % 3 == 0 else random_dominated(rng, p0)
        inputs = [{"support": 7, "mass": p.mass.tolist()} for p in (p0, p1, p2)]
        codiv, codiv_status = run({"command": "codiv", "inputs": inputs,
                                   "options": {"kind": kind}})
        matrix, matrix_status = run({"command": "matrix", "inputs": inputs,
                                     "options": {"kind": kind}})
        assert codiv_status == matrix_status == EXIT_OK
        # repr tells the bits apart, -0.0 from 0.0 included
        assert repr(json.loads(codiv)["value"]) == repr(json.loads(matrix)["matrix"]["entries"][1])


BERNOULLI_ONE = {"kind": "bernoulli_product", "params": {"theta": [1.0]}}
BAD_KERNEL = [[0.4, 0.5], [0.5, 0.5]]
NULL_POINT = [0.5, 0.5, 0.0]
ON_NULL_POINT = [0.1, -0.2, 0.1]  # zero total, but mass on the reference's null point
NEGATIVE_OFF = [0.1, 0.1, -0.2]  # zero total, but negative off the reference's support
LOCAL_JOB = {"command": "expand", "options": {"kind": "chi2"},
             "inputs": [{"mass": NULL_POINT}, {"mass": ON_NULL_POINT}, {"mass": [0.1, -0.1, 0.0]}]}


@pytest.mark.parametrize("construct, job", [
    (lambda: DiscreteMeasure([1.5, -0.5]),
     {"command": "matrix", "inputs": [UNIFORM, {"mass": [1.5, -0.5]}], "options": {"kind": "chi2"}}),
    (lambda: BernoulliProd([1.0]),
     {"command": "oracle-check", "inputs": [BERNOULLI_ONE] * 3, "options": {"kind": "chi2"}}),
    (lambda: MarkovKernel(BAD_KERNEL),
     {"command": "dpi", "inputs": [UNIFORM, TILTED], "options": {"kernel": {"matrix": BAD_KERNEL}}}),
    (lambda: PerturbationPair(DiscreteMeasure(NULL_POINT), SignedMeasure(ON_NULL_POINT),
                              SignedMeasure([0.1, -0.1, 0.0])), LOCAL_JOB),
    (lambda: ess_sup_ratio(SignedMeasure(ON_NULL_POINT), DiscreteMeasure(NULL_POINT)), LOCAL_JOB),
    (lambda: hellinger_off_support_check(DiscreteMeasure(NULL_POINT), SignedMeasure(NEGATIVE_OFF),
                                         SignedMeasure(NEGATIVE_OFF)),
     {"command": "expand", "options": {"mode": "off-support"},
      "inputs": [{"mass": NULL_POINT}, {"mass": NEGATIVE_OFF}, {"mass": NEGATIVE_OFF}]}),
    (lambda: fisher_gram(DiscreteMeasure(NULL_POINT), [SignedMeasure(ON_NULL_POINT)]), LOCAL_JOB),
])
def test_constructors_raise_the_first_finding(construct, job):
    with pytest.raises(CodivError) as raised:
        construct()
    assert str(raised.value) == validate(job)[0][0]["message"]


def _plain(value):
    """A checked value or a job's value as nested dicts, lists and floats."""
    if isinstance(value, Mapping):
        return {key: _plain(entry) for key, entry in value.items()}
    return np.asarray(value, dtype=float).tolist()


GAMMA = [{"kind": "gamma_product", "params": {"shape": [1.5, 2.0], "rate": [r, 2.5]}}
         for r in (1.0, 1.25, 0.75)]
MASSES = [[0.2, 0.3, 0.5], [0.25, 0.25, 0.5], [0.4, 0.4, 0.2]]


@pytest.mark.parametrize("job", [
    {"command": "matrix", "inputs": [{"mass": m} for m in MASSES], "options": {"kind": "chi2"}},
    {"command": "expand", "options": {"kind": "chi2"},
     "inputs": [{"mass": MASSES[0]}, {"mass": [0.1, -0.1, 0.0]}, {"mass": [0.0, 0.2, -0.2]}]},
    {"command": "dpi", "inputs": [{"mass": m} for m in MASSES],
     "options": {"kernel": {"matrix": [[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]}}},
    {"command": "codiv", "inputs": GAMMA, "options": {"kind": "alpha:0.5"}},
])
def test_each_input_is_checked_once(monkeypatch, job):
    """``run`` checks each input of a job once: ``validate`` builds the measures, directions,
    kernel and families it returns from the values their checkers returned."""
    checked = []
    for module, name in ((measures, "measure_problems"), (matrices, "kernel_problems"),
                         (families, "_param_problems")):
        def counted(*args, _checker=getattr(module, name), **kwargs):
            result = _checker(*args, **kwargs)
            checked.append(_plain(result[0]))
            return result

        monkeypatch.setattr(module, name, counted)
    assert run(job)[1] == EXIT_OK
    values = [doc.get("mass", doc.get("params")) for doc in job["inputs"]]
    values += [job["options"]["kernel"]["matrix"]] if "kernel" in job["options"] else []
    assert [checked.count(_plain(value)) for value in values] == [1] * len(values)


def test_each_mass_is_summed_once(monkeypatch):
    """``validate`` hands each measure the exact total its check summed, so a codiv job sums
    each mass once: long masses, where ``exact_sum`` takes its extraction path."""
    rng = np.random.default_rng(23)
    masses = [random_probability(rng, 800).mass for _ in range(3)]
    summed = []

    def counted(values):
        summed.append(_plain(values))
        return exact_sum(values)

    monkeypatch.setattr(measures, "exact_sum", counted)
    job = {"command": "codiv", "inputs": [{"mass": m} for m in masses], "options": {"kind": "chi2"}}
    assert run(job)[1] == EXIT_OK
    assert [summed.count(_plain(mass)) for mass in masses] == [1, 1, 1]


class TestSuiteDraw:
    """The seeded suites draw from SplitMix64 in counter mode (``cli._splitmix64``)."""

    @pytest.mark.parametrize("seed, outputs", [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77]),
    ])
    def test_first_outputs_are_the_reference_vectors(self, seed, outputs):
        """The first outputs of the reference splitmix64.c seeded with ``seed``."""
        assert cli._splitmix64(seed, 0, 3).tolist() == outputs

    @pytest.mark.parametrize("seed, start", [(0, 0), (2 ** 64 - 1, 12345), (2 ** 70 + 3, 2 ** 40)])
    def test_outputs_are_the_scalar_mix_across_blocks(self, seed, start):
        """Sampled outputs of a draw that spans several blocks of 2**16, against the mix in
        Python integers."""
        def mix(k):
            z = (seed + k * 0x9E3779B97F4A7C15) % 2 ** 64
            z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2 ** 64
            z = (z ^ z >> 27) * 0x94D049BB133111EB % 2 ** 64
            return z ^ z >> 31

        n = 3 * 2 ** 16 + 5
        outputs = cli._splitmix64(seed, start, n)
        for i in (0, 1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17, 3 * 2 ** 16, n - 1):
            assert int(outputs[i]) == mix(start + i + 1)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 70), st.integers(0, 2 ** 40), st.integers(0, 300),
           st.integers(0, 300))
    @example(7, 5, 2 ** 16 - 3, 2 ** 16 + 9)
    def test_the_stream_is_split_anywhere(self, seed, start, n, m):
        """Drawing n and then m outputs gives the outputs of one draw of n + m; each double
        (output >> 11) * 2**-53 lies in [0, 1) on the 2**-53 grid."""
        whole = cli._splitmix64(seed, start, n + m)
        parts = np.concatenate([cli._splitmix64(seed, start, n),
                                cli._splitmix64(seed, start + n, m)])
        assert whole.dtype == np.uint64 and whole.tolist() == parts.tolist()
        doubles = (whole >> 11) * 2.0 ** -53
        assert ((doubles >= 0) & (doubles < 1)).all()
        assert (doubles * 2.0 ** 53).tolist() == (whole >> 11).tolist()

    def test_a_trial_draws_masses_then_kernel_rows(self):
        """Trial t takes the next (count + 1) x support doubles as masses, then, for dpi,
        support x output_support doubles as kernel rows."""
        options = {"trials": 2, "count": 2, "support": 3}
        doubles = (cli._splitmix64(9, 0, 2 * (3 + 4) * 3) >> 11) * 2.0 ** -53
        for t, (p0, ps, kernel) in enumerate(cli._suite_trials(9, options, 4)):
            u = doubles[t * 21:(t + 1) * 21]
            for measure, mass in zip([p0, *ps], u[:9].reshape(3, 3) + 0.05):
                assert measure.mass.tolist() == (mass / exact_sum(mass)).tolist()
            rows = u[9:].reshape(3, 4) + 0.02
            assert kernel.matrix.tolist() == (rows / rows.sum(axis=1, keepdims=True)).tolist()
            assert not kernel.matrix.flags.writeable
        # a rank trial draws no kernel, so the second one starts at double 9
        firsts = [doubles[k:k + 3] + 0.05 for k in (0, 9)]
        assert [p0.mass.tolist() for p0, _, _ in cli._suite_trials(9, options)] == [
            (mass / exact_sum(mass)).tolist() for mass in firsts]

    @pytest.mark.parametrize("command", ["rank", "dpi"])
    def test_seeds_equal_mod_2_64_give_the_same_report(self, command):
        job = {"command": command,
               "options": {"trials": 3, "support": 4, "count": 2, "kind": "chi2"}}
        (first, status), (second, _) = run(job, seed=5), run(job, seed=5 + 2 ** 64)
        assert status == EXIT_OK
        assert {**json.loads(first), "seed": None} == {**json.loads(second), "seed": None}
        assert json.loads(second)["seed"] == 5 + 2 ** 64


def _suite_options(count, support, output_support):
    return {"trials": 1, "count": count, "support": support, "output_support": output_support}


def _check_suite_inputs(seed, options):
    """Every kernel and measure the suites draw passes the checks it is built without."""
    for p0, ps, kernel in cli._suite_trials(seed, options, options["output_support"]):
        assert kernel_problems({"matrix": kernel.matrix})[1] == []
        for measure in (p0, *ps):
            assert measure_problems({"mass": measure.mass}, normalized=True)[1] == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, cli._COUNT_BOUNDS["count"]),
       st.integers(1, cli._COUNT_BOUNDS["support"]),
       st.integers(1, cli._COUNT_BOUNDS["output_support"]))
def test_suite_kernels_and_measures_pass_their_checks(seed, count, support, output_support):
    """The oracle for the row check the suite kernels skip: rows u + 0.02 over their float
    sum total 1 within 2.3e-13 for up to 2000 columns, below the 1e-12 rule."""
    _check_suite_inputs(seed, _suite_options(count, support, output_support))


def test_the_largest_suite_kernel_passes_its_check():
    largest = cli._COUNT_BOUNDS
    _check_suite_inputs(3, _suite_options(2, largest["support"], largest["output_support"]))


class TestParseKind:
    def test_named_kinds(self):
        assert parse_kind("chi2") == ("chi2", 1.0)
        assert parse_kind("hellinger") == ("hellinger", 0.5)
        assert parse_kind("alpha:0.25") == ("rphi", 0.25)
        assert parse_kind("valpha:2") == ("vphi", 2.0)

    def test_malformed(self):
        from codiv.errors import CodivError
        with pytest.raises(CodivError):
            parse_kind("alpha:zero")
        with pytest.raises(CodivError):
            parse_kind("kl")
        for text in ("alpha:inf", "valpha:inf", "alpha:nan"):
            with pytest.raises(CodivError) as raised:
                parse_kind(text)
            assert raised.value.path == "/options/kind"


class TestCommands:
    def test_matrix_of_identical_measures_is_zero(self, tmp_path, capsys):
        job = {"command": "matrix", "inputs": [UNIFORM, UNIFORM, UNIFORM],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["matrix"]["entries"] == [0.0, 0.0, 0.0, 0.0]

    def test_dpi_identity_kernel(self, tmp_path, capsys):
        job = {"command": "dpi", "inputs": [UNIFORM, TILTED],
               "options": {"kernel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["min_eigenvalue_of_difference"]) <= 1e-12

    def test_codiv_poisson_closed_form(self, tmp_path, capsys):
        fam = lambda lam: {"kind": "poisson_product", "params": {"lambda": lam}}
        job = {"command": "codiv", "inputs": [fam([1.0]), fam([2.0]), fam([3.0])],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        assert json.loads(out)["value"] == pytest.approx(math.exp(2.0) - 1.0, rel=1e-12)

    def test_codiv_measures(self, tmp_path, capsys):
        job = {"command": "codiv", "inputs": [UNIFORM, TILTED, TILTED],
               "options": {"kind": "hellinger"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        assert math.isfinite(json.loads(out)["value"])

    def test_rank_command(self, tmp_path, capsys):
        job = {"command": "rank",
               "inputs": [UNIFORM, TILTED, {"support": 2, "mass": [0.75, 0.25]}],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["matrix_rank"] == doc["function_rank"] == 1
        assert doc["passed"] is True

    def test_randomized_suites_report_seed(self, tmp_path, capsys):
        job = {"command": "dpi", "options": {"trials": 20, "support": 5, "count": 3}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job), "--seed", "42"])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["seed"] == 42 and doc["passed"] is True
        job = {"command": "rank", "options": {"trials": 20, "kind": "hellinger"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job), "--seed", "7"])
        assert status == EXIT_OK
        assert json.loads(out)["agreements"] == 20

    def test_expand_local(self, tmp_path, capsys):
        job = {"command": "expand",
               "inputs": [UNIFORM, {"support": 2, "mass": [0.25, -0.25]},
                          {"support": 2, "mass": [-0.25, 0.25]}],
               "options": {"kind": "hellinger"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["report"]["levels"]) == 5

    def test_expand_off_support(self, tmp_path, capsys):
        job = {"command": "expand",
               "inputs": [{"support": 4, "mass": [0.6, 0.4, 0.0, 0.0]},
                          {"support": 4, "mass": [-0.10, -0.05, 0.10, 0.05]},
                          {"support": 4, "mass": [-0.02, -0.13, 0.05, 0.10]}],
               "options": {"mode": "off-support"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_oracle_check(self, tmp_path, capsys):
        fam = lambda b: {"kind": "exponential_product", "params": {"beta": b}}
        job = {"command": "oracle-check", "inputs": [fam([1.0]), fam([2.0]), fam([2.0])],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["passed"] is True and doc["relative_error"] <= 1e-7

    def test_oracle_check_property_violation_exit(self, tmp_path, capsys):
        fam = lambda b: {"kind": "exponential_product", "params": {"beta": b}}
        job = {"command": "oracle-check", "inputs": [fam([1.0]), fam([2.0]), fam([2.0])],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys,
                               ["--input", write_job(tmp_path, job), "--tolerance", "0"])
        assert status == EXIT_PROPERTY
        assert json.loads(out)["passed"] is False


class TestReportContracts:
    def test_reports_are_byte_identical(self, tmp_path, capsys):
        job = {"command": "dpi", "options": {"trials": 10, "support": 4, "count": 2}}
        path = write_job(tmp_path, job)
        _, first = run_main(capsys, ["--input", path, "--seed", "13"])
        _, second = run_main(capsys, ["--input", path, "--seed", "13"])
        assert first == second

    def test_matrix_report_round_trips_inf(self, tmp_path, capsys):
        job = {"command": "matrix",
               "inputs": [{"support": 2, "mass": [1.0, 0.0]}, UNIFORM],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_OK
        doc = json.loads(out)["matrix"]
        assert doc["size"] == 1 and doc["entries"] == ["inf"]

    def test_csv_matrix_output(self, tmp_path, capsys):
        job = {"command": "matrix", "inputs": [UNIFORM, TILTED], "options": {"kind": "chi2"}}
        status, out = run_main(capsys,
                               ["--input", write_job(tmp_path, job), "--format", "csv"])
        assert status == EXIT_OK
        assert out.splitlines()[0].startswith("kind,chi2")

    @pytest.mark.parametrize("kind", ["chi2", "hellinger", "alpha:0.7", "valpha:1.5"])
    def test_csv_cells_are_the_json_entries(self, kind):
        # the last measure is off supp p0 (an inf row for every kind), the others not
        inputs = [{"mass": m} for m in ([0.5, 0.3, 0.2, 0.0], [0.2, 0.3, 0.5, 0.0],
                                         [0.1, 0.6, 0.3, 0.0], [0.0, 0.0, 0.0, 1.0])]
        job = {"command": "matrix", "inputs": inputs, "options": {"kind": kind}}
        text, status = run(job)
        csv_text, csv_status = run(job, fmt="csv")
        assert status == csv_status == EXIT_OK
        entries = json.loads(text)["matrix"]["entries"]
        assert "inf" in entries and len(set(entries)) > 2
        cells = [cell for line in csv_text.splitlines()[1:] for cell in line.split(",")]
        assert cells == [x if x == "inf" else format(x, ".17g") for x in entries]

    def test_csv_rejected_elsewhere(self, tmp_path, capsys):
        job = {"command": "codiv", "inputs": [UNIFORM, UNIFORM, UNIFORM],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys,
                               ["--input", write_job(tmp_path, job), "--format", "csv"])
        assert status == EXIT_VALIDATION

    def test_validation_exit_and_error_document(self, tmp_path, capsys):
        job = {"command": "matrix",
               "inputs": [UNIFORM, {"support": 3, "mass": [0.6, 0.5, -0.1]}],
               "options": {"kind": "chi2"}}
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job)])
        assert status == EXIT_VALIDATION
        doc = json.loads(out)
        assert doc["error"]["code"] == "validation"
        assert doc["error"]["findings"][0]["path"].startswith("/inputs/1")

    @pytest.mark.parametrize("job, flags, message", [
        ({"command": "dpi", "inputs": [UNIFORM, TILTED],
          "options": {"kernel": {"matrix": [[1.0, 0.0], [0.0, 1.0]]}}},
         ["--tolerance", "nan"], "tolerance must be a finite number"),
        ({"command": "dpi", "options": {"trials": 2}},
         ["--tolerance", "inf"], "tolerance must be a finite number"),
        ({"command": "rank", "inputs": [UNIFORM, TILTED], "options": {"kind": "chi2"}},
         ["--tolerance=-inf"], "tolerance must be a finite number"),
        ({"command": "expand", "inputs": OFF_SUPPORT, "options": {"mode": "off-support"}},
         ["--tolerance", "nan"], "tolerance must be a finite number"),
        ({"command": "dpi", "options": {"trials": 2}},
         ["--seed", "-1"], "seed must be a nonnegative integer"),
        ({"command": "rank", "options": {"trials": 2, "kind": "chi2"}},
         ["--seed", "-1"], "seed must be a nonnegative integer"),
    ])
    def test_malformed_flags_are_validation_errors(self, tmp_path, capsys, job, flags, message):
        status, out = run_main(capsys, ["--input", write_job(tmp_path, job), *flags])
        assert status == EXIT_VALIDATION
        assert json.loads(out) == {"error": {"code": "validation", "message": message}}

    @pytest.mark.parametrize("job, tolerance, seed, message", [
        (RANK_JOB, 10 ** 400, 0, "tolerance must be a finite number"),
        (RANK_JOB, "0.1", 0, "tolerance must be a finite number"),
        (RANK_JOB, True, 0, "tolerance must be a finite number"),
        ({"command": "dpi", "options": {"trials": 2}}, None, True,
         "seed must be a nonnegative integer"),
    ], ids=["tolerance-beyond-float-range", "tolerance-string", "tolerance-bool", "seed-bool"])
    def test_run_arguments_follow_the_flag_rules(self, job, tolerance, seed, message):
        """``run`` takes Python values, not flag text: a tolerance beyond the float range, a
        string or a boolean, and a boolean seed, are rejected as the flags would be."""
        text, status = run(job, tolerance=tolerance, seed=seed)
        assert status == EXIT_VALIDATION
        assert json.loads(text) == {"error": {"code": "validation", "message": message}}

    @pytest.mark.parametrize("job", [[], "x", None, 3, [["command", "matrix"]]])
    @pytest.mark.parametrize("fmt", ["json", "xml"])
    def test_run_rejects_a_job_that_is_not_an_object(self, capsys, job, fmt):
        text, status = run(job, fmt=fmt)
        assert status == EXIT_VALIDATION and capsys.readouterr().err == ""
        assert json.loads(text) == {"error": {"code": "validation",
                                              "message": "job must be a JSON object"}}

    @pytest.mark.parametrize("fmt", ["xml", None, "CSV", "", ["json"]])
    def test_run_rejects_a_format_other_than_json_or_csv(self, fmt):
        text, status = run(RANK_JOB, fmt=fmt)
        assert status == EXIT_VALIDATION
        assert json.loads(text) == {"error": {"code": "validation",
                                              "message": "format must be json or csv"}}

    @pytest.mark.parametrize("flags", [[], ["--command", "matrix"]])
    def test_main_reports_a_job_that_is_not_an_object(self, tmp_path, capsys, flags):
        """``run`` holds the rule; ``main`` with or without a command override reaches it."""
        status, out = run_main(capsys, ["--input", write_job(tmp_path, [[0, 1]]), *flags])
        assert status == EXIT_VALIDATION
        assert out == run([[0, 1]])[0]

    def test_missing_input_file(self, capsys):
        status, out = run_main(capsys, ["--input", "/nonexistent/job.json"])
        assert status == EXIT_VALIDATION
        assert json.loads(out)["error"]["code"] == "validation"

    @pytest.mark.parametrize("content, reason", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        (b'{"command": ' + b"1" * 4301 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf-8", "nesting", "long-int"])
    def test_undecodable_input_file(self, tmp_path, capsys, content, reason):
        """A job file that is not UTF-8, nests deeper than the recursion limit, or holds an
        integer literal beyond Python's int-string limit is exit 2, as invalid JSON is."""
        path = tmp_path / "job.json"
        path.write_bytes(content)
        status, out = run_main(capsys, ["--input", str(path)])
        assert status == EXIT_VALIDATION
        error = json.loads(out)["error"]
        assert error["code"] == "validation"
        assert error["message"].startswith(f"cannot read job: {reason}")

    def test_command_flag_overrides(self, tmp_path, capsys):
        job = {"inputs": [UNIFORM, UNIFORM], "options": {"kind": "chi2"}}
        status, out = run_main(capsys,
                               ["--input", write_job(tmp_path, job), "--command", "matrix"])
        assert status == EXIT_OK
        assert json.loads(out)["command"] == "matrix"

    def test_computational_error_exit_code(self, monkeypatch):
        from codiv import cli as cli_module

        def boom(options, inputs, tolerance, seed):
            raise DegeneratePhiError("denominator vanished")

        monkeypatch.setitem(cli_module._COMMANDS, "codiv",
                            (boom, *cli_module._COMMANDS["codiv"][1:]))
        text, status = run({"command": "codiv",
                            "inputs": [UNIFORM, UNIFORM, UNIFORM],
                            "options": {"kind": "chi2"}})
        assert status == EXIT_COMPUTE
        assert json.loads(text)["error"]["code"] == "computation"


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that logs its flushes, or fails them."""

    def __init__(self, name, events, error=None):
        self.name, self.events, self.error = name, events, error

    def flush(self):
        self.events.append(("flush", self.name))
        if self.error:
            raise self.error


class _Exited(Exception):
    pass


class TestEntry:
    """``cli.entry``, the ``codiv`` command: run main, flush both streams, then os._exit."""

    @pytest.fixture
    def events(self, monkeypatch):
        events = []

        def fake_exit(status):
            events.append(("_exit", status))
            raise _Exited

        monkeypatch.setattr(cli, "main", lambda argv=None: EXIT_PROPERTY)
        monkeypatch.setattr(os, "_exit", fake_exit)
        return events

    def test_flushes_then_exits_at_once(self, monkeypatch, events):
        monkeypatch.setattr(sys, "stdout", _Stream("stdout", events))
        monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
        with pytest.raises(_Exited):
            cli.entry()
        assert events == [("flush", "stdout"), ("flush", "stderr"), ("_exit", EXIT_PROPERTY)]

    def test_a_failed_flush_exits_through_sys_exit(self, monkeypatch, events):
        monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, BrokenPipeError(32, "")))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == EXIT_PROPERTY
        assert events == [("flush", "stdout")]

    def test_an_exception_from_main_propagates(self, monkeypatch, capsys, events):
        monkeypatch.setattr(cli, "main", main)
        with pytest.raises(SystemExit) as exc:  # argparse's, for a missing --input
            cli.entry([])
        assert exc.value.code == EXIT_VALIDATION
        assert "--input" in capsys.readouterr().err
        assert events == []


def test_module_entry_point_prints_a_report_beyond_the_pipe_buffer(tmp_path):
    """``python -m codiv`` writes all of a 100 x 100 matrix report (more than a 64 KiB pipe
    holds) to a buffered stdout before the process ends: the same bytes and status as
    ``run`` in process."""
    rng = np.random.default_rng(5)
    job = {"command": "matrix", "options": {"kind": "alpha:0.7"},
           "inputs": [{"mass": random_probability(rng, 8).mass.tolist()} for _ in range(101)]}
    text, status = run(job)
    assert len(text.encode()) > 1 << 16
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "codiv", "--input", write_job(tmp_path, job)],
                          capture_output=True, env=env, timeout=120)
    assert (proc.stdout, proc.returncode) == (text.encode(), status)


class TestMassArrayHook:
    """``cli.mass_array_hook``, through which ``main`` parses a job: each mass list
    becomes the float array that ``measure_problems`` would build from it."""

    @pytest.mark.parametrize("mass", [[0.2, 0.3, 0.5], [1, 0.5, 2 ** 60, -3]])
    def test_numbers_become_their_float_array(self, mass):
        got = mass_array_hook({"support": len(mass), "mass": list(mass)})
        assert type(got["mass"]) is np.ndarray and got["mass"].dtype == np.float64
        np.testing.assert_array_equal(got["mass"], np.array(mass, dtype=float))
        assert got["support"] == len(mass)

    @pytest.mark.parametrize("entry", [True, "0.5", None, 2 ** 1024, [0.5], {"mass": 1}])
    def test_a_non_number_becomes_nan_at_its_index(self, entry):
        got = mass_array_hook({"mass": [0.25, entry, 0.75]})["mass"]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [0.25, math.nan, 0.75])

    @pytest.mark.parametrize("obj", [{"mass": []}, {"mass": 0.5}, {"mass": "0.5"},
                                     {"mass": {"0": 0.5}}, {"mass": None}, {"support": 2},
                                     {}])
    def test_other_objects_are_unchanged(self, obj):
        before = json.loads(json.dumps(obj))
        assert mass_array_hook(obj) is obj
        assert obj == before

    def test_family_params_and_kernels_are_not_touched(self):
        family = {"kind": "poisson_product", "params": {"lambda": [1.0, 2]}}
        job = {"command": "codiv", "inputs": [family] * 3, "options": {"kind": "chi2"}}
        assert json.loads(json.dumps(job), object_hook=mass_array_hook) == job
        kernel = {"rows": 2, "cols": 2, "matrix": [[1, 0.0], [0.5, 0.5]]}
        job = {"command": "dpi", "inputs": [UNIFORM, TILTED], "options": {"kernel": kernel}}
        parsed = json.loads(json.dumps(job), object_hook=mass_array_hook)
        assert parsed["options"] == job["options"]
        assert type(parsed["options"]["kernel"]["matrix"][0]) is list

    @pytest.mark.parametrize("flags", [[], ["--command", "matrix"]])
    def test_main_passes_arrays_to_run(self, tmp_path, monkeypatch, flags):
        seen = []

        def fake_run(job, **kwargs):
            seen.append(job)
            return "", EXIT_OK

        monkeypatch.setattr(cli, "run", fake_run)
        job = {"command": "codiv", "inputs": [UNIFORM, TILTED, {"mass": [1, 0]}],
               "options": {"kind": "chi2"}}
        assert main(["--input", write_job(tmp_path, job), *flags]) == EXIT_OK
        (got,) = seen
        assert got["command"] == (flags[1] if flags else "codiv")
        for doc, want in zip(got["inputs"], job["inputs"]):
            assert type(doc["mass"]) is np.ndarray and doc["mass"].dtype == np.float64
            np.testing.assert_array_equal(doc["mass"], want["mass"])


GOLDEN_CASES = load_cases()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_mass_arrays_change_no_golden_report(monkeypatch, name):
    """Every golden case prints the same bytes with the same status whether ``main`` parses
    its masses into arrays or leaves them as the lists ``json`` makes."""
    shipped = run_case(GOLDEN_CASES[name])
    monkeypatch.setattr(cli, "mass_array_hook", lambda obj: obj)
    assert run_case(GOLDEN_CASES[name]) == shipped


def test_golden_cases_cover_each_mass_rule():
    assert {"invalid-mass-boolean", "invalid-mass-int-beyond-float", "invalid-mass-not-number",
            "invalid-mass-infinite", "invalid-mass-missing"} <= GOLDEN_CASES.keys()


def test_a_parsed_job_holds_each_mass_once(tmp_path, capsys):
    """The tracemalloc peak of ``main`` on a 3 x 1e5-point codiv job stays below 2.2 times
    the job file.  Reading the file takes about 2 (its bytes, then its text); a mass held
    as a list of Python floats until ``validate`` takes about 32 bytes a number, which
    brought the peak to about 2.5."""
    rng = np.random.default_rng(17)
    inputs = [{"support": 10 ** 5, "mass": random_probability(rng, 10 ** 5).mass.tolist()}
              for _ in range(3)]
    path = write_job(tmp_path, {"command": "codiv", "inputs": inputs,
                                "options": {"kind": "alpha:0.5"}})
    del inputs
    tracemalloc.start()
    try:
        status = main(["--input", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK and json.loads(capsys.readouterr().out)["command"] == "codiv"
    size = os.path.getsize(path)
    assert peak < 2.2 * size, f"peak {peak / size:.2f} x the job file of {size} bytes"


def test_a_matrix_report_is_written_within_three_times_its_size():
    """The tracemalloc peak of ``run`` on a 300-measure matrix job stays at or below 3 times
    the report: the entries are formatted from their float array a chunk at a time, and the
    report's pieces are joined once.  Nested strings and a list of every entry as a Python
    float took about 6 times."""
    rng = np.random.default_rng(19)
    inputs = [{"mass": random_probability(rng, 20).mass} for _ in range(301)]
    job = {"command": "matrix", "inputs": inputs, "options": {"kind": "alpha:0.7"}}
    tracemalloc.start()
    try:
        text, status = run(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK and len(text) > 2 * 10 ** 6
    assert peak <= 3 * len(text), f"peak {peak / len(text):.2f} x the report of {len(text)} bytes"
