"""Importing the package or its CLI loads no third-party module, and a job loads only the
modules its command needs: numpy only for a job that computes with arrays.

Every CLI run pays for its imports, so a module-level import of a test-only or
unused dependency (mpmath, hypothesis, scipy, orjson) shows up directly in the
start-up time of each job.  The modules a fresh interpreter loads anyway (site
hooks of installed packages, say) are measured in a bare interpreter and cancel
out.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import codiv

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The names the package exported when its __init__ imported every module, by module.
EXPORTED = {
    "codivergence": ["PHI_IDENTITY", "PHI_SQRT", "Features", "PhiFunction", "chi2_codiv",
                     "features", "hellinger_codiv", "phi_alpha", "r_phi", "v_phi"],
    "errors": ["CodivError", "DegeneratePhiError", "DimensionMismatchError", "DominationError",
               "KindMismatchError", "OracleFailureError", "PreconditionError"],
    "families": ["BernoulliProd", "ExponentialProd", "GammaProd", "GaussianIso", "ParamFamily",
                 "PoissonProd", "family_from_json_dict", "gamma_first_order", "r_alpha_closed",
                 "r_alpha_closed_log1p"],
    "local": ["ExpansionReport", "OffSupportReport", "PerturbationPair", "expansion_check",
              "fisher_gram", "fisher_inner", "geometric_decay_ok",
              "hellinger_off_support_check"],
    "matrices": ["DiagnosticStatus", "DivMatrix", "DpiReport", "EigenSummary", "MarkovKernel",
                 "RankReport", "chi2_signed", "chi2_signed_decomposition_check",
                 "divergence_matrix", "dpi_check", "eigen_summary", "jacobi_eigenvalues",
                 "link_identity_check", "phi_normalizers", "push_forward",
                 "quadratic_form_check", "rank_with_identity"],
    "measures": ["DiscreteMeasure", "JordanDecomposition", "SignedMeasure", "dominated_by",
                 "ess_sup_ratio", "jordan_decompose", "perturb", "validity_radius"],
    "oracles": ["adaptive_gauss_legendre", "oracle_divergence_matrix", "oracle_natural_r_alpha",
                "oracle_r_alpha", "r_alpha_product"],
}


def _modules(statement: str) -> set:
    """The names in sys.modules of a fresh interpreter after ``statement``."""
    script = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    return set(json.loads(out))


def _top_level(modules: set) -> set:
    return {name.partition(".")[0] for name in modules}


@pytest.mark.parametrize("module", ["codiv.cli", "codiv"])
def test_import_loads_no_third_party_module_but_numpy(module):
    loaded = _top_level(_modules(f"import {module}")) - _top_level(_modules("pass"))
    third_party = loaded - set(sys.stdlib_module_names)
    assert {"codiv"} <= third_party <= {"codiv", "numpy"}, sorted(third_party)


def test_cli_import_loads_no_command_specific_module():
    loaded = _modules("import codiv.cli")
    assert not loaded & {"codiv.local", "codiv.oracles", "codiv.families", "numpy.polynomial",
                         "numpy.random", "csv", "fractions"}


def test_cli_import_loads_no_numpy():
    loaded = _modules("import codiv.cli")
    assert "numpy" not in loaded
    assert loaded & {f"codiv.{name}" for name in EXPORTED} == {"codiv.errors"}


def _family_job(kind, params, command="codiv"):
    return {"command": command, "options": {"kind": "alpha:0.5"},
            "inputs": [{"kind": kind, "params": p} for p in params]}


SCALAR_FAMILY_JOBS = {
    "gaussian_iso": _family_job("gaussian_iso", [{"mean": [m, 1.0], "sigma": 2.0}
                                                 for m in (0.0, 0.4, -0.3)]),
    "bernoulli_product": _family_job("bernoulli_product",
                                     [{"theta": [t]} for t in (0.2, 0.5, 0.7)]),
    "exponential_product": _family_job("exponential_product", [{"beta": [b]} for b in (1, 2, 3)]),
    "gamma_product": _family_job("gamma_product", [{"shape": [1.5], "rate": [r]}
                                                   for r in (1.0, 1.25, 0.75)]),
}


@pytest.mark.parametrize("kind", sorted(SCALAR_FAMILY_JOBS))
def test_family_closed_forms_load_no_numpy(kind):
    """The closed forms but Poisson's are scalar arithmetic on tuples of floats."""
    job = SCALAR_FAMILY_JOBS[kind]
    assert "numpy" not in _modules(f"from codiv.cli import run\nassert run({job!r})[1] == 0")


def test_a_family_job_file_loads_no_numpy(tmp_path):
    """Through ``main``: the mass hook loads nothing for a job without a "mass"."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(SCALAR_FAMILY_JOBS["gamma_product"]))
    script = ("import contextlib, io\nfrom codiv.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              f"    assert main(['--input', {str(path)!r}]) == 0, out.getvalue()")
    assert "numpy" not in _modules(script)


REJECTED_JOBS = {
    "unknown command": {"command": "nope", "inputs": [{"mass": [1.0]}]},
    "options not an object": {"command": "matrix", "options": [], "inputs": [{"mass": [1.0]}]},
    "bad suite option": {"command": "rank", "options": {"trials": 0, "kind": "chi2"}},
    "bad family parameter": _family_job("bernoulli_product",
                                        [{"theta": [t]} for t in (0.5, 1, 0.5)]),
    "bad oracle-check parameter": _family_job("poisson_product", [{"lambda": [-1.0]}] * 3,
                                              "oracle-check"),
    "not an object": [{"mass": [1.0]}],
}


@pytest.mark.parametrize("name", sorted(REJECTED_JOBS))
def test_a_job_rejected_before_its_inputs_are_built_loads_no_numpy(name):
    script = f"from codiv.cli import run\nassert run({REJECTED_JOBS[name]!r})[1] == 2"
    assert "numpy" not in _modules(script)


@pytest.mark.parametrize("job", [
    _family_job("poisson_product", [{"lambda": [x]} for x in (1.0, 2.0, 3.0)]),
    _family_job("poisson_product", [{"lambda": [x]} for x in (1.0, 2.0, 3.0)], "oracle-check"),
    SCALAR_FAMILY_JOBS["gamma_product"] | {"command": "oracle-check"},
], ids=["poisson-codiv", "poisson-oracle-check", "gamma-oracle-check"])
def test_jobs_that_compute_with_arrays_still_pass(job):
    assert "numpy" in _modules(f"from codiv.cli import run\nassert run({job!r})[1] == 0")


ORACLE_JOB = {"command": "oracle-check", "options": {"kind": "alpha:0.5"},
              "inputs": [{"kind": "gaussian_iso", "params": {"mean": [m], "sigma": 1.0}}
                         for m in (0.0, 0.4, -0.3)]}


@pytest.mark.parametrize("statement", [
    "import codiv.oracles",
    f"from codiv.cli import run\nassert run({ORACLE_JOB!r})[1] == 0",
], ids=["import", "oracle-check"])
def test_oracles_load_no_numpy_polynomial(statement):
    """The quadrature rule is a constant: the oracles never build it with leggauss."""
    assert not {name for name in _modules(statement) if name.startswith("numpy.polynomial")}


SUITE_JOBS = [{"command": command, "options": {"trials": 2, "kind": "chi2"}}
              for command in ("rank", "dpi")]


def test_seeded_suites_load_no_numpy_random():
    """The suites draw from the package's own SplitMix64 stream, not from numpy.random."""
    script = "from codiv.cli import run\n" + "".join(f"assert run({job!r}, seed=3)[1] == 0\n"
                                                     for job in SUITE_JOBS)
    assert not {name for name in _modules(script) if name.startswith("numpy.random")}


def test_package_import_loads_no_numpy():
    assert "numpy" not in _modules("import codiv")


@pytest.mark.parametrize("module_name, name",
                         [(module, name) for module, names in EXPORTED.items() for name in names])
def test_exported_name_resolves_to_its_module(module_name, name):
    assert name in codiv.__all__
    assert getattr(codiv, name) is getattr(importlib.import_module(f"codiv.{module_name}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        codiv.no_such_name  # noqa: B018
    assert not hasattr(codiv, "exact_sum")  # defined in measures, never exported


def test_no_atexit_handler_is_registered():
    """The CLI ends with os._exit, which runs no atexit handler, so none may be needed."""
    script = ("import atexit, numpy, codiv\n"
              "before = atexit._ncallbacks()\n"
              "for name in codiv.__all__: getattr(codiv, name)\n"
              "import codiv.cli, codiv.serialize\n"
              "assert atexit._ncallbacks() == before, atexit._ncallbacks()")
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": SRC})
