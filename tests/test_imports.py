"""Importing the package or its CLI loads no third-party module but numpy, and a job
loads only the modules its command needs.

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
