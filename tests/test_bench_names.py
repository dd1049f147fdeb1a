"""The names that the benchmark looks up in the package still exist.

``bench/tracer.py`` wraps the functions that its SPANS table names by module and
attribute, and the bench scripts import names from ``codiv``.  A rename in the
package breaks a traced benchmark run; these tests catch it without one.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans() -> dict:
    return _load_tracer().SPANS


def _codiv_imports() -> list:
    """(module, name) of every ``from codiv... import name`` in the bench scripts."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "codiv":
                found += [(node.module, alias.name) for alias in node.names]
    return found


TRACED = [target for targets in _load_spans().values() for target in targets]
IMPORTED = _codiv_imports()


@pytest.mark.parametrize("module_name, attr", TRACED)
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:  # a method, which the tracer patches on its class
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr, None))


def test_bench_imports_resolve():
    assert ("codiv", "jacobi_eigenvalues") in IMPORTED  # bench/figures.py
    missing = [(module_name, name) for module_name, name in IMPORTED
               if not hasattr(importlib.import_module(module_name), name)]
    assert missing == []


def test_traced_oracle_check_counts_its_integrand_points():
    """The tracer counts each refinement's points by their ``size``: the new points of each
    halving of the trapezoid's step."""
    from codiv import oracles
    from codiv.cli import run

    job = {"command": "oracle-check", "options": {"kind": "alpha:0.5"},
           "inputs": [{"kind": "gaussian_iso", "params": {"mean": [m], "sigma": 1.0}}
                      for m in (0.0, 0.4, -0.3)]}
    module = _load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        traced = run(job)
    finally:
        tracer.uninstall()
    sizes = []  # the length of every refinement's points, recorded without the tracer
    quadrature = oracles.trapezoid

    def recording(f, lo, hi):
        return quadrature(lambda xs: sizes.append(len(xs)) or f(xs), lo, hi)

    oracles.trapezoid = recording
    try:
        assert run(job) == traced and traced[1] == 0
    finally:
        oracles.trapezoid = quadrature
    assert sizes.count(17) == 3 and len(sizes) >= 6
    assert tracer.calls["oracles.quadrature"] == 3
    assert tracer.counts[module.INTEGRAND_POINTS] == sum(sizes)
