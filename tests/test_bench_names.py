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


def _load_spans() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


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
