"""Importing the package or its CLI loads no third-party module but numpy.

Every CLI run pays for its imports, so a module-level import of a test-only or
unused dependency (mpmath, hypothesis, scipy, orjson) shows up directly in the
start-up time of each job.  The modules a fresh interpreter loads anyway (site
hooks of installed packages, say) are measured in a bare interpreter and cancel
out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _top_level_modules(statement: str) -> set:
    """The top-level names in sys.modules of a fresh interpreter after ``statement``."""
    script = (f"{statement}\nimport json, sys\n"
              "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}).stdout
    return set(json.loads(out))


@pytest.mark.parametrize("module", ["codiv.cli", "codiv"])
def test_import_loads_no_third_party_module_but_numpy(module):
    loaded = _top_level_modules(f"import {module}") - _top_level_modules("pass")
    third_party = loaded - set(sys.stdlib_module_names)
    assert {"codiv"} <= third_party <= {"codiv", "numpy"}, sorted(third_party)
