"""In-process tracing of codiv's layers from outside the package.

While a Tracer is installed, the public functions listed in SPANS are
replaced by timing wrappers in every codiv module that binds them by name
(``divergence_matrix`` is looked up in both ``cli`` and ``matrices``, for
example), so every call is counted whichever module makes it.  Uninstalling
puts the original objects back; an uninstalled tracer costs nothing.

A span's self time is its duration minus the time of the traced spans it
called.  Spans are aggregated by name as they close, which keeps memory flat
on jobs that make tens of thousands of calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of every function recorded under it.
SPANS = {
    "cli.validate": [("codiv.cli", "validate")],
    "cli.run": [("codiv.cli", "run")],
    "measures.construct": [("codiv.measures", "DiscreteMeasure.__post_init__"),
                           ("codiv.measures", "SignedMeasure.__post_init__")],
    "codivergence.pair": [("codiv.codivergence", name)
                          for name in ("chi2_codiv", "hellinger_codiv", "v_phi", "r_phi")],
    "matrices.build": [("codiv.matrices", "divergence_matrix")],
    "matrices.jacobi": [("codiv.matrices", "jacobi_eigenvalues")],
    "matrices.push_forward": [("codiv.matrices", "push_forward")],
    "matrices.rank": [("codiv.matrices", "rank_with_identity")],
    "matrices.dpi": [("codiv.matrices", "dpi_check")],
    "families.construct": [("codiv.families", "family_from_json_dict")],
    "families.closed_form": [("codiv.families", "r_alpha_closed")],
    "oracles.oracle": [("codiv.oracles", "oracle_r_alpha")],
    "oracles.quadrature": [("codiv.oracles", "adaptive_gauss_legendre")],
    "local.expansion": [("codiv.local", "expansion_check")],
    "local.off_support": [("codiv.local", "hellinger_off_support_check")],
    "serialize.dumps": [("codiv.serialize", "dumps_canonical")],
    "serialize.csv": [("codiv.serialize", "matrix_to_csv")],
}

INTEGRAND_POINTS = "oracles.integrand_points"


class Tracer:
    """Self time and call count per span name, plus plain counters, while installed."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span name, seconds spent in traced children]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:  # recursion stays inside one span
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed

        return traced

    def _count_points(self, fn):
        """Wrap adaptive_gauss_legendre so that its integrand counts the points it is given."""
        counts = self.counts

        def quadrature(f, *args, **kwargs):
            def integrand(x):
                counts[INTEGRAND_POINTS] += x.size
                return f(x)
            return fn(integrand, *args, **kwargs)
        return quadrature

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "codiv" or n.startswith("codiv.")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                if "." in attr:  # a method: patch it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                inner = (self._count_points(original)
                         if name == "oracles.quadrature" else original)
                wrapped = self._wrap(name, inner)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
