"""Reference figures: the baseline table of ROADMAP item 1, measured again.

    python3 bench/figures.py

Run it from the repository root.  Each row times one library call (or one
CLI process) next to the numpy computation that gives the same numbers; a
row reports the best of three timings (of one when a timing exceeds 2 s, of
fifteen interleaved pairs for CLI processes).  BLAS runs on one thread, as
in the CLI children.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS

import numpy as np  # noqa: E402

import run as harness  # noqa: E402

sys.path.insert(0, harness.SRC)
from codiv import (DiscreteMeasure, MarkovKernel, PoissonProd, divergence_matrix,  # noqa: E402
                   jacobi_eigenvalues, oracle_r_alpha, phi_alpha, push_forward)


def best(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        if times[-1] > 2.0:
            break
    return min(times)


def measures(rng, m: int, n: int):
    rows = rng.random((m + 1, n)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return rows, DiscreteMeasure(rows[0]), [DiscreteMeasure(r) for r in rows[1:]]


def main() -> int:
    rng = np.random.default_rng(0)
    table = []

    rows, p0, ps = measures(rng, 100, 100)
    table.append(("divergence_matrix chi2, M=N=100",
                  best(lambda: divergence_matrix(p0, ps, "chi2")),
                  best(lambda: (rows[1:] / rows[0]) @ rows[1:].T - 1.0)))

    rows, p0, ps = measures(rng, 200, 1000)
    phi = phi_alpha(0.5)

    def numpy_rphi():
        f = np.sqrt(rows[1:] / rows[0])
        norms = f @ rows[0]
        return ((f * rows[0]) @ f.T) / np.outer(norms, norms) - 1.0
    table.append(("divergence_matrix rphi, M=200, N=1e3",
                  best(lambda: divergence_matrix(p0, ps, "rphi", phi=phi)), best(numpy_rphi)))

    a = rng.random((100, 100))
    a = a + a.T
    table.append(("jacobi_eigenvalues, 100x100", best(lambda: jacobi_eigenvalues(a)),
                  best(lambda: np.linalg.eigvalsh(a))))

    k = rng.random((2000, 2000)) + 0.02
    k /= k.sum(axis=1, keepdims=True)
    kernel = MarkovKernel(k)
    q = DiscreteMeasure(measures(rng, 0, 2000)[0][0])
    table.append(("push_forward, N=2000", best(lambda: push_forward(kernel, q)),
                  best(lambda: q.mass @ k)))

    fams = [PoissonProd([lam]) for lam in (1e4, 1.01e4, 0.99e4)]
    table.append(("oracle_r_alpha Poisson, lambda=1e4",
                  best(lambda: oracle_r_alpha(*fams, 1.0)), math.nan))

    os.makedirs(harness.WORK, exist_ok=True)
    job_path = os.path.join(harness.WORK, "figures-job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump({"command": "codiv", "options": {"kind": "chi2"},
                   "inputs": [{"kind": "poisson_product", "params": {"lambda": [x]}}
                              for x in (1.0, 2.0, 3.0)]}, fh)
    with harness.Runner(os.path.join(harness.WORK, "figures-stderr.txt")) as runner:
        runner.run(["-m", "compileall", "-q", os.path.join(harness.SRC, "codiv")])
        pairs = [(runner.run(["-m", "codiv", "--input", job_path])[2],
                  runner.run(["-c", "import codiv.cli"])[2]) for _ in range(15)]
        table.append(("CLI codiv, trivial Poisson job (wall)",
                      min(job for job, _ in pairs), min(imp for _, imp in pairs)))

    print(f"{'path':42s} {'now':>10s} {'numpy reference':>16s}")
    for name, now, ref in table:
        ref_text = "-" if math.isnan(ref) else f"{ref * 1000:.3g} ms"
        print(f"{name:42s} {now * 1000:8.4g} ms {ref_text:>16s}")
    print("(last row: the reference column is `import codiv.cli` alone in a fresh interpreter)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
