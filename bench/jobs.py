"""The benchmark's workloads: job documents made from a seed, each with its checker.

A workload's job list has a fixed make-up (commands, kinds, sizes); the seed
draws only the numbers inside the jobs, so runs on different seeds do the
same amount of work.  Jobs marked with ``fault`` reproduce a known defect on
inputs that do not depend on the seed; their checker tests the correct
result, so they fail on every run until the defect is mended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Job:
    name: str
    doc: dict
    check: Callable[[int, bytes, bytes], str | None]
    fmt: str = "json"
    seed: int | None = None  # passed as --seed to randomized suites
    fault: str = ""          # the known defect this job reproduces, if any

    def cli_args(self, path: str) -> list[str]:
        args = ["--input", path]
        if self.fmt != "json":
            args += ["--format", self.fmt]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args


def _prob(rng, n: int, nulls: int = 0) -> list[float]:
    """A random probability vector on n points whose last `nulls` points have no mass."""
    mass = rng.random(n) + 0.05
    if nulls:
        mass[n - nulls:] = 0.0
    return (mass / mass.sum()).tolist()


def _measure(mass) -> dict:
    return {"support": len(mass), "mass": list(mass)}


def _alpha(rng, lo: float = 0.3, hi: float = 2.0) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _direction(rng, p0) -> list[float]:
    """A zero-mass direction dominated by p0 with |d mu / d p0| <= 2."""
    p0 = np.asarray(p0)
    g = rng.uniform(-1.0, 1.0, p0.size) * p0
    return (g - p0 * g.sum()).tolist()


def _off_support_directions(rng, n: int, off: int):
    """p0 on the first n - off points and two zero-mass directions that put mass off supp(p0).

    The `expand` fit is judged by the relative error of its ts coefficient, so
    instances whose coefficient is near zero are drawn again: the fit's
    absolute error (~2e-7 here) would exceed 5% of it.
    """
    p0 = np.asarray(_prob(rng, n, nulls=off))
    supp = p0 > 0
    while True:
        # A shared factor keeps the directions correlated on supp(p0), so the
        # coefficient does not average out on long supports.
        shared = rng.random(supp.sum())
        mus = []
        for _ in range(2):
            outside = rng.uniform(0.5, 1.5, off) * (0.1 / off)
            inside = p0[supp] * (shared + rng.uniform(0.2, 1.0, supp.sum()))
            inside *= -outside.sum() / inside.sum()
            mus.append(np.concatenate([inside, outside]))
        m1, m2 = (mu[supp] for mu in mus)
        if abs(np.sum(m1 * m2 / p0[supp]) - m1.sum() * m2.sum()) / 4.0 >= 5e-5:
            return p0.tolist(), mus[0].tolist(), mus[1].tolist()


def _job_codiv_measures(rng, n: int, kind: str) -> Job:
    p0, p1, p2 = (_prob(rng, n) for _ in range(3))
    return Job(f"codiv-{kind.split(':')[0]}-n{n}",
               {"command": "codiv", "inputs": [_measure(p) for p in (p0, p1, p2)],
                "options": {"kind": kind}},
               checks.check_codiv_measures(p0, p1, p2, kind))


def _job_matrix(rng, m: int, n: int, kind: str, fmt: str, nulls: int = 0) -> Job:
    p0 = _prob(rng, n, nulls)
    ps = [_prob(rng, n) if nulls and j == 0 else _prob(rng, n, nulls) for j in range(m)]
    return Job(f"matrix-{kind.split(':')[0]}-{fmt}-m{m}-n{n}",
               {"command": "matrix", "inputs": [_measure(p) for p in [p0] + ps],
                "options": {"kind": kind}},
               checks.check_matrix(p0, ps, kind, fmt), fmt=fmt)


def _job_rank(rng, m: int, n: int, kind: str) -> Job:
    ps = [_prob(rng, n) for _ in range(m + 1)]
    return Job(f"rank-{kind.split(':')[0]}-m{m}-n{n}",
               {"command": "rank", "inputs": [_measure(p) for p in ps], "options": {"kind": kind}},
               checks.check_rank(m))


def _job_dpi(rng, m: int, n: int, n_out: int) -> Job:
    ps = [_prob(rng, n) for _ in range(m + 1)]
    rows = rng.random((n, n_out)) + 0.02
    kernel = (rows / rows.sum(axis=1, keepdims=True)).tolist()
    return Job(f"dpi-m{m}-n{n}",
               {"command": "dpi", "inputs": [_measure(p) for p in ps],
                "options": {"kernel": {"rows": n, "cols": n_out, "matrix": kernel}}},
               checks.check_dpi(ps[0], ps[1:], kernel))


def _job_suite(rng, command: str, trials: int, support: int, count: int, kind: str = "") -> Job:
    seed = int(rng.integers(0, 2 ** 31))
    options = {"trials": trials, "support": support, "count": count}
    if kind:
        options["kind"] = kind
    return Job(f"{command}-trials{trials}", {"command": command, "options": options},
               checks.check_suite(trials, seed), seed=seed)


def _job_expand_local(rng, n: int, kind: str) -> Job:
    p0 = _prob(rng, n)
    mu, nu = _direction(rng, p0), _direction(rng, p0)
    return Job(f"expand-local-n{n}",
               {"command": "expand", "inputs": [_measure(x) for x in (p0, mu, nu)],
                "options": {"kind": kind, "mode": "local"}},
               checks.check_expand_local(p0, mu, nu, checks.parse_kind(kind)[1]))


def _job_expand_off(rng, n: int, off: int) -> Job:
    p0, mu1, mu2 = _off_support_directions(rng, n, off)
    return Job(f"expand-off-support-n{n}",
               {"command": "expand", "inputs": [_measure(x) for x in (p0, mu1, mu2)],
                "options": {"mode": "off-support"}},
               checks.check_expand_off_support(p0, mu1, mu2))


def _family(kind: str, **params) -> dict:
    return {"kind": kind, "params": {k: [float(x) for x in v] if isinstance(v, np.ndarray) else v
                                     for k, v in params.items()}}


def _family_triple(rng, kind: str, dim: int, high_lambda: bool = False) -> list[dict]:
    """Three members of one family, close enough that R_alpha stays moderate
    and inside the natural domain for every alpha <= 2."""
    def near(base, spread):
        return base * rng.uniform(1.0 - spread, 1.0 + spread, base.size)

    if kind == "gaussian_iso":
        sigma = round(float(rng.uniform(0.5, 2.0)), 3)
        m0 = rng.uniform(-1.0, 1.0, dim)
        return [_family(kind, mean=m0 + sigma * rng.uniform(-0.5, 0.5, dim) * (j > 0),
                        sigma=sigma) for j in range(3)]
    if kind == "poisson_product":
        # High intensities are fixed in size (the oracle's series costs O(lambda)),
        # so every seed asks for the same amount of work.
        lam = (np.logspace(5.0, 4.0, dim) * rng.uniform(0.99, 1.01, dim) if high_lambda
               else rng.uniform(0.5, 50.0, dim))
        spread = 0.003 if high_lambda else 0.3
        return [_family(kind, **{"lambda": near(lam, spread) if j else lam}) for j in range(3)]
    if kind == "bernoulli_product":
        return [_family(kind, theta=rng.uniform(0.1, 0.9, dim)) for _ in range(3)]
    if kind == "exponential_product":
        beta = rng.uniform(0.5, 2.0, dim)
        return [_family(kind, beta=near(beta, 0.2) if j else beta) for j in range(3)]
    shape, rate = rng.uniform(0.3, 0.9, dim), rng.uniform(0.5, 2.0, dim)
    return [_family(kind, shape=near(shape, 0.15) if j else shape,
                    rate=near(rate, 0.15) if j else rate) for j in range(3)]


def _job_family(rng, command: str, kind: str, dim: int, codiv_kind: str,
                by_integral: bool = False, high_lambda: bool = False) -> Job:
    docs = _family_triple(rng, kind, dim, high_lambda)
    make = checks.check_oracle if command == "oracle-check" else checks.check_codiv_family
    return Job(f"{command}-{kind}-d{dim}-{codiv_kind.split(':')[0]}",
               {"command": command, "inputs": docs, "options": {"kind": codiv_kind}},
               make(docs, codiv_kind, by_integral))


# --- the two known faults, on fixed inputs ---------------------------------

def _fault_gaussian_window() -> Job:
    docs = [_family("gaussian_iso", mean=[m], sigma=0.3) for m in (0.0, 0.5, 0.5)]
    return Job("fault-oracle-gaussian-window",
               {"command": "oracle-check", "inputs": docs, "options": {"kind": "alpha:3"}},
               checks.check_oracle(docs, "alpha:3"),
               fault="the Gaussian oracle window misses the tilted centre: exit 4, "
                     "relative error 1.2e-4; correct is e^25 - 1 within 1e-7")


def _fault_poisson_overflow() -> Job:
    docs = [_family("poisson_product", **{"lambda": [x]}) for x in (1.0, 100.0, 100.0)]
    return Job("fault-codiv-poisson-overflow",
               {"command": "codiv", "inputs": docs, "options": {"kind": "chi2"}},
               checks.check_codiv_family(docs, "chi2"),
               fault="chi2 codiv on Poisson (1, 100, 100) raises OverflowError (exit 1); "
                     "correct is exit 0 with value inf, or a documented exit 3")


# --- workloads -------------------------------------------------------------

def startup_mix(rng) -> list[Job]:
    a = _alpha(rng)
    kinds = ["chi2", "hellinger", f"alpha:{a}", f"valpha:{a}"]
    jobs = [_job_codiv_measures(rng, 8, k) for k in kinds]
    jobs += [_job_family(rng, "codiv", fam, 1, k, by_integral=fam in ("poisson_product",
                                                                       "bernoulli_product"))
             for fam, k in zip(("gaussian_iso", "poisson_product", "bernoulli_product",
                                "exponential_product", "gamma_product"),
                               ("chi2", "hellinger", f"alpha:{a}", "chi2", f"alpha:{a}"))]
    jobs += [_job_matrix(rng, 3, 8, k, fmt, nulls=1 if k in ("chi2", f"alpha:{a}") else 0)
             for k, fmt in zip(kinds, ("json", "csv", "json", "csv"))]
    jobs += [_job_rank(rng, 3, 8, k) for k in kinds]
    jobs += [_job_suite(rng, "rank", 3, 6, 3, f"alpha:{a}"), _job_suite(rng, "dpi", 3, 6, 3),
             _job_dpi(rng, 3, 8, 5), _job_expand_local(rng, 8, f"alpha:{a}"),
             _job_expand_off(rng, 8, 2)]
    jobs += [_job_family(rng, "oracle-check", fam, 1, k)
             for fam, k in (("exponential_product", "chi2"), ("bernoulli_product", "hellinger"),
                            ("gaussian_iso", f"alpha:{_alpha(rng, 0.5, 1.5)}"))]
    jobs += _validation_errors(rng)
    jobs.append(_fault_poisson_overflow())
    return jobs


def _validation_errors(rng) -> list[Job]:
    """Malformed jobs whose correct outcome is exit 2 with a finding at a known path."""
    p0, p1 = _prob(rng, 4), _prob(rng, 4)
    bad = list(p1)
    bad[2] = -bad[2]
    theta = round(float(rng.uniform(1.0, 2.0)), 3)
    fams = _family_triple(rng, "bernoulli_product", 1)
    fams[1]["params"]["theta"] = [theta]
    kernel = [[0.5, 0.5], [0.6, 0.5], [0.5, 0.5], [0.5, 0.5]]
    poisson = _family_triple(rng, "poisson_product", 1)
    cases = [
        ("matrix", [_measure(p0), _measure(p1), _measure(bad)], {"kind": "chi2"}, "/inputs/2/mass/2"),
        ("codiv", fams, {"kind": "chi2"}, "/inputs/1/params/theta/0"),
        ("dpi", [_measure(p0), _measure(p1)], {"kernel": {"matrix": kernel}}, "/options/kernel/matrix/1"),
        ("codiv", poisson, {"kind": "valpha:0.5"}, "/options/kind"),
    ]
    return [Job(f"invalid-{command}-{path.strip('/').replace('/', '-')}",
                {"command": command, "inputs": inputs, "options": options},
                checks.check_validation_error(path))
            for command, inputs, options, path in cases]


def matrix_many(rng) -> list[Job]:
    a = _alpha(rng, 0.5, 1.5)
    return [
        _job_matrix(rng, 100, 100, "chi2", "json"),
        _job_matrix(rng, 100, 100, "hellinger", "csv"),
        _job_matrix(rng, 200, 50, f"alpha:{a}", "json"),
        _job_matrix(rng, 100, 100, f"valpha:{a}", "csv"),
        _job_rank(rng, 100, 200, "chi2"),
        _job_rank(rng, 60, 120, "hellinger"),
        _job_rank(rng, 60, 120, f"alpha:{a}"),
        _job_rank(rng, 60, 120, f"valpha:{a}"),
        _job_dpi(rng, 50, 500, 50),
    ]


def wide_support(rng) -> list[Job]:
    n = 100_000
    a = _alpha(rng, 0.5, 1.5)
    return [
        _job_codiv_measures(rng, n, "chi2"),
        _job_codiv_measures(rng, n, "hellinger"),
        _job_codiv_measures(rng, n, f"alpha:{a}"),
        _job_codiv_measures(rng, n, f"valpha:{a}"),
        _job_matrix(rng, 2, n, "chi2", "json"),
        _job_matrix(rng, 2, n, "hellinger", "csv"),
        _job_matrix(rng, 3, n, f"alpha:{a}", "json"),
        _job_expand_local(rng, n, f"alpha:{a}"),
        _job_expand_off(rng, n, n // 10),
    ]


def oracle_families(rng) -> list[Job]:
    def k():
        return f"alpha:{_alpha(rng, 0.5, 1.5)}"
    return [
        _job_family(rng, "oracle-check", "gaussian_iso", 1, k(), by_integral=True),
        _job_family(rng, "oracle-check", "gaussian_iso", 3, "chi2"),
        _job_family(rng, "codiv", "gaussian_iso", 2, "hellinger"),
        _job_family(rng, "oracle-check", "poisson_product", 1, k(), by_integral=True),
        _job_family(rng, "oracle-check", "poisson_product", 2, "chi2", high_lambda=True),
        _job_family(rng, "codiv", "poisson_product", 3, k(), high_lambda=True),
        _job_family(rng, "oracle-check", "bernoulli_product", 1, k(), by_integral=True),
        _job_family(rng, "oracle-check", "bernoulli_product", 5, "hellinger"),
        _job_family(rng, "oracle-check", "exponential_product", 1, k(), by_integral=True),
        _job_family(rng, "codiv", "exponential_product", 3, "chi2"),
        _job_family(rng, "oracle-check", "gamma_product", 1, k(), by_integral=True),
        _job_family(rng, "oracle-check", "gamma_product", 3, "hellinger"),
        _job_family(rng, "codiv", "gamma_product", 2, k()),
        _fault_gaussian_window(),
    ]


WORKLOADS = {
    "startup-mix": startup_mix,
    "matrix-many": matrix_many,
    "wide-support": wide_support,
    "oracle-families": oracle_families,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](np.random.default_rng([seed, list(WORKLOADS).index(workload)]))
