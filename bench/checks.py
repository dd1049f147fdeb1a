"""Reference values and report checkers that do not use the codiv package.

A checker is built during set-up, when the reference it needs is computed,
and is called later with one job's outcome: exit code, stdout bytes and
stderr bytes.  It returns None when the outcome is right and a one-line
reason when it is not.

Tolerances bound the rounding error of the sums a value is made of: they
scale with the magnitude of the summed terms and with their number, never
with a result that may have cancelled.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath
import numpy as np

EPS = 2.0 ** -52
ORACLE_REL_TOL = 1e-7  # the accuracy `oracle-check` promises for its oracle
QUAD_REL_TOL = 1e-9    # agreement of a closed form with an mpmath integral or series


class Mismatch(Exception):
    """A report differs from what the reference says it must be."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def sum_tol(n_terms: int, scale):
    """Bound on the rounding error of a sum of n_terms terms of total magnitude scale."""
    return 16.0 * n_terms * EPS * scale


def checker(fn):
    """Turn a function that raises Mismatch into one that returns the reason or None."""
    def check(code: int, out: bytes, err: bytes):
        try:
            fn(code, out, err)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None
    return check


def report(code: int, out: bytes, want_exit: int = 0) -> dict:
    need(code == want_exit, f"exit {code}, expected {want_exit}")
    doc = json.loads(out)
    need(isinstance(doc, dict), "report is not a JSON object")
    return doc


def as_float(x) -> float:
    if x == "inf":
        return math.inf
    need(isinstance(x, (int, float)) and not isinstance(x, bool), f"not a number: {x!r}")
    return float(x)


def parse_kind(text: str) -> tuple[str, float]:
    if text == "chi2":
        return "chi2", 1.0
    if text == "hellinger":
        return "hellinger", 0.5
    prefix, _, value = text.partition(":")
    return {"alpha": "rphi", "valpha": "vphi"}[prefix], float(value)


# --- divergence matrices -------------------------------------------------

def matrix_reference(p0, ps, kind: str):
    """(values, tolerances) of the M x M divergence matrix, computed with numpy.

    chi2:       P diag(1/p0) P' - 1
    hellinger:  sqrt(P) sqrt(P)' / (a a') - 1 with a = sqrt(P) sqrt(p0)
    alpha:a:    the chi2 construction from F = (P/p0)^a, normalized by F p0
    valpha:a:   F diag(p0) F' - (F p0)(F p0)'
    Entries whose measures are not dominated by p0 are +inf (hellinger: a zero affinity).
    """
    base, alpha = parse_kind(kind)
    p0 = np.asarray(p0, dtype=float)
    P = np.asarray(ps, dtype=float)
    n = p0.size
    supp = p0 > 0
    dom = np.all(P[:, ~supp] == 0, axis=1)
    infinite = ~(dom[:, None] & dom[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        if base == "chi2":
            cross = (P[:, supp] / p0[supp]) @ P[:, supp].T
            value, scale = cross - 1.0, cross + 1.0
        elif base == "hellinger":
            roots = np.sqrt(P)
            aff = np.outer(roots @ np.sqrt(p0), roots @ np.sqrt(p0))
            ratio = (roots @ roots.T) / aff
            value, scale = ratio - 1.0, ratio + 1.0
            infinite = aff <= 0
        else:
            F = (P[:, supp] / p0[supp]) ** alpha
            cross = (F * p0[supp]) @ F.T
            norms = np.outer(F @ p0[supp], F @ p0[supp])
            if base == "rphi":
                value, scale = cross / norms - 1.0, cross / norms + 1.0
            else:
                value, scale = cross - norms, cross + norms
    value[infinite] = math.inf
    return value, np.where(infinite, 0.0, sum_tol(n, scale))


def compare_matrix(got, value, tol, what: str = "entry") -> None:
    m = value.shape[0]
    got = np.array([as_float(x) for x in got], dtype=float)
    need(got.size == m * m, f"{got.size} entries, expected {m * m}")
    got = got.reshape(m, m)
    need(np.array_equal(np.isinf(got), np.isinf(value)), f"{what}: infinite cells differ")
    fin = np.isfinite(value)
    err = np.abs(got[fin] - value[fin]) - tol[fin]
    if err.size and err.max() > 0:
        i = int(np.argmax(err))
        need(False, f"{what} off by {err[i] + tol[fin][i]:.3g} (tolerance {tol[fin][i]:.3g})")


def parse_csv_matrix(out: bytes):
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"), newline="")))
    head = rows[0]
    need(head[0] == "kind" and head[2] == "size" and head[4] == "reference", "bad CSV header")
    size = int(head[3])
    need(len(rows) == size + 1 and all(len(r) == size for r in rows[1:]), "bad CSV shape")
    need(out.endswith(b"\r\n"), "CSV rows must end with CRLF")
    return head[1], [x if x == "inf" else float(x) for r in rows[1:] for x in r]


def check_matrix(p0, ps, kind: str, fmt: str):
    value, tol = matrix_reference(p0, ps, kind)
    base = parse_kind(kind)[0]

    @checker
    def check(code, out, err):
        if fmt == "csv":
            need(code == 0, f"exit {code}, expected 0")
            got_kind, entries = parse_csv_matrix(out)
        else:
            mat = report(code, out)["matrix"]
            got_kind, entries = mat["kind"], mat["entries"]
            need(mat["size"] == len(ps), "wrong size")
        need(got_kind == base, f"kind {got_kind!r}, expected {base!r}")
        compare_matrix(entries, value, tol)
    return check


def check_codiv_measures(p0, p1, p2, kind: str):
    value, tol = matrix_reference(p0, [p1, p2], kind)

    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["kind"] == kind, "kind not echoed")
        got = as_float(doc["value"])
        if math.isinf(value[0, 1]):
            need(math.isinf(got), f"value {got!r}, expected inf")
        else:
            need(abs(got - value[0, 1]) <= tol[0, 1],
                 f"value {got!r}, expected {value[0, 1]!r} within {tol[0, 1]:.3g}")
    return check


def check_rank(m: int):
    """A generic dominated family of m < N measures has matrix rank = function rank = m."""
    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["status"] == "ok" and doc["passed"] is True, "rank identity not passed")
        need(doc["matrix_rank"] == doc["function_rank"] == m,
             f"ranks {doc['matrix_rank']}/{doc['function_rank']}, expected {m}")
    return check


def check_suite(trials: int, seed: int):
    """Seeded suites (`rank`/`dpi` with `trials`) must pass every trial and echo their seed."""
    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["passed"] is True and doc["trials"] == trials and doc["seed"] == seed,
             "suite did not pass or did not echo trials and seed")
        if "agreements" in doc:
            need(doc["agreements"] == trials, "a trial disagreed")
        else:
            need(doc["floor"] == -1e-9, "floor is not the default -1e-9")
            need(doc["worst_scaled_min_eigenvalue"] >= doc["floor"], "worst eigenvalue below the floor")
    return check


def check_dpi(p0, ps, kernel):
    """`before` and `after` against numpy, and the smallest eigenvalue of their difference."""
    K = np.asarray(kernel, dtype=float)
    before, tol_b = matrix_reference(p0, ps, "chi2")
    after, tol_a = matrix_reference(np.asarray(p0) @ K, np.asarray(ps) @ K, "chi2")
    # The pushed-forward masses carry a relative error up to sum_tol(rows, 1).
    tol_a = tol_a + 3.0 * sum_tol(K.shape[0], 1.0) * (after + 1.0)
    diff = before - after
    min_eig = float(np.linalg.eigvalsh(diff)[0])
    tol_eig = float(np.linalg.norm(tol_b + tol_a)) + sum_tol(diff.shape[0], np.linalg.norm(diff))

    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["passed"] is True, "data-processing inequality not passed")
        compare_matrix(doc["before"]["entries"], before, tol_b, "before")
        compare_matrix(doc["after"]["entries"], after, tol_a, "after")
        got = doc["min_eigenvalue_of_difference"]
        need(abs(got - min_eig) <= tol_eig,
             f"min eigenvalue {got!r}, expected {min_eig!r} within {tol_eig:.3g}")
        need(doc["min_eigenvalue_of_difference"] >= doc["floor"], "eigenvalue below the floor")
    return check


def check_expand_local(p0, mu, nu, alpha: float):
    """`passed`, and fisher_inner = sum(mu * nu / p0) over supp(p0)."""
    p0, mu, nu = (np.asarray(x, dtype=float) for x in (p0, mu, nu))
    supp = p0 > 0
    terms = mu[supp] * nu[supp] / p0[supp]
    inner = float(np.sum(terms))
    tol = sum_tol(terms.size, float(np.sum(np.abs(terms))))

    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["passed"] is True, "expansion check not passed")
        got = doc["report"]["fisher_inner"]
        need(abs(got - inner) <= tol, f"fisher_inner {got!r}, expected {inner!r} within {tol:.3g}")
        coeff = doc["report"]["coefficient"]
        need(abs(coeff - alpha * alpha * inner) <= alpha * alpha * tol + 4 * EPS * abs(coeff),
             "coefficient is not alpha^2 * fisher_inner")
    return check


def check_expand_off_support(p0, mu1, mu2, rel_tol: float = 0.05):
    """`passed`, the expected two-scale coefficients, and the fit within rel_tol of them."""
    p0, mu1, mu2 = (np.asarray(x, dtype=float) for x in (p0, mu1, mu2))
    supp = p0 > 0
    off = np.sqrt(np.maximum(mu1[~supp], 0.0) * np.maximum(mu2[~supp], 0.0))
    sqrt_ts = float(np.sum(off))
    inner = mu1[supp] * mu2[supp] / p0[supp]
    m1, m2 = float(np.sum(mu1[supp])), float(np.sum(mu2[supp]))
    ts = (float(np.sum(inner)) - m1 * m2) / 4.0
    n = p0.size
    tol_sqrt = sum_tol(n, sqrt_ts)
    tol_ts = sum_tol(n, float(np.sum(np.abs(inner)))
                     + float(np.sum(np.abs(mu1))) * float(np.sum(np.abs(mu2)))) / 4.0

    @checker
    def check(code, out, err):
        doc = report(code, out)
        need(doc["passed"] is True, "off-support expansion not passed")
        expected, fitted = doc["report"]["expected"], doc["report"]["fitted"]
        need(abs(expected["sqrt_ts"] - sqrt_ts) <= tol_sqrt, "expected sqrt_ts coefficient")
        need(abs(expected["ts"] - ts) <= tol_ts, "expected ts coefficient")
        for key, ref in (("sqrt_ts", sqrt_ts), ("ts", ts)):
            rel = abs(fitted[key] - ref) / abs(ref)
            need(rel <= rel_tol, f"fitted {key} is {rel:.3g} away from the expected coefficient")
    return check


def check_validation_error(path: str):
    """Exit 2 with a validation finding at the given JSON path."""
    @checker
    def check(code, out, err):
        doc = report(code, out, want_exit=2)
        error = doc["error"]
        need(error["code"] == "validation", "error code is not 'validation'")
        paths = [f["path"] for f in error["findings"]]
        need(path in paths, f"no finding at {path}; findings at {paths}")
    return check


# --- parametric families -------------------------------------------------

def _natural(kind: str, params: dict):
    """(natural parameter, log-partition, domain test) of one family member, in mpmath."""
    mpf = mpmath.mpf
    if kind == "gaussian_iso":
        s2 = mpf(params["sigma"]) ** 2
        return ([mpf(m) / s2 for m in params["mean"]],
                lambda th: s2 * sum(t * t for t in th) / 2, lambda th: True)
    if kind == "poisson_product":
        return ([mpmath.log(x) for x in params["lambda"]],
                lambda th: sum(mpmath.exp(t) for t in th), lambda th: True)
    if kind == "bernoulli_product":
        return ([mpmath.log(mpf(x) / (1 - mpf(x))) for x in params["theta"]],
                lambda th: sum(mpmath.log1p(mpmath.exp(t)) for t in th), lambda th: True)
    if kind == "exponential_product":
        return ([-mpf(b) for b in params["beta"]],
                lambda th: -sum(mpmath.log(-t) for t in th), lambda th: all(t < 0 for t in th))
    if kind == "gamma_product":
        d = len(params["shape"])
        theta = [mpf(a) - 1 for a in params["shape"]] + [-mpf(b) for b in params["rate"]]
        return (theta,
                lambda th: sum(mpmath.loggamma(th[i] + 1) - (th[i] + 1) * mpmath.log(-th[d + i])
                               for i in range(d)),
                lambda th: all(t > -1 for t in th[:d]) and all(t < 0 for t in th[d:]))
    raise ValueError(f"unknown family kind {kind!r}")


def closed_form(docs, alpha: float):
    """R_alpha of a family triple from the exponential-family identity
    log(1 + R) = A(t0 + a(t1 + t2 - 2 t0)) - A(t0 + a(t1 - t0)) - A(t0 + a(t2 - t0)) + A(t0),
    at 50 digits.  Returns (R, tolerance) with R = inf outside the natural domain."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        views = [_natural(d["kind"], d["params"]) for d in docs]
        t0, t1, t2 = (v[0] for v in views)
        A, in_domain = views[0][1], views[0][2]
        tbar = [x + a * (y + z - 2 * x) for x, y, z in zip(t0, t1, t2)]
        t01 = [x + a * (y - x) for x, y in zip(t0, t1)]
        t02 = [x + a * (z - x) for x, z in zip(t0, t2)]
        if not all(in_domain(t) for t in (tbar, t01, t02)):
            return math.inf, 0.0
        parts = [A(tbar), -A(t01), -A(t02), A(t0)]
        value = mpmath.expm1(sum(parts))
        if value > mpmath.mpf(1.7e308):
            return math.inf, 0.0
        scale = max(1.0, float(sum(abs(p) for p in parts)))
        return float(value), 64 * EPS * scale * (1.0 + abs(float(value)))


def _component_integrals(kind: str, params, alpha: float):
    """The three defining integrals of R_alpha for one scalar coordinate, by mpmath
    quadrature (densities) or direct summation (Poisson, Bernoulli)."""
    powers = [(1 - 2 * alpha, alpha, alpha), (1 - alpha, alpha, 0.0), (1 - alpha, 0.0, alpha)]
    out = []
    for c in powers:
        c = [mpmath.mpf(x) for x in c]
        if kind == "gaussian_iso":
            s, means = params[0][1], [p[0] for p in params]
            logf = lambda x: sum(cj * (-(x - m) ** 2 / (2 * s * s)) for cj, m in zip(c, means)) \
                - mpmath.log(s * mpmath.sqrt(2 * mpmath.pi))
            centre = sum(cj * m for cj, m in zip(c, means))
            out.append(mpmath.quad(lambda x: mpmath.exp(logf(x)), [-mpmath.inf, centre, mpmath.inf]))
        elif kind == "gamma_product":
            S = sum(cj * p[0] for cj, p in zip(c, params))
            R = sum(cj * p[1] for cj, p in zip(c, params))
            const = sum(cj * (p[0] * mpmath.log(p[1]) - mpmath.loggamma(p[0])) for cj, p in zip(c, params))
            # x = u^(1/S) removes the x^(S-1) singularity at 0 that shapes below 1 give.
            peak = (max(S - 1, mpmath.mpf(1) / 4) / R) ** S
            out.append(mpmath.quad(lambda u: mpmath.exp(const - R * u ** (1 / S)) / S,
                                   [0, peak, mpmath.inf]))
        elif kind == "poisson_product":
            lams = [p[0] for p in params]
            B = sum(cj * lam for cj, lam in zip(c, lams))
            L = sum(cj * mpmath.log(lam) for cj, lam in zip(c, lams))
            mode = int(mpmath.exp(L))
            hi = mode + 60 * int(math.sqrt(mode) + 1) + 60
            out.append(mpmath.fsum(mpmath.exp(k * L - B - mpmath.loggamma(k + 1))
                                   for k in range(hi)))
        elif kind == "bernoulli_product":
            ths = [mpmath.mpf(p[0]) for p in params]
            out.append(mpmath.exp(sum(cj * mpmath.log(t) for cj, t in zip(c, ths)))
                       + mpmath.exp(sum(cj * mpmath.log1p(-t) for cj, t in zip(c, ths))))
        else:
            raise ValueError(kind)
    return out


def integral_form(docs, alpha: float) -> float:
    """R_alpha of a one-dimensional family triple from its defining integrals, at 20 digits."""
    kind = docs[0]["kind"]
    if kind == "gaussian_iso":
        params = [(d["params"]["mean"][0], d["params"]["sigma"]) for d in docs]
    elif kind == "gamma_product":
        params = [(d["params"]["shape"][0], d["params"]["rate"][0]) for d in docs]
    elif kind == "exponential_product":
        kind, params = "gamma_product", [(1.0, d["params"]["beta"][0]) for d in docs]
    else:
        key = {"poisson_product": "lambda", "bernoulli_product": "theta"}[kind]
        params = [(d["params"][key][0],) for d in docs]
    with mpmath.workdps(20):
        i12, i1, i2 = _component_integrals(kind, params, alpha)
        return float(i12 / (i1 * i2) - 1)


def family_references(docs, alpha: float, by_integral: bool):
    """Closed-form reference and tolerance; for a checked subset, also confirm it by integration."""
    value, tol = closed_form(docs, alpha)
    if by_integral:
        direct = integral_form(docs, alpha)
        if not abs(direct - value) <= QUAD_REL_TOL * (1.0 + abs(value)):
            raise RuntimeError(f"benchmark references disagree: closed form {value!r}, "
                               f"integral {direct!r} for {docs}")
    return value, tol


def check_codiv_family(docs, kind: str, by_integral: bool = False):
    value, tol = family_references(docs, parse_kind(kind)[1], by_integral)

    @checker
    def check(code, out, err):
        need(code in (0, 3), f"exit {code}, expected 0 (or a documented 3 on overflow)")
        doc = json.loads(out)
        if math.isinf(value):
            need(doc.get("value") == "inf" or code == 3, f"expected inf, got {doc!r}")
            return
        got = as_float(doc["value"])
        need(code == 0 and abs(got - value) <= tol,
             f"value {got!r}, expected {value!r} within {tol:.3g}")
    return check


def check_oracle(docs, kind: str, by_integral: bool = False):
    value, tol = family_references(docs, parse_kind(kind)[1], by_integral)

    @checker
    def check(code, out, err):
        doc = report(code, out)
        closed, oracle = as_float(doc["closed_form"]), as_float(doc["oracle"])
        if math.isinf(value):
            need(math.isinf(closed) and math.isinf(oracle), "expected inf from both routes")
        else:
            need(abs(closed - value) <= tol,
                 f"closed form {closed!r}, expected {value!r} within {tol:.3g}")
            need(abs(oracle - value) <= ORACLE_REL_TOL * max(1.0, abs(value)),
                 f"oracle {oracle!r}, expected {value!r} within relative {ORACLE_REL_TOL}")
            rel = abs(closed - oracle) / max(1.0, abs(closed), abs(oracle))
            need(abs(as_float(doc["relative_error"]) - rel) <= 1e-12 * max(rel, 1e-300) + 1e-300,
                 "relative_error does not match closed_form and oracle")
        need(doc["passed"] is True and doc["tolerance"] == ORACLE_REL_TOL, "oracle check not passed")
    return check
