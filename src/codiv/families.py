"""Closed-form correlation-type codivergences for common parametric families.

Every family is an exponential family, so log(R_alpha + 1) is the second difference of the
log-partition, summed over coordinates; each family computes it as one product of small
factors, in scalar arithmetic on Python floats that loads no numpy, and R_alpha is its
``expm1``.  Parameter combinations outside an exponential family's natural domain yield +inf
rather than an error.  The table FAMILIES, keyed by the JSON kind, holds what the closed
forms need of each family, and the oracles keep their own; a member is a ParamFamily.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from types import MappingProxyType
from typing import NamedTuple

from .errors import (DimensionMismatchError, KindMismatchError, PreconditionError, _from_checked,
                     check_alpha, exact_fsum, exact_units, is_number, numbers, raise_first,
                     round_units)

_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose exp and expm1 are finite


def _exp(x: float) -> float:
    """math.exp, but +inf beyond the float range, as numpy's exp gives."""
    return math.inf if x > _LOG_MAX else math.exp(x)


# rule of a vector parameter -> (test its finite entries pass, message for one that fails)
_VECTOR_RULES = {
    "finite": (math.isfinite, ""),
    "positive": (lambda x: x > 0, "must be strictly positive"),
    "open-unit": (lambda x: 0 < x < 1, "open-interval violation: must lie in (0, 1)"),
}


class FamilySpec(NamedTuple):
    params: tuple  # (JSON name, rule) per parameter; the first gives the dimension
    shared: str  # the parameter all members of a triple share, or ""
    log1p: Callable  # (rows, alpha) -> log(R_alpha + 1) from ``_coordinates`` rows in the domain
    coords: Callable  # family -> columns of the parameters of its coordinates
    domain: Callable = lambda row, alpha: True  # (row, alpha) -> whether the mixed parameters
    # are in the natural domain: only the Gamma formula has a boundary


def _param_problems(spec: FamilySpec, values, path: str) -> tuple[Mapping, list]:
    """Parameter values keyed by JSON name, checked and read-only, and their problems."""
    if not isinstance(values, Mapping):
        return {}, [PreconditionError("params object is required", f"{path}/params")]
    checked, problems = {}, []
    for name, rule in spec.params:
        at = f"{path}/params/{name}"
        value = values.get(name)
        if name not in values:
            problems.append(PreconditionError("required parameter missing", at))
        elif rule == "positive-scalar":
            finite = is_number(value) and math.isfinite(value)
            if finite:
                checked[name] = value
            if not (finite and value > 0):
                problems.append(PreconditionError("must be a positive number", at))
        elif (entries := numbers(value)) is None:
            problems.append(PreconditionError("must be a non-empty list", at))
        else:
            checked[name] = entries = tuple(map(float, entries))
            test, message = _VECTOR_RULES[rule]
            for i, x in enumerate(entries):
                if not (math.isfinite(x) and test(x)):
                    problems.append(PreconditionError(
                        message if math.isfinite(x) else "must be a finite number", f"{at}/{i}"))
    vectors = [name for name, value in checked.items() if isinstance(value, tuple)]
    if len({len(checked[name]) for name in vectors}) > 1:
        problems.append(DimensionMismatchError(f"{' and '.join(vectors)} vectors differ in length",
                                               f"{path}/params/{vectors[-1]}"))
    return MappingProxyType(checked), problems


class ParamFamily:
    """A member of the parametric family ``kind``, a key of FAMILIES, with its parameters
    checked and keyed by their JSON names (a vector is a tuple of floats); read-only."""

    def __init__(self, kind: str, params: Mapping):
        _, problems, family = family_problems({"kind": kind, "params": params})
        raise_first(problems)
        self.__dict__.update(kind=kind, params=family.params)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(kind={self.kind!r}, params={self.params!r})"

    @property
    def dim(self) -> int:
        return len(next(iter(self.params.values())))


def GaussianIso(mean, sigma) -> ParamFamily:
    """Multivariate normal with mean vector and isotropic variance sigma^2."""
    return ParamFamily("gaussian_iso", {"mean": mean, "sigma": sigma})


def PoissonProd(rates) -> ParamFamily:
    """Product of Poisson distributions with intensity vector."""
    return ParamFamily("poisson_product", {"lambda": rates})


def BernoulliProd(thetas) -> ParamFamily:
    """Product of Bernoulli distributions with success probabilities in (0, 1)."""
    return ParamFamily("bernoulli_product", {"theta": thetas})


def ExponentialProd(rates) -> ParamFamily:
    """Product of exponential distributions with rate vector."""
    return ParamFamily("exponential_product", {"beta": rates})


def GammaProd(shapes, rates) -> ParamFamily:
    """Product of Gamma distributions with shape and rate vectors."""
    return ParamFamily("gamma_product", {"shape": shapes, "rate": rates})


_SET_RULES = ((KindMismatchError, "family kinds differ across inputs"),
              (DimensionMismatchError, "family dimensions differ across inputs"),
              (DimensionMismatchError, "isotropic Gaussian inputs must share sigma"))


def family_set_problems(members, path: str = "") -> list:
    """Rules across the families of a job, given as (kind, dimension, value of the shared
    parameter) with None where unknown: each of the three takes one value."""
    return [error(message, path) for column, (error, message) in zip(zip(*members), _SET_RULES)
            if len(set(column) - {None}) > 1]


def check_family_triple(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily, alpha: float) -> None:
    """PreconditionError unless alpha is positive and finite, then the first set rule the
    triple breaks."""
    check_alpha(alpha)
    raise_first(family_set_problems([(f.kind, f.dim, f.params.get(FAMILIES[f.kind].shared))
                                     for f in (f0, f1, f2)]))


def _coordinates(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily, alpha: float) -> list:
    """Each coordinate of a checked triple as its three rows of parameters, one per family, in
    the columns of FAMILIES' ``coords``: (mean, sigma), (lambda,), (theta,) or (shape, rate)."""
    check_family_triple(f0, f1, f2, alpha)
    return list(zip(*(zip(*FAMILIES[f.kind].coords(f)) for f in (f0, f1, f2))))


def _gaussian_log1p(rows, alpha) -> float:
    """alpha^2 <m1 - m0, m2 - m0> / sigma^2, alpha = a 2**k, sigma = s 2**e, a and s in [0.5, 1):
    the exact inner product of the shifts rounded once with 2**(2k - 2e) applied, times a^2/s^2,
    so neither alpha^2 nor sigma^2 is formed and orthogonal shifts give 0.  A shift beyond the
    float range gives ``exact_units``' inf or NaN; OverflowError above the float range."""
    (a, k), (s, e) = math.frexp(alpha), math.frexp(rows[0][0][1])
    units = exact_units([m1 - m0 for (m0, _), (m1, _), _ in rows],
                        [m2 - m0 for (m0, _), _, (m2, _) in rows])
    value = a * a * round_units(units, 2 * (k - e)) / (s * s)
    if value == math.inf:
        raise OverflowError("R_alpha exceeds the float range, and so does log(R_alpha + 1)")
    return value


def _log_ratio(x: float, y: float, r: float) -> float:
    """log(x / y) given r = x / y - 1 from differences: log1p(r), or log x - log y where r is
    beyond the float range or below -1/2 (1 + r keeps too few digits of x / y there)."""
    return math.log1p(r) if -0.5 <= r < math.inf else math.log(x) - math.log(y)


def _poisson_log1p(rows, alpha) -> float:
    """The sum of lambda_0 e_1 e_2, e_j = expm1(alpha log(lambda_j/lambda_0)) (at alpha = 1,
    (lambda_j - lambda_0)/lambda_0), joined in logs where it is beyond the float range."""
    terms = []
    for (l0,), (l1,), (l2,) in rows:
        xs = [alpha * _log_ratio(lj, l0, (lj - l0) / l0) for lj in (l1, l2)]
        e1, e2 = es = [(lj - l0) / l0 if alpha == 1 else
                       math.expm1(x) if x <= _LOG_MAX else math.inf for lj, x in zip((l1, l2), xs)]
        term = l0 * e1 * e2
        if not math.isfinite(term):
            logs = (x if e == math.inf else math.log(abs(e)) for x, e in zip(xs, es))
            term = math.copysign(_exp(math.log(l0) + sum(logs)), e1 * e2)
        terms.append(term)
    return exact_fsum(terms)


def _bernoulli_log1p(rows, alpha) -> float:
    """The sum of log1p(c f(u) f(v)) over the natural-parameter steps u and v, c = e^t0 =
    theta_0/(1 - theta_0), f(u) = expm1(u)/(1 + c e^u) = -expm1(-u)/(e^-u + c).  Where
    c f(u) f(v) is beyond the float range (theta_0 below 1e-308) or below -1/2, the second
    difference of A(t) = log(1 + e^t) itself."""
    total = 0.0
    for (t0,), (t1,), (t2,) in rows:
        u, v = (alpha * (_log_ratio(t, t0, (t - t0) / t0)
                         - _log_ratio(1.0 - t, 1.0 - t0, (t0 - t) / (1.0 - t0))) for t in (t1, t2))
        c = t0 / (1.0 - t0)
        f1, f2 = (math.expm1(w) / (1.0 + c * math.exp(w)) if w <= 0
                  else -math.expm1(-w) / (math.exp(-w) + c) for w in (u, v))
        x = c * f1 * f2
        if -0.5 <= x < math.inf:
            total += math.log1p(x)
        else:
            t = math.log(t0) - math.log1p(-t0)
            a = [max(z, 0.0) + math.log1p(math.exp(-abs(z))) for z in (t + u + v, t + u, t + v, t)]
            total += a[0] - a[1] - a[2] + a[3]
    return total


def _gamma_mixed(row, alpha) -> tuple:
    """A Gamma coordinate's mixed shapes a01, a02, abar and rates b01, b02, bbar, the rates the
    ``exact_units`` of their terms (bbar's: (1 - 2 alpha) b0, alpha b1, alpha b2)/max(1, alpha)."""
    (a0, b0), (a1, b1), (a2, b2) = row
    p, q = min(1.0, 1.0 / alpha), min(alpha, 1.0)
    return (a0 + alpha * (a1 - a0), a0 + alpha * (a2 - a0), a0 + alpha * (a1 + a2 - 2.0 * a0),
            exact_units((p - q, q), (b0, b1)), exact_units((p - q, q), (b0, b2)),
            exact_units((p - 2.0 * q, q, q), (b0, b1, b2)))


def _gamma_log1p(rows, alpha) -> float:
    """The sum of lgamma(a0) + lgamma(abar) - lgamma(a01) - lgamma(a02) and the rate part
    a0 log1p(x) - alpha (a1 - a0) log(bbar/b01) - alpha (a2 - a0) log(bbar/b02), where
    x = (alpha d1/b0)(alpha d2/bbar) = b01 b02/(b0 bbar) - 1 and dj = bj - b0.  Where x is
    beyond the float range or below -1/2, or bbar is beyond it, the rate part is
    a01 log(b01/b0) + a02 log(b02/b0) - abar log(bbar/b0), bbar then a quarter of its sum.
    OverflowError where a positive mixed rate rounds to 0."""
    q, total = min(alpha, 1.0), 0.0
    for row in rows:
        (a0, b0), (a1, b1), (a2, b2) = row
        a01, a02, abar, *units = _gamma_mixed(row, alpha)
        b01, b02, bbar = map(round_units, units)
        if not (b01 and b02 and bbar):
            raise OverflowError(f"rates {b0!r}, {b1!r}, {b2!r} mix to a rate > 0 that rounds to 0")
        try:
            total += math.lgamma(a0) + math.lgamma(abar) - math.lgamma(a01) - math.lgamma(a02)
        except OverflowError:  # a shape near 1e308
            raise OverflowError(f"the Gamma closed form's lgamma of a shape among {a0!r}, "
                                f"{abar!r}, {a01!r} and {a02!r} exceeds the float range") from None
        d1, d2 = b1 - b0, b2 - b0
        x = alpha * (d1 / b0) * (q * (d2 / bbar))
        if -0.5 <= x < math.inf and bbar < math.inf:
            total += (a0 * math.log1p(x) - alpha * (a1 - a0) * _log_ratio(bbar, b01, q * (d2 / b01))
                      - alpha * (a2 - a0) * _log_ratio(bbar, b02, q * (d1 / b02)))
            continue
        log_bbar = math.log(bbar) if bbar < math.inf else math.log(4.0) + math.log(
            round_units(units[2], -2))
        total += (a01 * math.log(b01) + a02 * math.log(b02) - abar * log_bbar
                  + a0 * (math.log(alpha / q) - math.log(b0)))
    return total


FAMILIES = {
    "gaussian_iso": FamilySpec(
        (("mean", "finite"), ("sigma", "positive-scalar")), "sigma", _gaussian_log1p,
        lambda f: (f.params["mean"], (float(f.params["sigma"]),) * f.dim)),
    "poisson_product": FamilySpec(
        (("lambda", "positive"),), "", _poisson_log1p, lambda f: (f.params["lambda"],)),
    "bernoulli_product": FamilySpec(
        (("theta", "open-unit"),), "", _bernoulli_log1p, lambda f: (f.params["theta"],)),
    "exponential_product": FamilySpec(  # Gamma coordinates with unit shapes
        (("beta", "positive"),), "", _gamma_log1p, lambda f: ((1.0,) * f.dim, f.params["beta"]),
        lambda row, alpha: all(x > 0 for x in _gamma_mixed(row, alpha))),
    "gamma_product": FamilySpec(
        (("shape", "positive"), ("rate", "positive")), "", _gamma_log1p,
        lambda f: (f.params["shape"], f.params["rate"]),
        lambda row, alpha: all(x > 0 for x in _gamma_mixed(row, alpha))),
}


def r_alpha_closed_log1p(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                         alpha: float) -> float:
    """log(R_alpha + 1), the second difference of the log-partition summed over coordinates;
    +inf when a mixed parameter leaves the natural domain, checked on every coordinate first.
    Then a coordinate where member 1 or 2 equals member 0 adds exactly 0.  OverflowError
    when the value is NaN or +inf: beyond the float range, or undefined in floating point."""
    spec = FAMILIES[f0.kind]
    rows = _coordinates(f0, f1, f2, alpha)
    if not all(spec.domain(row, alpha) for row in rows):
        return math.inf
    rows = [(p0, p1, p2) for p0, p1, p2 in rows if p0 != p1 and p0 != p2]
    value = spec.log1p(rows, alpha) if rows else 0.0
    if math.isnan(value) or value == math.inf:
        raise OverflowError(f"log(R_alpha + 1) is {value!r} in floating point: a term of its "
                            "second difference exceeds the float range")
    return value


def r_alpha_closed(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                   alpha: float) -> float:
    """Closed-form R_alpha codivergence for a same-kind family triple; OverflowError,
    naming log(R_alpha + 1), when it is finite but R_alpha is beyond the float range."""
    log1p_value = r_alpha_closed_log1p(f0, f1, f2, alpha)
    try:  # expm1 maps the domain's +inf to +inf and -inf to -1
        return math.expm1(log1p_value)
    except OverflowError:
        raise OverflowError(f"R_alpha exceeds the float range: log(R_alpha + 1) = "
                            f"{float(log1p_value)!r}") from None


def gamma_first_order(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                      alpha: float) -> float:
    """First-order approximation of the Gamma R_alpha for shared shapes: expm1 of the weighted
    rate-shift inner product alpha^2 * sum_l shape_l * (b1l-b0l)*(b2l-b0l)/b0l^2.  Exponential
    families count as Gamma families with unit shapes."""
    rows = _coordinates(f0, f1, f2, alpha)
    if FAMILIES[f0.kind].log1p is not _gamma_log1p:
        raise KindMismatchError("gamma_first_order requires Gamma families")
    if not all(a0 == a1 == a2 for (a0, _), (a1, _), (a2, _) in rows):
        raise DimensionMismatchError("the three families must share their shape vector")
    quad = exact_fsum([a * (c1 - c0) * (c2 - c0) / (c0 * c0) for (a, c0), (_, c1), (_, c2) in rows])
    return math.expm1(alpha * alpha * quad)


def family_problems(doc, path: str = "") -> tuple[tuple, list, ParamFamily | None]:
    """The problems of a family document {"kind", "params"}, with paths under ``path``, its
    (kind, dimension, shared parameter value) for family_set_problems, and the family built
    from the checked parameters (None unless there are no problems)."""
    if not (isinstance(doc, dict) and "kind" in doc):
        return (None, None, None), [PreconditionError("family descriptor required", path)], None
    kind = doc["kind"]
    spec = FAMILIES.get(kind) if isinstance(kind, str) else None
    if spec is None:
        member = (kind if isinstance(kind, str) else None, None, None)
        return member, [PreconditionError(f"unknown family kind {kind!r}", f"{path}/kind")], None
    checked, problems = _param_problems(spec, doc.get("params"), path)
    first = checked.get(spec.params[0][0])
    family = None if problems else _from_checked(ParamFamily, kind=kind, params=checked)
    return (kind, None if first is None else len(first), checked.get(spec.shared)), problems, family


def family_from_json_dict(doc: dict) -> ParamFamily:
    _, problems, family = family_problems(doc)
    raise_first(problems)
    return family
