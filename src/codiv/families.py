"""Closed-form correlation-type codivergences for common parametric families.

Every formula is evaluated in log space and exponentiated at the very end
with ``expm1``; the Gamma family goes through log-Gamma differences so that
ratios of Gamma functions never overflow.  Parameter combinations outside an
exponential family's natural domain yield +inf rather than an error.  The
table FAMILIES holds everything that differs from one family to another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import (DimensionMismatchError, KindMismatchError, PreconditionError, check_alpha,
                     is_number, numbers, raise_first)

# rule of a vector parameter -> (test its finite entries pass, message for one that fails)
_VECTOR_RULES = {
    "finite": (np.isfinite, ""),
    "positive": (lambda a: a > 0, "must be strictly positive"),
    "open-unit": (lambda a: (a > 0) & (a < 1), "open-interval violation: must lie in (0, 1)"),
}


class FamilySpec(NamedTuple):
    kind: str  # the JSON kind
    params: tuple  # (JSON name, attribute, rule) per parameter; the first gives the dimension
    shared: str  # the parameter all members of a triple share, or ""
    log1p: Callable  # (f0, f1, f2, alpha) -> log(R_alpha + 1) of a checked triple, or None
    # outside the natural domain: only the Gamma formula has a boundary
    coords: Callable  # family -> columns of the parameters of its coordinates
    component: str  # the oracle's integral for one coordinate
    natural: Callable  # family -> (natural parameter, log-partition A, domain test of A)


def _param_problems(spec: FamilySpec, values: dict, path: str) -> tuple[dict, list]:
    """Parameter values keyed by JSON name, checked and frozen, and their problems."""
    checked, problems = {}, []
    for name, _, rule in spec.params:
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
            checked[name] = arr = np.array(entries, dtype=float)
            arr.flags.writeable = False
            test, message = _VECTOR_RULES[rule]
            finite = np.isfinite(arr)
            for i in np.flatnonzero(~(finite & test(arr))):
                problems.append(PreconditionError(message if finite[i] else "must be a finite number",
                                                  f"{at}/{i}"))
    vectors = [name for name, value in checked.items() if isinstance(value, np.ndarray)]
    if len({checked[name].size for name in vectors}) > 1:
        problems.append(DimensionMismatchError(f"{' and '.join(vectors)} vectors differ in length",
                                               f"{path}/params/{vectors[-1]}"))
    return checked, problems


class _Family:
    """What a family class takes from its FAMILIES entry."""

    def __post_init__(self):
        spec = FAMILIES[type(self)]
        values = {name: getattr(self, attr) for name, attr, _ in spec.params}
        checked, problems = _param_problems(spec, values, "")
        raise_first(problems)
        for name, attr, _ in spec.params:
            object.__setattr__(self, attr, checked[name])

    @property
    def kind(self) -> str:
        return FAMILIES[type(self)].kind

    @property
    def dim(self) -> int:
        return getattr(self, FAMILIES[type(self)].params[0][1]).size


@dataclass(frozen=True)
class GaussianIso(_Family):
    """Multivariate normal with mean vector and isotropic variance sigma^2."""

    mean: np.ndarray
    sigma: float


@dataclass(frozen=True)
class PoissonProd(_Family):
    """Product of Poisson distributions with intensity vector."""

    rates: np.ndarray


@dataclass(frozen=True)
class BernoulliProd(_Family):
    """Product of Bernoulli distributions with success probabilities in (0, 1)."""

    thetas: np.ndarray


@dataclass(frozen=True)
class ExponentialProd(_Family):
    """Product of exponential distributions with rate vector."""

    rates: np.ndarray


@dataclass(frozen=True)
class GammaProd(_Family):
    """Product of Gamma distributions with shape and rate vectors."""

    shapes: np.ndarray
    rates: np.ndarray


ParamFamily = Union[GaussianIso, PoissonProd, BernoulliProd, ExponentialProd, GammaProd]


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
    members = []
    for f in (f0, f1, f2):
        shared = FAMILIES[type(f)].shared
        members.append((f.kind, f.dim, getattr(f, shared) if shared else None))
    raise_first(family_set_problems(members))


def _gaussian_log1p(f0, f1, f2, alpha) -> float:
    """alpha^2 <m1 - m0, m2 - m0> / sigma^2, with the shifts and sigma scaled by the power
    of two that brings sigma into [0.5, 1): exact, so the value keeps its bits, and sigma^2
    cannot underflow.  OverflowError when the value is above the float range."""
    _, exponent = math.frexp(f0.sigma)
    sigma = math.ldexp(f0.sigma, -exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.ldexp(f1.mean - f0.mean, -exponent) * np.ldexp(f2.mean - f0.mean, -exponent)
    try:
        inner = math.fsum(terms)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        inner = math.nan
    if inner == 0:  # orthogonal shifts give 0 even when alpha^2 overflows
        return 0.0
    value = alpha * alpha * inner / (sigma * sigma)
    if value == math.inf:
        raise OverflowError("R_alpha exceeds the float range, and so does log(R_alpha + 1)")
    return value


def _poisson_log1p(f0, f1, f2, alpha) -> float:
    l0, l1, l2 = f0.rates, f1.rates, f2.rates
    p0, q0, q1, q2 = l0 ** (1.0 - 2.0 * alpha), l0 ** alpha, l1 ** alpha, l2 ** alpha
    terms = p0 * (q1 - q0) * (q2 - q0)  # not finite where a power overflowed
    e1, e2 = (np.expm1(alpha * (np.log(lj) - np.log(l0))) for lj in (l1, l2))
    direct = (np.minimum.reduce([p0, q0, q1, q2]) >= np.finfo(float).tiny) & np.isfinite(terms)
    relative = np.where((e1 == 0) | (e2 == 0), 0.0, l0 * e1 * e2)  # 0, not 0 * inf = NaN
    return math.fsum(np.where(direct, terms, relative))


def _log_mix(w, a, b) -> float:
    """log(w e^a + (1 - w) e^b), which is exactly 0 at a = b = 0."""
    m = max(a, b)
    return m + math.log(w * math.exp(a - m) + (1 - w) * math.exp(b - m))


def _bernoulli_log1p(f0, f1, f2, alpha) -> float:
    total = 0.0
    for t0, t1, t2 in zip(f0.thetas, f1.thetas, f2.thetas):
        powers = (t0 ** (1 - 2 * alpha), t1 ** alpha, t2 ** alpha, t0 ** (1 - alpha),
                  (1 - t0) ** (1 - 2 * alpha), (1 - t1) ** alpha, (1 - t2) ** alpha,
                  (1 - t0) ** (1 - alpha))
        p0, p1, p2, p, q0, q1, q2, q = powers
        sums = (p0 * p1 * p2 + q0 * q1 * q2, p * p1 + q * q1, p * p2 + q * q2)
        if min(powers + sums) >= np.finfo(float).tiny and max(powers + sums) < math.inf:
            total += math.log(sums[0]) - math.log(sums[1]) - math.log(sums[2])
            continue
        a1, a2 = (alpha * (math.log(t) - math.log(t0)) for t in (t1, t2))
        b1, b2 = (alpha * (math.log1p(-t) - math.log1p(-t0)) for t in (t1, t2))
        total += _log_mix(t0, a1 + a2, b1 + b2) - _log_mix(t0, a1, b1) - _log_mix(t0, a2, b2)
    return total


def _gamma_log1p(f0, f1, f2, alpha) -> float | None:
    """log(R_alpha + 1) over Gamma coordinates, or None on a domain violation.

    The rate part is accumulated through log1p of relative rate shifts, which
    is exact up to rounding when the three rates are close (the regime the
    first-order approximation cares about).  Writing d = beta_j - beta_0:

        a01*log(b01) + a02*log(b02) - a0*log(b0) - abar*log(bbar)
          = a01*log1p(x1) + a02*log1p(x2) - abar*log1p(x12)

    because a01 + a02 - a0 - abar = 0, with xj = alpha*dj/b0.
    """
    (s0, r0), (s1, r1), (s2, r2) = (FAMILIES[type(f)].coords(f) for f in (f0, f1, f2))
    total = 0.0
    for a0, b0, a1, b1, a2, b2 in zip(s0, r0, s1, r1, s2, r2):
        abar = a0 + alpha * (a1 + a2 - 2.0 * a0)
        a01 = a0 + alpha * (a1 - a0)
        a02 = a0 + alpha * (a2 - a0)
        x1 = alpha * (b1 - b0) / b0
        x2 = alpha * (b2 - b0) / b0
        x12 = alpha * (b1 + b2 - 2.0 * b0) / b0
        if min(abar, a01, a02) <= 0 or min(1.0 + x1, 1.0 + x2, 1.0 + x12) <= 0:
            return None
        log_gamma_part = (math.lgamma(a0) + math.lgamma(abar)
                          - math.lgamma(a01) - math.lgamma(a02))
        log_rate_part = (a01 * math.log1p(x1) + a02 * math.log1p(x2)
                         - abar * math.log1p(x12))
        total += log_gamma_part + log_rate_part
    return total


# Natural-parameter views (theta, A, in_domain), for the exponential-family identity
# that oracles.oracle_natural_r_alpha evaluates.

def _everywhere(th) -> bool:
    return True


def _gamma_natural(f):
    # theta = (shape - 1, -rate) per Gamma coordinate, flattened.
    def log_partition(th):
        d = th.size // 2
        a = th[:d] + 1.0
        return float(math.fsum(math.lgamma(x) for x in a) - np.sum(a * np.log(-th[d:])))

    def in_domain(th):
        d = th.size // 2
        return bool(np.all(th[:d] > -1.0) and np.all(th[d:] < 0))

    shapes, rates = FAMILIES[type(f)].coords(f)
    return np.concatenate([shapes - 1.0, -rates]), log_partition, in_domain


FAMILIES = {
    GaussianIso: FamilySpec(
        "gaussian_iso", (("mean", "mean", "finite"), ("sigma", "sigma", "positive-scalar")),
        "sigma", _gaussian_log1p, lambda f: (f.mean, np.full(f.dim, float(f.sigma))), "gaussian",
        lambda f: (f.mean, lambda th: float(np.dot(th, th)) / (2.0 * (f.sigma * f.sigma)),
                   _everywhere)),
    PoissonProd: FamilySpec(
        "poisson_product", (("lambda", "rates", "positive"),),
        "", _poisson_log1p, lambda f: (f.rates,), "poisson",
        lambda f: (np.log(f.rates), lambda th: float(np.sum(np.exp(th))), _everywhere)),
    BernoulliProd: FamilySpec(
        "bernoulli_product", (("theta", "thetas", "open-unit"),),
        "", _bernoulli_log1p, lambda f: (f.thetas,), "bernoulli",
        lambda f: (np.log(f.thetas / (1.0 - f.thetas)),
                   lambda th: float(np.sum(np.logaddexp(0.0, th))), _everywhere)),
    ExponentialProd: FamilySpec(  # the Gamma component with unit shapes
        "exponential_product", (("beta", "rates", "positive"),),
        "", _gamma_log1p, lambda f: (np.ones(f.dim), f.rates), "gamma", _gamma_natural),
    GammaProd: FamilySpec(
        "gamma_product", (("shape", "shapes", "positive"), ("rate", "rates", "positive")),
        "", _gamma_log1p, lambda f: (f.shapes, f.rates), "gamma", _gamma_natural),
}
FAMILY_KINDS = {spec.kind: cls for cls, spec in FAMILIES.items()}


def r_alpha_closed_log1p(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                         alpha: float) -> float:
    """log(R_alpha + 1) in closed form; +inf when a domain constraint fails.  The Poisson and
    Bernoulli coordinates use powers such as lambda**alpha where each is normal and the
    result finite, and elsewhere each power taken relative to member 0.  OverflowError when
    the value is NaN or +inf: beyond the float range, or undefined in floating point."""
    check_family_triple(f0, f1, f2, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = FAMILIES[type(f0)].log1p(f0, f1, f2, alpha)
        except ValueError:  # math.fsum of +inf and -inf terms
            value = math.nan
    if value is None:
        return math.inf
    if math.isnan(value) or value == math.inf:
        raise OverflowError("log(R_alpha + 1) is undefined in floating point: an "
                            "intermediate power exceeds the float range")
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


def gamma_first_order(f0: GammaProd, f1: GammaProd, f2: GammaProd, alpha: float) -> float:
    """First-order approximation of the Gamma R_alpha for shared shapes.

    Returns expm1 of the weighted rate-shift inner product
    alpha^2 * sum_l shape_l * (b1l-b0l)*(b2l-b0l)/b0l^2.  Exponential
    families count as Gamma families with unit shapes.
    """
    check_family_triple(f0, f1, f2, alpha)
    spec = FAMILIES[type(f0)]
    if spec.component != "gamma":
        raise KindMismatchError("gamma_first_order requires Gamma families")
    (a0, b0), (a1, b1), (a2, b2) = (spec.coords(f) for f in (f0, f1, f2))
    if not (np.array_equal(a0, a1) and np.array_equal(a0, a2)):
        raise DimensionMismatchError("the three families must share their shape vector")
    quad = math.fsum(a0 * (b1 - b0) * (b2 - b0) / (b0 * b0))
    return math.expm1(alpha * alpha * quad)


def family_problems(doc, path: str = "") -> tuple[tuple, list, ParamFamily | None]:
    """The problems of a family document {"kind", "params"}, with paths under ``path``, its
    (kind, dimension, shared parameter value) for family_set_problems, and the family built
    from the checked parameters (None unless there are no problems)."""
    if not (isinstance(doc, dict) and "kind" in doc):
        return (None, None, None), [PreconditionError("family descriptor required", path)], None
    kind = doc["kind"]
    cls = FAMILY_KINDS.get(kind) if isinstance(kind, str) else None
    member = (kind if isinstance(kind, str) else None, None, None)
    if cls is None:
        return member, [PreconditionError(f"unknown family kind {kind!r}", f"{path}/kind")], None
    spec, params = FAMILIES[cls], doc.get("params")
    if not isinstance(params, dict):
        return member, [PreconditionError("params object is required", f"{path}/params")], None
    checked, problems = _param_problems(spec, params, path)
    first = checked.get(spec.params[0][0])
    family = None if problems else cls(**{attr: checked[name] for name, attr, _ in spec.params})
    return (kind, None if first is None else first.size, checked.get(spec.shared)), problems, family


def family_from_json_dict(doc: dict) -> ParamFamily:
    _, problems, family = family_problems(doc)
    raise_first(problems)
    return family
