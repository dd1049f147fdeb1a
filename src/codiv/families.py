"""Closed-form correlation-type codivergences for common parametric families.

Every formula is evaluated in log space and exponentiated at the very end
with ``expm1``; the Gamma family goes through log-Gamma differences so that
ratios of Gamma functions never overflow.  Parameter combinations outside an
exponential family's natural domain yield +inf rather than an error.  The
table FAMILIES, keyed by the JSON kind, holds what the closed forms need of each
family, and the oracles keep their own; a member of any family is a ParamFamily.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .errors import (DimensionMismatchError, KindMismatchError, PreconditionError, _from_checked,
                     check_alpha, exact_fsum, is_number, numbers, raise_first)

# rule of a vector parameter -> (test its finite entries pass, message for one that fails)
_VECTOR_RULES = {
    "finite": (math.isfinite, ""),
    "positive": (lambda x: x > 0, "must be strictly positive"),
    "open-unit": (lambda x: 0 < x < 1, "open-interval violation: must lie in (0, 1)"),
}


class FamilySpec(NamedTuple):
    params: tuple  # (JSON name, rule) per parameter; the first gives the dimension
    shared: str  # the parameter all members of a triple share, or ""
    log1p: Callable  # (f0, f1, f2, alpha) -> log(R_alpha + 1) of a checked triple, or None
    # outside the natural domain: only the Gamma formula has a boundary
    coords: Callable  # family -> columns of the parameters of its coordinates


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


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """A member of the parametric family ``kind``, a key of FAMILIES, with its parameters
    checked and keyed by their JSON names: a vector is a tuple of floats."""

    kind: str
    params: Mapping

    def __post_init__(self):
        _, problems, family = family_problems({"kind": self.kind, "params": self.params})
        raise_first(problems)
        object.__setattr__(self, "params", family.params)

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


def _gaussian_log1p(f0, f1, f2, alpha) -> float:
    """alpha^2 <m1 - m0, m2 - m0> / sigma^2, with the shifts and sigma scaled by the power
    of two that brings sigma into [0.5, 1): exact, so the value keeps its bits, and sigma^2
    cannot underflow.  OverflowError when the value is above the float range."""
    _, exponent = math.frexp(f0.params["sigma"])
    sigma = math.ldexp(f0.params["sigma"], -exponent)

    def scaled(x):  # math.ldexp, but +-inf where that is beyond the float range
        try:
            return math.ldexp(x, -exponent)
        except OverflowError:
            return math.copysign(math.inf, x)

    means = zip(*(f.params["mean"] for f in (f0, f1, f2)))
    inner = exact_fsum([scaled(m1 - m0) * scaled(m2 - m0) for m0, m1, m2 in means])
    if inner == 0:  # orthogonal shifts give 0 even when alpha^2 overflows
        return 0.0
    value = alpha * alpha * inner / (sigma * sigma)
    if value == math.inf:
        raise OverflowError("R_alpha exceeds the float range, and so does log(R_alpha + 1)")
    return value


def _poisson_log1p(f0, f1, f2, alpha) -> float:
    """On numpy arrays: the reports keep the bits of numpy's power, expm1 and log1p."""
    import numpy as np
    l0, l1, l2 = (np.array(f.params["lambda"]) for f in (f0, f1, f2))
    with np.errstate(over="ignore", invalid="ignore"):
        p0, q0, q1, q2 = l0 ** (1.0 - 2.0 * alpha), l0 ** alpha, l1 ** alpha, l2 ** alpha
        terms = p0 * (q1 - q0) * (q2 - q0)  # not finite where a power overflowed
        e1, e2 = (np.expm1(alpha * (np.log(lj) - np.log(l0))) for lj in (l1, l2))
        direct = (np.minimum.reduce([p0, q0, q1, q2]) >= sys.float_info.min) & np.isfinite(terms)
        relative = np.where((e1 == 0) | (e2 == 0), 0.0, l0 * e1 * e2)  # 0, not 0 * inf = NaN
    return exact_fsum(np.where(direct, terms, relative).tolist())


def _log_mix(w, a, b) -> float:
    """log(w e^a + (1 - w) e^b), which is exactly 0 at a = b = 0."""
    m = max(a, b)
    return m + math.log(w * math.exp(a - m) + (1 - w) * math.exp(b - m))


def _bernoulli_log1p(f0, f1, f2, alpha) -> float:
    total = 0.0
    for t0, t1, t2 in zip(*(f.params["theta"] for f in (f0, f1, f2))):
        try:  # a power beyond the float range takes the relative route
            p0, p1, p2, p, q0, q1, q2, q = powers = (
                t0 ** (1 - 2 * alpha), t1 ** alpha, t2 ** alpha, t0 ** (1 - alpha),
                (1 - t0) ** (1 - 2 * alpha), (1 - t1) ** alpha, (1 - t2) ** alpha,
                (1 - t0) ** (1 - alpha))
            sums = (p0 * p1 * p2 + q0 * q1 * q2, p * p1 + q * q1, p * p2 + q * q2)
        except OverflowError:
            powers = sums = (math.inf,)
        if min(powers + sums) >= sys.float_info.min and max(powers + sums) < math.inf:
            total += math.log(sums[0]) - math.log(sums[1]) - math.log(sums[2])
            continue
        a1, a2 = (alpha * (math.log(t) - math.log(t0)) for t in (t1, t2))
        b1, b2 = (alpha * (math.log1p(-t) - math.log1p(-t0)) for t in (t1, t2))
        total += _log_mix(t0, a1 + a2, b1 + b2) - _log_mix(t0, a1, b1) - _log_mix(t0, a2, b2)
    return total


def _log_rate_ratio(coeffs, logs, shift: float) -> float | None:
    """shift + log(sum_i c_i e^(l_i - l_0)), or None unless the sum is positive: a signed
    log-sum-exp."""
    terms = [(c, math.log(abs(c)) + l - logs[0]) for c, l in zip(coeffs, logs) if c]
    top = max(l for _, l in terms)
    total = math.fsum(math.copysign(math.exp(l - top), c) for c, l in terms)
    return top + math.log(total) + shift if total > 0 else None


def _gamma_log1p(f0, f1, f2, alpha) -> float | None:
    """log(R_alpha + 1) over Gamma coordinates, or None on a domain violation.

    The rate part is accumulated through log1p of relative rate shifts, which
    is exact up to rounding when the three rates are close (the regime the
    first-order approximation cares about).  Writing d = beta_j - beta_0:

        a01*log(b01) + a02*log(b02) - a0*log(b0) - abar*log(bbar)
          = a01*log1p(x1) + a02*log1p(x2) - abar*log1p(x12)

    because a01 + a02 - a0 - abar = 0, with xj = alpha*dj/b0.  Where an x is not finite or
    1 + x not normal, each log(b/b0) on the left is a signed log-sum-exp of log b0, b1, b2.
    """
    (s0, r0), (s1, r1), (s2, r2) = (FAMILIES[f.kind].coords(f) for f in (f0, f1, f2))
    total = 0.0
    for a0, b0, a1, b1, a2, b2 in zip(s0, r0, s1, r1, s2, r2):
        abar = a0 + alpha * (a1 + a2 - 2.0 * a0)
        a01 = a0 + alpha * (a1 - a0)
        a02 = a0 + alpha * (a2 - a0)
        xs = (alpha * (b1 - b0) / b0, alpha * (b2 - b0) / b0, alpha * (b1 + b2 - 2.0 * b0) / b0)
        if all(sys.float_info.min <= abs(1.0 + x) < math.inf for x in xs):
            logs = [math.log1p(x) if 1.0 + x > 0 else None for x in xs]
        else:  # the mixed rates' coefficients, divided by alpha above 1 so that none overflows
            p, q = (1.0, alpha) if alpha <= 1 else (1.0 / alpha, 1.0)
            rates = [math.log(b) for b in (b0, b1, b2)]
            logs = [_log_rate_ratio(c, rates, math.log(alpha / q))
                    for c in ((p - q, q, 0.0), (p - q, 0.0, q), (p - 2.0 * q, q, q))]
        if min(abar, a01, a02) <= 0 or None in logs:
            return None
        try:
            log_gamma_part = (math.lgamma(a0) + math.lgamma(abar)
                              - math.lgamma(a01) - math.lgamma(a02))
        except OverflowError:  # a shape near 1e308
            raise OverflowError(f"the Gamma closed form's lgamma of a shape among {a0!r}, "
                                f"{abar!r}, {a01!r} and {a02!r} exceeds the float range") from None
        log_rate_part = a01 * logs[0] + a02 * logs[1] - abar * logs[2]
        total += log_gamma_part + log_rate_part
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
        (("beta", "positive"),), "", _gamma_log1p, lambda f: ((1.0,) * f.dim, f.params["beta"])),
    "gamma_product": FamilySpec(
        (("shape", "positive"), ("rate", "positive")), "", _gamma_log1p,
        lambda f: (f.params["shape"], f.params["rate"])),
}


def r_alpha_closed_log1p(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                         alpha: float) -> float:
    """log(R_alpha + 1) in closed form; +inf when a domain constraint fails.  The Poisson and
    Bernoulli coordinates use powers such as lambda**alpha where each is normal and the
    result finite, and elsewhere each power taken relative to member 0.  OverflowError when
    the value is NaN or +inf: beyond the float range, or undefined in floating point."""
    check_family_triple(f0, f1, f2, alpha)
    value = FAMILIES[f0.kind].log1p(f0, f1, f2, alpha)
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


def gamma_first_order(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                      alpha: float) -> float:
    """First-order approximation of the Gamma R_alpha for shared shapes.

    Returns expm1 of the weighted rate-shift inner product
    alpha^2 * sum_l shape_l * (b1l-b0l)*(b2l-b0l)/b0l^2.  Exponential
    families count as Gamma families with unit shapes.
    """
    check_family_triple(f0, f1, f2, alpha)
    spec = FAMILIES[f0.kind]
    if spec.log1p is not _gamma_log1p:
        raise KindMismatchError("gamma_first_order requires Gamma families")
    (a0, b0), (a1, b1), (a2, b2) = (spec.coords(f) for f in (f0, f1, f2))
    if not a0 == a1 == a2:
        raise DimensionMismatchError("the three families must share their shape vector")
    quad = exact_fsum([a * (c1 - c0) * (c2 - c0) / (c0 * c0)
                       for a, c0, c1, c2 in zip(a0, b0, b1, b2)])
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
