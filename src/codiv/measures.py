"""Finite discrete measures: probability and signed measures on a fixed support.

A measure is a mass vector over ``support_size`` points; the dominating
measure is the counting measure on those points.  Divergence values returned
elsewhere in the package are plain floats, with ``math.inf`` standing for the
extended value +infinity.

Mass arrays are frozen at construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, DominationError, PreconditionError, exact_fsum,
                     is_number, numbers, raise_first)

PROBABILITY_TOL = 1e-12

# Below this length math.fsum is faster than the extraction passes (measured crossover
# 640-768 on 1e5-scale probability, product and signed data).
_EXACT_SUM_MIN_SIZE = 768


def exact_sum(values: np.ndarray) -> float:
    """The sum of a 1-D float array, correctly rounded: the bits of ``math.fsum``.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point summation
    part I", SIAM J. Sci. Comput. 31(1), 2008): with sigma = 2**k above (n + 2) * max|r|,
    q = (r + sigma) - sigma and r - q are exact, and every q is a multiple of
    2**-53 * sigma whose sum stays below sigma, so ``np.sum(q)`` is exact in any order.
    Each pass moves the top 53 - log2(n + 2) bits of the residual r into one such exact
    partial sum; once r is zero, ``math.fsum`` of the partial sums is the correctly
    rounded total.  ``math.fsum`` of the array itself handles short arrays, arrays of
    2**26 entries or more (where the bound on the partial sums fails), non-finite entries,
    residuals outside [2**-900, 2**900] (all zeros included) and residuals that 8 passes
    do not clear, through ``errors.exact_fsum``, which never raises.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if _EXACT_SUM_MIN_SIZE <= n < 2 ** 26:
        bits = (n + 1).bit_length()  # ceil(log2(n + 2))
        top = max(float(x.max()), -float(x.min()))
        q = np.empty_like(x)
        r = x
        partials = []
        for _ in range(8):
            if not 2.0 ** -900 <= top <= 2.0 ** 900:  # also false for NaN
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)
            np.add(r, sigma, out=q)
            q -= sigma
            if r is x:
                r = x - q
            else:
                r -= q
            partials.append(float(q.sum()))
            top = max(float(r.max()), -float(r.min()))
            if top == 0.0:
                return math.fsum(partials)
    return exact_fsum(x.tolist())


def measure_problems(doc, signed: bool = False, normalized: bool = False,
                     path: str = "") -> tuple[np.ndarray | None, list, float | None]:
    """The frozen mass array of a measure document {"support", "mass"} (None unless a list),
    its problems, with paths under ``path``, and its exact total (None unless the masses are
    finite).  An unsigned measure is nonnegative; a ``normalized`` one sums to 1, or to 0 if
    ``signed``."""
    values = numbers(doc.get("mass") if isinstance(doc, dict) else None)
    if values is None:
        return None, [PreconditionError("mass must be a non-empty list", f"{path}/mass")], None
    mass = np.array(values, dtype=float)
    mass.flags.writeable = False
    bad = np.flatnonzero(~np.isfinite(mass))
    if bad.size:
        return mass, [PreconditionError("mass entry must be a finite number",
                                        f"{path}/mass/{bad[0]}")], None
    problems = [] if signed else [
        PreconditionError("mass entry must be nonnegative", f"{path}/mass/{i}")
        for i in np.flatnonzero(mass < 0)]
    total = exact_sum(mass)
    problems += total_problems(total, signed, path) if normalized else []
    if not (is_number(declared := doc.get("support", mass.size)) and declared == mass.size):
        problems.append(PreconditionError("declared support size does not match mass length",
                                          f"{path}/support"))
    return mass, problems, total


def total_problems(total: float, signed: bool = False, path: str = "") -> list:
    """The rule on a measure's total, under ``path``: 1, or 0 if ``signed``, within 1e-12."""
    return [] if abs(total - (0.0 if signed else 1.0)) <= PROBABILITY_TOL else [PreconditionError(
        f"signed direction must have zero total mass, got {total!r}" if signed
        else f"mass must sum to 1 within 1e-12, got {total!r}", f"{path}/mass")]


def direction_problems(mass: np.ndarray, p0_mass: np.ndarray, off_support: bool = False,
                       path: str = "") -> list:
    """The direction rule for a direction's mass array around a reference's, with paths under
    ``path``: in local mode a direction puts no mass on a p0-null point; off support, no
    negative mass there."""
    bad = np.flatnonzero((p0_mass == 0) & (mass < 0 if off_support else mass != 0))
    if not bad.size:
        return []
    if off_support:
        return [PreconditionError("direction must be nonnegative outside the reference support",
                                  f"{path}/mass/{bad[0]}")]
    return [DominationError("direction puts mass on a reference null point",
                            f"{path}/mass/{bad[0]}")]


def support_problems(masses, kernel_rows: int | None = None) -> list:
    """Rules across the mass arrays of a job (None ones skipped), with paths in the job:
    one support size, which is also the kernel's input size when there is a kernel."""
    distinct = sorted({mass.size for mass in masses if mass is not None})
    if len(distinct) > 1:
        return [DimensionMismatchError(f"support sizes differ across inputs: {distinct}",
                                       "/inputs")]
    if kernel_rows is not None and distinct and kernel_rows != distinct[0]:
        return [DimensionMismatchError("kernel input size does not match the measures",
                                       "/options/kernel/matrix")]
    return []


class _Measure:
    """What probability and signed measures share: a frozen mass vector and its exact total,
    ``total``, which construction stores."""

    @property
    def support_size(self) -> int:
        return self.mass.size


@dataclass(frozen=True, eq=False)
class DiscreteMeasure(_Measure):
    """Nonnegative finite measure on a finite support."""

    mass: np.ndarray

    def __post_init__(self):
        mass, problems, total = measure_problems({"mass": self.mass})
        raise_first(problems)
        self.__dict__.update(mass=mass, total=total)

    @property
    def is_probability(self) -> bool:
        return abs(self.total - 1.0) <= PROBABILITY_TOL

    @classmethod
    def uniform(cls, n: int) -> "DiscreteMeasure":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class SignedMeasure(_Measure):
    """Finite signed measure on a finite support."""

    mass: np.ndarray

    def __post_init__(self):
        mass, problems, total = measure_problems({"mass": self.mass}, signed=True)
        raise_first(problems)
        self.__dict__.update(mass=mass, total=total)


class JordanDecomposition(NamedTuple):
    alpha_plus: float
    mu_plus: DiscreteMeasure
    alpha_minus: float
    mu_minus: DiscreteMeasure


def check_same_support(*measures) -> None:
    raise_first(support_problems([m.mass for m in measures]))


def check_probability(*measures) -> None:
    raise_first([problem for m in measures for problem in total_problems(m.total)])


def dominated_by(mu, p0: DiscreteMeasure) -> bool:
    """True iff mu puts zero mass on every p0-null support point: the local direction rule."""
    check_same_support(mu, p0)
    return not direction_problems(mu.mass, p0.mass)


def jordan_decompose(mu: SignedMeasure) -> JordanDecomposition:
    """Split mu into alpha_plus*mu_plus - alpha_minus*mu_minus with orthogonal probability parts.

    When a part has zero total mass its alpha is 0 and the returned measure is
    a uniform dummy; callers must branch on alpha, never on the dummy.
    """
    pos = np.where(mu.mass > 0, mu.mass, 0.0)
    neg = np.where(mu.mass < 0, -mu.mass, 0.0)
    alpha_plus = exact_sum(pos)
    alpha_minus = exact_sum(neg)
    n = mu.support_size
    mu_plus = DiscreteMeasure(pos / alpha_plus) if alpha_plus > 0 else DiscreteMeasure.uniform(n)
    mu_minus = DiscreteMeasure(neg / alpha_minus) if alpha_minus > 0 else DiscreteMeasure.uniform(n)
    return JordanDecomposition(alpha_plus, mu_plus, alpha_minus, mu_minus)


def check_direction(mu, p0: DiscreteMeasure, off_support: bool = False) -> None:
    """Raise the first rule mu breaks as a direction around p0: support, zero mass, sign."""
    check_same_support(mu, p0)
    raise_first(total_problems(mu.total, signed=True)
                + direction_problems(mu.mass, p0.mass, off_support))


def ess_sup_ratio(mu: SignedMeasure, p0: DiscreteMeasure) -> float:
    """Essential supremum of |d(mu)/d(p0)| for a zero-mass direction mu dominated by p0."""
    check_direction(mu, p0)
    return _sup_ratio(mu, p0)


def _sup_ratio(mu: SignedMeasure, p0: DiscreteMeasure) -> float:
    """``ess_sup_ratio`` of a direction that already passed ``check_direction``."""
    pos = p0.mass > 0
    return float(np.max(np.abs(mu.mass[pos]) / p0.mass[pos], initial=0.0))


def validity_radius(mu: SignedMeasure, p0: DiscreteMeasure) -> float:
    """Largest a such that p0 + t*mu is a probability measure for all |t| <= a: the
    reciprocal of ess_sup_ratio, with 1/0 = +inf."""
    sup = ess_sup_ratio(mu, p0)
    return math.inf if sup == 0 else 1.0 / sup


def perturb(p0: DiscreteMeasure, mu: SignedMeasure, t: float) -> DiscreteMeasure:
    """Return p0 + t*mu as a measure, clamping only floating dust in [-1e-12, 0)."""
    check_same_support(mu, p0)
    mass = p0.mass + t * mu.mass
    if np.any(mass < -PROBABILITY_TOL):
        raise PreconditionError(f"p0 + {t!r}*mu has negative mass; outside the validity radius")
    mass[mass < 0] = 0.0  # what is left below 0 is floating dust
    return DiscreteMeasure(mass)
