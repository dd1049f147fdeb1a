"""Local bilinear structure of codivergences around a reference measure.

Around p0, every smooth-link codivergence behaves like
t*s * phi'(1)^2 * <mu, mu_tilde>_{p0}, where the inner product is the
nonparametric Fisher information metric.  This module computes that metric,
verifies the bilinear expansion on shrinking step grids, and fits the
two-scale expansion of the Hellinger codivergence when the perturbations
carry mass outside the support of p0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codivergence import PhiFunction, _finite_gram, hellinger_codiv, r_phi, v_phi
from .errors import PreconditionError
from .measures import (DiscreteMeasure, SignedMeasure, _sup_ratio, check_direction, exact_sum,
                       perturb)


@dataclass(frozen=True)
class PerturbationPair:
    """Two zero-mass signed directions dominated by a common reference measure."""

    reference: DiscreteMeasure
    mu: SignedMeasure
    mu_tilde: SignedMeasure

    def __post_init__(self):
        for m in (self.mu, self.mu_tilde):
            check_direction(m, self.reference)


def fisher_inner(pair: PerturbationPair) -> float:
    """Nonparametric Fisher inner product of the pair's directions; OverflowError if not finite."""
    pos = pair.reference.mass > 0
    inner = exact_sum(pair.mu.mass[pos] * pair.mu_tilde.mass[pos] / pair.reference.mass[pos])
    if not math.isfinite(inner):
        raise OverflowError("the Fisher inner product of the directions exceeds the float range")
    return inner


def fisher_gram(p0: DiscreteMeasure, mus: Sequence[SignedMeasure]) -> np.ndarray:
    """Gram matrix of the Fisher inner product over the given directions: H H' with
    rows mu_i / sqrt(p0) on supp(p0)."""
    for m in mus:
        check_direction(m, p0)
    pos = p0.mass > 0
    root0 = np.sqrt(p0.mass[pos])
    rows = np.array([m.mass[pos] / root0 for m in mus]).reshape(len(mus), root0.size)
    return _finite_gram(rows)


@dataclass(frozen=True)
class ExpansionLevel:
    t: float
    s: float
    v_value: float
    r_value: float
    v_residual: float
    r_residual: float
    v_ratio: float  # residual / (t^2 + s^2)
    r_ratio: float


@dataclass(frozen=True)
class ExpansionReport:
    phi_name: str
    inner: float
    coefficient: float  # phi'(1)^2 * inner
    levels: tuple[ExpansionLevel, ...]
    grid_shifts: int = 0  # halvings applied to reach the asymptotic window

    @property
    def leading_coeff_v(self) -> float:
        """v_value/(t*s) at the finest level."""
        ts = self.levels[-1].t * self.levels[-1].s
        return self.levels[-1].v_value / ts if ts != 0 else 0.0

    @property
    def leading_coeff_r(self) -> float:
        """r_value/(t*s) at the finest level."""
        ts = self.levels[-1].t * self.levels[-1].s
        return self.levels[-1].r_value / ts if ts != 0 else 0.0

    def to_json_dict(self) -> dict:
        return {"phi": self.phi_name, "fisher_inner": self.inner, "coefficient": self.coefficient,
                "leading_coeff_v": self.leading_coeff_v, "leading_coeff_r": self.leading_coeff_r,
                "grid_shifts": self.grid_shifts,
                "levels": [{"t": lv.t, "s": lv.s, "v_residual_ratio": lv.v_ratio,
                            "r_residual_ratio": lv.r_ratio, "v_residual": lv.v_residual,
                            "r_residual": lv.r_residual} for lv in self.levels]}

    def decay_ok(self) -> bool:
        return (geometric_decay_ok([lv.v_residual for lv in self.levels],
                                   [lv.v_ratio for lv in self.levels])
                and geometric_decay_ok([lv.r_residual for lv in self.levels],
                                       [lv.r_ratio for lv in self.levels]))


def geometric_decay_ok(residuals: Sequence[float], ratios: Sequence[float]) -> bool:
    """True when each halving shrinks the residual ratio by a factor of 0.6 or the
    residual itself is already at the noise floor 1e-14."""
    return all(residuals[k] <= 1e-14 or not ratios[k] > 0.6 * ratios[k - 1]
               for k in range(1, len(ratios)))


def expansion_check(p0: DiscreteMeasure, mu: SignedMeasure, mu_tilde: SignedMeasure,
                    phi: PhiFunction, levels: int = 5) -> ExpansionReport:
    """Evaluate both codivergence types on a shrinking (t, s) grid against the
    predicted bilinear term t*s*phi'(1)^2*<mu, mu_tilde>.

    The steps t_k = t0 * 2^-k, s_k = s0 * 2^-k halve from 10% of each direction's
    validity radius (capped at 1), so every step stays inside it.  The report is a
    window of ``levels`` consecutive steps.  A coarse window can straddle the
    crossover between the third- and fourth-order remainder terms, where
    consecutive residual ratios do not yet contract; in that case the window slides
    one step down (up to 8 times) until the asymptotic decay is visible.  Each step
    is evaluated once, when a window first needs it.
    """
    inner = fisher_inner(PerturbationPair(p0, mu, mu_tilde))  # checks both directions
    try:
        coeff = phi.dphi_at_one ** 2 * inner
    except OverflowError:
        raise OverflowError(f"phi'(1)^2 of {phi.name} exceeds the float range") from None
    t0, s0 = (0.1 * min(1.0 / sup, 1.0) if sup else 0.1
              for sup in (_sup_ratio(m, p0) for m in (mu, mu_tilde)))
    steps: list[ExpansionLevel] = []
    for shift in range(9):
        while len(steps) < shift + levels:
            t, s = t0 * 0.5 ** len(steps), s0 * 0.5 ** len(steps)
            p1, p2 = perturb(p0, mu, t), perturb(p0, mu_tilde, s)
            v_val, r_val = v_phi(p0, p1, p2, phi), r_phi(p0, p1, p2, phi)
            v_res, r_res = abs(v_val - t * s * coeff), abs(r_val - t * s * coeff)
            denom = t * t + s * s
            steps.append(ExpansionLevel(t, s, v_val, r_val, v_res, r_res,
                                        v_res / denom if denom > 0 else 0.0,
                                        r_res / denom if denom > 0 else 0.0))
        report = ExpansionReport(phi.name, inner, coeff, tuple(steps[shift:]), shift)
        if report.decay_ok():
            break
    return report


@dataclass(frozen=True)
class OffSupportReport:
    """Fitted and expected coefficients of the two-scale Hellinger expansion.

    The model fitted over the (t, s) grid is
        a*sqrt(ts) + b*ts + c1*t*sqrt(ts) + c2*s*sqrt(ts);
    a is the off-support affinity integral of sqrt(h1*h2); b is the exact
    second-order coefficient (inner_supp - m1*m2)/4 built from the on-support
    Fisher-type integral and the on-support masses m_i; the c terms are the
    mixed corrections -C*m_i/2 that a pure two-term model would alias onto b.
    """

    fitted_sqrt: float
    fitted_bilinear: float
    fitted_cross_t: float
    fitted_cross_s: float
    expected_sqrt: float
    expected_bilinear: float
    expected_cross_t: float
    expected_cross_s: float
    grid_scale: float

    @staticmethod
    def _rel_err(fitted: float, expected: float) -> float:
        return abs(fitted - expected) / max(abs(expected), 1e-300)

    @property
    def sqrt_rel_error(self) -> float:
        return self._rel_err(self.fitted_sqrt, self.expected_sqrt)

    @property
    def bilinear_rel_error(self) -> float:
        return self._rel_err(self.fitted_bilinear, self.expected_bilinear)

    def to_json_dict(self) -> dict:
        return {"grid_scale": self.grid_scale,
                "fitted": {"sqrt_ts": self.fitted_sqrt, "ts": self.fitted_bilinear,
                           "t_sqrt_ts": self.fitted_cross_t, "s_sqrt_ts": self.fitted_cross_s},
                "expected": {"sqrt_ts": self.expected_sqrt, "ts": self.expected_bilinear,
                             "t_sqrt_ts": self.expected_cross_t,
                             "s_sqrt_ts": self.expected_cross_s},
                "relative_errors": {"sqrt_ts": self.sqrt_rel_error, "ts": self.bilinear_rel_error}}


def hellinger_off_support_check(p0: DiscreteMeasure, mu1: SignedMeasure, mu2: SignedMeasure,
                                grid_scale: float = 1e-3, grid_n: int = 4) -> OffSupportReport:
    """Fit the Hellinger expansion for perturbations with mass off supp(p0).

    Requires zero-total-mass directions whose densities are nonnegative
    outside supp(p0) and that overlap supp(p0); the grid must stay inside the
    positivity region of p0 + t*mu_i.
    """
    supp = p0.mass > 0
    for name, mu in (("mu1", mu1), ("mu2", mu2)):
        check_direction(mu, p0, off_support=True)
        if not np.any(supp & (mu.mass != 0)):
            raise PreconditionError(f"{name} must overlap supp(p0)")
        neg = supp & (mu.mass < 0)
        t_max = float(np.min(p0.mass[neg] / -mu.mass[neg])) if np.any(neg) else math.inf
        if grid_scale > 0.5 * t_max:
            raise PreconditionError(f"grid scale {grid_scale!r} exceeds half the positivity "
                                    f"radius {t_max!r} of {name}")

    # rows in (t, s) order; one direction's grid_n perturbed measures are kept at a time
    steps = [grid_scale * i / grid_n for i in range(1, grid_n + 1)]
    p2s = [perturb(p0, mu2, s) for s in steps]
    design, values = [], []
    for t in steps:
        p1 = perturb(p0, mu1, t)
        for s, p2 in zip(steps, p2s):
            root = math.sqrt(t * s)
            design.append([root, t * s, t * root, s * root])
            values.append(hellinger_codiv(p0, p1, p2))
    coef, *_ = np.linalg.lstsq(np.asarray(design), np.asarray(values), rcond=None)

    off = ~supp
    c_sqrt = exact_sum(np.sqrt(np.maximum(mu1.mass[off], 0.0) * np.maximum(mu2.mass[off], 0.0)))
    inner_supp = exact_sum(mu1.mass[supp] * mu2.mass[supp] / p0.mass[supp])
    m1, m2 = (exact_sum(mu.mass[supp]) for mu in (mu1, mu2))
    return OffSupportReport(*map(float, coef), expected_sqrt=c_sqrt,
                            expected_bilinear=(inner_supp - m1 * m2) / 4.0,
                            expected_cross_t=-c_sqrt * m1 / 2.0,
                            expected_cross_s=-c_sqrt * m2 / 2.0, grid_scale=grid_scale)
