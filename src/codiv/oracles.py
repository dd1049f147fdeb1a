"""Independent numerical evaluation of R_alpha and of divergence matrices.

The family routines integrate the defining ratio of integrals directly
(truncated series for Poisson, exact two-point sums for Bernoulli, adaptive
Gauss-Legendre quadrature for Gaussian/Exponential/Gamma) and exist to
validate the closed forms in :mod:`codiv.families`.  They deliberately avoid
every closed-form shortcut.  The discrete routines evaluate codivergences
pair by pair, each from its defining finite sums accumulated with
``math.fsum``, to check the Gram cells of :func:`codiv.codivergence.features`
through which the package computes every discrete codivergence and
divergence matrix.  The CLI and the other modules never call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .codivergence import MATRIX_KINDS
from .errors import DegeneratePhiError, OracleFailureError, PreconditionError
from .families import FAMILIES, ParamFamily, check_family_triple, r_alpha_product
from .matrices import DivMatrix
from .measures import check_probability, check_same_support, dominated_by

# Exponent drop (in nats) defining the integration window relative to the
# integrand's peak; e^-46 < 1e-19.
_TAIL_DROP = 46.0


@dataclass(frozen=True)
class OracleConfig:
    rel_tol: float = 1e-9
    quad_panels: int = 8
    quad_order: int = 32
    max_panels: int = 2 ** 16

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise PreconditionError("rel_tol must be positive")
        if self.quad_order < 2:
            raise PreconditionError("quad_order must be at least 2")


DEFAULT_CONFIG = OracleConfig()


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    return leggauss(order)


def adaptive_gauss_legendre(f, lo: float, hi: float, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Integrate a vectorized integrand by panel bisection until two successive
    uniform refinements agree to rel_tol/4."""
    if not hi > lo:
        raise PreconditionError("empty integration interval")
    nodes, weights = _gl_nodes(cfg.quad_order)
    panels = max(1, cfg.quad_panels)
    prev = None
    while panels <= cfg.max_panels:
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = mids[:, None] + halfs[:, None] * nodes[None, :]
        vals = f(xs.ravel()).reshape(panels, -1)
        est = math.fsum((halfs[:, None] * (weights[None, :] * vals)).ravel())
        if prev is not None:
            scale = max(abs(est), abs(prev), 1e-300)
            if abs(est - prev) <= 0.25 * cfg.rel_tol * scale:
                return est
        prev = est
        panels *= 2
    raise OracleFailureError(f"quadrature did not converge within {cfg.max_panels} panels")


def _log_window(log_g, y_star: float, first_step: float = 1.0) -> tuple[float, float]:
    """Bracket [y_lo, y_hi] where log_g has dropped _TAIL_DROP below its peak at y_star."""
    target = log_g(y_star) - _TAIL_DROP
    step = first_step
    y_lo = y_star - step
    while log_g(y_lo) > target:
        step *= 1.5
        y_lo = y_star - step
    step = first_step
    y_hi = y_star + step
    while log_g(y_hi) > target:
        step *= 1.5
        y_hi = y_star + step
    return y_lo, y_hi


def _gaussian_power_integral(params, powers, cfg: OracleConfig) -> float:
    """Integral of prod_j N(mean_j, sigma^2)(x)**power_j dx over rows (mean_j, sigma); powers
    sum to 1.  The integrand is a bump of width sigma centred at sum_j power_j * mean_j,
    outside the means when a power is negative, so the window is bracketed around it."""
    means, sigma = params[:, 0], params[0, 1]
    powers = np.asarray(powers, dtype=float)
    log_norm = -math.log(sigma * math.sqrt(2.0 * math.pi))  # total, since sum(powers) == 1
    inv2s2 = 1.0 / (2.0 * sigma * sigma)

    def log_f(x):
        return log_norm - inv2s2 * sum(c * (x - m) ** 2 for m, c in zip(means, powers) if c != 0.0)

    lo, hi = _log_window(log_f, float(np.dot(powers, means)), sigma)
    return adaptive_gauss_legendre(lambda x: np.exp(log_f(x)), lo, hi, cfg)


def _gamma_power_integral(params, powers, cfg: OracleConfig) -> float | None:
    """Integral of prod_j Gamma(shape_j, rate_j)(x)**power_j dx over rows (shape_j, rate_j),
    or None if divergent.

    Substituting x = e^y turns the integrand into exp(S*y - R*e^y + const)
    with S = sum(power_j * shape_j) and R = sum(power_j * rate_j): smooth on
    the whole line and exponentially small in both tails, so plain
    Gauss-Legendre converges fast even for shapes below 1.  The integral
    exists iff S > 0 and R > 0.
    """
    shapes, rates = params[:, 0], params[:, 1]
    powers = np.asarray(powers, dtype=float)
    S = float(np.dot(powers, shapes))
    R = float(np.dot(powers, rates))
    if S <= 0 or R <= 0:
        return None
    const = float(np.dot(powers, shapes * np.log(rates)))
    const -= math.fsum(c * math.lgamma(a) for c, a in zip(powers, shapes) if c != 0.0)

    def log_g(y):
        return const + S * y - R * math.exp(y)

    def f(y):
        return np.exp(const + S * y - R * np.exp(y))

    y_star = math.log(S / R)
    y_lo, y_hi = _log_window(log_g, y_star)
    return adaptive_gauss_legendre(f, y_lo, y_hi, cfg)


def _poisson_power_sum(lams, powers) -> float:
    """Sum over k of prod_j Pois(lam_j)(k)**power_j, truncated by a tail bound."""
    lams = np.asarray(lams, dtype=float)
    powers = np.asarray(powers, dtype=float)
    B = float(np.dot(powers, lams))
    L = float(np.dot(powers, np.log(lams)))
    try:
        growth = math.exp(L)  # term ratio is growth/(k+1)
    except OverflowError:
        raise OracleFailureError(f"the Poisson series' term ratio e^{L!r}/(k + 1) exceeds "
                                 "the float range") from None
    terms = []
    k = 0
    while True:
        term = math.exp(-B + k * L - math.lgamma(k + 1))
        terms.append(term)
        k += 1
        # Past 2*growth the terms at least halve each step, so the full tail
        # is bounded by twice the next term.
        if k > 2.0 * growth + 10.0 and term < 1e-18 * math.fsum(terms):
            break
        if k > 10_000_000:
            raise OracleFailureError("poisson series did not meet its tail bound")
    return math.fsum(terms)


def _bernoulli_power_sum(thetas, powers) -> float:
    """Exact two-point sum of prod_j Ber(theta_j)(x)**power_j over x in {0, 1}."""
    thetas = np.asarray(thetas, dtype=float)
    powers = np.asarray(powers, dtype=float)
    at_one = math.exp(float(np.dot(powers, np.log(thetas))))
    at_zero = math.exp(float(np.dot(powers, np.log1p(-thetas))))
    return at_one + at_zero


# For each oracle component of the family table: the integral, over one
# coordinate, of prod_j p_j(x)**powers[j], where row j of ``params`` holds the
# coordinate's parameters in family j; None marks a divergent integral.
_COMPONENTS = {
    "gaussian": _gaussian_power_integral,
    "gamma": _gamma_power_integral,
    "poisson": lambda params, powers, cfg: _poisson_power_sum(params[:, 0], powers),
    "bernoulli": lambda params, powers, cfg: _bernoulli_power_sum(params[:, 0], powers),
}


def _component_r_alpha(integral, params, alpha: float, cfg: OracleConfig) -> float:
    """R_alpha of one scalar coordinate from its three defining integrals; +inf when one
    diverges.  An integral of a positive integrand that comes out <= 0 or non-finite was
    not resolved (a peak narrower than the panels, say), so it raises OracleFailureError."""
    values = [integral(params, powers, cfg) for powers in (
        (1.0 - 2.0 * alpha, alpha, alpha), (1.0 - alpha, alpha, 0.0), (1.0 - alpha, 0.0, alpha))]
    if None in values:
        return math.inf
    if not all(0 < value < math.inf for value in values):
        raise OracleFailureError(f"the oracle integrals {values} of a coordinate are not all "
                                 "positive and finite: the integrand was not resolved")
    return values[0] / (values[1] * values[2]) - 1.0


def oracle_r_alpha(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily, alpha: float,
                   cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Numerical R_alpha for a same-kind family triple, one coordinate at a time.

    Product families are composed with the product rule; the per-coordinate
    integrals are evaluated to cfg.rel_tol.
    """
    if not alpha > 0:
        raise PreconditionError("alpha must be positive")
    check_family_triple(f0, f1, f2)
    spec = FAMILIES[type(f0)]
    integral = _COMPONENTS.get(spec.component)
    if integral is None:
        raise PreconditionError("the oracle needs a density; generic families are not supported")
    # coordinate x family x component parameter
    table = np.stack([np.column_stack(spec.coords(f)) for f in (f0, f1, f2)], axis=1)
    return r_alpha_product([_component_r_alpha(integral, params, alpha, cfg) for params in table])


def _pairwise_codiv(p0, p1, p2, kind: str, phi) -> float:
    """D(p0 | p1, p2) of ``kind`` from its defining integrals, each a finite sum accumulated
    with ``math.fsum``: the pair route that checks the Gram cells of ``features``."""
    if kind == "hellinger":
        # Does not require domination: mass of p1/p2 outside supp(p0) is fine as
        # long as the affinities with p0 stay positive.
        def affinity(p, q):
            return math.fsum(np.sqrt(p.mass * q.mass))

        d1 = affinity(p0, p1)
        d2 = affinity(p0, p2)
        if d1 <= 0 or d2 <= 0:
            return math.inf
        return affinity(p1, p2) / (d1 * d2) - 1.0
    if not (dominated_by(p1, p0) and dominated_by(p2, p0)):
        return math.inf
    pos = p0.mass > 0
    if kind == "chi2":
        return math.fsum(p1.mass[pos] * p2.mass[pos] / p0.mass[pos]) - 1.0
    w = p0.mass[pos]
    f1 = phi.apply(p1.mass[pos] / w)
    f2 = phi.apply(p2.mass[pos] / w)
    cross = math.fsum(f1 * f2 * w)
    m1 = math.fsum(f1 * w)
    m2 = math.fsum(f2 * w)
    if kind == "vphi":
        return cross - m1 * m2
    if m1 <= 0 or m2 <= 0:
        raise DegeneratePhiError("a normalizing integral of phi vanished")
    return cross / (m1 * m2) - 1.0


def oracle_divergence_matrix(p0, ps, kind: str, phi=None, reference: str = "") -> DivMatrix:
    """Reference divergence matrix: every entry D(p0 | ps[j], ps[k]) evaluated on its own
    by the pairwise ``math.fsum`` sums, to check ``divergence_matrix``."""
    if kind not in MATRIX_KINDS:
        raise PreconditionError(f"unknown matrix kind {kind!r}")
    if kind in ("vphi", "rphi") and phi is None:
        raise PreconditionError(f"kind {kind!r} requires a PhiFunction")
    check_same_support(p0, *ps)
    if kind in ("vphi", "rphi"):  # the normalizing integrals assume totals of 1
        check_probability(p0, *ps)
    m = len(ps)
    entries = np.zeros((m, m))
    for j in range(m):
        for k in range(j, m):
            entries[j, k] = entries[k, j] = _pairwise_codiv(p0, ps[j], ps[k], kind, phi)
    return DivMatrix(kind=kind, entries=entries, reference=reference)
