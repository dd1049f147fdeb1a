"""Independent numerical evaluation of R_alpha and of divergence matrices.

The family routines integrate the defining ratio of integrals directly
(exact two-point sums for Bernoulli, adaptive Gauss-Legendre quadrature for
Gaussian/Exponential/Gamma, and anchored log-space series for Poisson: each
series is divided by its term at k = floor(lambda_0), and summed over a window
that widens until a geometric bound on each tail is below 2**-60 of the sum)
and exist to validate the closed forms in :mod:`codiv.families`.  They
deliberately avoid every closed-form shortcut.  ``oracle_natural_r_alpha``
checks the closed forms another way: through the exponential-family identity,
of which each is a special case, on natural parameters.  Both read the table
_ORACLES, keyed by the JSON kind.  The discrete routines evaluate codivergences
pair by pair, each from its defining finite sums accumulated with ``math.fsum``,
to check the Gram cells of :func:`codiv.codivergence.features` through which
the package computes every discrete codivergence and divergence matrix.  The CLI
and the other modules never call them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Sequence

import numpy as np

from .codivergence import check_kind
from .errors import DegeneratePhiError, OracleFailureError, PreconditionError
from .families import FAMILIES, ParamFamily, check_family_triple
from .matrices import DivMatrix
from .measures import check_probability, check_same_support, dominated_by, exact_sum

# Exponent drop (in nats) defining the integration window relative to the
# integrand's peak; e^-46 < 1e-19.
_TAIL_DROP = 46.0

# adaptive_gauss_legendre: tolerance, first panel count, most panels.
_REL_TOL = 1e-9
_QUAD_PANELS = 8
_MAX_PANELS = 2 ** 16

# Its rule: the bits of numpy's leggauss(32) (Golub & Welsch, Math. Comp. 23, 1969), whose
# nodes are antisymmetric and weights symmetric, so the nonnegative half of each is written.
_GL_HALF = np.array(((
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816), (
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506)))
_GL_NODES, _GL_WEIGHTS = np.concatenate([_GL_HALF[:, ::-1] * [[-1.0], [1.0]], _GL_HALF], axis=1)
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False

# _poisson_log_series: most terms in a window, tail bound relative to the sum, and the
# drop (in nats) below the peak past which terms are not summed.
_SERIES_TERMS = 2 ** 20
_SERIES_TAIL = 2.0 ** -60
_SERIES_DROP = 60.0


def adaptive_gauss_legendre(f, lo: float, hi: float) -> float:
    """Integrate a vectorized integrand by panel bisection until two successive uniform
    refinements agree to _REL_TOL/4; OracleFailureError at the first non-finite estimate."""
    if not hi > lo:
        raise PreconditionError("empty integration interval")
    panels = _QUAD_PANELS
    prev = None
    while panels <= _MAX_PANELS:
        edges = np.linspace(lo, hi, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halfs = 0.5 * (edges[1:] - edges[:-1])
        xs = mids[:, None] + halfs[:, None] * _GL_NODES[None, :]
        vals = f(xs.ravel()).reshape(panels, -1)
        est = exact_sum((halfs[:, None] * (_GL_WEIGHTS[None, :] * vals)).ravel())
        if not math.isfinite(est):
            raise OracleFailureError(f"the quadrature estimate on {panels} panels is {est!r}")
        if prev is not None:
            scale = max(abs(est), abs(prev), 1e-300)
            if abs(est - prev) <= 0.25 * _REL_TOL * scale:
                return est
        prev = est
        panels *= 2
    raise OracleFailureError(f"quadrature did not converge within {_MAX_PANELS} panels")


def _log_window(log_g, y_star: float, first_step: float = 1.0) -> tuple[float, float]:
    """Bracket [y_lo, y_hi] where log_g has dropped _TAIL_DROP below its peak at y_star;
    OracleFailureError unless log_g is finite at the peak and the bracket a finite interval."""
    target = log_g(y_star) - _TAIL_DROP
    ends = []
    for sign in (-1.0, 1.0) if math.isfinite(target) else ():
        step = first_step
        while log_g(y_star + sign * step) > target:
            step *= 1.5
        ends.append(y_star + sign * step)
    if not (ends and -math.inf < ends[0] < ends[1] < math.inf):
        raise OracleFailureError(f"no finite integration window around the peak at {y_star!r}")
    return tuple(ends)


def _gaussian_power_integral(params, powers) -> float:
    """Integral of prod_j N(mean_j, sigma^2)(x)**power_j dx over rows (mean_j, sigma); powers
    sum to 1.  The integrand is a bump of width sigma centred at sum_j power_j * mean_j,
    outside the means when a power is negative, so the window is bracketed around it."""
    means, sigma = params[:, 0], params[0, 1]
    log_norm = -math.log(sigma * math.sqrt(2.0 * math.pi))  # total, since sum(powers) == 1
    inv2s2 = 1.0 / (2.0 * sigma * sigma)

    def log_f(x):
        return log_norm - inv2s2 * sum(c * (x - m) ** 2 for m, c in zip(means, powers) if c != 0.0)

    lo, hi = _log_window(log_f, float(np.dot(powers, means)), sigma)
    return adaptive_gauss_legendre(lambda x: np.exp(log_f(x)), lo, hi)


def _gamma_power_integral(params, powers) -> float | None:
    """Integral of prod_j Gamma(shape_j, rate_j)(x)**power_j dx over rows (shape_j, rate_j),
    or None if divergent.

    Substituting x = e^y turns the integrand into exp(S*y - R*e^y + const)
    with S = sum(power_j * shape_j) and R = sum(power_j * rate_j): smooth on
    the whole line and exponentially small in both tails, so plain
    Gauss-Legendre converges fast even for shapes below 1.  The integral
    exists iff S > 0 and R > 0; it peaks at y = log(S/R), or -inf where S/R underflows.
    """
    shapes, rates = params[:, 0], params[:, 1]
    S = float(np.dot(powers, shapes))
    R = float(np.dot(powers, rates))
    if S <= 0 or R <= 0:
        return None
    const = float(np.dot(powers, shapes * np.log(rates)))
    try:  # lgamma of a shape near 1e308 overflows, and so can the sum
        const -= math.fsum(c * math.lgamma(a) for c, a in zip(powers, shapes) if c != 0.0)
    except (OverflowError, ValueError):  # ValueError: inf - inf
        raise OracleFailureError("the Gamma oracle's log-normaliser sum of power x lgamma(shape) "
                                 f"exceeds the float range at shapes {shapes.tolist()}") from None

    def log_g(y):
        return const + S * y - R * math.exp(y)

    def f(y):
        return np.exp(const + S * y - R * np.exp(y))

    y_lo, y_hi = _log_window(log_g, math.log(S / R) if S / R > 0 else -math.inf)
    return adaptive_gauss_legendre(f, y_lo, y_hi)


def _poisson_log_series(L: float, m: int) -> float:
    """log of the series sum_k e^((k - m) L) m!/k!, whose terms are log-concave in k with
    their mode at g = e^L and the value 1 at the anchor m.

    The log terms are accumulated outward from m by ``np.cumsum`` of L - log j, over a
    window [lo, hi] that covers m and g.  Past hi a term is at most r = g/(hi + 1) times
    the one before it, and below lo at most r = lo/g, so each tail is at most its edge
    term times r/(1 - r); the window widens until both bounds are below _SERIES_TAIL of
    the sum.  Terms more than _SERIES_DROP nats below the peak are not summed.
    OracleFailureError when e^L exceeds the float range or the window would hold more
    than _SERIES_TERMS terms."""
    try:
        if not math.isfinite(L):
            raise OverflowError
        g = math.exp(L)
    except OverflowError:
        raise OracleFailureError(f"the Poisson series' term ratio e^{L!r}/(k + 1) exceeds "
                                 "the float range") from None
    margin = 10 * math.ceil(math.sqrt(g)) + 10
    while True:
        lo = max(0, math.floor(min(m, g)) - margin)
        hi = math.ceil(max(m, g)) + margin
        if hi - lo + 1 > _SERIES_TERMS:
            raise OracleFailureError(f"the Poisson series around k = {m} and the mode "
                                     f"{g!r} needs more than {_SERIES_TERMS} terms")
        up = np.cumsum(L - np.log(np.arange(m + 1, hi + 1, dtype=float)))
        down = np.cumsum(np.log(np.arange(m, lo, -1, dtype=float)) - L)
        logs = np.concatenate([down[::-1], [0.0], up])
        peak = float(logs.max())
        total = exact_sum(np.exp(logs[logs >= peak - _SERIES_DROP] - peak))
        tails = [math.exp(logs[-1] - peak) * g / (hi + 1 - g)]  # r / (1 - r)
        if lo > 0:
            tails.append(math.exp(logs[0] - peak) * lo / (g - lo))
        if max(tails) <= _SERIES_TAIL * total:
            return peak + math.log(total)
        margin *= 2


def _poisson_r_alpha(params, alpha: float) -> float:
    """R_alpha of one Poisson coordinate from its defining series, in log space.

    With powers c summing to 1, the series sum_k prod_j Pois(lam_j)(k)**c_j is
    e^(-B + mL)/m! times ``_poisson_log_series``(L, m)'s sum, for B = c.lam and
    L = c.log(lam).  Every series uses the anchor m = floor(lam_0), and the series of
    Pois(lam_0) itself, whose sum is 1, joins the three of R_alpha: then
    log(R_alpha + 1) = log S_a + log S_0 - log S_b - log S_c, in which the factors
    e^(-B + mL)/m! cancel exactly, so they are never computed.  OracleFailureError when
    R_alpha exceeds the float range."""
    lams = params[:, 0]
    log_lams = np.log(lams)
    m = math.floor(lams[0])
    log1p = 0.0
    bar, first, second = _mixture_weights(alpha)
    for sign, powers in ((1.0, bar), (1.0, (1.0, 0.0, 0.0)), (-1.0, first), (-1.0, second)):
        L = float(np.dot(powers, log_lams))
        log1p += sign * _poisson_log_series(L, m)
    try:
        return math.expm1(log1p)
    except OverflowError:
        raise OracleFailureError(f"the Poisson series give R_alpha beyond the float range: "
                                 f"log(R_alpha + 1) = {log1p!r}") from None


def _bernoulli_power_sum(params, powers) -> float:
    """Exact two-point sum of prod_j Ber(theta_j)(x)**power_j over x in {0, 1}."""
    thetas = params[:, 0]
    try:
        return (math.exp(float(np.dot(powers, np.log(thetas))))
                + math.exp(float(np.dot(powers, np.log1p(-thetas)))))
    except OverflowError:
        raise OracleFailureError("a term of the Bernoulli sum exceeds the float range") from None


def _mixture_weights(a: float) -> np.ndarray:
    """The weights of members 0, 1 and 2 in the three mixtures of R_alpha, one row each:
    log(R_alpha + 1) = log I(1 - 2a, a, a) - log I(1 - a, a, 0) - log I(1 - a, 0, a)."""
    return np.array(((1.0 - 2.0 * a, a, a), (1.0 - a, a, 0.0), (1.0 - a, 0.0, a)))


def _ratio_minus_one(v0: float, v1: float, v2: float) -> float:
    """v0/(v1 v2) - 1 for positive v1 and v2, taken on the mantissas and scaled by
    2**(e0 - e1 - e2), so that v1 v2 never underflows; OracleFailureError when the ratio is
    beyond the float range."""
    (m0, e0), (m1, e1), (m2, e2) = map(math.frexp, (v0, v1, v2))
    try:
        return math.ldexp(m0 / (m1 * m2), e0 - e1 - e2) - 1.0
    except OverflowError:
        raise OracleFailureError(f"the ratio {v0!r}/({v1!r} * {v2!r}) of the oracle's sums or "
                                 "integrals exceeds the float range") from None


def _ratio_of_integrals(integral, params, alpha: float) -> float:
    """R_alpha of one scalar coordinate from its three defining integrals, where
    ``integral(params, powers)`` is the integral of prod_j p_j(x)**powers[j] and None
    marks a divergent one; +inf when one diverges.  An integral of a positive integrand
    that comes out <= 0 or non-finite was not resolved (a peak narrower than the panels,
    say), so it raises OracleFailureError, as does a ratio beyond the float range."""
    values = [integral(params, powers) for powers in _mixture_weights(alpha)]
    if None in values:
        return math.inf
    if not all(0 < value < math.inf for value in values):
        raise OracleFailureError(f"the oracle integrals {values} of a coordinate are not all "
                                 "positive and finite: the integrand was not resolved")
    return _ratio_minus_one(*values)


def r_alpha_product(componentwise: Sequence[float]) -> float:
    """Combine per-coordinate R_alpha values: product of (value + 1) minus 1; +inf absorbs.
    OracleFailureError when finite values multiply beyond the float range."""
    if any(math.isinf(v) for v in componentwise):
        return math.inf
    product = math.prod(1.0 + v for v in componentwise)
    if not math.isfinite(product):
        raise OracleFailureError("the coordinates' R_alpha + 1 multiply beyond the float range")
    return product - 1.0


# (route, natural, A, in_domain) of one coordinate, for each JSON kind; row j of ``params``
# holds the coordinate's parameters in family j, in the columns of FAMILIES' ``coords``.
# route(params, alpha) is R_alpha from integrals or series, natural(params) the natural
# parameters, one row per family (mean / sigma for a Gaussian, (shape - 1, -rate) for a
# Gamma), and A the log-partition of one such row, which is finite where in_domain holds.
_ORACLES = {
    "gaussian_iso": (partial(_ratio_of_integrals, _gaussian_power_integral),
                     lambda p: p[:, :1] / p[:, 1:], lambda t: t[0] * t[0] / 2.0, lambda t: True),
    "poisson_product": (_poisson_r_alpha, np.log, lambda t: float(np.exp(t[0])), lambda t: True),
    "bernoulli_product": (partial(_ratio_of_integrals, _bernoulli_power_sum),
                          lambda p: np.log(p / (1.0 - p)),
                          lambda t: float(np.logaddexp(0.0, t[0])), lambda t: True),
    "gamma_product": (partial(_ratio_of_integrals, _gamma_power_integral),
                      lambda p: p * (1.0, -1.0) - (1.0, 0.0),
                      lambda t: math.lgamma(t[0] + 1.0) - (t[0] + 1.0) * math.log(-t[1]),
                      lambda t: t[0] > -1.0 and t[1] < 0.0),
}
_ORACLES["exponential_product"] = _ORACLES["gamma_product"]


def _coordinates(f0, f1, f2, alpha: float) -> np.ndarray:
    """The coordinate x family x parameter table of a checked triple."""
    check_family_triple(f0, f1, f2, alpha)
    return np.stack([np.column_stack(FAMILIES[f.kind].coords(f)) for f in (f0, f1, f2)], axis=1)


def oracle_r_alpha(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily, alpha: float) -> float:
    """Numerical R_alpha for a same-kind family triple, one coordinate at a time.

    Product families are composed with the product rule; the per-coordinate
    integrals are evaluated to _REL_TOL, and the Poisson series until their tail
    bounds are below _SERIES_TAIL of their sums.
    """
    route = _ORACLES[f0.kind][0]
    return r_alpha_product([route(params, alpha) for params in _coordinates(f0, f1, f2, alpha)])


def oracle_natural_r_alpha(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily,
                           alpha: float) -> float:
    """R_alpha from the exponential-family identity, one coordinate at a time, on its natural
    parameters tj and log-partition A: log(R_alpha + 1) = A(tbar) - A(t01) - A(t02) + A(t0),
    where tbar, t01 and t02 mix t0, t1 and t2 with the weights of ``_mixture_weights``;
    +inf when a mixed parameter leaves the natural domain."""
    _, natural, log_partition, in_domain = _ORACLES[f0.kind]
    weights, log1p = _mixture_weights(alpha), 0.0
    for params in _coordinates(f0, f1, f2, alpha):
        theta = natural(params)
        mixed = weights @ theta
        if not all(map(in_domain, mixed)):
            return math.inf
        bar, first, second = map(log_partition, mixed)
        log1p += bar - first - second + log_partition(theta[0])
    return math.expm1(log1p)


def _pairwise_codiv(p0, p1, p2, kind: str, phi) -> float:
    """D(p0 | p1, p2) of ``kind`` from its defining integrals, each a finite sum accumulated
    with ``math.fsum``: the pair route that checks the Gram cells of ``features``."""
    if kind == "hellinger":
        # Does not require domination: mass of p1/p2 outside supp(p0) is fine as
        # long as the affinities with p0 stay positive.
        pairs = ((p1, p2), (p0, p1), (p0, p2))
        d12, d1, d2 = (math.fsum(np.sqrt(p.mass * q.mass)) for p, q in pairs)
        return _ratio_minus_one(d12, d1, d2) if d1 > 0 and d2 > 0 else math.inf
    if not (dominated_by(p1, p0) and dominated_by(p2, p0)):
        return math.inf
    pos = p0.mass > 0
    if kind == "chi2":
        return math.fsum(p1.mass[pos] * p2.mass[pos] / p0.mass[pos]) - 1.0
    w = p0.mass[pos]
    f1 = phi.apply(p1.mass[pos] / w)
    f2 = phi.apply(p2.mass[pos] / w)
    cross, m1, m2 = (math.fsum(x) for x in (f1 * f2 * w, f1 * w, f2 * w))
    if kind == "vphi":
        return cross - m1 * m2
    if m1 <= 0 or m2 <= 0:
        raise DegeneratePhiError("a normalizing integral of phi vanished")
    return _ratio_minus_one(cross, m1, m2)


def oracle_divergence_matrix(p0, ps, kind: str, phi=None, reference: str = "") -> DivMatrix:
    """Reference divergence matrix: every entry D(p0 | ps[j], ps[k]) evaluated on its own
    by the pairwise ``math.fsum`` sums, to check ``divergence_matrix``."""
    check_kind(kind, phi)
    check_same_support(p0, *ps)
    if kind in ("vphi", "rphi"):  # the normalizing integrals assume totals of 1
        check_probability(p0, *ps)
    m = len(ps)
    entries = np.zeros((m, m))
    for j in range(m):
        for k in range(j, m):
            entries[j, k] = entries[k, j] = _pairwise_codiv(p0, ps[j], ps[k], kind, phi)
    return DivMatrix(kind=kind, entries=entries, reference=reference)
