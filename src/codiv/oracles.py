"""Independent numerical evaluation of R_alpha and of divergence matrices.

The family routines integrate the defining ratio of integrals directly (exact two-point
sums for Bernoulli, the trapezoidal rule halved to convergence for Gaussian/Exponential/Gamma,
anchored log-space series for Poisson) to validate the closed forms in
:mod:`codiv.families`, with no closed-form shortcut.  Each coordinate gives log(R_alpha + 1),
and the coordinates are summed in logs.  They read the table _ORACLES and work on Python
floats, loading no numpy; only the discrete routines use it.
Those evaluate codivergences pair by pair from their defining finite sums, accumulated
with ``math.fsum``, to check the Gram cells of :func:`codiv.codivergence.features`.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import accumulate, chain, islice

from .errors import (DegeneratePhiError, OracleFailureError, PreconditionError, exact_dot,
                     exact_fsum, exact_units)
from .families import ParamFamily, _coordinates, _exp

# Drop (in nats) below the integrand's peak that ends the integration window; e^-46 < 1e-19.
_TAIL_DROP = 46.0

# trapezoid: tolerance, first interval count, and most intervals.
_REL_TOL = 1e-9
_FIRST_INTERVALS = 16
_MAX_INTERVALS = 2 ** 16

# _poisson_log_series: most terms in a window, tail bound relative to the sum, and the
# drop (in nats) below the peak past which terms are not summed.
_SERIES_TERMS = 2 ** 20
_SERIES_TAIL = 2.0 ** -60
_SERIES_DROP = 60.0


class _Points(list):  # a refinement's points, whose ``size`` bench/tracer.py counts
    size = property(len)


def trapezoid(f, lo: float, hi: float) -> float:
    """Integrate f, which maps a list of points to the list of their values, by the
    trapezoidal rule on _FIRST_INTERVALS intervals, halving the step, and evaluating only the
    new midpoints, until two successive estimates agree to _REL_TOL/4.  On the oracles' windowed
    analytic integrands, which decay exponentially, the rule converges geometrically (Trefethen
    & Weideman, SIAM Review 56, 2014), so the last change bounds the error.  OracleFailureError
    at the first non-finite estimate and past _MAX_INTERVALS intervals."""
    if not hi > lo:
        raise PreconditionError("empty integration interval")
    n, width, prev = _FIRST_INTERVALS, hi - lo, None
    values = f(_Points([lo + width * (i / n) for i in range(n + 1)]))
    values[0], values[-1] = 0.5 * values[0], 0.5 * values[-1]
    while True:
        est = width / n * exact_fsum(values)
        if not math.isfinite(est):
            raise OracleFailureError(f"the quadrature estimate on {n} intervals is {est!r}")
        if prev is not None and abs(est - prev) <= 0.25 * _REL_TOL * max(abs(est), abs(prev)):
            return est
        if n == _MAX_INTERVALS:
            raise OracleFailureError(f"quadrature did not converge within {n} intervals")
        prev, n = est, 2 * n
        values += f(_Points([lo + width * (i / n) for i in range(1, n, 2)]))


# The former name, which bench/tracer.py wraps and the package still exports (ROADMAP item 6).
adaptive_gauss_legendre = trapezoid


def _log_window(log_g, y_star: float) -> tuple[float, float]:
    """Bracket [y_lo, y_hi] where log_g has dropped _TAIL_DROP below its peak at y_star;
    OracleFailureError unless log_g is finite at the peak and the bracket a finite interval."""
    target = log_g(y_star) - _TAIL_DROP
    ends = []
    for sign in (-1.0, 1.0) if math.isfinite(target) else ():
        step = 1.0
        while log_g(y_star + sign * step) > target:
            step *= 1.5
        ends.append(y_star + sign * step)
    if not (ends and -math.inf < ends[0] < ends[1] < math.inf):
        raise OracleFailureError(f"no finite integration window around the peak at {y_star!r}")
    return tuple(ends)


def _gaussian_power_integral(params, powers) -> float:
    """Integral of prod_j N(mean_j, sigma^2)(x)**power_j dx over rows (mean_j, sigma); powers
    sum to 1, so sigma cancels in z = (x - mean_0)/sigma: the integrand is a bump of width 1 at
    c = sum_j power_j mu_j, mu_j = (mean_j - mean_0)/sigma (outside the mu_j when a power is
    negative).  It is integrated in y = z - c, where a bump far from 0 is no step."""
    mus = [(row[0] - params[0][0]) / row[1] for row in params]
    centre = exact_dot(powers, mus)
    shifts, log_norm = [mu - centre for mu in mus], -0.5 * math.log(2.0 * math.pi)

    def log_f(y):
        return log_norm - 0.5 * exact_fsum([c * ((y - s) * (y - s))
                                            for s, c in zip(shifts, powers) if c])

    lo, hi = _log_window(log_f, 0.0)
    return trapezoid(lambda ys: [_exp(log_f(y)) for y in ys], lo, hi)


def _gamma_divergent(params, powers) -> bool:
    """Whether the integral of prod_j Gamma(shape_j, rate_j)(x)**power_j dx over rows
    (shape_j, rate_j) diverges: unless S = sum(power_j * shape_j) and R = sum(power_j * rate_j)
    are both positive, exactly, however small."""
    return not all(exact_units(powers, column) > 0 for column in zip(*params))


def _gamma_power_integral(params, powers) -> float:
    """Integral of prod_j Gamma(shape_j, rate_j)(x)**power_j dx over rows (shape_j, rate_j),
    where it converges (see ``_gamma_divergent``).  Substituting x = e^y turns the integrand
    into exp(S*y - R*e^y + const): analytic in the strip |Im y| < pi/2 and exponentially small
    in both tails, so the trapezoidal rule converges fast even for shapes below 1.  It peaks at
    y = log(S/R), or -inf where S/R underflows.  OracleFailureError where R > 0 rounds to 0."""
    shapes, rates = [row[0] for row in params], [row[1] for row in params]
    S, R = exact_dot(powers, shapes), exact_dot(powers, rates)
    if R == 0:
        raise OracleFailureError(f"rates {rates} mix to a rate > 0 that rounds to 0")
    const = exact_dot(powers, [a * math.log(b) for a, b in zip(shapes, rates)])
    try:  # lgamma of a shape near 1e308 overflows, and so can the sum
        const -= math.fsum(c * math.lgamma(a) for c, a in zip(powers, shapes) if c != 0.0)
    except (OverflowError, ValueError):  # ValueError: inf - inf
        raise OracleFailureError("the Gamma oracle's log-normaliser sum of power x lgamma(shape) "
                                 f"exceeds the float range at shapes {shapes}") from None

    def log_g(y):
        return const + S * y - R * _exp(y)

    y_lo, y_hi = _log_window(log_g, math.log(S / R) if S / R > 0 else -math.inf)
    return trapezoid(lambda ys: [_exp(log_g(y)) for y in ys], y_lo, y_hi)


def _poisson_log_series(L: float, m: int, logs=None) -> float:
    """log of the series sum_k e^((k - m) L) m!/k!, whose terms are log-concave in k with
    their mode at g = e^L and the value 1 at the anchor m.  The log terms are accumulated
    outward from m, a running sum of L - log j each way, over a window [lo, hi] 10 sqrt(g) + 10
    terms past m and g, 8 bytes a term; ``logs``, the log j above m and from m down, grows as a
    window needs and is shared by the series of one anchor.  Past hi a term is at most
    r = g/(hi + 1) times the one before it, and below lo at most r = lo/g, so each tail is at
    most its edge term times r/(1 - r).  Terms more than _SERIES_DROP nats below the peak are
    not summed.  OracleFailureError when e^L exceeds the float range, before a window of more
    than _SERIES_TERMS terms is summed, and unless both tail bounds are below _SERIES_TAIL."""
    g = _exp(L)
    if not (math.isfinite(L) and g < math.inf):
        raise OracleFailureError(f"the Poisson series' term ratio e^{L!r}/(k + 1) exceeds "
                                 "the float range")
    margin = 10 * math.ceil(math.sqrt(g)) + 10
    lo = max(0, math.floor(min(m, g)) - margin)
    hi = math.ceil(max(m, g)) + margin
    if hi - lo + 1 > _SERIES_TERMS:
        raise OracleFailureError(f"the Poisson series around k = {m} and the mode "
                                 f"{g!r} needs more than {_SERIES_TERMS} terms")
    above, below = logs or (array("d"), array("d"))
    above.extend(map(math.log, range(m + 1 + len(above), hi + 1)))
    below.extend(map(math.log, range(m - len(below), lo, -1)))
    up = array("d", accumulate(L - x for x in islice(above, hi - m)))
    down = array("d", accumulate(x - L for x in islice(below, m - lo)))
    peak = max(0.0, max(up), max(down, default=0.0))
    floor = peak - _SERIES_DROP
    total = math.fsum(math.exp(x - peak) for x in chain(down, (0.0,), up) if x >= floor)
    tail = max(math.exp(up[-1] - peak) * g / (hi + 1 - g),  # r / (1 - r)
               math.exp(down[-1] - peak) * lo / (g - lo) if lo > 0 else 0.0)
    if tail > _SERIES_TAIL * total:
        raise OracleFailureError(f"the Poisson series around k = {m} and the mode {g!r} "
                                 f"has a tail bound of {tail / total!r} of its sum")
    return peak + math.log(total)


def _poisson_log1p(params, alpha: float) -> float:
    """log(R_alpha + 1) of one Poisson coordinate from its defining series.  With powers c
    summing to 1, sum_k prod_j Pois(lam_j)(k)**c_j is e^(-B + mL)/m! times the sum of
    ``_poisson_log_series``(L, m), for B = c.lam and L = c.log(lam).  Every series has the
    anchor m = floor(lam_0); with the series of Pois(lam_0), whose sum is 1, as a fourth,
    log(R_alpha + 1) = log S_a + log S_0 - log S_b - log S_c, and the factors e^(-B + mL)/m!
    cancel exactly, so they are never computed.  The four series share one table of log j."""
    log_lams, m = [math.log(row[0]) for row in params], math.floor(params[0][0])
    a, b, c = _mixture_weights(alpha)
    logs = array("d"), array("d")
    sa, s0, sb, sc = (_poisson_log_series(exact_dot(w, log_lams), m, logs)
                      for w in (a, (1.0, 0.0, 0.0), b, c))
    return sa + s0 - sb - sc


def _bernoulli_power_sum(params, powers) -> float:
    """Exact two-point sum of prod_j Ber(theta_j)(x)**power_j over x in {0, 1}."""
    thetas = [row[0] for row in params]
    try:
        return (math.exp(exact_dot(powers, [math.log(t) for t in thetas]))
                + math.exp(exact_dot(powers, [math.log1p(-t) for t in thetas])))
    except OverflowError:
        raise OracleFailureError("a term of the Bernoulli sum exceeds the float range") from None


def _mixture_weights(a: float) -> tuple:
    """The weights of members 0, 1 and 2 in the three mixtures of R_alpha, one row each:
    log(R_alpha + 1) = log I(1 - 2a, a, a) - log I(1 - a, a, 0) - log I(1 - a, 0, a).
    OracleFailureError where 1 - 2a rounds so far that a row does not sum to 1 within _REL_TOL
    (a above about 1e15): an exact sum of such weights would give a wrong integral."""
    if abs(exact_fsum([1.0 - 2.0 * a, a, a]) - 1.0) > _REL_TOL:
        raise OracleFailureError(f"the mixture weights 1 - 2 alpha, alpha and alpha do not sum "
                                 f"to 1 in floating point at alpha = {a!r}")
    return (1.0 - 2.0 * a, a, a), (1.0 - a, a, 0.0), (1.0 - a, 0.0, a)


def _ratio_minus_one(v0: float, v1: float, v2: float) -> float:
    """v0/(v1 v2) - 1 for positive v1 and v2, taken on the mantissas and scaled by
    2**(e0 - e1 - e2), so that v1 v2 never underflows; OracleFailureError beyond the range."""
    (m0, e0), (m1, e1), (m2, e2) = map(math.frexp, (v0, v1, v2))
    try:
        return math.ldexp(m0 / (m1 * m2), e0 - e1 - e2) - 1.0
    except OverflowError:
        raise OracleFailureError(f"the ratio {v0!r}/({v1!r} * {v2!r}) of the oracle's sums or "
                                 "integrals exceeds the float range") from None


def _ratio_of_integrals(integral, params, alpha: float) -> float:
    """log(R_alpha + 1) of one scalar coordinate from its three defining integrals, where
    ``integral(params, powers)`` is the integral of prod_j p_j(x)**powers[j], which converges:
    log v0 - log v1 - log v2.  An integral of a positive integrand that comes out <= 0 or
    non-finite was not resolved (a peak narrower than the step, say), so it raises
    OracleFailureError."""
    values = [integral(params, powers) for powers in _mixture_weights(alpha)]
    if not all(0 < value < math.inf for value in values):
        raise OracleFailureError(f"the oracle integrals {values} of a coordinate are not all "
                                 "positive and finite: the integrand was not resolved")
    return math.log(values[0]) - math.log(values[1]) - math.log(values[2])


# route(params, alpha) -> log(R_alpha + 1) of one coordinate, for each JSON kind; row j of
# ``params`` holds the coordinate's parameters in family j, as ``families._coordinates`` does.
_ORACLES = {
    "gaussian_iso": partial(_ratio_of_integrals, _gaussian_power_integral),
    "poisson_product": _poisson_log1p,
    "bernoulli_product": partial(_ratio_of_integrals, _bernoulli_power_sum),
    "gamma_product": partial(_ratio_of_integrals, _gamma_power_integral),
}
_ORACLES["exponential_product"] = _ORACLES["gamma_product"]
# divergent(params, powers) for the kinds whose integrals can diverge
_DIVERGENT = {"gamma_product": _gamma_divergent, "exponential_product": _gamma_divergent}


def oracle_r_alpha(f0: ParamFamily, f1: ParamFamily, f2: ParamFamily, alpha: float) -> float:
    """Numerical R_alpha for a same-kind family triple: expm1 of the sum of its coordinates'
    log(R_alpha + 1), integrals to _REL_TOL and Poisson series to tails below _SERIES_TAIL;
    +inf when an integral diverges, decided for every coordinate before any is integrated.
    OracleFailureError when R_alpha exceeds the float range."""
    rows = _coordinates(f0, f1, f2, alpha)
    divergent = _DIVERGENT.get(f0.kind)
    if divergent and any(divergent(params, powers)
                         for params in rows for powers in _mixture_weights(alpha)):
        return math.inf
    log1p = math.fsum(_ORACLES[f0.kind](params, alpha) for params in rows)
    try:
        return math.expm1(log1p)
    except OverflowError:
        raise OracleFailureError(f"the oracle gives R_alpha beyond the float range: "
                                 f"log(R_alpha + 1) = {log1p!r}") from None


def _pairwise_codiv(p0, p1, p2, kind: str, phi) -> float:
    """D(p0 | p1, p2) of ``kind`` from its defining integrals, each a finite sum accumulated
    with ``math.fsum``: the pair route that checks the Gram cells of ``features``."""
    from .measures import dominated_by
    if kind == "hellinger":
        # no domination needed: mass off supp(p0) is fine while the affinities stay positive
        pairs = ((p1, p2), (p0, p1), (p0, p2))
        d12, d1, d2 = (math.fsum((p.mass * q.mass) ** 0.5) for p, q in pairs)
        return _ratio_minus_one(d12, d1, d2) if d1 > 0 and d2 > 0 else math.inf
    if not (dominated_by(p1, p0) and dominated_by(p2, p0)):
        return math.inf
    pos = p0.mass > 0
    if kind == "chi2":
        return math.fsum(p1.mass[pos] * p2.mass[pos] / p0.mass[pos]) - 1.0
    w = p0.mass[pos]
    f1, f2 = (phi.apply(p.mass[pos] / w) for p in (p1, p2))
    cross, m1, m2 = (math.fsum(x) for x in (f1 * f2 * w, f1 * w, f2 * w))
    if kind == "vphi":
        return cross - m1 * m2
    if m1 <= 0 or m2 <= 0:
        raise DegeneratePhiError("a normalizing integral of phi vanished")
    return _ratio_minus_one(cross, m1, m2)


def oracle_divergence_matrix(p0, ps, kind: str, phi=None, reference: str = ""):
    """Reference divergence matrix, to check ``divergence_matrix``: every entry
    D(p0 | ps[j], ps[k]) evaluated on its own by the pairwise sums, which are symmetric."""
    from . import codivergence, matrices, measures
    codivergence.check_kind(kind, phi)
    measures.check_same_support(p0, *ps)
    if kind in ("vphi", "rphi"):  # the normalizing integrals assume totals of 1
        measures.check_probability(p0, *ps)
    entries = [[_pairwise_codiv(p0, p, q, kind, phi) for q in ps] for p in ps]
    return matrices.DivMatrix(kind=kind, entries=entries, reference=reference)
