import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiv import (PHI_SQRT, BernoulliProd, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, OracleFailureError, PoissonProd, PreconditionError,
                   divergence_matrix, oracle_divergence_matrix, oracle_r_alpha, phi_alpha,
                   r_alpha_closed, r_phi, trapezoid)
from codiv import oracles
from codiv.families import FAMILIES
from codiv.oracles import _ORACLES, _log_window, _poisson_log_series, _ratio_of_integrals
from helpers import random_dominated, random_probability


class TestAdaptiveQuadrature:
    """The integrand maps the list of one refinement's points to the list of their values."""

    def test_decaying_analytic_integrand(self):
        """The trapezoidal rule converges geometrically on an analytic integrand that decays
        exponentially: sech^2 over [-23, 23], whose integral is 2 tanh(23)."""
        value = trapezoid(lambda xs: [1.0 / math.cosh(x) ** 2 for x in xs], -23.0, 23.0)
        assert value == pytest.approx(2.0 * math.tanh(23.0), rel=1e-14)

    def test_empty_interval_is_rejected(self):
        with pytest.raises(PreconditionError, match="empty integration interval"):
            trapezoid(lambda xs: xs, 1.0, 1.0)

    def test_each_halving_evaluates_only_the_new_points(self):
        """The first refinement is the 17 points of 16 intervals, each later one the midpoints
        of the last: together every point of the finest grid, each once."""
        got = []
        trapezoid(lambda xs: got.append(list(xs)) or [math.exp(-x * x) for x in xs], -6.0, 6.0)
        assert [len(xs) for xs in got] == [17] + [16 * 2 ** k for k in range(len(got) - 1)]
        points = sorted(x for xs in got for x in xs)
        n = len(points) - 1
        assert points == [-6.0 + 12.0 * (i / n) for i in range(n + 1)]

    def test_failure_is_reported(self):
        # the grid never falls on the jump at an irrational point, so two estimates never
        # agree: the change between them only halves per halving of the step
        with pytest.raises(OracleFailureError, match="^quadrature did not converge within "
                                                     "65536 intervals$"):
            trapezoid(lambda xs: [float(x > math.pi / 4) for x in xs], 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_estimate_fails_at_once(self, bad):
        """No refinement makes a non-finite estimate finite, so the first one ends the
        quadrature; it used to double the panels up to the budget."""
        calls = []

        def f(xs):
            calls.append(xs.size)
            return [bad if x > 0.5 else 1.0 for x in xs]

        with pytest.raises(OracleFailureError, match=f"^the quadrature estimate on 16 intervals "
                                                     f"is {bad}"):
            trapezoid(f, 0.0, 1.0)
        assert calls == [17]

    def test_weighted_values_beyond_the_float_range_fail_at_once(self):
        """Finite values whose weighted sum overflows: "intermediate overflow in fsum" before."""
        with pytest.raises(OracleFailureError,
                           match="^the quadrature estimate on 16 intervals is inf"):
            trapezoid(lambda xs: [1e308] * len(xs), 0.0, 100.0)

    @pytest.mark.parametrize("job", ["gaussian", "gamma"])
    def test_a_stalled_refinement_ends_early(self, job):
        """The Gaussian's log integrand sums terms of about 1e8 y^2 that cancel to y^2/2, so
        its values carry rounding noise of about 1e-8, and the trapezoid resolves it to e - 1
        within that noise.  The Gamma's values are subnormal, so its estimates change by their
        rounding at every halving, and it ends at the interval budget.  Under Gauss-Legendre
        both stalled, and without a stop rule they ran for seconds."""
        start = time.perf_counter()
        if job == "gaussian":
            triple = [GaussianIso([m], 1.0) for m in (0.0, 1e-8, 1e-8)]
            assert oracle_r_alpha(*triple, 1e8) == pytest.approx(math.e - 1.0, rel=1e-7)
        else:
            with pytest.raises(OracleFailureError, match="^quadrature did not converge within "
                                                         "65536 intervals$"):
                oracle_r_alpha(*(GammaProd([v], [v]) for v in (5e-324, 0.25, 1e-154)), 0.01)
        assert time.perf_counter() - start < 0.5

    def test_a_gaussian_bump_far_from_the_reference_is_resolved(self):
        """In x, every point of the window around the mean 1e154 rounded to 1e154, so the
        quadrature sampled a step and stalled at 512 panels; in the centred variable the bump
        has width 1 wherever it lies.  Member 2 equals member 0, so R is 0."""
        triple = [GaussianIso([m], 1.0) for m in (0.25, 1e154, 0.25)]
        assert abs(oracle_r_alpha(*triple, 1.0)) <= 1e-9

    def test_the_panel_budget_ends_a_slow_refinement(self):
        """sqrt|x - 0.3| has a kink between grid points at every refinement, where the rule
        converges at order 1.5, too slowly to reach the tolerance."""
        with pytest.raises(OracleFailureError, match="^quadrature did not converge within "
                                                     "65536 intervals$"):
            trapezoid(lambda xs: [math.sqrt(abs(x - 0.3)) for x in xs], 0.0, 1.0)


class TestTrapezoidAgainstMpmath:
    """The trapezoid on the ``_log_window`` bracket of the oracles' two integrands, against
    their 50-digit closed values: within 1e-12 relative, and within the change of its last
    halving, which is its error estimate, plus the rounding of its values: 4 units of 2**-53
    times the size of the terms of the log integrand, at most _TAIL_DROP past those at the
    peak where a value counts."""

    @staticmethod
    def integrate(log_f, peak):
        """The trapezoid's estimate, and the estimate one halving before it."""
        lo, hi = _log_window(log_f, peak)
        calls = []

        def f(ys):
            calls.append([math.exp(log_f(y)) for y in ys])
            return list(calls[-1])

        estimate = trapezoid(f, lo, hi)
        coarse = [v for values in calls[:-1] for v in values]
        coarse[0], coarse[16] = 0.5 * coarse[0], 0.5 * coarse[16]  # the ends, of the first call
        return estimate, (hi - lo) / (len(coarse) - 1) * math.fsum(coarse)

    def check(self, log_f, peak, exact, size=1.0):
        estimate, before = self.integrate(log_f, peak)
        error = abs(estimate - exact)
        assert error <= 1e-12 * exact
        assert error <= abs(estimate - before) + 2.0 ** -51 * size * exact

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_gamma_integrals(self, log10_s, log10_r):
        """exp(S y - R e^y), over its peak value, integrates to Gamma(S) R^-S over that value."""
        mpmath = pytest.importorskip("mpmath")
        S, R = 10.0 ** log10_s, 10.0 ** log10_r
        peak = math.log(S / R)
        log_peak = S * peak - S

        def log_g(y):
            return S * y - R * math.exp(y) - log_peak

        with mpmath.workdps(50):
            s, r = mpmath.mpf(S), mpmath.mpf(R)
            exact = float(mpmath.gamma(s) * r ** -s / mpmath.exp(s * mpmath.log(s / r) - s))
        self.check(log_g, peak, exact, oracles._TAIL_DROP + abs(S * peak) + S + abs(log_peak))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(-1.0, 1.0), st.floats(-0.6, 0.6))
    def test_gaussian_bumps(self, centre, log10_width):
        """exp(-(y - c)^2 / (2 w^2)) / w integrates to sqrt(2 pi) wherever the bump lies."""
        mpmath = pytest.importorskip("mpmath")
        width = 10.0 ** log10_width

        def log_f(y):
            return -0.5 * ((y - centre) / width) ** 2 - math.log(width)

        with mpmath.workdps(50):
            exact = float(mpmath.sqrt(2 * mpmath.pi))
        self.check(log_f, centre, exact)


class TestTrapezoidOnTheOracleIntegrands:
    """The oracles' own integrands, two coordinates each, against the closed forms over a
    range of alpha: the trapezoid converges geometrically there, so no quadrature needs more
    than 2**10 intervals, 1/64 of the budget (at the test's time 64 for the Gaussian, 512 for
    the exponential and 1024 for the Gamma, whose shapes near 0.5 give long tails in y)."""

    TRIPLES = {
        "gaussian": [GaussianIso(m, 1.5) for m in ([0.0, 0.5], [0.3, 0.2], [-0.4, 0.7])],
        "exponential": [ExponentialProd(b) for b in ([1.0, 2.0], [1.2, 1.7], [1.1, 2.4])],
        "gamma": [GammaProd(a, b) for a, b in (([2.0, 0.5], [1.0, 3.0]), ([2.2, 0.6], [1.2, 2.5]),
                                               ([1.9, 0.45], [1.1, 3.4]))],
    }

    @pytest.mark.parametrize("alpha", [0.01, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("fam", TRIPLES)
    def test_matches_the_closed_form(self, fam, alpha, monkeypatch):
        intervals = []

        def counted(f, lo, hi):
            points = []
            value = trapezoid(lambda xs: points.append(len(xs)) or f(xs), lo, hi)
            intervals.append(sum(points) - 1)
            return value

        monkeypatch.setattr(oracles, "trapezoid", counted)
        triple = self.TRIPLES[fam]
        expected = r_alpha_closed(*triple, alpha)
        assert oracle_r_alpha(*triple, alpha) == pytest.approx(expected, rel=1e-12, abs=1e-13)
        assert len(intervals) == 6 and max(intervals) <= 2 ** 10


class TestRatioOfIntegrals:
    @staticmethod
    def ratio(values):
        values = iter(values)
        return _ratio_of_integrals(lambda params, powers: next(values), None, 0.5)

    def test_bits_of_the_direct_quotient(self):
        """Where v1 * v2 is normal and v0 / (v1 * v2) finite, the mantissa route of the pairwise
        sums gives the bits of the direct quotient."""
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(20000):
            v0, v1, v2 = (math.ldexp(m, int(e)) for m, e in
                          zip(rng.uniform(0.5, 1.0, 3), rng.integers(-1021, 1025, 3)))
            product = v1 * v2
            if sys.float_info.min <= product < math.inf and v0 / product < math.inf:
                assert oracles._ratio_minus_one(v0, v1, v2) == v0 / product - 1.0
                checked += 1
        assert checked > 5000

    def test_log_ratio_at_every_scale(self):
        """A coordinate gives log(R_alpha + 1) = log v0 - log v1 - log v2, finite wherever the
        integrals are, also where v1 * v2 is below the float range or v0 / (v1 * v2) above it."""
        rng = np.random.default_rng(2024)
        for _ in range(20000):
            v0, v1, v2 = (math.ldexp(m, int(e)) for m, e in
                          zip(rng.uniform(0.5, 1.0, 3), rng.integers(-1021, 1025, 3)))
            assert self.ratio([v0, v1, v2]) == math.log(v0) - math.log(v1) - math.log(v2)

    @pytest.mark.parametrize("triple, alpha, expected", [
        ([ExponentialProd([b]) for b in (1e308, 1e-308, 1.0)], 0.5, 5e307),
        ([GaussianIso([m], 1.0) for m in (0.0, 64.0, 64.0)], 0.25, math.expm1(256.0)),
    ], ids=["exponential", "gaussian"])
    def test_integral_product_below_the_float_range(self, triple, alpha, expected):
        """v1 * v2 underflows to 0 (2e-308 * 2e-154, and e^-384 * e^-384), but the ratio
        v0 / (v1 * v2) is finite: 1 / 2e-308, and e^256 for the Gaussian."""
        assert oracle_r_alpha(*triple, alpha) == pytest.approx(expected, rel=1e-9)

    def test_ratio_beyond_the_float_range_is_named(self):
        # the sums are finite and positive; a ratio of 1e400 is not +inf, which
        # would claim a divergent integral
        with pytest.raises(OracleFailureError, match="exceeds the float range"):
            oracles._ratio_minus_one(1.0, 1e-200, 1e-200)

    def test_log_ratio_beyond_the_float_range_is_named(self, monkeypatch):
        """A coordinate's log(R_alpha + 1) of 921 is finite; the oracle names R_alpha beyond
        the float range."""
        assert self.ratio([1.0, 1e-200, 1e-200]) == pytest.approx(400 * math.log(10.0))
        monkeypatch.setitem(oracles._ORACLES, "exponential_product",
                            lambda params, alpha: self.ratio([1.0, 1e-200, 1e-200]))
        with pytest.raises(OracleFailureError, match="R_alpha beyond the float range"):
            oracle_r_alpha(*(ExponentialProd([b]) for b in (1.0, 2.0, 3.0)), 0.5)


class TestReferenceTriples:
    @pytest.mark.parametrize("fam", [
        lambda: GaussianIso([0.3, -0.2], 1.3),
        lambda: PoissonProd([1.7]),
        lambda: BernoulliProd([0.35]),
        lambda: ExponentialProd([2.2]),
        lambda: GammaProd([1.4], [0.9]),
    ])
    def test_identical_triple_is_zero(self, fam):
        f = fam()
        for alpha in (0.25, 0.5, 1.0):
            assert abs(oracle_r_alpha(f, f, f, alpha)) <= 1e-9

    def test_exponential_analytic_value(self):
        value = oracle_r_alpha(ExponentialProd([1.0]), ExponentialProd([2.0]),
                               ExponentialProd([2.0]), 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_poisson_analytic_value(self):
        value = oracle_r_alpha(PoissonProd([1.0]), PoissonProd([2.0]),
                               PoissonProd([3.0]), 1.0)
        assert value == pytest.approx(math.exp(2.0) - 1.0, rel=1e-9)

    def test_gaussian_window_follows_the_tilted_centre(self):
        # the c12 integrand peaks at m0 + alpha*(m1 + m2 - 2*m0) = 3, far from every mean
        f = [GaussianIso([m], 0.3) for m in (0.0, 0.5, 0.5)]
        value = oracle_r_alpha(*f, 3.0)
        assert value == pytest.approx(math.expm1(25.0), rel=1e-7)

    def test_unresolved_integral_raises(self):
        # the peak at shape 1e20 is far narrower than any panel, so the quadrature
        # returns 0.0; that is a failure of the oracle, not an infinite value
        g = GammaProd([1e20], [1.0])
        with pytest.raises(OracleFailureError, match="not resolved"):
            oracle_r_alpha(g, g, g, 1.0)

    def test_gamma_divergent_domain_is_infinite(self):
        value = oracle_r_alpha(GammaProd([1.0], [5.0]), GammaProd([1.0], [1.0]),
                               GammaProd([1.0], [1.0]), 1.0)
        assert value == math.inf

    def test_a_positive_mixed_rate_that_rounds_to_zero_is_named(self):
        # at alpha 1.5 the second mixture's rate is -0.5 * 1e-323 + 1.5 * 5e-324 = 2.5e-324,
        # which converges but rounds to 0; the domain reads its sign from the exact sum
        triple = [ExponentialProd([b]) for b in (1e-323, 5e-324, 1.0)]
        with pytest.raises(OracleFailureError, match="rounds to 0"):
            oracle_r_alpha(*triple, 1.5)

    def test_divergence_is_decided_before_any_integral(self):
        """The third integral diverges (S < 0).  The first one's log-normaliser sums terms of
        both infinite signs, which ended the job in exit 3 while it was taken first.  In the
        two-coordinate triple the second coordinate diverges (S < 0), and the first one's
        integral does not converge within the budget."""
        triple = [GammaProd([a], [1e305]) for a in (1e305, 1.5e305, 5e304)]
        assert oracle_r_alpha(*triple, 100.0) == math.inf
        triple = [GammaProd(a, b) for a, b in (([2.0, 1e308], [1.7, 0.57]),
                                               ([7.1e7, 5.8e166], [1e300, 1e-154]),
                                               ([67.6, 1.9], [1e308, 0.13]))]
        assert oracle_r_alpha(*triple, 1.0744) == math.inf

    def test_mixture_weights_that_do_not_sum_to_one_are_named(self):
        """At alpha 1e200, 1 - 2 alpha rounds to -2 alpha, so the weights sum to 0 and the exact
        Bernoulli exponents are 0: the oracle would give R = -1/2 for an identical triple,
        whose R is 0."""
        triple = [BernoulliProd([0.3])] * 3
        assert oracle_r_alpha(*triple, 4.5e15) == 0.0
        with pytest.raises(OracleFailureError, match="^the mixture weights .* do not sum to 1"):
            oracle_r_alpha(*triple, 1e200)

    def test_gamma_window_past_the_exp_range(self):
        """One integrand peaks at y = log(S/R) above 709.8, where e^y overflows: the window
        search ended in the bare "math range error"; the third integral diverges (S <= 0)."""
        triple = [GammaProd([a], [b]) for a, b in ((5e-324, 1e154), (5.872147055389001e-306,
                                                                     5e-324), (7.75, 0.25))]
        assert oracle_r_alpha(*triple, 1.0) == math.inf == r_alpha_closed(*triple, 1.0)

    @pytest.mark.parametrize("make, params", [
        (GaussianIso, [([m], 1.0) for m in (0.5, 1e300, 0.5)]),  # log-integrand NaN at the peak
        (GaussianIso, [([m], 1e-300) for m in (0.0, 1e10, 1e10)]),  # (m_j - m_0)/sigma overflows
        (ExponentialProd, [([b],) for b in (0.25, 0.25, 5e-324)]),  # the peak S/R overflows
        (ExponentialProd, [([b],) for b in (0.5, 1e308, 1e308)]),  # R overflows, S/R is 0
    ])
    def test_no_finite_window_is_named(self, make, params):
        with pytest.raises(OracleFailureError, match="^no finite integration window"):
            oracle_r_alpha(*(make(*p) for p in params), 1.0)

    @pytest.mark.parametrize("shapes, rates, alpha", [
        ((0.25, 0.25, 1e308), (0.25, 0.25, 1e308), 1.0),  # lgamma(1e308) overflows
        ((2e305,) * 3, (1.0, 1.0, 3.0), 100.0),  # terms of both infinite signs
    ])
    def test_gamma_log_normaliser_overflow_is_named(self, shapes, rates, alpha):
        """Before, the first was the bare "math range error" and the second exit 3
        ``internal`` (a ValueError from fsum)."""
        triple = [GammaProd([a], [b]) for a, b in zip(shapes, rates)]
        with pytest.raises(OracleFailureError, match="^the Gamma oracle's log-normaliser sum"):
            oracle_r_alpha(*triple, alpha)


def test_the_oracle_table_covers_the_family_table():
    assert _ORACLES.keys() == FAMILIES.keys()


class TestSelfConsistency:
    def test_gamma_oracle_matches_the_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            f0 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            f1 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            f2 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            a = oracle_r_alpha(f0, f1, f2, 0.5)
            b = r_alpha_closed(f0, f1, f2, 0.5)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_poisson_tail_bound(self):
        # the anchored series, scaled back by its anchor term, must agree with a generous
        # fixed truncation, whichever side of the mode the anchor is on
        lams = (1.3, 2.1, 0.7)
        powers = (0.5, 0.25, 0.25)
        B = math.fsum(c * lam for c, lam in zip(powers, lams))
        L = math.fsum(c * math.log(lam) for c, lam in zip(powers, lams))
        fixed = math.fsum(math.exp(-B + k * L - math.lgamma(k + 1)) for k in range(400))
        for anchor in (0, 1, 4):
            anchored = math.exp(-B + anchor * L - math.lgamma(anchor + 1)
                                + _poisson_log_series(L, anchor))
            assert anchored == pytest.approx(fixed, rel=1e-14)

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 50.0, 1e5, 1e6])
    def test_poisson_log_series_matches_mpmath(self, lam):
        """The series sums to m! e^(-mL) e^(e^L): its log at 50 digits, with the anchor m
        three standard deviations below the mode (or at 0) and above it."""
        mpmath = pytest.importorskip("mpmath")
        L, spread = math.log(lam), math.ceil(math.sqrt(lam))
        for m in (max(0, math.floor(lam) - 3 * spread), math.ceil(lam) + 3 * spread):
            with mpmath.workdps(50):
                exact = float(mpmath.loggamma(m + 1) - m * mpmath.mpf(L) + mpmath.exp(L))
            assert _poisson_log_series(L, m) == pytest.approx(exact, rel=0, abs=1e-13)

    @pytest.mark.parametrize("rate", [5.2, 5.22])
    def test_poisson_overflow_is_named(self, rate):
        # at alpha 2, R is finite (about 3e294 at 5.2) though the first defining series is
        # not: the anchored series are summed in log space and match the closed form. At
        # alpha 2.1, log(R + 1) is about 954 at 5.2, and the overflow of R itself is named
        f = [PoissonProd([lam]) for lam in (1.0, rate, rate)]
        assert oracle_r_alpha(*f, 2.0) == pytest.approx(r_alpha_closed(*f, 2.0), rel=1e-7)
        with pytest.raises(OracleFailureError, match="R_alpha beyond the float range"):
            oracle_r_alpha(*f, 2.1)

    def test_poisson_term_ratio_overflow_is_named(self):
        f = [PoissonProd([lam]) for lam in (1.0, 1e300, 0.5)]
        with pytest.raises(OracleFailureError, match="term ratio e\\^759.09"):
            oracle_r_alpha(*f, 1.1)

    def test_poisson_term_budget_is_named(self):
        # the window is refused before anything is allocated or summed: about 2e7 terms at
        # 1e12, and 1,095,481 at 3e9, just past the budget, where summing one window of
        # that size on floats takes longer than the bound
        for lam in (1e12, 3e9):
            f = PoissonProd([lam])
            start = time.perf_counter()
            with pytest.raises(OracleFailureError, match="needs more than 1048576 terms"):
                oracle_r_alpha(f, f, f, 1.0)
            assert time.perf_counter() - start < 0.25

    def test_poisson_tail_above_its_bound_is_named(self, monkeypatch):
        # one window 10 sqrt(g) + 10 terms past the anchor and the mode meets the 2**-60
        # bound on every input tried; a stricter bound shows the check that stays
        monkeypatch.setattr(oracles, "_SERIES_TAIL", 1e-300)
        with pytest.raises(OracleFailureError, match="has a tail bound of .* of its sum$"):
            _poisson_log_series(math.log(100.0), 100)

    def test_poisson_r_alpha_beyond_the_float_range_is_named(self):
        # log(R + 1) = 35 * 35 = 1225: every series is finite in log space, R is not
        f = [PoissonProd([lam]) for lam in (1.0, 6.0, 6.0)]
        with pytest.raises(OracleFailureError, match="R_alpha beyond the float range"):
            oracle_r_alpha(*f, 2.0)

    def test_product_beyond_the_float_range_is_named(self):
        # log(R + 1) = 576 in each coordinate: both factors are finite, their product is not,
        # and +inf would claim a divergent integral
        f = [PoissonProd([lam, lam]) for lam in (1.0, 5.0, 5.0)]
        with pytest.raises(OracleFailureError, match="float range"):
            oracle_r_alpha(*f, 2.0)

    @pytest.mark.parametrize("lam, rel", [(1e3, 1e-11), (1e4, 1e-11), (1e5, 1e-11),
                                          (1e6, 1e-10)])
    def test_poisson_matches_mpmath(self, lam, rel):
        # the natural-parameter identity at 50 digits: log(R + 1) = lam0 + sum of e^L over
        # the series a, b, c with signs +, -, -
        mpmath = pytest.importorskip("mpmath")
        lams = [lam * x for x in (1.0, 1.001, 0.999)]
        alpha = 2.0
        with mpmath.workdps(50):
            logs = [mpmath.log(mpmath.mpf(x)) for x in lams]
            a = mpmath.mpf(alpha)

            def tilt(c1, c2):
                return mpmath.exp((1 - c1 - c2) * logs[0] + c1 * logs[1] + c2 * logs[2])

            exact = float(mpmath.expm1(mpmath.mpf(lams[0]) + tilt(a, a) - tilt(a, 0)
                                       - tilt(0, a)))
        value = oracle_r_alpha(*[PoissonProd([x]) for x in lams], alpha)
        assert value == pytest.approx(exact, rel=rel)


class TestDiscreteBruteForce:
    """The pairwise oracle, which sums each entry on its own, against the Gram cells."""

    def test_matches_compensated_implementation(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            p0 = random_probability(rng, 4)
            pa = random_dominated(rng, p0)
            pb = random_dominated(rng, p0)
            phi = phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0]))
            fast = r_phi(p0, pa, pb, phi)
            slow = oracle_divergence_matrix(p0, [pa, pb], "rphi", phi).entries[0, 1]
            assert slow == pytest.approx(fast, abs=1e-11)

    def test_identity_triple(self):
        p0 = DiscreteMeasure([0.3, 0.7])
        assert oracle_divergence_matrix(p0, [p0], "rphi", PHI_SQRT).entries[0, 0] == \
            pytest.approx(0.0, abs=1e-15)

    def test_normalizer_product_below_the_float_range(self):
        """m1 * m2 underflows to 0 (each m is 1e-297), but the cell is 1e300 - 1."""
        p0, p1 = DiscreteMeasure([1e-300, 1.0 - 1e-300]), DiscreteMeasure([1.0, 0.0])
        phi = phi_alpha(0.01)
        fast = divergence_matrix(p0, [p1, p1], "rphi", phi).entries[0, 1]
        slow = oracle_divergence_matrix(p0, [p1, p1], "rphi", phi).entries[0, 1]
        assert slow == pytest.approx(fast, rel=1e-12)

    def test_ratio_beyond_the_float_range_is_named(self):
        # the affinities are positive, so the cell is finite: not +inf, which would claim
        # a vanishing affinity
        p0 = DiscreteMeasure([0.5, 0.5, 0.0])
        p1, p2 = DiscreteMeasure([1e-320, 0.0, 1.0]), DiscreteMeasure([0.0, 1e-320, 1.0])
        with pytest.raises(OracleFailureError, match="exceeds the float range"):
            oracle_divergence_matrix(p0, [p1, p2], "hellinger")

    def test_non_dominated_is_infinite(self):
        p0 = DiscreteMeasure([1.0, 0.0])
        p1 = DiscreteMeasure([0.5, 0.5])
        assert oracle_divergence_matrix(p0, [p1], "rphi", PHI_SQRT).entries[0, 0] == math.inf
