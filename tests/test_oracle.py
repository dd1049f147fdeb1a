import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from codiv import (PHI_SQRT, BernoulliProd, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, OracleFailureError, PoissonProd, PreconditionError,
                   adaptive_gauss_legendre, divergence_matrix, oracle_divergence_matrix,
                   oracle_r_alpha, phi_alpha, r_alpha_closed, r_phi)
from codiv import oracles
from codiv.families import FAMILIES
from codiv.oracles import (_GL_NODES, _GL_WEIGHTS, _ORACLES, _dot, _poisson_log_series,
                           _ratio_of_integrals)
from helpers import random_dominated, random_probability


class TestAdaptiveQuadrature:
    """The integrand maps the list of one refinement's points to the list of their values."""

    def test_polynomial_is_exact(self):
        value = adaptive_gauss_legendre(lambda xs: [3.0 * x * x for x in xs], 0.0, 2.0)
        assert value == pytest.approx(8.0, rel=1e-14)

    def test_empty_interval_is_rejected(self):
        with pytest.raises(PreconditionError, match="empty integration interval"):
            adaptive_gauss_legendre(lambda xs: xs, 1.0, 1.0)

    def test_failure_is_reported(self):
        # no panel edge ever falls on the jump at an irrational point, so two refinements
        # never agree: the change between them only halves per doubling, and the stop
        # rule ends the run long before the panel budget
        with pytest.raises(OracleFailureError, match="^the quadrature stalled"):
            adaptive_gauss_legendre(lambda xs: [float(x > math.pi / 4) for x in xs], 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_a_non_finite_estimate_fails_at_once(self, bad):
        """No refinement makes a non-finite estimate finite, so the first one ends the
        quadrature; it used to double the panels up to the budget."""
        calls = []

        def f(xs):
            calls.append(xs.size)
            return [bad if x > 0.5 else 1.0 for x in xs]

        with pytest.raises(OracleFailureError, match=f"^the quadrature estimate on 8 panels is"
                                                     f" {bad}"):
            adaptive_gauss_legendre(f, 0.0, 1.0)
        assert calls == [8 * 32]

    def test_weighted_values_beyond_the_float_range_fail_at_once(self):
        """Finite values whose weighted sum overflows: "intermediate overflow in fsum" before."""
        with pytest.raises(OracleFailureError, match="^the quadrature estimate on 8 panels is inf"):
            adaptive_gauss_legendre(lambda xs: [1e308] * len(xs), 0.0, 100.0)

    def test_the_panel_edges_are_numpys_linspace(self):
        """The points of each refinement have the bits of the array code they replace."""
        rng = np.random.default_rng(7)
        for _ in range(200):
            lo, hi = sorted(rng.uniform(-50.0, 50.0, 2) * np.exp(rng.uniform(-30.0, 30.0)))
            got = []
            adaptive_gauss_legendre(lambda xs: got.append(list(xs)) or [1.0] * len(xs), lo, hi)
            for panels, points in zip((8, 16), got):
                edges = np.linspace(lo, hi, panels + 1)
                mids, halfs = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
                want = mids[:, None] + halfs[:, None] * np.array(_GL_NODES)[None, :]
                assert np.array_equal(np.array(points), want.ravel())

    @pytest.mark.parametrize("job", ["gaussian", "gamma"])
    def test_a_stalled_refinement_ends_early(self, job):
        """Neither integrand is resolved by refining: the Gaussian's log integrand sums terms
        of about 1e8 y^2 that cancel to y^2/2, so its values carry rounding noise, and the
        Gamma's e^(S y) decays over 2e4 units of y past a cut-off of width 1, a step on the
        scale of the panels.  The change between refinements stops falling, so without the
        stop rule they ran to 65,536 panels (2.3 s for the Gamma)."""
        triple = ([GaussianIso([m], 1.0) for m in (0.0, 1e-8, 1e-8)] if job == "gaussian"
                  else [GammaProd([v], [v]) for v in (5e-324, 0.25, 1e-154)])
        start = time.perf_counter()
        with pytest.raises(OracleFailureError, match="^the quadrature stalled: .* 512 panels$"):
            oracle_r_alpha(*triple, 1e8 if job == "gaussian" else 0.01)
        assert time.perf_counter() - start < 0.5

    def test_a_gaussian_bump_far_from_the_reference_is_resolved(self):
        """In x, every point of the window around the mean 1e154 rounded to 1e154, so the
        quadrature sampled a step and stalled at 512 panels; in the centred variable the bump
        has width 1 wherever it lies.  Member 2 equals member 0, so R is 0."""
        triple = [GaussianIso([m], 1.0) for m in (0.25, 1e154, 0.25)]
        assert abs(oracle_r_alpha(*triple, 1.0)) <= 1e-9

    def test_the_panel_budget_ends_a_slow_refinement(self):
        """sqrt|x - 0.3| has a kink inside a panel at every refinement, where Gauss-Legendre
        converges at order 1.5: the change between refinements falls 2^1.5-fold per doubling on
        average, fast enough that the stall rule never fires, too slowly to reach the
        tolerance."""
        with pytest.raises(OracleFailureError, match="^quadrature did not converge within "
                                                     "65536 panels$"):
            adaptive_gauss_legendre(lambda xs: [math.sqrt(abs(x - 0.3)) for x in xs], 0.0, 1.0)


def test_dot_has_the_bits_of_numpys_dot():
    """The float port forms each weighted sum as numpy's dot does, so a window, a Gamma
    normaliser or a Bernoulli sum keeps its bits; an integral is divergent (S <= 0) at the
    same parameters, as for shapes (1e154, 3.8, 1e154) at chi2."""
    rng = np.random.default_rng(11)
    for i in range(20000):
        pair = np.exp(rng.uniform(-745.0, 709.0, 6)) * rng.choice([-1.0, 1.0], 6)
        if i % 3 == 0:
            pair = rng.uniform(-3.0, 3.0, 6)
        if i % 5 == 0:
            pair[rng.integers(0, 6)] = rng.choice([np.inf, -np.inf, 0.0, 5e-324, 1e308])
        with np.errstate(all="ignore"):
            want = float(np.dot(pair[:3], pair[3:]))
        got = _dot(pair[:3].tolist(), pair[3:].tolist())
        assert got == want or math.isnan(got) and math.isnan(want), (pair, got, want)


class TestGaussLegendreRule:
    """The 32-point rule is a constant; numpy's leggauss, which computes it from the
    eigenvalues of the Jacobi matrix (Golub & Welsch 1969), is the reference."""

    def test_bits_equal_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(32)
        assert np.array_equal(np.array(_GL_NODES).view(np.uint64), nodes.view(np.uint64))
        assert np.array_equal(np.array(_GL_WEIGHTS).view(np.uint64), weights.view(np.uint64))
        assert all(type(x) is float for x in _GL_NODES + _GL_WEIGHTS)

    def test_nodes_antisymmetric_and_weights_symmetric(self):
        assert [x.hex() for x in _GL_NODES] == [(-x).hex() for x in reversed(_GL_NODES)]
        assert [w.hex() for w in _GL_WEIGHTS] == [w.hex() for w in reversed(_GL_WEIGHTS)]
        assert all(a < b for a, b in zip(_GL_NODES, _GL_NODES[1:])) and min(_GL_WEIGHTS) > 0

    def test_read_only(self):
        for rule in (_GL_NODES, _GL_WEIGHTS):
            assert type(rule) is tuple and len(rule) == 32
            with pytest.raises(TypeError, match="does not support item assignment"):
                rule[0] = 0.0

    @pytest.mark.parametrize("k", range(32))
    def test_integrates_monomials(self, k):
        """Evaluated exactly in rationals, the rule gives 0 for x^(2k+1) and 2/(2k+1) for
        x^(2k) up to the rounding of its nodes and weights: a few units of 2**-53 per
        node, which x^(2k) scales by 2k, so the bound is 8 (2k + 1) 2**-53 (the largest
        measured is 6.0 (2k + 1) 2**-53, at k = 3)."""
        nodes = [Fraction(x) for x in _GL_NODES]
        weights = [Fraction(w) for w in _GL_WEIGHTS]
        assert sum(w * x ** (2 * k + 1) for w, x in zip(weights, nodes)) == 0
        even = sum(w * x ** (2 * k) for w, x in zip(weights, nodes))
        exact = Fraction(2, 2 * k + 1)
        assert abs(even - exact) <= 8 * (2 * k + 1) * Fraction(2) ** -53 * exact


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
        ((1e305, 1.5e305, 5e304), (1e305,) * 3, 100.0),  # terms of both infinite signs
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
