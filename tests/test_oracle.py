import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from codiv import (PHI_SQRT, BernoulliProd, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, OracleFailureError, PoissonProd, PreconditionError,
                   adaptive_gauss_legendre, oracle_divergence_matrix, oracle_r_alpha,
                   phi_alpha, r_alpha_closed, r_alpha_product, r_phi)
from codiv.oracles import _GL_NODES, _GL_WEIGHTS, _poisson_log_series, _ratio_of_integrals
from helpers import random_dominated, random_probability


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        value = adaptive_gauss_legendre(lambda x: 3.0 * x ** 2, 0.0, 2.0)
        assert value == pytest.approx(8.0, rel=1e-14)

    def test_empty_interval_is_rejected(self):
        with pytest.raises(PreconditionError, match="empty integration interval"):
            adaptive_gauss_legendre(lambda x: x, 1.0, 1.0)

    def test_failure_is_reported(self):
        # no panel edge ever falls on the jump at an irrational point, so the panel budget
        # runs out before two refinements agree
        with pytest.raises(OracleFailureError):
            adaptive_gauss_legendre(lambda x: (x > math.pi / 4).astype(float), 0.0, 1.0)


class TestGaussLegendreRule:
    """The 32-point rule is a constant; numpy's leggauss, which computes it from the
    eigenvalues of the Jacobi matrix (Golub & Welsch 1969), is the reference."""

    def test_bits_equal_leggauss(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(32)
        assert np.array_equal(_GL_NODES.view(np.uint64), nodes.view(np.uint64))
        assert np.array_equal(_GL_WEIGHTS.view(np.uint64), weights.view(np.uint64))

    def test_nodes_antisymmetric_and_weights_symmetric(self):
        assert np.array_equal(_GL_NODES.view(np.uint64), (-_GL_NODES[::-1]).view(np.uint64))
        assert np.array_equal(_GL_WEIGHTS.view(np.uint64), _GL_WEIGHTS[::-1].view(np.uint64))
        assert np.all(np.diff(_GL_NODES) > 0) and np.all(_GL_WEIGHTS > 0)

    def test_read_only(self):
        for array in (_GL_NODES, _GL_WEIGHTS):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    @pytest.mark.parametrize("k", range(32))
    def test_integrates_monomials(self, k):
        """Evaluated exactly in rationals, the rule gives 0 for x^(2k+1) and 2/(2k+1) for
        x^(2k) up to the rounding of its nodes and weights: a few units of 2**-53 per
        node, which x^(2k) scales by 2k, so the bound is 8 (2k + 1) 2**-53 (the largest
        measured is 6.0 (2k + 1) 2**-53, at k = 3)."""
        nodes = [Fraction(x) for x in _GL_NODES.tolist()]
        weights = [Fraction(w) for w in _GL_WEIGHTS.tolist()]
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
        """Where v1 * v2 is normal and v0 / (v1 * v2) finite, the mantissa route gives the
        bits of the direct quotient."""
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(20000):
            v0, v1, v2 = (math.ldexp(m, int(e)) for m, e in
                          zip(rng.uniform(0.5, 1.0, 3), rng.integers(-1021, 1025, 3)))
            product = v1 * v2
            if sys.float_info.min <= product < math.inf and v0 / product < math.inf:
                assert self.ratio([v0, v1, v2]) == v0 / product - 1.0
                checked += 1
        assert checked > 5000

    @pytest.mark.parametrize("triple, alpha, expected", [
        ([ExponentialProd([b]) for b in (1e308, 1e-308, 1.0)], 0.5, 5e307),
        ([GaussianIso([m], 1.0) for m in (0.0, 64.0, 64.0)], 0.25, math.expm1(256.0)),
    ], ids=["exponential", "gaussian"])
    def test_integral_product_below_the_float_range(self, triple, alpha, expected):
        """v1 * v2 underflows to 0 (2e-308 * 2e-154, and e^-384 * e^-384), but the ratio
        v0 / (v1 * v2) is finite: 1 / 2e-308, and e^256 for the Gaussian."""
        assert oracle_r_alpha(*triple, alpha) == pytest.approx(expected, rel=1e-9)

    def test_ratio_beyond_the_float_range_is_named(self):
        # the integrals are finite and positive; a ratio of 1e400 is not +inf, which
        # would claim a divergent integral
        with pytest.raises(OracleFailureError, match="exceeds the float range"):
            self.ratio([1.0, 1e-200, 1e-200])


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
        # the window of about 2e7 terms is refused before anything is allocated
        f = PoissonProd([1e12])
        start = time.perf_counter()
        with pytest.raises(OracleFailureError, match="needs more than 1048576 terms"):
            oracle_r_alpha(f, f, f, 1.0)
        assert time.perf_counter() - start < 1.0

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
        with pytest.raises(OracleFailureError, match="float range"):
            r_alpha_product([1e200, 1e200])

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

    def test_non_dominated_is_infinite(self):
        p0 = DiscreteMeasure([1.0, 0.0])
        p1 = DiscreteMeasure([0.5, 0.5])
        assert oracle_divergence_matrix(p0, [p1], "rphi", PHI_SQRT).entries[0, 0] == math.inf
