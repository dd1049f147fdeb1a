import math

import numpy as np
import pytest

from codiv import (PHI_SQRT, BernoulliProd, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, OracleConfig, OracleFailureError,
                   PoissonProd, PreconditionError, adaptive_gauss_legendre,
                   oracle_divergence_matrix, oracle_r_alpha, phi_alpha, r_phi)
from codiv.oracles import _poisson_power_sum
from helpers import random_dominated, random_probability

CFG = OracleConfig()


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        value = adaptive_gauss_legendre(lambda x: 3.0 * x ** 2, 0.0, 2.0, CFG)
        assert value == pytest.approx(8.0, rel=1e-14)

    def test_failure_is_reported(self):
        cfg = OracleConfig(rel_tol=1e-14, quad_panels=1, max_panels=2)
        with pytest.raises(OracleFailureError):
            adaptive_gauss_legendre(lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, cfg)


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
            assert abs(oracle_r_alpha(f, f, f, alpha, CFG)) <= 1e-9

    def test_exponential_analytic_value(self):
        value = oracle_r_alpha(ExponentialProd([1.0]), ExponentialProd([2.0]),
                               ExponentialProd([2.0]), 1.0, CFG)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_poisson_analytic_value(self):
        value = oracle_r_alpha(PoissonProd([1.0]), PoissonProd([2.0]),
                               PoissonProd([3.0]), 1.0, CFG)
        assert value == pytest.approx(math.exp(2.0) - 1.0, rel=1e-9)

    def test_gaussian_window_follows_the_tilted_centre(self):
        # the c12 integrand peaks at m0 + alpha*(m1 + m2 - 2*m0) = 3, far from every mean
        f = [GaussianIso([m], 0.3) for m in (0.0, 0.5, 0.5)]
        value = oracle_r_alpha(*f, 3.0, CFG)
        assert value == pytest.approx(math.expm1(25.0), rel=1e-7)

    def test_unresolved_integral_raises(self):
        # the peak at shape 1e20 is far narrower than any panel, so the quadrature
        # returns 0.0; that is a failure of the oracle, not an infinite value
        g = GammaProd([1e20], [1.0])
        with pytest.raises(OracleFailureError, match="not resolved"):
            oracle_r_alpha(g, g, g, 1.0, CFG)

    def test_gamma_divergent_domain_is_infinite(self):
        value = oracle_r_alpha(GammaProd([1.0], [5.0]), GammaProd([1.0], [1.0]),
                               GammaProd([1.0], [1.0]), 1.0, CFG)
        assert value == math.inf

    def test_generic_family_rejected(self):
        from codiv import as_generic
        g = as_generic(PoissonProd([1.0]))
        with pytest.raises(PreconditionError):
            oracle_r_alpha(g, g, g, 1.0, CFG)


class TestSelfConsistency:
    def test_doubling_quad_order_is_stable(self):
        rng = np.random.default_rng(21)
        hi = OracleConfig(quad_order=64)
        for _ in range(10):
            f0 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            f1 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            f2 = GammaProd(rng.uniform(0.5, 3.0, 1), rng.uniform(0.5, 4.0, 1))
            a = oracle_r_alpha(f0, f1, f2, 0.5, CFG)
            b = oracle_r_alpha(f0, f1, f2, 0.5, hi)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_poisson_tail_bound(self):
        # adaptive truncation must agree with a generous fixed truncation
        lams = (1.3, 2.1, 0.7)
        powers = (0.5, 0.25, 0.25)
        adaptive = _poisson_power_sum(lams, powers)
        B = math.fsum(c * lam for c, lam in zip(powers, lams))
        L = math.fsum(c * math.log(lam) for c, lam in zip(powers, lams))
        fixed = math.fsum(math.exp(-B + k * L - math.lgamma(k + 1)) for k in range(400))
        assert adaptive == pytest.approx(fixed, rel=1e-14)


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
