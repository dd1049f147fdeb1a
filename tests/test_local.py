import math

import numpy as np
import pytest

import codiv.local
import codiv.measures
from codiv import (PHI_IDENTITY, PHI_SQRT, DiscreteMeasure, DominationError, ExpansionReport,
                   PerturbationPair, PreconditionError, SignedMeasure,
                   expansion_check, fisher_gram, fisher_inner, geometric_decay_ok,
                   hellinger_off_support_check, jacobi_eigenvalues, perturb, phi_alpha,
                   r_phi, v_phi, validity_radius)
from codiv.measures import check_direction
from helpers import random_direction, random_probability


class TestFisherInner:
    def test_symmetric_two_point_direction(self):
        pair = PerturbationPair(DiscreteMeasure([0.5, 0.5]),
                                SignedMeasure([0.5, -0.5]), SignedMeasure([0.5, -0.5]))
        assert fisher_inner(pair) == pytest.approx(1.0, abs=1e-15)

    def test_zero_partner(self):
        pair = PerturbationPair(DiscreteMeasure([0.5, 0.5]),
                                SignedMeasure([0.5, -0.5]), SignedMeasure([0.0, 0.0]))
        assert fisher_inner(pair) == 0.0

    def test_uniform_three_point(self):
        pair = PerturbationPair(DiscreteMeasure.uniform(3),
                                SignedMeasure([0.1, -0.1, 0.0]),
                                SignedMeasure([0.0, 0.1, -0.1]))
        assert fisher_inner(pair) == pytest.approx(-0.03, abs=1e-16)

    def test_bilinearity_and_symmetry(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p0 = random_probability(rng, 5)
            mu = random_direction(rng, p0)
            nu = random_direction(rng, p0)
            xi = random_direction(rng, p0)
            a, b = rng.uniform(-2, 2, 2)
            combo = SignedMeasure(a * mu.mass + b * nu.mass)
            lhs = fisher_inner(PerturbationPair(p0, combo, xi))
            rhs = (a * fisher_inner(PerturbationPair(p0, mu, xi))
                   + b * fisher_inner(PerturbationPair(p0, nu, xi)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert fisher_inner(PerturbationPair(p0, mu, nu)) == pytest.approx(
                fisher_inner(PerturbationPair(p0, nu, mu)), abs=1e-15)

    def test_validation(self):
        p0 = DiscreteMeasure([0.5, 0.5, 0.0])
        with pytest.raises(PreconditionError):
            PerturbationPair(p0, SignedMeasure([0.5, -0.4, 0.0]), SignedMeasure([0, 0, 0]))
        with pytest.raises(DominationError):
            PerturbationPair(p0, SignedMeasure([0.0, -0.5, 0.5]), SignedMeasure([0, 0, 0]))


class TestFisherGram:
    def test_single_direction(self):
        g = fisher_gram(DiscreteMeasure([0.5, 0.5]), [SignedMeasure([0.5, -0.5])])
        np.testing.assert_allclose(g, [[1.0]])

    def test_opposite_directions_rank_one(self):
        p0 = DiscreteMeasure([0.4, 0.6])
        mu = SignedMeasure([0.3, -0.3])
        g = fisher_gram(p0, [mu, SignedMeasure(-mu.mass)])
        c = g[0, 0]
        np.testing.assert_allclose(g, [[c, -c], [-c, c]])
        eigs = jacobi_eigenvalues(g)
        assert np.sum(np.abs(eigs) > 1e-12) == 1

    def test_disjoint_coordinates_diagonal(self):
        p0 = DiscreteMeasure.uniform(4)
        mu = SignedMeasure([0.1, -0.1, 0.0, 0.0])
        nu = SignedMeasure([0.0, 0.0, 0.2, -0.2])
        g = fisher_gram(p0, [mu, nu])
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0

    def test_psd_floor(self):
        rng = np.random.default_rng(63)
        for _ in range(25):
            p0 = random_probability(rng, 6)
            mus = [random_direction(rng, p0) for _ in range(4)]
            g = fisher_gram(p0, mus)
            eigs = jacobi_eigenvalues(g)
            assert eigs[0] >= -1e-10 * max(1.0, eigs[-1])


class TestExpansionCheck:
    def test_chi2_is_exactly_bilinear(self):
        rng = np.random.default_rng(65)
        p0 = random_probability(rng, 5)
        mu = random_direction(rng, p0)
        nu = random_direction(rng, p0)
        report = expansion_check(p0, mu, nu, PHI_IDENTITY)
        for level in report.levels:
            assert level.v_residual <= 1e-14
            assert level.r_residual <= 1e-14

    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_power_links_decay_geometrically(self, alpha):
        rng = np.random.default_rng(67)
        for _ in range(10):
            p0 = random_probability(rng, 5)
            mu = random_direction(rng, p0)
            nu = random_direction(rng, p0)
            report = expansion_check(p0, mu, nu, phi_alpha(alpha))
            assert geometric_decay_ok([lv.v_residual for lv in report.levels],
                                      [lv.v_ratio for lv in report.levels])
            assert geometric_decay_ok([lv.r_residual for lv in report.levels],
                                      [lv.r_ratio for lv in report.levels])

    def test_hellinger_leading_coefficient(self):
        rng = np.random.default_rng(69)
        found = 0
        while found < 10:
            p0 = random_probability(rng, 5)
            mu = random_direction(rng, p0)
            nu = random_direction(rng, p0)
            inner = fisher_inner(PerturbationPair(p0, mu, nu))
            norm = math.sqrt(fisher_inner(PerturbationPair(p0, mu, mu))
                             * fisher_inner(PerturbationPair(p0, nu, nu)))
            if abs(inner) < 0.5 * norm:
                continue  # relative comparison needs a well-conditioned angle
            found += 1
            report = expansion_check(p0, mu, nu, PHI_SQRT)
            assert report.leading_coeff_r == pytest.approx(inner / 4.0, rel=0.01)

    def test_zero_partner_direction(self):
        p0 = DiscreteMeasure([0.5, 0.5])
        report = expansion_check(p0, SignedMeasure([0.25, -0.25]),
                                 SignedMeasure([0.0, 0.0]), PHI_SQRT)
        assert all(lv.v_ratio <= 1e-12 for lv in report.levels)

    def test_gram_recovered_from_expansion(self):
        rng = np.random.default_rng(71)
        p0 = random_probability(rng, 5)
        mus = [random_direction(rng, p0) for _ in range(2)]
        g = fisher_gram(p0, mus)
        for i in range(2):
            for j in range(2):
                report = expansion_check(p0, mus[i], mus[j], PHI_IDENTITY)
                assert report.leading_coeff_v == pytest.approx(g[i, j], rel=1e-10, abs=1e-10)

    def test_each_direction_is_checked_once(self, monkeypatch):
        """``PerturbationPair`` checks both directions and the step radii reuse that check;
        ``validity_radius`` called on its own still checks its direction."""
        checked = []

        def spy(mu, p0, off_support=False):
            checked.append(mu)
            return check_direction(mu, p0, off_support)

        monkeypatch.setattr(codiv.local, "check_direction", spy)
        monkeypatch.setattr(codiv.measures, "check_direction", spy)
        p0 = DiscreteMeasure([0.5, 0.3, 0.2])
        mu, nu = SignedMeasure([0.10, -0.06, -0.04]), SignedMeasure([-0.05, 0.11, -0.06])
        expansion_check(p0, mu, nu, PHI_SQRT)
        assert [id(m) for m in checked] == [id(mu), id(nu)]
        with pytest.raises(PreconditionError, match="zero total mass"):
            validity_radius(SignedMeasure([0.1, -0.05, 0.0]), p0)

    @pytest.mark.parametrize("decays_at, shifts", [(0, 0), (3, 3), (None, 8)])
    def test_each_step_is_evaluated_once(self, monkeypatch, decays_at, shifts):
        """A window that does not decay slides one step down the halving sequence, so
        ``shifts`` slides cost ``shifts`` more steps; when no window decays (None) the
        report is the window after 8 slides.  Each level holds the bits of the window
        evaluated on its own grid t0 * 2^-shifts * 2^-j."""
        p0 = DiscreteMeasure([0.5, 0.3, 0.2])
        mu = SignedMeasure([0.10, -0.06, -0.04])
        nu = SignedMeasure([-0.05, 0.11, -0.06])
        phi, levels = PHI_SQRT, 5
        calls = []
        monkeypatch.setattr(codiv.local, "v_phi", lambda *a: calls.append(a) or v_phi(*a))
        monkeypatch.setattr(ExpansionReport, "decay_ok",
                            lambda report: report.grid_shifts == decays_at)
        report = expansion_check(p0, mu, nu, phi, levels=levels)
        assert report.grid_shifts == shifts and len(calls) == levels + shifts
        t0 = 0.1 * min(validity_radius(mu, p0), 1.0) * 0.5 ** shifts
        s0 = 0.1 * min(validity_radius(nu, p0), 1.0) * 0.5 ** shifts
        assert len(report.levels) == levels
        for j, level in enumerate(report.levels):
            t, s = t0 * 0.5 ** j, s0 * 0.5 ** j
            p1, p2 = perturb(p0, mu, t), perturb(p0, nu, s)
            assert (level.t, level.s) == (t, s)
            assert (level.v_value, level.r_value) == (v_phi(p0, p1, p2, phi),
                                                      r_phi(p0, p1, p2, phi))


def _off_support_instance():
    p0 = DiscreteMeasure([0.6, 0.4, 0.0, 0.0])
    mu1 = SignedMeasure([-0.10, -0.05, 0.10, 0.05])
    mu2 = SignedMeasure([-0.02, -0.13, 0.05, 0.10])
    return p0, mu1, mu2


class TestOffSupportCheck:
    def test_coefficients_recovered(self):
        p0, mu1, mu2 = _off_support_instance()
        report = hellinger_off_support_check(p0, mu1, mu2)
        assert report.sqrt_rel_error <= 0.05
        assert report.bilinear_rel_error <= 0.05
        assert report.fitted_cross_t == pytest.approx(report.expected_cross_t, rel=0.05)

    def test_interior_directions_reduce_to_local_expansion(self):
        p0 = DiscreteMeasure([0.5, 0.3, 0.2])
        mu1 = SignedMeasure([0.10, -0.06, -0.04])
        mu2 = SignedMeasure([-0.05, 0.11, -0.06])
        report = hellinger_off_support_check(p0, mu1, mu2)
        assert report.expected_sqrt == 0.0
        assert abs(report.fitted_sqrt) <= 1e-8
        inner = fisher_inner(PerturbationPair(p0, mu1, mu2))
        assert report.expected_bilinear == pytest.approx(inner / 4.0, abs=1e-15)
        assert report.fitted_bilinear == pytest.approx(inner / 4.0, rel=0.05)

    def test_two_point_closed_form_instance(self):
        # reference concentrated on one point; all interaction lives off-support
        delta = 0.5
        p0 = DiscreteMeasure([1.0, 0.0])
        mu = SignedMeasure([-delta, delta])
        report = hellinger_off_support_check(p0, mu, mu)
        assert report.fitted_sqrt == pytest.approx(delta, rel=1e-6)
        assert report.expected_sqrt == pytest.approx(delta, abs=1e-15)
        # the pure ts coefficient vanishes; the slack is the fitted cross term
        assert report.expected_bilinear == 0.0
        assert abs(report.fitted_bilinear) <= 1e-4
        assert report.fitted_cross_t == pytest.approx(delta * delta / 2.0, rel=0.01)

    def test_symmetric_diagonal_behaviour(self):
        # along t = s the model must reproduce rho to high accuracy
        from codiv import hellinger_codiv, perturb
        p0, mu1, mu2 = _off_support_instance()
        report = hellinger_off_support_check(p0, mu1, mu2)
        t = 5e-4
        predicted = (report.fitted_sqrt * t + report.fitted_bilinear * t * t
                     + (report.fitted_cross_t + report.fitted_cross_s) * t * t * t / t)
        actual = hellinger_codiv(p0, perturb(p0, mu1, t), perturb(p0, mu2, t))
        assert predicted == pytest.approx(actual, rel=1e-4)

    @pytest.mark.parametrize("grid_n", [2, 4])
    def test_each_grid_measure_is_perturbed_once(self, monkeypatch, grid_n):
        calls = []
        monkeypatch.setattr(codiv.local, "perturb", lambda *a: calls.append(a) or perturb(*a))
        hellinger_off_support_check(*_off_support_instance(), grid_n=grid_n)
        assert len(calls) == 2 * grid_n

    def test_precondition_failures(self):
        p0 = DiscreteMeasure([0.6, 0.4, 0.0])
        negative_outside = SignedMeasure([0.1, 0.1, -0.2])
        with pytest.raises(PreconditionError):
            hellinger_off_support_check(p0, negative_outside, negative_outside)
        no_overlap = SignedMeasure([0.0, 0.0, 0.0])
        with pytest.raises(PreconditionError):
            hellinger_off_support_check(p0, no_overlap, no_overlap)
        nonzero_mass = SignedMeasure([0.0, 0.1, 0.1])
        with pytest.raises(PreconditionError):
            hellinger_off_support_check(p0, nonzero_mass, nonzero_mass)
        ok = SignedMeasure([-0.1, 0.0, 0.1])
        with pytest.raises(PreconditionError):
            hellinger_off_support_check(p0, ok, ok, grid_scale=5.0)

    def test_validity_radius_respected(self):
        # the default expansion grid never leaves the probability simplex
        rng = np.random.default_rng(73)
        for _ in range(20):
            p0 = random_probability(rng, 4)
            mu = random_direction(rng, p0)
            radius = validity_radius(mu, p0)
            report = expansion_check(p0, mu, mu, PHI_SQRT)
            assert all(lv.t <= radius and lv.s <= radius for lv in report.levels)
