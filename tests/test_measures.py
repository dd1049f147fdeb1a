import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiv import (DiscreteMeasure, DimensionMismatchError, DominationError,
                   PreconditionError, SignedMeasure, density_ratio, dominated_by,
                   ess_sup_ratio, is_valid_perturbation, jordan_decompose, perturb,
                   validity_radius)
from helpers import random_direction, random_probability


class TestDominatedBy:
    def test_zero_on_null_set(self):
        assert dominated_by(SignedMeasure([0.2, -0.2, 0]), DiscreteMeasure([0.5, 0.5, 0]))

    def test_mass_on_null_set(self):
        assert not dominated_by(SignedMeasure([0, 0, 0.1]), DiscreteMeasure([0.5, 0.5, 0]))

    def test_second_point_violates(self):
        assert not dominated_by(SignedMeasure([0.3, -0.3]), DiscreteMeasure([1.0, 0.0]))

    def test_support_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dominated_by(SignedMeasure([0.1, -0.1]), DiscreteMeasure([1.0]))


class TestDensityRatio:
    def test_unit_ratios(self):
        r = density_ratio(SignedMeasure([0.5, -0.5]), DiscreteMeasure([0.5, 0.5]))
        assert r.dominated
        np.testing.assert_array_equal(r.values, [1.0, -1.0])

    def test_zero_measure(self):
        r = density_ratio(SignedMeasure([0, 0]), DiscreteMeasure([0.5, 0.5]))
        np.testing.assert_array_equal(r.values, [0.0, 0.0])

    def test_direct_division(self):
        r = density_ratio(SignedMeasure([0.25, -0.25, 0]), DiscreteMeasure([0.25, 0.25, 0.5]))
        np.testing.assert_array_equal(r.values, [1.0, -1.0, 0.0])
        assert r.dominated

    def test_non_dominated_flag(self):
        r = density_ratio(SignedMeasure([0, 0.3]), DiscreteMeasure([1.0, 0.0]))
        assert not r.dominated
        assert r.values[1] == math.inf

    def test_remultiplication_recovers_mu(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p0 = random_probability(rng, 6)
            mu = random_direction(rng, p0)
            r = density_ratio(mu, p0)
            np.testing.assert_allclose(r.values * p0.mass, mu.mass, rtol=4e-16, atol=1e-300)


class TestJordan:
    def test_split_and_normalize(self):
        ap, mp, am, mm = jordan_decompose(SignedMeasure([0.3, -0.1, -0.2]))
        assert ap == pytest.approx(0.3, abs=1e-15)
        assert am == pytest.approx(0.3, abs=1e-15)
        np.testing.assert_allclose(mp.mass, [1, 0, 0])
        np.testing.assert_allclose(mm.mass, [0, 1 / 3, 2 / 3])

    def test_nonnegative_measure(self):
        ap, mp, am, _ = jordan_decompose(SignedMeasure([0.5, 0.5]))
        assert ap == pytest.approx(1.0)
        assert am == 0.0
        np.testing.assert_allclose(mp.mass, [0.5, 0.5])

    def test_zero_measure(self):
        ap, _, am, _ = jordan_decompose(SignedMeasure([0.0, 0.0]))
        assert ap == 0.0 and am == 0.0

    @given(mass=st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=12))
    @settings(deadline=None)
    def test_reconstruction_and_orthogonality(self, mass):
        mu = SignedMeasure(mass)
        ap, mp, am, mm = jordan_decompose(mu)
        rebuilt = ap * mp.mass - am * mm.mass
        scale = max(1.0, float(np.max(np.abs(mu.mass))))
        np.testing.assert_allclose(rebuilt, mu.mass, atol=1e-14 * scale, rtol=0)
        if ap > 0 and am > 0:
            assert not np.any((mp.mass > 0) & (mm.mass > 0))


class TestEssSup:
    def test_symmetric_direction(self):
        mu = SignedMeasure([0.5, -0.5])
        p0 = DiscreteMeasure([0.5, 0.5])
        assert ess_sup_ratio(mu, p0) == 1.0
        assert validity_radius(mu, p0) == 1.0

    def test_zero_direction(self):
        mu = SignedMeasure([0.0, 0.0])
        p0 = DiscreteMeasure([0.5, 0.5])
        assert ess_sup_ratio(mu, p0) == 0.0
        assert validity_radius(mu, p0) == math.inf

    def test_max_over_points(self):
        mu = SignedMeasure([0.1, -0.1, 0.0])
        p0 = DiscreteMeasure([0.2, 0.4, 0.4])
        assert ess_sup_ratio(mu, p0) == pytest.approx(0.5)
        assert validity_radius(mu, p0) == pytest.approx(2.0)

    def test_not_dominated_raises(self):
        # zero total mass, but the direction touches the null point
        with pytest.raises(DominationError):
            ess_sup_ratio(SignedMeasure([0.1, -0.2, 0.1]), DiscreteMeasure([0.5, 0.5, 0.0]))

    def test_nonzero_total_mass_raises(self):
        with pytest.raises(PreconditionError):
            ess_sup_ratio(SignedMeasure([0.2, -0.1]), DiscreteMeasure([0.5, 0.5]))


class TestValidityRadius:
    def test_boundary_is_sharp(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p0 = random_probability(rng, 5)
            mu = random_direction(rng, p0)
            # orient the direction so the extreme ratio is negative: then the
            # positive side of the interval is the binding one
            ratios = mu.mass / p0.mass
            if ratios[np.argmax(np.abs(ratios))] > 0:
                mu = SignedMeasure(-mu.mass)
            a_star = validity_radius(mu, p0)
            assert math.isfinite(a_star)
            for t in np.linspace(-a_star, a_star, 20):
                assert is_valid_perturbation(p0, mu, t)
            assert not is_valid_perturbation(p0, mu, 1.01 * a_star)

    def test_perturb_constructs_measure_at_boundary(self):
        p0 = DiscreteMeasure([0.5, 0.5])
        mu = SignedMeasure([0.5, -0.5])
        edge = perturb(p0, mu, 1.0)
        np.testing.assert_allclose(edge.mass, [1.0, 0.0])
        with pytest.raises(PreconditionError):
            perturb(p0, mu, 1.01)


def test_measure_validation():
    with pytest.raises(PreconditionError):
        DiscreteMeasure([0.5, -0.1])
    with pytest.raises(PreconditionError):
        DiscreteMeasure([])
    with pytest.raises(PreconditionError):
        SignedMeasure([math.nan])
    # the largest int that float() rounds to a finite value is a number; one more is not
    assert DiscreteMeasure([2 ** 1024 - 2 ** 970 - 1, 0]).mass[0] == np.finfo(float).max
    with pytest.raises(PreconditionError, match="finite number"):
        SignedMeasure([2 ** 1024 - 2 ** 970, 0])


def test_json_round_trip():
    p = DiscreteMeasure([0.25, 0.75])
    assert DiscreteMeasure.from_json_dict(p.to_json_dict()).mass.tolist() == [0.25, 0.75]
    doc = {"support": 3, "mass": [0.1, -0.1, 0.0]}
    assert SignedMeasure.from_json_dict(doc).mass.tolist() == [0.1, -0.1, 0.0]
    with pytest.raises(PreconditionError):
        DiscreteMeasure.from_json_dict({"support": 2, "mass": [1.0]})
