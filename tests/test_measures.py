import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codiv import (DiscreteMeasure, DimensionMismatchError, DominationError,
                   PreconditionError, SignedMeasure, divergence_matrix, dominated_by,
                   ess_sup_ratio, features, jordan_decompose, perturb, validity_radius)
from codiv.errors import numbers
from codiv.families import (BernoulliProd, ExponentialProd, GammaProd, GaussianIso,
                           PoissonProd)
from codiv.matrices import DivMatrix, MarkovKernel
from codiv.measures import measure_problems
from helpers import perturbs_to_probability, random_direction, random_probability


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
    """dP/dP0 as the chi2 rows of ``features`` carry it, (dP/dP0 - 1) sqrt(p0) on supp p0,
    and as ``ess_sup_ratio`` bounds it for a direction."""

    QUARTERS = DiscreteMeasure([0.25, 0.25, 0.25, 0.25])  # sqrt(p0) = 0.5 exactly

    def test_unit_ratios(self):
        rows = features(self.QUARTERS, [self.QUARTERS], "chi2")
        assert rows.finite.all()
        np.testing.assert_array_equal(rows.rows, [[0.0, 0.0, 0.0, 0.0]])

    def test_zero_measure(self):
        rows = features(self.QUARTERS, [DiscreteMeasure([0.5, 0.5, 0.0, 0.0])], "chi2")
        np.testing.assert_array_equal(rows.rows, [[0.5, 0.5, -0.5, -0.5]])

    def test_direct_division(self):
        # ratios (2, 0, 1)
        rows = features(DiscreteMeasure([0.25, 0.25, 0.5]), [DiscreteMeasure([0.5, 0.0, 0.5])],
                        "chi2")
        np.testing.assert_array_equal(rows.rows, [[0.5, -0.5, 0.0]])
        assert rows.finite.all()

    def test_non_dominated_flag(self):
        p0, p1 = DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.7, 0.3])
        assert not features(p0, [p1], "chi2").finite[0]
        assert divergence_matrix(p0, [p1], "chi2").entries[0, 0] == math.inf

    def test_remultiplication_recovers_mu(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p0 = random_probability(rng, 6)
            mu = random_direction(rng, p0)
            sup = ess_sup_ratio(mu, p0)
            np.testing.assert_array_less(np.abs(mu.mass), sup * p0.mass * (1 + 4e-16))
            top = np.argmax(np.abs(mu.mass) / p0.mass)
            np.testing.assert_allclose(sup * p0.mass[top], abs(mu.mass[top]), rtol=4e-16)


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
                assert perturbs_to_probability(p0, mu, t)
            assert not perturbs_to_probability(p0, mu, 1.01 * a_star)

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
    # an array must be 1-D and non-empty, as a list must be non-empty
    assert numbers(np.zeros((1, 2))) is None and numbers(np.array([])) is None


def test_json_round_trip():
    doc = {"support": 2, "mass": [0.25, 0.75]}
    mass, problems, total = measure_problems(doc, normalized=True)
    assert mass.tolist() == doc["mass"] and problems == [] and total == 1.0
    doc = {"support": 3, "mass": [0.1, -0.1, 0.0]}
    mass, problems, total = measure_problems(doc, signed=True, normalized=True)
    assert mass.tolist() == [0.1, -0.1, 0.0] and problems == [] and total == 0.0
    _, problems, total = measure_problems({"support": 2, "mass": [1.0]}, path="/inputs/0")
    assert [(type(p), p.path) for p in problems] == [(PreconditionError, "/inputs/0/support")]
    assert total == 1.0  # the exact total, though not normalized


@pytest.mark.parametrize("make", [
    lambda: DiscreteMeasure([0.5, 0.5]), lambda: SignedMeasure([0.5, -0.5]),
    lambda: MarkovKernel(np.eye(2)), lambda: DivMatrix("chi2", np.eye(2)),
    lambda: GaussianIso([0.0, 1.0], 1.0), lambda: PoissonProd([1.5, 2.0]),
    lambda: BernoulliProd([0.25]), lambda: ExponentialProd([2.0]),
    lambda: GammaProd([1.5], [2.0])])
def test_frozen_types_with_arrays_compare_by_identity(make):
    """A frozen type that holds arrays is equal only to itself and hashes, as an element-wise
    array comparison has no one truth value."""
    a, copy = make(), make()
    assert a == a and a != copy and hash(a) == hash(a) == object.__hash__(a)
    assert len({a, copy, a}) == 2
