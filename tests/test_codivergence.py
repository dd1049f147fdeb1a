import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from codiv import (PHI_IDENTITY, PHI_SQRT, DegeneratePhiError, DiscreteMeasure,
                   PhiFunction, PreconditionError, SignedMeasure, chi2_codiv, chi2_signed,
                   divergence_matrix, hellinger_codiv, phi_alpha, r_phi, v_phi)
from codiv.codivergence import _cell, _gram
from helpers import random_dominated, random_direction, random_probability

P0 = DiscreteMeasure([0.5, 0.5])
P1 = DiscreteMeasure([0.25, 0.75])
P2 = DiscreteMeasure([0.75, 0.25])


def test_phi_normalization_enforced():
    with pytest.raises(PreconditionError):
        PhiFunction(fn=lambda x: 2.0 * x, dphi_at_one=2.0)
    with pytest.raises(PreconditionError, match="nonnegative"):
        PhiFunction(fn=lambda x: 2.0 * x - 1.0, dphi_at_one=2.0)  # phi(0) = -1
    with pytest.raises(PreconditionError):
        phi_alpha(0.0)


class TestVphi:
    def test_diagonal_at_reference_is_zero(self):
        for phi in (PHI_IDENTITY, PHI_SQRT, phi_alpha(0.25), phi_alpha(2.0)):
            assert v_phi(P0, P0, P0, phi) == pytest.approx(0.0, abs=1e-15)

    def test_identity_phi_value(self):
        assert v_phi(P0, P1, P2, PHI_IDENTITY) == pytest.approx(-0.25, abs=1e-15)

    def test_non_domination_is_infinite(self):
        assert v_phi(DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.5, 0.5]),
                     DiscreteMeasure([0.5, 0.5]), PHI_IDENTITY) == math.inf

    def test_requires_probability(self):
        with pytest.raises(PreconditionError):
            v_phi(P0, DiscreteMeasure([0.5, 0.4]), P2, PHI_IDENTITY)


class TestRphi:
    def test_diagonal_at_reference_is_zero(self):
        assert r_phi(P0, P0, P0, PHI_SQRT) == pytest.approx(0.0, abs=1e-15)

    def test_identity_phi_equals_covariance_type(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            p0 = random_probability(rng, 5)
            pa = random_dominated(rng, p0)
            pb = random_dominated(rng, p0)
            assert r_phi(p0, pa, pb, PHI_IDENTITY) == pytest.approx(
                v_phi(p0, pa, pb, PHI_IDENTITY), abs=1e-14)

    def test_sqrt_phi_matches_hellinger(self):
        value = r_phi(P0, P1, P1, PHI_SQRT)
        assert value == pytest.approx(hellinger_codiv(P0, P1, P1), abs=1e-14)

    def test_degenerate_phi_raises(self):
        spike = PhiFunction(fn=lambda x: 1.0 if x == 1.0 else 0.0,
                            dphi_at_one=0.0, name="spike")
        with pytest.raises(DegeneratePhiError):
            r_phi(P0, P1, P1, spike)


class TestChi2:
    def test_direct_sums(self):
        assert chi2_codiv(P0, P1, P1) == pytest.approx(0.25, abs=1e-15)
        assert chi2_codiv(P0, P1, P2) == pytest.approx(-0.25, abs=1e-15)
        assert chi2_codiv(P0, P0, P0) == 0.0

    def test_symmetric_in_arguments(self):
        assert chi2_codiv(P0, P1, P2) == chi2_codiv(P0, P2, P1)

    def test_diagonal_is_classical_divergence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p0 = random_probability(rng, 6, zeros=1)
            p1 = random_dominated(rng, p0)
            assert chi2_codiv(p0, p1, p1) == pytest.approx(
                chi2_signed(SignedMeasure(p1.mass), p0), abs=1e-12)

    def test_exact_bilinearity(self):
        rng = np.random.default_rng(9)
        from codiv import fisher_inner, PerturbationPair, perturb, validity_radius
        for _ in range(30):
            p0 = random_probability(rng, 5)
            mu = random_direction(rng, p0)
            nu = random_direction(rng, p0)
            inner = fisher_inner(PerturbationPair(p0, mu, nu))
            t = 0.5 * validity_radius(mu, p0)
            s = 0.7 * validity_radius(nu, p0)
            value = chi2_codiv(p0, perturb(p0, mu, t), perturb(p0, nu, s))
            assert abs(value - t * s * inner) <= 1e-14 * max(1.0, abs(value))


class TestHellinger:
    def test_diagonal_at_reference(self):
        assert hellinger_codiv(P0, P0, P0) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_supports_infinite(self):
        assert hellinger_codiv(DiscreteMeasure([1.0, 0.0]), DiscreteMeasure([0.0, 1.0]),
                               DiscreteMeasure([0.0, 1.0])) == math.inf

    def test_value_and_cross_check(self):
        num = 2.0 * math.sqrt(0.25 * 0.75)
        den = math.sqrt(0.125) + math.sqrt(0.375)
        expected = num / (den * den) - 1.0
        assert hellinger_codiv(P0, P1, P2) == pytest.approx(expected, abs=1e-15)
        assert r_phi(P0, P1, P2, PHI_SQRT) == pytest.approx(expected, abs=1e-14)

    def test_finite_without_domination(self):
        # p1 has mass outside supp(p0) but overlapping support keeps rho finite
        p0 = DiscreteMeasure([0.5, 0.5, 0.0])
        p1 = DiscreteMeasure([0.25, 0.25, 0.5])
        assert math.isfinite(hellinger_codiv(p0, p1, p1))


class TestRAlpha:
    def test_alpha_one_is_chi2(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p0 = random_probability(rng, 4)
            pa = random_dominated(rng, p0)
            pb = random_dominated(rng, p0)
            assert r_phi(p0, pa, pb, phi_alpha(1.0)) == pytest.approx(
                chi2_codiv(p0, pa, pb), abs=1e-13)

    def test_alpha_half_is_hellinger_on_dominated(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p0 = random_probability(rng, 5)
            pa = random_dominated(rng, p0)
            pb = random_dominated(rng, p0)
            assert r_phi(p0, pa, pb, phi_alpha(0.5)) == pytest.approx(
                hellinger_codiv(p0, pa, pb), abs=1e-13)

    def test_reference_diagonal_zero_any_alpha(self):
        for a in (0.25, 0.5, 1.0, 1.7):
            assert r_phi(P0, P0, P0, phi_alpha(a)) == pytest.approx(0.0, abs=1e-14)
            assert v_phi(P0, P0, P0, phi_alpha(a)) == pytest.approx(0.0, abs=1e-14)


class TestStructuralProperties:
    def test_symmetry_all_kinds(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            p0 = random_probability(rng, 5, zeros=1)
            pa = random_dominated(rng, p0)
            pb = random_dominated(rng, p0)
            phi = phi_alpha(rng.uniform(0.2, 2.0))
            assert v_phi(p0, pa, pb, phi) == v_phi(p0, pb, pa, phi)
            assert r_phi(p0, pa, pb, phi) == r_phi(p0, pb, pa, phi)
            assert chi2_codiv(p0, pa, pb) == chi2_codiv(p0, pb, pa)
            assert hellinger_codiv(p0, pa, pb) == hellinger_codiv(p0, pb, pa)

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p0 = random_probability(rng, 6)
            pa = random_dominated(rng, p0, zeros=1)
            phi = phi_alpha(rng.uniform(0.2, 2.0))
            assert v_phi(p0, pa, pa, phi) >= -1e-12
            assert r_phi(p0, pa, pa, phi) >= -1e-12
            assert chi2_codiv(p0, pa, pa) >= -1e-12
            assert hellinger_codiv(p0, pa, pa) >= -1e-12

    def test_hellinger_below_chi2_on_diagonal(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p0 = random_probability(rng, 6, zeros=1)
            p1 = random_dominated(rng, p0, zeros=1)
            assert (hellinger_codiv(p0, p1, p1)
                    <= chi2_codiv(p0, p1, p1) + 1e-10)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.integers(1, 6), cols=st.integers(1, 300), offset=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_gram_is_bit_symmetric(rows, cols, offset, seed):
    # cells (i, j) and (j, i) must be equal to the last bit, also for rows that are not
    # 16-byte aligned and for magnitudes across the float range
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(rows * cols) * 2.0 ** rng.integers(-500, 500, rows * cols)
    buffer = np.empty(rows * cols + offset)
    buffer[offset:] = values
    g = _gram(buffer[offset:].reshape(rows, cols))
    assert np.array_equal(g, g.T, equal_nan=True)


def test_codiv_reports_its_cell_when_only_the_diagonal_overflows():
    # v_alpha at alpha 308: phi(r) stays finite, the off-diagonal cell is about 9e306, and
    # the diagonal cells of H H' overflow; the matrix, which reports them, is an error
    p0 = DiscreteMeasure([0.1, 0.2, 0.3, 0.4])
    p1 = DiscreteMeasure([0.4, 0.3, 0.2, 0.1])
    p2 = DiscreteMeasure([0.25, 0.25, 0.25, 0.25])
    phi = phi_alpha(308.0)
    value = v_phi(p0, p1, p2, phi)
    assert math.isfinite(value)
    with pytest.raises(OverflowError, match="Gram matrix"):
        divergence_matrix(p0, [p1, p2], "vphi", phi)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["chi2", "hellinger", "rphi"]), n=st.integers(2, 6),
       zeros=st.integers(0, 4), alpha=st.sampled_from([0.5, 2.0, 50.0, 300.0, 309.0]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="rphi", n=2, zeros=0, alpha=309.0, seed=-1)
def test_correlation_cells_are_at_least_minus_one(kind, n, zeros, alpha, seed):
    # every cell is E[f_j f_k] - 1 for nonnegative f_j, f_k; near -1, when f_j and f_k
    # put their weight on different points, the rounded product sum must not pass it
    if seed < 0:  # masses (0.5, 0.5), (0.25, 0.75), (0.75, 0.25): -1.0000000000000002 once
        p0, ps = DiscreteMeasure([0.5, 0.5]), [DiscreteMeasure([0.25, 0.75]),
                                               DiscreteMeasure([0.75, 0.25])]
    else:
        rng = np.random.default_rng(seed)
        p0 = random_probability(rng, n)
        ps = [random_dominated(rng, p0, floor=1e-3, zeros=min(zeros, n - 1)) for _ in range(3)]
    phi = phi_alpha(alpha) if kind == "rphi" else None
    try:
        entries = divergence_matrix(p0, ps, kind, phi).entries
        cell = _cell(p0, ps[0], ps[1], kind, phi)
    except (OverflowError, DegeneratePhiError):
        assume(False)
    assert entries.min() >= -1.0
    assert cell >= -1.0 and cell == entries[0, 1]
