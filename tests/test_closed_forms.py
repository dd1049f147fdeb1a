import itertools
import math
import sys
from types import MappingProxyType

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from codiv import (BernoulliProd, DimensionMismatchError, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, KindMismatchError, ParamFamily, PoissonProd,
                   PreconditionError, family_from_json_dict, gamma_first_order, oracle_r_alpha,
                   phi_alpha, r_alpha_closed, r_alpha_closed_log1p, r_phi)
from codiv.errors import _from_checked
from codiv.families import _coordinates


class TestGaussian:
    def test_orthogonal_mean_shifts_vanish(self):
        f0 = GaussianIso([0.0, 0.0], 1.0)
        f1 = GaussianIso([1.0, 0.0], 1.0)
        f2 = GaussianIso([0.0, 1.0], 1.0)
        for alpha in (0.25, 0.5, 1.0, 1.5):
            assert r_alpha_closed(f0, f1, f2, alpha) == 0.0

    def test_inner_product_formula(self):
        f0 = GaussianIso([0.5, -1.0], 2.0)
        f1 = GaussianIso([1.5, 0.0], 2.0)
        f2 = GaussianIso([-0.5, 1.0], 2.0)
        alpha = 0.5
        expected = math.expm1(alpha ** 2 * (1.0 * -1.0 + 1.0 * 2.0) / 4.0)
        assert r_alpha_closed(f0, f1, f2, alpha) == pytest.approx(expected, rel=1e-15)

    def test_sigma_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            r_alpha_closed(GaussianIso([0.0], 1.0), GaussianIso([1.0], 2.0),
                           GaussianIso([0.0], 1.0), 1.0)


class TestPoisson:
    def test_chi2_value(self):
        value = r_alpha_closed(PoissonProd([1.0]), PoissonProd([2.0]), PoissonProd([3.0]), 1.0)
        assert value == pytest.approx(math.exp(2.0) - 1.0, rel=1e-14)

    def test_chi2_display(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            l0, l1, l2 = rng.uniform(0.3, 5.0, (3, 3))
            value = r_alpha_closed(PoissonProd(l0), PoissonProd(l1), PoissonProd(l2), 1.0)
            display = math.expm1(np.sum((l1 - l0) * (l2 - l0) / l0))
            assert value == pytest.approx(display, rel=1e-12, abs=1e-14)

    def test_hellinger_display(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            l0, l1, l2 = rng.uniform(0.3, 5.0, (3, 3))
            value = r_alpha_closed(PoissonProd(l0), PoissonProd(l1), PoissonProd(l2), 0.5)
            display = math.expm1(np.sum((np.sqrt(l1) - np.sqrt(l0)) * (np.sqrt(l2) - np.sqrt(l0))))
            assert value == pytest.approx(display, rel=1e-12, abs=1e-14)


class TestBernoulli:
    def test_chi2_value(self):
        value = r_alpha_closed(BernoulliProd([0.5]), BernoulliProd([0.75]),
                               BernoulliProd([0.25]), 1.0)
        assert value == pytest.approx(-0.25, abs=1e-14)

    def test_chi2_display(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t0, t1, t2 = rng.uniform(0.05, 0.95, (3, 2))
            value = r_alpha_closed(BernoulliProd(t0), BernoulliProd(t1), BernoulliProd(t2), 1.0)
            display = np.prod((t1 - t0) * (t2 - t0) / (t0 * (1 - t0)) + 1.0) - 1.0
            assert value == pytest.approx(display, rel=1e-12, abs=1e-14)

    def test_hellinger_display(self):
        def affinity(a, b):
            return np.sqrt(a * b) + np.sqrt((1 - a) * (1 - b))

        rng = np.random.default_rng(8)
        for _ in range(25):
            t0, t1, t2 = rng.uniform(0.05, 0.95, (3, 2))
            value = r_alpha_closed(BernoulliProd(t0), BernoulliProd(t1), BernoulliProd(t2), 0.5)
            display = np.prod(affinity(t1, t2) / (affinity(t1, t0) * affinity(t2, t0))) - 1.0
            assert value == pytest.approx(display, rel=1e-12, abs=1e-14)

    def test_open_interval_enforced(self):
        with pytest.raises(PreconditionError):
            BernoulliProd([1.0])
        with pytest.raises(PreconditionError):
            BernoulliProd([0.0, 0.5])


class TestExponentialAndGamma:
    def test_exponential_table_row(self):
        value = r_alpha_closed(ExponentialProd([1.0]), ExponentialProd([2.0]),
                               ExponentialProd([2.0]), 1.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_exponential_ratio_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            b0, b1, b2 = rng.uniform(0.5, 4.0, (3, 2))
            alpha = rng.choice([0.25, 0.5, 1.0])
            num = (b0 + alpha * (b1 - b0)) * (b0 + alpha * (b2 - b0))
            den = b0 * (b0 + alpha * (b1 + b2 - 2 * b0))
            if np.all(num > 0) and np.all(den > 0):
                value = r_alpha_closed(ExponentialProd(b0), ExponentialProd(b1),
                                       ExponentialProd(b2), alpha)
                assert value == pytest.approx(np.prod(num / den) - 1.0, rel=1e-12, abs=1e-14)

    def test_gamma_domain_violation_is_infinite(self):
        f0 = GammaProd([1.0], [5.0])
        f1 = GammaProd([1.0], [1.0])
        f2 = GammaProd([1.0], [1.0])
        # mixed rate 5 + (1 + 1 - 10) = -3 <= 0
        assert r_alpha_closed(f0, f1, f2, 1.0) == math.inf
        # marginal rate beta0 + alpha*(beta1 - beta0) <= 0 with alpha > 1
        assert r_alpha_closed(GammaProd([1.0], [1.0]), GammaProd([1.0], [0.2]),
                              GammaProd([1.0], [1.0]), 2.0) == math.inf

    def test_gamma_shape_domain_violation(self):
        f0 = GammaProd([3.0], [1.0])
        f1 = GammaProd([1.0], [1.0])
        f2 = GammaProd([1.0], [1.0])
        # mixed shape 3 + 2*(1 + 1 - 6) = -5 <= 0
        assert r_alpha_closed(f0, f1, f2, 2.0) == math.inf

    def test_exponential_is_gamma_with_unit_shape(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            b0, b1, b2 = rng.uniform(0.5, 4.0, (3, 3))
            alpha = rng.choice([0.25, 0.5, 1.0])
            ve = r_alpha_closed(ExponentialProd(b0), ExponentialProd(b1),
                                ExponentialProd(b2), alpha)
            vg = r_alpha_closed(GammaProd(np.ones(3), b0), GammaProd(np.ones(3), b1),
                                GammaProd(np.ones(3), b2), alpha)
            if math.isinf(ve):
                assert math.isinf(vg)
            else:
                assert ve == pytest.approx(vg, rel=1e-13, abs=1e-15)


class TestProductRule:
    def test_basics(self):
        """log(R_alpha + 1) of a product family is the sum over its coordinates: coordinates
        equal to the reference add 0, two with log(R_alpha + 1) = 1 give e^2 - 1, and one
        outside the natural domain makes the whole triple +inf."""
        f = GaussianIso([0.0, 0.0, 0.0], 1.0)
        assert r_alpha_closed(f, f, f, 0.5) == 0.0
        shifted = GaussianIso([1.0, 1.0], 0.5)
        value = r_alpha_closed(GaussianIso([0.0, 0.0], 0.5), shifted, shifted, 0.5)
        assert value == pytest.approx(math.expm1(math.fsum([1.0, 1.0])), rel=1e-15)
        assert r_alpha_closed(*(GammaProd([1.0, 1.0], [b, 2.0]) for b in (5.0, 1.0, 1.0)),
                              1.0) == math.inf

    def test_matches_multivariate_closed_forms(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            alpha = rng.choice([0.25, 0.5, 1.0])
            kind = rng.choice(["gauss", "pois", "bern", "exp", "gamma"])
            if kind == "gauss":
                sigma = rng.uniform(0.5, 2.0)
                m0, m1, m2 = rng.uniform(-2, 2, (3, d))
                fams = [GaussianIso(m, sigma) for m in (m0, m1, m2)]
                comps = [r_alpha_closed(GaussianIso([m0[l]], sigma), GaussianIso([m1[l]], sigma),
                                        GaussianIso([m2[l]], sigma), alpha) for l in range(d)]
            elif kind == "pois":
                l0, l1, l2 = rng.uniform(0.3, 5.0, (3, d))
                fams = [PoissonProd(v) for v in (l0, l1, l2)]
                comps = [r_alpha_closed(PoissonProd([l0[l]]), PoissonProd([l1[l]]),
                                        PoissonProd([l2[l]]), alpha) for l in range(d)]
            elif kind == "bern":
                t0, t1, t2 = rng.uniform(0.05, 0.95, (3, d))
                fams = [BernoulliProd(v) for v in (t0, t1, t2)]
                comps = [r_alpha_closed(BernoulliProd([t0[l]]), BernoulliProd([t1[l]]),
                                        BernoulliProd([t2[l]]), alpha) for l in range(d)]
            elif kind == "exp":
                b0, b1, b2 = rng.uniform(0.5, 4.0, (3, d))
                fams = [ExponentialProd(v) for v in (b0, b1, b2)]
                comps = [r_alpha_closed(ExponentialProd([b0[l]]), ExponentialProd([b1[l]]),
                                        ExponentialProd([b2[l]]), alpha) for l in range(d)]
            else:
                a0, a1, a2 = rng.uniform(0.5, 3.0, (3, d))
                b0, b1, b2 = rng.uniform(0.5, 4.0, (3, d))
                fams = [GammaProd(a, b) for a, b in ((a0, b0), (a1, b1), (a2, b2))]
                comps = [r_alpha_closed(GammaProd([a0[l]], [b0[l]]), GammaProd([a1[l]], [b1[l]]),
                                        GammaProd([a2[l]], [b2[l]]), alpha) for l in range(d)]
            whole = r_alpha_closed(*fams, alpha)
            if math.isinf(whole):
                assert math.inf in comps
            else:
                combined = math.expm1(math.fsum(math.log1p(c) for c in comps))
                assert whole == pytest.approx(combined, rel=1e-10, abs=1e-13)


def _delta2_log_partition(kind, rows, alpha):
    """log(R_alpha + 1) = A(t_bar) - A(t_01) - A(t_02) + A(t_0) over the coordinates' natural
    parameters t at 200 digits, or None outside the natural domain.  Each family's difference
    is written so that it cancels none of those digits: alpha^2 <d_1, d_2>/sigma^2 (Gaussian),
    lambda_0^(1 - 2 alpha)(lambda_1^alpha - lambda_0^alpha)(lambda_2^alpha - lambda_0^alpha)
    (Poisson), and log(N/(D_1 D_2)) = log1p((N - D_1 D_2)/(D_1 D_2)) of the defining sums or
    integrals (Bernoulli; Gamma with shared shapes, times the shape), with N - D_1 D_2 formed
    as a product of differences, and the log of the ratio itself where that is below 1/2."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(200):
        a, total = mpmath.mpf(alpha), mpmath.mpf(0)
        for row in rows:
            p0, p1, p2 = ([mpmath.mpf(x) for x in p] for p in row)
            if kind in ("exponential_product", "gamma_product"):
                (shape, b0), (_, b1), (_, b2) = p0, p1, p2
                with mpmath.workdps(700):  # the mixed rates of floats, exactly
                    b01, b02 = ((1 - a) * b0 + a * b for b in (b1, b2))
                    bbar = (1 - 2 * a) * b0 + a * (b1 + b2)
                if min(b01, b02, bbar) <= 0:
                    return None
                ratio, excess = b01 * b02 / (b0 * bbar), a * a * (b1 - b0) * (b2 - b0) / (b0 * bbar)
            if p1 == p0 or p2 == p0:  # exactly 0, which the digits' rounding would blur
                continue
            if kind == "gaussian_iso":
                (m0, s), (m1, _), (m2, _) = p0, p1, p2
                total += a * a * (m1 - m0) * (m2 - m0) / (s * s)
                continue
            if kind == "poisson_product":
                (l0,), (l1,), (l2,) = p0, p1, p2
                total += l0 ** (1 - 2 * a) * (l1 ** a - l0 ** a) * (l2 ** a - l0 ** a)
                continue
            if kind == "bernoulli_product":  # rho_j = (theta_j/theta_0)^a, sigma_j likewise
                (t0,), (t1,), (t2,) = p0, p1, p2
                (r1, s1), (r2, s2) = (((t / t0) ** a, ((1 - t) / (1 - t0)) ** a) for t in (t1, t2))
                d1, d2 = (t0 * r + (1 - t0) * s for r, s in ((r1, s1), (r2, s2)))
                excess = t0 * (1 - t0) * (r1 - s1) * (r2 - s2) / (d1 * d2)
                ratio, shape = 1 + excess, 1
            total += shape * (mpmath.log(ratio) if ratio < 0.5 else mpmath.log1p(excess))
        return total


KINDS = ["gaussian_iso", "poisson_product", "bernoulli_product", "exponential_product",
         "gamma_product"]
FAMILY_PARAM = {"poisson_product": "lambda", "bernoulli_product": "theta",
                "exponential_product": "beta"}


@st.composite
def family_triples(draw, regime):
    """(kind, alpha, three members) in one of three regimes.  "local": members 1 and 2 within a
    relative step h in [1e-8, 1e-3] of member 0, and alpha 1 (chi2), 1/2 (hellinger) or in
    [1e-2, 10]; "small-alpha": steps h up to 1e-1 and alpha in [1e-12, 1e-2]; "float-range":
    every positive parameter log-uniform over the float range (a Bernoulli theta or 1 - theta
    over (0, 1)), and alpha 1, 1/2 or in [1e-12, 100].  Gamma members share their shapes."""
    kind, d = draw(st.sampled_from(KINDS)), draw(st.integers(1, 3))
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(lo, hi))  # noqa: E731
    if regime == "float-range":
        alpha = draw(st.sampled_from([1.0, 0.5, log_uniform(-12.0, 2.0)]))

        def member(_):
            positive = [max(log_uniform(-323.5, 308.2), 5e-324) for _ in range(d)]
            signs = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(d)]
            halves = [min(x, 0.5) for x in positive]  # theta, or 1 - theta at least 2**-53
            return {"gaussian_iso": [s * x for s, x in zip(signs, positive)],
                    "bernoulli_product": [x if s > 0 else 1.0 - max(x, 2.0 ** -53)
                                          for s, x in zip(signs, halves)]}.get(kind, positive)
    else:
        h_hi, alpha = ((-3.0, draw(st.sampled_from([1.0, 0.5, log_uniform(-2.0, 1.0)])))
                       if regime == "local" else (-1.0, log_uniform(-12.0, -2.0)))
        lo, hi = {"gaussian_iso": (-10.0, 10.0), "bernoulli_product": (0.05, 0.95)}.get(
            kind, (0.01, 100.0))
        reference = [draw(st.floats(lo, hi)) for _ in range(d)]

        def member(j):
            return reference if j == 0 else [
                x * (1.0 + log_uniform(-8.0, h_hi) * draw(st.floats(-1.0, 1.0)))
                for x in reference]
    scale = log_uniform(-323.0, 308.0) if regime == "float-range" else draw(st.floats(0.1, 10.0))
    shapes = [draw(st.floats(0.1, 10.0)) for _ in range(d)]
    members = [member(j) for j in range(3)]
    if kind == "gaussian_iso":
        return kind, alpha, [GaussianIso(m, scale) for m in members]
    if kind == "gamma_product":
        return kind, alpha, [GammaProd(shapes, m) for m in members]
    return kind, alpha, [ParamFamily(kind, {FAMILY_PARAM[kind]: m}) for m in members]


def _relative_error(got, exact):
    """|got - exact| / |exact|, the denominator at least the smallest normal float."""
    return float(abs(got - exact) / max(abs(exact), 2.0 ** -1022))


class TestGenericSpecialization:
    """The closed forms against the second difference of each family's log-partition in
    200-digit mpmath: within 1e-12 relative in R_alpha in the local and small-alpha regimes,
    and over the whole float range a value, the documented inf or OverflowError, never NaN,
    another exception, a wrong inf or a wrong -1."""

    @pytest.mark.parametrize("regime", ["local", "small-alpha"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_all_families_match_their_natural_parameterization(self, regime, data):
        kind, alpha, triple = data.draw(family_triples(regime))
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(200):
            exact = mpmath.expm1(_delta2_log_partition(kind, _coordinates(*triple, alpha), alpha))
            assert _relative_error(r_alpha_closed(*triple, alpha), exact) <= 1e-12

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_the_float_range_gives_no_wrong_value(self, data):
        """The error of log(R_alpha + 1) is taken relative to the sum of its coordinates'
        magnitudes, which no sum over the coordinates in floats can beat."""
        kind, alpha, triple = data.draw(family_triples("float-range"))
        mpmath = pytest.importorskip("mpmath")
        terms = [_delta2_log_partition(kind, [row], alpha) for row in _coordinates(*triple, alpha)]
        try:
            got = r_alpha_closed(*triple, alpha)
        except OverflowError:  # R_alpha beyond the float range, or log(R_alpha + 1) itself
            assert None not in terms
            assert sum(terms) > math.log(sys.float_info.max) or abs(sum(terms)) > sys.float_info.max
            return
        if None in terms:
            assert got == math.inf
            return
        with mpmath.workdps(200):
            assert -1.0 <= got < math.inf
            if got == -1.0:  # R_alpha + 1 below 2**-53
                assert sum(terms) < -53 * math.log(2.0)
                return
            scale = max(sum(abs(t) for t in terms), 2.0 ** -1022)
            assert abs(r_alpha_closed_log1p(*triple, alpha) - sum(terms)) < 1e-6 * scale

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bernoulli_matches_the_discrete_route(self, data):
        """The Bernoulli closed form against R_phi of the product measures on {0, 1}^d, which
        uses no family code."""
        alpha = data.draw(st.sampled_from([1.0, 0.5, 10.0 ** data.draw(st.floats(-2.0, 1.0))]))
        d = data.draw(st.integers(1, 3))
        thetas = [[data.draw(st.floats(0.05, 0.95)) for _ in range(d)] for _ in range(3)]
        masses = [[math.prod(t if bit else 1.0 - t for t, bit in zip(theta, bits))
                   for bits in itertools.product((0, 1), repeat=d)] for theta in thetas]
        measures = [DiscreteMeasure(np.array(m) / math.fsum(m)) for m in masses]
        discrete = r_phi(*measures, phi_alpha(alpha))
        closed = r_alpha_closed(*(BernoulliProd(t) for t in thetas), alpha)
        assert closed == pytest.approx(discrete, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("rates", [(1e300, 1e-300, 1.0), (1e308, 1e-308, 1.0)])
    def test_far_apart_rates_stay_in_the_natural_domain(self, rates):
        triple = [ExponentialProd([b]) for b in rates]
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(200):
            exact = mpmath.expm1(_delta2_log_partition("exponential_product",
                                                       _coordinates(*triple, 0.5), 0.5))
        assert r_alpha_closed(*triple, 0.5) == pytest.approx(float(exact), rel=1e-12)


class TestGammaFirstOrder:
    def test_zero_shift_is_zero(self):
        f = GammaProd([1.5, 2.0], [1.0, 2.0])
        assert gamma_first_order(f, f, f, 0.7) == 0.0

    def test_orthogonal_coordinate_shifts(self):
        f0 = GammaProd([1.0, 2.0], [1.0, 1.0])
        f1 = GammaProd([1.0, 2.0], [1.1, 1.0])
        f2 = GammaProd([1.0, 2.0], [1.0, 1.1])
        assert gamma_first_order(f0, f1, f2, 0.5) == 0.0

    def test_antisymmetric_shift_accuracy(self):
        for eps in (1e-2, 1e-3):
            f0 = GammaProd([1.0], [1.0])
            f1 = GammaProd([1.0], [1.0 + eps])
            f2 = GammaProd([1.0], [1.0 - eps])
            approx = gamma_first_order(f0, f1, f2, 1.0)
            assert approx == pytest.approx(math.expm1(-eps * eps), rel=1e-12)
            exact = r_alpha_closed(f0, f1, f2, 1.0)
            # discrepancy is o(eps^2): the ratio shrinks quadratically here
            assert abs(exact - approx) / eps ** 2 <= eps ** 2 * 10.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gamma_first_order(GammaProd([1.0], [1.0]), GammaProd([2.0], [1.0]),
                              GammaProd([1.0], [1.0]), 0.5)

    def test_non_gamma_family_rejected(self):
        f = PoissonProd([1.0])
        with pytest.raises(KindMismatchError, match="requires Gamma families"):
            gamma_first_order(f, f, f, 0.5)


def _poisson_log1p_mp(mp, l0, l1, l2, a):
    return l0 ** (1 - 2 * a) * (l1 ** a - l0 ** a) * (l2 ** a - l0 ** a)


def _bernoulli_log1p_mp(mp, t0, t1, t2, a):
    def power_sum(c0, c1, c2):
        return (t0 ** c0 * t1 ** c1 * t2 ** c2
                + (1 - t0) ** c0 * (1 - t1) ** c1 * (1 - t2) ** c2)

    return (mp.log(power_sum(1 - 2 * a, a, a)) - mp.log(power_sum(1 - a, a, 0))
            - mp.log(power_sum(1 - a, 0, a)))


@pytest.mark.parametrize("cls, exact, params, alpha", [
    # lambda_0^(1 - 2 alpha) underflows to 0
    (PoissonProd, _poisson_log1p_mp, (278.94, 114.94, 85.83), 70.88),
    (PoissonProd, _poisson_log1p_mp, (249486.9, 47087.9, 255804.95), 44.5),
    # lambda_0^(1 - 2 alpha) overflows
    (PoissonProd, _poisson_log1p_mp, (1.29e-8, 2.35e-9, 1.70e-8), 30.8),
    # theta_0^(1 - 2 alpha) overflows
    (BernoulliProd, _bernoulli_log1p_mp, (0.01, 0.02, 0.02), 100.0),
    (BernoulliProd, _bernoulli_log1p_mp, (1e-300, 0.5, 0.5), 2.0),
])
def test_powers_beyond_the_float_range_keep_log1p(cls, exact, params, alpha):
    """Where a power leaves the normal range, the form relative to member 0 still gives
    log(R_alpha + 1), checked against a 50-digit evaluation of the same closed form."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(exact(mpmath, *(mpmath.mpf(x) for x in (*params, alpha))))
    got = r_alpha_closed_log1p(*(cls([x]) for x in params), alpha)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("shapes, rates, alpha", [
    ((1.0, 1.0, 1.0), (1e300, 1e-300, 1.0), 0.5),  # 1 + x12 rounds to 0
    ((1.0, 1.0, 1.0), (1e308, 1e-308, 1.0), 0.5),  # b1 + b2 - 2 b0 overflows
    ((1.0, 1.0, 1.0), (1e-300, 1e300, 1e300), 0.25),  # x1 overflows; R beyond the range
    ((1.0, 1.0, 1.0), (1.0, 1e308, 1e308), 2.0),  # b1 + b2 overflows
    ((1.0, 1.0, 1.0), (1.0, 3.0, 3.0), 1e308),  # x1 and 1 - 2 alpha overflow
    ((2.0, 3.0, 2.5), (1e300, 1e-300, 1.0), 0.5),
])
def test_far_apart_rates_keep_log1p(shapes, rates, alpha):
    """Where a relative rate shift is not finite or 1 + x is not normal, the Gamma log(R + 1)
    still matches a 50-digit evaluation of a01 log b01 + a02 log b02 - a0 log b0
    - abar log bbar plus its log-Gamma part."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        (a0, a1, a2), (b0, b1, b2) = ([mp.mpf(x) for x in v] for v in (shapes, rates))
        a = mp.mpf(alpha)
        a01, a02, abar = a0 + a * (a1 - a0), a0 + a * (a2 - a0), a0 + a * (a1 + a2 - 2 * a0)
        b01, b02 = (1 - a) * b0 + a * b1, (1 - a) * b0 + a * b2
        bbar = (1 - 2 * a) * b0 + a * (b1 + b2)
        want = float(mp.loggamma(a0) + mp.loggamma(abar) - mp.loggamma(a01) - mp.loggamma(a02)
                     + a01 * mp.log(b01) + a02 * mp.log(b02) - a0 * mp.log(b0)
                     - abar * mp.log(bbar))
    got = r_alpha_closed_log1p(*(GammaProd([a], [b]) for a, b in zip(shapes, rates)), alpha)
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("rates", [([1.5], [1.5], [3.0]), ([1.5], [3.0], [1.5]),
                                   ([1.5, 2.0], [1.5, 2.5], [3.0, 2.0])])
def test_poisson_term_is_zero_where_a_member_equals_the_reference(rates):
    """A coordinate with lambda_j = lambda_0 adds exactly 0, even where the other factor
    (lambda_k/lambda_0)^alpha is beyond the float range (0 * inf would be NaN)."""
    assert r_alpha_closed_log1p(*(PoissonProd(r) for r in rates), 1e200) == 0.0


@pytest.mark.parametrize("triple, alpha, log1p_value", [
    ([PoissonProd([x]) for x in (1.0, 100.0, 100.0)], 1.0, "9801.0"),
    ([GaussianIso([m], 0.1) for m in (0.0, 1.0, 1.0)], 5.0, "2499.9999999999995"),
])
def test_overflow_names_the_log_value(triple, alpha, log1p_value):
    with pytest.raises(OverflowError, match=log1p_value):
        r_alpha_closed(*triple, alpha)


def test_lgamma_overflow_is_named():
    """lgamma of a shape near 1e308 overflows; before, the message was "math range error".
    Where member 1 equals member 0, as for (0.25, 0.25, 1e308), no lgamma is taken: R is 0."""
    with pytest.raises(OverflowError, match="^the Gamma closed form's lgamma of a shape among"):
        r_alpha_closed(*(GammaProd([a], [a]) for a in (0.25, 1e308, 1.0)), 1.0)
    assert r_alpha_closed(*(GammaProd([a], [a]) for a in (0.25, 0.25, 1e308)), 1.0) == 0.0


@pytest.mark.parametrize("triple, alpha", [
    ([PoissonProd([x]) for x in (1.0, 1e300, 0.5)], 1.1),  # log(R_alpha + 1) ~ -5e329
    ([GaussianIso([m], 1.0) for m in (0.0, 1e200, -1e200)], 1.0),
    # products of shifts over sigma overflow with both signs: NaN in floats, -1.62e311 exactly
    ([GaussianIso(m, 1e-155) for m in ([-1.0, -1.0], [1.0, 1.0], [-10.0, -0.1])], 1.0),
])
def test_log1p_below_the_float_range_gives_minus_one(triple, alpha):
    assert r_alpha_closed_log1p(*triple, alpha) == -math.inf
    assert r_alpha_closed(*triple, alpha) == -1.0


@pytest.mark.parametrize("sigma", [1e-170, 1e-160, 1e170])
def test_gaussian_sigma_squared_neither_underflows_nor_overflows(sigma):
    """Shifts of one sigma give e^(alpha^2) - 1 however small or large sigma is; shifts of
    one unit with a tiny sigma put log(R_alpha + 1) itself beyond the float range."""
    f0, f1, f2 = (GaussianIso([m * sigma], sigma) for m in (0.0, 1.0, 1.0))
    assert r_alpha_closed(f0, f1, f2, 1.0) == pytest.approx(math.e - 1.0, rel=1e-15)
    if sigma < 1:
        with pytest.raises(OverflowError, match="so does log"):
            r_alpha_closed(*(GaussianIso([m], sigma) for m in (0.0, 1.0, 1.0)), 1.0)
    # orthogonal shifts give 0 even when alpha^2, or a shift over sigma, is beyond the float range
    for means in (np.array([[0, 0], [1, 0], [0, 1]]) * sigma,
                  [[0.0, 0.0], [1e300, 1e300], [1e-300, -1e-300]]):
        assert r_alpha_closed(*(GaussianIso(m, sigma) for m in means), 1e200) == 0.0


@pytest.mark.parametrize("shift, alpha, want", [(1e-300, 1e200, 1e-200), (1e300, 1e-200, 1e200)])
def test_gaussian_alpha_squared_is_not_formed(shift, alpha, want):
    """alpha^2 beyond the float range, and the shifts' inner product beyond it the other way:
    their product is in range, so alpha^2 must not be formed on its own."""
    triple = [GaussianIso([m], 1.0) for m in (0.0, shift, shift)]
    assert r_alpha_closed_log1p(*triple, alpha) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_kind_and_dimension_mismatch():
    with pytest.raises(KindMismatchError):
        r_alpha_closed(PoissonProd([1.0]), ExponentialProd([1.0]), PoissonProd([1.0]), 1.0)
    with pytest.raises(DimensionMismatchError):
        r_alpha_closed(PoissonProd([1.0]), PoissonProd([1.0, 2.0]), PoissonProd([1.0]), 1.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
@pytest.mark.parametrize("route", [r_alpha_closed_log1p, r_alpha_closed, oracle_r_alpha,
                                   gamma_first_order],
                         ids=lambda f: f.__name__)
def test_alpha_must_be_positive(route, alpha):
    f = GammaProd([1.5], [2.0])
    with pytest.raises(PreconditionError, match="^alpha must be positive$"):
        route(f, f, f, alpha)


@pytest.mark.parametrize("route", [phi_alpha, r_alpha_closed_log1p, r_alpha_closed,
                                   oracle_r_alpha, gamma_first_order],
                         ids=lambda f: f.__name__)
def test_alpha_must_be_finite(route):
    """An infinite power is no link; without the rule the routes gave nan, inf or an
    oracle failure."""
    triple = () if route is phi_alpha else [GammaProd([1.5], [rate]) for rate in (1.0, 2.0, 3.0)]
    with pytest.raises(PreconditionError, match="^alpha must be finite$"):
        route(*triple, math.inf)


def test_family_json_round_trip():
    """Each constructor builds the family that its JSON document describes: the same kind
    and the same parameter bits, held read-only: a vector as a tuple of floats."""
    docs = {GaussianIso: {"kind": "gaussian_iso", "params": {"mean": [0.0, 1.0], "sigma": 2.0}},
            PoissonProd: {"kind": "poisson_product", "params": {"lambda": [1.5]}},
            BernoulliProd: {"kind": "bernoulli_product", "params": {"theta": [0.25]}},
            ExponentialProd: {"kind": "exponential_product", "params": {"beta": [2.0]}},
            GammaProd: {"kind": "gamma_product", "params": {"shape": [1.5], "rate": [2.5]}}}
    for make, doc in docs.items():
        f, built = family_from_json_dict(doc), make(*doc["params"].values())
        assert type(f) is type(built) is ParamFamily and f.kind == built.kind == doc["kind"]
        assert list(f.params) == list(built.params) == list(doc["params"])
        for name, value in doc["params"].items():
            assert np.asarray(f.params[name]).tobytes() == np.asarray(built.params[name]).tobytes()
            np.testing.assert_array_equal(f.params[name], value)
            assert type(f.params[name]) is (tuple if isinstance(value, list) else float)
        with pytest.raises(TypeError):
            f.params["extra"] = 1.0
    with pytest.raises(PreconditionError):
        family_from_json_dict({"kind": "cauchy", "params": {}})
    with pytest.raises(PreconditionError, match="^unknown family kind 'cauchy'$"):
        ParamFamily("cauchy", {})
    with pytest.raises(PreconditionError, match="^params object is required$"):
        ParamFamily("poisson_product", [1.5])


# The repr of one member of each family, as the frozen dataclass ParamFamily printed it.
FAMILY_REPRS = [
    (lambda: GaussianIso([0.0, 1.0], 2.0),
     "ParamFamily(kind='gaussian_iso', params=mappingproxy({'mean': (0.0, 1.0), 'sigma': 2.0}))"),
    (lambda: PoissonProd([1.5]),
     "ParamFamily(kind='poisson_product', params=mappingproxy({'lambda': (1.5,)}))"),
    (lambda: BernoulliProd([0.25, 0.5]),
     "ParamFamily(kind='bernoulli_product', params=mappingproxy({'theta': (0.25, 0.5)}))"),
    (lambda: ExponentialProd([2.0]),
     "ParamFamily(kind='exponential_product', params=mappingproxy({'beta': (2.0,)}))"),
    (lambda: GammaProd([1.5], [2]),
     "ParamFamily(kind='gamma_product', params=mappingproxy({'shape': (1.5,), 'rate': (2.0,)}))"),
]


@pytest.mark.parametrize("make, text", FAMILY_REPRS, ids=[t.split("'")[1] for _, t in FAMILY_REPRS])
def test_family_repr_is_unchanged(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", [make for make, _ in FAMILY_REPRS])
def test_family_fields_are_read_only(make):
    f = make()
    for name in ("kind", "params", "dim", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(f, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(f, name)
    assert repr(f) == repr(make())


def test_from_checked_builds_a_family_without_a_second_check():
    """``validate`` hands the checked parameters on: the family is built without checking
    them again, so even values the checker would refuse are taken as they are."""
    params = MappingProxyType({"lambda": (-1.0,)})
    f = _from_checked(ParamFamily, kind="poisson_product", params=params)
    assert type(f) is ParamFamily and f.kind == "poisson_product" and f.params is params
    assert f.dim == 1
    with pytest.raises(AttributeError):
        f.kind = "gaussian_iso"
    with pytest.raises(PreconditionError, match="must be strictly positive"):
        ParamFamily("poisson_product", params)
