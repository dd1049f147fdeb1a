"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Output capture is disabled in pyproject (-s), so the lines appear inline in
any pytest run.
"""

import itertools
import math
import time

import numpy as np

from codiv import (PHI_IDENTITY, BernoulliProd, DiscreteMeasure, ExponentialProd,
                   GammaProd, GaussianIso, MarkovKernel,
                   PerturbationPair, PoissonProd, SignedMeasure, chi2_codiv,
                   divergence_matrix, dpi_check, eigen_summary, expansion_check,
                   fisher_inner, gamma_first_order, hellinger_codiv,
                   hellinger_off_support_check,
                   jacobi_eigenvalues, link_identity_check, oracle_divergence_matrix,
                   oracle_r_alpha, phi_alpha, phi_normalizers, quadratic_form_check,
                   r_alpha_closed, r_alpha_closed_log1p, rank_with_identity,
                   validity_radius, chi2_signed_decomposition_check)
from helpers import (perturbs_to_probability, random_direction, random_dominated,
                     random_kernel, random_probability)

ALPHAS = (0.25, 0.5, 1.0)


def _criterion(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}{tail}"
    print(line)
    assert ok, line


def _agree(closed, numeric, rel):
    if math.isinf(closed) or math.isinf(numeric):
        return closed == numeric
    return abs(closed - numeric) <= rel * max(1.0, abs(closed), abs(numeric))


def _family_grid(rng):
    """>= 50 parameter triples per family kind."""
    grid = {"gaussian": [], "poisson": [], "bernoulli": [], "exponential": [], "gamma": []}
    for i in range(51):
        d = 1 + i % 3
        sigma = rng.uniform(0.5, 2.0)
        grid["gaussian"].append(tuple(GaussianIso(rng.uniform(-2, 2, d), sigma)
                                      for _ in range(3)))
        dp = 1 + i % 2
        grid["poisson"].append(tuple(PoissonProd(rng.uniform(0.3, 6.0, dp))
                                     for _ in range(3)))
        grid["bernoulli"].append(tuple(BernoulliProd(rng.uniform(0.05, 0.95, dp))
                                       for _ in range(3)))
        grid["exponential"].append(tuple(ExponentialProd(rng.uniform(0.3, 5.0, dp))
                                         for _ in range(3)))
        dg = 1 + i % 2
        grid["gamma"].append(tuple(GammaProd(rng.uniform(0.3, 4.0, dg),
                                             rng.uniform(0.3, 5.0, dg)) for _ in range(3)))
    return grid


def test_criterion_01_closed_forms_match_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    ok = True
    for kind, triples in _family_grid(rng).items():
        for f0, f1, f2 in triples:
            for alpha in ALPHAS:
                closed = r_alpha_closed(f0, f1, f2, alpha)
                numeric = oracle_r_alpha(f0, f1, f2, alpha)
                checks += 1
                if math.isinf(closed) or math.isinf(numeric):
                    ok = ok and closed == numeric
                else:
                    err = abs(closed - numeric) / max(1.0, abs(closed), abs(numeric))
                    worst = max(worst, err)
                    ok = ok and err <= 1e-7

    # paper values embodied: orthogonal Gaussian mean shifts vanish
    f0 = GaussianIso([0.0, 0.0], 1.0)
    f1 = GaussianIso([1.0, 0.0], 1.0)
    f2 = GaussianIso([0.0, 1.0], 1.0)
    for alpha in ALPHAS:
        ok = ok and r_alpha_closed(f0, f1, f2, alpha) == 0.0
        ok = ok and abs(oracle_r_alpha(f0, f1, f2, alpha)) <= 1e-7
    # and a Gamma domain violation is infinite on both routes
    g0, g1 = GammaProd([1.0], [5.0]), GammaProd([1.0], [1.0])
    ok = ok and r_alpha_closed(g0, g1, g1, 1.0) == math.inf
    ok = ok and oracle_r_alpha(g0, g1, g1, 1.0) == math.inf

    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60.0
    _criterion(1, "closed forms vs oracle <= 1e-7 relative",
               ok, f"{checks} checks, worst {worst:.2e}, {elapsed:.1f}s")


def _oracle_dpi(q0, qs, kernel):
    """The chi2 matrices before and after the kernel, pair by pair with fsum, and the
    smallest Jacobi eigenvalue of their difference."""
    def push(q):
        return DiscreteMeasure([math.fsum(q.mass * column) for column in kernel.matrix.T])

    before = oracle_divergence_matrix(q0, qs, "chi2")
    after = oracle_divergence_matrix(push(q0), [push(q) for q in qs], "chi2")
    return before, after, float(jacobi_eigenvalues(before.entries - after.entries)[0])


def test_criterion_02_data_processing_inequality():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    ok = True
    worst = math.inf
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        q0 = random_probability(rng, n)
        qs = [random_dominated(rng, q0) for _ in range(m)]
        kernel = MarkovKernel(random_kernel(rng, n, int(rng.integers(2, 9))))
        report = dpi_check(q0, qs, kernel)
        worst = min(worst, report.min_eig_of_difference / report.scale)
        ok = ok and report.min_eig_of_difference >= -1e-9 * report.scale
        # the same floor on the oracle route, which the fast route must match
        before, after, min_eig = _oracle_dpi(q0, qs, kernel)
        ok = ok and min_eig >= -1e-9 * report.scale
        ok = ok and abs(report.min_eig_of_difference - min_eig) <= 1e-9 * report.scale
        ok = ok and bool(np.all(np.abs(report.before.entries - before.entries) <= 1e-12))
        ok = ok and bool(np.all(np.abs(report.after.entries - after.entries) <= 1e-12))
    for _ in range(50):
        n = int(rng.integers(2, 9))
        q0 = random_probability(rng, n)
        qs = [random_dominated(rng, q0) for _ in range(int(rng.integers(1, 5)))]
        report = dpi_check(q0, qs, MarkovKernel.identity(n))
        ok = ok and bool(np.all(np.abs(report.before.entries - report.after.entries) <= 1e-12))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 10.0
    _criterion(2, "chi2 matrix data-processing inequality",
               ok, f"500+50 instances, worst scaled eig {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_psd_floor():
    rng = np.random.default_rng(103)
    ok = True
    worst = math.inf
    for i in range(500):
        kind = ("chi2", "hellinger", "vphi", "rphi")[i % 4]
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        p0 = random_probability(rng, n, zeros=int(rng.integers(0, 2)))
        if kind == "hellinger" and i % 8 == 1:
            # Hellinger stays finite and PSD without domination
            ps = [random_probability(rng, n) for _ in range(m)]
        else:
            ps = [random_dominated(rng, p0, zeros=int(rng.integers(0, 2))) for _ in range(m)]
        phi = phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0])) if kind in ("vphi", "rphi") else None
        mat = divergence_matrix(p0, ps, kind, phi=phi)
        summary = eigen_summary(mat)
        floor = -1e-9 * max(1.0, summary.max_eigenvalue)
        worst = min(worst, summary.min_eigenvalue - floor)
        ok = ok and summary.min_eigenvalue >= floor
        # H H' is PSD by construction: the floor must also hold on the pairwise route,
        # with Jacobi eigenvalues, and the two routes must agree within it
        oracle = oracle_divergence_matrix(p0, ps, kind, phi=phi).entries
        ok = ok and float(jacobi_eigenvalues(oracle)[0]) >= floor
        ok = ok and bool(np.all(np.abs(mat.entries - oracle) <= -floor))
    _criterion(3, "divergence matrices are PSD up to the floor",
               ok, f"500 matrices, worst margin {worst:.2e}")


def _sqrt_mixture_reference(rng, ps):
    w = rng.random(len(ps)) + 0.2
    root = np.sum(w[:, None] * np.sqrt(np.stack([p.mass for p in ps])), axis=0)
    mass = root ** 2
    return DiscreteMeasure(mass / math.fsum(mass))


def test_criterion_04_rank_identities():
    rng = np.random.default_rng(104)
    ok = True
    for kind in ("chi2", "vphi", "rphi", "hellinger"):
        for i in range(150):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(1, min(n - 1, 5) + 1))
            p0 = random_probability(rng, n)
            ps = [random_dominated(rng, p0) for _ in range(m)]
            phi = (phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0]))
                   if kind in ("vphi", "rphi") else None)
            rep = rank_with_identity(p0, ps, kind, phi=phi)
            ok = ok and rep.matrix_rank == rep.function_rank
        for i in range(50):
            m = int(rng.integers(2, 6))
            n = m + 2 + int(rng.integers(0, 3))
            ps = [random_probability(rng, n) for _ in range(m)]
            if kind == "hellinger":
                p0 = _sqrt_mixture_reference(rng, ps)
                rep = rank_with_identity(p0, ps, kind)
            else:
                w = rng.random(m) + 0.2
                w /= math.fsum(w)
                p0 = DiscreteMeasure(np.sum(w[:, None] * np.stack([p.mass for p in ps]), axis=0))
                rep = rank_with_identity(p0, ps, kind, phi=PHI_IDENTITY)
            ok = ok and rep.matrix_rank == rep.function_rank
            ok = ok and rep.matrix_rank < m

    # principal-submatrix characterization, exhaustively for M <= 5
    for m in range(2, 6):
        for deficient in (False, True):
            for _ in range(5):
                n = m + 3
                ps = [random_probability(rng, n) for _ in range(m)]
                p0 = (_sqrt_mixture_reference(rng, ps) if deficient
                      else random_probability(rng, n))
                mat = divergence_matrix(p0, ps, "hellinger")
                eigs = jacobi_eigenvalues(mat.entries)
                tol = 1e-9 * max(1.0, float(np.max(np.abs(eigs))))
                r = int(np.sum(np.abs(eigs) > tol))
                ok = ok and (not deficient or r < m)

                def invertible(idx):
                    sub = mat.entries[np.ix_(idx, idx)]
                    svals = np.linalg.svd(sub, compute_uv=False)
                    return svals[-1] > 1e-9 * max(1.0, svals[0])

                if r > 0:
                    ok = ok and any(invertible(list(idx))
                                    for idx in itertools.combinations(range(m), r))
                if r < m:
                    ok = ok and not any(invertible(list(idx))
                                        for idx in itertools.combinations(range(m), r + 1))
    _criterion(4, "matrix rank equals function rank (plus principal submatrices)", ok)


def test_criterion_05_hellinger_below_chi2():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p0 = random_probability(rng, n, zeros=int(rng.integers(0, 2)))
        p1 = random_dominated(rng, p0, zeros=int(rng.integers(0, 2)))
        ok = ok and hellinger_codiv(p0, p1, p1) <= chi2_codiv(p0, p1, p1) + 1e-10
    _criterion(5, "hellinger codivergence <= chi2 on the diagonal", ok, "1000 pairs")


def test_criterion_06_link_and_covariance_representation():
    rng = np.random.default_rng(106)
    ok = True
    worst_link = 0.0
    worst_cov = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        p0 = random_probability(rng, n)
        ps = [random_dominated(rng, p0) for _ in range(m)]
        phi = phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0]))
        vmat = divergence_matrix(p0, ps, "vphi", phi=phi)
        denoms = phi_normalizers(p0, ps, phi)
        conjugated = link_identity_check(vmat, denoms)
        direct = divergence_matrix(p0, ps, "rphi", phi=phi)
        oracle_direct = oracle_divergence_matrix(p0, ps, "rphi", phi=phi)
        link_err = max(float(np.max(np.abs(conjugated.entries - direct.entries))),
                       float(np.max(np.abs(conjugated.entries - oracle_direct.entries))))
        worst_link = max(worst_link, link_err)
        ok = ok and link_err <= 1e-12

        # covariance representation recomputed as an explicitly centered covariance
        pos = p0.mass > 0
        w = p0.mass[pos]
        rows = np.stack([phi.apply(p.mass[pos] / w) for p in ps])
        means = rows @ w
        centered = rows - means[:, None]
        cov = (centered * w) @ centered.T
        oracle_vmat = oracle_divergence_matrix(p0, ps, "vphi", phi=phi)
        cov_err = max(float(np.max(np.abs(vmat.entries - cov))),
                      float(np.max(np.abs(oracle_vmat.entries - cov))))
        worst_cov = max(worst_cov, cov_err)
        ok = ok and cov_err <= 1e-12
    _criterion(6, "link identity R = D V D and covariance representation",
               ok, f"worst link {worst_link:.2e}, worst cov {worst_cov:.2e}")


def test_criterion_07_signed_measure_identities():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = random_probability(rng, n, zeros=int(rng.integers(0, 2)))
        mu = SignedMeasure(rng.uniform(-1, 1, n) * (p.mass > 0))
        lhs, rhs = chi2_signed_decomposition_check(mu, p)
        ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    for kind in ("chi2", "hellinger"):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            p0 = random_probability(rng, n)
            ps = [random_dominated(rng, p0) for _ in range(m)]
            v = rng.uniform(-2, 2, m)
            lhs, rhs = quadratic_form_check(p0, ps, v, kind=kind)
            ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
            # lhs and the hellinger rhs both come from the feature rows; so check the
            # pairwise route too
            oracle = float(v @ oracle_divergence_matrix(p0, ps, kind).entries @ v)
            ok = ok and abs(oracle - rhs) <= 1e-10 * max(1.0, abs(oracle), abs(rhs))
    _criterion(7, "signed chi2 decomposition and quadratic-form identities", ok, "200 each")


def _conditioned_pair(rng, n=5):
    """Random perturbation pair whose angle is bounded away from orthogonality
    (a relative comparison of the leading coefficient needs a non-degenerate
    inner product)."""
    while True:
        p0 = random_probability(rng, n)
        mu = random_direction(rng, p0)
        nu = random_direction(rng, p0)
        inner = fisher_inner(PerturbationPair(p0, mu, nu))
        scale = math.sqrt(fisher_inner(PerturbationPair(p0, mu, mu))
                          * fisher_inner(PerturbationPair(p0, nu, nu)))
        if scale > 0 and abs(inner) >= 0.5 * scale:
            return p0, mu, nu, inner


def _off_support_instance(rng):
    """Zero-mass directions carrying mass on two points outside supp(p0)."""
    while True:
        inside = rng.random(3) + 0.2
        p0 = DiscreteMeasure(np.concatenate([inside / math.fsum(inside), [0.0, 0.0]]))
        mus = []
        for _ in range(2):
            outside = rng.uniform(0.05, 0.2, 2)
            inside_neg = rng.random(3) + 0.1
            inside_neg *= -math.fsum(outside) / math.fsum(inside_neg)
            mus.append(SignedMeasure(np.concatenate([inside_neg, outside])))
        supp = p0.mass > 0
        inner = math.fsum(mus[0].mass[supp] * mus[1].mass[supp] / p0.mass[supp])
        m1 = math.fsum(mus[0].mass[supp])
        m2 = math.fsum(mus[1].mass[supp])
        if abs((inner - m1 * m2) / 4.0) >= 1e-3:
            return p0, mus[0], mus[1]


def test_criterion_08_local_expansions():
    rng = np.random.default_rng(108)
    ok = True
    worst_coeff = 0.0
    for _ in range(50):
        p0, mu, nu, inner = _conditioned_pair(rng)
        for alpha in (1.0, 0.5, 0.25):
            report = expansion_check(p0, mu, nu, phi_alpha(alpha))
            ok = ok and report.decay_ok()
            if alpha == 1.0:
                ok = ok and all(lv.v_residual <= 1e-14 and lv.r_residual <= 1e-14
                                for lv in report.levels)
            if alpha == 0.5:
                rel = abs(report.leading_coeff_r - inner / 4.0) / abs(inner / 4.0)
                worst_coeff = max(worst_coeff, rel)
                ok = ok and rel <= 0.01
    worst_fit = 0.0
    for _ in range(10):
        p0, mu1, mu2 = _off_support_instance(rng)
        report = hellinger_off_support_check(p0, mu1, mu2)
        worst_fit = max(worst_fit, report.sqrt_rel_error, report.bilinear_rel_error)
        ok = ok and report.sqrt_rel_error <= 0.05 and report.bilinear_rel_error <= 0.05
    _criterion(8, "bilinear expansion decay, hellinger coefficient, off-support fit",
               ok, f"worst coeff {worst_coeff:.2%}, worst off-support fit {worst_fit:.2%}")


def test_criterion_09_validity_radius_boundary():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p0 = random_probability(rng, n)
        mu = random_direction(rng, p0)
        a_star = validity_radius(mu, p0)
        ok = ok and math.isfinite(a_star)
        ok = ok and perturbs_to_probability(p0, mu, a_star)
        ok = ok and perturbs_to_probability(p0, mu, -a_star)
        beyond = 1.01 * a_star
        ok = ok and (not perturbs_to_probability(p0, mu, beyond)
                     or not perturbs_to_probability(p0, mu, -beyond))
    _criterion(9, "reciprocal ess-sup is the exact validity radius", ok, "100 directions")


def test_criterion_10_gamma_first_order_decay():
    rng = np.random.default_rng(110)
    ok = True
    worst_factor = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        shapes = rng.uniform(0.5, 3.0, d)
        b0 = rng.uniform(0.5, 4.0, d)
        direction = rng.choice([-1.0, 1.0], d) * rng.uniform(0.7, 1.0, d)
        alpha = rng.choice([0.7, 1.0])
        total_shape = math.fsum(shapes)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            f0 = GammaProd(shapes, b0)
            f1 = GammaProd(shapes, b0 * (1.0 + delta * direction))
            f2 = GammaProd(shapes, b0 * (1.0 - delta * direction))
            log_exact = r_alpha_closed_log1p(f0, f1, f2, alpha)
            log_approx = math.log1p(gamma_first_order(f0, f1, f2, alpha))
            ratios.append(abs(log_exact - log_approx) / (delta * delta * total_shape))
        for a, b in zip(ratios, ratios[1:]):
            ok = ok and b < a
            factor = b / a if a > 0 else 0.0
            worst_factor = max(worst_factor, factor)
            ok = ok and factor <= 1.0 / 50.0
    _criterion(10, "gamma first-order discrepancy vanishes at >= 50x per decade",
               ok, f"worst decade factor {worst_factor:.2e}")
