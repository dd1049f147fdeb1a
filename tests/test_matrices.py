import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from codiv import (PHI_IDENTITY, PHI_SQRT, DegeneratePhiError, DiagnosticStatus,
                   DimensionMismatchError, DiscreteMeasure, DominationError, MarkovKernel,
                   OracleFailureError, PhiFunction, PreconditionError, SignedMeasure,
                   chi2_signed, chi2_signed_decomposition_check,
                   divergence_matrix, dpi_check, eigen_summary, features, jacobi_eigenvalues,
                   jordan_decompose, link_identity_check, oracle_divergence_matrix,
                   phi_alpha, phi_normalizers, push_forward, quadratic_form_check,
                   rank_with_identity)
from codiv.errors import numbers
from codiv.matrices import MATRIX_KINDS, DivMatrix, kernel_problems
from codiv.serialize import FLOAT_CHUNK, dumps_canonical
from helpers import random_dominated, random_kernel, random_probability

P0 = DiscreteMeasure([0.5, 0.5])
P1 = DiscreteMeasure([0.25, 0.75])
P2 = DiscreteMeasure([0.75, 0.25])
EPS = np.finfo(float).eps


class TestJacobi:
    def test_matches_lapack(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            sym = 0.5 * (a + a.T)
            ours = jacobi_eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)
            np.testing.assert_allclose(ours, ref, atol=1e-12 * max(1, np.max(np.abs(ref))))

    def test_rejects_asymmetric(self):
        with pytest.raises(PreconditionError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reports_non_convergence(self):
        a = np.random.default_rng(2).normal(size=(30, 30))
        sym = a + a.T
        with pytest.raises(OracleFailureError, match="did not converge in 1 sweeps"):
            jacobi_eigenvalues(sym, max_sweeps=1)
        np.testing.assert_allclose(jacobi_eigenvalues(sym), np.linalg.eigvalsh(sym),
                                   atol=30 * EPS * np.linalg.norm(sym))


class TestDivergenceMatrix:
    def test_reference_copies_give_zero_matrix(self):
        mat = divergence_matrix(P0, [P0, P0], "chi2")
        np.testing.assert_array_equal(mat.entries, np.zeros((2, 2)))

    def test_chi2_two_by_two(self):
        mat = divergence_matrix(P0, [P1, P2], "chi2")
        np.testing.assert_allclose(mat.entries, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_non_dominated_row_and_column(self):
        q = DiscreteMeasure([0.0, 0.5, 0.5])
        p0 = DiscreteMeasure([0.6, 0.4, 0.0])
        pa = DiscreteMeasure([0.5, 0.5, 0.0])
        mat = divergence_matrix(p0, [pa, q], "chi2")
        assert math.isfinite(mat.entries[0, 0])
        assert mat.entries[0, 1] == math.inf
        assert mat.entries[1, 0] == math.inf
        assert mat.entries[1, 1] == math.inf
        assert not mat.finite
        assert eigen_summary(mat).status is DiagnosticStatus.NOT_APPLICABLE

    @pytest.mark.parametrize("route", [features, divergence_matrix, rank_with_identity,
                                       oracle_divergence_matrix], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kind, message", [("kl", "unknown matrix kind 'kl'"),
                                               ("rphi", "kind 'rphi' requires a PhiFunction")],
                             ids=["unknown", "no-link"])
    def test_phi_kind_requires_phi(self, route, kind, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            route(P0, [P1], kind)


def _fast_and_oracle_instance(rng, i):
    """A reference with null points, measures it dominates, and on odd i one measure
    with mass on a null point and, every fourth i, one carried by the null points alone
    (zero Hellinger affinity)."""
    n = int(rng.integers(4, 12))
    p0 = random_probability(rng, n, zeros=int(rng.integers(1, 3)))
    ps = [random_dominated(rng, p0, zeros=int(rng.integers(0, 2)))
          for _ in range(int(rng.integers(1, 6)))]
    if i % 2:
        ps.insert(int(rng.integers(0, len(ps) + 1)), random_probability(rng, n))
    if i % 4 == 3:
        ps.append(DiscreteMeasure((p0.mass == 0) / np.sum(p0.mass == 0)))
    return p0, ps


def _cross(kind, p0, ps, phi, entries):
    """The integral whose rounding bounds an entry: of (dPj/dP0)(dPk/dP0) for chi2, of the
    normalized roots for hellinger, of the normalized phi values for rphi, and of
    phi(dPj/dP0) phi(dPk/dP0) for vphi (the entry plus m_j m_k)."""
    if kind != "vphi":
        return entries + 1.0
    pos = p0.mass > 0
    w = p0.mass[pos]
    means = np.array([math.fsum(phi.apply(p.mass[pos] / w) * w) for p in ps])
    return entries + np.outer(means, means)


class TestFastPathAgainstOracle:
    """divergence_matrix (H H') and eigvalsh against the pairwise fsum and Jacobi routes."""

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_entries_and_eigenvalues_match(self, kind):
        rng = np.random.default_rng(61)
        infinite = finite = 0
        for i in range(60):
            p0, ps = _fast_and_oracle_instance(rng, i)
            phi = phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0])) if kind in ("vphi", "rphi") else None
            fast = divergence_matrix(p0, ps, kind, phi=phi)
            oracle = oracle_divergence_matrix(p0, ps, kind, phi=phi)
            np.testing.assert_array_equal(np.isinf(fast.entries), np.isinf(oracle.entries))
            cells = np.isfinite(oracle.entries)
            cross = _cross(kind, p0, ps, phi, oracle.entries)[cells]
            tol = 16 * p0.support_size * EPS * (np.abs(cross) + 1)
            assert np.all(np.abs(fast.entries[cells] - oracle.entries[cells]) <= tol)
            if not fast.finite:
                infinite += 1
                continue
            finite += 1
            # Each route is within N EPS ||A|| of the eigenvalues, so they agree to twice that.
            a = fast.entries
            np.testing.assert_allclose(np.linalg.eigvalsh(a), jacobi_eigenvalues(a), rtol=0,
                                       atol=2 * fast.size * EPS * np.linalg.norm(a))
            summary = eigen_summary(fast)
            assert summary.min_eigenvalue == np.linalg.eigvalsh(a)[0]
        assert finite > 0
        # Hellinger stays finite without domination; only a zero affinity makes it infinite.
        assert infinite == (15 if kind == "hellinger" else 30)

    @pytest.mark.parametrize("route", [divergence_matrix, oracle_divergence_matrix])
    def test_vanishing_rphi_normalizer_raises(self, route):
        spike = PhiFunction(fn=lambda x: 1.0 if x == 1.0 else 0.0,
                            dphi_at_one=0.0, name="spike")
        with pytest.raises(DegeneratePhiError):
            route(P0, [P0, P1], "rphi", phi=spike)
        assert route(P0, [P0, P1], "vphi", phi=spike).entries[1, 1] == 0.0

    def test_near_identical_measures_match_a_50_digit_sum(self):
        """Spread 1e-8: every chi2 entry is about 1e-17, far below the rounding of the
        uncentred sum minus 1; the centred rows keep them to about 1e-8 relative."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(67)
        n, m, spread = 1000, 50, 1e-8
        p0 = random_probability(rng, n)
        ps = []
        for _ in range(m):
            mass = p0.mass * (1.0 + spread * rng.uniform(-1.0, 1.0, n))
            ps.append(DiscreteMeasure(mass / math.fsum(mass)))
        mat = divergence_matrix(p0, ps, "chi2")
        with mpmath.workdps(50):
            w = [mpmath.mpf(float(x)) for x in p0.mass]
            dev = [[mpmath.mpf(float(x)) / wi - 1 for x, wi in zip(p.mass, w)] for p in ps]
            dev_w = [[d * wi for d, wi in zip(row, w)] for row in dev]
            exact = np.zeros((m, m))
            for j in range(m):
                for k in range(j, m):
                    exact[j, k] = exact[k, j] = float(mpmath.fdot(dev[j], dev_w[k]))
        # Forming a row costs at most EPS * sqrt(p0) per point, the dot product N EPS dev^2.
        largest = max(float(np.max(np.abs(p.mass / p0.mass - 1.0))) for p in ps)
        tol = 4 * EPS * largest + n * EPS * largest ** 2
        assert np.max(np.abs(mat.entries - exact)) <= tol
        summary = eigen_summary(mat)
        assert summary.min_eigenvalue >= -1e-9 * max(1.0, summary.max_eigenvalue)
        assert summary.min_eigenvalue >= -m * EPS * np.linalg.norm(mat.entries)


def test_entries_do_not_depend_on_the_blas_thread_count():
    """A threaded BLAS product of 100 x 100 operands changes its last bits with the
    number of threads; the reports must not."""
    script = ("import hashlib, numpy as np; from codiv import DiscreteMeasure, divergence_matrix;"
              "rng = np.random.default_rng(7); m = rng.random((101, 100)) + 0.05;"
              "ps = [DiscreteMeasure(r / r.sum()) for r in m];"
              "e = divergence_matrix(ps[0], ps[1:], 'chi2').entries;"
              "print(hashlib.sha256(e.tobytes()).hexdigest())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = {subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n}
                              ).stdout for n in ("1", "2")}
    assert len(digests) == 1


class TestLinkIdentity:
    def test_identity_phi_denominators_are_one(self):
        vmat = divergence_matrix(P0, [P1, P2], "vphi", phi=PHI_IDENTITY)
        denoms = phi_normalizers(P0, [P1, P2], PHI_IDENTITY)
        assert denoms == pytest.approx([1.0, 1.0], abs=1e-15)
        rmat = link_identity_check(vmat, denoms)
        np.testing.assert_allclose(rmat.entries, vmat.entries, atol=1e-15)

    def test_single_measure_scaling(self):
        phi = PHI_SQRT
        vmat = divergence_matrix(P0, [P1], "vphi", phi=phi)
        d = phi_normalizers(P0, [P1], phi)[0]
        rmat = link_identity_check(vmat, [d])
        assert rmat.entries[0, 0] == pytest.approx(vmat.entries[0, 0] / d ** 2, rel=1e-14)

    def test_random_instance_matches_direct(self):
        rng = np.random.default_rng(33)
        p0 = random_probability(rng, 6)
        ps = [random_dominated(rng, p0) for _ in range(3)]
        phi = phi_alpha(0.7)
        vmat = divergence_matrix(p0, ps, "vphi", phi=phi)
        rmat = link_identity_check(vmat, phi_normalizers(p0, ps, phi))
        direct = divergence_matrix(p0, ps, "rphi", phi=phi)
        np.testing.assert_allclose(rmat.entries, direct.entries, atol=1e-12)

    def test_zero_denominator_rejected(self):
        vmat = divergence_matrix(P0, [P1], "vphi", phi=PHI_IDENTITY)
        with pytest.raises(DegeneratePhiError):
            link_identity_check(vmat, [0.0])


class TestChi2Signed:
    def test_probability_measure_reduces_to_classical(self):
        mu = SignedMeasure(P1.mass)
        classical = math.fsum((P1.mass - P0.mass) ** 2 / P0.mass)
        assert chi2_signed(mu, P0) == pytest.approx(classical, abs=1e-15)
        assert chi2_signed(SignedMeasure(P0.mass), P0) == 0.0

    def test_zero_mass_direction(self):
        assert chi2_signed(SignedMeasure([0.5, -0.5]), P0) == pytest.approx(1.0, abs=1e-15)

    def test_mass_on_null_point(self):
        assert chi2_signed(SignedMeasure([0.5, 0.5]), DiscreteMeasure([1.0, 0.0])) == math.inf

    def test_decomposition_identity(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            p = random_probability(rng, 5)
            mu = SignedMeasure(rng.uniform(-1, 1, 5) * (p.mass > 0))
            lhs, rhs = chi2_signed_decomposition_check(mu, p)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_decomposition_nonnegative_mu(self):
        mu = SignedMeasure([0.2, 0.4])
        lhs, rhs = chi2_signed_decomposition_check(mu, P0)
        ap, mp, _, _ = jordan_decompose(mu)
        assert rhs == pytest.approx(ap ** 2 * chi2_signed(SignedMeasure(mp.mass), P0), abs=1e-15)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_decomposition_zero_mu(self):
        lhs, rhs = chi2_signed_decomposition_check(SignedMeasure([0.0, 0.0]), P0)
        assert lhs == 0.0 and rhs == 0.0

    def test_requires_domination(self):
        with pytest.raises(DominationError):
            chi2_signed_decomposition_check(SignedMeasure([0.0, 1.0]),
                                            DiscreteMeasure([1.0, 0.0]))


class TestQuadraticForm:
    def test_zero_vector(self):
        lhs, rhs = quadratic_form_check(P0, [P1, P2], [0.0, 0.0])
        assert lhs == 0.0 and rhs == 0.0

    def test_single_measure_is_chi2(self):
        lhs, rhs = quadratic_form_check(P0, [P1], [1.0])
        assert lhs == pytest.approx(math.fsum((P1.mass - P0.mass) ** 2 / P0.mass), abs=1e-14)
        assert rhs == pytest.approx(lhs, abs=1e-14)

    @pytest.mark.parametrize("kind", ["chi2", "hellinger"])
    def test_random_instances(self, kind):
        rng = np.random.default_rng(37)
        for _ in range(50):
            p0 = random_probability(rng, 6, zeros=1)
            ps = [random_dominated(rng, p0) for _ in range(3)]
            v = rng.uniform(-2, 2, 3)
            lhs, rhs = quadratic_form_check(p0, ps, v, kind=kind)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _kernel_problems_by_row(doc, path=""):
    """The reference for ``kernel_problems``: each row converted and tested on its own, in
    order, stopping at the first row that is not a list of numbers or is ragged."""
    at = f"{path}/matrix"
    rows, problems = [], []
    for r, entries in enumerate(doc["matrix"]):
        values = numbers(entries)
        row = None if values is None else np.asarray(values, dtype=float)
        if row is None or not np.all(np.isfinite(row)):
            return None, problems + [PreconditionError("row must be a list of numbers", f"{at}/{r}")]
        if rows and row.size != rows[0].size:
            return None, problems + [PreconditionError("ragged kernel matrix", f"{at}/{r}")]
        if np.any(row < 0):
            problems.append(PreconditionError("kernel entries must be nonnegative", f"{at}/{r}"))
        total = math.fsum(row)
        if abs(total - 1.0) > 1e-12:
            problems.append(PreconditionError(f"not row-stochastic: row sums to {total!r}",
                                              f"{at}/{r}"))
        rows.append(row)
    matrix = np.array(rows)
    for key, what, size in (("rows", "row", matrix.shape[0]), ("cols", "column", matrix.shape[1])):
        if doc.get(key, size) != size:
            problems.append(PreconditionError(f"declared {what} count does not match matrix",
                                              f"{path}/{key}"))
    return matrix, problems


def _random_kernel_row(rng, width):
    """A kernel row of the given width, or of another, holding numbers, negative entries,
    non-finite entries, non-numbers or nothing, or a row that is not a list at all."""
    pick = rng.random()
    if pick < 0.1:
        return [None, [], "ab", {"x": 1}][int(rng.integers(4))]
    width = int(rng.integers(1, 5)) if pick < 0.25 else width
    odd = [-0.1, 0.0, 1.0, True, "x", None, math.nan, math.inf, 2, 10 ** 400, [0.5]]
    row = [float(x) if rng.random() < 0.8 else odd[int(rng.integers(len(odd)))]
           for x in rng.random(width)]
    if rng.random() < 0.5 and all(type(x) is float for x in row) and sum(row) > 0:
        row = [x / math.fsum(row) for x in row]
    return np.array(row) if rng.random() < 0.2 and all(type(x) is float for x in row) else row


def test_kernel_problems_match_the_row_by_row_reference():
    """The whole-matrix tests give the findings, paths, order and matrix of the row loop."""
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(3000):
        width = int(rng.integers(1, 5))
        doc = {"matrix": [_random_kernel_row(rng, width) for _ in range(rng.integers(1, 6))]}
        for key in ("rows", "cols"):
            if rng.random() < 0.2:
                doc[key] = int(rng.integers(1, 6))
        if rng.random() < 0.1 and all(isinstance(row, list) and len(row) == width
                                      and all(type(x) is float for x in row)
                                      for row in doc["matrix"]):
            doc["matrix"] = np.array(doc["matrix"])
        got, want = kernel_problems(doc, "/k"), _kernel_problems_by_row(doc, "/k")
        assert [(type(p), str(p), p.path) for p in got[1]] == \
            [(type(p), str(p), p.path) for p in want[1]], doc
        if want[0] is None:
            assert got[0] is None
        else:
            np.testing.assert_array_equal(got[0], want[0])
            assert not got[0].flags.writeable
        seen.update(str(p).split(":")[0] for p in want[1])
    assert seen >= {"row must be a list of numbers", "ragged kernel matrix", "not row-stochastic",
                    "kernel entries must be nonnegative", "declared row count does not match matrix",
                    "declared column count does not match matrix"}


class TestPushForward:
    def test_identity_kernel(self):
        out = push_forward(MarkovKernel.identity(2), P1)
        np.testing.assert_allclose(out.mass, P1.mass)

    def test_constant_kernel_forgets_input(self):
        w = [0.2, 0.8]
        k = MarkovKernel([w, w])
        for p in (P0, P1, P2):
            np.testing.assert_allclose(push_forward(k, p).mass, w, atol=1e-15)

    def test_matrix_vector_product(self):
        k = MarkovKernel([[1.0, 0.0], [0.5, 0.5]])
        out = push_forward(k, P0)
        np.testing.assert_allclose(out.mass, [0.75, 0.25])

    def test_preserves_total_mass(self):
        rng = np.random.default_rng(39)
        k = MarkovKernel(random_kernel(rng, 4, 6))
        mu = SignedMeasure(rng.uniform(-1, 1, 4))
        out = push_forward(k, mu)
        assert out.total == pytest.approx(mu.total, abs=1e-14)

    def test_kernel_validation(self):
        with pytest.raises(PreconditionError):
            MarkovKernel([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(PreconditionError):
            MarkovKernel([[1.1, -0.1], [0.5, 0.5]])


class TestDpi:
    def test_identity_kernel_changes_nothing(self):
        rng = np.random.default_rng(41)
        q0 = random_probability(rng, 5)
        qs = [random_dominated(rng, q0) for _ in range(3)]
        report = dpi_check(q0, qs, MarkovKernel.identity(5))
        np.testing.assert_allclose(report.before.entries, report.after.entries, atol=1e-12)
        assert abs(report.min_eig_of_difference) <= 1e-12 * report.scale

    def test_constant_kernel_collapses_everything(self):
        rng = np.random.default_rng(43)
        q0 = random_probability(rng, 4)
        qs = [random_dominated(rng, q0) for _ in range(2)]
        w = rng.random(4) + 0.1
        w /= math.fsum(w)
        k = MarkovKernel(np.tile(w, (4, 1)))
        report = dpi_check(q0, qs, k)
        np.testing.assert_allclose(report.after.entries, 0.0, atol=1e-13)
        assert report.min_eig_of_difference >= -1e-9 * report.scale

    def test_random_instances_contract(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            q0 = random_probability(rng, n)
            qs = [random_dominated(rng, q0) for _ in range(m)]
            k = MarkovKernel(random_kernel(rng, n, int(rng.integers(2, 9))))
            report = dpi_check(q0, qs, k)
            assert report.min_eig_of_difference >= -1e-9 * report.scale

    def test_requires_domination(self):
        q0 = DiscreteMeasure([1.0, 0.0])
        bad = DiscreteMeasure([0.5, 0.5])
        with pytest.raises(DominationError):
            dpi_check(q0, [bad], MarkovKernel.identity(2))

    def test_underflow_of_the_pushed_reference_is_no_violation(self):
        """K q0 = (1e-330, 1) underflows to 0 at the first output point, where K q1 > 0;
        qs << q0 holds, so the infinite chi2 matrix after K is a rounding artefact."""
        q0, q1 = DiscreteMeasure([1e-300, 1.0]), DiscreteMeasure([0.5, 0.5])
        kernel = MarkovKernel([[1e-30, 1.0], [0.0, 1.0]])
        with pytest.raises(OverflowError, match="K q0 underflows to 0"):
            dpi_check(q0, [q1], kernel)

    # Two instances ([q0, q1, q2], kernel) on two points, found by a seeded search over masses
    # on a 1/20 grid with N, M and N' at most 6; the first breaks the PSD order for
    # hellinger, alpha:0.5 and valpha:2, the second for alpha:2.
    SMALL = ([[0.6, 0.4], [0.8, 0.2], [0.35, 0.65]], [[0.5, 0.5], [0.8, 0.2]])
    SMALL_ALPHA2 = ([[0.3, 0.7], [0.45, 0.55], [0.7, 0.3]], [[0.5, 0.5], [0.2, 0.8]])

    @pytest.mark.parametrize("kind, phi, instance, below", [
        ("hellinger", None, SMALL, -3e-5),
        ("rphi", phi_alpha(0.5), SMALL, -3e-5),
        ("rphi", phi_alpha(2.0), SMALL_ALPHA2, -1e-3),
        ("vphi", phi_alpha(2.0), SMALL, -1e-3),
    ], ids=["hellinger", "alpha:0.5", "alpha:2", "valpha:2"])
    def test_only_chi2_contracts(self, kind, phi, instance, below):
        """The data-processing inequality in the PSD order is a chi2 property: on these
        instances the scaled smallest eigenvalue of before - after is far below the -1e-9
        floor for the other kinds, while the chi2 matrices contract."""
        q0, *qs = map(DiscreteMeasure, instance[0])
        kernel = MarkovKernel(instance[1])
        pushed = [push_forward(kernel, q) for q in (q0, *qs)]
        pushed = [DiscreteMeasure(p.mass / p.total) for p in pushed]
        before = divergence_matrix(q0, qs, kind, phi=phi)
        after = divergence_matrix(pushed[0], pushed[1:], kind, phi=phi)
        scale = max(1.0, eigen_summary(before).max_eigenvalue)
        assert np.linalg.eigvalsh(before.entries - after.entries)[0] / scale < below
        chi2 = dpi_check(q0, qs, kernel)
        assert chi2.min_eig_of_difference >= -1e-9 * chi2.scale

    def test_pushed_totals_within_both_tolerances(self):
        """Masses and kernel rows each 9e-13 above 1 push to totals 1.8e-12 above 1,
        beyond PROBABILITY_TOL; dpi_check divides the images by their totals."""
        q0 = DiscreteMeasure([0.5, 0.5 + 9e-13])
        q1 = DiscreteMeasure([0.25, 0.75 + 9e-13])
        k = MarkovKernel([[0.5, 0.5 + 9e-13], [0.25, 0.75 + 9e-13]])
        report = dpi_check(q0, [q1], k)
        assert abs(push_forward(k, q0).total - 1.0) > 1e-12
        assert report.min_eig_of_difference >= 0.0


class TestRankIdentity:
    def test_all_equal_reference(self):
        report = rank_with_identity(P0, [P0, P0, P0], "chi2")
        assert (report.matrix_rank, report.function_rank) == (0, 0)

    def test_mixture_reference_drops_rank(self):
        rng = np.random.default_rng(47)
        pa = random_probability(rng, 5)
        pb = random_probability(rng, 5)
        p0 = DiscreteMeasure(0.5 * pa.mass + 0.5 * pb.mass)
        report = rank_with_identity(p0, [pa, pb], "chi2")
        assert (report.matrix_rank, report.function_rank) == (1, 1)

    def test_generic_instance_is_full_rank(self):
        rng = np.random.default_rng(49)
        p0 = random_probability(rng, 6)
        ps = [random_dominated(rng, p0) for _ in range(2)]
        report = rank_with_identity(p0, ps, "chi2")
        assert (report.matrix_rank, report.function_rank) == (2, 2)

    @pytest.mark.parametrize("kind,alpha", [("vphi", 0.5), ("rphi", 0.25),
                                            ("chi2", None), ("hellinger", None)])
    def test_identity_holds_on_random_instances(self, kind, alpha):
        rng = np.random.default_rng(51)
        phi = phi_alpha(alpha) if alpha else None
        for _ in range(30):
            n = int(rng.integers(3, 8))
            m = int(rng.integers(1, min(n - 1, 5) + 1))
            p0 = random_probability(rng, n)
            ps = [random_dominated(rng, p0) for _ in range(m)]
            report = rank_with_identity(p0, ps, kind, phi=phi)
            assert report.status is DiagnosticStatus.OK
            assert report.matrix_rank == report.function_rank

    def test_infinite_entries_not_applicable(self):
        p0 = DiscreteMeasure([1.0, 0.0])
        p1 = DiscreteMeasure([0.5, 0.5])
        report = rank_with_identity(p0, [p1], "chi2")
        assert report.status is DiagnosticStatus.NOT_APPLICABLE
        assert report.matrix_rank is None


class TestPsd:
    def test_random_finite_matrices_pass_floor(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 6))
            p0 = random_probability(rng, n)
            ps = [random_dominated(rng, p0) for _ in range(m)]
            kind = rng.choice(["chi2", "hellinger", "vphi", "rphi"])
            phi = phi_alpha(rng.choice([0.25, 0.5, 1.0, 2.0])) if kind in ("vphi", "rphi") else None
            summary = eigen_summary(divergence_matrix(p0, ps, kind, phi=phi))
            assert summary.status is DiagnosticStatus.OK
            assert summary.min_eigenvalue >= -1e-9 * max(1.0, summary.max_eigenvalue)


def test_eigen_summary_psd_floor():
    summary = eigen_summary(divergence_matrix(P0, [P1, P2], "chi2"))
    assert summary.status is DiagnosticStatus.OK
    assert summary.min_eigenvalue >= -1e-9 * max(1.0, summary.max_eigenvalue)
    bad = divergence_matrix(DiscreteMeasure([1.0, 0.0]), [DiscreteMeasure([0.5, 0.5])], "chi2")
    assert eigen_summary(bad) == (DiagnosticStatus.NOT_APPLICABLE, None, None)


class TestSerialization:
    def test_json_round_trip_with_inf(self):
        p0 = DiscreteMeasure([0.6, 0.4, 0.0])
        good = DiscreteMeasure([0.5, 0.5, 0.0])
        bad = DiscreteMeasure([0.0, 0.5, 0.5])
        mat = divergence_matrix(p0, [good, bad], "chi2", reference="p0")
        doc = json.loads(dumps_canonical(mat.to_json_dict()))
        assert "inf" in doc["entries"]
        back = [math.inf if x == "inf" else x for x in doc["entries"]]
        np.testing.assert_array_equal(np.reshape(back, (doc["size"],) * 2), mat.entries)
        assert (doc["kind"], doc["reference"]) == (mat.kind, mat.reference)

    def test_csv_contains_inf_cells(self):
        from codiv.serialize import matrix_to_csv
        p0 = DiscreteMeasure([1.0, 0.0])
        bad = DiscreteMeasure([0.5, 0.5])
        mat = divergence_matrix(p0, [bad], "chi2")
        text = matrix_to_csv(mat)
        assert "inf" in text.splitlines()[1]

    @pytest.mark.parametrize("obj, message", [
        ({"value": math.nan}, "NaN-free"),
        ({1: 0.0}, "keys must be strings"),
        ({"value": {0.5}}, "cannot serialize object of type set"),
        ({"values": [0.5, math.nan, 1.0]}, "NaN-free"),
        ({"values": np.array([0.5, math.nan, 1.0])}, "NaN-free"),
        ({"values": np.array([0.5] * FLOAT_CHUNK + [math.nan])}, "NaN-free"),  # second chunk
        ({"values": np.zeros((2, 2))}, "cannot serialize object of type ndarray"),
        ({"values": np.zeros(2, dtype=np.float32)}, "cannot serialize object of type ndarray"),
        ({"values": np.zeros(2, dtype=int)}, "cannot serialize object of type ndarray"),
    ])
    def test_rejects_what_a_report_cannot_hold(self, obj, message):
        with pytest.raises(PreconditionError, match=message):
            dumps_canonical(obj)

    def test_none_and_empty_containers(self):
        assert [dumps_canonical(x) for x in (None, {}, [], np.array([]))] == \
            ["null", "{}", "[]", "[]"]

    @pytest.mark.parametrize("values", [
        [0.5, -0.0, 5e-324, -1.7976931348623157e308, 1.7976931348623157e308, 0.1],  # sum > max
        [0.25, 1.0, -3.5e-7],
        [0.5, math.inf], [math.inf, -math.inf], [0.5, True], [1.0, 2], [0.5, "inf"],
        [1.7976931348623157e308, 1.7976931348623157e308, -0.0],  # a sum that overflows
        [-0.0, 1e-310, -5e-324, 2.2250738585072014e-308],  # subnormals and the least normal
        [i / 7 for i in range(2 * FLOAT_CHUNK + 1)],  # three chunks, all finite
        [i / 7 for i in range(FLOAT_CHUNK + 1)] + [-math.inf, 0.5],  # inf in the second chunk
    ])
    @pytest.mark.parametrize("indent", [0, 4])
    def test_list_bytes_equal_the_per_item_form(self, values, indent):
        """Whether or not a list, or the 1-D float64 array of a list of floats, takes the
        chunked float join, each item is written as it would be on its own, on its own
        line, at the pad of the list: here indent / 2 one-key dicts deep."""
        depth = indent // 2

        def nested(obj):
            for _ in range(depth):
                obj = {"x": obj}
            return obj

        pad = " " * (indent + 2)
        want = "[\n" + ",\n".join(pad + dumps_canonical(v) for v in values)
        want += "\n" + " " * indent + "]"
        for level in reversed(range(depth)):  # the dicts around the list, innermost first
            want = "{\n" + "  " * (level + 1) + '"x": ' + want + "\n" + "  " * level + "}"
        assert dumps_canonical(nested(values)) == want
        if all(type(v) is float for v in values):
            assert dumps_canonical(nested(np.array(values))) == want

    def test_matrix_entries_are_a_view(self):
        mat = divergence_matrix(P0, [P1, P2], "chi2")
        entries = mat.to_json_dict()["entries"]
        assert entries.ndim == 1 and np.shares_memory(entries, mat.entries)
        assert dumps_canonical(entries) == dumps_canonical(mat.entries.ravel().tolist())


@pytest.mark.parametrize("entries, message", [
    ([[0.0, 1.0]], "square"),
    ([[0.0, math.nan], [math.nan, 0.0]], "NaN-free"),
    ([[0.0, 1.0], [2.0, 0.0]], "symmetric"),
])
def test_div_matrix_rejects_malformed_entries(entries, message):
    with pytest.raises(PreconditionError, match=message):
        DivMatrix("chi2", entries)


NULL0 = DiscreteMeasure([1.0, 0.0])  # P1 and P2 put mass on its null point


@pytest.mark.parametrize("call, error, message", [
    (lambda: DivMatrix("kl", [[0.0]]), PreconditionError, "unknown matrix kind 'kl'"),
    (lambda: jacobi_eigenvalues(np.zeros((2, 3))), PreconditionError, "square"),
    (lambda: link_identity_check(divergence_matrix(P0, [P1], "chi2"), [1.0]),
     PreconditionError, "starts from a covariance-type matrix"),
    (lambda: link_identity_check(divergence_matrix(NULL0, [P1], "vphi", phi=PHI_IDENTITY), [1.0]),
     PreconditionError, "needs a finite matrix"),
    (lambda: link_identity_check(divergence_matrix(P0, [P1], "vphi", phi=PHI_IDENTITY),
                                 [1.0, 1.0]),
     DimensionMismatchError, "denominator count"),
    (lambda: quadratic_form_check(P0, [P1], [1.0], kind="rphi"),
     PreconditionError, "supports chi2/hellinger, not 'rphi'"),
    (lambda: quadratic_form_check(P0, [P1], [1.0, 2.0]), DimensionMismatchError, "weight vector"),
    (lambda: quadratic_form_check(NULL0, [P1], [1.0]), DominationError, "dominated measures"),
    (lambda: quadratic_form_check(NULL0, [DiscreteMeasure([0.0, 1.0])], [1.0], kind="hellinger"),
     PreconditionError, "positive affinities"),
    (lambda: phi_normalizers(NULL0, [P1], PHI_IDENTITY), DominationError, "normalizers need"),
])
def test_guards_name_the_broken_rule(call, error, message):
    with pytest.raises(error, match=message):
        call()
