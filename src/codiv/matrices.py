"""Divergence matrices and their structural diagnostics.

The M x M matrix of codivergences around a reference measure p0 is a Gram
matrix, and every kind is built as one: ``codivergence.features`` makes the
centred feature matrix H, one row per measure, and the matrix is H H', whose
cell (j, k) is bit for bit the pair codivergence of ps[j] and ps[k].  For chi2,
vphi and rphi row j is the centred phi(dP_j/dP0) weighted by sqrt(p0), so
entry (j, k) is an inner product in L2(p0); for hellinger it is the centred
root density.  The identity holds for probability measures only, which
``divergence_matrix`` therefore requires for every kind.  Finite matrices are
PSD, their rank matches the rank of the underlying functions, and the chi-square
matrix contracts under Markov kernels in the PSD order.  Eigenvalues come from
``np.linalg.eigvalsh``; the function-rank side takes an SVD of the uncentred
functions, so the two routes of the rank identity stay independent.

The checking routes stay out of the fast path: ``oracles.oracle_divergence_matrix``
evaluates each entry pairwise with ``math.fsum`` and checks ``divergence_matrix``;
the cyclic Jacobi sweep ``jacobi_eigenvalues`` checks ``eigvalsh``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codivergence import (MATRIX_KINDS, PHI_IDENTITY, PhiFunction, _finite_gram,
                           check_kind, features)
from .errors import (DegeneratePhiError, DimensionMismatchError, DominationError,
                     OracleFailureError, PreconditionError, numbers, raise_first)
from .measures import (PROBABILITY_TOL, DiscreteMeasure, SignedMeasure, check_same_support,
                       dominated_by, exact_sum, jordan_decompose, support_problems)

# Eigenvalue / singular-value threshold for rank and PSD diagnostics:
# tol = RANK_TOL_FACTOR * max(largest magnitude, 1).
RANK_TOL_FACTOR = 1e-9


def jacobi_eigenvalues(a: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending: the
    checking route for ``np.linalg.eigvalsh``.  Raises OracleFailureError when the
    off-diagonal norm is still above 1e-15 * max(1, max |a_ij|) after ``max_sweeps``."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("jacobi_eigenvalues needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(a))))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * scale):
        raise PreconditionError("jacobi_eigenvalues needs a symmetric matrix")
    n = a.shape[0]
    sweeps = 0
    while (off := math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))) > 1e-15 * scale:
        if sweeps == max_sweeps:
            raise OracleFailureError(f"Jacobi eigenvalues did not converge in {max_sweeps} "
                                     f"sweeps: off-diagonal norm {off!r}")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                # Classical stable rotation computation.
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    return np.sort(a.diagonal())


@dataclass(frozen=True)
class DivMatrix:
    """Symmetric matrix of pairwise codivergence values, possibly containing +inf."""

    kind: str
    entries: np.ndarray
    reference: str = ""

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise PreconditionError(f"unknown matrix kind {self.kind!r}")
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise PreconditionError("entries must form a square matrix")
        if np.any(np.isnan(arr)):
            raise PreconditionError("entries must be NaN-free")
        if not np.array_equal(arr, arr.T):
            raise PreconditionError("entries must be symmetric")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.entries)))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "size": self.size, "entries": self.entries.ravel().tolist(),
                "reference": self.reference}

class DiagnosticStatus(enum.Enum):
    OK = "ok"
    NOT_APPLICABLE = "not-applicable"  # matrix contains +inf entries


class EigenSummary(NamedTuple):
    status: DiagnosticStatus
    min_eigenvalue: float | None
    max_eigenvalue: float | None


def eigen_summary(mat: DivMatrix) -> EigenSummary:
    if not mat.finite:
        return EigenSummary(DiagnosticStatus.NOT_APPLICABLE, None, None)
    eigs = np.linalg.eigvalsh(mat.entries)
    return EigenSummary(DiagnosticStatus.OK, float(eigs[0]), float(eigs[-1]))


def divergence_matrix(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure], kind: str,
                      phi: PhiFunction | None = None, reference: str = "") -> DivMatrix:
    """Matrix with (j, k) entry D(p0 | ps[j], ps[k]) for the requested kind: the Gram
    matrix of ``features``, with +inf in the rows and columns of the infinite rows."""
    h, finite, _ = features(p0, ps, kind, phi)
    entries = _finite_gram(h, kind)
    entries[~finite, :] = math.inf
    entries[:, ~finite] = math.inf
    return DivMatrix(kind=kind, entries=entries, reference=reference)


def phi_normalizers(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure],
                    phi: PhiFunction) -> list[float]:
    """The integrals of phi(dPj/dP0) against p0, one per measure."""
    rows = features(p0, ps, "vphi", phi)
    if not rows.finite.all():
        raise DominationError("normalizers need dominated measures")
    return rows.normalizers.tolist()


def link_identity_check(vmat: DivMatrix, denominators: Sequence[float]) -> DivMatrix:
    """Conjugate a covariance-type matrix into correlation type: R = D V D.

    D is diagonal with entries 1/denominator_j; the result must match the
    directly computed correlation-type matrix.
    """
    if vmat.kind != "vphi":
        raise PreconditionError("link identity starts from a covariance-type matrix")
    if not vmat.finite:
        raise PreconditionError("link identity needs a finite matrix")
    d = np.asarray(denominators, dtype=float)
    if d.size != vmat.size:
        raise DimensionMismatchError("denominator count does not match matrix size")
    if np.any(d <= 0):
        raise DegeneratePhiError("normalizing integrals must be positive")
    inv = 1.0 / d
    conjugated = inv[:, None] * vmat.entries * inv[None, :]
    # Symmetrize away the last-bit asymmetry of floating multiplication.
    conjugated = 0.5 * (conjugated + conjugated.T)
    return DivMatrix(kind="rphi", entries=conjugated, reference=vmat.reference)


def chi2_signed(mu: SignedMeasure, p: DiscreteMeasure) -> float:
    """Chi-square divergence of a finite signed measure mu from p.

    Integral of (d(mu)/dP - mu(total))^2 dP when mu << p, +inf otherwise;
    reduces to the classical divergence when mu is a probability measure.
    """
    check_same_support(mu, p)
    if not dominated_by(mu, p):
        return math.inf
    total = mu.total
    pos = p.mass > 0
    dev = mu.mass[pos] / p.mass[pos] - total
    return exact_sum(dev * dev * p.mass[pos])


def chi2_signed_decomposition_check(mu: SignedMeasure, p: DiscreteMeasure) -> tuple[float, float]:
    """Both sides of the signed chi-square decomposition over the Jordan parts.

    lhs is chi2_signed(mu, p); rhs is
    alpha_+^2 chi2(mu_+, p) + alpha_-^2 chi2(mu_-, p) + 2 alpha_+ alpha_-.
    """
    check_same_support(mu, p)
    if not dominated_by(mu, p):
        raise DominationError("decomposition check needs mu << p")
    lhs = chi2_signed(mu, p)
    ap, mu_plus, am, mu_minus = jordan_decompose(mu)
    rhs = 2.0 * ap * am
    if ap > 0:
        rhs += ap * ap * chi2_signed(SignedMeasure(mu_plus.mass), p)
    if am > 0:
        rhs += am * am * chi2_signed(SignedMeasure(mu_minus.mass), p)
    return lhs, rhs


def quadratic_form_check(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure],
                         v: Sequence[float], kind: str = "chi2") -> tuple[float, float]:
    """Evaluate v' M v two ways, for probability measures.

    lhs is v' M v with M = H H' from ``features``.  rhs is, for chi2, the signed
    chi-square of the mixture sum_j v_j P_j from p0; for hellinger, the integral of
    (sum_j v_j (sqrt(p_j)/affinity_j - sqrt(p_0)))^2 over the support.
    """
    if kind not in ("chi2", "hellinger"):
        raise PreconditionError(f"quadratic form check supports chi2/hellinger, not {kind!r}")
    v = np.asarray(v, dtype=float)
    h, finite, _ = features(p0, ps, kind)
    if v.size != len(ps):
        raise DimensionMismatchError("weight vector length does not match measure count")
    if not finite.all():
        if kind == "chi2":
            raise DominationError("chi2 quadratic form needs dominated measures")
        raise PreconditionError("hellinger quadratic form needs positive affinities")
    lhs = float(v @ _finite_gram(h, kind) @ v)
    if kind == "chi2":
        mixture = SignedMeasure(np.sum(v[:, None] * np.stack([p.mass for p in ps]), axis=0))
        return lhs, chi2_signed(mixture, p0)
    combo = v @ h
    return lhs, exact_sum(combo * combo)


def kernel_problems(doc, path: str = "") -> tuple[np.ndarray | None, list]:
    """The frozen row-stochastic matrix of a kernel document {"rows", "cols", "matrix"}
    (None unless it has rows of numbers of one length) and its problems, under ``path``."""
    matrix = doc.get("matrix") if isinstance(doc, dict) else None
    at = f"{path}/matrix"
    if not isinstance(matrix, (list, tuple, np.ndarray)) or len(matrix) == 0:
        return None, [PreconditionError("kernel matrix is required", at)]
    rows, problems = [], []
    for r, entries in enumerate(matrix):
        values = numbers(entries)
        row = None if values is None else np.asarray(values, dtype=float)
        if row is None or not np.all(np.isfinite(row)):
            return None, problems + [PreconditionError("row must be a list of numbers", f"{at}/{r}")]
        if rows and row.size != rows[0].size:
            return None, problems + [PreconditionError("ragged kernel matrix", f"{at}/{r}")]
        if np.any(row < 0):
            problems.append(PreconditionError("kernel entries must be nonnegative", f"{at}/{r}"))
        total = exact_sum(row)
        if abs(total - 1.0) > PROBABILITY_TOL:
            problems.append(PreconditionError(f"not row-stochastic: row sums to {total!r}",
                                              f"{at}/{r}"))
        rows.append(row)
    matrix = np.array(rows)
    matrix.flags.writeable = False
    for key, what, size in (("rows", "row", matrix.shape[0]), ("cols", "column", matrix.shape[1])):
        if doc.get(key, size) != size:
            problems.append(PreconditionError(f"declared {what} count does not match matrix",
                                              f"{path}/{key}"))
    return matrix, problems


@dataclass(frozen=True)
class MarkovKernel:
    """Row-stochastic transition matrix from an N-point to an N'-point space."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix, problems = kernel_problems({"matrix": self.matrix})
        raise_first(problems)
        object.__setattr__(self, "matrix", matrix)

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "MarkovKernel":
        return cls(np.eye(n))


def push_forward(k: MarkovKernel, p):
    """Push a (signed) measure through the kernel: out[y] = sum_x mass[x]*k[x, y]."""
    raise_first(support_problems([p.mass], k.rows))
    return type(p)(p.mass @ k.matrix)


class DpiReport(NamedTuple):
    before: DivMatrix
    after: DivMatrix
    min_eig_of_difference: float
    scale: float


def dpi_check(q0: DiscreteMeasure, qs: Sequence[DiscreteMeasure], k: MarkovKernel) -> DpiReport:
    """Chi-square matrices before/after the kernel and the smallest eigenvalue
    of their difference (nonnegative up to the PSD floor when the inequality holds)."""
    before = divergence_matrix(q0, qs, "chi2", reference="q0")
    if not before.finite:
        raise DominationError("dpi check needs qs << q0")
    # A kernel maps probability measures to probability measures; dividing by the
    # total removes the drift that the 1e-12 tolerances on masses and rows allow.
    pushed = [push_forward(k, q) for q in (q0, *qs)]
    pushed = [DiscreteMeasure(p.mass / p.total) for p in pushed]
    after = divergence_matrix(pushed[0], pushed[1:], "chi2", reference="K(q0)")
    min_eig = float(np.linalg.eigvalsh(before.entries - after.entries)[0])
    scale = max(1.0, eigen_summary(before).max_eigenvalue)
    return DpiReport(before, after, min_eig, scale)


class RankReport(NamedTuple):
    status: DiagnosticStatus
    matrix_rank: int | None
    function_rank: int | None


def _threshold_count(values: np.ndarray, tol_factor: float) -> int:
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    return int(np.sum(np.abs(values) > tol_factor * scale))


def rank_with_identity(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure], kind: str,
                       phi: PhiFunction | None = None,
                       tol_factor: float = RANK_TOL_FACTOR) -> RankReport:
    """Matrix rank of the divergence matrix next to the rank of the underlying functions.

    The function side spans, in L2(p0) geometry, the constant 1 together with
    phi(dPj/dP0) for the likelihood-ratio kinds, and the square-root densities
    in plain L2 for the hellinger kind; the reported function rank is that
    span's dimension minus one.  The two ranks agree for finite matrices.
    """
    check_kind(kind, phi)
    if kind == "chi2":
        phi = PHI_IDENTITY
    mat = divergence_matrix(p0, ps, kind, phi=phi)
    if not mat.finite:
        return RankReport(DiagnosticStatus.NOT_APPLICABLE, None, None)
    matrix_rank = _threshold_count(np.linalg.eigvalsh(mat.entries), tol_factor)

    if kind == "hellinger":
        rows = [np.sqrt(p0.mass)] + [np.sqrt(p.mass) for p in ps]
    else:
        pos = p0.mass > 0
        w = p0.mass[pos]
        sqrt_w = np.sqrt(w)
        rows = [sqrt_w] + [phi.apply(p.mass[pos] / w) * sqrt_w for p in ps]
    svals = np.linalg.svd(np.stack(rows), compute_uv=False)
    span_dim = _threshold_count(svals, tol_factor)
    return RankReport(DiagnosticStatus.OK, matrix_rank, span_dim - 1)
