"""Divergence matrices and their structural diagnostics.

The M x M matrix of pairwise codivergences around a reference measure plays
the role of a Gram matrix: finite instances are symmetric positive
semi-definite, their rank matches the rank of the underlying likelihood-ratio
functions, and the chi-square matrix contracts under Markov kernels in the
PSD order.  Everything here works on exact finite sums; eigenvalues come from
a cyclic Jacobi sweep (no external solver), while the function-rank side uses
SVD so the two routes of the rank identity stay independent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codivergence import PHI_IDENTITY, PhiFunction, chi2_codiv, hellinger_codiv, r_phi, v_phi
from .errors import (DegeneratePhiError, DimensionMismatchError, DominationError,
                     PreconditionError, numbers, raise_first)
from .measures import (DiscreteMeasure, SignedMeasure, check_same_support,
                       dominated_by, jordan_decompose, support_problems)

MATRIX_KINDS = ("vphi", "rphi", "chi2", "hellinger")

# Eigenvalue / singular-value threshold for rank and PSD diagnostics:
# tol = RANK_TOL_FACTOR * max(largest magnitude, 1).
RANK_TOL_FACTOR = 1e-9


def jacobi_eigenvalues(a: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError("jacobi_eigenvalues needs a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(a))))):
        raise PreconditionError("jacobi_eigenvalues needs a symmetric matrix")
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= 1e-15 * scale:
            break
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
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
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
        flat = ["inf" if math.isinf(x) else float(x) for x in self.entries.ravel()]
        return {"kind": self.kind, "size": self.size, "entries": flat,
                "reference": self.reference}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DivMatrix":
        size = int(doc["size"])
        # divergence matrices never hold -inf; the only string cell is "inf"
        if any(isinstance(x, str) and x != "inf" for x in doc["entries"]):
            raise PreconditionError("entries may only use the string 'inf' for infinities")
        flat = [math.inf if x == "inf" else float(x) for x in doc["entries"]]
        if len(flat) != size * size:
            raise PreconditionError("entries length does not match size^2")
        return cls(kind=doc["kind"], entries=np.array(flat).reshape(size, size),
                   reference=doc.get("reference", ""))


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
    eigs = jacobi_eigenvalues(mat.entries)
    return EigenSummary(DiagnosticStatus.OK, float(eigs[0]), float(eigs[-1]))


def is_psd(mat: DivMatrix, floor_factor: float = RANK_TOL_FACTOR) -> bool | None:
    """PSD check up to the scaled floor; None when infinite entries make it inapplicable."""
    summary = eigen_summary(mat)
    if summary.status is not DiagnosticStatus.OK:
        return None
    return summary.min_eigenvalue >= -floor_factor * max(1.0, summary.max_eigenvalue)


def divergence_matrix(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure], kind: str,
                      phi: PhiFunction | None = None, reference: str = "") -> DivMatrix:
    """Matrix with (j, k) entry D(p0 | ps[j], ps[k]) for the requested kind."""
    if kind not in MATRIX_KINDS:
        raise PreconditionError(f"unknown matrix kind {kind!r}")
    if kind in ("vphi", "rphi") and phi is None:
        raise PreconditionError(f"kind {kind!r} requires a PhiFunction")
    check_same_support(p0, *ps)
    m = len(ps)
    entries = np.zeros((m, m))
    for j in range(m):
        for k in range(j, m):
            if kind == "chi2":
                val = chi2_codiv(p0, ps[j], ps[k])
            elif kind == "hellinger":
                val = hellinger_codiv(p0, ps[j], ps[k])
            elif kind == "vphi":
                val = v_phi(p0, ps[j], ps[k], phi)
            else:
                val = r_phi(p0, ps[j], ps[k], phi)
            entries[j, k] = val
            entries[k, j] = val
    return DivMatrix(kind=kind, entries=entries, reference=reference)


def phi_normalizers(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure],
                    phi: PhiFunction) -> list[float]:
    """The integrals of phi(dPj/dP0) against p0, one per measure."""
    check_same_support(p0, *ps)
    pos = p0.mass > 0
    w = p0.mass[pos]
    out = []
    for p in ps:
        if not dominated_by(p, p0):
            raise DominationError("normalizers need dominated measures")
        out.append(math.fsum(phi.apply(p.mass[pos] / w) * w))
    return out


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
    return math.fsum(dev * dev * p.mass[pos])


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
    """Evaluate v' M v two independent ways.

    chi2: against the signed chi-square of the mixture sum_j v_j P_j from p0.
    hellinger: against the integral of
    (sum_j v_j (sqrt(p_j)/affinity_j - sqrt(p_0)))^2 over the support.
    """
    check_same_support(p0, *ps)
    v = np.asarray(v, dtype=float)
    if v.size != len(ps):
        raise DimensionMismatchError("weight vector length does not match measure count")
    if kind == "chi2":
        for p in ps:
            if not dominated_by(p, p0):
                raise DominationError("chi2 quadratic form needs dominated measures")
        mat = divergence_matrix(p0, ps, "chi2")
        lhs = float(v @ mat.entries @ v)
        mixture = SignedMeasure(np.sum(v[:, None] * np.stack([p.mass for p in ps]), axis=0))
        rhs = chi2_signed(mixture, p0)
        return lhs, rhs
    if kind == "hellinger":
        sq0 = np.sqrt(p0.mass)
        rows = []
        for p in ps:
            aff = math.fsum(np.sqrt(p.mass * p0.mass))
            if aff <= 0:
                raise PreconditionError("hellinger quadratic form needs positive affinities")
            rows.append(np.sqrt(p.mass) / aff - sq0)
        mat = divergence_matrix(p0, ps, "hellinger")
        lhs = float(v @ mat.entries @ v)
        combo = np.sum(v[:, None] * np.stack(rows), axis=0)
        rhs = math.fsum(combo * combo)
        return lhs, rhs
    raise PreconditionError(f"quadratic form check supports chi2/hellinger, not {kind!r}")


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
        total = math.fsum(row)
        if abs(total - 1.0) > 1e-12:
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

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def identity(cls, n: int) -> "MarkovKernel":
        return cls(np.eye(n))

    def to_json_dict(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "matrix": [[float(x) for x in row] for row in self.matrix]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MarkovKernel":
        matrix, problems = kernel_problems(doc)
        raise_first(problems)
        return cls(matrix)


def push_forward(k: MarkovKernel, p):
    """Push a (signed) measure through the kernel: out[y] = sum_x mass[x]*k[x, y]."""
    raise_first(support_problems([p.mass], k.rows))
    out = np.array([math.fsum(p.mass * k.matrix[:, y]) for y in range(k.cols)])
    return type(p)(out)


class DpiReport(NamedTuple):
    before: DivMatrix
    after: DivMatrix
    min_eig_of_difference: float
    scale: float


def dpi_check(q0: DiscreteMeasure, qs: Sequence[DiscreteMeasure], k: MarkovKernel) -> DpiReport:
    """Chi-square matrices before/after the kernel and the smallest eigenvalue
    of their difference (nonnegative up to the PSD floor when the inequality holds)."""
    for q in qs:
        if not dominated_by(q, q0):
            raise DominationError("dpi check needs qs << q0")
    before = divergence_matrix(q0, qs, "chi2", reference="q0")
    after = divergence_matrix(push_forward(k, q0), [push_forward(k, q) for q in qs],
                              "chi2", reference="K(q0)")
    diff = before.entries - after.entries
    min_eig = float(jacobi_eigenvalues(diff)[0])
    before_summary = eigen_summary(before)
    scale = max(1.0, before_summary.max_eigenvalue)
    return DpiReport(before, after, min_eig, scale)


class RankReport(NamedTuple):
    status: DiagnosticStatus
    matrix_rank: int | None
    function_rank: int | None
    tolerance: float | None


def _threshold_count(values: np.ndarray, tol_factor: float) -> tuple[int, float]:
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    tol = tol_factor * scale
    return int(np.sum(np.abs(values) > tol)), tol


def rank_with_identity(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure], kind: str,
                       phi: PhiFunction | None = None,
                       tol_factor: float = RANK_TOL_FACTOR) -> RankReport:
    """Matrix rank of the divergence matrix next to the rank of the underlying functions.

    The function side spans, in L2(p0) geometry, the constant 1 together with
    phi(dPj/dP0) for the likelihood-ratio kinds, and the square-root densities
    in plain L2 for the hellinger kind; the reported function rank is that
    span's dimension minus one.  The two ranks agree for finite matrices.
    """
    if kind in ("vphi", "rphi") and phi is None:
        raise PreconditionError(f"kind {kind!r} requires a PhiFunction")
    if kind == "chi2":
        phi = PHI_IDENTITY
    mat = divergence_matrix(p0, ps, kind, phi=phi)
    if not mat.finite:
        return RankReport(DiagnosticStatus.NOT_APPLICABLE, None, None, None)
    eigs = jacobi_eigenvalues(mat.entries)
    matrix_rank, tol = _threshold_count(eigs, tol_factor)

    if kind == "hellinger":
        rows = [np.sqrt(p0.mass)] + [np.sqrt(p.mass) for p in ps]
    else:
        pos = p0.mass > 0
        w = p0.mass[pos]
        sqrt_w = np.sqrt(w)
        rows = [sqrt_w]
        for p in ps:
            if not dominated_by(p, p0):
                raise DominationError("function rank needs dominated measures")
            rows.append(phi.apply(p.mass[pos] / w) * sqrt_w)
    svals = np.linalg.svd(np.stack(rows), compute_uv=False)
    span_dim, _ = _threshold_count(svals, tol_factor)
    return RankReport(DiagnosticStatus.OK, matrix_rank, span_dim - 1, tol)
