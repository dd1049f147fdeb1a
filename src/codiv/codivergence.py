"""Covariance- and correlation-type codivergences on finite discrete measures.

A codivergence D(p0 | p1, p2) is an inner product of the centred features of p1
and p2 in L2(p0), so every kind is evaluated as a Gram matrix: ``features`` makes
the centred feature matrix H, one row per measure, and D(p0 | ps[j], ps[k]) is
cell (j, k) of H H'.  The pair functions ``chi2_codiv``, ``hellinger_codiv``,
``v_phi`` and ``r_phi`` return cell (0, 1) of the two-row matrix, which is the
bit-for-bit value of the same cell of ``matrices.divergence_matrix``.  The
identity needs totals of 1, so every measure must be a probability measure.  The
return value is a float, with ``math.inf`` encoding the extended value that a
codivergence takes on non-dominated triples (or a vanishing Hellinger
affinity).  The pairwise finite sums of the definitions are kept in
:mod:`codiv.oracles`, to check this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegeneratePhiError, PreconditionError, check_alpha
from .measures import DiscreteMeasure, check_probability, check_same_support, exact_sum

MATRIX_KINDS = ("vphi", "rphi", "chi2", "hellinger")

_PHI_PROBE_POINTS = (0.0, 0.25, 0.5, 1.0, 2.0, 10.0)


@dataclass(frozen=True)
class PhiFunction:
    """A nonnegative link function normalized to phi(1) = 1.  Any callable is accepted, as in
    the paper's definition; a link that is not a power can make an rphi normalizer vanish
    (DegeneratePhiError).  phi'(1) is given exactly, for the local expansion."""

    fn: Callable[[float], float]
    dphi_at_one: float
    name: str = "phi"

    def __post_init__(self):
        if abs(self.fn(1.0) - 1.0) > 1e-14:
            raise PreconditionError(f"phi(1) must equal 1, got {self.fn(1.0)!r}")
        for x in _PHI_PROBE_POINTS:
            try:
                value = self.fn(x)
            except OverflowError:  # a float power beyond the range is +inf, nonnegative
                continue
            if value < 0:
                raise PreconditionError(f"phi must be nonnegative, phi({x}) < 0")

    def apply(self, ratios: np.ndarray) -> np.ndarray:
        try:
            out = np.asarray(self.fn(ratios), dtype=float)
            if out.shape == ratios.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([self.fn(float(x)) for x in ratios])


def phi_alpha(alpha: float) -> PhiFunction:
    """The power link x -> x**alpha, alpha positive and finite."""
    check_alpha(alpha)
    return PhiFunction(
        fn=lambda x: x ** alpha,
        dphi_at_one=alpha,
        name=f"alpha:{alpha:g}",
    )


PHI_IDENTITY = phi_alpha(1.0)
PHI_SQRT = phi_alpha(0.5)


def check_kind(kind: str, phi: PhiFunction | None = None) -> None:
    """PreconditionError unless ``kind`` is a matrix kind, with the link that vphi and rphi need."""
    if kind not in MATRIX_KINDS:
        raise PreconditionError(f"unknown matrix kind {kind!r}")
    if kind in ("vphi", "rphi") and phi is None:
        raise PreconditionError(f"kind {kind!r} requires a PhiFunction")


class Features(NamedTuple):
    """The centred feature matrix of a reference and M measures (see ``features``)."""

    rows: np.ndarray  # H, M x |supp p0| (M x N for hellinger)
    finite: np.ndarray  # row j gives finite entries: P_j << P0 (hellinger: a_j > 0)
    normalizers: np.ndarray  # m_j (vphi, rphi), a_j (hellinger) or 1 (chi2) per row


def features(p0: DiscreteMeasure, ps: Sequence[DiscreteMeasure], kind: str,
             phi: PhiFunction | None = None) -> Features:
    """The rows H whose Gram matrix H H' holds D(p0 | ps[j], ps[k]) of ``kind``.

    With r_j = p_j / p0 on supp p0, m_j the integral of phi(r_j) against p0 and
    a_j the Hellinger affinity of p_j with p0, row j is
      chi2       (r_j - 1) sqrt(p0)
      vphi       (phi(r_j) - m_j) sqrt(p0)
      rphi       (phi(r_j) / m_j - 1) sqrt(p0)
      hellinger  sqrt(p_j) / a_j - sqrt(p0), over the whole support.
    The identities need totals of 1, so every measure must be a probability
    measure.  A row whose entries are infinite stays zero; a dominated rphi row
    with m_j <= 0 raises DegeneratePhiError, and a phi value or m_j beyond the float
    range raises OverflowError.  The rows are filled one at a time into one buffer,
    so no other M x N array is made.
    """
    check_kind(kind, phi)
    check_same_support(p0, *ps)
    check_probability(p0, *ps)
    null = p0.mass == 0
    w = p0.mass if kind == "hellinger" else p0.mass[~null]
    root0 = np.sqrt(w)
    h = np.zeros((len(ps), w.size))
    finite = np.ones(len(ps), dtype=bool)
    normalizers = np.ones(len(ps))
    for j, p in enumerate(ps):
        row = h[j]
        if kind == "hellinger":
            np.sqrt(p.mass, out=row)
            normalizers[j] = affinity = exact_sum(row * root0)
            if affinity > 0:
                row /= affinity
                row -= root0
            else:
                finite[j] = False
                row[:] = 0.0
            continue
        if np.any(p.mass[null]):
            finite[j] = False
            continue
        np.divide(p.mass[~null], w, out=row)
        centre = 1.0
        if kind != "chi2":
            with np.errstate(over="ignore"):
                row[:] = phi.apply(row)
            normalizers[j] = mean = exact_sum(row * w)
            if not math.isfinite(mean):  # also where a phi value is not finite
                raise OverflowError(f"phi {phi.name} of a density ratio, or its integral "
                                    f"against p0, exceeds the float range")
            if kind == "vphi":
                centre = mean
            elif mean <= 0:
                raise DegeneratePhiError("a normalizing integral of phi vanished")
            else:
                row /= mean
        row -= centre
        row *= root0
    return Features(h, finite, normalizers)


_GRAM_OVERFLOW = "a cell of the Gram matrix H H' exceeds the float range"

# Kinds whose cells are E[f_j f_k] - 1 for nonnegative f_j, f_k: at least -1.
_CORRELATION_KINDS = ("chi2", "hellinger", "rphi")


def _gram(h: np.ndarray, kind: str = "") -> np.ndarray:
    """H H' by numpy's own einsum loop rather than BLAS: the last bits of a threaded BLAS
    product change with the thread count.  Cells (i, j) and (j, i) are the same products
    summed in the same order, so the result is symmetric to the last bit.  A finite cell
    of a correlation-type kind that rounding put below -1 is raised to -1.  A cell beyond
    the float range is left non-finite; each caller checks the cells it reports."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.einsum("ik,jk->ij", h, h, optimize=False)
        if kind in _CORRELATION_KINDS:
            g[(g < -1.0) & (g > -math.inf)] = -1.0
    return g


def _finite_gram(h: np.ndarray, kind: str = "") -> np.ndarray:
    """``_gram`` of h; OverflowError when any cell exceeds the float range, since +inf in
    a divergence matrix stands for non-domination only."""
    g = _gram(h, kind)
    if not np.isfinite(g).all():
        raise OverflowError(_GRAM_OVERFLOW)
    return g


def _cell(p0, p1, p2, kind: str, phi: PhiFunction | None = None) -> float:
    """Cell (0, 1) of the Gram matrix of the rows of p1 and p2; +inf unless both are finite.
    OverflowError when that cell exceeds the float range; the diagonal is not reported."""
    h, finite, _ = features(p0, (p1, p2), kind, phi)
    if not finite.all():
        return math.inf
    value = float(_gram(h, kind)[0, 1])
    if not math.isfinite(value):
        raise OverflowError(_GRAM_OVERFLOW)
    return value


def v_phi(p0: DiscreteMeasure, p1: DiscreteMeasure, p2: DiscreteMeasure,
          phi: PhiFunction) -> float:
    """Covariance-type codivergence of (p1, p2) around p0; +inf unless p1, p2 << p0."""
    return _cell(p0, p1, p2, "vphi", phi)


def r_phi(p0: DiscreteMeasure, p1: DiscreteMeasure, p2: DiscreteMeasure,
          phi: PhiFunction) -> float:
    """Correlation-type codivergence: v_phi normalized by both marginal integrals;
    +inf unless p1, p2 << p0, DegeneratePhiError when a dominated one's integral is <= 0."""
    return _cell(p0, p1, p2, "rphi", phi)


def chi2_codiv(p0: DiscreteMeasure, p1: DiscreteMeasure, p2: DiscreteMeasure) -> float:
    """Chi-square codivergence: integral of (dP1/dP0) dP2 minus 1; +inf unless dominated."""
    return _cell(p0, p1, p2, "chi2")


def hellinger_codiv(p0: DiscreteMeasure, p1: DiscreteMeasure, p2: DiscreteMeasure) -> float:
    """Hellinger codivergence via affinities; finite whenever both affinities with p0 are
    positive, so it does not require domination."""
    return _cell(p0, p1, p2, "hellinger")
