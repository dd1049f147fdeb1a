"""Exception hierarchy shared by all codiv modules, the number and alpha input rules, and the
one exact sum: ``exact_units`` counts a dot product in 2**-2148, ``round_units`` rounds it once.

Each input rule is written once, as a checker returning its problems as errors that carry a
JSON path; the constructors raise the first, the CLI reports all.
"""

import math


class CodivError(Exception):
    """Base class for all errors raised by this package; ``path`` locates the bad input."""

    def __init__(self, message: str = "", path: str = ""):
        super().__init__(message)
        self.path = path


class DimensionMismatchError(CodivError):
    """Operands live on different supports or have incompatible structure."""


class DominationError(CodivError):
    """An operation required absolute continuity that does not hold."""


class PreconditionError(CodivError):
    """An input violates a documented precondition (mass, sign, interval...)."""


class KindMismatchError(CodivError):
    """Parametric families of different kinds were mixed."""


class DegeneratePhiError(CodivError):
    """A correlation-type codivergence denominator vanished."""


class OracleFailureError(CodivError):
    """Adaptive numerical integration failed to converge within its budget."""


def raise_first(problems: list) -> None:
    """Raise the first of the problems an input checker returned, if there is one."""
    if problems:
        raise problems[0]


def _from_checked(cls, **fields):
    """The read-only ``cls`` holding checked ``fields``, built without its checking __init__."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# The smallest int that float() rounds to infinity, halfway from the largest float to 2**1024.
_INT_LIMIT = 2 ** 1024 - 2 ** 970


def exact_fsum(values: list) -> float:
    """``math.fsum`` of a list of floats, and where that raises, ``exact_dot`` of the values
    with unit coefficients: the exact sum rounded once, or NaN for +inf plus -inf."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        return exact_dot([1.0] * len(values), values)


def exact_units(coeffs, values):
    """sum_i c_i v_i, exact, as an integer count of 2**-2148; where an entry is not finite, what
    float arithmetic gives: an infinity propagates, and inf - inf and 0 * inf are NaN."""
    special = [a * b for a, b in zip(coeffs, values) if not (math.isfinite(a) and math.isfinite(b))]
    if special:  # the finite products add a finite exact sum, which no infinity notices
        return special[0] if all(v == special[0] for v in special) else math.nan
    return sum(a * b << 2149 - (c * d).bit_length() for (a, c), (b, d) in
               ((x.as_integer_ratio(), y.as_integer_ratio()) for x, y in zip(coeffs, values)))


def round_units(units, scale: int = 0) -> float:
    """An ``exact_units`` count times 2**scale, rounded once (+-inf from ``_INT_LIMIT`` on)."""
    if isinstance(units, float):  # exact_units' infinity or NaN, which no scale changes
        return units
    units, shift = units << max(scale - 2148, 0), max(2148 - scale, 0)
    if abs(units) >> shift < _INT_LIMIT:  # rounds to at most the largest float
        return units / (1 << shift)
    return math.inf if units > 0 else -math.inf


def exact_dot(coeffs, values) -> float:
    """sum_i c_i v_i, exact and rounded once, with ``exact_units``' rule for a non-finite entry."""
    return round_units(exact_units(coeffs, values))


def is_number(x) -> bool:
    """True for an int or float, numpy ones included; booleans are not numbers, and
    neither is an int beyond the float range."""
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return -_INT_LIMIT < x < _INT_LIMIT
    if isinstance(x, float):
        return True
    return getattr(getattr(x, "dtype", None), "kind", "") in ("i", "u", "f")


def check_alpha(alpha, path: str = "") -> None:
    """PreconditionError, at ``path``, unless the power alpha of a link is positive and finite."""
    if not alpha > 0:
        raise PreconditionError("alpha must be positive", path)
    if alpha == float("inf"):
        raise PreconditionError("alpha must be finite", path)


def numbers(values):
    """``values`` with NaN for every entry that is not a number, or None unless it is a
    non-empty list, tuple or 1-D array: the JSON type test, which the checkers follow
    with numpy tests on the float array, where a non-number is a non-finite entry."""
    if hasattr(values, "dtype"):
        if values.ndim != 1 or values.size == 0:
            return None
        return values if values.dtype.kind in "iuf" else [float("nan")] * values.size
    if not isinstance(values, (list, tuple)) or not values:
        return None
    types = set(map(type, values))
    if types <= {float} or types <= {int, float} and all(map(is_number, values)):
        return values
    return [x if is_number(x) else float("nan") for x in values]
