"""Exception hierarchy shared by all codiv modules, and the number and alpha input rules.

Each input rule is written once, as a checker returning its problems as errors
that carry a JSON path; the constructors raise the first, the CLI reports all.
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
    """The frozen dataclass ``cls`` holding checked ``fields``, without their second check."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# The smallest int that float() rounds to infinity: 2**1024 - 2**970, halfway
# between the largest finite float and 2**1024.
_INT_LIMIT = 2 ** 1024 - 2 ** 970


def exact_fsum(values: list) -> float:
    """``math.fsum`` of a list of floats, and where that raises, the exact sum rounded as
    ``fractions.Fraction`` rounds it (+-inf from ``_INT_LIMIT`` on, NaN for +inf plus -inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        special = [v for v in values if not math.isfinite(v)]
    if special:  # that infinity, or NaN for a NaN (NaN != NaN) or infinities of both signs
        return special[0] if all(v == special[0] for v in special) else math.nan
    # the exact sum in units of 2**-1074, the smallest subnormal: int division rounds it
    ulps = sum(k << 1075 - d.bit_length() for k, d in map(float.as_integer_ratio, values))
    if abs(ulps) >= _INT_LIMIT << 1074:
        return math.inf if ulps > 0 else -math.inf
    return ulps / (1 << 1074)


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
