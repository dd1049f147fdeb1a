"""Exception hierarchy shared by all codiv modules, and the number and alpha input rules.

Each input rule is written once, as a checker returning its problems as errors
that carry a JSON path; the constructors raise the first, the CLI reports all.
"""


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


# The smallest int that float() rounds to infinity: 2**1024 - 2**970, halfway
# between the largest finite float and 2**1024.
_INT_LIMIT = 2 ** 1024 - 2 ** 970


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
