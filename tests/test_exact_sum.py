"""``exact_sum`` returns the bits of ``math.fsum``, sign of zero included, where that
returns; where it raises, the exact sum rounded through ``fractions.Fraction``: +-inf beyond
the float range and NaN for +inf plus -inf.  It never raises.  ``exact_dot`` rounds the exact
sum of its products once, with the same rules for non-finite entries; ``round_units`` rounds
that exact sum scaled by a power of two."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codiv.errors import _INT_LIMIT, exact_dot, exact_units, round_units
from codiv.measures import _EXACT_SUM_MIN_SIZE, exact_sum

SIZES = (1, 2, 255, 256, 257, _EXACT_SUM_MIN_SIZE - 1, _EXACT_SUM_MIN_SIZE,
         _EXACT_SUM_MIN_SIZE + 1, 4096, 100_000)
SPECIALS = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan, "max": 1.7976931348623157e308,
            "-max": -1.7976931348623157e308, "tiny": 5e-324, "-0": -0.0}


def outcome(f, x: np.ndarray):
    """The bits of f(x), or the type of the exception it raises."""
    try:
        return struct.pack("<d", f(x))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def reference(x: np.ndarray) -> float:
    """``math.fsum``, or where it raises the correctly rounded sum of the entries."""
    values = x.tolist()
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        pass
    if any(map(math.isnan, values)) or {math.inf, -math.inf} <= set(values):
        return math.nan
    if math.inf in values or -math.inf in values:
        return math.inf if math.inf in values else -math.inf
    total = sum(map(Fraction, values))
    if abs(total) >= _INT_LIMIT:  # float(total) would raise
        return math.inf if total > 0 else -math.inf
    return float(total)


@st.composite
def float_arrays(draw):
    """Arrays over exponent windows anywhere in the float range (subnormals included), with
    optional exact cancellation of all but a few entries scaled down by 2**-drop, so that
    the total depends on the last bits of small residuals; then zeros of either sign and
    special values."""
    n = draw(st.sampled_from(SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["window", "probability", "products"]))
    if shape == "window":
        lo = draw(st.integers(-1074, 1024))
        hi = min(1024, lo + draw(st.sampled_from([0, 1, 10, 40, 60, 120, 300, 2100])))
        mantissa = rng.integers(2 ** 52, 2 ** 53, n).astype(float)
        x = np.ldexp(mantissa, rng.integers(lo, hi + 1, n) - 53)
        x *= rng.choice([-1.0, 1.0], n) if draw(st.booleans()) else 1.0
    elif shape == "probability":
        u = rng.random(n) + 0.05
        x = u / math.fsum(u)
    else:
        x = rng.random(n) * rng.random(n) * (rng.random(n) - 0.5)
    drop = draw(st.sampled_from([None, 0, 20, 40, 60, 90, 120]))
    if drop is not None:  # exact cancellation: x with -x, leaving a few entries scaled down
        bulk = x[: (n - max(1, n // 16)) // 2]
        rest = np.ldexp(x[bulk.size: n - bulk.size], -drop)
        x = rng.permutation(np.concatenate([bulk, -bulk, rest]))
    zeros = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    picked = rng.random(n) < zeros
    x[picked] = rng.choice([0.0, -0.0], int(picked.sum()))
    for name in draw(st.lists(st.sampled_from(sorted(SPECIALS)), max_size=3)):
        x[rng.integers(n)] = SPECIALS[name]
    return x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(float_arrays())
def test_bits_equal_fsum(x):
    assert outcome(exact_sum, x) == outcome(reference, x)


def _where_fsum_raises(index, head, want):
    """The case of a head on which ``math.fsum`` raises, with an id naming the exception
    (collection fails if it does not raise), and ``want``, the exact sum rounded."""
    try:
        math.fsum(head)
    except (OverflowError, ValueError) as exc:
        error = type(exc).__name__
    return pytest.param(head, 0.0, struct.pack("<d", want), id=f"head{index}-0.0-{error}")


@pytest.mark.parametrize("n", SIZES[2:])
@pytest.mark.parametrize("head, fill, want", [
    _where_fsum_raises(0, [math.inf, -math.inf], math.nan),  # -inf + inf
    _where_fsum_raises(1, [1e308, 1e308, -1e308], 1e308),  # intermediate overflow
    _where_fsum_raises(2, [1e308, 1e308], math.inf),  # the total overflows
    ([], -0.0, struct.pack("<d", math.fsum([-0.0]))),
    ([1.0, -1.0], -0.0, struct.pack("<d", 0.0)),  # exact cancellation is +0
    _where_fsum_raises(5, [-1e308, -1e308], -math.inf),
])
def test_raises_and_zeros_like_fsum(n, head, fill, want):
    x = np.full(n, fill)
    x[: len(head)] = head
    assert outcome(reference, x) == want
    assert outcome(exact_sum, x) == want


def rounded(total: Fraction) -> float:
    """A Fraction rounded to the nearest float, +-inf from ``_INT_LIMIT`` on."""
    return float(total) if abs(total) < _INT_LIMIT else math.inf if total > 0 else -math.inf


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=4),
       st.integers(-2148, 2148))
@example([(1.0, 1.0)], -1075)  # half the smallest subnormal: a tie, to 0
@example([(3.0, -1.0)], -1075)  # a tie between subnormals, to the even -2**-1073
@example([(5e-324, 5e-324), (5e-324, -3e-323)], 2148)  # products of subnormals, scaled to -5.0
@example([(1.7976931348623157e308, 2.0)], -1)  # the largest float, exactly
def test_exact_dot_rounds_the_exact_sum_once(pairs, scale):
    """Finite entries: the sum of the products as a Fraction, rounded once, and so is that
    sum times 2**scale, subnormal and infinite results included.  Otherwise NaN for a NaN
    entry, for 0 * inf and for infinite products of both signs, else that infinity,
    whatever the finite products add, and 2**scale leaves it as it is."""
    got = exact_dot(*zip(*pairs))
    scaled = round_units(exact_units(*zip(*pairs)), scale)
    entries = [x for pair in pairs for x in pair]
    if not all(map(math.isfinite, entries)):
        assert struct.pack("<d", scaled) == struct.pack("<d", got)
    infinite = {math.copysign(1.0, a) * math.copysign(1.0, b) for a, b in pairs
                if math.isinf(a) or math.isinf(b)}
    if any(map(math.isnan, entries)) or any(
            0.0 in (a, b) and (math.isinf(a) or math.isinf(b)) for a, b in pairs):
        assert math.isnan(got)
    elif len(infinite) == 2:
        assert math.isnan(got)
    elif infinite:
        assert got == math.inf * infinite.pop()
    else:
        total = sum(Fraction(a) * Fraction(b) for a, b in pairs)
        assert struct.pack("<d", got) == struct.pack("<d", rounded(total))
        assert struct.pack("<d", scaled) == struct.pack("<d", rounded(total * Fraction(2) ** scale))
