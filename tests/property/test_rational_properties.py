"""Property tests for :class:`repro.core.rational.Rational` arithmetic.

``Rational`` computes ``Rational``/``int`` arithmetic and comparisons
itself and hands every other operand to ``Fraction``. Whichever path an
operation takes, it must agree with plain ``Fraction`` on the same
operands: the same value, in lowest terms with a positive denominator,
a ``Rational`` wherever the result is rational (a ``float`` for float
operands), the numeric-tower hash, the same comparison outcome and the
same ``ZeroDivisionError``.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.rational import Rational

NTSC = Rational(30000, 1001)

rationals = st.one_of(
    st.builds(Rational, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.builds(Rational, st.integers(-10**30, 10**30),
              st.sampled_from([1, 2, 1001, 30000, 44100, 2**40])),
    st.integers(-5, 5).map(Rational),
)
operands = st.one_of(
    rationals,
    st.integers(-10**6, 10**6),
    st.integers(-2**80, 2**80),
    st.sampled_from([0, 1, -1]),
    st.booleans(),
    st.fractions(max_denominator=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)

BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
COMPARE = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
UNARY = {"neg": operator.neg, "pos": operator.pos, "abs": operator.abs}


def plain(value):
    """The operand as plain Fraction arithmetic would see it."""
    return Fraction(value) if isinstance(value, Rational) else value


def outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError as exc:
        return exc


def assert_canonical(value):
    assert type(value) is Rational
    assert value.denominator > 0
    assert math.gcd(value.numerator, value.denominator) == 1


def assert_numeric_hash(value):
    assert hash(value) == hash(Fraction(value))
    if value.denominator == 1:
        assert hash(value) == hash(value.numerator)
    if float(value) == value:
        assert hash(value) == hash(float(value))


def assert_agrees(actual, expected):
    if isinstance(expected, ZeroDivisionError):
        assert isinstance(actual, ZeroDivisionError)
        assert str(actual) == str(expected)
    elif isinstance(expected, Fraction):
        assert actual == expected
        assert_canonical(actual)
        assert_numeric_hash(actual)
    else:
        assert type(expected) is float
        assert type(actual) is float
        assert actual == expected


@pytest.mark.parametrize("symbol", sorted(BINARY))
@given(left=rationals, right=operands)
def test_binary_rational_on_left(symbol, left, right):
    op = BINARY[symbol]
    assert_agrees(outcome(op, left, right),
                  outcome(op, Fraction(left), right))


@pytest.mark.parametrize("symbol", sorted(BINARY))
@given(left=operands, right=rationals)
def test_binary_rational_on_right(symbol, left, right):
    op = BINARY[symbol]
    assert_agrees(outcome(op, left, right),
                  outcome(op, plain(left), Fraction(right)))


@pytest.mark.parametrize("symbol", sorted(COMPARE))
@given(left=rationals, right=operands)
def test_comparison_rational_on_left(symbol, left, right):
    op = COMPARE[symbol]
    actual = op(left, right)
    assert type(actual) is bool
    assert actual == op(Fraction(left), plain(right))


@pytest.mark.parametrize("symbol", sorted(COMPARE))
@given(left=operands, right=rationals)
def test_comparison_rational_on_right(symbol, left, right):
    op = COMPARE[symbol]
    actual = op(left, right)
    assert type(actual) is bool
    assert actual == op(plain(left), Fraction(right))


@pytest.mark.parametrize("name", sorted(UNARY))
@given(value=rationals)
def test_unary(name, value):
    op = UNARY[name]
    assert_agrees(op(value), op(Fraction(value)))


@given(value=operands)
def test_hash_matches_equal_numbers(value):
    if isinstance(value, float):
        exact = Rational(*value.as_integer_ratio())
    else:
        exact = Rational(value)
    assert exact == value
    assert hash(exact) == hash(value)
    assert_numeric_hash(exact)


@given(frame=st.integers(0, 10**7))
def test_ntsc_frame_times_round_trip(frame):
    # Def. 2: D_f(i) = i / f, exactly, and back.
    at = frame / NTSC
    assert at == Rational(frame * 1001, 30000)
    assert_canonical(at)
    assert at * NTSC == frame
    assert Rational(frame) / NTSC * NTSC == frame
    assert (at + 1 / NTSC) * NTSC == frame + 1
    assert at - frame * Rational(1001, 30000) == 0
