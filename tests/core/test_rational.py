"""Tests for exact rational time arithmetic."""

import math
from fractions import Fraction

import pytest

from repro.core.rational import ONE, ZERO, Rational, as_rational
from repro.errors import RationalConversionError


class TestConstruction:
    def test_from_ints(self):
        assert Rational(3, 4) == Fraction(3, 4)

    def test_from_string(self):
        assert Rational("29.97") == Fraction(2997, 100)

    def test_from_fraction(self):
        assert Rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_from_tuple(self):
        assert Rational((30000, 1001)) == Fraction(30000, 1001)

    def test_tuple_with_denominator_rejected(self):
        with pytest.raises(TypeError):
            Rational((1, 2), 3)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Rational(0.5)

    def test_float_denominator_rejected(self):
        with pytest.raises(TypeError):
            Rational(1, 2.0)

    def test_from_float_explicit(self):
        assert Rational.from_float(0.5) == Fraction(1, 2)

    def test_from_float_limits_denominator(self):
        value = Rational.from_float(1 / 3)
        assert value == Fraction(1, 3)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
    ])
    def test_from_float_non_finite_is_typed(self, value):
        with pytest.raises(RationalConversionError, match="non-finite"):
            Rational.from_float(value)
        with pytest.raises(RationalConversionError, match="non-finite"):
            as_rational(value)

    def test_normalization(self):
        assert Rational(2, 4) == Rational(1, 2)

    def test_zero_and_one_constants(self):
        assert ZERO == 0
        assert ONE == 1


class TestArithmeticClosure:
    """Arithmetic must return Rational, not plain Fraction."""

    @pytest.mark.parametrize("expression", [
        lambda: Rational(1, 2) + Rational(1, 3),
        lambda: Rational(1, 2) - Rational(1, 3),
        lambda: Rational(1, 2) * Rational(2, 3),
        lambda: Rational(1, 2) / Rational(2, 3),
        lambda: Rational(7, 2) % Rational(2),
        lambda: -Rational(1, 2),
        lambda: +Rational(1, 2),
        lambda: abs(Rational(-1, 2)),
        lambda: Rational(1, 2) ** 2,
        lambda: 1 + Rational(1, 2),
        lambda: 1 - Rational(1, 2),
        lambda: 2 * Rational(1, 2),
        lambda: 1 / Rational(1, 2),
    ])
    def test_closed(self, expression):
        assert isinstance(expression(), Rational)

    def test_ntsc_identity(self):
        ntsc = Rational(30000, 1001)
        assert ntsc * (1 / ntsc) == 1

    def test_exactness_over_an_hour(self):
        # 29.97 vs 30000/1001 diverge by ~3.6 frames/hour; exact math
        # keeps frame 107892 at exactly 3600.2892 seconds.
        frame = 107892
        seconds = Rational(frame) / Rational(30000, 1001)
        assert seconds == Rational(frame * 1001, 30000)


class TestHelpers:
    def test_to_seconds(self):
        assert Rational(1, 2).to_seconds() == 0.5

    def test_timestamp_minutes(self):
        assert Rational(130).to_timestamp() == "2:10.000"

    def test_timestamp_hours(self):
        assert Rational(3661).to_timestamp() == "1:01:01.000"

    def test_timestamp_millis(self):
        assert Rational(1, 4).to_timestamp() == "0:00.250"

    def test_timestamp_negative(self):
        assert Rational(-90).to_timestamp() == "-1:30.000"

    def test_repr(self):
        assert repr(Rational(3, 4)) == "Rational(3, 4)"

    def test_as_rational_passthrough(self):
        value = Rational(1, 3)
        assert as_rational(value) is value

    def test_as_rational_accepts_float(self):
        assert as_rational(0.25) == Rational(1, 4)

    def test_as_rational_accepts_int(self):
        assert as_rational(7) == Rational(7)

    def test_as_rational_accepts_string(self):
        assert as_rational("3/4") == Rational(3, 4)

    def test_hashable_like_fraction(self):
        assert hash(Rational(1, 2)) == hash(Fraction(1, 2))


class TestSingleNormalization:
    """Rational/int arithmetic and comparisons never go through
    ``Fraction.__new__``: each result is built once, already in lowest
    terms, instead of by Fraction and then again by a re-wrap."""

    def test_no_fraction_construction(self, monkeypatch):
        a, b = Rational(30000, 1001), Rational(-7, 6)
        calls = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        Rational(1, 2)
        assert calls, "the counter is not on Fraction.__new__"
        calls.clear()

        for other in (b, 3, -2):
            results = [a + other, other + a, a - other, other - a,
                       a * other, other * a, a / other, other / a]
            compared = [a == other, a != other, a < other, a <= other,
                        a > other, a >= other, other < a, other == a]
            assert all(type(r) is Rational for r in results)
            assert all(type(c) is bool for c in compared)
        unary = [-a, +a, abs(b)]
        assert all(type(r) is Rational for r in unary)
        assert calls == []

    def test_equal_to_float_only_when_exact(self):
        assert Rational(1, 2) == 0.5
        assert hash(Rational(1, 2)) == hash(0.5)
        assert Rational(1, 3) != 1 / 3
        assert Fraction(1, 3) != 1 / 3
        assert not Rational(1, 3) <= 1 / 3
        assert Rational(1, 3) > 1 / 3
