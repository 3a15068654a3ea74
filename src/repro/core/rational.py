"""Exact rational arithmetic for media timing.

Media time must be exact: NTSC video runs at 30000/1001 frames per second
and rounding to 29.97 accumulates visible drift within minutes. The model
therefore measures all continuous time values as rationals.

:class:`Rational` is a thin subclass of :class:`fractions.Fraction` that

* keeps arithmetic closed over ``Rational`` (Fraction arithmetic returns
  plain ``Fraction``; we re-wrap so helper methods stay available), and
  computes ``Rational``/``int`` arithmetic and comparisons itself, so
  each result is normalized once instead of once by ``Fraction`` and
  again by the re-wrap,
* refuses inexact ``float`` construction unless explicitly requested via
  :meth:`Rational.from_float`, because silently rationalizing binary
  floats is the classic source of timing drift bugs, and
* adds media-oriented helpers (``to_seconds``, ``to_timestamp``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite
from typing import Union

from repro.errors import RationalConversionError

RationalLike = Union["Rational", Fraction, int, str, tuple]


class Rational(Fraction):
    """An exact rational number used for continuous time values.

    Examples
    --------
    >>> Rational(30000, 1001) * Rational(1001, 30000)
    Rational(1, 1)
    >>> Rational("29.97")
    Rational(2997, 100)
    """

    __slots__ = ()

    def __new__(cls, numerator: RationalLike = 0, denominator: int | None = None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise RationalConversionError(
                "refusing to construct Rational from float; "
                "use Rational.from_float() if the rounding is intended"
            )
        if isinstance(numerator, tuple):
            if denominator is not None:
                raise RationalConversionError(
                    "cannot pass denominator with tuple numerator"
                )
            numerator, denominator = numerator
        return super().__new__(cls, numerator, denominator)

    @classmethod
    def from_float(cls, value: float) -> "Rational":
        """Construct from a float, limiting the denominator sensibly.

        The denominator is limited to 10**9 which is ample for any media
        rate while avoiding the pathological exact binary expansions of
        ``Fraction(float)``. ``nan`` and ``±inf`` have no rational
        value and raise :class:`~repro.errors.RationalConversionError`.
        """
        if isinstance(value, float) and not isfinite(value):
            raise RationalConversionError(
                f"cannot convert non-finite {value!r} to Rational"
            )
        return cls(Fraction(value).limit_denominator(10**9))

    # -- closed arithmetic ---------------------------------------------------
    #
    # Operands of type Rational or exact int take a fast path: the result
    # is computed from ``_numerator``/``_denominator`` with the same gcd
    # reductions as ``Fraction._add``/``_mul``/``_div`` and built once,
    # already in lowest terms, by ``_make``. ``n/d ± k`` for an int ``k``
    # needs no gcd at all: gcd(n ± k·d, d) = gcd(n, d) = 1. Any other
    # operand (Fraction, float, complex, bool, a zero divisor) goes
    # through ``Fraction`` and ``_wrap``, so its result type and
    # exceptions are Fraction's.

    def _wrap(self, value):
        if isinstance(value, Fraction) and not isinstance(value, Rational):
            return Rational(value)
        return value

    def __add__(a, b):
        if type(b) is Rational:
            return _add(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if type(b) is int:
            return _make(a._numerator + b * a._denominator, a._denominator)
        return a._wrap(super().__add__(b))

    def __radd__(a, b):
        if type(b) is int:
            return _make(b * a._denominator + a._numerator, a._denominator)
        return a._wrap(super().__radd__(b))

    def __sub__(a, b):
        if type(b) is Rational:
            return _add(a._numerator, a._denominator,
                        -b._numerator, b._denominator)
        if type(b) is int:
            return _make(a._numerator - b * a._denominator, a._denominator)
        return a._wrap(super().__sub__(b))

    def __rsub__(a, b):
        if type(b) is int:
            return _make(b * a._denominator - a._numerator, a._denominator)
        return a._wrap(super().__rsub__(b))

    def __mul__(a, b):
        if type(b) is Rational:
            return _mul(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if type(b) is int:
            return _mul(a._numerator, a._denominator, b, 1)
        return a._wrap(super().__mul__(b))

    def __rmul__(a, b):
        if type(b) is int:
            return _mul(b, 1, a._numerator, a._denominator)
        return a._wrap(super().__rmul__(b))

    def __truediv__(a, b):
        if type(b) is Rational and b._numerator:
            return _div(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        if type(b) is int and b:
            return _div(a._numerator, a._denominator, b, 1)
        return a._wrap(super().__truediv__(b))

    def __rtruediv__(a, b):
        if type(b) is int and a._numerator:
            return _div(b, 1, a._numerator, a._denominator)
        return a._wrap(super().__rtruediv__(b))

    def __mod__(self, other):
        return self._wrap(super().__mod__(other))

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __pos__(a):
        return _make(a._numerator, a._denominator)

    def __abs__(a):
        return _make(abs(a._numerator), a._denominator)

    def __pow__(self, other):
        return self._wrap(super().__pow__(other))

    # -- comparisons ----------------------------------------------------------
    #
    # Both sides are in lowest terms with positive denominators, so
    # equality is field equality and order is cross-multiplication.
    # Fraction compares with a float through ``self.from_float``, which
    # here rounds the float to a nearby rational: ``_exact`` hands it
    # the float's exact value instead, so ``Rational(1, 3) != 1 / 3``
    # as for Fraction and equal values keep equal hashes.

    def __eq__(a, b):
        if type(b) is Rational:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return super().__eq__(_exact(b))

    # Defining __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

    def __lt__(a, b):
        if type(b) is Rational:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if type(b) is int:
            return a._numerator < b * a._denominator
        return super().__lt__(_exact(b))

    def __le__(a, b):
        if type(b) is Rational:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator <= b * a._denominator
        return super().__le__(_exact(b))

    def __gt__(a, b):
        if type(b) is Rational:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if type(b) is int:
            return a._numerator > b * a._denominator
        return super().__gt__(_exact(b))

    def __ge__(a, b):
        if type(b) is Rational:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator >= b * a._denominator
        return super().__ge__(_exact(b))

    def __float__(a):
        # numbers.Rational's int(numerator) / int(denominator), without
        # the property lookups.
        return a._numerator / a._denominator

    # -- media helpers --------------------------------------------------------

    def to_seconds(self) -> float:
        """Return the value as float seconds (for display only)."""
        return self.numerator / self.denominator

    def to_timestamp(self) -> str:
        """Render as ``H:MM:SS.mmm`` (or ``M:SS.mmm`` under an hour).

        >>> Rational(130).to_timestamp()
        '2:10.000'
        """
        total_ms = round(self * 1000)
        sign = "-" if total_ms < 0 else ""
        total_ms = abs(total_ms)
        ms = total_ms % 1000
        total_s = total_ms // 1000
        seconds = total_s % 60
        minutes = (total_s // 60) % 60
        hours = total_s // 3600
        if hours:
            return f"{sign}{hours}:{minutes:02d}:{seconds:02d}.{ms:03d}"
        return f"{sign}{minutes}:{seconds:02d}.{ms:03d}"

    def __repr__(self) -> str:
        return f"Rational({self.numerator}, {self.denominator})"


_new = object.__new__


def _exact(value):
    """A finite float as its exact Fraction; any other value unchanged."""
    if isinstance(value, float) and isfinite(value):
        return Fraction(*value.as_integer_ratio())
    return value


def _make(numerator: int, denominator: int) -> Rational:
    """A Rational from terms already in lowest form, denominator > 0."""
    result = _new(Rational)
    result._numerator = numerator
    result._denominator = denominator
    return result


def _add(na: int, da: int, nb: int, db: int) -> Rational:
    """``na/da + nb/db`` with ``Fraction._add``'s reductions."""
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> Rational:
    """``na/da * nb/db`` with ``Fraction._mul``'s reductions."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _make(na * nb, db * da)


def _div(na: int, da: int, nb: int, db: int) -> Rational:
    """``(na/da) / (nb/db)`` for ``nb != 0``, as ``Fraction._div``."""
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        return _make(-n, -d)
    return _make(n, d)


#: Zero as a Rational, shared to avoid repeated construction.
ZERO = Rational(0)

#: One as a Rational.
ONE = Rational(1)


def as_rational(value: RationalLike | float) -> Rational:
    """Coerce ``value`` to :class:`Rational`.

    Unlike the constructor this accepts floats (via
    :meth:`Rational.from_float`) because it is the explicit conversion
    point for user-facing APIs.
    """
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        return Rational.from_float(value)
    return Rational(value)
