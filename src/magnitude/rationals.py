"""Exact extended nonnegative rationals: values in [0, oo].

Distances and length grades are exact rationals (or the symbol INF), never
floats: the length grading of magnitude chains is an exact index and every
grade comparison must be an exact equality test.  INF is a genuine sentinel
that absorbs addition, not a large number.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering


@total_ordering
class ExtendedRational:
    """A nonnegative rational number or infinity, immutable and hashable."""

    __slots__ = ("_value",)

    def __init__(self, value=0):
        if isinstance(value, ExtendedRational):
            self._value = value._value
        elif value is None:
            self._value = None
        else:
            v = Fraction(value)
            if v < 0:
                raise ValueError(f"distances must be nonnegative, got {v}")
            self._value = v

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    @property
    def value(self) -> Fraction:
        """The underlying Fraction; raises on INF."""
        if self._value is None:
            raise ValueError("infinite distance has no finite value")
        return self._value

    def __add__(self, other: "ExtendedRational") -> "ExtendedRational":
        other = ExtendedRational(other)
        if self._value is None or other._value is None:
            return INF
        return ExtendedRational(self._value + other._value)

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtendedRational):
            return self._value == other._value
        if isinstance(other, (int, Fraction)):
            return self._value == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtendedRational):
            other = ExtendedRational(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return f"ExtendedRational({format_rational(self)!r})"

    def __str__(self):
        return format_rational(self)


INF = ExtendedRational.__new__(ExtendedRational)
INF._value = None


def parse_rational(text: str) -> ExtendedRational:
    """Parse 'p/q', an integer literal, or 'inf'."""
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return INF
    try:
        return ExtendedRational(Fraction(text))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: ExtendedRational) -> str:
    if x.is_infinite:
        return "inf"
    v = x.value
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def parse_grade(text: str) -> Fraction:
    """Parse a finite grade; grades of chain blocks are never infinite."""
    x = parse_rational(text)
    return x.value


def format_grade(l: Fraction) -> str:
    if l.denominator == 1:
        return str(l.numerator)
    return f"{l.numerator}/{l.denominator}"
