"""Exact distances and grades as text.

Distances and length grades are exact rationals, never floats: the length
grading of magnitude chains is an exact index and every grade comparison
must be an exact equality test.  A distance is a nonnegative Fraction, or
None for an unreachable pair, written 'inf'; a grade is always finite.
"""

from __future__ import annotations

from fractions import Fraction


_INFINITE = ("inf", "infinity", "oo")


def _parse_finite(text: str, forms: str) -> Fraction:
    """A nonnegative 'p/q' or integer literal; a refusal of any other text
    lists the accepted forms."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"expected {forms}, got {text!r}") from None
    if value < 0:
        raise ValueError(f"distances must be nonnegative, got {value}")
    return value


def parse_rational(text: str) -> Fraction | None:
    """Parse a nonnegative 'p/q' or integer literal, or 'inf' (None)."""
    text = text.strip()
    if text.lower() in _INFINITE:
        return None
    return _parse_finite(text, "p/q, an integer or inf")


def format_rational(x: Fraction | None) -> str:
    return "inf" if x is None else format_grade(x)


def parse_grade(text: str) -> Fraction:
    """Parse a finite grade; grades of chain blocks are never infinite."""
    text = text.strip()
    if text.lower() in _INFINITE:
        raise ValueError("infinite distance has no finite value")
    return _parse_finite(text, "p/q or an integer")


def format_grade(l: Fraction) -> str:
    if l.denominator == 1:
        return str(l.numerator)
    return f"{l.numerator}/{l.denominator}"
