from fractions import Fraction

import pytest

from magnitude.rationals import format_rational, parse_grade, parse_rational


def test_negative_rejected():
    for text in ("-1", "-1/3", "1/-3"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_grade("-2")


def test_parse_format_roundtrip():
    for text in ("0", "7", "3/4", "inf"):
        assert format_rational(parse_rational(text)) == text
    assert parse_rational("6/8") == Fraction(3, 4)
    assert parse_rational("inf") is None
    assert parse_grade("5/2") == Fraction(5, 2)
    # decimal text is read exactly, not through a binary float
    assert parse_rational("0.1") == Fraction(1, 10)


def test_infinite_and_undefined_grades_rejected():
    for text in ("inf", "oo", "1/0"):
        with pytest.raises(ValueError):
            parse_grade(text)
