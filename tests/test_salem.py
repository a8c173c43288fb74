from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_lab.linalg import poly_divmod
from subshift_lab.salem import (
    closed_form_poly,
    salem_check,
    salem_substitution,
)
from subshift_lab.substitution import char_poly, matrix_of


def test_family_images():
    sub = salem_substitution(1)
    assert sub.render(sub.image(2)) == "14232324"
    assert sub.render(sub.image(3)) == "142324"
    for n in (1, 2, 7):
        lengths = salem_substitution(n).image_lengths()
        assert lengths == (2, 5, 2 * n + 6, 2 * n + 4)
    with pytest.raises(ValueError):
        salem_substitution(0)


def test_salem_check_n1():
    report = salem_check(1)
    assert report.poly == [1, -7, 11, -7, 1]
    assert report.salem
    assert abs(report.s_value - 1.697224362268) < 1e-9
    assert report.trace_sum == 7 and report.trace_product == 9
    assert report.s_value + report.t_value == pytest.approx(7.0)
    assert report.s_value * report.t_value == pytest.approx(9.0)


def test_salem_check_n5():
    report = salem_check(5)
    assert report.poly == [1, -11, 15, -11, 1]
    assert report.salem


def test_family_closed_form_and_palindrome():
    for n in range(1, 51):
        poly = char_poly(matrix_of(salem_substitution(n)))
        assert poly == closed_form_poly(n)
        assert poly == poly[::-1]


def test_poly_divmod_detects_factors():
    # (X^2 + 1)(X^2 - 3X + 1) has a cyclotomic factor
    product = [1, -3, 2, -3, 1]
    quotient, remainder = poly_divmod(product, [1, 0, 1])
    assert all(r == 0 for r in remainder)
    assert quotient == [1, -3, 1]
    _, remainder = poly_divmod([1, -7, 11, -7, 1], [1, 0, 1])
    assert any(r != 0 for r in remainder)


def _reference_poly_divmod(num, den):
    """The Fraction long division that poly_divmod ran before."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    out = []
    rem = num[:]
    dn = len(den)
    while len(rem) >= dn:
        lead = rem[0] / den[0]
        out.append(lead)
        for i in range(dn):
            rem[i] -= lead * den[i]
        assert rem[0] == 0
        rem.pop(0)
    return out, rem


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=0, max_size=12),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
)
def test_poly_divmod_matches_fraction_division(num, lead, tail):
    den = [lead, *tail]
    quotient, remainder = poly_divmod(num, den)
    assert (quotient, remainder) == _reference_poly_divmod(num, den)
    assert all(type(c) is int for c in quotient + remainder)


@pytest.mark.parametrize("den", [[2, 0, 1], [0, 1, 1], [3]])
def test_poly_divmod_rejects_non_unit_leading_coefficient(den):
    with pytest.raises(ValueError, match="leading coefficient"):
        poly_divmod([1, 2, 3, 4], den)


def test_poly_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2, 3], [0, 0])
