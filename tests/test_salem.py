import pytest

from subshift_lab.salem import (
    _irreducible_reciprocal_quartic,
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
    # s + t = -P_1[1] = 7 and s * t = P_1[2] - 2 = 9
    assert -report.poly[1] == 7 and report.poly[2] - 2 == 9
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


def test_irreducibility_rule_detects_factors():
    # (X^2 + 1)(X^2 - 3X + 1) has a cyclotomic factor
    assert not _irreducible_reciprocal_quartic(-3, 2)
    # P_0 = (X^2 - 2X + 1)(X^2 - 4X + 1), one step before the family
    assert closed_form_poly(0) == [1, -6, 10, -6, 1]
    assert not _irreducible_reciprocal_quartic(-6, 10)
    assert _irreducible_reciprocal_quartic(-7, 11)
