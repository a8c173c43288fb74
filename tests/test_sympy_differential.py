"""Differential tests of the exact linear algebra against sympy.

sympy is a test-only oracle: the module is skipped when it is absent.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from subshift_lab.substitution import (
    Substitution,
    char_poly,
    eigenvector_for,
    is_primitive,
    matrix_of,
)

sympy = pytest.importorskip("sympy")


@st.composite
def primitive_substitutions(draw):
    n = draw(st.integers(1, 4))
    images = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)) for _ in range(n)]
    sub = Substitution.from_words(images)
    assume(is_primitive(sub))
    return sub


@given(primitive_substitutions())
def test_char_poly_matches_sympy(sub):
    m = matrix_of(sub)
    x = sympy.Symbol("x")
    expected = sympy.Matrix(m).charpoly(x).all_coeffs()
    assert char_poly(m) == [int(c) for c in expected]


@given(primitive_substitutions())
def test_eigenvector_spans_sympy_nullspace(sub):
    m = matrix_of(sub)
    radius = max(sum(row) for row in m)  # bounds every eigenvalue's modulus
    thetas = [Fraction(k) for k in range(-radius, radius + 1)] + [Fraction(1, 2)]
    for theta in thetas:
        shifted = sympy.Matrix(m) - sympy.Rational(theta.numerator, theta.denominator) * sympy.eye(
            len(m)
        )
        basis = shifted.nullspace()
        v = eigenvector_for(m, theta)
        if not basis:
            assert v is None
            continue
        assert v is not None and v.theta == theta
        ints = [int(x) for x in v.values]
        assert gcd(*ints) == 1 and next(x for x in ints if x) > 0
        column = sympy.Matrix(ints)
        assert shifted * column == sympy.zeros(len(m), 1)
        # v lies in the nullspace, and spans it when it is one-dimensional
        assert sympy.Matrix.hstack(*basis, column).rank() == len(basis)
