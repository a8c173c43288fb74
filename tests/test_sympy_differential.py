"""Differential tests of the exact linear algebra against sympy.

sympy is a test-only oracle: the module is skipped when it is absent.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from subshift_lab.markov import _poisson_solution, recurrent_classes
from subshift_lab.salem import _irreducible_reciprocal_quartic
from subshift_lab.substitution import (
    Substitution,
    char_poly,
    eigenvector_for,
    is_primitive,
    matrix_of,
)
from test_markov import hypothesis_digit_chains

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


def test_reciprocal_quartic_rule_matches_sympy_factoring():
    # the range holds reducible quartics of both kinds: a root +-1, such as
    # P_0 = (x - 1)^2 (x^2 - 4x + 1), and two quadratics with roots off the
    # circle, such as (x^2 - 3x + 1)(x^2 + 4x + 1), which the old test of
    # +-1 and the three cyclotomic quadratics took for irreducible
    x = sympy.Symbol("x")
    verdicts = set()
    for a in [*range(-12, 0), *range(1, 13)]:
        for b in range(-12, 13):
            quartic = sympy.Poly(x**4 + a * x**3 + b * x**2 + a * x + 1, x)
            verdict = _irreducible_reciprocal_quartic(a, b)
            assert verdict == quartic.is_irreducible, (a, b)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _rational(x):
    return sympy.Rational(x.numerator, x.denominator)


def _class_matrix(chain, states):
    """The transition matrix of a closed class as a sympy matrix."""
    local = {s: i for i, s in enumerate(states)}
    p = sympy.zeros(len(states), len(states))
    for s in states:
        for e in chain.edges[s]:
            p[local[s], local[e.target]] += _rational(e.prob)
    return p


@given(hypothesis_digit_chains())
def test_stationary_law_spans_sympy_nullspace(chain):
    for cls in recurrent_classes(chain):
        p = _class_matrix(chain, cls.states)
        basis = (p.T - sympy.eye(len(cls.states))).nullspace()
        pi = sympy.Matrix([_rational(cls.stationary[s]) for s in cls.states])
        # a closed class is irreducible: its stationary line is the nullspace
        assert len(basis) == 1
        assert sympy.Matrix.hstack(basis[0], pi).rank() == 1
        assert sum(pi) == 1


@given(hypothesis_digit_chains())
def test_poisson_solution_solves_sympy_system(chain):
    for cls in recurrent_classes(chain):
        if cls.mean != 0:
            continue
        k = len(cls.states)
        p = _class_matrix(chain, cls.states)
        gbar = sympy.Matrix(
            [sum(_rational(e.prob * e.payoff) for e in chain.edges[s]) for s in cls.states]
        )
        # (I - P) h = gbar with h(root) = 0; unique, as the class is irreducible
        pin = sympy.zeros(1, k)
        pin[0, 0] = 1
        system = (sympy.eye(k) - p).col_join(pin)
        expected, params = system.gauss_jordan_solve(gbar.col_join(sympy.zeros(1, 1)))
        assert params.shape[0] == 0
        h, den = _poisson_solution(chain, cls.states)
        assert sympy.Matrix([sympy.Rational(x, den) for x in h]) == expected
