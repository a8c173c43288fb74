"""The integer elimination of ``linalg.eliminate`` against the Fraction loop it replaced."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subshift_lab.linalg import (
    common_numerators,
    eliminate,
    kernel_vector,
    mat_mul,
    solve_consistent,
)


def _reference_rref(m):
    """The dense ``Fraction`` Gauss-Jordan loop that ``eliminate`` replaced."""
    m = [row[:] for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def _matrices(draw, rows=st.integers(0, 6), cols=st.integers(0, 6)):
    """Rational matrices: full or low rank, tall or wide, with zero rows and
    columns spliced in; 0 rows gives the empty matrix."""
    n, m = draw(rows), draw(cols)
    if not n:
        return []
    if draw(st.booleans()):
        # a product of n x k and k x m factors has rank at most k
        k = draw(st.integers(0, max(0, min(n, m) - 1)))
        left = [[draw(_rationals) for _ in range(k)] for _ in range(n)]
        right = [[draw(_rationals) for _ in range(m)] for _ in range(k)]
        a = mat_mul(left, right) if k else [[Fraction(0)] * m for _ in range(n)]
    else:
        a = [[draw(_rationals) for _ in range(m)] for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        a[i] = [Fraction(0)] * m
    for j in draw(st.lists(st.integers(0, m - 1), max_size=2)) if m else ():
        for row in a:
            row[j] = Fraction(0)
    return a


def _rref(m):
    """``eliminate``'s rows read as the RREF: each row over the last pivot,
    which must be a positive int over int rows."""
    rows, pivots, last = eliminate(m)
    assert type(last) is int and last > 0
    assert all(type(x) is int for row in rows for x in row)
    return [[Fraction(x, last) for x in row] for row in rows], pivots


@given(_matrices())
def test_rref_matches_fraction_loop(m):
    assert _rref(m) == _reference_rref(m)


@pytest.mark.parametrize("m", [[], [[]], [[], []], [[0, 0]], [[Fraction(1, 2)], [Fraction(3)]]])
def test_rref_of_degenerate_shapes(m):
    assert _rref(m) == _reference_rref(m)


def test_rref_takes_int_rows_and_leaves_them_alone():
    m = [[2, 4, 6], [1, 3, 5]]
    assert eliminate(m) == ([[2, 0, -2], [0, 2, 4]], [0, 1], 2)
    assert _rref(m) == ([[1, 0, -1], [0, 1, 2]], [0, 1])
    assert m == [[2, 4, 6], [1, 3, 5]]


def test_eliminate_makes_a_negative_last_pivot_positive():
    # the Bareiss pivots are 1 and then det = -2: every row changes sign
    assert eliminate([[1, 2], [3, 4]]) == ([[2, 0], [0, 2]], [0, 1], 2)
    assert eliminate([[-3]]) == ([[3]], [0], 3)


@given(_matrices(rows=st.integers(1, 6), cols=st.integers(1, 6)), st.data())
def test_solve_consistent_solves_consistent_systems(a, data):
    x = [data.draw(_rationals) for _ in a[0]]
    b = [sum((u * v for u, v in zip(row, x)), Fraction(0)) for row in a]
    nums, den = solve_consistent(a, b)
    assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
    y = [Fraction(v, den) for v in nums]
    assert [sum((u * v for u, v in zip(row, y)), Fraction(0)) for row in a] == b


@given(_matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)), st.data())
def test_solve_consistent_rejects_inconsistent_systems(a, data):
    # a repeated row with a different right-hand side cannot be met
    i = data.draw(st.integers(0, len(a) - 1))
    b = [data.draw(_rationals) for _ in a]
    with pytest.raises(ValueError, match="inconsistent"):
        solve_consistent(a + [a[i]], b + [b[i] + 1])


@given(_matrices(rows=st.integers(1, 6), cols=st.integers(1, 6)))
def test_kernel_vector_is_none_exactly_on_nonsingular_matrices(a):
    n = min(len(a), len(a[0]))
    square = [row[:n] for row in a[:n]]
    _, pivots = _reference_rref(square)
    v = kernel_vector(square)
    if len(pivots) == n:
        assert v is None
    else:
        assert v is not None and all(type(x) is int for x in v) and math.gcd(*v) == 1
        assert all(sum((u * w for u, w in zip(row, v)), Fraction(0)) == 0 for row in square)


def test_kernel_vector_of_nonsingular_matrices_is_none():
    assert kernel_vector([[1, 0], [0, 1]]) is None
    assert kernel_vector([[Fraction(1, 2), 3], [1, Fraction(-1, 3)]]) is None
    assert kernel_vector([[1, 2], [2, 4]]) == [-2, 1]


@given(
    st.lists(
        st.one_of(
            st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)),
            st.integers(-10**6, 10**6),
        ),
        max_size=12,
    )
)
@example([])
def test_common_numerators_match_the_per_value_formula(values):
    nums, den = common_numerators(values)
    expected = math.lcm(*(Fraction(x).denominator for x in values))
    assert den == expected
    assert nums == [int(Fraction(x) * expected) for x in values]
    assert all(type(n) is int for n in nums)
