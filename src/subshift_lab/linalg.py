"""Exact rational linear algebra over small dense matrices.

Inputs and results are ``fractions.Fraction`` (or plain ints), and the
functions serve the small systems that show up in this package: kernels of
``M - theta*I``, stationary distributions, absorption probabilities and
Poisson equations on chains with at most a few hundred states.  Inside the
elimination everything is a Python int: ``rref`` clears each row's
denominators, runs fraction-free Gauss-Jordan elimination and builds
``Fraction``s only for its result.  No floating point anywhere; results are
bit-for-bit reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Sequence

Matrix = list[list[Fraction]]


def common_numerators(values: Collection) -> tuple[list[int], int]:
    """The numerators of rationals (or ints) over their least common
    denominator, in order, and that denominator (1 for no values)."""
    dens = [x.denominator for x in values]
    den = lcm(*dens)
    if den == 1:  # integer rows, the common case of the chain solves
        return [x.numerator for x in values], den
    return [x.numerator * (den // q) for x, q in zip(values, dens)], den


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def rref(m: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list).

    Each row is scaled to integers by the lcm of its denominators, then
    eliminated fraction-free (Bareiss, Math. Comp. 1968): with pivot p and
    previous pivot prev, every other row becomes (p*row - f*pivot_row) //
    prev, f being its entry in the pivot column (f = 0 still rescales the
    row by p/prev).  By Sylvester's identity each division is exact and
    every pivot row ends with the last pivot in its pivot column, so the
    result is each pivot row over that one pivot.  The RREF is unique: the
    ``Fraction``s equal those of any exact Gauss-Jordan elimination.
    """
    a, pivots, last = _eliminate(m)
    cols = len(m[0]) if m else 0
    zero = Fraction(0)
    red = [[Fraction(x, last) for x in row] for row in a[: len(pivots)]]
    red += [[zero] * cols for _ in range(len(m) - len(pivots))]
    return red, pivots


def _eliminate(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """The integer core of ``rref``: the eliminated integer rows, the pivot
    columns and the last pivot, which every pivot row holds in its pivot
    column (the RREF is pivot row r over it)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [common_numerators(row)[0] for row in m]
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pr = a[r]
        p = pr[c]
        for i in range(rows):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pr)]
            elif p != prev:
                a[i] = [p * x // prev for x in a[i]]
        pivots.append(c)
        prev = p
        r += 1
        if r == rows:
            break
    return a, pivots, prev


def kernel_vector(m: Sequence[Sequence]) -> list[Fraction] | None:
    """One nonzero kernel vector of a square rational matrix, or None.

    Deterministic choice: the first free column gets value 1, the remaining
    free columns 0, pivot variables are back-substituted.
    """
    n = len(m)
    red, pivots = rref(m)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    v = [Fraction(0)] * n
    v[c0] = Fraction(1)
    for row, pc in zip(red, pivots):
        v[pc] = -row[c0]
    return v


def normalize_integer_vector(v: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector cannot be normalized")
    ints, _ = common_numerators(v)
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return ints


def solve_consistent(a: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve a*x = b for any consistent system (possibly rank deficient).

    Free variables are set to 0.  Raises ValueError on inconsistency.
    """
    cols = len(a[0])
    red, pivots, last = _eliminate([[*row, y] for row, y in zip(a, b)])
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[cols], last)
    return x


def char_poly(m: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial det(X*I - M) of an integer matrix.

    Coefficients are returned leading-first: ``[1, c_{n-1}, ..., c_0]``.
    Uses the Faddeev-LeVerrier recursion; all divisions are exact in Z.
    """
    n = len(m)
    coeffs = [1]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        # the division by k is exact for integer matrices
        if tr % k != 0:
            raise ValueError("Faddeev-LeVerrier trace division must be exact")
        ck = -tr // k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        mk = mat_mul(m, mk)
    return coeffs


def poly_eval(coeffs: Sequence, x) -> object:
    """Evaluate a leading-first coefficient list at x (Horner)."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials by one with leading coefficient +-1.

    Leading-first coefficient lists.  With a unit leading coefficient the
    quotient and remainder are integer polynomials, so the division runs on
    ints; any other divisor raises ``ValueError``.
    """
    if all(c == 0 for c in den):
        raise ZeroDivisionError("polynomial division by zero")
    if den[0] not in (1, -1):
        raise ValueError("the divisor's leading coefficient must be 1 or -1")
    out: list[int] = []
    rem = list(num)
    dn = len(den)
    while len(rem) >= dn:
        lead = rem[0] * den[0]  # rem[0] / den[0], as den[0] is +-1
        out.append(lead)
        for i in range(1, dn):
            rem[i] -= lead * den[i]
        rem.pop(0)
    return out, rem
