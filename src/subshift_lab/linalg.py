"""Exact integer linear algebra over small dense matrices.

Inputs are ``fractions.Fraction`` or plain ints, and the functions serve
the small systems that show up in this package: kernels of ``M - theta*I``,
stationary distributions, absorption probabilities and Poisson equations on
chains with at most a few hundred states.  Everything is a Python int:
``eliminate`` clears each row's denominators and runs fraction-free
Gauss-Jordan elimination, and every solve returns integer numerators over
one positive denominator, so a caller builds a ``Fraction`` only for a
value it reports.  No floating point anywhere; results are bit-for-bit
reproducible.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Collection, Sequence


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


def eliminate(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form as integers: (rows, pivot columns, last).

    Each row is scaled to integers by the lcm of its denominators, then
    eliminated fraction-free (Bareiss, Math. Comp. 1968): with pivot p and
    previous pivot prev, every other row becomes (p*row - f*pivot_row) //
    prev, f being its entry in the pivot column (f = 0 still rescales the
    row by p/prev).  By Sylvester's identity each division is exact and
    every pivot row ends with the last pivot in its pivot column; the rows
    past the pivots end all zero.  The sign of every row is flipped when
    that pivot is negative, so ``last`` > 0 and the RREF, which is unique,
    is each row over ``last``.
    """
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
    if prev < 0:
        a = [[-x for x in row] for row in a]
        prev = -prev
    return a, pivots, prev


def kernel_vector(m: Sequence[Sequence]) -> list[int] | None:
    """One nonzero kernel vector of a square rational matrix as coprime
    integers, or None.

    Deterministic choice: the first free column gets value 1, the remaining
    free columns 0, pivot variables are back-substituted; the vector is then
    scaled by ``last`` and divided by the gcd of its entries, which keeps
    the sign of the first free entry positive.
    """
    n = len(m)
    rows, pivots, last = eliminate(m)
    c0 = next((c for c in range(n) if c not in pivots), None)
    if c0 is None:
        return None
    v = [0] * n
    v[c0] = last
    for row, pc in zip(rows, pivots):
        v[pc] = -row[c0]
    g = gcd(*v)
    return [x // g for x in v]


def solve_consistent(a: Sequence[Sequence], b: Sequence) -> tuple[list[int], int]:
    """Solve a*x = b for any consistent system (possibly rank deficient).

    Returns x as integer numerators over one positive denominator.  Free
    variables are set to 0.  Raises ValueError on inconsistency.
    """
    cols = len(a[0])
    rows, pivots, last = eliminate([[*row, y] for row, y in zip(a, b)])
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [0] * cols
    for row, pc in zip(rows, pivots):
        x[pc] = row[cols]
    return x, last


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
