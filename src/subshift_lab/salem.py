"""The four-letter interval-exchange substitution family and Salem checks.

The family sigma_n (n >= 1) arises from a closed loop of induction moves on
four intervals; its characteristic polynomial is the reciprocal quartic

    P_n = X^4 - (6+n) X^3 + (10+n) X^2 - (6+n) X + 1.

Writing t = theta_1 + 1/theta_1 and s = theta_2 + 1/theta_2 for the root
pairs, the quartic reduces to t + s = 6+n, t*s = 8+n, so s and t are the
roots of Y^2 - (6+n) Y + (8+n).  The dominant root theta_1 is a Salem
number exactly when s lies in (-2, 2) (a conjugate pair on the unit
circle), t > 2, and P_n is irreducible; all of this is decided by exact
integer arithmetic (the square root of the discriminant is only ever
compared, never evaluated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import poly_divmod, poly_eval
from .substitution import Substitution, char_poly, matrix_of


def salem_substitution(n: int) -> Substitution:
    """Member n of the family: 1->14, 2->14224, 3->14(23)^{n+1}24, 4->14(23)^n 24."""
    if n < 1:
        raise ValueError("the family starts at n = 1")
    one, two, three, four = 0, 1, 2, 3
    pair = [two, three]
    images = [
        [one, four],
        [one, four, two, two, four],
        [one, four] + pair * (n + 1) + [two, four],
        [one, four] + pair * n + [two, four],
    ]
    return Substitution.from_words(images)


def closed_form_poly(n: int) -> list[int]:
    return [1, -(6 + n), 10 + n, -(6 + n), 1]


_CYCLOTOMIC_QUADRATICS = ([1, 1, 1], [1, 0, 1], [1, -1, 1])


@dataclass(frozen=True)
class SalemReport:
    n: int
    matrix: list[list[int]]
    poly: list[int]
    reciprocal: bool
    irreducible: bool
    trace_sum: int  # s + t = 6 + n
    trace_product: int  # s * t = 8 + n
    s_in_open_interval: bool  # s in (-2, 2): one conjugate pair on the circle
    t_above_two: bool  # t > 2: the dominant root is real > 1
    s_value: float
    t_value: float
    salem: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "char_poly": [str(c) for c in self.poly],
            "reciprocal": self.reciprocal,
            "irreducible": self.irreducible,
            "s": f"{self.s_value:.12g}",
            "t": f"{self.t_value:.12g}",
            "salem": self.salem,
        }


def salem_check(n: int) -> SalemReport:
    """Exact verification that the dominant eigenvalue is a Salem number.

    The characteristic polynomial must match the closed form; reciprocity is
    a palindrome check; irreducibility follows from nonvanishing at +-1 and
    non-divisibility by the three quadratic cyclotomics (the only monic
    integer quadratics with both roots on the unit circle); the unit-circle
    pair and the dominant real root are located through s and t.
    """
    sub = salem_substitution(n)
    m = matrix_of(sub)
    poly = char_poly(m)
    if poly != closed_form_poly(n):
        raise ValueError("characteristic polynomial must match the closed form")
    reciprocal = poly == poly[::-1]
    at_one = poly_eval(poly, 1)
    at_minus_one = poly_eval(poly, -1)
    irreducible = at_one != 0 and at_minus_one != 0
    if irreducible:
        for quad in _CYCLOTOMIC_QUADRATICS:
            _, rem = poly_divmod(poly, quad)
            if all(c == 0 for c in rem):
                irreducible = False
                break
    # s = ((6+n) - sqrt(disc)) / 2 and t = ((6+n) + sqrt(disc)) / 2; the
    # square root is never evaluated, only squared comparisons are used
    disc = n * n + 8 * n + 4
    s_low = disc < (10 + n) ** 2  # s > -2  <=>  sqrt(disc) < 10 + n
    s_high = disc > (2 + n) ** 2  # s < 2   <=>  sqrt(disc) > 2 + n
    if disc <= 0:
        raise ValueError("discriminant n^2 + 8n + 4 must be positive")
    t_above = True  # t > 2  <=>  sqrt(disc) > -(2+n), and disc > 0
    root = math.sqrt(disc)
    return SalemReport(
        n=n,
        matrix=m,
        poly=poly,
        reciprocal=reciprocal,
        irreducible=irreducible,
        trace_sum=6 + n,
        trace_product=8 + n,
        s_in_open_interval=s_low and s_high,
        t_above_two=t_above,
        s_value=(6 + n - root) / 2,
        t_value=(6 + n + root) / 2,
        salem=reciprocal and irreducible and s_low and s_high and t_above,
    )
