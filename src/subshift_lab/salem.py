"""The four-letter interval-exchange substitution family and Salem checks.

The family sigma_n (n >= 1) arises from a closed loop of induction moves on
four intervals; its characteristic polynomial is the reciprocal quartic

    P_n = X^4 - (6+n) X^3 + (10+n) X^2 - (6+n) X + 1.

Writing t = theta_1 + 1/theta_1 and s = theta_2 + 1/theta_2 for the root
pairs, the quartic reduces to t + s = 6+n, t*s = 8+n, so s and t are the
roots of Y^2 - (6+n) Y + (8+n), whose discriminant is n^2 + 8n + 4.  The
dominant root theta_1 is a Salem number exactly when s lies in (-2, 2) (a
conjugate pair on the unit circle), t > 2, and P_n is irreducible; all of
this is decided by exact integer arithmetic (the square root of the
discriminant is only ever compared, never evaluated).

Irreducibility comes from the same discriminant.  A monic integer quartic
that factors over Q factors into monic integer polynomials (Gauss's lemma).
A linear factor means a root +-1 of P_n, so Y = +-2 is a root of the
quadratic in Y.  Two quadratic factors have constant terms q = q' = +-1, so
their cubic and linear coefficients read a and q*a; a palindrome whose
cubic coefficient a = -(6+n) is nonzero needs q = 1, and the factors
X^2 + pX + 1 and X^2 + rX + 1 make -p and -r the roots in Y.  Conversely
integer roots u, v in Y give the factors X^2 - uX + 1 and X^2 - vX + 1.  So
P_n is reducible exactly when n^2 + 8n + 4 is a perfect square, which it
never is for n >= 1: 13 and 24 are not squares, and from n = 3 on
(n+3)^2 < n^2 + 8n + 4 < (n+4)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SalemReport:
    n: int
    matrix: list[list[int]]
    poly: list[int]
    reciprocal: bool
    irreducible: bool
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
    a palindrome check; irreducibility is the discriminant rule of
    ``_irreducible_reciprocal_quartic``; the unit-circle pair is located
    through s in (-2, 2).  The dominant root needs no test: t > 2 holds for
    every n.
    """
    sub = salem_substitution(n)
    m = matrix_of(sub)
    poly = char_poly(m)
    if poly != closed_form_poly(n):
        raise ValueError("characteristic polynomial must match the closed form")
    reciprocal = poly == poly[::-1]
    irreducible = _irreducible_reciprocal_quartic(poly[1], poly[2])
    # s = ((6+n) - sqrt(disc)) / 2 and t = ((6+n) + sqrt(disc)) / 2; the
    # square root is never evaluated, only squared comparisons are used
    disc = n * n + 8 * n + 4
    s_low = disc < (10 + n) ** 2  # s > -2  <=>  sqrt(disc) < 10 + n
    s_high = disc > (2 + n) ** 2  # s < 2   <=>  sqrt(disc) > 2 + n
    # t > 2  <=>  sqrt(disc) > -(2+n), true as disc >= 13: the dominant root
    # is real > 1 for every n
    root = math.sqrt(disc)
    return SalemReport(
        n=n,
        matrix=m,
        poly=poly,
        reciprocal=reciprocal,
        irreducible=irreducible,
        s_value=(6 + n - root) / 2,
        t_value=(6 + n + root) / 2,
        salem=reciprocal and irreducible and s_low and s_high,
    )


def _irreducible_reciprocal_quartic(a: int, b: int) -> bool:
    """Whether X^4 + a X^3 + b X^2 + a X + 1 with a != 0 is irreducible
    over Q: exactly when a^2 - 4b + 8, the discriminant of the quadratic
    Y^2 + a Y + b - 2 in Y = X + 1/X, is not a perfect square (the module
    docstring has the proof; at a = 0 the quartic can also split as
    (X^2 + pX - 1)(X^2 - pX - 1))."""
    disc = a * a - 4 * b + 8
    return disc < 0 or math.isqrt(disc) ** 2 != disc
