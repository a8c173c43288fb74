"""Ergodic sums along symbolic windows and the explicit liminf bound.

For a weight vector gamma with eigenvalue of modulus one, the running sums
S_n = gamma(x_0 ... x_{n-1}) return below an explicit constant

    C = max_c |gamma(c)| + max_s |gamma(s)| + max_p |gamma(p)|

where s ranges over proper suffixes and p over proper prefixes of images.
The constant dominates both the recurrent-suffix and the eventually-periodic
tail constructions, each of which produces arbitrarily long window prefixes
W_k with |gamma(W_k)| below C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .prefix_suffix import PSTriple, SymbolicPoint, build_ps_automaton
from .substitution import Substitution, WeightVector, Word, gamma_of_word


def _require_unit_eigenvalue(gamma: WeightVector) -> None:
    if abs(gamma.theta) != 1:
        raise ValueError("the weight vector must belong to an eigenvalue of modulus one")


def liminf_constant(sub: Substitution, gamma: WeightVector) -> Fraction:
    """The explicit constant bounding liminf |S_n| on every orbit.

    Enumerates the three finite sets exhaustively: letters, proper suffixes
    of images, proper prefixes of images.
    """
    _require_unit_eigenvalue(gamma)
    automaton = build_ps_automaton(sub)
    max_letter = max(abs(gamma.values[a]) for a in range(sub.alphabet_size))
    max_suffix = max(abs(gamma_of_word(gamma, s)) for s in automaton.suffixes())
    max_prefix = max(abs(gamma_of_word(gamma, p)) for p in automaton.prefixes())
    return max_letter + max_suffix + max_prefix


@dataclass(frozen=True)
class BoundedPrefix:
    """A window prefix W_k together with its exact gamma value."""

    level: int
    word: Word
    value: Fraction


def bounded_prefixes(
    sub: Substitution, gamma: WeightVector, path: Sequence[PSTriple]
) -> list[BoundedPrefix]:
    """The family of prefixes W_k = S^_k sigma^k(s_k) sigma^k(pi_k) P^_k.

    Levels whose next suffix is empty (or whose center does not occur in the
    image of that suffix) are skipped.  For every usable level the identity

        gamma(W_k) = theta^k (gamma(c_k) + gamma(s_k) + gamma(pi_k))

    is checked exactly before returning; a mismatch raises ``ValueError``.
    """
    _require_unit_eigenvalue(gamma)
    path = tuple(path)
    out: list[BoundedPrefix] = []
    hat_s = bytes([path[0].center])  # c_0 s_0 sigma(s_1) ... grows with k
    hat_p = b""  # ... sigma(p_1) p_0
    for k in range(len(path) - 1):
        triple = path[k]
        next_suffix = path[k + 1].suffix
        usable = False
        if next_suffix:
            image_of_suffix = sub.apply(next_suffix)
            pos = image_of_suffix.find(bytes([triple.center]))
            if pos >= 0:
                usable = True
                pi_k = image_of_suffix[:pos]
        if usable:
            w_k = (
                hat_s
                + sub.apply_power(triple.suffix, k)
                + sub.apply_power(pi_k, k)
                + hat_p
            )
            value = gamma_of_word(gamma, w_k)
            expected = gamma.theta**k * (
                gamma.values[triple.center]
                + gamma_of_word(gamma, triple.suffix)
                + gamma_of_word(gamma, pi_k)
            )
            if value != expected:
                raise ValueError("prefix family identity must hold exactly")
            out.append(BoundedPrefix(k, w_k, value))
        hat_s = hat_s + sub.apply_power(triple.suffix, k)
        hat_p = sub.apply_power(triple.prefix, k) + hat_p
    return out


def liminf_probe(
    sub: Substitution,
    gamma: WeightVector,
    point: SymbolicPoint,
    horizon: int,
    reverse: bool = False,
) -> Fraction:
    """min over 1 <= n <= horizon of |S_n| along the point's window.

    With ``reverse`` the sums run over x_{-n} .. x_{-1} (the backward-orbit
    statement).  This is a certified upper bound for the liminf along the
    orbit prefix.  Exact despite the numpy cumsum: sums are scaled integers.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    window = point.left[::-1] if reverse else point.right
    if len(window) < horizon:
        raise ValueError(f"window of length {len(window)} does not cover horizon {horizon}")
    sums, denom = scaled_partial_sums(gamma, window[:horizon])
    best = int(np.abs(sums).min())
    return Fraction(best, denom)


def scaled_partial_sums(gamma: WeightVector, w: Word) -> tuple[np.ndarray, int]:
    """Running sums L*S_1, ..., L*S_n of gamma along w as int64, and L.

    L is the lcm of gamma's denominators.  Raises ``ValueError`` unless
    max|L*gamma| * |w| fits in int64, so no partial sum can wrap.
    """
    scaled, denom = gamma.scaled_integers()
    bound = max(abs(v) for v in scaled) * len(w)
    if bound > np.iinfo(np.int64).max:
        raise ValueError(
            f"ergodic sums can reach {bound} units of 1/{denom}, beyond int64; "
            "scale gamma down or shorten the horizon"
        )
    table = np.array(scaled, dtype=np.int64)
    return np.cumsum(table[np.frombuffer(w, dtype=np.uint8)]), denom
