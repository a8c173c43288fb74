"""Ergodic sums along symbolic orbits and the explicit liminf bound.

For a weight vector gamma with eigenvalue of modulus one, the running sums
S_n = gamma(x_0 ... x_{n-1}) return below an explicit constant

    C = max_c |gamma(c)| + max_s |gamma(s)| + max_p |gamma(p)|

where s ranges over proper suffixes and p over proper prefixes of images.
The constant dominates both the recurrent-suffix and the eventually-periodic
tail constructions, each of which produces arbitrarily long window prefixes
W_k with |gamma(W_k)| below C.

Orbit probes read a point's path, not its window.  The forward window
c_0 s_0 sigma(s_1) sigma^2(s_2) ... is one block sigma^k(b) per letter b of
s_k, and the prefix sums inside sigma^k(b) follow level by level from the
image prefixes (the Dumont-Thomas prefix-suffix numeration): since
gamma(sigma^(k-1)(w)) = theta^(k-1) gamma(w), the prefix sums of sigma^k(b)
are those of each sigma^(k-1)(image[i]) shifted by
theta^(k-1) gamma(image[:i]).  With |theta| = 1 they take O(k) values, so
the census keeps one Python int per (level, letter) as a bitset of them.
A probe takes the value nearest to -offset from each whole block and
descends only into the block that the horizon cuts, so its cost grows with
the path's depth, not with the horizon, and the sums are exact integers of
any size.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Sequence

from .prefix_suffix import PSTriple, SymbolicPoint, build_ps_automaton, check_path
from .substitution import (
    Substitution,
    WeightVector,
    Word,
    eigen_numerators,
    gamma_of_word,
    letter_lengths,
)


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
    orbit prefix.  The window's letters are never read: once the window is
    known to cover the horizon, ``census_probe`` runs on the path.  A window
    opens with the letters its path determines, so up to their count the
    two agree; a horizon past them raises the census's ``ValueError``.
    """
    window = len(point.left) if reverse else len(point.right)
    if window < horizon:
        raise ValueError(f"window of length {window} does not cover horizon {horizon}")
    return census_probe(sub, gamma, point.path, horizon, reverse)


def census_probe(
    sub: Substitution,
    gamma: WeightVector,
    path: Sequence[PSTriple],
    horizon: int,
    reverse: bool = False,
) -> Fraction:
    """min over 1 <= n <= horizon of |S_n| along the window the path determines.

    Forward, the window is the block c_0 followed by one block sigma^k(b)
    per letter b of each suffix s_k.  Reversed, it is x_{-1} x_{-2} ...: one
    block per letter of each prefix p_k, visited backwards, each block being
    sigma^k(b) read backwards, which is rho^k(b) for the substitution rho
    with reversed images.  Raises ``ValueError`` unless gamma belongs to an
    eigenvalue of modulus one, or when the horizon runs past the letters
    the path determines.
    """
    (probe,) = _census_probes(sub, gamma, path, [horizon], reverse)
    return probe


def _census_probes(
    sub: Substitution,
    gamma: WeightVector,
    path: Sequence[PSTriple],
    horizons: Sequence[int],
    reverse: bool = False,
) -> list[Fraction]:
    """``census_probe`` at each horizon in turn, from one census."""
    if min(horizons) < 1:
        raise ValueError("horizon must be >= 1")
    path = tuple(path)
    check_path(sub, path)
    theta, weights, unit, scale = _unit_weights(sub, gamma)
    if reverse:
        images = tuple(img[::-1] for img in sub.images)
        blocks = [(k, b) for k, t in enumerate(path) for b in reversed(t.prefix)]
    else:
        images = sub.images
        blocks = [(0, path[0].center)]
        blocks += [(k, b) for k, t in enumerate(path) for b in t.suffix]
    lengths = list(islice(letter_lengths(sub), len(path)))
    determined = sum(lengths[k][b] for k, b in blocks)
    if max(horizons) > determined:
        raise ValueError(
            f"horizon {max(horizons)} runs past the {determined} letters the path determines"
        )
    census = _census(images, weights, theta, len(path) - 1)
    probes = []
    for horizon in horizons:
        best = None
        offset = 0  # the sum before the current block, in units
        remaining = horizon
        todo = iter(blocks)
        while remaining:
            k, b = next(todo)
            if lengths[k][b] > remaining:
                # the horizon cuts this block: walk its image one level down
                # (a level-0 block is one letter, so this stops at level 0)
                todo = iter([(k - 1, c) for c in images[b]])
                continue
            lo, bits = census[k][b]
            near = _nearest_bit(bits, -offset - lo)
            best = near if best is None else min(best, near)
            offset += theta**k * weights[b]
            remaining -= lengths[k][b]
        probes.append(Fraction(best * unit, scale))
    return probes


def _unit_weights(sub: Substitution, gamma: WeightVector) -> tuple[int, list[int], int, int]:
    """(theta, gamma in units, unit, L): the unit is gcd(L*gamma) / L, where
    L is the lcm of gamma's denominators.

    Raises ``ValueError`` unless |theta| = 1 and M gamma = theta gamma holds
    exactly; a census of any other vector would give wrong minima.
    """
    _require_unit_eigenvalue(gamma)
    scaled, scale = eigen_numerators(sub, gamma)
    unit = gcd(*scaled)
    return int(gamma.theta), [v // unit for v in scaled], unit, scale


def _census(
    images: Sequence[Word], weights: Sequence[int], theta: int, depth: int
) -> list[list[tuple[int, int]]]:
    """``census[k][b] = (lo, bits)`` for k = 0..depth: bit i of ``bits`` is
    set when some nonempty prefix of sigma^k(b) sums to lo + i units.

    Level k is the union, over the positions i of b's image, of level k-1's
    set for image[i] shifted by theta^(k-1) * gamma(image[:i]).
    """
    level = [(w, 1) for w in weights]
    census = [level]
    sign = 1  # theta^(k-1) while level k is built
    for _ in range(depth):
        nxt = []
        for img in images:
            shifted = []
            acc = 0
            for c in img:
                lo, bits = level[c]
                shifted.append((acc + lo, bits))
                acc += sign * weights[c]
            base = min(lo for lo, _ in shifted)
            union = 0
            for lo, bits in shifted:
                union |= bits << (lo - base)
            nxt.append((base, union))
        census.append(nxt)
        level = nxt
        sign *= theta
    return census


def _nearest_bit(bits: int, target: int) -> int:
    """min |i - target| over the set bits i of a nonzero bitset."""
    top = bits.bit_length() - 1
    if target >= top:
        return target - top
    if target <= 0:
        return (bits & -bits).bit_length() - 1 - target
    above = bits >> target
    nearest = (above & -above).bit_length() - 1  # lowest set bit >= target
    below = (bits & ((1 << target) - 1)).bit_length() - 1  # highest set bit < target
    return nearest if below < 0 else min(nearest, target - below)
