"""Prefix-suffix decompositions and sample points of the subshift.

A point of the subshift is encoded by a path of triples (p, c, s) with
``sigma(parent) = p + c + s``; the central window of the point is rebuilt
from a finite path as

    sigma^K(p_K) ... sigma(p_1) p_0 . c_0 s_0 sigma(s_1) ... sigma^K(s_K)

which equals sigma^{K+1}(parent of the top triple).  Points are only ever
materialized as finite windows, each side built top-down from the path,
X_k = s_k sigma(X_{k+1}) on the right and Y_k = sigma(Y_{k+1}) p_k on the
left, by ``substitution.expand_levels``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .substitution import Substitution, Word, expand_levels, letter_lengths


@dataclass(frozen=True)
class PSTriple:
    """One decomposition sigma(parent) = prefix + center + suffix."""

    parent: int
    prefix: Word
    center: int
    suffix: Word

    @property
    def position(self) -> int:
        """1-based position of the center inside sigma(parent)."""
        return len(self.prefix) + 1

    def check(self, sub: Substitution) -> None:
        img = sub.image(self.parent)
        if self.prefix + bytes([self.center]) + self.suffix != img:
            raise ValueError("triple does not decompose sigma(parent)")


@dataclass(frozen=True)
class PSAutomaton:
    """All prefix-suffix triples of a substitution, grouped by parent."""

    sub: Substitution
    edges: tuple[tuple[PSTriple, ...], ...]

    def all_triples(self) -> list[PSTriple]:
        return [t for group in self.edges for t in group]

    def suffixes(self) -> set[Word]:
        return {t.suffix for t in self.all_triples()}

    def prefixes(self) -> set[Word]:
        return {t.prefix for t in self.all_triples()}

    def to_dot(self) -> str:
        sub = self.sub
        lines = ["digraph prefix_suffix {", "  rankdir=LR;"]
        for a in range(sub.alphabet_size):
            lines.append(f'  s{a} [label="{sub.symbols[a]}"];')
        for t in self.all_triples():
            label = f"{sub.render(t.prefix)}|{sub.symbols[t.center]}|{sub.render(t.suffix)}"
            lines.append(f'  s{t.parent} -> s{t.center} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        sub = self.sub
        return {
            "states": list(sub.symbols),
            "edges": [
                {
                    "parent": sub.symbols[t.parent],
                    "prefix": sub.render(t.prefix),
                    "center": sub.symbols[t.center],
                    "suffix": sub.render(t.suffix),
                    "position": t.position,
                }
                for t in self.all_triples()
            ],
        }


def build_ps_automaton(sub: Substitution) -> PSAutomaton:
    """Enumerate every split sigma(parent) = p + c + s."""
    groups = []
    for a in range(sub.alphabet_size):
        img = sub.image(a)
        groups.append(
            tuple(
                PSTriple(a, img[:i], img[i], img[i + 1 :]) for i in range(len(img))
            )
        )
    return PSAutomaton(sub, tuple(groups))


@dataclass(frozen=True)
class SymbolicPoint:
    """A finite two-sided window of a subshift point plus its generating path.

    ``right`` holds x[0..] (starting with the center letter), ``left`` holds
    x[..-1]; ``left + right`` is a factor of sigma^len(path)(path[-1].parent).
    """

    path: tuple[PSTriple, ...]
    left: Word
    right: Word


def check_path(sub: Substitution, path: tuple[PSTriple, ...]) -> None:
    """Raise ``ValueError`` unless the path is nonempty, each triple splits
    its parent's image and each level's parent is the next level's center."""
    if not path:
        raise ValueError("path must contain at least one triple")
    for t in path:
        t.check(sub)
    for lower, upper in zip(path, path[1:]):
        if lower.parent != upper.center:
            raise ValueError("inconsistent path: parent of level i must be center of level i+1")


def point_from_path(sub: Substitution, path, window: int) -> SymbolicPoint:
    """Materialize the window the finite path determines (capped per side).

    The right side is the first ``window`` letters of
    (c_0 s_0) sigma(s_1) ... sigma^K(s_K) and the left side the last of
    sigma^K(p_K) ... sigma(p_1) p_0, each built top-down by
    ``expand_levels``; neither is expanded beyond the cap.
    """
    path = tuple(path)
    check_path(sub, path)
    if window < 0:
        raise ValueError("window must be >= 0")
    suffixes = [bytes([path[0].center]) + path[0].suffix] + [t.suffix for t in path[1:]]
    right = expand_levels(sub, suffixes, window)
    left = expand_levels(sub, [t.prefix for t in path], window, from_end=True)
    return SymbolicPoint(path, left, right)


def _random_path(sub: Substitution, depth: int, seed: int) -> tuple[PSTriple, ...]:
    """A random consistent path of the given depth, drawn top-down: a
    uniform top parent letter, then a uniform split position per level.

    For constant length all paths below a given top letter are equally
    likely.  Deterministic per seed.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = random.Random(seed)
    path_rev: list[PSTriple] = []
    parent = rng.randrange(sub.alphabet_size)
    for _ in range(depth):
        img = sub.image(parent)
        pos = rng.randrange(len(img))
        path_rev.append(PSTriple(parent, img[:pos], img[pos], img[pos + 1 :]))
        parent = path_rev[-1].center
    return tuple(reversed(path_rev))


def determined_lengths(sub: Substitution, path) -> tuple[int, int]:
    """(right, left): the letters the path determines on each side, computed
    from the letter lengths |sigma^k(b)| without expanding any word."""
    right, left = 1, 0
    for t, lengths in zip(path, letter_lengths(sub)):
        right += sum(lengths[b] for b in t.suffix)
        left += sum(lengths[b] for b in t.prefix)
    return right, left


def sample_path_with_coverage(
    sub: Substitution,
    seed: int,
    min_right: int,
    min_left: int = 0,
) -> tuple[PSTriple, ...]:
    """Sample paths of increasing depth until one determines the request.

    Each attempt's path is drawn by ``_random_path``, and the letters it
    determines are read from the letter lengths; no word is expanded.  Raises ``ValueError`` before sampling when the letter lengths
    stop growing below ``min_right + min_left`` or are still below it at the
    deepest attempt's depth, since no path drawn can then cover the request,
    and after the last attempt when none covered it.
    """
    d = max(len(img) for img in sub.images)
    start_depth = 2
    need = max(min_right, min_left, 1)
    while d > 1 and d**start_depth < need:  # d = 1 never grows: rejected below
        start_depth += 1
    start_depth += 1
    attempts = 64
    deepest = start_depth + 2 * (attempts - 1)
    request = f"no point covers {min_left} letters left and {min_right} right"
    previous = None
    for lengths in islice(letter_lengths(sub), deepest + 1):
        if max(lengths) >= min_right + min_left:
            break
        if lengths == previous:
            raise ValueError(
                f"{request}: the letter lengths stop growing at {max(lengths)}"
            )
        previous = lengths
    else:
        raise ValueError(
            f"{request}: the letter lengths reach only {max(lengths)} "
            f"at depth {deepest}, the deepest of {attempts} attempts"
        )
    for attempt in range(attempts):
        path = _random_path(sub, start_depth + 2 * attempt, seed * 1009 + attempt)
        right, left = determined_lengths(sub, path)
        if right >= min_right and left >= min_left:
            return path
    raise ValueError(f"{request} in {attempts} sampled paths of depth up to {deepest}")


def sample_point_with_coverage(
    sub: Substitution,
    seed: int,
    min_right: int,
    min_left: int = 0,
) -> SymbolicPoint:
    """The point of ``sample_path_with_coverage``'s path, its window capped
    at the larger request; raises the same ``ValueError``s."""
    path = sample_path_with_coverage(sub, seed, min_right, min_left)
    return point_from_path(sub, path, max(min_right, min_left))
