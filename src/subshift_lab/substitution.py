"""Substitutions on a finite alphabet and their exact linear algebra.

Letters are the integers ``0 .. alphabet_size-1`` and words are ``bytes``
(so the alphabet is capped at 255 letters, far beyond anything used here).
The abelianization matrix follows the row convention

    M[a][b] = number of occurrences of letter b in sigma(a),

which is the convention under which the morphism identity
``gamma(sigma(w)) = theta * gamma(w)`` holds for right eigenvectors
``M @ gamma = theta * gamma``.  All eigen computations are exact rational.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .linalg import char_poly  # re-exported: det(X*I - M), leading-first

Word = bytes

# Words shorter than this are expanded by ``bytes.join``: below it, numpy's
# per-call overhead costs more than the gather saves (measured crossover).
GATHER_MIN_LETTERS = 64
# Fills the short rows of the image table; never a letter (at most 255 letters).
_PAD = 255


def word(letters: Iterable[int]) -> Word:
    """Build a word from an iterable of 0-based letters."""
    return bytes(letters)


@dataclass(frozen=True)
class Substitution:
    """A map letter -> nonempty word, extended to words as a morphism."""

    alphabet_size: int
    images: tuple[Word, ...]
    symbols: tuple[str, ...] = ()

    def __post_init__(self):
        if not (1 <= self.alphabet_size <= 255):
            raise ValueError("alphabet size must be between 1 and 255")
        if len(self.images) != self.alphabet_size:
            raise ValueError("need exactly one image per letter")
        for img in self.images:
            if len(img) == 0:
                raise ValueError("images must be nonempty")
            if any(b >= self.alphabet_size for b in img):
                raise ValueError("image contains an out-of-alphabet letter")
        if not self.symbols:
            object.__setattr__(
                self, "symbols", tuple(str(a + 1) for a in range(self.alphabet_size))
            )
        elif len(self.symbols) != self.alphabet_size:
            raise ValueError("need exactly one symbol per letter")

    @staticmethod
    def from_words(images: Sequence[Sequence[int]], symbols: Sequence[str] = ()) -> "Substitution":
        imgs = tuple(word(w) for w in images)
        return Substitution(len(imgs), imgs, tuple(symbols))

    def image(self, a: int) -> Word:
        return self.images[a]

    def apply(self, w: Word) -> Word:
        """sigma(w) as a word: one row gather of the image table for long words."""
        if len(w) < GATHER_MIN_LETTERS:
            return b"".join(self.images[b] for b in w)
        table, padded = self._image_table
        out = table.take(np.frombuffer(w, np.uint8), axis=0).ravel()
        if padded:
            out = out[out != _PAD]
        return out.tobytes()

    @cached_property
    def _image_table(self) -> tuple[np.ndarray, bool]:
        """(alphabet, longest image) uint8 rows of the images, short rows
        padded with ``_PAD``, and whether any row is padded."""
        width = max(len(img) for img in self.images)
        table = np.full((self.alphabet_size, width), _PAD, np.uint8)
        for a, img in enumerate(self.images):
            table[a, : len(img)] = np.frombuffer(img, np.uint8)
        return table, any(len(img) < width for img in self.images)

    def apply_power(self, w: Word, n: int) -> Word:
        for _ in range(n):
            w = self.apply(w)
        return w

    def image_lengths(self) -> tuple[int, ...]:
        return tuple(len(img) for img in self.images)

    def render(self, w: Word) -> str:
        parts = [self.symbols[b] for b in w]
        if all(len(p) == 1 for p in parts):
            return "".join(parts)
        return ",".join(parts)

    def describe(self) -> str:
        return "; ".join(
            f"{self.symbols[a]}->{self.render(img)}" for a, img in enumerate(self.images)
        )


@dataclass(frozen=True)
class WeightVector:
    """Exact rational letter weights gamma with M @ gamma = theta * gamma."""

    values: tuple[Fraction, ...]
    theta: Fraction

    def __post_init__(self):
        if all(v == 0 for v in self.values):
            raise ValueError("weight vector must be nonzero")

    @property
    def max_abs(self) -> Fraction:
        return max(abs(v) for v in self.values)


def matrix_of(sub: Substitution) -> list[list[int]]:
    """Occurrence matrix: entry (a, b) counts letter b in sigma(a)."""
    n = sub.alphabet_size
    return [[sub.images[a].count(b) for b in range(n)] for a in range(n)]


def constant_length(sub: Substitution) -> int | None:
    """The common image length d, or None for non-constant length."""
    lengths = sub.image_lengths()
    return lengths[0] if len(set(lengths)) == 1 else None


def is_primitive(sub: Substitution) -> bool:
    """True iff some power of the occurrence matrix is entrywise positive.

    Boolean matrix squaring; since images are nonempty, positivity is
    monotone in the exponent, so checking one power >= alphabet_size**2
    (a safe classical bound) decides primitivity.
    """
    n = sub.alphabet_size
    # positivity of M^k is monotone in k because every image is nonempty,
    # so it suffices to square past the Wielandt bound <= n*n
    power = [[sub.images[a].count(b) > 0 for b in range(n)] for a in range(n)]
    k = 1
    while k < n * n:
        power = [
            [any(power[a][c] and power[c][b] for c in range(n)) for b in range(n)]
            for a in range(n)
        ]
        k *= 2
    return all(all(row) for row in power)


def eigenvector_for(matrix: Sequence[Sequence[int]], theta) -> WeightVector | None:
    """Exact kernel vector of (M - theta*I), i.e. M @ gamma = theta * gamma.

    Entries are normalized to coprime integers with the first nonzero entry
    positive; returns None when theta is not an eigenvalue.
    """
    theta = Fraction(theta)
    n = len(matrix)
    shifted = [
        [Fraction(matrix[i][j]) - (theta if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    v = linalg.kernel_vector(shifted)
    if v is None:
        return None
    ints = linalg.normalize_integer_vector(v)
    return WeightVector(tuple(Fraction(x) for x in ints), theta)


def gamma_of_word(gamma: WeightVector, w: Word) -> Fraction:
    """Morphism extension: sum of gamma over the letters of w."""
    if len(w) <= 16:
        return sum((gamma.values[b] for b in w), Fraction(0))
    # occurrence counting is much faster on long words
    total = Fraction(0)
    for a, va in enumerate(gamma.values):
        if va:
            c = w.count(a)
            if c:
                total += va * c
    return total


def iterate_prefix(sub: Substitution, a: int, length: int) -> Word:
    """First ``length`` letters of sigma^n(a) for the least adequate n."""
    if length < 1:
        raise ValueError("length must be >= 1")
    m = growth_depth(sub, a, length)
    if m is None:
        raise ValueError(
            f"letter {a} does not grow under iteration; cannot reach length {length}"
        )
    return expand_prefix(sub, bytes([a]), m, length)


def expand_prefix(sub: Substitution, w: Word, k: int, cap: int) -> Word:
    """First min(cap, |sigma^k(w)|) letters of sigma^k(w).

    Each level expands only the letters that can reach the cap: with r levels
    to go every letter grows to at least the shortest |sigma^r(b)| letters.
    """
    for shortest in _shortest_iterates(sub, k):
        keep = -(-cap // shortest)
        w = sub.apply(w[:keep])
    return w[:cap]


def expand_suffix(sub: Substitution, w: Word, k: int, cap: int) -> Word:
    """Last min(cap, |sigma^k(w)|) letters of sigma^k(w); see ``expand_prefix``."""
    for shortest in _shortest_iterates(sub, k):
        keep = -(-cap // shortest)
        w = sub.apply(w[max(len(w) - keep, 0) :])
    return w[max(len(w) - cap, 0) :]


def _shortest_iterates(sub: Substitution, k: int) -> list[int]:
    """min_b |sigma^r(b)| for r = k, k-1, ..., 1."""
    return [min(lengths) for lengths in islice(letter_lengths(sub), 1, k + 1)][::-1]


def letter_lengths(sub: Substitution) -> Iterator[list[int]]:
    """The exact lengths [|sigma^k(b)| for each letter b] for k = 0, 1, 2, ..."""
    lengths = [1] * sub.alphabet_size
    while True:
        yield lengths
        lengths = [sum(lengths[b] for b in img) for img in sub.images]


def growth_depth(sub: Substitution, a: int, length: int) -> int | None:
    """The least m with |sigma^m(a)| >= length, from the letter lengths alone.

    None means the iterates of a stop growing before they reach ``length``.
    """
    # letters reachable from a; used to detect non-growing degenerate cases
    reachable = {a}
    frontier = [a]
    while frontier:
        b = frontier.pop()
        for c in sub.images[b]:
            if c not in reachable:
                reachable.add(c)
                frontier.append(c)
    previous = None
    for m, lengths in enumerate(letter_lengths(sub)):
        if lengths[a] >= length:
            return m
        if previous is not None and all(lengths[r] == previous[r] for r in reachable):
            return None
        previous = lengths


def factor_blocks(sub: Substitution, k: int) -> list[Word]:
    """The length-k factors of sigma^n(b) over all n >= 0 and letters b, sorted.

    Seeds are the k-windows of sigma^m(b) for the least m with
    |sigma^m(b)| >= k (a letter that never grows that long gives none); the
    language is their closure under u -> the k-windows of sigma(u).  This is
    exact: once |sigma^n(b)| >= k, every k-window of sigma^{n+1}(b) is
    covered by the images of at most k consecutive letters, hence lies in
    sigma(u) for some k-window u of sigma^n(b).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    blocks: set[Word] = set()
    for b in range(sub.alphabet_size):
        m = growth_depth(sub, b, k)
        if m is not None:
            w = sub.apply_power(bytes([b]), m)
            blocks.update(w[i : i + k] for i in range(len(w) - k + 1))
    frontier = list(blocks)
    while frontier:
        image = sub.apply(frontier.pop())
        for i in range(len(image) - k + 1):
            u = image[i : i + k]
            if u not in blocks:
                blocks.add(u)
                frontier.append(u)
    return sorted(blocks)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def _parse_word(text: str, symbol_index: dict[str, int]) -> Word:
    text = text.strip()
    if "," in text or " " in text:
        tokens = [t for t in text.replace(",", " ").split() if t]
    else:
        tokens = list(text)
    try:
        return word(symbol_index[t] for t in tokens)
    except KeyError as exc:
        raise ValueError(f"unknown letter {exc.args[0]!r} in word {text!r}") from None


def parse_substitution(text: str) -> Substitution:
    """Parse the line format ``k: w`` (1-based integers or ASCII symbols)."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty substitution description")
    pairs: list[tuple[str, str]] = []
    for i, ln in enumerate(lines):
        if ":" in ln:
            left, right = ln.split(":", 1)
        elif "->" in ln:
            left, right = ln.split("->", 1)
        else:
            raise ValueError(f"line {i + 1}: expected 'letter: image'")
        left = left.strip()
        right = right.strip()
        if not left or not right:
            raise ValueError(f"line {i + 1}: empty letter or image")
        pairs.append((left, right))
    symbols = [left for left, _ in pairs]
    if len(set(symbols)) != len(symbols):
        raise ValueError("duplicate letter on the left-hand side")
    if all(s.isdigit() for s in symbols):
        order = sorted(range(len(symbols)), key=lambda i: int(symbols[i]))
        expected = [str(k + 1) for k in range(len(symbols))]
        if [symbols[i] for i in order] != expected:
            raise ValueError("integer letters must be exactly 1..n")
        pairs = [pairs[i] for i in order]
        symbols = [left for left, _ in pairs]
    symbol_index = {s: i for i, s in enumerate(symbols)}
    images = tuple(_parse_word(right, symbol_index) for _, right in pairs)
    return Substitution(len(symbols), images, tuple(symbols))


def parse_substitution_json(doc: str | dict) -> Substitution:
    """Parse the JSON form {"alphabet": [...], "images": [...]}.

    The alphabet is a letter count or a list of symbols, and each image a
    string or a list of symbols; any other shape raises ``ValueError``."""
    try:
        data = json.loads(doc) if isinstance(doc, str) else doc
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict) or not {"alphabet", "images"} <= data.keys():
        raise ValueError('expected an object with "alphabet" and "images"')
    alphabet, raw_images = data["alphabet"], data["images"]
    if not isinstance(raw_images, list) or not all(
        isinstance(img, (str, list)) for img in raw_images
    ):
        raise ValueError('"images" must be a list of strings or lists')
    if not isinstance(alphabet, (int, list)):
        raise ValueError('"alphabet" must be a letter count or a list of symbols')
    # compared before the symbols are built, so a huge count costs nothing
    size = alphabet if isinstance(alphabet, int) else len(alphabet)
    if size != len(raw_images):
        raise ValueError("need exactly one image per letter")
    if isinstance(alphabet, int):
        symbols = [str(k + 1) for k in range(size)]
    else:
        symbols = [str(s) for s in alphabet]
    if len(set(symbols)) != len(symbols):
        raise ValueError("duplicate letter in the alphabet")
    symbol_index = {s: i for i, s in enumerate(symbols)}
    images = []
    for img in raw_images:
        if isinstance(img, str):
            images.append(_parse_word(img, symbol_index))
        else:
            images.append(_parse_word(" ".join(str(t) for t in img), symbol_index))
    return Substitution(len(symbols), tuple(images), tuple(symbols))


def substitution_to_json(sub: Substitution) -> dict:
    return {
        "alphabet": list(sub.symbols),
        "images": [sub.render(img) for img in sub.images],
    }


def matrix_to_json(matrix: Sequence[Sequence[int]]) -> list[list[str]]:
    """Arbitrary-precision-safe serialization: decimal strings."""
    return [[str(x) for x in row] for row in matrix]


def poly_to_json(coeffs: Sequence[int]) -> list[str]:
    return [str(c) for c in coeffs]


def poly_to_text(coeffs: Sequence[int]) -> str:
    """Human-readable polynomial, leading term first."""
    n = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        deg = n - i
        mag = abs(c)
        if deg == 0:
            term = str(mag)
        else:
            xpow = "X" if deg == 1 else f"X^{deg}"
            term = xpow if mag == 1 else f"{mag}*{xpow}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out
