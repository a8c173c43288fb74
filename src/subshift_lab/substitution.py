"""Substitutions on a finite alphabet and their exact linear algebra.

Letters are the integers ``0 .. alphabet_size-1`` and words are ``bytes``
(so the alphabet is capped at 255 letters, far beyond anything used here).
The abelianization matrix follows the row convention

    M[a][b] = number of occurrences of letter b in sigma(a),

which is the convention under which the morphism identity
``gamma(sigma(w)) = theta * gamma(w)`` holds for right eigenvectors
``M @ gamma = theta * gamma``.  All eigen computations are exact rational.

Long words are expanded by numpy gathers of padded image tables: one of
sigma and one of sigma^r, r as large as ``POWER_TABLE_LETTERS`` allows, so a
single gather crosses r levels.  ``expand_levels`` builds every capped word
(fixed-point prefixes, the two sides of a point's window) top-down, cutting
the word before each gather to the letters that can still reach the cap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import linalg
from .linalg import char_poly  # re-exported: det(X*I - M), leading-first

Word = bytes

# Words shorter than this are expanded by ``bytes.join``: below it, numpy's
# per-call overhead costs more than the gather saves (measured crossover).
GATHER_MIN_LETTERS = 64
# Most letters the power image table holds: it tabulates sigma^r for the
# largest r whose (alphabet, longest |sigma^r(b)|) table stays within this,
# so one gather expands r levels (r = 6 for 1: 112; 2: 221, r = 10 for
# 1: 12; 2: 13; 3: 23).
POWER_TABLE_LETTERS = 4096
# Largest r tabulated; reached only by images that grow slowly or not at all.
MAX_POWER = 16
# Fills the short rows of the image tables; never a letter (at most 255 letters).
_PAD = 255
# Raised, as a ValueError, for a word letter that the tables index past.
_OUT_OF_ALPHABET = "word contains an out-of-alphabet letter"


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
            if max(img) >= self.alphabet_size:
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
        return self._image_table.expand(w)

    @cached_property
    def _image_table(self) -> "_ImageTable":
        return _ImageTable(self.images)

    @cached_property
    def _letter_lengths(self) -> list[list[int]]:
        """[|sigma^k(b)| for each letter b] for k = 0 .. the deepest level
        asked for so far; ``letter_lengths`` extends it."""
        return [[1] * self.alphabet_size]

    @cached_property
    def _power_table(self) -> tuple[int, "_ImageTable"]:
        """(r, the table of sigma^r): the largest r <= ``MAX_POWER`` whose
        rows fit ``POWER_TABLE_LETTERS`` letters, and at least 1."""
        r = 1
        for k, lengths in enumerate(islice(letter_lengths(self), 2, MAX_POWER + 1), 2):
            if self.alphabet_size * max(lengths) > POWER_TABLE_LETTERS:
                break
            r = k
        rows = self.images
        for _ in range(r - 1):
            rows = tuple(self.apply(row) for row in rows)
        return r, _ImageTable(rows) if r > 1 else self._image_table

    def apply_power(self, w: Word, n: int) -> Word:
        """sigma^n(w): the n mod r single levels first, while the word is
        short, then n // r gathers through the table of sigma^r."""
        r, power = self._power_table
        for _ in range(n % r):
            w = self.apply(w)
        for _ in range(n // r):
            w = power.expand(w)
        return w

    def image_lengths(self) -> tuple[int, ...]:
        return tuple(len(img) for img in self.images)

    def render(self, w: Word) -> str:
        parts = [self.symbols[b] for b in w]
        if all(len(p) == 1 for p in parts):
            return "".join(parts)
        return ",".join(parts)


class _ImageTable:
    """One level of images as bytes and as (alphabet, longest image) uint8
    rows, short rows padded with ``_PAD``."""

    def __init__(self, images: tuple[Word, ...]):
        width = max(len(img) for img in images)
        self.images = images
        self.rows = np.full((len(images), width), _PAD, np.uint8)
        for a, img in enumerate(images):
            self.rows[a, : len(img)] = np.frombuffer(img, np.uint8)
        self.padded = any(len(img) < width for img in images)

    def expand(self, w: Word) -> Word:
        """The images of w's letters, joined: ``bytes.join`` for short words."""
        if len(w) < GATHER_MIN_LETTERS:
            try:
                return b"".join([self.images[b] for b in w])
            except IndexError:
                raise ValueError(_OUT_OF_ALPHABET) from None
        return self.extend(b"", w, b"").tobytes()

    def extend(self, head: Word, w: Word | np.ndarray, tail: Word) -> Word | np.ndarray:
        """head, the images of the letters of w, then tail: joined as
        ``bytes`` while w is shorter than ``GATHER_MIN_LETTERS``, else one
        uint8 array from a row gather.  w is bytes or a uint8 array."""
        if len(w) < GATHER_MIN_LETTERS:
            return head + self.expand(bytes(w)) + tail
        try:
            body = self.rows.take(np.frombuffer(w, np.uint8), axis=0).ravel()
        except IndexError:
            raise ValueError(_OUT_OF_ALPHABET) from None
        if self.padded:
            body = body[body != _PAD]
        if not head and not tail:
            return body
        return np.concatenate((np.frombuffer(head, np.uint8), body, np.frombuffer(tail, np.uint8)))


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
    shifted = [[matrix[i][j] - (theta if i == j else 0) for j in range(n)] for i in range(n)]
    v = linalg.kernel_vector(shifted)
    if v is None:
        return None
    if next(x for x in v if x) < 0:
        v = [-x for x in v]
    return WeightVector(tuple(map(Fraction, v)), theta)


def eigen_numerators(sub: Substitution, gamma: WeightVector) -> tuple[list[int], int]:
    """gamma's integer numerators over the lcm L of its denominators, and L.

    Raises ``ValueError`` unless gamma has one value per letter and
    gamma(sigma(a)) = theta * gamma(a) holds exactly for every letter a.
    """
    if len(gamma.values) != sub.alphabet_size:
        raise ValueError("the weight vector needs one value per letter")
    scaled, scale = linalg.common_numerators(gamma.values)
    theta = gamma.theta
    for a, img in enumerate(sub.images):
        if sum(scaled[c] for c in img) != theta * scaled[a]:
            raise ValueError(
                f"the weight vector is not an eigenvector for {theta}: "
                f"gamma(sigma({sub.symbols[a]})) != {theta} * gamma({sub.symbols[a]})"
            )
    return scaled, scale


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
    """First min(cap, |sigma^k(w)|) letters of sigma^k(w)."""
    return expand_levels(sub, [b""] * k + [w], cap)


def expand_levels(
    sub: Substitution, parts: Sequence[Word], cap: int, from_end: bool = False
) -> Word:
    """First min(cap, |W|) letters of W = parts[0] sigma(parts[1]) ...
    sigma^K(parts[K]), or with ``from_end`` the last of
    W = sigma^K(parts[K]) ... sigma(parts[1]) parts[0].

    sigma^k(w) is the word of ``[b""] * k + [w]``.  W is built top-down as
    W_K = parts[K], W_j = parts[j] sigma(W_{j+1}) (mirrored from the end):
    single levels down to the highest multiple of r, then one gather
    through the table of sigma^r per block of r levels, whose head
    parts[j] ... sigma^(r-1)(parts[j+r-1]) is short.  Before each gather,
    W_j keeps only the letters that can still reach the cap: W holds
    ``before`` letters ahead of sigma^j(W_j), and every letter of W_j grows
    to at least min_b |sigma^j(b)| letters.  Once long, the word stays a
    uint8 array and becomes ``bytes`` once.
    """
    need = []  # need[j]: the letters of W_j that can reach the cap
    before = 0
    for part, lengths in zip(parts, letter_lengths(sub)):
        if before >= cap:
            break
        need.append(-(-(cap - before) // min(lengths)))
        try:
            before += sum(lengths[b] for b in part)
        except IndexError:
            raise ValueError(_OUT_OF_ALPHABET) from None
    r, power = sub._power_table
    w = b""
    top = j = len(need)
    while j:
        # W_{j-m} = head sigma^m(W_j), head = parts[j-m] ... sigma^(m-1)(parts[j-1])
        m = r if j % r == 0 and j < top else 1
        head = parts[j - 1]
        for part in reversed(parts[j - m : j - 1]):
            head = sub.apply(head) + part if from_end else part + sub.apply(head)
        if j < top:
            w = w[-need[j] :] if from_end else w[: need[j]]
        table = power if m == r else sub._image_table
        w = table.extend(b"", w, head) if from_end else table.extend(head, w, b"")
        j -= m
    return bytes(w[-cap:] if from_end else w[:cap])


def letter_lengths(sub: Substitution) -> Iterator[list[int]]:
    """The exact lengths [|sigma^k(b)| for each letter b] for k = 0, 1, 2, ...

    Each level is computed once per substitution and kept on it; the lists
    are shared, so callers must not change them."""
    levels = sub._letter_lengths
    for k in count():
        if k == len(levels):
            lengths = levels[-1]
            levels.append([sum(lengths[b] for b in img) for img in sub.images])
        yield levels[k]


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
