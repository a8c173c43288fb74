import json
import random
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subshift_lab.substitution import (
    GATHER_MIN_LETTERS,
    MAX_POWER,
    POWER_TABLE_LETTERS,
    Substitution,
    WeightVector,
    char_poly,
    constant_length,
    eigenvector_for,
    expand_levels,
    expand_prefix,
    factor_blocks,
    gamma_of_word,
    is_primitive,
    iterate_prefix,
    letter_lengths,
    matrix_of,
    matrix_to_json,
    parse_substitution,
    parse_substitution_json,
    poly_to_text,
    substitution_to_json,
    word,
)

IET4 = parse_substitution("1: 14\n2: 14224\n3: 14232324\n4: 142324")


def test_matrix_of_basic(twist2):
    sub, _ = twist2
    assert matrix_of(sub) == [[2, 1], [1, 2]]


def test_matrix_of_iet4_is_transpose_of_column_form():
    # occurrence counts in row convention; the column-convention rendition of
    # the same data is the transpose
    m = matrix_of(IET4)
    assert m == [[1, 0, 0, 1], [1, 2, 0, 2], [1, 3, 2, 2], [1, 2, 1, 2]]
    transpose = [[m[j][i] for j in range(4)] for i in range(4)]
    assert transpose == [[1, 1, 1, 1], [0, 2, 3, 2], [0, 0, 2, 1], [1, 2, 2, 2]]


def test_matrix_of_identity_substitution():
    sub = Substitution.from_words([[0], [1]])
    assert matrix_of(sub) == [[1, 0], [0, 1]]


def test_row_sums_are_image_lengths():
    for sub in (IET4, parse_substitution("1: 112\n2: 221")):
        m = matrix_of(sub)
        assert [sum(row) for row in m] == list(sub.image_lengths())


def test_primitivity():
    assert is_primitive(parse_substitution("1: 112\n2: 221"))
    assert not is_primitive(parse_substitution("1: 11\n2: 22"))
    assert is_primitive(parse_substitution("1: 12\n2: 13\n3: 23"))


def test_constant_length():
    assert constant_length(parse_substitution("1: 112\n2: 221")) == 3
    assert constant_length(parse_substitution("1: 12\n2: 13\n3: 23")) == 2
    assert constant_length(IET4) is None
    assert IET4.image_lengths() == (2, 5, 8, 6)


def test_char_poly_examples(twist2):
    assert char_poly(matrix_of(IET4)) == [1, -7, 11, -7, 1]
    assert char_poly([[1, 0], [0, 1]]) == [1, -2, 1]
    assert char_poly(matrix_of(twist2[0])) == [1, -4, 3]


def test_char_poly_rejects_inexact_trace_division():
    # -tr/2 = 1/4 at k = 2 is not an integer; flooring it would give 0
    with pytest.raises(ValueError, match="exact"):
        char_poly([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])


def test_constant_length_right_perron():
    sub = parse_substitution("1: 112\n2: 221")
    m = matrix_of(sub)
    d = constant_length(sub)
    assert [sum(row) for row in m] == [d] * sub.alphabet_size  # M 1 = d 1


def test_eigenvector_examples(twist2, sync3):
    assert twist2[1].values == (Fraction(1), Fraction(-1))
    assert twist2[1].theta == 1
    assert sync3[1].values == (Fraction(1), Fraction(0), Fraction(-1))
    assert eigenvector_for([[2, 1], [1, 1]], 1) is None
    # absence matches the characteristic polynomial evaluated at theta
    assert _horner(char_poly([[2, 1], [1, 1]]), 1) == -1


def _horner(coeffs, x):
    """A leading-first coefficient list evaluated at x."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def test_eigenvector_present_iff_charpoly_root():
    mats = [
        [[2, 1], [1, 2]],
        [[2, 1], [1, 1]],
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[3, 1, 0], [1, 1, 1], [0, 2, 2]],
    ]
    for m in mats:
        for theta in (1, -1):
            has_vec = eigenvector_for(m, theta) is not None
            assert has_vec == (_horner(char_poly(m), theta) == 0)


def test_eigenvector_normalization():
    gamma = eigenvector_for([[2, 1], [1, 2]], 1)
    assert gamma.values[0] > 0
    assert all(v.denominator == 1 for v in gamma.values)


def test_gamma_of_word(twist2, sync3):
    _, g = twist2
    assert gamma_of_word(g, word([0, 0, 1])) == 1
    assert gamma_of_word(g, b"") == 0
    assert gamma_of_word(sync3[1], word([0, 1, 2, 0, 1, 2])) == 0


def test_weight_vector_rejects_zero():
    with pytest.raises(ValueError):
        WeightVector((Fraction(0), Fraction(0)), Fraction(1))


@given(st.lists(st.integers(0, 1), max_size=30), st.lists(st.integers(0, 1), max_size=30))
def test_gamma_is_a_morphism(u, v):
    g = eigenvector_for([[2, 1], [1, 2]], 1)
    assert gamma_of_word(g, word(u + v)) == gamma_of_word(g, word(u)) + gamma_of_word(g, word(v))


@given(st.lists(st.integers(0, 2), min_size=1, max_size=20))
def test_gamma_against_image(w):
    sub = parse_substitution("1: 12\n2: 13\n3: 23")
    g = eigenvector_for(matrix_of(sub), 1)
    assert gamma_of_word(g, sub.apply(word(w))) == g.theta * gamma_of_word(g, word(w))


def test_gamma_image_identity_for_negative_eigenvalue():
    # 1 -> 122, 2 -> 211 has eigenvalue -1 for gamma = (1, -1)
    sub = parse_substitution("1: 122\n2: 211")
    g = eigenvector_for(matrix_of(sub), -1)
    assert g is not None and g.theta == -1
    for w in (word([0]), word([0, 1, 1, 0]), word([1, 1])):
        assert gamma_of_word(g, sub.apply(w)) == -gamma_of_word(g, w)


def test_iterate_prefix(twist2, sync3):
    sub, _ = twist2
    assert sub.render(iterate_prefix(sub, 0, 9)) == "112112221"
    assert iterate_prefix(sub, 0, 1) == word([0])
    assert sync3[0].render(iterate_prefix(sync3[0], 0, 4)) == "1213"


def test_iterate_prefix_rejects_non_growing():
    sub = parse_substitution("1: 1\n2: 22")
    with pytest.raises(ValueError):
        iterate_prefix(sub, 0, 5)


def test_iterate_prefix_consistency_across_lengths(twist2):
    sub, _ = twist2
    long = iterate_prefix(sub, 0, 200)
    for length in (1, 3, 27, 100):
        assert iterate_prefix(sub, 0, length) == long[:length]


# ---------------------------------------------------------------------------
# word expansion against the join-based code it replaced
# ---------------------------------------------------------------------------


EXPANSION_SUBS = {
    "twist2": "1: 112\n2: 221",
    "sync3": "1: 12\n2: 13\n3: 23",
    "fibonacci": "1: 12\n2: 1",
    "mixed": "1: 1112\n2: 21\n3: 3123",
}


def _reference_apply(sub, w):
    return b"".join(sub.images[b] for b in w)


def _reference_expand_prefix(sub, w, k, cap):
    for _ in range(k):
        if not w:
            return b""
        w = _reference_apply(sub, w[:cap])[:cap]
    return w[:cap]


def _reference_expand_suffix(sub, w, k, cap):
    for _ in range(k):
        if not w:
            return b""
        w = _reference_apply(sub, w[-cap:])[-cap:]
    return w[-cap:]


def _expand_suffix(sub, w, k, cap):
    return expand_levels(sub, [b""] * k + [w], cap, from_end=True)


def _reference_iterate_prefix(sub, a, length):
    """Full iterates of a until one is long enough; None once no letter
    reachable from a grows any more."""
    reachable = {a}
    frontier = [a]
    while frontier:
        for c in sub.images[frontier.pop()]:
            if c not in reachable:
                reachable.add(c)
                frontier.append(c)
    lengths = [1] * sub.alphabet_size
    w = bytes([a])
    while len(w) < length:
        grown = [sum(lengths[b] for b in img) for img in sub.images]
        if all(grown[r] == lengths[r] for r in reachable):
            return None
        lengths = grown
        w = _reference_apply(sub, w)
    return w[:length]


@st.composite
def _substitutions(draw, max_letters=6):
    """Alphabets of 1-6 letters with mixed image lengths 1-7."""
    n = draw(st.integers(1, max_letters))
    images = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=7)) for _ in range(n)]
    return Substitution.from_words(images)


@st.composite
def _substitution_and_word(draw):
    sub = draw(_substitutions())
    length = draw(st.integers(0, 3 * GATHER_MIN_LETTERS))
    rnd = draw(st.randoms(use_true_random=False))
    return sub, bytes(rnd.randrange(sub.alphabet_size) for _ in range(length))


@given(_substitution_and_word())
def test_apply_matches_join(case):
    sub, w = case
    assert sub.apply(w) == _reference_apply(sub, w)


@pytest.mark.parametrize("name", EXPANSION_SUBS)
@pytest.mark.parametrize("delta", [-1, 0, 1, 10**4])
def test_apply_matches_join_around_the_crossover(name, delta):
    sub = parse_substitution(EXPANSION_SUBS[name])
    rng = random.Random(delta)
    w = bytes(rng.randrange(sub.alphabet_size) for _ in range(GATHER_MIN_LETTERS + delta))
    assert sub.apply(w) == _reference_apply(sub, w)


def test_apply_full_alphabet_keeps_letter_254():
    # 255 letters, the most a word of bytes allows: the table pads short
    # rows with 255, which must never be taken for letter 254 or kept
    images = [[254] * (1 + a % 3) + [a] for a in range(255)]
    sub = Substitution.from_words(images)
    w = bytes(range(255)) + bytes([254] * 100)
    assert sub.apply(w) == _reference_apply(sub, w)
    assert sub.apply(w).count(254) == sum(len(images[b]) - 1 for b in w) + w.count(254)


@given(
    _substitutions(),
    st.lists(st.integers(0, 5), max_size=12),
    st.integers(0, 6),
    st.integers(1, 400),
)
def test_expansion_matches_reference(sub, letters, k, cap):
    w = bytes(b % sub.alphabet_size for b in letters)
    assert expand_prefix(sub, w, k, cap) == _reference_expand_prefix(sub, w, k, cap)
    assert _expand_suffix(sub, w, k, cap) == _reference_expand_suffix(sub, w, k, cap)


@pytest.mark.parametrize("name", EXPANSION_SUBS)
def test_expansion_cut_is_exact_at_every_cap(name):
    # every cap from 1 to 199 lands on, before and after image boundaries: a
    # cut that keeps one letter too few shows up as a short result
    sub = parse_substitution(EXPANSION_SUBS[name])
    w = bytes(range(sub.alphabet_size)) * 3
    for k in range(1, 6):
        for cap in range(1, 200):
            assert expand_prefix(sub, w, k, cap) == _reference_expand_prefix(sub, w, k, cap)
            assert _expand_suffix(sub, w, k, cap) == _reference_expand_suffix(sub, w, k, cap)


@given(_substitutions(max_letters=4), st.integers(0, 3), st.integers(1, 3000))
def test_iterate_prefix_matches_reference(sub, letter, length):
    a = letter % sub.alphabet_size
    expected = _reference_iterate_prefix(sub, a, length)
    if expected is None:
        with pytest.raises(ValueError, match="does not grow"):
            iterate_prefix(sub, a, length)
    else:
        assert iterate_prefix(sub, a, length) == expected


# ---------------------------------------------------------------------------
# the power image table against letter-by-letter expansion
# ---------------------------------------------------------------------------


# (substitution, r): the table of sigma^r is the widest within POWER_TABLE_LETTERS
POWER_CASES = {
    "twist2": ("1: 112\n2: 221", 6),
    "sync3": ("1: 12\n2: 13\n3: 23", 10),
    "twist7": ("1: 1221121\n2: 2112212", 3),
    "padded": ("1: 112\n2: 12212", 5),  # rows of sigma^5 differ in length
    "stuck": ("1: 12\n2: 2", MAX_POWER),  # letter 2 never grows
}


def _power_sub(name):
    if name == "letters255":
        # 255 letters with images of 3-6 letters: sigma^2 overflows the budget
        images = [[254] * (2 + a % 4) + [a] for a in range(255)]
        return Substitution.from_words(images), 1
    text, r = POWER_CASES[name]
    return parse_substitution(text), r


def _reference_power(sub, w, n):
    for _ in range(n):
        w = _reference_apply(sub, w)
    return w


@pytest.mark.parametrize("name", [*POWER_CASES, "letters255"])
def test_power_table_size(name):
    sub, r = _power_sub(name)
    power, table = sub._power_table
    assert power == r
    # the widest power within the budget: one level more would overflow it
    lengths = list(islice(letter_lengths(sub), r + 2))
    assert r == 1 or sub.alphabet_size * max(lengths[r]) <= POWER_TABLE_LETTERS
    assert r == MAX_POWER or sub.alphabet_size * max(lengths[r + 1]) > POWER_TABLE_LETTERS
    letters = range(sub.alphabet_size)
    assert table.images == tuple(_reference_power(sub, bytes([b]), r) for b in letters)
    assert table.padded == (len(set(map(len, table.images))) > 1)


def test_letter_lengths_are_kept_on_the_substitution():
    sub = parse_substitution("1: 112\n2: 12212")
    walked, lengths = [], [1, 1]
    for _ in range(7):
        walked.append(lengths)
        lengths = [sum(lengths[b] for b in img) for img in sub.images]
    assert list(islice(letter_lengths(sub), 5)) == walked[:5]
    # only the levels asked for are computed, and each only once
    assert len(sub._letter_lengths) == 5
    again = list(islice(letter_lengths(sub), 7))
    assert again == walked and len(sub._letter_lengths) == 7
    assert all(a is b for a, b in zip(again, sub._letter_lengths))


@pytest.mark.parametrize("name", [*POWER_CASES, "letters255"])
def test_apply_power_matches_repeated_apply(name):
    sub, r = _power_sub(name)
    w = bytes(range(sub.alphabet_size))
    expected = w
    for n in range(2 * r + 2):
        assert sub.apply_power(w, n) == expected
        expected = sub.apply(expected)


@pytest.mark.parametrize("name", [*POWER_CASES, "letters255"])
def test_expansion_matches_sliced_power_at_every_cap(name):
    # r levels are one gather through sigma^r, r + 1 a single level first
    sub, r = _power_sub(name)
    w = bytes([sub.alphabet_size - 1])
    for k in (r, r + 1):
        full = _reference_power(sub, w, k)
        for cap in range(len(full) + 2):
            assert expand_prefix(sub, w, k, cap) == full[:cap]
            assert _expand_suffix(sub, w, k, cap) == full[max(len(full) - cap, 0) :]


def _window_oracle(sub, k, cap=2 * 10**4, levels=60):
    """Every k-window of sigma^n(b) for each letter b while |sigma^n(b)| <= cap."""
    found = set()
    for b in range(sub.alphabet_size):
        w = bytes([b])
        for _ in range(levels):
            if len(w) > cap:
                break
            found.update(w[i : i + k] for i in range(len(w) - k + 1))
            w = sub.apply(w)
    return sorted(found)


def _shuffled_twists(count, seed):
    """Two-letter substitutions whose images are shuffles and mirror images."""
    rng = random.Random(seed)
    subs = []
    for _ in range(count):
        j = rng.randint(1, 3)
        image = [0] * (j + 1) + [1] * j
        rng.shuffle(image)
        subs.append(Substitution.from_words([image, [1 - x for x in image]]))
    return subs


def _rules(sub):
    """The rules a -> sigma(a) joined by "; ", as parametrize ids."""
    return "; ".join(f"{sub.symbols[a]}->{sub.render(img)}" for a, img in enumerate(sub.images))


FACTOR_CASES = [
    "1: 112; 2: 221",  # twist2
    "1: 12; 2: 13; 3: 23",  # sync3
    "1: 12; 2: 21",  # Thue-Morse
    "1: 11212; 2: 22121",
    "1: 1112122; 2: 2221211",
    "1: 12; 2: 1",  # Fibonacci, not constant length
    "1: 14; 2: 14224; 3: 14232324; 4: 142324",  # Salem family member n = 1
    "1: 12; 2: 2",  # letter 2 never grows
    "1: 11; 2: 11",  # letter 2 occurs in no image
]


@pytest.mark.parametrize(
    "sub",
    [parse_substitution(text.replace(";", "\n")) for text in FACTOR_CASES]
    + _shuffled_twists(3, seed=4),
    ids=_rules,
)
def test_factor_blocks_match_window_oracle(sub):
    for k in range(1, 9):
        assert factor_blocks(sub, k) == _window_oracle(sub, k)


def test_factor_blocks_rejects_k_below_one(twist2):
    with pytest.raises(ValueError):
        factor_blocks(twist2[0], 0)


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_symbols():
    sub = parse_substitution("a: ab\nb: ba")
    assert sub.symbols == ("a", "b")
    assert sub.images == (word([0, 1]), word([1, 0]))


def test_parse_separated_tokens():
    sub = parse_substitution("1: 1,2\n2: 2 1")
    assert sub.images == (word([0, 1]), word([1, 0]))


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_substitution("1 112")
    with pytest.raises(ValueError):
        parse_substitution("1: 113\n2: 221")
    with pytest.raises(ValueError):
        parse_substitution("1: 12\n1: 21")
    with pytest.raises(ValueError):
        parse_substitution("1: \n2: 1")


def test_parse_json_roundtrip(twist2):
    sub, _ = twist2
    doc = substitution_to_json(sub)
    again = parse_substitution_json(json.dumps(doc))
    assert again.images == sub.images
    assert again.symbols == sub.symbols


@pytest.mark.parametrize(
    "doc, message",
    [
        ([["1", "2"], ["12", "21"]], 'expected an object with "alphabet" and "images"'),
        # a missing key used to escape as a bare KeyError
        ({"images": ["12", "21"]}, 'expected an object with "alphabet" and "images"'),
        ({"alphabet": 2, "images": 5}, '"images" must be a list of strings or lists'),
        ({"alphabet": 2, "images": "12"}, '"images" must be a list of strings or lists'),
        ({"alphabet": 2, "images": [12, 21]}, '"images" must be a list of strings or lists'),
        ({"alphabet": "12", "images": ["12", "21"]}, '"alphabet" must be a letter count'),
        ({"alphabet": None, "images": ["12", "21"]}, '"alphabet" must be a letter count'),
        # the count is checked before any symbol is built
        ({"alphabet": 10**12, "images": ["1"]}, "need exactly one image per letter"),
        ({"alphabet": ["1", "1"], "images": ["11", "11"]}, "duplicate letter in the alphabet"),
        ({"alphabet": [1, "1"], "images": ["11", "11"]}, "duplicate letter in the alphabet"),
    ],
)
def test_parse_json_rejects_malformed_documents(doc, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        parse_substitution_json(json.dumps(doc))


def test_parse_json_rejects_deep_nesting():
    # the decoder's RecursionError used to escape as a traceback
    deep = '{"alphabet": ' + "[" * 10**5 + "]" * 10**5 + ', "images": []}'
    with pytest.raises(ValueError, match="^JSON nested too deeply$"):
        parse_substitution_json(deep)


def test_matrix_serialization():
    assert matrix_to_json([[10**30, 1], [0, 2]]) == [[str(10**30), "1"], ["0", "2"]]
    assert poly_to_text([1, -7, 11, -7, 1]) == "X^4 - 7*X^3 + 11*X^2 - 7*X + 1"


@pytest.mark.parametrize("w", [b"\x05", b"\x05" * 100, b"\x00" * 80 + b"\x02"])
def test_out_of_alphabet_words_are_rejected(twist2, w):
    # short words go through bytes.join, long ones through a row gather
    sub, _ = twist2
    message = "word contains an out-of-alphabet letter"
    with pytest.raises(ValueError, match=message):
        sub.apply(w)
    with pytest.raises(ValueError, match=message):
        sub.apply_power(w, 7)  # one single level, then a gather through sigma^6
    with pytest.raises(ValueError, match=message):
        expand_prefix(sub, w, 3, 10)
    with pytest.raises(ValueError, match=message):
        expand_levels(sub, [b"\x00", w], 5, from_end=True)


@pytest.mark.parametrize("images", [[[0, 2], [1]], [[0], [1, 1, 255]], [[3], [0]]])
def test_out_of_alphabet_images_are_rejected(images):
    with pytest.raises(ValueError, match="^image contains an out-of-alphabet letter$"):
        Substitution.from_words(images)
