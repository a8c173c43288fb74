import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subshift_lab.prefix_suffix import (
    PSTriple,
    SymbolicPoint,
    _random_path,
    build_ps_automaton,
    determined_lengths,
    point_from_path,
    sample_point_with_coverage,
)
from subshift_lab.substitution import Substitution, letter_lengths, parse_substitution, word


def test_ps_automaton_splits(twist2):
    sub, _ = twist2
    automaton = build_ps_automaton(sub)
    triples = automaton.edges[0]
    assert [(t.prefix, t.center, t.suffix) for t in triples] == [
        (b"", 0, word([0, 1])),
        (word([0]), 0, word([1])),
        (word([0, 0]), 1, b""),
    ]
    assert all(len(automaton.edges[a]) == len(sub.image(a)) for a in range(2))


def test_ps_automaton_single_letter_image():
    sub = parse_substitution("1: 2\n2: 12")
    automaton = build_ps_automaton(sub)
    (only,) = automaton.edges[0]
    assert (only.prefix, only.center, only.suffix) == (b"", 1, b"")


def test_ps_automaton_edge_count(sync3):
    automaton = build_ps_automaton(sync3[0])
    assert len(automaton.all_triples()) == 6


def test_ps_exports(sync3):
    automaton = build_ps_automaton(sync3[0])
    dot = automaton.to_dot()
    assert "digraph" in dot
    assert 'label="|1|2"' in dot  # split of sigma(1) at the first position
    assert 'label="1|2|"' in dot  # split of sigma(1) at the last position
    doc = automaton.to_json()
    assert len(doc["edges"]) == 6


def test_point_from_fixed_point_path(twist2):
    sub, _ = twist2
    # all splits at the first position: the path of the fixed point of sigma
    depth = 5
    img = sub.image(0)
    triple = PSTriple(0, b"", 0, img[1:])
    point = point_from_path(sub, [triple] * depth, window=40)
    from subshift_lab.substitution import iterate_prefix

    assert point.right[:40] == iterate_prefix(sub, 0, 40)
    assert point.left == b""


def test_point_window_contract(twist2):
    sub, _ = twist2
    img = sub.image(0)  # 112
    path = [PSTriple(0, word([0]), 0, word([1])), PSTriple(0, b"", 0, word([0, 1]))]
    point = point_from_path(sub, path, window=8)
    # right window: c0 s0 sigma(s1) = 1 2 sigma(12)
    assert point.right == word([0, 1]) + sub.apply(word([0, 1]))
    assert point.right[:2] == word([0, 1])
    # left window: p0 preceded by sigma(p1) = sigma("") = empty
    assert point.left == word([0])


def test_point_zero_window(twist2):
    sub, _ = twist2
    img = sub.image(0)
    point = point_from_path(sub, [PSTriple(0, b"", 0, img[1:])], window=0)
    assert point.right == b"" and point.left == b""


def test_point_rejects_inconsistent_path(twist2):
    sub, _ = twist2
    bad = [PSTriple(0, b"", 0, sub.image(0)[1:]), PSTriple(1, b"", 1, sub.image(1)[1:])]
    with pytest.raises(ValueError):
        point_from_path(sub, bad, window=4)
    with pytest.raises(ValueError):
        point_from_path(sub, [PSTriple(0, b"", 1, word([0, 1]))], window=4)


def _full_point(sub, depth, seed):
    """The point of a random path, its window the full determined length on
    the larger side."""
    path = _random_path(sub, depth, seed)
    return point_from_path(sub, path, max(determined_lengths(sub, path)))


def test_sample_point_depth_one(twist2):
    sub, _ = twist2
    path = _random_path(sub, 1, seed=5)
    assert len(path) == 1
    path[0].check(sub)


def test_sample_point_deterministic(twist2):
    sub, _ = twist2
    a = _full_point(sub, 6, seed=99)
    b = _full_point(sub, 6, seed=99)
    assert a.path == b.path and a.right == b.right and a.left == b.left


def test_sample_point_center_frequencies(twist2):
    # the center letter of a random path should be distributed like a
    # uniform image position
    sub, _ = twist2
    counts = [0, 0]
    trials = 100_000
    for seed in range(trials):
        counts[_random_path(sub, 1, seed=seed)[0].center] += 1
    expected = [0.5, 0.5]  # each letter fills half of all image positions
    for c, e in zip(counts, expected):
        assert abs(c / trials - e) < 0.01


def _window_is_factor(sub, point) -> bool:
    full = sub.apply_power(bytes([point.path[-1].parent]), len(point.path))
    return (point.left + point.right) in full


def _recover_path(sub, point):
    """Re-decompose the full determined window back into its path."""
    full = sub.apply_power(bytes([point.path[-1].parent]), len(point.path))
    assert point.left + point.right == full[: len(point.left) + len(point.right)] or (
        point.left + point.right
    ) in full
    offset = len(point.left)
    parent = point.path[-1].parent
    path = []
    for level in range(len(point.path) - 1, -1, -1):
        img = sub.image(parent)
        lengths = [len(sub.apply_power(bytes([b]), level)) for b in img]
        i = 0
        while offset >= lengths[i]:
            offset -= lengths[i]
            i += 1
        path.append(PSTriple(parent, img[:i], img[i], img[i + 1 :]))
        parent = img[i]
    return tuple(reversed(path))


def test_windows_are_factors_and_paths_recover(twist2, sync3):
    for sub, _ in (twist2, sync3):
        for seed in range(8):
            point = _full_point(sub, 4, seed=seed)
            assert _window_is_factor(sub, point)
            assert _recover_path(sub, point) == point.path


def test_sample_point_with_coverage(twist2):
    sub, _ = twist2
    point = sample_point_with_coverage(sub, seed=3, min_right=500, min_left=500)
    assert len(point.right) >= 500 and len(point.left) >= 500


# ---------------------------------------------------------------------------
# sample_point_with_coverage against the code it replaced, which drew each
# attempt's point in full through join-based expansion
# ---------------------------------------------------------------------------


def _reference_expand_prefix(sub, w, k, cap):
    for _ in range(k):
        if not w:
            return b""
        w = b"".join(sub.images[b] for b in w[:cap])[:cap]
    return w[:cap]


def _reference_expand_suffix(sub, w, k, cap):
    for _ in range(k):
        if not w:
            return b""
        w = b"".join(sub.images[b] for b in w[-cap:])[-cap:]
    return w[-cap:]


def _reference_sample_point(sub, depth, seed, window):
    rng = random.Random(seed)
    path_rev = []
    parent = rng.randrange(sub.alphabet_size)
    for _ in range(depth):
        img = sub.image(parent)
        pos = rng.randrange(len(img))
        path_rev.append(PSTriple(parent, img[:pos], img[pos], img[pos + 1 :]))
        parent = path_rev[-1].center
    path = tuple(reversed(path_rev))
    right_parts, left_parts = [], []
    if window > 0:
        right_parts.append(bytes([path[0].center]))
        need = window - 1
        for k, t in enumerate(path):
            if need <= 0:
                break
            piece = _reference_expand_prefix(sub, t.suffix, k, need)
            right_parts.append(piece)
            need -= len(piece)
        need = window
        for k, t in enumerate(path):
            if need <= 0:
                break
            piece = _reference_expand_suffix(sub, t.prefix, k, need)
            left_parts.append(piece)
            need -= len(piece)
    left = b"".join(reversed(left_parts))
    return SymbolicPoint(path, left, b"".join(right_parts))


def _reference_coverage(sub, seed, min_right, min_left=0):
    d = max(len(img) for img in sub.images)
    start_depth = 2
    need = max(min_right, min_left, 1)
    while d**start_depth < need:
        start_depth += 1
    start_depth += 1
    for attempt in range(64):
        pt = _reference_sample_point(
            sub, start_depth + 2 * attempt, seed * 1009 + attempt, max(min_right, min_left)
        )
        if len(pt.right) >= min_right and len(pt.left) >= min_left:
            return pt
    raise RuntimeError("could not sample a point covering the requested window")


COVERAGE_SUBS = {
    "twist2": "1: 112\n2: 221",
    "sync3": "1: 12\n2: 13\n3: 23",
    "fibonacci": "1: 12\n2: 1",
    "mixed": "1: 1112\n2: 21\n3: 3123",
}


@pytest.mark.parametrize("name", COVERAGE_SUBS)
@pytest.mark.parametrize(
    "min_right,min_left", [(0, 0), (1, 0), (3, 3), (50, 50), (500, 7), (0, 300), (2187, 2187)]
)
def test_coverage_points_match_reference(name, min_right, min_left):
    sub = parse_substitution(COVERAGE_SUBS[name])
    for seed in range(4):
        point = sample_point_with_coverage(sub, seed, min_right, min_left)
        assert point == _reference_coverage(sub, seed, min_right, min_left)


@pytest.mark.parametrize(
    "text,min_right,min_left",
    [
        # a permutation: every point is one letter long
        pytest.param("1: 2\n2: 1", 1, 1, id="permutation"),
        # the lengths stop at |sigma(1)| = 2
        pytest.param("1: 23\n2: 2\n3: 3", 2, 2, id="bounded"),
    ],
)
def test_coverage_fails_fast_when_letters_stop_growing(text, min_right, min_left):
    sub = parse_substitution(text)
    with pytest.raises(ValueError, match="stop growing"):
        sample_point_with_coverage(sub, 0, min_right, min_left)


# ---------------------------------------------------------------------------
# top-down windows against the window of sigma^(K+1)(top parent)
# ---------------------------------------------------------------------------


def _reference_windows(sub, path, windows):
    """(left, right) per window, cut from sigma^(K+1)(top parent) expanded
    level by level: the center sits after sigma^k(p_k) for every level k."""
    full = bytes([path[-1].parent])
    for _ in path:
        full = sub.apply(full)
    center = 0
    for k, t in enumerate(path):
        piece = t.prefix
        for _ in range(k):
            piece = sub.apply(piece)
        center += len(piece)
    return [(full[max(center - w, 0) : center], full[center : center + w]) for w in windows]


def _check_windows(sub, path, windows):
    points = [point_from_path(sub, path, window) for window in windows]
    assert [(p.left, p.right) for p in points] == _reference_windows(sub, path, windows)


def _depth_within(sub, depth, letters):
    """The largest depth up to ``depth`` whose top parent expands to at
    most ``letters`` letters, and at least 1."""
    lengths = list(islice(letter_lengths(sub), depth + 1))
    while depth > 1 and max(lengths[depth]) > letters:
        depth -= 1
    return depth


WINDOW_SUBS = {
    "twist2": "1: 112\n2: 221",  # sigma^6 per gather
    "sync3": "1: 12\n2: 13\n3: 23",  # sigma^10
    "twist7": "1: 1221121\n2: 2112212",  # sigma^3
    "padded": "1: 112\n2: 12212",  # sigma^5, rows of unequal length
    "stuck": "1: 12\n2: 2",  # sigma^16, letter 2 never grows
}


def _window_sub(name):
    if name == "letters255":
        # 255 letters: the power table falls back to sigma itself
        return Substitution.from_words([[254] * (2 + a % 4) + [a] for a in range(255)])
    return parse_substitution(WINDOW_SUBS[name])


@pytest.mark.parametrize("name", [*WINDOW_SUBS, "letters255"])
def test_point_windows_match_the_top_parent_image(name):
    # up to two blocks of r levels below single levels, so both gathers run
    sub = _window_sub(name)
    r, _ = sub._power_table
    depth = _depth_within(sub, 2 * r + 1, 2 * 10**5)
    assert depth > r
    for seed in range(3):
        path = _random_path(sub, depth - seed % 2, seed)
        right, left = determined_lengths(sub, path)
        spread = {right // 3, left // 2, right - 1, right, right + 1, left - 1, left, left + 1}
        windows = set(range(30)) | {w for w in spread if w >= 0} | {max(right, left) + 7}
        _check_windows(sub, path, sorted(windows))


@st.composite
def _paths(draw):
    n = draw(st.integers(1, 4))
    images = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5)) for _ in range(n)]
    sub = Substitution.from_words(images)
    depth = _depth_within(sub, draw(st.integers(1, 12)), 4 * 10**4)
    return sub, _random_path(sub, depth, draw(st.integers(0, 10**6)))


@given(_paths(), st.integers(0, 10**5))
def test_point_windows_match_on_random_paths(case, window):
    sub, path = case
    right, left = determined_lengths(sub, path)
    _check_windows(sub, path, [0, 1, window % (max(right, left) + 2)])
