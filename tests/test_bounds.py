from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_lab.bounds import (
    _census_probes,
    _nearest_bit,
    census_probe,
    liminf_constant,
    liminf_probe,
)
from subshift_lab.linalg import common_numerators
from subshift_lab.prefix_suffix import (
    PSTriple,
    SymbolicPoint,
    _random_path,
    build_ps_automaton,
    determined_lengths,
    point_from_path,
    sample_path_with_coverage,
    sample_point_with_coverage,
)
from subshift_lab.substitution import (
    Substitution,
    WeightVector,
    eigenvector_for,
    gamma_of_word,
    iterate_prefix,
    matrix_of,
    parse_substitution,
    word,
)


def scaled_partial_sums(gamma: WeightVector, w: bytes) -> tuple[np.ndarray, int]:
    """Running sums L*S_1, ..., L*S_n of gamma along w as int64, and L.

    L is the lcm of gamma's denominators.  Raises ``ValueError`` unless
    max|L*gamma| * |w| fits in int64, so no partial sum can wrap.
    """
    scaled, denom = common_numerators(gamma.values)
    bound = max(abs(v) for v in scaled) * len(w)
    if bound > np.iinfo(np.int64).max:
        raise ValueError(
            f"ergodic sums can reach {bound} units of 1/{denom}, beyond int64; "
            "scale gamma down or shorten the horizon"
        )
    table = np.array(scaled, dtype=np.int64)
    return np.cumsum(table[np.frombuffer(w, dtype=np.uint8)]), denom


def window_probe(gamma: WeightVector, point, horizon: int, reverse: bool = False) -> Fraction:
    """The probe the census replaced, as its oracle: min |S_n| over
    n <= horizon by one int64 cumsum over the materialised window."""
    window = point.left[::-1] if reverse else point.right
    if len(window) < horizon:
        raise ValueError(f"window of length {len(window)} does not cover horizon {horizon}")
    sums, denom = scaled_partial_sums(gamma, window[:horizon])
    return Fraction(int(np.abs(sums).min()), denom)


@dataclass(frozen=True)
class SumTrace:
    """Running ergodic sums S_0 = 0, S_1, ..., S_n over a word."""

    word: bytes
    partials: tuple[Fraction, ...]


def ergodic_sums(gamma: WeightVector, w: bytes) -> SumTrace:
    """Exact running sums of gamma along w, letter by letter: the oracle for
    the scaled int64 sums of the probes."""
    partials = [Fraction(0)]
    acc = Fraction(0)
    for b in w:
        acc += gamma.values[b]
        partials.append(acc)
    return SumTrace(w, tuple(partials))


def test_ergodic_sums(twist2, sync3):
    _, g = twist2
    trace = ergodic_sums(g, word([0, 0, 1]))
    assert trace.partials == (0, 1, 2, 1)
    assert ergodic_sums(g, b"").partials == (0,)
    assert ergodic_sums(sync3[1], word([0, 1, 0, 2])).partials == (0, 1, 1, 2, 1)


def test_sum_increments_match_letter_weights(twist2):
    _, g = twist2
    w = word([0, 1, 1, 0, 1])
    trace = ergodic_sums(g, w)
    for k, letter in enumerate(w):
        assert trace.partials[k + 1] - trace.partials[k] == g.values[letter]


def test_liminf_constant(twist2, sync3):
    assert liminf_constant(*twist2) == 4
    assert liminf_constant(*sync3) == 3


def test_liminf_constant_matches_brute_enumeration(sync3):
    sub, g = sync3
    letters = max(abs(g.values[a]) for a in range(sub.alphabet_size))
    suffixes, prefixes = set(), set()
    for a in range(sub.alphabet_size):
        img = sub.image(a)
        for i in range(len(img)):
            prefixes.add(img[:i])
            suffixes.add(img[i + 1 :])
    brute = (
        letters
        + max(abs(gamma_of_word(g, s)) for s in suffixes)
        + max(abs(gamma_of_word(g, p)) for p in prefixes)
    )
    assert liminf_constant(sub, g) == brute


def test_liminf_constant_rejects_other_eigenvalues(twist2):
    sub, _ = twist2
    g3 = eigenvector_for(matrix_of(sub), 3)
    assert g3 is not None
    with pytest.raises(ValueError):
        liminf_constant(sub, g3)


def test_liminf_probe_first_step_bound(sync3):
    sub, g = sync3
    for seed in range(6):
        point = sample_point_with_coverage(sub, seed=seed, min_right=50)
        probe = liminf_probe(sub, g, point, horizon=50)
        assert probe <= abs(g.values[point.right[0]])


def test_liminf_probe_fixed_point(twist2):
    sub, g = twist2
    from subshift_lab.prefix_suffix import PSTriple

    img = sub.image(0)
    path = [PSTriple(0, b"", 0, img[1:])] * 9
    point = point_from_path(sub, path, window=3**8)
    c = liminf_constant(sub, g)
    assert liminf_probe(sub, g, point, horizon=3**8) < c


def test_liminf_probe_reverse(twist2):
    sub, g = twist2
    c = liminf_constant(sub, g)
    point = sample_point_with_coverage(sub, seed=17, min_right=2000, min_left=2000)
    assert liminf_probe(sub, g, point, horizon=2000) < c
    assert liminf_probe(sub, g, point, horizon=2000, reverse=True) < c


def test_liminf_probe_window_too_short(twist2):
    sub, g = twist2
    point = point_from_path(sub, _random_path(sub, 2, seed=0), window=5)
    with pytest.raises(ValueError):
        liminf_probe(sub, g, point, horizon=10**6)


def test_probe_matches_naive_cumsum(twist2):
    sub, g = twist2
    point = sample_point_with_coverage(sub, seed=23, min_right=300)
    horizon = 300
    acc = Fraction(0)
    best = None
    for letter in point.right[:horizon]:
        acc += g.values[letter]
        best = abs(acc) if best is None else min(best, abs(acc))
    assert liminf_probe(sub, g, point, horizon) == best


def test_scaled_partial_sums_reject_int64_overflow(twist2):
    sub, _ = twist2
    big = WeightVector((Fraction(2**62), Fraction(-(2**62))), Fraction(1))
    unit = WeightVector((Fraction(1), Fraction(-1)), Fraction(1))
    point = sample_point_with_coverage(sub, seed=0, min_right=729, min_left=729)
    with pytest.raises(ValueError, match="int64"):
        scaled_partial_sums(big, point.right[:2])
    # the census sums Python ints: the probes are exact, 2**62 times the
    # unit-gamma probes, where the window oracle can only refuse
    for horizon in (1, 2, 100, 729):
        for reverse in (False, True):
            assert liminf_probe(sub, big, point, horizon, reverse) == 2**62 * liminf_probe(
                sub, unit, point, horizon, reverse
            )
    assert liminf_probe(sub, big, point, 1) == 2**62
    # one letter of 2**62 still fits
    sums, denom = scaled_partial_sums(big, point.right[:1])
    assert abs(int(sums[0])) == 2**62 and denom == 1


def test_unit_gamma_probe_unchanged_by_int64_guard(twist2):
    sub, _ = twist2
    unit = WeightVector((Fraction(1), Fraction(-1)), Fraction(1))
    point = sample_point_with_coverage(sub, seed=0, min_right=729, min_left=729)
    assert liminf_probe(sub, unit, point, 729) == 0
    sums, denom = scaled_partial_sums(unit, point.right[:729])
    assert denom == 1
    assert sums.tolist() == [int(s) for s in ergodic_sums(unit, point.right[:729]).partials[1:]]


def test_bounded_orbit_when_chain_coboundary_everywhere():
    # 1 -> 121, 2 -> 212 generates a 2-periodic subshift: gamma = (1, -1) is
    # a coboundary, every digit chain class is a coboundary, and the running
    # sums stay in a fixed window at every horizon
    sub = parse_substitution("1: 121\n2: 212")
    g = eigenvector_for(matrix_of(sub), 1)
    from subshift_lab.automata import build_tau_automaton
    from subshift_lab.markov import recurrent_classes

    for tau in range(3):
        chain = build_tau_automaton(sub, g, tau)
        assert all(c.coboundary for c in recurrent_classes(chain))
    point = sample_point_with_coverage(sub, seed=1, min_right=3**7)
    scaled, denom = common_numerators(g.values)
    table = np.array(scaled, dtype=np.int64)
    letters = np.frombuffer(point.right[: 3**7], dtype=np.uint8)
    sums = np.cumsum(table[letters])
    maxima = [np.abs(sums[: 3**k]).max() for k in range(3, 8)]
    assert len(set(int(m) for m in maxima)) == 1  # horizon independent


# ---------------------------------------------------------------------------
# the prefix-sum census against the window oracle
# ---------------------------------------------------------------------------

# (letter counts of each image, theta): occurrence matrices with an
# eigenvalue of modulus one; any order of each image keeps the matrix, so
# the substitution stays primitive and gamma stays its eigenvector.  In the
# last four gamma's two values differ in size, so reading a block's
# letters in the wrong order changes the sums; gamma = (3, -1) leaves gaps
# of two values in the prefix-sum sets.
_COUNT_SHAPES = [
    ([[2, 1], [1, 2]], 1),  # constant length 3 (twist2)
    ([[1, 2], [2, 1]], -1),  # constant length 3 (1: 122; 2: 211)
    ([[2, 1], [2, 3]], 1),  # lengths 3 and 5 (1: 112; 2: 12212)
    ([[1, 2], [3, 2]], -1),  # lengths 3 and 5 (1: 122; 2: 11122)
    ([[1, 1, 0], [1, 0, 1], [0, 1, 1]], 1),  # constant length 2 (sync3)
    ([[2, 2], [1, 3]], 1),  # constant length 4
    ([[3, 1], [4, 3]], 1),  # lengths 4 and 7
    ([[1, 4], [1, 1]], -1),  # lengths 5 and 2
    ([[2, 3], [1, 4]], 1),  # constant length 5, gamma = (3, -1)
]


@st.composite
def census_cases(draw):
    """A unit-eigenvalue substitution, a rational multiple of its gamma, a
    consistent path of depth 1-6, drawn level by level from the top, and
    one horizon per side that the path determines (None for an empty side)."""
    counts, theta = draw(st.sampled_from(_COUNT_SHAPES))
    images = [
        draw(st.permutations([b for b, k in enumerate(row) for _ in range(k)]))
        for row in counts
    ]
    sub = Substitution.from_words(images)
    base = eigenvector_for(matrix_of(sub), theta)
    scale = draw(st.sampled_from([Fraction(1), Fraction(3, 7), Fraction(-5, 2)]))
    gamma = WeightVector(tuple(v * scale for v in base.values), base.theta)
    parent = draw(st.integers(0, sub.alphabet_size - 1))
    top_down = []
    for _ in range(draw(st.integers(1, 6))):
        img = sub.image(parent)
        pos = draw(st.integers(0, len(img) - 1))
        top_down.append(PSTriple(parent, img[:pos], img[pos], img[pos + 1 :]))
        parent = img[pos]
    path = tuple(reversed(top_down))
    cuts = [draw(st.integers(1, n)) if n else None for n in determined_lengths(sub, path)]
    return sub, gamma, path, cuts


@settings(max_examples=80, deadline=None)
@given(census_cases())
def test_census_probe_matches_window_oracle(case):
    sub, gamma, path, (cut_right, cut_left) = case
    right, left = determined_lengths(sub, path)
    point = point_from_path(sub, path, max(right, left))
    for reverse, determined, cut in ((False, right, cut_right), (True, left, cut_left)):
        if determined == 0:
            continue
        # the first letter, a horizon that (mostly) cuts a block, all letters
        for horizon in (1, cut, determined):
            expected = window_probe(gamma, point, horizon, reverse)
            assert census_probe(sub, gamma, path, horizon, reverse) == expected
            assert liminf_probe(sub, gamma, point, horizon, reverse) == expected


def test_nearest_bit_matches_brute_force():
    for bits in range(1, 1 << 9):
        for target in range(-3, 13):
            expected = min(abs(i - target) for i in range(9) if bits >> i & 1)
            assert _nearest_bit(bits, target) == expected


def test_census_probe_cuts_blocks_at_every_horizon():
    # every horizon of one point, so every block is cut at every position
    sub = parse_substitution("1: 112\n2: 12212")
    g = eigenvector_for(matrix_of(sub), 1)
    path = sample_path_with_coverage(sub, seed=3, min_right=400, min_left=400)
    point = point_from_path(sub, path, 400)
    for reverse in (False, True):
        horizons = range(1, 401)
        assert _census_probes(sub, g, path, horizons, reverse) == [
            window_probe(g, point, horizon, reverse) for horizon in horizons
        ]


@pytest.mark.parametrize("name", ["twist2", "sync3"])
def test_census_probe_list_matches_one_horizon_calls(request, name):
    # one census per path and direction serves every horizon of the list
    sub, g = request.getfixturevalue(name)
    d = len(sub.images[0])
    for seed in range(20):
        path = sample_path_with_coverage(sub, seed, min_right=d**8, min_left=d**8)
        right, left = determined_lengths(sub, path)
        for reverse, most in ((False, right), (True, left)):
            horizons = [d**8, 1, d**4, most, d**4 + seed]
            assert _census_probes(sub, g, path, horizons, reverse) == [
                census_probe(sub, g, path, h, reverse) for h in horizons
            ]


def test_census_probe_rejects_horizon_below_one(twist2):
    sub, g = twist2
    path = sample_path_with_coverage(sub, seed=0, min_right=50)
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        census_probe(sub, g, path, 0)


def test_census_probe_rejects_non_eigenvector(twist2):
    # checked without assert, so python -O keeps it
    sub, _ = twist2
    g = WeightVector((Fraction(1), Fraction(0)), Fraction(1))
    path = sample_path_with_coverage(sub, seed=0, min_right=50, min_left=50)
    with pytest.raises(ValueError, match="not an eigenvector"):
        census_probe(sub, g, path, 50)
    with pytest.raises(ValueError, match="not an eigenvector"):
        liminf_probe(sub, g, point_from_path(sub, path, 50), 50, reverse=True)


def test_census_probe_rejects_eigenvalue_three(twist2):
    sub, _ = twist2
    g3 = eigenvector_for(matrix_of(sub), 3)
    assert g3 is not None
    path = sample_path_with_coverage(sub, seed=0, min_right=50)
    with pytest.raises(ValueError, match="modulus one"):
        census_probe(sub, g3, path, 50)


def test_census_probe_rejects_horizon_past_the_path(twist2):
    sub, g = twist2
    path = sample_path_with_coverage(sub, seed=0, min_right=50, min_left=50)
    right, left = determined_lengths(sub, path)
    assert census_probe(sub, g, path, right) <= liminf_constant(sub, g)
    with pytest.raises(ValueError, match=f"horizon {right + 1} runs past the {right} letters"):
        _census_probes(sub, g, path, [1, right + 1])
    with pytest.raises(ValueError, match=f"horizon {left + 1} runs past the {left} letters"):
        census_probe(sub, g, path, left + 1, reverse=True)


def test_liminf_probe_rejects_window_past_the_path(twist2):
    # a window may run past the one letter its path determines (here the
    # fixed point of 1 follows the empty suffix): that letter opens the
    # window, so horizon 1 is the window's own answer, and the census
    # refuses every horizon past it
    sub, g = twist2
    point = SymbolicPoint(
        sub,
        (PSTriple(0, word([0, 0]), 1, b""),),
        word([0, 0]),
        word([1]) + iterate_prefix(sub, 0, 99),
        1,
        0,
    )
    assert len(point.right) == 100
    assert liminf_probe(sub, g, point, 1) == window_probe(g, point, 1)
    with pytest.raises(ValueError, match="horizon 2 runs past the 1 letters"):
        liminf_probe(sub, g, point, 2)


def test_census_probe_far_horizon(twist2, sync3):
    # d**150 letters: the cost follows the path's depth, not the horizon
    for sub, g in (twist2, sync3):
        d = len(sub.images[0])
        horizon = d**150
        path = sample_path_with_coverage(sub, seed=1, min_right=horizon, min_left=horizon)
        c = liminf_constant(sub, g)
        assert census_probe(sub, g, path, horizon) < c
        assert census_probe(sub, g, path, horizon, reverse=True) < c
