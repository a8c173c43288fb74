from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from subshift_lab.bounds import (
    bounded_prefixes,
    liminf_constant,
    liminf_probe,
    scaled_partial_sums,
)
from subshift_lab.prefix_suffix import (
    build_ps_automaton,
    point_from_path,
    sample_point,
    sample_point_with_coverage,
)
from subshift_lab.substitution import (
    WeightVector,
    eigenvector_for,
    gamma_of_word,
    matrix_of,
    parse_substitution,
    word,
)


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


def test_bounded_prefixes_skip_and_bound(twist2):
    sub, g = twist2
    c = liminf_constant(sub, g)
    found_any = False
    for seed in range(12):
        point = sample_point(sub, 5, seed=seed)
        fam = bounded_prefixes(sub, g, point.path)
        for entry in fam:
            found_any = True
            assert abs(entry.value) <= c
            # each family word is a prefix of the forward window
            assert point.right.startswith(entry.word)
        # levels whose next suffix is empty are skipped
        for k in range(len(point.path) - 1):
            if not point.path[k + 1].suffix:
                assert all(e.level != k for e in fam)
    assert found_any


def test_bounded_prefixes_identity_with_negative_eigenvalue():
    sub = parse_substitution("1: 122\n2: 211")
    g = eigenvector_for(matrix_of(sub), -1)
    for seed in range(8):
        point = sample_point(sub, 5, seed=seed)
        # the identity assertion inside bounded_prefixes runs with theta = -1
        for entry in bounded_prefixes(sub, g, point.path):
            assert abs(entry.value) <= liminf_constant(sub, g)


def test_bounded_prefixes_rejects_non_eigenvector(twist2):
    # the identity check must hold under python -O too, where asserts vanish
    sub, _ = twist2
    g = WeightVector((Fraction(1), Fraction(0)), Fraction(1))
    point = sample_point(sub, 5, seed=0)
    with pytest.raises(ValueError, match="prefix family identity"):
        bounded_prefixes(sub, g, point.path)


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
    point = sample_point(sub, 2, seed=0, window=5)
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
    point = sample_point_with_coverage(sub, seed=0, min_right=729, min_left=729)
    with pytest.raises(ValueError, match="int64"):
        scaled_partial_sums(big, point.right[:2])
    with pytest.raises(ValueError, match="int64"):
        liminf_probe(sub, big, point, 729)
    with pytest.raises(ValueError, match="int64"):
        liminf_probe(sub, big, point, 729, reverse=True)
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
    from subshift_lab.markov import chain_of, recurrent_classes

    for tau in range(3):
        chain = chain_of(build_tau_automaton(sub, g, tau))
        assert all(c.coboundary for c in recurrent_classes(chain))
    point = sample_point_with_coverage(sub, seed=1, min_right=3**7)
    scaled, denom = g.scaled_integers()
    table = np.array(scaled, dtype=np.int64)
    letters = np.frombuffer(point.right[: 3**7], dtype=np.uint8)
    sums = np.cumsum(table[letters])
    maxima = [np.abs(sums[: 3**k]).max() for k in range(3, 8)]
    assert len(set(int(m) for m in maxima)) == 1  # horizon independent
