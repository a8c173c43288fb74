import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_lab.automata import (
    AutomatonEdge,
    build_simplified_automaton,
    build_tau_automaton,
)
from subshift_lab.substitution import (
    Substitution,
    WeightVector,
    eigenvector_for,
    gamma_of_word,
    matrix_of,
    parse_substitution,
)


def random_nonsync_pair(rng) -> Substitution:
    k = rng.randint(1, 3)
    img = [0] * (k + 1) + [1] * k
    rng.shuffle(img)
    return Substitution.from_words([img, [1 - x for x in img]])


def test_simplified_edges_match_contract(twist2):
    sub, g = twist2
    aut = build_simplified_automaton(sub, g)
    idx = aut.states.index((0, (1,)))  # the state (1, 2) in 1-based symbols
    edges = {e.m: (aut.states[e.target], e.payoff) for e in aut.edges[idx]}
    assert edges[1] == ((0, (1,)), Fraction(0))
    assert edges[2] == ((0, (1,)), Fraction(-2))
    assert edges[3] == ((1, (0,)), Fraction(-2))
    idx = aut.states.index((1, (0,)))
    edges = {e.m: (aut.states[e.target], e.payoff) for e in aut.edges[idx]}
    assert edges[1] == ((1, (0,)), Fraction(0))
    assert edges[2] == ((1, (0,)), Fraction(2))
    assert edges[3] == ((0, (1,)), Fraction(2))


def test_diagonal_is_forward_invariant(twist2, sync3):
    for sub, g in (twist2, sync3):
        aut = build_tau_automaton(sub, g, 0)
        for i, (a, v) in enumerate(aut.states):
            if v[0] != a:
                continue
            for e in aut.edges[i]:
                ta, tv = aut.states[e.target]
                assert tv[0] == ta


def test_out_degree_is_d(twist2, sync3):
    for sub, g in (twist2, sync3):
        d = len(sub.images[0])
        for tau in range(d):
            aut = build_tau_automaton(sub, g, tau)
            assert all(len(group) == d for group in aut.edges)
            ms = [tuple(e.m for e in group) for group in aut.edges]
            assert all(m == tuple(range(1, d + 1)) for m in ms)


def test_simplified_has_nine_states(sync3):
    aut = build_simplified_automaton(*sync3)
    assert len(aut.states) == 9


def test_single_letter_alphabet():
    # the identity substitution on one letter: a single state with a
    # zero-payoff self loop (the only case where |A| = 1 has a unit
    # eigenvalue; longer images force theta = d > 1)
    sub = Substitution.from_words([[0]])
    gamma = eigenvector_for(matrix_of(sub), 1)
    assert gamma is not None
    for aut in (build_simplified_automaton(sub, gamma), build_tau_automaton(sub, gamma, 0)):
        assert len(aut.states) == 1
        (loop,) = aut.edges[0]
        assert loop.target == 0 and loop.payoff == 0


def test_projection_consistency(twist2, sync3):
    rng = random.Random(7)
    subs = [twist2, sync3]
    for _ in range(6):
        sub = random_nonsync_pair(rng)
        subs.append((sub, eigenvector_for(matrix_of(sub), 1)))
    for sub, g in subs:
        full = build_tau_automaton(sub, g, 0)
        simple = build_simplified_automaton(sub, g)
        for i, (a, v) in enumerate(full.states):
            j = simple.states.index((a, (v[0],)))
            for ef, es in zip(full.edges[i], simple.edges[j]):
                assert ef.m == es.m
                assert ef.payoff == es.payoff
                fa, fv = full.states[ef.target]
                sa, sv = simple.states[es.target]
                assert (fa, fv[0]) == (sa, sv[0])


def test_tau_automaton_rejects_bad_input(twist2):
    from subshift_lab.substitution import WeightVector

    iet4 = parse_substitution("1: 14\n2: 14224\n3: 14232324\n4: 142324")
    sub, g = twist2
    with pytest.raises(ValueError):
        build_tau_automaton(sub, g, 3)
    dummy = WeightVector((Fraction(1), Fraction(0), Fraction(0), Fraction(-1)), Fraction(1))
    with pytest.raises(ValueError):
        build_tau_automaton(iet4, dummy, 0)  # non-constant length is rejected


def test_exports(twist2):
    sub, g = twist2
    aut = build_tau_automaton(sub, g, 1)
    dot = aut.to_dot()
    assert dot.count("->") == 8 * 3
    doc = aut.to_json()
    assert doc["tau"] == 1 and len(doc["states"]) == 8


def test_one_step_synchronizable_has_unique_diagonal_class():
    # 1 -> 12, 2 -> 13, 3 -> 13 shares a letter position for every pair
    from fractions import Fraction as F

    from subshift_lab.markov import chain_of, recurrent_classes
    from subshift_lab.substitution import WeightVector

    sub = parse_substitution("1: 12\n2: 13\n3: 13")
    assert all(
        any(x == y for x, y in zip(sub.images[b], sub.images[c]))
        for b in range(3)
        for c in range(b + 1, 3)
    )
    gamma = WeightVector((F(1), F(0), F(-1)), F(1))  # structure is payoff-free
    chain = chain_of(build_simplified_automaton(sub, gamma))
    classes = recurrent_classes(chain)
    assert len(classes) == 1
    assert {chain.states[s] for s in classes[0].states} == {
        (a, (a,)) for a in range(3)
    }


def test_strongly_nonsync_diagonal_is_disconnected(twist2):
    # no edge enters the diagonal from outside it in the simplified chain
    rng = random.Random(11)
    subs = [twist2[0]] + [random_nonsync_pair(rng) for _ in range(5)]
    for sub in subs:
        g = eigenvector_for(matrix_of(sub), 1)
        from subshift_lab.markov import chain_of

        chain = chain_of(build_simplified_automaton(sub, g))
        for i, (a, v) in enumerate(chain.states):
            if v[0] == a:
                continue
            for e in chain.edges[i]:
                ta, tv = chain.states[e.target]
                assert tv[0] != ta


# ---------------------------------------------------------------------------
# integer prefix-sum payoffs against the gamma_of_word sums they replaced
# ---------------------------------------------------------------------------


def _reference_edges(sub, gamma, tau, simplified):
    """Edge groups with payoffs from two ``gamma_of_word`` sums per edge."""
    d = len(sub.images[0])
    n = sub.alphabet_size
    if simplified:
        states = [(a, (b,)) for a in range(n) for b in range(n)]
    else:
        states = [(a, (v1, v2)) for a in range(n) for v1 in range(n) for v2 in range(n)]
    index = {s: i for i, s in enumerate(states)}
    groups = []
    for a, v in states:
        img_a = sub.images[a]
        img_v = b"".join(sub.images[b] for b in v)
        out = []
        for m in range(1, d + 1):
            j = m + tau
            if simplified:
                target = (img_a[m - 1], (img_v[j - 1],))
            else:
                target = (img_a[m - 1], (img_v[j - 1], img_v[j]))
            payoff = gamma_of_word(gamma, img_a[m:]) + gamma_of_word(gamma, img_v[: j - 1])
            out.append(AutomatonEdge(index[(a, v)], m, index[target], payoff))
        groups.append(tuple(out))
    return tuple(groups)


@st.composite
def weighted_substitutions(draw):
    """Constant-length substitutions on 1-3 letters with a rational weight
    vector; the automata do not need it to be an eigenvector."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 5))
    images = [draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d)) for _ in range(n)]
    values = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=n, max_size=n
        ).filter(any)
    )
    return Substitution.from_words(images), WeightVector(tuple(values), Fraction(1))


@settings(max_examples=40, deadline=None)
@given(weighted_substitutions(), st.data())
def test_automaton_payoffs_match_gamma_of_word(sub_gamma, data):
    sub, gamma = sub_gamma
    d = len(sub.images[0])
    tau = data.draw(st.integers(0, d - 1))
    assert build_tau_automaton(sub, gamma, tau).edges == _reference_edges(sub, gamma, tau, False)
    assert build_simplified_automaton(sub, gamma).edges == _reference_edges(sub, gamma, 0, True)
