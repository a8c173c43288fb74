import random
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subshift_lab import linalg
from subshift_lab.automata import build_simplified_automaton, build_tau_automaton, digit_chains
from subshift_lab.markov import (
    ChainEdge,
    ChainGraph,
    IntegerForm,
    _poisson_solution,
    _stationary,
    absorption_probabilities,
    asymptotic_variance,
    block_frequencies,
    chain_report,
    class_period,
    coboundary_on_class,
    compose,
    ergodic_coefficient,
    expected_payoff,
    initial_distribution,
    initial_state_indices,
    is_strongly_connected,
    recurrent_classes,
    transient_states,
    weakly_connected_components,
)
from subshift_lab.substitution import (
    Substitution,
    eigenvector_for,
    factor_blocks,
    gamma_of_word,
    iterate_prefix,
    matrix_of,
    parse_substitution,
)

SYNC3 = "1: 12\n2: 13\n3: 23"


@st.composite
def unit_eigenvalue_substitutions(draw):
    """sync3, or two letters over length d whose images hold a and a - theta
    zeros: the occurrence matrix then has the eigenvalues d and theta = +-1.
    Returns the substitution and its theta-eigenvector."""
    if draw(st.booleans()):
        sub = parse_substitution(SYNC3)
        theta = 1
    else:
        d = draw(st.integers(2, 5))
        theta = draw(st.sampled_from([1, -1]))
        a = draw(st.integers(0, d))
        assume(0 <= a - theta <= d)
        images = [
            draw(st.permutations([0] * zeros + [1] * (d - zeros))) for zeros in (a, a - theta)
        ]
        sub = Substitution.from_words(images)
    return sub, eigenvector_for(matrix_of(sub), theta)


@st.composite
def hypothesis_digit_chains(draw):
    """Composed chains of 1-3 digit automata with a unit eigenvalue."""
    sub, gamma = draw(unit_eigenvalue_substitutions())
    d = len(sub.images[0])
    digits = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=3))
    return compose(*digit_chains(sub, gamma, digits))


def chain_from_edges(states, labels, groups):
    """A chain from ``ChainEdge`` groups, its integer form derived the old
    way: the least common denominators of the probabilities (D) and of the
    payoffs (L), and every edge's numerators over them."""
    edges = [e for group in groups for e in group]
    probs, den = linalg.common_numerators([e.prob for e in edges])
    pays, lattice = linalg.common_numerators([e.payoff for e in edges])
    flat = zip([e.target for e in edges], probs, pays)
    rows = tuple(tuple(islice(flat, len(group))) for group in groups)
    return ChainGraph(tuple(states), tuple(labels), IntegerForm(den, lattice, rows))


def small_chain(edges, n):
    """Helper: edges as {source: [(target, prob, payoff), ...]}."""
    groups = [
        tuple(ChainEdge(t, Fraction(p), Fraction(v)) for t, p, v in edges[s]) for s in range(n)
    ]
    return chain_from_edges(range(n), (str(i) for i in range(n)), groups)


def test_chain_probabilities(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    for group in chain.edges:
        assert all(e.prob == Fraction(1, 3) for e in group)
        assert sum(e.prob for e in group) == 1


def test_chain_rejects_bad_rows():
    with pytest.raises(ValueError):
        small_chain({0: [(0, Fraction(1, 2), 0)]}, 1)


def test_chain_row_sum_message_names_state_and_sum():
    edges = {
        0: [(1, 1, 0)],
        1: [(0, Fraction(1, 2), Fraction(1, 3)), (1, Fraction(1, 3), 0)],
    }
    with pytest.raises(ValueError, match=r"^outgoing probabilities at state 1 sum to 5/6 != 1$"):
        small_chain(edges, 2)
    with pytest.raises(ValueError, match=r"^outgoing probabilities at state 0 sum to 0 != 1$"):
        small_chain({0: []}, 1)


def test_single_state_chain():
    sub = Substitution.from_words([[0]])
    g = eigenvector_for(matrix_of(sub), 1)
    chain = build_simplified_automaton(sub, g)
    assert chain.n == 1 and sum(e.prob for e in chain.edges[0]) == 1


def test_recurrent_classes_tau0(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    classes = recurrent_classes(chain)
    assert len(classes) == 2
    sets = [set(chain.state_labels[s] for s in c.states) for c in classes]
    assert {"1|1", "2|2"} in sets and {"1|2", "2|1"} in sets


def test_recurrent_class_tau1(twist2):
    sub, g = twist2
    chain = build_tau_automaton(sub, g, 1)
    classes = recurrent_classes(chain)
    assert len(classes) == 1
    assert classes[0].period == 1
    assert len(classes[0].states) == chain.n


def test_two_cycle_period():
    chain = small_chain({0: [(1, 1, 0)], 1: [(0, 1, 0)]}, 2)
    classes = recurrent_classes(chain)
    assert classes[0].period == 2
    assert class_period(chain, classes[0].states) == 2


def test_coboundary_examples(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    classes = recurrent_classes(chain)
    diagonal = next(c for c in classes if chain.state_labels[c.states[0]] == "1|1")
    off = next(c for c in classes if c is not diagonal)
    assert diagonal.coboundary
    assert not off.coboundary


def test_all_zero_payoffs_coboundary():
    chain = small_chain(
        {0: [(1, 1, 0)], 1: [(0, Fraction(1, 2), 0), (1, Fraction(1, 2), 0)]}, 2
    )
    assert coboundary_on_class(chain, [0, 1]) is True


def test_stationary_and_payoff(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    classes = recurrent_classes(chain)
    off = next(c for c in classes if chain.state_labels[c.states[0]] == "1|2")
    assert sorted(off.stationary.values()) == [Fraction(1, 2), Fraction(1, 2)]
    assert expected_payoff(chain, off) == 0
    diagonal = next(c for c in classes if c is not off)
    assert expected_payoff(chain, diagonal) == 0


def test_single_state_stationary():
    chain = small_chain(
        {0: [(0, Fraction(1, 2), 1), (0, Fraction(1, 2), -1)]}, 1
    )
    (cls,) = recurrent_classes(chain)
    assert cls.stationary == {0: Fraction(1)}


def test_stationary_rejects_class_with_transient_state():
    # state 0 leaves for the absorbing state 1, so its stationary mass is 0
    chain = small_chain({0: [(1, 1, 0)], 1: [(1, 1, 0)]}, 2)
    with pytest.raises(ValueError, match="positive"):
        _stationary(chain, [0, 1])


def test_variance_values(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    classes = recurrent_classes(chain)
    diagonal = next(c for c in classes if chain.state_labels[c.states[0]] == "1|1")
    off = next(c for c in classes if c is not diagonal)
    assert asymptotic_variance(chain, diagonal) == 0
    assert asymptotic_variance(chain, off) == Fraction(8, 3)
    full = build_tau_automaton(sub, g, 1)
    (cls,) = recurrent_classes(full)
    assert asymptotic_variance(full, cls) == Fraction(4, 3)


def test_variance_rejects_nonzero_mean():
    chain = small_chain({0: [(0, 1, 1)]}, 1)
    (cls,) = recurrent_classes(chain)
    with pytest.raises(ValueError):
        asymptotic_variance(chain, cls)


def test_variance_matches_exact_dp(twist2):
    # Var(S_n)/n converges to the Poisson-equation value on the class
    from subshift_lab.limitdist import exact_sum_distribution

    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    classes = recurrent_classes(chain)
    off = next(c for c in classes if chain.state_labels[c.states[0]] == "1|2")
    init = {s: Fraction(1, len(off.states)) for s in off.states}
    v200, v400 = (
        exact_sum_distribution([chain] * 400, init, 400, checkpoints=(200, 400))
    )
    increment = (v400.variance() - v200.variance()) / 200
    assert abs(increment - Fraction(8, 3)) < Fraction(1, 100)


def test_variance_on_periodic_class():
    # two-state alternating chain with payoffs +1/-1: a coboundary
    chain = small_chain({0: [(1, 1, 1)], 1: [(0, 1, -1)]}, 2)
    (cls,) = recurrent_classes(chain)
    assert cls.period == 2
    assert cls.coboundary
    assert asymptotic_variance(chain, cls) == 0
    # a periodic class that is not a coboundary: 0 -> 1 with payoff +-1,
    # back with payoff 0; the Poisson solve must still work (period 2)
    chain2 = small_chain(
        {0: [(1, Fraction(1, 2), 1), (1, Fraction(1, 2), -1)], 1: [(0, 1, 0)]}, 2
    )
    (cls2,) = recurrent_classes(chain2)
    assert cls2.period == 2 and not cls2.coboundary
    assert asymptotic_variance(chain2, cls2) == Fraction(1, 2)


def test_product_chain(twist2):
    # the product chain of a digit block is the composition of its digits'
    # chains, as ``classify --block`` builds it
    sub, g = twist2
    base = build_tau_automaton(sub, g, 1)
    one = compose(*digit_chains(sub, g, [1]))
    assert one == base
    two = compose(*digit_chains(sub, g, [1, 1]))
    assert two.integer_form == compose(base, base).integer_form
    assert all(e.prob.denominator == 9 for group in two.edges for e in group)
    assert is_strongly_connected(one)
    assert recurrent_classes(one)[0].period == 1


def test_product_chain_needs_a_layer(twist2):
    sub, g = twist2
    with pytest.raises(ValueError, match="at least one layer"):
        compose(*digit_chains(sub, g, []))


def test_digit_chains_share_one_chain_per_digit(twist2):
    sub, g = twist2
    chains = digit_chains(sub, g, [1, 0, 1, 1])
    assert chains[0] is chains[2] is chains[3] and chains[1] is not chains[0]
    assert chains[0] == build_tau_automaton(sub, g, 1)


def test_compose_is_associative(twist2):
    sub, g = twist2
    rng = random.Random(3)
    layers = [build_tau_automaton(sub, g, tau) for tau in range(3)]
    for _ in range(4):
        a, b, c = (layers[rng.randrange(3)] for _ in range(3))
        assert compose(compose(a, b), c).integer_form == compose(a, compose(b, c)).integer_form


def _kernel(chain):
    """Each state's (target, payoff) -> probability map, parallel edges merged."""
    out = []
    for group in chain.edges:
        merged = {}
        for e in group:
            merged[(e.target, e.payoff)] = merged.get((e.target, e.payoff), 0) + e.prob
        out.append(sorted(merged.items()))
    return out


def test_product_chain_matches_power_substitution(twist2):
    """Layer composition equals the chain built directly from sigma^N splits."""
    sub, g = twist2
    d = 3
    rng = random.Random(0)
    n = sub.alphabet_size
    states = [(a, (v1, v2)) for a in range(n) for v1 in range(n) for v2 in range(n)]
    index = {st: i for i, st in enumerate(states)}
    for n_layers in (1, 2, 3):
        for _ in range(3):
            digits = [rng.randrange(d) for _ in range(n_layers)]
            offset = 0
            for k in digits:
                offset = offset * d + k
            img_n = {a: sub.apply_power(bytes([a]), n_layers) for a in range(n)}
            big_d = d**n_layers
            p = Fraction(1, big_d)
            groups = []
            for a, v in states:
                ia = img_n[a]
                iv = img_n[v[0]] + img_n[v[1]]
                merged: dict = {}
                for m in range(1, big_d + 1):
                    j = m + offset
                    tgt = index[(ia[m - 1], (iv[j - 1], iv[j]))]
                    pay = gamma_of_word(g, ia[m:]) + gamma_of_word(g, iv[: j - 1])
                    merged[(tgt, pay)] = merged.get((tgt, pay), Fraction(0)) + p
                groups.append(
                    tuple(ChainEdge(t, pr, pay) for (t, pay), pr in sorted(merged.items()))
                )
            direct = chain_from_edges(states, map(str, states), groups)
            assert _kernel(compose(*digit_chains(sub, g, digits))) == _kernel(direct)


def test_letter_frequencies(twist2, sync3):
    half = Fraction(1, 2)
    assert block_frequencies(twist2[0], 1) == {b"\x00": half, b"\x01": half}
    freqs = block_frequencies(sync3[0], 1).values()
    assert sum(freqs) == 1 and all(f > 0 for f in freqs)


@pytest.mark.parametrize(
    "text",
    [
        "1: 112\n2: 221",
        "1: 12\n2: 13\n3: 23",
        "1: 1112122\n2: 2221211",
        "1: 12\n2: 21",
        "1: 11212\n2: 22121",
    ],
)
def test_one_block_frequencies_are_the_left_perron_vector(text):
    # letter frequencies: the left eigenvector of the occurrence matrix at d
    sub = parse_substitution(text)
    d = len(sub.images[0])
    m = matrix_of(sub)
    transpose = [[m[j][i] for j in range(len(m))] for i in range(len(m))]
    v = eigenvector_for(transpose, d).values
    freqs = block_frequencies(sub, 1)
    assert [freqs[bytes([a])] for a in range(sub.alphabet_size)] == [x / sum(v) for x in v]


def test_block_frequencies_reject_non_constant_length():
    with pytest.raises(ValueError, match="constant length"):
        block_frequencies(parse_substitution("1: 12\n2: 1"), 1)


def test_block_frequencies_sum_to_one(twist2):
    freqs = block_frequencies(twist2[0], 4)
    assert sum(freqs.values()) == 1
    assert all(q > 0 for q in freqs.values())


def test_block_frequencies_match_empirical_counts(twist2):
    sub, _ = twist2
    freqs = block_frequencies(sub, 4)
    prefix = iterate_prefix(sub, 0, 3**9)
    counts: dict = {}
    for i in range(len(prefix) - 3):
        w = prefix[i : i + 4]
        counts[w] = counts.get(w, 0) + 1
    total = len(prefix) - 3
    assert set(counts) == set(freqs)
    for w, q in freqs.items():
        assert abs(counts[w] / total - float(q)) < 1e-3


def test_initial_distribution(twist2):
    sub, g = twist2
    init = initial_distribution(sub, g, 1)
    assert sum(init.probs.values()) == 1
    chain = build_tau_automaton(sub, g, 0)
    idx = initial_state_indices(chain, init)
    assert sum(idx.values()) == 1
    with pytest.raises(ValueError):
        initial_distribution(sub, g, 0)
    with pytest.raises(ValueError):
        initial_distribution(parse_substitution("1: 11\n2: 22"), g, 1)


def test_factor_blocks(sync3):
    sub, _ = sync3
    pairs = factor_blocks(sub, 2)
    rendered = {sub.render(p) for p in pairs}
    # from the language of 1->12, 2->13, 3->23: "11" never occurs
    assert "11" not in rendered
    assert {"12", "13", "21", "23"} <= rendered


def test_ergodic_coefficient(twist2):
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert ergodic_coefficient(ident) == 0
    uniform = [[Fraction(1, 2)] * 2] * 2
    assert ergodic_coefficient(uniform) == 1
    sub, g = twist2
    three = compose(*digit_chains(sub, g, [1, 1, 1]))
    alpha = ergodic_coefficient(_reference_transition_matrix(three))
    assert alpha > 0
    minimum = min(min(row) for row in _reference_transition_matrix(three))
    assert alpha >= minimum


def test_absorption_probabilities():
    # one transient state feeding two absorbing loops with probs 2/3, 1/3
    chain = small_chain(
        {
            0: [(1, Fraction(2, 3), 0), (2, Fraction(1, 3), 0)],
            1: [(1, 1, 0)],
            2: [(2, 1, 0)],
        },
        3,
    )
    classes = recurrent_classes(chain)
    assert transient_states(chain, classes) == [0]
    probs = absorption_probabilities(chain, classes, {0: Fraction(1)})
    assert sorted(probs) == [Fraction(1, 3), Fraction(2, 3)]
    # chained transients
    chain2 = small_chain(
        {
            0: [(1, Fraction(1, 2), 0), (3, Fraction(1, 2), 0)],
            1: [(0, Fraction(1, 2), 0), (2, Fraction(1, 2), 0)],
            2: [(2, 1, 0)],
            3: [(3, 1, 0)],
        },
        4,
    )
    classes2 = recurrent_classes(chain2)
    probs2 = absorption_probabilities(chain2, classes2, {0: Fraction(1)})
    # from 0: absorb at 2 with prob 1/3, at 3 with prob 2/3
    assert sorted(probs2) == [Fraction(1, 3), Fraction(2, 3)]


def test_chain_report(twist2):
    sub, g = twist2
    chain = build_tau_automaton(sub, g, 1)
    init = initial_state_indices(chain, initial_distribution(sub, g, 1))
    report = chain_report(chain, init)
    assert report["strongly_connected"] is True
    assert report["classes"][0]["variance"] == "4/3"
    assert report["absorption_probabilities"] == ["1"]
    assert report["transient"] == []


def test_weak_components(twist2):
    sub, g = twist2
    chain = build_tau_automaton(sub, g, 2)
    assert len(weakly_connected_components(chain)) == 2
    classes = recurrent_classes(chain)
    assert len(classes) == 2
    assert sum(1 for c in classes if c.coboundary) == 1


def test_dot_export_colors_classes(twist2):
    sub, g = twist2
    chain = build_simplified_automaton(sub, g)
    dot = chain.to_dot(recurrent_classes(chain))
    assert "fillcolor" in dot and dot.count("->") == 12


# ---------------------------------------------------------------------------
# the exact solves against the code they replaced
# ---------------------------------------------------------------------------


def _reference_block_frequencies(sub, k):
    """The stationary law of the k-block chain, which was solved for every k."""
    d = len(sub.images[0])
    blocks = factor_blocks(sub, k)
    index = {b: i for i, b in enumerate(blocks)}
    p = Fraction(1, d)
    groups = []
    for b in blocks:
        image = sub.apply(b)
        group = []
        for off in range(d):
            window = image[off : off + k]
            group.append(ChainEdge(index[window], p, Fraction(0)))
        groups.append(tuple(group))
    chain = chain_from_edges(blocks, (sub.render(b) for b in blocks), groups)
    classes = recurrent_classes(chain)
    if len(classes) != 1 or len(classes[0].states) != len(blocks):
        raise ValueError("block chain is not irreducible; substitution must be primitive")
    return {blocks[s]: q for s, q in classes[0].stationary.items()}


def _a3_substitutions(count):
    """The two-letter substitutions with eigenvalue 1 of acceptance test A3."""
    rng = random.Random(20240)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        image = [0] * (k + 1) + [1] * k
        rng.shuffle(image)
        out.append(Substitution.from_words([image, [1 - x for x in image]]))
    return out


BLOCK_SUBS = {
    "twist2": parse_substitution("1: 112\n2: 221"),
    "sync3": parse_substitution(SYNC3),
    "twist5": parse_substitution("1: 11212\n2: 22121"),
    "twist7": parse_substitution("1: 1112122\n2: 2221211"),
    **{f"a3-{i}": sub for i, sub in enumerate(_a3_substitutions(6))},
}


@pytest.mark.parametrize("name", BLOCK_SUBS)
def test_block_frequencies_match_the_block_chain(name):
    sub = BLOCK_SUBS[name]
    d = len(sub.images[0])
    for k in range(1, d + 3):
        # equal values in the same key order
        assert list(block_frequencies(sub, k).items()) == list(
            _reference_block_frequencies(sub, k).items()
        )


@pytest.mark.parametrize("text", ["1: 12\n2: 22", "1: 11\n2: 22"])
def test_block_frequencies_reject_non_primitive_at_d_plus_one(text):
    with pytest.raises(ValueError, match="primitive"):
        block_frequencies(parse_substitution(text), 3)


def _reference_ergodic_coefficient(p):
    n = len(p)
    delta = Fraction(0)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                diff = abs(p[a][c] - p[b][c])
                if diff > delta:
                    delta = diff
    return 1 - delta


@given(hypothesis_digit_chains())
def test_ergodic_coefficient_matches_triple_loop(chain):
    p = _reference_transition_matrix(chain)
    assert ergodic_coefficient(p) == _reference_ergodic_coefficient(p)


def _reference_absorption_probabilities(chain, classes, initial):
    """One ``solve_consistent`` per class column of (I - Q) B = R."""
    class_of = {s: k for k, cls in enumerate(classes) for s in cls.states}
    trans = transient_states(chain, classes)
    t_index = {s: i for i, s in enumerate(trans)}
    nt = len(trans)
    absorb = [[Fraction(0)] * len(classes) for _ in range(nt)]
    if nt:
        a = [[Fraction(0)] * nt for _ in range(nt)]
        r = [[Fraction(0)] * len(classes) for _ in range(nt)]
        for s in trans:
            i = t_index[s]
            a[i][i] += 1
            for e in chain.edges[s]:
                if e.target in t_index:
                    a[i][t_index[e.target]] -= e.prob
                else:
                    r[i][class_of[e.target]] += e.prob
        for k in range(len(classes)):
            col = linalg.solve_consistent(a, [row[k] for row in r])
            for i in range(nt):
                absorb[i][k] = col[i]
    out = [Fraction(0)] * len(classes)
    for s, p in initial.items():
        if s in class_of:
            out[class_of[s]] += p
        else:
            for k in range(len(classes)):
                out[k] += p * absorb[t_index[s]][k]
    return out


def _assert_absorption_matches_per_column_solve(chain):
    classes = recurrent_classes(chain)
    mixed = {s: Fraction(s + 1, chain.n * (chain.n + 1) // 2) for s in range(chain.n)}
    for initial in [{s: Fraction(1)} for s in transient_states(chain, classes)] + [mixed]:
        assert absorption_probabilities(chain, classes, initial) == (
            _reference_absorption_probabilities(chain, classes, initial)
        )


def test_absorption_matches_per_column_solve_on_small_chains():
    chains = [
        small_chain(
            {0: [(1, Fraction(2, 3), 0), (2, Fraction(1, 3), 0)], 1: [(1, 1, 0)], 2: [(2, 1, 0)]},
            3,
        ),
        small_chain(
            {
                0: [(1, Fraction(1, 2), 0), (3, Fraction(1, 2), 0)],
                1: [(0, Fraction(1, 2), 0), (2, Fraction(1, 2), 0)],
                2: [(2, 1, 0)],
                3: [(3, 1, 0)],
            },
            4,
        ),
        small_chain({0: [(1, 1, 0)], 1: [(1, 1, 0)]}, 2),
        small_chain({0: [(1, 1, 1)], 1: [(0, 1, -1)]}, 2),
    ]
    sub = parse_substitution(SYNC3)
    gamma = eigenvector_for(matrix_of(sub), 1)
    chains.append(compose(*digit_chains(sub, gamma, [0, 1, 0])))
    for chain in chains:
        _assert_absorption_matches_per_column_solve(chain)


@given(hypothesis_digit_chains())
def test_absorption_matches_per_column_solve_on_digit_chains(chain):
    _assert_absorption_matches_per_column_solve(chain)


# ---------------------------------------------------------------------------
# the integer chain layer against the Fraction code it replaced
# ---------------------------------------------------------------------------


def _reference_compose(first, second):
    """Two-layer composition with one Fraction product and sum per edge."""
    groups = []
    for i in range(first.n):
        merged = {}
        for e1 in first.edges[i]:
            for e2 in second.edges[e1.target]:
                key = (e2.target, e1.payoff + e2.payoff)
                merged[key] = merged.get(key, Fraction(0)) + e1.prob * e2.prob
        groups.append(
            tuple(ChainEdge(t, prob, payoff) for (t, payoff), prob in sorted(merged.items()))
        )
    return chain_from_edges(first.states, first.state_labels, groups)


def _reference_transition_matrix(chain):
    p = [[Fraction(0)] * chain.n for _ in range(chain.n)]
    for i, group in enumerate(chain.edges):
        for e in group:
            p[i][e.target] += e.prob
    return p


def _reference_stationary(chain, states):
    local = {s: i for i, s in enumerate(states)}
    k = len(states)
    a = [[Fraction(0)] * k for _ in range(k + 1)]
    for s in states:
        for e in chain.edges[s]:
            a[local[e.target]][local[s]] += e.prob
    for i in range(k):
        a[i][i] -= 1
    a[k] = [Fraction(1)] * k
    x = linalg.solve_consistent(a, [Fraction(0)] * k + [Fraction(1)])
    return {s: x[local[s]] for s in states}


def _reference_expected_payoff(chain, cls):
    total = Fraction(0)
    for s in cls.states:
        pi = cls.stationary[s]
        for e in chain.edges[s]:
            total += pi * e.prob * e.payoff
    return total


def _reference_poisson_solution(chain, states):
    local = {s: i for i, s in enumerate(states)}
    k = len(states)
    gbar = [Fraction(0)] * k
    for s in states:
        for e in chain.edges[s]:
            gbar[local[s]] += e.prob * e.payoff
    a = [[Fraction(0)] * k for _ in range(k + 1)]
    for s in states:
        i = local[s]
        a[i][i] += 1
        for e in chain.edges[s]:
            a[i][local[e.target]] -= e.prob
    a[k][0] = Fraction(1)
    h = linalg.solve_consistent(a, gbar + [Fraction(0)])
    return {s: h[local[s]] for s in states}


def _reference_asymptotic_variance(chain, cls):
    assert _reference_expected_payoff(chain, cls) == 0
    h = _reference_poisson_solution(chain, cls.states)
    total = Fraction(0)
    for s in cls.states:
        pi = cls.stationary[s]
        for e in chain.edges[s]:
            incr = e.payoff + h[e.target] - h[s]
            total += pi * e.prob * incr * incr
    return total


def _centered(chain, classes):
    """The chain with each class's stationary mean taken off its payoffs."""
    shift = {s: expected_payoff(chain, cls) for cls in classes for s in cls.states}
    groups = tuple(
        tuple(ChainEdge(e.target, e.prob, e.payoff - shift.get(s, 0)) for e in group)
        for s, group in enumerate(chain.edges)
    )
    return chain_from_edges(chain.states, chain.state_labels, groups)


def _assert_class_analysis_matches_reference(chain):
    form = chain.integer_form
    assert ergodic_coefficient(form.transition_numerators(), form.denominator) == (
        ergodic_coefficient(_reference_transition_matrix(chain))
    )
    classes = recurrent_classes(chain)
    for cls in classes:
        # equal values in the same state order
        assert list(cls.stationary.items()) == list(
            _reference_stationary(chain, cls.states).items()
        )
        assert expected_payoff(chain, cls) == _reference_expected_payoff(chain, cls)
        # a potential difference has zero mean under the stationary law
        if cls.coboundary:
            assert expected_payoff(chain, cls) == 0
    centered = _centered(chain, classes)
    for cls in recurrent_classes(centered):
        assert list(_poisson_solution(centered, cls.states).items()) == list(
            _reference_poisson_solution(centered, cls.states).items()
        )
        variance = asymptotic_variance(centered, cls)
        assert variance == _reference_asymptotic_variance(centered, cls)
        # a centered payoff has zero variance exactly when it is a coboundary
        assert cls.coboundary == (variance == 0)


@st.composite
def digit_layer_lists(draw):
    """The chains of 1-4 digit automata of one unit-eigenvalue substitution."""
    sub, gamma = draw(unit_eigenvalue_substitutions())
    d = len(sub.images[0])
    digits = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=4))
    return digit_chains(sub, gamma, digits)


@st.composite
def hand_built_layers(draw):
    """Two or three layers on 1-4 shared states, with non-uniform
    probabilities (so D is no power of a digit count) and payoffs over
    halves in the first layer and over thirds after it (so the lattices of
    composed layers differ and L != 1)."""
    n = draw(st.integers(1, 4))

    def layer(denominators):
        groups = []
        for _ in range(n):
            k = draw(st.integers(1, 3))
            weights = draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
            targets = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
            pays = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
            den = draw(st.sampled_from(denominators))
            groups.append(
                tuple(
                    ChainEdge(t, Fraction(w, sum(weights)), Fraction(v, den))
                    for t, w, v in zip(targets, weights, pays)
                )
            )
        return chain_from_edges(range(n), map(str, range(n)), groups)

    count = draw(st.integers(2, 3))
    return [layer([1, 2, 4])] + [layer([1, 3, 9]) for _ in range(count - 1)]


def _fresh_integer_form(chain):
    """The integer form derived the old way from the chain's Fraction edges."""
    return chain_from_edges(chain.states, chain.state_labels, chain.edges).integer_form


def _assert_compose_matches_reference(layers):
    composed = compose(*layers)
    # the same ChainEdges (target, prob, payoff) in the same order
    assert composed.edges == reduce(_reference_compose, layers).edges
    if len(layers) == 2:
        assert composed.edges == _reference_compose(*layers).edges
    assert composed.integer_form == _fresh_integer_form(composed)


@settings(max_examples=30, deadline=None)
@given(digit_layer_lists())
def test_compose_matches_reference_on_digit_layers(layers):
    if len(layers) == 1:
        assert compose(*layers) is layers[0]
    else:
        _assert_compose_matches_reference(layers)


@settings(max_examples=40, deadline=None)
@given(hand_built_layers())
def test_compose_matches_reference_on_hand_built_layers(layers):
    _assert_compose_matches_reference(layers)
    _assert_compose_matches_reference(layers[:2])


@settings(max_examples=30, deadline=None)
@given(digit_layer_lists())
def test_compose_hands_over_the_reduced_integer_form(layers):
    # compose builds the chain's form from its own numerators; it must be
    # the least-denominator form the Fraction edges give
    composed = compose(*layers)
    form = composed.integer_form
    assert form == _fresh_integer_form(composed)
    assert gcd(form.denominator, *(p for row in form.rows for _, p, _ in row)) == 1
    assert gcd(form.lattice, *(v for row in form.rows for _, _, v in row)) == 1


def test_handed_integer_form_still_has_its_rows_checked(twist2):
    sub, g = twist2
    chain = compose(*digit_chains(sub, g, [0, 1]))
    form = chain.integer_form
    bad = IntegerForm(form.denominator + 1, form.lattice, form.rows)
    with pytest.raises(ValueError, match="outgoing probabilities at state 0"):
        ChainGraph(chain.states, chain.state_labels, bad)


@settings(max_examples=30, deadline=None)
@given(digit_layer_lists())
def test_class_analysis_matches_reference_on_digit_chains(layers):
    _assert_class_analysis_matches_reference(compose(*layers))


@settings(max_examples=40, deadline=None)
@given(hand_built_layers())
def test_class_analysis_matches_reference_on_hand_built_chains(layers):
    _assert_class_analysis_matches_reference(layers[0])
    _assert_class_analysis_matches_reference(compose(*layers))


def test_hand_built_composition_has_a_mixed_lattice():
    # the case the hypothesis properties exercise: D != d**N and L != 1
    first = small_chain(
        {0: [(0, Fraction(1, 3), Fraction(1, 2)), (1, Fraction(2, 3), 0)], 1: [(0, 1, -1)]}, 2
    )
    second = small_chain(
        {0: [(1, Fraction(3, 4), Fraction(1, 3)), (0, Fraction(1, 4), 0)], 1: [(1, 1, 0)]}, 2
    )
    composed = compose(first, second)
    assert composed.edges == _reference_compose(first, second).edges
    form = composed.integer_form
    assert (form.denominator, form.lattice) == (12, 6)
    assert [(e.target, e.prob, e.payoff) for e in composed.edges[0]] == [
        (0, Fraction(1, 12), Fraction(1, 2)),
        (1, Fraction(2, 3), 0),
        (1, Fraction(1, 4), Fraction(5, 6)),
    ]
    _assert_class_analysis_matches_reference(composed)


def test_compose_rejects_mismatched_states_and_no_layers(twist2):
    sub, g = twist2
    tau = build_tau_automaton(sub, g, 1)
    simple = build_simplified_automaton(sub, g)
    with pytest.raises(ValueError, match="identical state spaces"):
        compose(tau, simple)
    with pytest.raises(ValueError, match="at least one layer"):
        compose()
