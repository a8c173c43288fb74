"""The family of digit automata driving ergodic-sum bookkeeping.

For a constant-length-d substitution, split every image at position m:

    sigma(w) = P(w, m) + c(w, m) + S(w, m),   |P(w, m)| = m - 1.

The automaton with shift digit tau lives on states (a, V) with V a pair of
letters; the edge with label m goes to

    ( c(a, m), c(V, m+tau) c(V, m+tau+1) )

carrying payoff gamma(S(a, m)) + gamma(P(V, m+tau)), where sigma acts on the
pair V by concatenation (length 2d, so both target letters always exist --
checked, not assumed).  For tau = 0 the second letter of V is irrelevant
and a simplified automaton on states (a, b) is available.

Each automaton is built as its Markov chain, probability 1/d on every edge,
in the integer form of ``markov.ChainGraph``: edge m of a state is its m-th
row entry, and the payoffs are integer prefix sums of gamma's numerators,
reduced to the least lattice.
"""

from __future__ import annotations

from itertools import accumulate, product
from math import gcd
from typing import Sequence

from .linalg import common_numerators
from .markov import ChainGraph, IntegerForm, State
from .substitution import Substitution, WeightVector, constant_length


def _prefix_sums(ints: list[int], w: bytes) -> list[int]:
    """Entry i is gamma of the first i letters of w, for i in 0..|w|, with
    gamma given as integer numerators over one scale."""
    return list(accumulate((ints[b] for b in w), initial=0))


def _build_automaton(
    sub: Substitution, gamma: WeightVector, tau: int, width: int
) -> ChainGraph:
    """The automaton on states A x A^width: width 2 is the tau automaton,
    width 1 the simplified one (tau = 0, second pair letter dropped)."""
    d = constant_length(sub)
    if d is None:
        raise ValueError("digit automata require a constant-length substitution")
    if not (0 <= tau <= d - 1):
        raise ValueError(f"tau must lie in 0..{d - 1}")
    # the last split, j = d + tau, must leave width letters of the tracked image
    if d + tau - 1 + width > width * d:
        raise ValueError("pair-image index must exist")
    n = sub.alphabet_size
    tracked = list(product(range(n), repeat=width))
    states: list[State] = [(a, v) for a in range(n) for v in tracked]
    index = {s: i for i, s in enumerate(states)}
    ints, scale = common_numerators(gamma.values)
    prefix = [_prefix_sums(ints, img) for img in sub.images]
    tracked_images = {v: b"".join(sub.images[b] for b in v) for v in tracked}
    tracked_prefix = {v: _prefix_sums(ints, img) for v, img in tracked_images.items()}
    rows = []
    for a, v in states:
        img_a = sub.images[a]
        img_v = tracked_images[v]
        pre_v = tracked_prefix[v]
        row = []
        for m in range(1, d + 1):
            j = m + tau  # 1-based split of the tracked image
            target = (img_a[m - 1], tuple(img_v[j - 1 : j - 1 + width]))
            # gamma(img_a[m:]) + gamma(img_v[:j-1]), times the scale
            row.append((index[target], prefix[a][d] - prefix[a][m] + pre_v[j - 1]))
        rows.append(row)
    # the least lattice: divide out the factor that scale shares with every payoff
    g = gcd(scale, *(v for row in rows for _, v in row))
    form = IntegerForm(d, scale // g, tuple(tuple((t, 1, v // g) for t, v in row) for row in rows))
    sym = sub.symbols
    labels = tuple(f"{sym[a]}|{''.join(sym[b] for b in v)}" for a, v in states)
    return ChainGraph(tuple(states), labels, form, numbered=True)


def build_tau_automaton(sub: Substitution, gamma: WeightVector, tau: int) -> ChainGraph:
    """The automaton on states A x A^2 for shift digit tau in {0..d-1}."""
    return _build_automaton(sub, gamma, tau, width=2)


def build_simplified_automaton(sub: Substitution, gamma: WeightVector) -> ChainGraph:
    """The tau = 0 automaton on states A x A (second pair letter dropped)."""
    return _build_automaton(sub, gamma, 0, width=1)


def digit_chains(
    sub: Substitution, gamma: WeightVector, digits: Sequence[int]
) -> list[ChainGraph]:
    """The chain of each digit's automaton, built once per distinct digit.

    Equal digits share one ChainGraph object, so callers that compile a
    chain can do it once per distinct layer.
    """
    built = {tau: build_tau_automaton(sub, gamma, tau) for tau in set(digits)}
    return [built[tau] for tau in digits]
