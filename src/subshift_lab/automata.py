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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .linalg import common_numerators
from .substitution import Substitution, WeightVector

State = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class AutomatonEdge:
    source: int
    m: int
    target: int
    payoff: Fraction


@dataclass(frozen=True)
class TauAutomaton:
    """Complete digit automaton; out-degree d everywhere, one edge per m."""

    sub: Substitution
    gamma: WeightVector
    tau: int
    simplified: bool
    states: tuple[State, ...]
    edges: tuple[tuple[AutomatonEdge, ...], ...]

    @property
    def d(self) -> int:
        return len(self.sub.images[0])

    def state_label(self, i: int) -> str:
        a, v = self.states[i]
        sym = self.sub.symbols
        return f"{sym[a]}|{''.join(sym[b] for b in v)}"

    def to_dot(self) -> str:
        lines = ["digraph automaton {", "  rankdir=LR;"]
        for i in range(len(self.states)):
            lines.append(f'  s{i} [label="{self.state_label(i)}"];')
        for group in self.edges:
            for e in group:
                lines.append(
                    f'  s{e.source} -> s{e.target} [label="{e.m}:{e.payoff}"];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "tau": self.tau,
            "simplified": self.simplified,
            "states": [self.state_label(i) for i in range(len(self.states))],
            "edges": [
                {
                    "source": e.source,
                    "m": e.m,
                    "target": e.target,
                    "payoff": str(e.payoff),
                }
                for group in self.edges
                for e in group
            ],
        }


def _require_constant_length(sub: Substitution) -> int:
    lengths = set(sub.image_lengths())
    if len(lengths) != 1:
        raise ValueError("digit automata require a constant-length substitution")
    return lengths.pop()


def _prefix_sums(ints: list[int], w: bytes) -> list[int]:
    """Entry i is gamma of the first i letters of w, for i in 0..|w|, with
    gamma given as integer numerators over one scale."""
    return list(accumulate((ints[b] for b in w), initial=0))


def _build_automaton(
    sub: Substitution, gamma: WeightVector, tau: int, width: int
) -> TauAutomaton:
    """The automaton on states A x A^width: width 2 is the tau automaton,
    width 1 the simplified one (tau = 0, second pair letter dropped)."""
    d = _require_constant_length(sub)
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
    groups = []
    for a, v in states:
        img_a = sub.images[a]
        img_v = tracked_images[v]
        pre_v = tracked_prefix[v]
        out = []
        for m in range(1, d + 1):
            j = m + tau  # 1-based split of the tracked image
            target = (img_a[m - 1], tuple(img_v[j - 1 : j - 1 + width]))
            # gamma(img_a[m:]) + gamma(img_v[:j-1])
            payoff = Fraction(prefix[a][d] - prefix[a][m] + pre_v[j - 1], scale)
            out.append(AutomatonEdge(index[(a, v)], m, index[target], payoff))
        groups.append(tuple(out))
    return TauAutomaton(sub, gamma, tau, width == 1, tuple(states), tuple(groups))


def build_tau_automaton(sub: Substitution, gamma: WeightVector, tau: int) -> TauAutomaton:
    """The automaton on states A x A^2 for shift digit tau in {0..d-1}."""
    return _build_automaton(sub, gamma, tau, width=2)


def build_simplified_automaton(sub: Substitution, gamma: WeightVector) -> TauAutomaton:
    """The tau = 0 automaton on states A x A (second pair letter dropped)."""
    return _build_automaton(sub, gamma, 0, width=1)
