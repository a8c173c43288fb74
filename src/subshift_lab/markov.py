"""Stochastic analysis of digit automata: classes, payoffs, variances.

A digit automaton becomes a Markov chain by putting probability 1/d on each
of the d outgoing edges.  Everything here is exact rational: strongly
connected components, recurrent classes, stationary distributions, per-step
asymptotic variances via the Poisson equation, the composed multi-digit
chains, absorption probabilities and the Dobrushin ergodic coefficient.
One breadth-first spanning tree per recurrent class gives its period, its
coboundary decision (the tree's payoff potential checked on every class
edge) and, with the stationary law, its mean payoff.

A chain holds its edges as one ``IntegerForm`` and nothing else: every
probability a numerator over one common denominator D and every payoff a
numerator over the least payoff lattice L.  The digit automata
(``automata``) build it from integer prefix sums, ``compose`` multiplies
and adds numerators, the linear systems of stationary laws and Poisson
equations are integer rows for ``linalg``, whose solves come back as
integer numerators over one positive denominator, and expectations and
variances sum integer products, so each reported value is the one
``Fraction`` built at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from math import gcd, lcm
from typing import Mapping, Sequence

from . import linalg
from .substitution import (
    Substitution,
    WeightVector,
    Word,
    constant_length,
    factor_blocks,
)


State = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class ChainEdge:
    """One edge of ``ChainGraph.edges``, the rows read as ``Fraction``s."""

    target: int
    prob: Fraction
    payoff: Fraction


@dataclass(frozen=True)
class IntegerForm:
    """A chain's edges as integers: probabilities over one denominator,
    payoffs over one lattice.

    ``rows[s]`` holds one (target, probability numerator, payoff numerator)
    triple per edge out of state s, in edge order: the edge has probability
    ``prob / denominator`` and payoff ``pay / lattice``.
    """

    denominator: int
    lattice: int
    rows: tuple[tuple[tuple[int, int, int], ...], ...]

    def transition_numerators(self) -> list[list[int]]:
        """The transition matrix times the denominator."""
        n = len(self.rows)
        nums = [[0] * n for _ in range(n)]
        for i, row in enumerate(self.rows):
            for t, p, _ in row:
                nums[i][t] += p
        return nums


@dataclass(frozen=True)
class ChainGraph:
    """A finite payoff-labelled stochastic digraph, held as its integer form.

    ``numbered`` marks a digit chain: the j-th edge out of a state is the
    split at m = j, and DOT labels it ``m:payoff``.
    """

    states: tuple
    state_labels: tuple[str, ...]
    integer_form: IntegerForm
    numbered: bool = False

    def __post_init__(self):
        form = self.integer_form
        for i, row in enumerate(form.rows):
            total = sum(p for _, p, _ in row)
            if total != form.denominator:
                total = Fraction(total, form.denominator)
                raise ValueError(f"outgoing probabilities at state {i} sum to {total} != 1")

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def edges(self) -> tuple[tuple[ChainEdge, ...], ...]:
        """The rows with ``Fraction`` probabilities and payoffs."""
        form = self.integer_form
        prob = cache(partial(Fraction, denominator=form.denominator))
        pay = cache(partial(Fraction, denominator=form.lattice))
        return tuple(tuple(ChainEdge(t, prob(p), pay(v)) for t, p, v in row) for row in form.rows)

    def to_dot(self, classes: Sequence["RecurrentClass"] = (), graph: str = "chain") -> str:
        palette = ["lightblue", "palegreen", "lightsalmon", "plum", "khaki", "lightpink"]
        color: dict[int, str] = {}
        for k, cls in enumerate(classes):
            for s in cls.states:
                color[s] = palette[k % len(palette)]
        lines = [f"digraph {graph} {{", "  rankdir=LR;"]
        for i in range(self.n):
            style = f', style=filled, fillcolor="{color[i]}"' if i in color else ""
            lines.append(f'  s{i} [label="{self.state_labels[i]}"{style}];')
        lattice = self.integer_form.lattice
        for i, row in enumerate(self.integer_form.rows):
            for m, (t, _, v) in enumerate(row, start=1):
                payoff = Fraction(v, lattice)
                label = f"{m}:{payoff}" if self.numbered else str(payoff)
                lines.append(f'  s{i} -> s{t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def compose(*layers: ChainGraph) -> ChainGraph:
    """Composition of one or more layers, outermost first.

    Parallel edges are merged by (target, payoff) and sorted that way.  The
    composition runs on the integer forms: probability numerators multiply
    over the product of the denominators and payoff numerators add over the
    lcm of the lattices; the result is reduced to the least denominator and
    lattice.  One layer is returned as it is.
    """
    if not layers:
        raise ValueError("a composition needs at least one layer")
    first = layers[0]
    if any(layer.states != first.states for layer in layers[1:]):
        raise ValueError("layer composition requires identical state spaces")
    if len(layers) == 1:
        return first
    form = first.integer_form
    den, lattice = form.denominator, form.lattice
    rows = [[((t, v), p) for t, p, v in row] for row in form.rows]
    for layer in layers[1:]:
        nxt = layer.integer_form
        joint = lcm(lattice, nxt.lattice)
        up, up_next = joint // lattice, joint // nxt.lattice
        next_rows = [[(t, p, v * up_next) for t, p, v in row] for row in nxt.rows]
        merged_rows = []
        for row in rows:
            merged: dict[tuple[int, int], int] = {}
            for (t1, v1), p1 in row:
                v1 *= up
                for t2, p2, v2 in next_rows[t1]:
                    key = (t2, v1 + v2)
                    merged[key] = merged.get(key, 0) + p1 * p2
            merged_rows.append(merged.items())
        rows, den, lattice = merged_rows, den * nxt.denominator, joint
    rows = [sorted(row) for row in rows]
    p_gcd = gcd(den, *(p for row in rows for _, p in row))
    v_gcd = gcd(lattice, *(v for row in rows for (_, v), _ in row))
    form = IntegerForm(
        den // p_gcd,
        lattice // v_gcd,
        tuple(tuple((t, p // p_gcd, v // v_gcd) for (t, v), p in row) for row in rows),
    )
    return ChainGraph(first.states, first.state_labels, form)


# ---------------------------------------------------------------------------
# recurrent classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrentClass:
    """A closed strongly connected component with its exact invariants:
    ``mean`` is the stationary expectation of the edge payoff."""

    states: tuple[int, ...]
    period: int
    stationary: dict[int, Fraction]
    coboundary: bool
    mean: Fraction


def strongly_connected_components(chain: ChainGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative to survive deep graphs."""
    n = chain.n
    adj = [sorted({t for t, _, _ in row}) for row in chain.integer_form.rows]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def is_strongly_connected(chain: ChainGraph, classes: Sequence[RecurrentClass]) -> bool:
    """True when one closed class, of ``recurrent_classes(chain)``, holds every state."""
    return len(classes) == 1 and len(classes[0].states) == chain.n


def weakly_connected_components(chain: ChainGraph) -> list[list[int]]:
    n = chain.n
    und: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(chain.integer_form.rows):
        for t, _, _ in row:
            und[i].add(t)
            und[t].add(i)
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        comp = []
        frontier = [root]
        seen[root] = True
        while frontier:
            v = frontier.pop()
            comp.append(v)
            for w in und[v]:
                if not seen[w]:
                    seen[w] = True
                    frontier.append(w)
        comps.append(sorted(comp))
    return comps


def recurrent_classes(chain: ChainGraph) -> list[RecurrentClass]:
    """Closed SCCs of the chain with period, stationary law, coboundary and mean."""
    form = chain.integer_form
    out = []
    for comp in strongly_connected_components(chain):
        members = set(comp)
        if not all(t in members for v in comp for t, _, _ in form.rows[v]):
            continue
        out.append(_class_record(form, comp, _stationary(chain, comp)))
    out.sort(key=lambda c: c.states[0])
    return out


def _class_record(
    form: IntegerForm, states: Sequence[int], stationary: tuple[list[int], int]
) -> RecurrentClass:
    """The invariants of a closed strongly connected class from one BFS tree.

    ``stationary`` is ``_stationary``'s law: numerators over one denominator.

    The tree from the least state gives each state a depth and a payoff
    potential in lattice units.  Each class edge v -> t then adds
    depth(v) + 1 - depth(t) to a gcd, which is the period (the gcd of the
    cycle lengths; Kemeny & Snell, Finite Markov Chains, 1960), and checks
    potential(t) - potential(v) against its payoff: on a strongly connected
    class a potential is unique up to a constant, so the payoff is a
    coboundary exactly when every edge passes.  The stationary-weighted
    payoff rows sum to the mean.  ROADMAP item 9's span (g, c, h) reads the
    same depths and potentials.
    """
    rows = form.rows
    root = states[0]
    tree = {root: (0, 0)}  # state -> (depth, potential)
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            depth, potential = tree[v]
            for t, _, pay in rows[v]:
                if t not in tree:
                    tree[t] = depth + 1, potential + pay
                    nxt.append(t)
        frontier = nxt
    pi, den = stationary
    period, coboundary, total = 0, True, 0
    for v, q in zip(states, pi):
        depth, potential = tree[v]
        acc = 0
        for t, p, pay in rows[v]:
            t_depth, t_potential = tree[t]
            period = gcd(period, depth + 1 - t_depth)
            coboundary = coboundary and t_potential - potential == pay
            acc += p * pay
        total += q * acc
    mean = Fraction(total, den * form.denominator * form.lattice)
    law = {s: Fraction(q, den) for s, q in zip(states, pi)}
    return RecurrentClass(tuple(states), period, law, coboundary, mean)


def transient_states(chain: ChainGraph, classes: Sequence[RecurrentClass]) -> list[int]:
    recurrent = {s for cls in classes for s in cls.states}
    return [s for s in range(chain.n) if s not in recurrent]


def _stationary(chain: ChainGraph, states: Sequence[int]) -> tuple[list[int], int]:
    """Unique stationary distribution of a closed class, exact solve: one
    numerator per state, in ``states`` order, over a positive denominator."""
    form = chain.integer_form
    local = {s: i for i, s in enumerate(states)}
    k = len(states)
    # rows: D (P^T - I) pi = 0 plus normalization sum(pi) = 1, all integers
    a = [[0] * k for _ in range(k + 1)]
    for s in states:
        j = local[s]
        for t, p, _ in form.rows[s]:
            a[local[t]][j] += p
    for i in range(k):
        a[i][i] -= form.denominator
    a[k] = [1] * k
    x, den = linalg.solve_consistent(a, [0] * k + [1])
    if not all(v > 0 for v in x):
        raise ValueError("stationary distribution of a class must be positive")
    return x, den


def asymptotic_variance(chain: ChainGraph, cls: RecurrentClass) -> Fraction:
    """Per-step variance of the accumulated payoff on a recurrent class.

    Solves the Poisson equation (I - P) h = mean payoff per state and returns
    sum_s pi(s) sum_e p(e) (v(e) + h(target) - h(source))^2, which is the
    martingale-increment second moment; zero exactly when the payoff is a
    coboundary.  Rejects a class whose ``mean`` is not zero.
    """
    if cls.mean != 0:
        raise ValueError(f"class has nonzero stationary mean {cls.mean}")
    form = chain.integer_form
    lattice = form.lattice
    nums, h_den = _poisson_solution(chain, cls.states)
    h = dict(zip(cls.states, nums))
    pi, pi_den = linalg.common_numerators([cls.stationary[s] for s in cls.states])
    # an increment is (v h_den + (h(t) - h(s)) L) / (L h_den)
    total = 0
    for s, q in zip(cls.states, pi):
        hs = h[s]
        acc = 0
        for t, p, v in form.rows[s]:
            incr = v * h_den + (h[t] - hs) * lattice
            acc += p * incr * incr
        total += q * acc
    return Fraction(total, pi_den * form.denominator * (lattice * h_den) ** 2)


def _poisson_solution(chain: ChainGraph, states: Sequence[int]) -> tuple[list[int], int]:
    """h with (I - P) h = mean payoff per state on a class, h(root) = 0: one
    numerator per state, in ``states`` order, over a positive denominator."""
    form = chain.integer_form
    local = {s: i for i, s in enumerate(states)}
    k = len(states)
    # D L (I - P) h = D L gbar with h(root) = 0 pinned; consistent since
    # pi.gbar = 0
    a = [[0] * k for _ in range(k + 1)]
    b = [0] * (k + 1)
    for s in states:
        i = local[s]
        a[i][i] += form.denominator * form.lattice
        for t, p, v in form.rows[s]:
            a[i][local[t]] -= p * form.lattice
            b[i] += p * v
    a[k][0] = 1
    return linalg.solve_consistent(a, b)


def absorption_probabilities(
    chain: ChainGraph,
    classes: Sequence[RecurrentClass],
    initial: Mapping[int, Fraction],
) -> list[Fraction]:
    """Exact probability of absorption into each class from ``initial``."""
    class_of: dict[int, int] = {}
    for k, cls in enumerate(classes):
        for s in cls.states:
            class_of[s] = k
    trans = transient_states(chain, classes)
    t_index = {s: i for i, s in enumerate(trans)}
    nt = len(trans)
    # D (I - Q) B = D R for every class at once: one elimination of
    # [D (I - Q) | D R], on integers
    form = chain.integer_form
    aug = [[0] * (nt + len(classes)) for _ in range(nt)]
    for s in trans:
        i = t_index[s]
        aug[i][i] += form.denominator
        for t, p, _ in form.rows[s]:
            if t in t_index:
                aug[i][t_index[t]] -= p
            else:
                aug[i][nt + class_of[t]] += p
    rows, pivots, last = linalg.eliminate(aug)
    if pivots[:nt] != list(range(nt)):
        raise ValueError("I - Q must be invertible on the transient states")
    # row t_index[s] of B is that row's class columns over last
    out = [Fraction(0)] * len(classes)
    for s, p in initial.items():
        if p == 0:
            continue
        if s in class_of:
            out[class_of[s]] += p
        else:
            for k, num in enumerate(rows[t_index[s]][nt:]):
                out[k] += Fraction(p * num, last)
    return out


def ergodic_coefficient(p: Sequence[Sequence], denominator: int = 1) -> Fraction:
    """Dobrushin coefficient 1 - max_{a,b,c} |p(a,c) - p(b,c)|, exact.

    ``p`` holds the transition probabilities, or integer numerators over
    ``denominator``.  The inner maximum over row pairs is the range max_a
    p(a,c) - min_a p(a,c) of column c, so one pass over the columns suffices.
    """
    spread = max((max(col) - min(col) for col in zip(*p)), default=0)
    return 1 - Fraction(spread, denominator)


# ---------------------------------------------------------------------------
# block statistics of the subshift (letters are its 1-blocks)
# ---------------------------------------------------------------------------


def block_frequencies(sub: Substitution, k: int) -> dict[Word, Fraction]:
    """Exact k-block frequencies, keyed in sorted ``factor_blocks`` order.

    Only the 2-block chain is solved: each block B moves to the d windows of
    sigma(B) starting at offsets 0..d-1, and the chain restricted to
    language blocks is irreducible for a primitive substitution, so its
    stationary law gives the frequencies (k = 1 solves the letter chain the
    same way).  Longer laws are pushed through sigma: with m =
    ceil((k-1)/d) + 1, every k-window at offset 0..d-1 of sigma(y) lies in
    sigma(B) for the m-block B of y there, so each m-block B adds
    freq(B)/d to the window sigma(B)[j:j+k] for every j in 0..d-1
    (Queffelec, Substitution Dynamical Systems, ch. 5).
    """
    d = constant_length(sub)
    if d is None:
        raise ValueError("block frequencies require constant length")
    if k > 2:
        # m < k for d >= 2; d = 1 has no 2-blocks, so it recurses to a rejection
        m = min(k - 1, -(-(k - 1) // d) + 1)
        shorter = block_frequencies(sub, m)
        counts, den = linalg.common_numerators(shorter.values())
        nums: dict[Word, int] = {}
        for b, num in zip(shorter, counts):
            image = sub.apply(b)
            for j in range(d):
                window = image[j : j + k]
                nums[window] = nums.get(window, 0) + num
        return {w: Fraction(nums[w], den * d) for w in sorted(nums)}
    blocks = factor_blocks(sub, k)
    index = {b: i for i, b in enumerate(blocks)}
    rows = []
    for b in blocks:
        image = sub.apply(b)
        rows.append(tuple((index[image[off : off + k]], 1, 0) for off in range(d)))
    form = IntegerForm(d, 1, tuple(rows))
    chain = ChainGraph(tuple(blocks), tuple(sub.render(b) for b in blocks), form)
    classes = recurrent_classes(chain)
    if not is_strongly_connected(chain, classes):
        raise ValueError("block chain is not irreducible; substitution must be primitive")
    return {blocks[s]: q for s, q in classes[0].stationary.items()}


@dataclass(frozen=True)
class InitialDistribution:
    """Law of the initial automaton state (a, V) under the cylinder measure.

    Derived from exact (d+1)-block frequencies: a block W maps to the state
    (W[0], (W[tau0], W[tau0+1])) where tau0 is the leading digit of the time
    parameter.
    """

    probs: dict[State, Fraction]

    def __post_init__(self):
        total = sum(self.probs.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"initial distribution has mass {total} != 1")


def initial_distribution(sub: Substitution, gamma: WeightVector, tau0: int) -> InitialDistribution:
    """Exact initial state law for a leading digit tau0 in 1..d-1."""
    d = constant_length(sub)
    if d is None:
        raise ValueError("initial distribution requires constant length")
    if not 1 <= tau0 <= d - 1:
        raise ValueError("leading digit must lie in 1..d-1")
    probs: dict[State, Fraction] = {}
    for w, q in block_frequencies(sub, d + 1).items():
        state: State = (w[0], (w[tau0], w[tau0 + 1]))
        probs[state] = probs.get(state, Fraction(0)) + q
    return InitialDistribution(probs)


def initial_state_indices(
    chain: ChainGraph, init: InitialDistribution
) -> dict[int, Fraction]:
    """Map an initial distribution onto chain state indices."""
    index = {s: i for i, s in enumerate(chain.states)}
    return {index[s]: p for s, p in init.probs.items()}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def chain_report(
    chain: ChainGraph,
    initial: Mapping[int, Fraction] | None = None,
) -> dict:
    """Full JSON-ready classification of a chain."""
    form = chain.integer_form
    classes = recurrent_classes(chain)
    report_classes = []
    for cls in classes:
        entry = {
            "states": [chain.state_labels[s] for s in cls.states],
            "period": cls.period,
            "coboundary": cls.coboundary,
            "stationary": {chain.state_labels[s]: str(q) for s, q in cls.stationary.items()},
            "expected_payoff": str(cls.mean),
        }
        if cls.mean == 0:
            entry["variance"] = str(asymptotic_variance(chain, cls))
        report_classes.append(entry)
    report = {
        "n_states": chain.n,
        "strongly_connected": is_strongly_connected(chain, classes),
        "weak_components": len(weakly_connected_components(chain)),
        "classes": report_classes,
        "transient": [chain.state_labels[s] for s in transient_states(chain, classes)],
        "ergodic_coefficient": str(
            ergodic_coefficient(form.transition_numerators(), form.denominator)
        ),
    }
    if initial is not None:
        probs = absorption_probabilities(chain, classes, initial)
        report["absorption_probabilities"] = [str(p) for p in probs]
    return report
