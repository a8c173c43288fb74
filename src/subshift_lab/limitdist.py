"""Exact and Monte Carlo laws of accumulated payoffs along digit streams.

The time parameter t in [1, d) drives everything through its base-d digits:
the integer digit fixes the initial state law, each fractional digit selects
the automaton layer for one step.  One ``DigitStream`` holds t however it is
given: a rational (``--t``), a preperiod and period (``--digits``) or a seed
for uniform digits (``--random-digits``).  Every law walk starts in
``_start``, with its accumulated payoff at 0, so after n steps it misses the
ergodic sum S at time floor(d^n t) by the initial window's gamma(x_0) +
gamma(x[1:tau0]): at most tau0 max|gamma| <= (d - 1) max|gamma|, a bound
that passes 3 max|gamma| once d >= 5 (that offset goes into ``_start``:
ROADMAP.md item 1).  ``word_vs_chain_check`` starts its chain sum at
gamma(x[1:tau0]) and checks it against words built letter by letter; what
remains is |gamma(x_0)|.

Both engines step through the same compiled layers: integer (states, d)
tables of edge targets and of payoffs in lattice units.  Exact distributions
keep one Python int per state whose byte-aligned slots hold the integer
numerators of its lattice sums over d^n times the initial denominator
(Kronecker substitution), so a step is a few shifts and big-int adds; a
snapshot decodes them into a (state, lattice sum) table.  Monte Carlo
cuts the steps into blocks of k, the most with at most 256 edge paths
w = d^k: each sample draws one 16-bit integer below w per block, whose
base-d digits are the block's edges, and one gather per table moves it
through the block's layers, composed into flat numpy tables indexed by
``state * w + code``; sample values are exact lattice points too.  The
16-bit words keep numpy's bounded draws off their slow branch, which
8-bit words below w <= 256 take almost every time.
Variance growth needs no law: it steps the mass and the first two moments
of the sum per state through the same tables, exact at any horizon at a
cost that does not depend on the support.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Sequence

import numpy as np

from .automata import digit_chains
from .linalg import common_numerators
from .markov import (
    ChainGraph,
    InitialDistribution,
    absorption_probabilities,
    asymptotic_variance,
    compose,
    initial_distribution,
    initial_state_indices,
    recurrent_classes,
)
from .prefix_suffix import sample_point_with_coverage
from .substitution import (
    Substitution,
    WeightVector,
    constant_length,
    eigen_numerators,
    gamma_of_word,
)

# most slots the exact law may hold, an upper bound on its (state, sum) pairs
MAX_SLOTS = 10**6
# most bits the exact law may pack, slots times slot width: each slot grows by
# log2(d) bits per step, so the step cost grows with the packed bits
MAX_PACKED_BITS = 2**25
# most edge paths of one Monte Carlo block, d^k; its tables hold states * d^k entries
MAX_CHUNK_WIDTH = 256
# steps behind the bounded window of a mixture's atom
ATOM_WINDOW_HORIZON = 64


# ---------------------------------------------------------------------------
# digit streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DigitStream:
    """Base-d expansion t = tau0 + sum digit(i) * base**-i of a time parameter.

    A rational t has ``preperiod`` digits followed by ``period`` repeating.
    A seeded stream (``seed`` set) draws uniform digits from numpy's default
    generator instead, prefix-stable and reproducible; ``consumed`` counts
    the draws its ``digit(1)`` skips.  ``tau0`` stays 0 until
    ``time_expansion`` normalizes t; then it fixes the initial state and
    digit(k) selects the k-th automaton layer.
    """

    base: int
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()
    seed: int | None = None
    tau0: int = 0
    consumed: int = 0
    # seeded digits drawn so far, shared by every shift of one stream
    _drawn: list[int] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        for digit in (self.tau0,) + self.preperiod + self.period:
            if not 0 <= digit < self.base:
                raise ValueError(f"digit {digit} outside 0..{self.base - 1}")
        if self.seed is not None and (self.preperiod or self.period):
            raise ValueError("a seeded stream has no preperiod or period")
        if self.seed is None and not self.period:
            object.__setattr__(self, "period", (0,))

    @staticmethod
    def from_rational(t: Fraction, base: int) -> "DigitStream":
        """Exact long-division expansion of t in [0, 1)."""
        t = Fraction(t)
        if not 0 <= t < 1:
            raise ValueError("fractional part must lie in [0, 1)")
        digits: list[int] = []
        seen: dict[Fraction, int] = {}
        rem = t
        while rem not in seen:
            seen[rem] = len(digits)
            scaled = rem * base
            digit = int(scaled)
            digits.append(digit)
            rem = scaled - digit
        start = seen[rem]
        return DigitStream(base, tuple(digits[:start]), tuple(digits[start:]))

    @property
    def eventually_periodic(self) -> bool:
        return self.seed is None

    def digit(self, i: int) -> int:
        """The i-th digit after tau0, 1-based."""
        if i < 1:
            raise ValueError("digit index is 1-based")
        if self.seed is not None:
            return self._draw(self.consumed + i)
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    layer_digit = digit

    def _draw(self, i: int) -> int:
        """The i-th seeded draw.  Draws come in chunks of 64, then of the
        count drawn so far; a longer prefix is redrawn from the seed."""
        drawn = self._drawn
        if i > len(drawn):
            rng = np.random.default_rng(self.seed)
            chunks = [rng.integers(0, self.base, size=64, dtype=np.int64)]
            total = 64
            while total < i:
                chunks.append(rng.integers(0, self.base, size=total, dtype=np.int64))
                total *= 2
            drawn[:] = np.concatenate(chunks).tolist()
        return drawn[i - 1]

    def shifted(self, k: int) -> "DigitStream":
        """t * base**k modulo base: the k-th digit becomes tau0."""
        tau0 = self.digit(k)
        if self.seed is not None:
            return replace(self, tau0=tau0, consumed=self.consumed + k)
        cut = min(k, len(self.preperiod))
        turn = (k - cut) % len(self.period)
        period = self.period[turn:] + self.period[:turn]
        return replace(self, preperiod=self.preperiod[cut:], period=period, tau0=tau0)

    def floor_dn_t(self, n: int) -> int:
        """floor(d^n t), exact from the digits."""
        total = self.tau0
        for k in range(1, n + 1):
            total = total * self.base + self.digit(k)
        return total

    def describe(self) -> dict:
        if self.seed is not None:
            return {"tau0": self.tau0, "random_seed": self.seed}
        return {
            "tau0": self.tau0,
            "preperiod": list(self.preperiod),
            "period": list(self.period),
        }


def RandomDigitStream(base: int, seed: int) -> DigitStream:
    """Seeded uniform digits; prefix-stable and reproducible."""
    return DigitStream(base, seed=seed)


def time_expansion(sub: Substitution, t) -> DigitStream:
    """Normalize a time parameter for a constant-length substitution.

    A rational t in (0, d) keeps its integer part as tau0.  A stream whose
    tau0 is set is returned as is; otherwise it is t in (0, 1) and is shifted
    so that its first nonzero digit becomes tau0.
    """
    d = constant_length(sub)
    if d is None:
        raise ValueError("time expansion requires a constant-length substitution")
    try:
        t = Fraction(t)
    except TypeError:
        pass  # not a number: a DigitStream
    else:
        if not 0 < t < d:
            raise ValueError(f"t must lie in (0, {d})")
        t = replace(DigitStream.from_rational(t - int(t), d), tau0=int(t))
    if t.base != d:
        raise ValueError("digit stream base does not match the substitution")
    if t.tau0:
        return t
    if t.eventually_periodic and not any(t.preperiod + t.period):
        raise ValueError("t must be positive (all digits are zero)")
    shift = 1
    while t.digit(shift) == 0:
        shift += 1
    return t.shifted(shift)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def _require_eigenvalue_one(sub: Substitution, gamma: WeightVector) -> None:
    """Raise ``ValueError`` unless gamma(sigma(a)) = gamma(a) for every letter."""
    if gamma.theta != 1:
        raise ValueError(
            f"the law of the ergodic sum needs eigenvalue 1; gamma has eigenvalue {gamma.theta}"
        )
    eigen_numerators(sub, gamma)


def layer_chains(
    sub: Substitution, gamma: WeightVector, plan: DigitStream, n: int
) -> list[ChainGraph]:
    """The chain layer for each of the first n steps (one chain per digit).

    The layers follow the ergodic sum only for eigenvalue 1: the payoffs of
    sigma^k's blocks assume gamma(sigma(w)) = gamma(w), so any gamma that
    is not an eigenvector for 1 raises ``ValueError``.
    """
    _require_eigenvalue_one(sub, gamma)
    return digit_chains(sub, gamma, [plan.layer_digit(k) for k in range(1, n + 1)])


def payoff_lattice(layers: Sequence[ChainGraph]) -> int:
    """lcm of payoff denominators across layers."""
    return math.lcm(*(chain.integer_form.lattice for chain in layers))


_Tables = tuple[list[list[int]], list[list[int]]]


def _layer_tables(
    layers: Sequence[ChainGraph], n: int
) -> tuple[int, list[_Tables], list[int]]:
    """Integer tables of the first n layers, each distinct layer compiled once.

    Returns the payoff lattice, one (targets, pays) pair per distinct layer
    and the index of each step's pair: ``targets[q][j]`` is the target of
    state q's j-th edge and ``pays[q][j]`` its payoff times the lattice.
    Every row must be exactly d edges of probability 1/d, as the digit
    automata are built, so a step picks one of the d edges uniformly.
    """
    distinct: list[ChainGraph] = []
    order: list[int] = []
    index: dict[int, int] = {}  # id of each distinct layer -> its position
    for chain in layers[:n]:
        i = index.setdefault(id(chain), len(distinct))
        if i == len(distinct):
            distinct.append(chain)
        order.append(i)
    lattice = payoff_lattice(distinct)
    tables = []
    for chain in distinct:
        form = chain.integer_form
        d = len(form.rows[0])
        # probability 1/d on every edge: denominator d, every numerator 1
        if form.denominator != d or any(
            len(row) != d or any(p != 1 for _, p, _ in row) for row in form.rows
        ):
            raise ValueError("every state of a layer needs d edges of probability 1/d")
        scale = lattice // form.lattice
        targets = [[t for t, _, _ in row] for row in form.rows]
        pays = [[v * scale for _, _, v in row] for row in form.rows]
        tables.append((targets, pays))
    return lattice, tables, order


_Start = tuple[int, list[_Tables], list[int], list[int], int]


def _start(
    layers: Sequence[ChainGraph],
    init: InitialDistribution,
    n: int,
    checkpoints: Sequence[int] = (),
) -> _Start:
    """``_layer_tables`` of the first n layers, then the initial law as one
    integer mass per state of ``layers[0]`` and their denominator.  Fewer
    than n layers, a checkpoint outside 0..n or a negative initial
    probability raise ``ValueError``."""
    if not layers or n > len(layers):  # the first layer indexes the initial states
        raise ValueError("not enough layers for the requested horizon")
    for c in checkpoints:
        if not 0 <= c <= n:
            raise ValueError(f"checkpoint {c} outside the steps 0..{n}")
    lattice, tables, order = _layer_tables(layers, n)
    init_idx = initial_state_indices(layers[0], init)
    if any(p < 0 for p in init_idx.values()):
        raise ValueError("initial probabilities must be nonnegative")
    nums, denom = common_numerators(init_idx.values())
    mass = [0] * len(layers[0].states)
    for q, num in zip(init_idx, nums):
        mass[q] = num
    return lattice, tables, order, mass, denom


# ---------------------------------------------------------------------------
# exact distribution
# ---------------------------------------------------------------------------


class PackedBitsExceeded(ValueError):
    """The exact law outgrew ``MAX_PACKED_BITS``: its steps would take
    seconds each, so the input is rejected like any other."""

    def __init__(self, reached_n: int, bits: int):
        super().__init__(
            f"exact law too large at step {reached_n}: {bits} packed bits, "
            f"past the bound of {MAX_PACKED_BITS}"
        )
        self.reached_n = reached_n
        self.bits = bits


class SupportCapExceeded(ValueError):
    """The exact law outgrew ``MAX_SLOTS`` slots: an input too large for the
    exact method, rejected like any other."""

    def __init__(self, reached_n: int, size: int):
        super().__init__(f"support cap exceeded at step {reached_n} with {size} slots")
        self.reached_n = reached_n
        self.size = size


@dataclass(frozen=True)
class SumDistribution:
    """Exact joint law of (state, accumulated payoff) on a lattice.

    Probabilities are integer numerators over a common denominator; sums are
    integer multiples of 1/lattice.
    """

    n: int
    lattice: int
    denominator: int
    table: dict[tuple[int, int], int]

    def mass(self) -> Fraction:
        return Fraction(sum(self.table.values()), self.denominator)

    def sum_marginal(self) -> dict[int, Fraction]:
        nums: dict[int, int] = {}
        for (_, s), num in self.table.items():
            nums[s] = nums.get(s, 0) + num
        return {s: Fraction(num, self.denominator) for s, num in sorted(nums.items())}

    def state_marginal(self) -> dict[int, Fraction]:
        nums: dict[int, int] = {}
        for (q, _), num in self.table.items():
            nums[q] = nums.get(q, 0) + num
        return {q: Fraction(num, self.denominator) for q, num in nums.items()}

    def mean(self) -> Fraction:
        acc = 0
        for (_, s), num in self.table.items():
            acc += s * num
        return Fraction(acc, self.denominator * self.lattice)

    def variance(self) -> Fraction:
        """Sum of p (x - mean)^2 with p = num / D and x = s / L; the mass m0
        need not be 1, so this is (m2 D^2 - 2 m1^2 D + m1^2 m0) / (D^3 L^2)."""
        m0 = m1 = m2 = 0
        for (_, s), num in self.table.items():
            m0 += num
            m1 += s * num
            m2 += s * s * num
        den = self.denominator
        return Fraction(
            m2 * den * den - 2 * m1 * m1 * den + m1 * m1 * m0, den**3 * self.lattice**2
        )


def exact_sum_distribution(
    layers: Sequence[ChainGraph],
    init: InitialDistribution,
    n: int,
    checkpoints: Sequence[int] = (),
) -> SumDistribution | list[SumDistribution]:
    """Digit-by-digit convolution of the joint (state, sum) law.

    Sums start at 0; the law after step k uses layer k.  When ``checkpoints``
    is given, a list of snapshots at those step counts, each in 0..n, is
    returned instead.

    Each state's law over the sums is one Python int (Kronecker substitution;
    Harvey, J. Symb. Comput. 2009): byte-aligned slot i of width W holds the
    numerator of the sum ``base + i * spacing``, where ``spacing`` is the gcd
    of every payoff's distance to its layer's least payoff.  W is the bit
    length of the initial mass times the product of the per-step d, the
    largest numerator any slot can reach, so slots never carry into each
    other.  A step adds each state's int, shifted by (pay - least pay) /
    spacing slots, into each edge target and moves ``base`` by the least
    pay; the ints are then shifted down by their common count of empty low
    slots, so a law of bounded support keeps ints of bounded length.
    ``MAX_SLOTS`` bounds the slot count, the sum over states of
    ceil(bits / W), an upper bound on the (state, sum) pairs, and
    ``MAX_PACKED_BITS`` the slot count times W.  The states times the slots
    of the ints' OR bound the slot count from above, so a step counts the
    slots only when that bound passes a limit; the step and count raised
    are those of a count at every step.
    """
    lattice, tables, order, packed, denom = _start(layers, init, n, checkpoints)
    size = len(packed)
    lows = [min(min(row) for row in pays) for _, pays in tables]
    spacing = math.gcd(
        *(p - low for (_, pays), low in zip(tables, lows) for row in pays for p in row)
    ) or 1
    top = sum(packed)
    for i in order:
        top *= len(tables[i][0][0])
    nbytes = max(1, -(-top.bit_length() // 8))  # bytes per slot
    width = 8 * nbytes
    pad = width - 1
    # slot counts up to this one pass neither bound
    limit = min(MAX_SLOTS, MAX_PACKED_BITS // width)
    # per distinct layer and state: (shift in bits, targets) per distinct payoff
    steps = []
    for (targets, pays), low in zip(tables, lows):
        rows = []
        for row_targets, row_pays in zip(targets, pays):
            groups: dict[int, list[int]] = {}
            for r, p in zip(row_targets, row_pays):
                groups.setdefault((p - low) // spacing * width, []).append(r)
            rows.append(list(groups.items()))
        steps.append((low, len(targets[0]), rows))
    base = 0
    want = sorted(set(checkpoints))
    snaps: list[SumDistribution] = []

    def snapshot(step: int) -> SumDistribution:
        table: dict[tuple[int, int], int] = {}
        for q, v in enumerate(packed):
            count = -(-v.bit_length() // width)
            raw = v.to_bytes(count * nbytes, "little")
            for i in range(count):
                num = int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little")
                if num:
                    table[q, base + i * spacing] = num
        return SumDistribution(step, lattice, denom, table)

    if 0 in want:
        snaps.append(snapshot(0))
    for k in range(1, n + 1):
        low, d, rows = steps[order[k - 1]]
        new = [0] * size
        for v, row in zip(packed, rows):
            if v:
                for shift, targets in row:
                    moved = v << shift
                    for r in targets:
                        new[r] += moved
        denom *= d
        base += low
        union = reduce(operator.or_, new)  # its lowest set bit is the ints' lowest
        empty = ((union & -union).bit_length() - 1) // width if union else 0
        if empty:
            new = [v >> (empty * width) for v in new]
            base += empty * spacing
        packed = new
        # no int is longer than the union, so size times the union's slots
        # bounds the slot count: count it only where the bound passes a limit
        if size * (-(-union.bit_length() // width) - empty) > limit:
            # the sum over states of ceil(bits / width), mapped without a Python frame
            bits = map(pad.__add__, map(int.bit_length, packed))
            slots = sum(map(operator.floordiv, bits, repeat(width)))
            if slots > MAX_SLOTS:
                raise SupportCapExceeded(k, slots)
            if slots * width > MAX_PACKED_BITS:
                raise PackedBitsExceeded(k, slots * width)
        if k in want:
            snaps.append(snapshot(k))
    if checkpoints:
        return snaps
    return snapshot(n)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class EmpiricalSample:
    """Reproducible Monte Carlo sample of accumulated payoffs: integer
    lattice values ``scaled``, read as floats through ``values``."""

    scaled: np.ndarray  # integer lattice values (values * lattice)
    final_states: np.ndarray
    lattice: int
    n: int
    t_digits: dict

    @property
    def values(self) -> np.ndarray:
        """The float payoffs, ``scaled / lattice``."""
        return self.scaled / self.lattice

    def __len__(self) -> int:
        return len(self.scaled)


def monte_carlo(
    layers: Sequence[ChainGraph],
    init: InitialDistribution,
    n: int,
    samples: int,
    seed: int,
    checkpoints: Sequence[int] = (),
    t_digits: dict | None = None,
) -> EmpiricalSample | list[EmpiricalSample]:
    """IID paths of the layered chain; deterministic per seed.

    Payoffs accumulate as scaled int64 integers, so sample values are exact;
    a horizon whose largest possible |sum| exceeds int64 raises ``ValueError``.
    Every layer must have the same edge count d, or ``ValueError`` is raised.
    Each sample starts at sum 0 in a state of positive ``_start`` mass, in
    index order, drawn with probability mass / denominator as a float.

    The steps are cut into blocks of k, aligned at step 0, where k is the
    largest count with w = d^k at most ``MAX_CHUNK_WIDTH`` (256), or 1 when d
    is wider.  Each block draws one integer below w per sample (Lemire's
    bounded integers), even when the horizon cuts the block short.  The
    draws are uint16 words (uint32 once w > 2^16): Lemire's method takes
    its slow modulo branch with probability w / 2^bits, 243/256 for uint8
    words at w = 3^5 but 243/65536 for uint16.  The code's base-d digits,
    the leading digit first, are the edges of the block's steps, so each
    edge has probability exactly 1/d.
    The draws depend only on the seed, the sample count and d: samples are
    prefix-stable in n and do not depend on the checkpoints.

    For each distinct run of layers a flat target table and a flat payoff
    table of shape (states, d^steps) are composed once per call and dropped
    after the run's last use.  A block moves each sample with one gather
    from each table at ``state * d^steps + code``.  A checkpoint inside a
    block splits the code with ``divmod`` into head digits and tail digits,
    each part gathered through its own run's tables; the horizon drops the
    tail digits past it.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    lattice, tables, order, mass, denom = _start(layers, init, n, checkpoints)
    widths = {len(targets[0]) for targets, _ in tables}
    if len(widths) > 1:
        raise ValueError(f"Monte Carlo needs one edge count d for all layers: {sorted(widths)}")
    d = max(widths, default=2)  # any d serves a horizon of 0 steps
    max_pay = [max(abs(p) for row in pays for p in row) for _, pays in tables]
    bound = sum(max_pay[i] for i in order)
    if bound > np.iinfo(np.int64).max:
        raise ValueError(
            f"Monte Carlo sums can reach {bound} lattice units, beyond int64; "
            "scale gamma down or shorten the horizon"
        )
    arrays = [
        (np.array(targets, dtype=np.int64), np.array(pays, dtype=np.int64))
        for targets, pays in tables
    ]
    k = 1  # steps per block
    while d ** (k + 1) <= MAX_CHUNK_WIDTH:
        k += 1
    w = d**k
    code_type = np.promote_types(np.uint16, np.min_scalar_type(w - 1))
    rng = np.random.default_rng(seed)
    states_list = [q for q, m in enumerate(mass) if m]
    probs = np.array([mass[q] / denom for q in states_list])
    probs /= probs.sum()
    cum = np.cumsum(probs)
    cum[-1] = 1.0  # the float sum can end below the largest draw, 1 - 2**-53
    draws = rng.random(samples)
    states = np.array(states_list, dtype=np.int64)[np.searchsorted(cum, draws)]
    sums = np.zeros(samples, dtype=np.int64)
    want = set(checkpoints)
    snaps: list[EmpiricalSample] = []
    meta = dict(t_digits or {})

    def snapshot(step: int) -> EmpiricalSample:
        return EmpiricalSample(
            scaled=sums.copy(),
            final_states=states,
            lattice=lattice,
            n=step,
            t_digits=meta,
        )

    # runs of steps start+1..end: the blocks, cut at every checkpoint and at n
    ends = sorted({c for c in want if 0 < c < n} | set(range(k, n, k)) | {n}) if n else []
    runs = list(zip([0] + ends, ends))
    # a run's tables live until its last use, so seeded digits keep few
    uses = Counter(tuple(order[start:end]) for start, end in runs)
    composed: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    if 0 in want:
        snaps.append(snapshot(0))
    for start, end in runs:
        if start % k == 0:
            rest = rng.integers(0, w, samples, dtype=code_type)
        if end % k:  # digits of the block remain after this run
            code, rest = divmod(rest, d ** (-end % k))
        else:
            code = rest
        key = tuple(order[start:end])
        if key not in composed:
            composed[key] = _compose_tables([arrays[i] for i in key])
        uses[key] -= 1
        targets, pays = composed[key] if uses[key] else composed.pop(key)
        idx = states * d ** (end - start)
        idx += code
        states = targets.take(idx)
        sums += pays.take(idx)
        if end in want:
            snaps.append(snapshot(end))
    if checkpoints:
        return snaps
    return snapshot(n)


def _compose_tables(
    tables: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Flat target and payoff tables of a run of (states, d) layers.

    Entry ``q * w + c`` of the two (states * w) arrays, w the product of the
    d, is where state q ends and what it earns when the run's edges spell
    c in mixed radix, the first step's edge being the leading digit.
    """
    # entry q * w' + c of the run so far spreads to (q * w' + c) * d + j
    targets = np.arange(len(tables[0][0]), dtype=np.int64)
    pays = np.zeros(len(targets), dtype=np.int64)
    for layer_targets, layer_pays in tables:
        pays = (pays[:, None] + layer_pays.take(targets, axis=0)).ravel()
        targets = layer_targets.take(targets, axis=0).ravel()
    return targets, pays


# ---------------------------------------------------------------------------
# word vs chain identity
# ---------------------------------------------------------------------------


def word_vs_chain_check(
    sub: Substitution,
    gamma: WeightVector,
    t,
    n: int,
    seed: int,
) -> Fraction:
    """Compare the symbolic ergodic sum with the chain-accumulated sum.

    Builds the length floor(d^n t) window letter by letter alongside the
    automaton path and returns |word sum - chain sum|, which must be at most
    3 max|gamma|; a broken identity raises ``ValueError``.  The window is
    rebuilt a second time from its closed-form decomposition and compared
    letter for letter.
    """
    plan = time_expansion(sub, t)
    d = plan.base
    rng = random.Random(seed)
    point = sample_point_with_coverage(sub, seed, min_right=plan.tau0 + 2)
    w = point.right[: plan.tau0 + 2]
    a = w[0]
    u_word = w[1 : plan.tau0]
    v_pair = (w[plan.tau0], w[plan.tau0 + 1])
    g0 = gamma_of_word(gamma, u_word)
    chain_sum = g0
    suffix_parts: list[bytes] = []
    for k in range(1, n + 1):
        kappa = plan.layer_digit(k)
        m = rng.randint(1, d)
        img_a = sub.images[a]
        pair_img = sub.images[v_pair[0]] + sub.images[v_pair[1]]
        s_part = img_a[m:]
        p_part = pair_img[: m + kappa - 1]
        chain_sum += gamma_of_word(gamma, s_part) + gamma_of_word(gamma, p_part)
        u_word = s_part + sub.apply(u_word) + p_part
        a = img_a[m - 1]
        v_pair = (pair_img[m + kappa - 1], pair_img[m + kappa])
        suffix_parts.append(s_part)
    count = plan.floor_dn_t(n)
    if len(u_word) != count - 1:
        raise ValueError("window length must equal floor(d^n t) - 1")
    window = bytes([a]) + u_word
    # independent reconstruction: a_n, then the suffix tower, then the
    # n-fold image of the rest of the initial window
    parts = [bytes([a])]
    for k in range(n, 0, -1):
        parts.append(sub.apply_power(suffix_parts[k - 1], n - k))
    parts.append(sub.apply_power(w[1:], n))
    rebuilt = b"".join(parts)[:count]
    if rebuilt != window:
        raise ValueError("window reconstruction mismatch")
    word_sum = gamma_of_word(gamma, window)
    if gamma_of_word(gamma, u_word) != chain_sum:
        raise ValueError("chain sum must equal the window sum")
    discrepancy = abs(word_sum - chain_sum)
    if discrepancy > 3 * gamma.max_abs:
        raise ValueError(f"discrepancy {discrepancy} exceeds 3 max|gamma|")
    return discrepancy


# ---------------------------------------------------------------------------
# variance growth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    variances: tuple[float, ...]
    slope: float


def _moment_variances(
    layers: Sequence[ChainGraph],
    init: InitialDistribution,
    checkpoints: Sequence[int],
) -> list[Fraction]:
    """Exact variance of the accumulated payoff at each sorted checkpoint >= 1.

    The moment recursion for an additive functional of a finite Markov chain
    (Kemeny-Snell): three integer vectors over the states hold the mass m0,
    m1 = sum s * mass and m2 = sum s^2 * mass of the lattice sum s, over a
    denominator multiplied by d per step.  An edge q -> r with lattice payoff
    p adds (m0, m1 + p m0, m2 + 2 p m1 + p^2 m0) of q to r, so a step costs
    one pass over the edges whatever the support of the law.
    """
    n = checkpoints[-1]
    lattice, tables, order, m0, denom = _start(layers, init, n, checkpoints)
    size = len(m0)
    m1 = [0] * size
    m2 = [0] * size
    want = set(checkpoints)
    out: list[Fraction] = []
    for k in range(1, n + 1):
        targets, pays = tables[order[k - 1]]
        n0, n1, n2 = [0] * size, [0] * size, [0] * size
        for q, mass in enumerate(m0):
            if not mass:
                continue  # no mass, so no moments either
            first, second = m1[q], m2[q]
            moved: dict[int, tuple[int, int]] = {}  # per payoff, shared by its edges
            for r, p in zip(targets[q], pays[q]):
                if p not in moved:
                    step = first + p * mass
                    moved[p] = step, second + p * (first + step)
                n0[r] += mass
                n1[r] += moved[p][0]
                n2[r] += moved[p][1]
        m0, m1, m2 = n0, n1, n2
        denom *= len(targets[0])
        if k in want:
            mean = Fraction(sum(m1), denom * lattice)
            out.append(Fraction(sum(m2), denom * lattice**2) - mean**2)
    return out


def variance_growth(
    sub: Substitution,
    gamma: WeightVector,
    t,
    n_values: Sequence[int],
) -> GrowthReport:
    """V_n over a range of horizons with the fitted log-log growth exponent.

    The first two moments of the sum are stepped through the layers
    (``_moment_variances``), exact at any horizon; each variance is
    ``float`` of the same ``Fraction`` as ``SumDistribution.variance``.
    The slope needs two distinct horizons >= 1 with positive variance;
    anything less raises ``ValueError``.
    """
    plan = time_expansion(sub, t)
    n_values = tuple(sorted(set(int(x) for x in n_values)))
    if len(n_values) < 2:
        raise ValueError("variance growth needs at least two distinct horizons")
    if n_values[0] < 1:
        raise ValueError("horizons must be >= 1")
    layers = layer_chains(sub, gamma, plan, n_values[-1])
    init = initial_distribution(sub, gamma, plan.tau0)
    variances = tuple(float(v) for v in _moment_variances(layers, init, n_values))
    positive = [(n, v) for n, v in zip(n_values, variances) if v > 0]
    if len(positive) < 2:
        raise ValueError("fewer than two horizons have positive variance; no slope to fit")
    xs = np.log([n for n, _ in positive])
    ys = np.log([v for _, v in positive])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return GrowthReport(variances, slope)


# ---------------------------------------------------------------------------
# mixture law prediction and goodness of fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureComponent:
    weight: Fraction
    variance_per_step: Fraction  # sigma_k^2; the law at step n is N(0, n sigma_k^2)
    states: frozenset[int]
    lattice_step: int  # payoff lattice inside the class, in 1/lattice units


@dataclass(frozen=True)
class MixturePrediction:
    """Limit law p0 * delta_0 + sum p_k N(0, sigma_k^2) for periodic digits."""

    p0: Fraction
    components: tuple[MixtureComponent, ...]
    dirac_window: tuple[Fraction, Fraction] | None
    lattice: int

    def density_description(self) -> dict:
        return {
            "p0": str(self.p0),
            "components": [
                {"p": str(c.weight), "sigma2_per_step": str(c.variance_per_step)}
                for c in self.components
            ],
        }


def mixture_prediction(
    sub: Substitution,
    gamma: WeightVector,
    t,
) -> MixturePrediction:
    """Exact limit-law parameters for an eventually periodic digit stream.

    Weights are absorption probabilities into the recurrent classes of the
    period-composed chain; coboundary classes pool into the atom at zero.
    Per-step variances divide the composed-class variance by the period
    length.  One ``_start`` covers the preperiod, through which its mass is
    pushed to the law that the weights absorb, and about
    ``ATOM_WINDOW_HORIZON`` steps of whole periods: the bounded window of the
    atom part is the least and greatest sum that the exact law puts on the
    atom's states after them (``_reachable_window``).  No law is built, so
    unlike the exact law this raises neither ``SupportCapExceeded`` nor
    ``PackedBitsExceeded``.  Like ``layer_chains``, it raises ``ValueError``
    unless gamma is an eigenvector for 1.
    """
    _require_eigenvalue_one(sub, gamma)
    plan = time_expansion(sub, t)
    if not plan.eventually_periodic:
        raise ValueError("mixture prediction requires an eventually periodic digit stream")
    pre = list(plan.preperiod)
    per = list(plan.period)
    init = initial_distribution(sub, gamma, plan.tau0)
    chains = digit_chains(sub, gamma, pre + per)
    pre_layers, per_layers = chains[: len(pre)], chains[len(pre) :]
    # composed chain over one period, aligned to start after the preperiod
    block = compose(*per_layers)
    classes = recurrent_classes(block)
    # the digits of the first horizon steps: the preperiod, then whole periods
    layers = pre_layers + per_layers * max(1, ATOM_WINDOW_HORIZON // len(per))
    start = _start(layers, init, len(layers))
    _, tables, order, mass, denom = start
    for i in order[: len(pre)]:  # mu: the initial mass pushed through the preperiod
        pushed = [0] * len(mass)
        for m, targets in zip(mass, tables[i][0]):
            for r in targets:
                pushed[r] += m
        mass, denom = pushed, denom * len(tables[i][0][0])
    mu = {q: Fraction(m, denom) for q, m in enumerate(mass) if m}
    weights = absorption_probabilities(block, classes, mu)
    lattice = payoff_lattice(per_layers)
    p0 = Fraction(0)
    comps: list[MixtureComponent] = []
    dirac_states: set[int] = set()
    for cls, p in zip(classes, weights):
        if cls.coboundary:
            p0 += p
            dirac_states.update(cls.states)
        else:
            sigma2_block = asymptotic_variance(block, cls)
            # block payoffs are sums of layer payoffs, so L_block divides lattice
            form = block.integer_form
            scale = lattice // form.lattice
            step = math.gcd(*(v * scale for s in cls.states for _, _, v in form.rows[s]))
            comps.append(
                MixtureComponent(
                    p, sigma2_block / len(per), frozenset(cls.states), max(step, 1)
                )
            )
    window = None
    if dirac_states:
        window = _reachable_window(start, dirac_states)
    return MixturePrediction(p0, tuple(comps), window, lattice)


def _reachable_window(start: _Start, states: set[int]) -> tuple[Fraction, Fraction] | None:
    """Least and greatest sum of the exact law after all the steps of
    ``start`` on ``states``, or None when it puts no mass there.

    Every edge has probability 1/d > 0, so the law's support is exactly the
    (state, sum) pairs that some path from a state of positive initial mass
    reaches: a min-plus and a max-plus step per layer carry each state's
    least and greatest reachable sum, and the law is never built.
    """
    lattice, tables, order, mass, _ = start
    size = len(mass)
    # an unreached state keeps the empty range (inf, -inf)
    lows: list[float] = [0 if m else math.inf for m in mass]
    highs = [-low for low in lows]
    for i in order:
        targets, pays = tables[i]
        new_lows: list[float] = [math.inf] * size
        new_highs: list[float] = [-math.inf] * size
        for q, low in enumerate(lows):
            if low == math.inf:
                continue
            high = highs[q]
            for r, p in zip(targets[q], pays[q]):
                if low + p < new_lows[r]:
                    new_lows[r] = low + p
                if high + p > new_highs[r]:
                    new_highs[r] = high + p
        lows, highs = new_lows, new_highs
    reached = [q for q in states if lows[q] != math.inf]
    if not reached:
        return None
    return (
        Fraction(min(lows[q] for q in reached), lattice),
        Fraction(max(highs[q] for q in reached), lattice),
    )


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def ks_lattice_vs_normal(scaled: np.ndarray, step: int, mean: float, sd: float) -> float:
    """KS distance between a lattice sample and the discretized normal.

    The reference is the bona fide lattice CDF Phi((x + step/2 - mean)/sd),
    i.e. the normal law with half-step continuity correction; this measures
    convergence in law without charging for the unavoidable quantization of
    a lattice variable (whose raw sup-distance to the continuous normal is
    bounded below by half the central mass).  A sorted sample is read as
    is; any other is sorted first.
    """
    scaled = np.asarray(scaled)
    if np.any(scaled[1:] < scaled[:-1]):
        scaled = np.sort(scaled)
    n = len(scaled)
    lo = int(scaled[0]) - 2 * step
    hi = int(scaled[-1]) + 2 * step
    grid = np.arange(lo, hi + step, step, dtype=np.int64)
    emp = np.searchsorted(scaled, grid, side="right") / n
    z = (grid + step / 2.0 - mean) / sd
    model = np.fromiter(map(normal_cdf, z.tolist()), float, len(z))
    return float(np.max(np.abs(emp - model)))


def ks_exact_vs_sample(dist: SumDistribution, sample: EmpiricalSample) -> float:
    """KS distance between an exact lattice law and an empirical sample."""
    if dist.lattice != sample.lattice:
        raise ValueError(
            f"exact law lattice {dist.lattice} differs from sample lattice {sample.lattice}"
        )
    marg = dist.sum_marginal()
    support = np.array(sorted(marg), dtype=np.int64)
    cdf = np.cumsum([float(marg[s]) for s in support])
    emp_sorted = np.sort(sample.scaled)
    n = len(emp_sorted)
    # evaluate both step functions at all jump points
    points = np.unique(np.concatenate([support, emp_sorted]))
    emp = np.searchsorted(emp_sorted, points, side="right") / n
    idx = np.searchsorted(support, points, side="right")
    model = np.where(idx == 0, 0.0, cdf[idx - 1])
    return float(np.max(np.abs(emp - model)))


@dataclass(frozen=True)
class GofResult:
    ks_continuous: float
    window_mass_empirical: float
    window_mass_predicted: float
    window: tuple[float, float] | None

    @property
    def window_mass_gap(self) -> float:
        return abs(self.window_mass_empirical - self.window_mass_predicted)


def gof_test(sample: EmpiricalSample, prediction: MixturePrediction) -> GofResult:
    """Goodness of fit of a sample against the predicted mixture law.

    The continuous part is tested per class: samples whose final state lies
    in a non-coboundary class are scaled by sqrt(n sigma_k^2) and compared
    with the standard normal.  The atom is tested by comparing the mass in
    the bounded window against the mixture's own prediction for that window
    (atom weight plus the Gaussian classes' lattice-corrected contribution).
    """
    n = sample.n
    ks_cont = 0.0
    steps: dict[int, int] = {}  # observed sum-lattice step per component
    final = sample.final_states
    # class membership as a table over every state index in the sample or a class
    size = 1 + max([int(final.max())] + [max(c.states) for c in prediction.components])
    for ci, comp in enumerate(prediction.components):
        member = np.zeros(size, dtype=bool)
        member[list(comp.states)] = True
        mask = member[final]
        if not mask.any():
            continue
        sub_scaled = np.sort(sample.scaled[mask])
        # the gcd of the sorted values' gaps: equal values add gaps of 0
        steps[ci] = int(np.gcd.reduce(np.diff(sub_scaled))) or 1
        sd_scaled = math.sqrt(n * float(comp.variance_per_step)) * sample.lattice
        ks_cont = max(
            ks_cont, ks_lattice_vs_normal(sub_scaled, steps[ci], 0.0, sd_scaled)
        )
    if prediction.dirac_window is None:
        return GofResult(ks_cont, 0.0, 0.0, None)
    lo, hi = prediction.dirac_window
    lo_s = int(lo * sample.lattice)
    hi_s = int(hi * sample.lattice)
    emp = float(np.mean((sample.scaled >= lo_s) & (sample.scaled <= hi_s)))
    pred = float(prediction.p0)
    for ci, comp in enumerate(prediction.components):
        sd = math.sqrt(n * float(comp.variance_per_step))
        # observed steps count 1/sample.lattice, lattice_step 1/prediction.lattice
        step = steps[ci] / sample.lattice if ci in steps else comp.lattice_step / prediction.lattice
        pred += float(comp.weight) * (
            normal_cdf((float(hi) + step / 2) / sd) - normal_cdf((float(lo) - step / 2) / sd)
        )
    return GofResult(ks_cont, emp, pred, (float(lo), float(hi)))


def sample_moments(sample: EmpiricalSample) -> dict:
    """Mean, variance, skewness and excess kurtosis of a sample."""
    x = sample.values
    mean = float(np.mean(x))
    centered = x - mean
    squared = centered**2
    var = float(np.mean(squared))
    if var == 0:
        return {"mean": mean, "variance": 0.0, "skewness": 0.0, "excess_kurtosis": 0.0}
    # products of the squares, not float powers: numpy's pow is far slower
    skew = float(np.mean(squared * centered) / var**1.5)
    kurt = float(np.mean(squared * squared) / var**2 - 3.0)
    return {"mean": mean, "variance": var, "skewness": skew, "excess_kurtosis": kurt}
