import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subshift_lab.limitdist import (
    ATOM_WINDOW_HORIZON,
    DigitStream,
    PackedBitsExceeded,
    RandomDigitStream,
    SupportCapExceeded,
    exact_sum_distribution,
    gof_test,
    ks_exact_vs_sample,
    ks_lattice_vs_normal,
    layer_chains,
    mixture_prediction,
    monte_carlo,
    normal_cdf,
    sample_moments,
    time_expansion,
    variance_growth,
    word_vs_chain_check,
)
from subshift_lab import limitdist
from subshift_lab.limitdist import _moment_variances
from subshift_lab.markov import (
    InitialDistribution,
    compose,
    initial_distribution,
    initial_state_indices,
    recurrent_classes,
)
from subshift_lab.substitution import (
    Substitution,
    WeightVector,
    eigenvector_for,
    matrix_of,
    parse_substitution,
)


# ---------------------------------------------------------------------------
# digit streams
# ---------------------------------------------------------------------------


def _value(s):
    """t from a periodic stream's digits: tau0, the preperiod, then the
    period as a geometric series."""
    t = s.tau0 + sum(Fraction(x, s.base**i) for i, x in enumerate(s.preperiod, start=1))
    p = len(s.period)
    block = sum(x * s.base ** (p - j) for j, x in enumerate(s.period, start=1))
    return t + Fraction(block, s.base ** len(s.preperiod) * (s.base**p - 1))


def test_digit_stream_from_rational():
    s = DigitStream.from_rational(Fraction(1, 2), 3)
    assert (s.preperiod, s.period) == ((), (1,))
    s = DigitStream.from_rational(Fraction(1, 3), 3)
    assert (s.preperiod, s.period) == ((1,), (0,))
    s = DigitStream.from_rational(Fraction(5, 6), 3)
    assert s.digit(1) == 2 and _value(s) == Fraction(5, 6)


@given(st.integers(1, 60), st.integers(2, 61), st.sampled_from([2, 3, 5]))
def test_digit_stream_roundtrip(p, q, base):
    t = Fraction(p, q)
    if t >= 1:
        t = t - int(t)
    if t == 0:
        return
    s = DigitStream.from_rational(t, base)
    assert _value(s) == t


def test_time_expansion_normalization(twist2):
    sub, _ = twist2
    plan = time_expansion(sub, Fraction(1))
    assert plan.tau0 == 1 and plan.layer_digit(5) == 0
    plan = time_expansion(sub, Fraction(3, 2))
    assert plan.tau0 == 1 and plan.layer_digit(1) == 1
    # t in (0,1) is shifted so the leading digit is nonzero
    plan = time_expansion(sub, Fraction(1, 2))
    assert plan.tau0 == 1 and plan.layer_digit(1) == 1  # 1/2 = 0.111... base 3
    plan = time_expansion(sub, Fraction(1, 9))
    assert plan.tau0 == 1 and all(plan.layer_digit(k) == 0 for k in range(1, 6))
    with pytest.raises(ValueError):
        time_expansion(sub, Fraction(0))
    with pytest.raises(ValueError):
        time_expansion(sub, Fraction(7, 2))


@given(st.integers(1, 40), st.integers(2, 41), st.integers(0, 7))
def test_floor_matches_exact_arithmetic(p, q, n):
    sub = parse_substitution("1: 112\n2: 221")
    t = Fraction(p, q)
    if not 0 < t < 3:
        return
    plan = time_expansion(sub, t)
    # the plan normalizes t into [1, 3); recover the effective t
    shift = 0
    t_eff = t
    while t_eff < 1:
        t_eff *= 3
        shift += 1
    assert plan.floor_dn_t(n) == int(3**n * t_eff)


def test_random_digit_stream_prefix_stable():
    s = RandomDigitStream(3, 99)
    first = [s.digit(i) for i in range(1, 50)]
    s2 = RandomDigitStream(3, 99)
    assert [s2.digit(i) for i in range(1, 50)] == first


def test_random_digit_stream_pinned_draws():
    # numpy draws 64 digits, then as many as were drawn so far; digits across
    # both chunk boundaries are pinned so a changed schedule fails here
    s = RandomDigitStream(3, 99)
    assert [s.digit(i) for i in range(1, 21)] == [
        2, 1, 2, 1, 0, 1, 2, 2, 2, 1, 0, 1, 1, 0, 2, 1, 1, 1, 0, 1
    ]
    assert [s.digit(i) for i in range(61, 69)] == [2, 0, 0, 0, 0, 0, 0, 0]
    assert [s.digit(i) for i in range(125, 133)] == [2, 0, 1, 0, 0, 1, 2, 1]


def test_digit_stream_rejects_invalid_fields():
    # base 1 has only the digit 0, so normalizing t would never end
    with pytest.raises(ValueError, match="base must be >= 2"):
        RandomDigitStream(1, 3)
    with pytest.raises(ValueError, match="outside"):
        DigitStream(3, (), (1,), tau0=3)
    with pytest.raises(ValueError, match="seeded stream"):
        DigitStream(3, (1,), seed=2)


def test_time_expansion_of_seeded_stream_skips_leading_zeros(twist2):
    sub, _ = twist2
    raw = RandomDigitStream(3, 11)
    assert [raw.digit(i) for i in range(1, 4)] == [0, 0, 2]
    plan = time_expansion(sub, RandomDigitStream(3, 11))
    assert plan.tau0 == 2
    assert [plan.layer_digit(k) for k in range(1, 201)] == [
        raw.digit(k + 3) for k in range(1, 201)
    ]
    assert time_expansion(sub, plan) is plan


def test_time_expansion_describe(twist2):
    sub, _ = twist2
    plan = time_expansion(sub, Fraction(7, 3))
    assert plan.describe() == {"tau0": 2, "preperiod": [1], "period": [0]}
    assert _value(plan) == Fraction(7, 3)
    plan = time_expansion(sub, RandomDigitStream(3, 11))
    assert plan.describe() == {"tau0": 2, "random_seed": 11}
    assert plan.seed == 11 and not plan.eventually_periodic
    # 1/9 = 0.01 in base 3: the preperiod is consumed, t becomes 1
    plan = time_expansion(sub, Fraction(1, 9))
    assert plan.describe() == {"tau0": 1, "preperiod": [], "period": [0]}
    assert _value(plan) == 1 and plan.eventually_periodic


def test_floor_dn_t_seeded(twist2):
    sub, _ = twist2
    raw = RandomDigitStream(3, 11)
    plan = time_expansion(sub, RandomDigitStream(3, 11))
    assert plan.floor_dn_t(5) == 609
    for n in (0, 1, 70):
        expected = sum(raw.digit(i) * 3 ** (n + 3 - i) for i in range(1, n + 4))
        assert plan.floor_dn_t(n) == expected


# ---------------------------------------------------------------------------
# exact distribution
# ---------------------------------------------------------------------------


def test_exact_distribution_basics(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 8)
    init = initial_distribution(sub, g, plan.tau0)
    zero = exact_sum_distribution(layers, init, 0)
    assert zero.mass() == 1
    assert all(s == 0 for (_, s) in zero.table)
    for n in (1, 4, 8):
        dist = exact_sum_distribution(layers, init, n)
        assert dist.mass() == 1
        assert dist.mean() == 0  # zero-mean at every step for eigenvalue 1


def test_exact_distribution_support_cap(twist2, monkeypatch):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 30)
    init = initial_distribution(sub, g, plan.tau0)
    monkeypatch.setattr(limitdist, "MAX_SLOTS", 50)
    with pytest.raises(SupportCapExceeded) as err:
        exact_sum_distribution(layers, init, 30)
    assert 0 < err.value.reached_n <= 30


def test_exact_distribution_packed_bits_bound(twist2, monkeypatch):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 30)
    init = initial_distribution(sub, g, plan.tau0)
    full = exact_sum_distribution(layers, init, 30)
    monkeypatch.setattr(limitdist, "MAX_PACKED_BITS", 4000)
    with pytest.raises(PackedBitsExceeded, match="past the bound of 4000") as err:
        exact_sum_distribution(layers, init, 30)
    assert 0 < err.value.reached_n <= 30 and err.value.bits > 4000
    # the bound counts the packed ints at their width for the whole horizon
    width = 8 * -(-(full.denominator.bit_length()) // 8)
    assert len(full.table) * width > 4000


def test_exact_checkpoints_are_prefixes(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 6)
    init = initial_distribution(sub, g, plan.tau0)
    snaps = exact_sum_distribution(layers, init, 6, checkpoints=(2, 6))
    direct2 = exact_sum_distribution(layers, init, 2)
    assert snaps[0].sum_marginal() == direct2.sum_marginal()


def _support_bounds(dist):
    """Least and greatest sum of an exact law, as Fractions."""
    sums = [s for _, s in dist.table]
    return Fraction(min(sums), dist.lattice), Fraction(max(sums), dist.lattice)


def _restricted(dist, states):
    """The exact law with the mass off ``states`` dropped."""
    table = {(q, s): num for (q, s), num in dist.table.items() if q in states}
    return dataclasses.replace(dist, table=table)


def _start_on(layers, indices):
    """The uniform initial law on the given state indices of the first layer."""
    states = layers[0].states
    return InitialDistribution({states[i]: Fraction(1, len(indices)) for i in indices})


def _diagonal_start(layers):
    """The synchronized states only: the class where the payoff is a potential
    difference, so the law keeps a bounded support."""
    return _start_on(layers, [i for i, (a, v) in enumerate(layers[0].states) if v[0] == a])


def test_coboundary_only_start_has_bounded_support(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(1))
    layers = layer_chains(sub, g, plan, 40)
    diag = _diagonal_start(layers)
    diameters = set()
    for n in (10, 20, 40):
        lo, hi = _support_bounds(exact_sum_distribution(layers, diag, n))
        diameters.add(hi - lo)
    assert len(diameters) == 1


# the slot count of every step, as a count at every step would raise it


def _slot_counts(layers, init, n):
    """(slot count after each step 1..n, slot width) of the packed law,
    recounted from the law itself: slot 0 holds the least sum of the whole
    law, and a state with mass fills the slots up to its greatest sum."""
    snaps = exact_sum_distribution(layers, init, n, checkpoints=range(1, n + 1))
    lattice = snaps[-1].lattice
    spacing = 0
    for chain in layers[:n]:
        pays = [e.payoff * lattice for group in chain.edges for e in group]
        spacing = math.gcd(spacing, *(int(p - min(pays)) for p in pays))
    counts = []
    for snap in snaps:
        low = min(s for _, s in snap.table)
        top = {}
        for q, s in snap.table:
            top[q] = max(top.get(q, s), s)
        counts.append(sum((s - low) // (spacing or 1) + 1 for s in top.values()))
    # the widest slot value is the initial mass times every step's d
    return counts, 8 * -(-snaps[-1].denominator.bit_length() // 8)


SLOT_CASES = {
    "twist2-3/2": ("twist2", Fraction(3, 2), 30),
    "twist2-random": ("twist2", RandomDigitStream(3, 5), 40),
    "twist2-diagonal": ("twist2:diagonal", Fraction(1), 40),
    "sync3-1": ("sync3", Fraction(1), 60),
    "twist2half-random": ("twist2half", RandomDigitStream(3, 7), 30),
}


@pytest.fixture(scope="module")
def slot_counts(request):
    """Layers, initial law, horizon, recounted slot counts and slot width
    per case."""
    out = {}
    for case, (name, t, n) in SLOT_CASES.items():
        layers, init = _law_inputs(request, name, t, n)
        out[case] = (layers, init, n, *_slot_counts(layers, init, n))
    return out


def _raised(layers, init, n, max_slots=None):
    """The error of an exact law to n, or None; ``limitdist.MAX_SLOTS`` reads
    ``max_slots`` during the call when that is given."""
    with pytest.MonkeyPatch.context() as patch:
        if max_slots is not None:
            patch.setattr(limitdist, "MAX_SLOTS", max_slots)
        try:
            exact_sum_distribution(layers, init, n)
        except (SupportCapExceeded, PackedBitsExceeded) as err:
            return err
    return None


@pytest.mark.parametrize("case", SLOT_CASES)
def test_bound_errors_name_the_first_step_past_the_bound(slot_counts, monkeypatch, case):
    layers, init, n, counts, width = slot_counts[case]
    # just below the first step's count, and just below the largest count
    caps = [counts[0] - 1, max(counts) - 1]
    if counts[-1] > max(counts[:-1]):
        caps.append(max(counts[:-1]))  # only the last step passes
    for cap in caps:
        k = next(k for k, c in enumerate(counts, start=1) if c > cap)
        err = _raised(layers, init, n, max_slots=cap)
        assert isinstance(err, SupportCapExceeded)
        assert (err.reached_n, err.size) == (k, counts[k - 1])
        for extra in (0, width - 1):
            monkeypatch.setattr(limitdist, "MAX_PACKED_BITS", cap * width + extra)
            err = _raised(layers, init, n)
            assert isinstance(err, PackedBitsExceeded)
            assert (err.reached_n, err.bits) == (k, counts[k - 1] * width)
        monkeypatch.undo()
    assert _raised(layers, init, n, max_slots=max(counts)) is None
    monkeypatch.setattr(limitdist, "MAX_PACKED_BITS", max(counts) * width)
    assert _raised(layers, init, n) is None


def test_bound_errors_cover_the_first_and_last_step(slot_counts):
    # the recounts above reach both ends of a horizon
    layers, init, n, counts, _ = slot_counts["twist2-3/2"]
    assert counts[-1] > max(counts[:-1])
    assert _raised(layers, init, n, max_slots=counts[0] - 1).reached_n == 1
    assert _raised(layers, init, n, max_slots=max(counts[:-1])).reached_n == n


@given(st.data())
def test_bound_errors_match_a_count_at_every_step(slot_counts, data):
    layers, init, n, counts, _ = slot_counts[data.draw(st.sampled_from(sorted(SLOT_CASES)))]
    cap = data.draw(st.integers(0, max(counts)))
    k = next((k for k, c in enumerate(counts, start=1) if c > cap), None)
    err = _raised(layers, init, n, max_slots=cap)
    if k is None:
        assert err is None
    else:
        assert (type(err), err.reached_n, err.size) == (SupportCapExceeded, k, counts[k - 1])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_deterministic(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 10)
    init = initial_distribution(sub, g, plan.tau0)
    a = monte_carlo(layers, init, 10, 500, seed=4)
    b = monte_carlo(layers, init, 10, 500, seed=4)
    assert np.array_equal(a.scaled, b.scaled)
    assert np.array_equal(a.final_states, b.final_states)
    c = monte_carlo(layers, init, 10, 500, seed=5)
    assert not np.array_equal(a.scaled, c.scaled)


def test_monte_carlo_matches_exact(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 6)
    init = initial_distribution(sub, g, plan.tau0)
    dist = exact_sum_distribution(layers, init, 6)
    sample = monte_carlo(layers, init, 6, 10**5, seed=42)
    assert ks_exact_vs_sample(dist, sample) <= 3 / math.sqrt(10**5)


def test_monte_carlo_zero_mean(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 50)
    init = initial_distribution(sub, g, plan.tau0)
    sample = monte_carlo(layers, init, 50, 10**5, seed=2)
    sigma = float(np.std(sample.values))
    assert abs(float(np.mean(sample.values))) <= 5 * sigma / math.sqrt(len(sample))


# ---------------------------------------------------------------------------
# reference engines: both laws stepped edge by edge from the ChainGraph, with
# Fraction probabilities (exact) and the base-d digits of one bounded integer
# per block of steps (Monte Carlo)
# ---------------------------------------------------------------------------


def _reference_lattice(layers):
    lattice = 1
    for chain in layers:
        for group in chain.edges:
            for e in group:
                den = e.payoff.denominator
                lattice = lattice * den // math.gcd(lattice, den)
    return lattice


def _reference_exact(layers, init, n, checkpoints):
    """(n, lattice, denominator, table) at each checkpoint."""
    lattice = _reference_lattice(layers[:n])
    init_idx = initial_state_indices(layers[0], init)
    denom = 1
    for p in init_idx.values():
        denom = denom * p.denominator // math.gcd(denom, p.denominator)
    table = {(q, 0): int(p * denom) for q, p in init_idx.items() if p}
    snaps = [(0, lattice, denom, dict(table))] if 0 in checkpoints else []
    for k in range(1, n + 1):
        chain = layers[k - 1]
        step_denom = 1
        for group in chain.edges:
            for e in group:
                step_denom = step_denom * e.prob.denominator // math.gcd(
                    step_denom, e.prob.denominator
                )
        new = {}
        for (q, s), num in table.items():
            for e in chain.edges[q]:
                weight = num * int(e.prob * step_denom)
                key = (e.target, s + int(e.payoff * lattice))
                new[key] = new.get(key, 0) + weight
        denom *= step_denom
        table = new
        if k in checkpoints:
            snaps.append((k, lattice, denom, table))
    return snaps


def _block_steps(d):
    """Steps per Monte Carlo block: the largest k with d**k <= 256, at least 1."""
    k = 1
    while d ** (k + 1) <= 256:
        k += 1
    return k


def _code_type(w):
    """The word of a block's draws: uint16, or uint32 once w > 2**16."""
    return np.dtype(np.uint16 if w <= 2**16 else np.uint32)


def _reference_monte_carlo(layers, init, n, samples, seed):
    """(scaled sums, final states) after n steps: every block of k steps
    draws one 16-bit integer below d**k per sample, and step j of the block
    takes the edge of the integer's j-th base-d digit, the leading digit
    first."""
    lattice = _reference_lattice(layers[:n])
    rng = np.random.default_rng(seed)
    init_idx = initial_state_indices(layers[0], init)
    states_list = sorted(init_idx)
    probs = np.array([float(init_idx[s]) for s in states_list])
    probs /= probs.sum()
    draws = rng.random(samples)
    states = np.array(states_list, dtype=np.int64)[np.searchsorted(np.cumsum(probs), draws)]
    sums = np.zeros(samples, dtype=np.int64)
    d = len(layers[0].edges[0])
    k = _block_steps(d)
    w = d**k
    for step, chain in enumerate(layers[:n]):
        if step % k == 0:
            block = rng.integers(0, w, samples, dtype=_code_type(w)).astype(np.int64)
        digits = block // d ** (k - 1 - step % k) % d
        target = np.array([[e.target for e in group] for group in chain.edges], dtype=np.int64)
        pay = np.array(
            [[int(e.payoff * lattice) for e in group] for group in chain.edges], dtype=np.int64
        )
        states, sums = target[states, digits], sums + pay[states, digits]
    return sums, states


def _law_inputs(request, name, t, n):
    """Layers and start of a case; ``<fixture>:diagonal`` starts on the
    synchronized states of that fixture's substitution."""
    name, _, start = name.partition(":")
    sub, g = request.getfixturevalue(name)
    plan = time_expansion(sub, t)
    layers = layer_chains(sub, g, plan, n)
    if start == "diagonal":
        return layers, _diagonal_start(layers)
    return layers, initial_distribution(sub, g, plan.tau0)


@pytest.fixture(scope="module")
def twist5():
    """1 -> 11212, 2 -> 22121: d = 5, so a Monte Carlo block is 3 steps."""
    sub = parse_substitution("1: 11212\n2: 22121")
    return sub, eigenvector_for(matrix_of(sub), 1)


@pytest.fixture(scope="module")
def twist2half():
    """twist2 with gamma = (1/2, -1/2): digit 1 layers pay halves, digits 0
    and 2 integers, so the layer lattices differ."""
    sub = parse_substitution("1: 112\n2: 221")
    return sub, WeightVector((Fraction(1, 2), Fraction(-1, 2)), Fraction(1))


@pytest.fixture(scope="module")
def twist7():
    """1 -> 1112122, 2 -> 2221211: d = 7, with seven distinct layers."""
    sub = parse_substitution("1: 1112122\n2: 2221211")
    return sub, eigenvector_for(matrix_of(sub), 1)


ORACLE_CASES = [
    ("twist2", RandomDigitStream(3, 5), 64, (16, 32, 64)),
    ("twist2", RandomDigitStream(3, 2024), 64, (16, 32, 64)),
    ("sync3", Fraction(3, 2), 100, ()),
    # the bench's narrow exact-law ops, plus a step-0 snapshot
    ("sync3", Fraction(1), 400, (0, 100, 200, 400)),
    ("sync3", Fraction(3, 2), 400, (0, 100, 200, 400)),
    # the horizons of mixture_prediction's atom window at t = 1 and 7/3
    ("twist2", Fraction(1), 64, ()),
    ("twist2", Fraction(7, 3), 65, ()),
    ("twist5", Fraction(3, 2), 60, (0, 30, 60)),
    ("twist7", RandomDigitStream(7, 3), 30, (1, 15, 30)),
    # bounded support, so the packed ints are trimmed at every step
    ("twist2:diagonal", Fraction(1), 200, (0, 100, 200)),
    ("twist2half", RandomDigitStream(3, 7), 40, (1, 20, 40)),
]


@pytest.mark.parametrize("name, t, n, checkpoints", ORACLE_CASES)
def test_exact_matches_reference(request, name, t, n, checkpoints):
    layers, init = _law_inputs(request, name, t, n)
    got = exact_sum_distribution(layers, init, n, checkpoints=checkpoints)
    snaps = got if checkpoints else [got]
    assert [(s.n, s.lattice, s.denominator, s.table) for s in snaps] == _reference_exact(
        layers, init, n, checkpoints or (n,)
    )


# the SumDistribution accessors as one Fraction per table entry


def _reference_sum_marginal(dist):
    out = {}
    for (_, s), num in dist.table.items():
        out[s] = out.get(s, Fraction(0)) + Fraction(num, dist.denominator)
    return dict(sorted(out.items()))


def _reference_state_marginal(dist):
    out = {}
    for (q, _), num in dist.table.items():
        out[q] = out.get(q, Fraction(0)) + Fraction(num, dist.denominator)
    return out


def _reference_mean(dist):
    acc = Fraction(0)
    for (_, s), num in dist.table.items():
        acc += Fraction(num, dist.denominator) * Fraction(s, dist.lattice)
    return acc


def _reference_variance(dist):
    mean = _reference_mean(dist)
    acc = Fraction(0)
    for (_, s), num in dist.table.items():
        acc += Fraction(num, dist.denominator) * (Fraction(s, dist.lattice) - mean) ** 2
    return acc


@pytest.mark.parametrize("name, t, n, checkpoints", ORACLE_CASES)
def test_accessors_match_fraction_loops(request, name, t, n, checkpoints):
    layers, init = _law_inputs(request, name, t, n)
    got = exact_sum_distribution(layers, init, n, checkpoints=checkpoints)
    for full in got if checkpoints else [got]:
        # a restriction has mass below 1, which the variance must account for
        half = _restricted(full, set(range(0, len(layers[0].states), 2)))
        for dist in (full, half):
            assert dist.sum_marginal() == _reference_sum_marginal(dist)
            marginal = dist.state_marginal()
            assert list(marginal.items()) == list(_reference_state_marginal(dist).items())
            assert dist.mean() == _reference_mean(dist)
            assert dist.variance() == _reference_variance(dist)


@pytest.mark.parametrize(
    "engine",
    [
        lambda layers, init: exact_sum_distribution(layers, init, 2),
        lambda layers, init: monte_carlo(layers, init, 2, samples=100, seed=0),
        lambda layers, init: _moment_variances(layers, init, [1, 2]),
    ],
    ids=["exact", "monte_carlo", "moments"],
)
def test_engines_reject_negative_initial_mass(twist2, engine):
    # a negative numerator would borrow across the packed slots of the exact
    # law, and would give Monte Carlo and the moments a signed "law"
    sub, g = twist2
    layers = layer_chains(sub, g, time_expansion(sub, Fraction(1)), 2)
    states = layers[0].states
    init = InitialDistribution({states[0]: Fraction(3, 2), states[1]: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="nonnegative"):
        engine(layers, init)


@pytest.mark.parametrize("checkpoint", [11, -1])
@pytest.mark.parametrize(
    "engine",
    [
        lambda layers, init, c: exact_sum_distribution(layers, init, 10, checkpoints=[c]),
        lambda layers, init, c: monte_carlo(layers, init, 10, 5, 0, checkpoints=[4, c]),
    ],
    ids=["exact", "monte_carlo"],
)
def test_engines_reject_checkpoints_outside_the_horizon(twist2, engine, checkpoint):
    # such a checkpoint used to be dropped: no snapshot and no error
    sub, g = twist2
    layers = layer_chains(sub, g, time_expansion(sub, Fraction(1)), 10)
    init = initial_distribution(sub, g, 1)
    with pytest.raises(ValueError, match=rf"checkpoint {checkpoint} outside the steps 0\.\.10"):
        engine(layers, init, checkpoint)


@pytest.fixture(scope="module")
def twist301():
    """A3's twist with k = 150: d = 301 > MAX_CHUNK_WIDTH, so every Monte
    Carlo block is one step of 301 edge codes."""
    image = [0] * 151 + [1] * 150
    sub = Substitution.from_words([image, [1 - x for x in image]])
    return sub, eigenvector_for(matrix_of(sub), 1)


# blocks are 8 steps for d = 2, 5 for d = 3, 3 for d = 5 and 2 for d = 7
MC_ORACLE_CASES = [
    pytest.param("twist2", Fraction(1), 60, (0, 6, 60), id="twist2-t0"),
    pytest.param("twist2", Fraction(7, 3), 60, (0, 6, 60), id="twist2-t1"),
    pytest.param("twist2", RandomDigitStream(3, 11), 60, (0, 6, 60), id="twist2-t2"),
    pytest.param("sync3", Fraction(7, 4), 60, (0, 6, 60), id="sync3-t3"),
    pytest.param("twist5", Fraction(3, 2), 60, (0, 6, 60), id="twist5-t4"),
    pytest.param("sync3", RandomDigitStream(2, 8), 60, (0, 6, 60), id="sync3-random"),
    pytest.param("twist7", RandomDigitStream(7, 3), 60, (0, 6, 60), id="twist7-random"),
    # the layers of one block have different lattices
    pytest.param("twist2half", RandomDigitStream(3, 7), 60, (0, 6, 60), id="twist2half-random"),
    # checkpoints that cut blocks short
    pytest.param("twist2", RandomDigitStream(3, 5), 60, (0, 1, 7, 9, 60), id="twist2-cut"),
    pytest.param("sync3", Fraction(5, 3), 60, (0, 1, 7, 9, 60), id="sync3-cut"),
    # a horizon shorter than one block
    pytest.param("sync3", Fraction(7, 4), 3, (0, 1, 3), id="sync3-n3"),
    pytest.param("twist301", Fraction(3, 2), 20, (0, 1, 20), id="twist301"),
]


@pytest.mark.parametrize("name, t, n, checkpoints", MC_ORACLE_CASES)
def test_monte_carlo_matches_reference_per_seed(request, name, t, n, checkpoints):
    layers, init = _law_inputs(request, name, t, n)
    sample = monte_carlo(layers, init, n, 3000, seed=17)
    scaled, states = _reference_monte_carlo(layers, init, n, 3000, seed=17)
    assert np.array_equal(sample.scaled, scaled)
    assert np.array_equal(sample.final_states, states)
    snaps = monte_carlo(layers, init, n, 3000, seed=17, checkpoints=checkpoints)
    assert [snap.n for snap in snaps] == list(checkpoints)
    for snap in snaps:
        scaled, states = _reference_monte_carlo(layers, init, snap.n, 3000, seed=17)
        lattice = _reference_lattice(layers[: snap.n])
        assert np.array_equal(snap.scaled * lattice, scaled * snap.lattice)
        assert np.array_equal(snap.final_states, states)


FEW_SAMPLE_CASES = ("twist2-t2", "sync3-random", "twist2-cut", "twist7-random", "twist301")


@pytest.mark.parametrize("samples", [10, 100])
@pytest.mark.parametrize(
    "name, t, n, checkpoints",
    [c for c in MC_ORACLE_CASES if c.id in FEW_SAMPLE_CASES],
)
def test_monte_carlo_matches_reference_at_few_samples(request, name, t, n, checkpoints, samples):
    # fewer samples than a composed (states, w) table has entries
    layers, init = _law_inputs(request, name, t, n)
    snaps = monte_carlo(layers, init, n, samples, seed=5, checkpoints=checkpoints)
    for snap in snaps:
        scaled, states = _reference_monte_carlo(layers, init, snap.n, samples, seed=5)
        lattice = _reference_lattice(layers[: snap.n])
        assert np.array_equal(snap.scaled * lattice, scaled * snap.lattice)
        assert np.array_equal(snap.final_states, states)


def _scaled_gamma_layers(twist2, scale, n):
    sub, g = twist2
    gamma = WeightVector(tuple(v * scale for v in g.values), g.theta)
    plan = time_expansion(sub, Fraction(1))
    return layer_chains(sub, gamma, plan, n), initial_distribution(sub, gamma, plan.tau0)


@pytest.mark.parametrize("scale", [2**58, 2**62])
def test_monte_carlo_rejects_sums_beyond_int64(twist2, scale):
    layers, init = _scaled_gamma_layers(twist2, scale, 200)
    with pytest.raises(ValueError, match="int64"):
        monte_carlo(layers, init, 200, 2000, seed=1)


def test_monte_carlo_int64_guard_leaves_unit_gamma_alone(twist2):
    layers, init = _scaled_gamma_layers(twist2, 1, 200)
    sample = monte_carlo(layers, init, 200, 2000, seed=1)
    scaled, _ = _reference_monte_carlo(layers, init, 200, 2000, seed=1)
    assert np.array_equal(sample.scaled, scaled)


def test_monte_carlo_initial_draw_below_one_picks_last_state(monkeypatch):
    # the float CDF of this initial law ends at 1 - 2**-52, below the
    # largest uniform draw 1 - 2**-53
    sub = parse_substitution("1: 1112122\n2: 2221211")
    gamma = eigenvector_for(matrix_of(sub), 1)
    plan = time_expansion(sub, Fraction(5, 2))
    assert plan.tau0 == 2
    layers = layer_chains(sub, gamma, plan, 3)
    init = initial_distribution(sub, gamma, plan.tau0)
    probs = np.array([float(p) for _, p in sorted(initial_state_indices(layers[0], init).items())])
    probs /= probs.sum()
    assert np.cumsum(probs)[-1] < np.nextafter(1.0, 0.0)

    class TopDraws:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

        def integers(self, low, high, size, dtype):
            return np.full(size, high - 1, dtype=dtype)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
    snaps = monte_carlo(layers, init, 3, 5, seed=0, checkpoints=(0, 3))
    assert snaps[0].final_states.tolist() == [max(initial_state_indices(layers[0], init))] * 5
    assert len(snaps[1]) == 5


@pytest.mark.parametrize(
    "name, t",
    [
        ("twist2", RandomDigitStream(3, 5)),
        ("twist7", RandomDigitStream(7, 3)),
        ("sync3", Fraction(7, 4)),
        ("twist301", Fraction(3, 2)),
    ],
)
def test_monte_carlo_walks_every_block_code(request, monkeypatch, name, t):
    # each block draws one integer below w = d**k per sample; with w samples
    # and a new rotation per block, every path meets every code of every block
    layers, init = _law_inputs(request, name, t, 12)
    d = len(layers[0].edges[0])
    k = _block_steps(d)
    w = d**k
    made = []

    class CodeDraws:
        def __init__(self):
            self.calls = []
            made.append(self)

        def random(self, size):
            return np.linspace(0.0, 1.0, size, endpoint=False)

        def integers(self, low, high, size, dtype):
            self.calls.append((low, high, np.dtype(dtype)))
            codes = np.arange(high, dtype=dtype)
            return np.resize(np.roll(codes, len(self.calls)), size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: CodeDraws())
    sample = monte_carlo(layers, init, 12, w, seed=0)
    assert made[0].calls == [(0, w, np.dtype(np.uint16))] * -(-12 // k)
    scaled, states = _reference_monte_carlo(layers, init, 12, w, seed=0)
    assert np.array_equal(sample.scaled, scaled)
    assert np.array_equal(sample.final_states, states)


@pytest.mark.parametrize("name, t, n, checkpoints", MC_ORACLE_CASES)
def test_monte_carlo_checkpoints_equal_runs_to_that_horizon(request, name, t, n, checkpoints):
    layers, init = _law_inputs(request, name, t, n)
    snaps = monte_carlo(layers, init, n, 500, seed=23, checkpoints=checkpoints)
    for snap in snaps:
        alone = monte_carlo(layers, init, snap.n, 500, seed=23)
        assert np.array_equal(snap.scaled * alone.lattice, alone.scaled * snap.lattice)
        assert np.array_equal(snap.final_states, alone.final_states)


@pytest.fixture(scope="module")
def every_step_snapshots(twist2half):
    """Snapshots after every step of a 30-step run whose blocks mix lattices."""
    sub, g = twist2half
    plan = time_expansion(sub, RandomDigitStream(3, 7))
    layers = layer_chains(sub, g, plan, 30)
    init = initial_distribution(sub, g, plan.tau0)
    return layers, init, monte_carlo(layers, init, 30, 200, seed=31, checkpoints=range(31))


@given(st.sets(st.integers(0, 30), min_size=1))
def test_monte_carlo_samples_do_not_depend_on_the_checkpoints(every_step_snapshots, checkpoints):
    layers, init, every = every_step_snapshots
    snaps = monte_carlo(layers, init, 30, 200, seed=31, checkpoints=sorted(checkpoints))
    for snap in snaps:
        assert np.array_equal(snap.scaled, every[snap.n].scaled)
        assert np.array_equal(snap.final_states, every[snap.n].final_states)


def test_monte_carlo_rejects_layers_with_different_d(twist2, sync3):
    layers = [
        layer_chains(sub, g, time_expansion(sub, Fraction(1)), 1)[0] for sub, g in (twist2, sync3)
    ]
    with pytest.raises(ValueError, match="edge count"):
        monte_carlo(layers, _start_on(layers, [0]), 2, 10, seed=0)


def test_engines_reject_layers_without_d_equal_edges(twist2):
    sub, g = twist2
    layer = layer_chains(sub, g, time_expansion(sub, Fraction(1)), 1)[0]
    merged = compose(layer, layer)  # parallel edges merge: fewer than 9, unequal
    assert any(len(group) < 9 for group in merged.edges)
    init = _start_on([merged], [0])
    with pytest.raises(ValueError):
        exact_sum_distribution([merged], init, 1)
    with pytest.raises(ValueError):
        monte_carlo([merged], init, 1, 10, seed=0)


def test_engines_need_a_layer_even_at_step_0(twist2):
    sub, g = twist2
    init = initial_distribution(sub, g, 1)
    with pytest.raises(ValueError, match="not enough layers"):
        exact_sum_distribution([], init, 0)
    with pytest.raises(ValueError, match="not enough layers"):
        monte_carlo([], init, 0, 10, seed=0)


def test_ks_exact_vs_sample_rejects_lattice_mismatch(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 2)
    init = initial_distribution(sub, g, plan.tau0)
    dist = exact_sum_distribution(layers, init, 2)
    sample = monte_carlo(layers, init, 2, 100, seed=0)
    with pytest.raises(ValueError):
        ks_exact_vs_sample(dist, dataclasses.replace(sample, lattice=2 * sample.lattice))


# ---------------------------------------------------------------------------
# the word / chain identity
# ---------------------------------------------------------------------------


def test_word_vs_chain_basic(twist2, sync3):
    sub, g = twist2
    for seed in range(5):
        disc = word_vs_chain_check(sub, g, Fraction(1, 2), 8, seed)
        assert disc <= 3 * g.max_abs
    sub3, g3 = sync3
    for seed in range(5):
        disc = word_vs_chain_check(sub3, g3, Fraction(1), 9, seed)
        assert disc <= 3 * g3.max_abs


def test_word_vs_chain_n_zero(twist2):
    sub, g = twist2
    assert word_vs_chain_check(sub, g, Fraction(5, 2), 0, 3) <= 3 * g.max_abs


def test_word_vs_chain_rejects_non_eigenvector(twist2):
    # the identity check must hold under python -O too, where asserts vanish
    sub, _ = twist2
    gamma = WeightVector((Fraction(1), Fraction(0)), Fraction(1))
    with pytest.raises(ValueError, match="chain sum must equal the window sum"):
        word_vs_chain_check(sub, gamma, Fraction(3, 2), 6, 1)


def test_word_vs_chain_finite_expansion_bounded(sync3):
    # with a finite expansion the chain sums themselves stay bounded
    sub, g = sync3
    discs = [word_vs_chain_check(sub, g, Fraction(1), n, seed=1) for n in range(1, 10)]
    assert all(d <= 3 * g.max_abs for d in discs)


# ---------------------------------------------------------------------------
# variance growth, mixtures, goodness of fit
# ---------------------------------------------------------------------------


def test_variance_growth_homogeneous(twist2):
    sub, g = twist2
    rep = variance_growth(sub, g, Fraction(3, 2), n_values=(50, 100, 200))
    assert 0.9 <= rep.slope <= 1.02
    # V_n <= (max payoff)^2 n crude bound
    assert all(v <= 25 * n for v, n in zip(rep.variances, (50, 100, 200)))


def test_variance_growth_methods_agree(twist2):
    # the exact moment recursion against the variance of a Monte Carlo sample
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 80)
    init = initial_distribution(sub, g, plan.tau0)
    exact = _moment_variances(layers, init, (40, 80))
    snaps = monte_carlo(layers, init, 80, 10**5, 9, checkpoints=(40, 80))
    for ve, snap in zip(exact, snaps):
        assert abs(float(ve) - np.var(snap.values)) / float(ve) < 0.05


def test_variance_rate_converges_to_class_variance(twist2):
    # for a periodic stream on a single aperiodic class, V_n / n approaches
    # the exact per-step variance of the class (4/3 here)
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 200)
    init = initial_distribution(sub, g, plan.tau0)
    dist = exact_sum_distribution(layers, init, 200)
    assert abs(dist.variance() / 200 - Fraction(4, 3)) < Fraction(1, 100)


def test_variance_growth_coboundary(sync3):
    sub, g = sync3
    rep = variance_growth(sub, g, Fraction(1), n_values=(5, 10, 20, 40))
    assert abs(rep.slope) < 0.05
    assert max(rep.variances) - min(rep.variances) < 0.1


@pytest.mark.parametrize(
    "name, t, n_values",
    [
        ("twist2", Fraction(3, 2), (25, 50, 100, 200)),
        ("twist2", Fraction(1), (25, 50, 100, 200)),
        ("twist2", RandomDigitStream(3, 5), (16, 32, 64, 128)),
        ("twist2", RandomDigitStream(3, 5000), (25, 50, 100, 200)),
        ("sync3", Fraction(3, 2), (10, 40, 100, 200)),
        ("sync3", Fraction(1), (5, 10, 20, 40)),
    ],
)
def test_moment_variances_match_exact_law(request, name, t, n_values):
    # the moment recursion gives the very Fractions of the full (state, sum)
    # law, so variance_growth reports the floats SumDistribution.variance gives
    layers, init = _law_inputs(request, name, t, n_values[-1])
    snaps = exact_sum_distribution(layers, init, n_values[-1], checkpoints=n_values)
    law = [s.variance() for s in snaps]
    assert _moment_variances(layers, init, n_values) == law
    sub, g = request.getfixturevalue(name)
    rep = variance_growth(sub, g, t, n_values=n_values)
    assert rep.variances == tuple(float(v) for v in law)


@pytest.mark.parametrize(
    "text, t, n_values",
    [
        ("1: 112\n2: 221", Fraction(3, 2), (10**3, 10**4)),
        ("1: 112\n2: 221", Fraction(1), (10**3, 10**4)),
        ("1: 1112122\n2: 2221211", Fraction(3, 2), (10**3, 2 * 10**3)),
    ],
    ids=["twist2-3/2", "twist2-1", "twist7-3/2"],
)
def test_variance_grows_at_the_mixture_rate(text, t, n_values):
    # Theorem fluctuations-periodic: V_n = n sum_k p_k sigma_k^2 + O(1); the
    # gap settles to a constant (not pinned here until it is identified)
    sub = parse_substitution(text)
    g = eigenvector_for(matrix_of(sub), 1)
    mix = mixture_prediction(sub, g, t)
    rate = float(sum(c.weight * c.variance_per_step for c in mix.components))
    assert rate > 0
    rep = variance_growth(sub, g, t, n_values=n_values)
    gaps = [v - n * rate for n, v in zip(n_values, rep.variances)]
    assert abs(gaps[1] - gaps[0]) < 1e-9


@pytest.mark.parametrize("n_values", [(7, 7), (40,), (0, 5), (-3, 5)])
def test_variance_growth_rejects_bad_horizons(twist2, n_values):
    sub, g = twist2
    with pytest.raises(ValueError, match="horizon"):
        variance_growth(sub, g, Fraction(3, 2), n_values=n_values)


def test_variance_growth_rejects_unmeasured_slope():
    # 1 -> 121, 2 -> 212 is 2-periodic and gamma = (1, -1) a coboundary: at
    # t = 1 the exact V_n is 0 at every n, so there is no slope to fit
    sub = parse_substitution("1: 121\n2: 212")
    g = eigenvector_for(matrix_of(sub), 1)
    with pytest.raises(ValueError, match="positive variance"):
        variance_growth(sub, g, Fraction(1), n_values=(5, 10))


def test_law_engines_need_eigenvalue_one(twist2):
    # the layer payoffs assume gamma(sigma(w)) = gamma(w): for theta = -1 the
    # chain sum already leaves the window sum at n = 2
    minus = parse_substitution("1: 122\n2: 211")
    g_minus = eigenvector_for(matrix_of(minus), -1)
    with pytest.raises(ValueError, match="chain sum must equal the window sum"):
        word_vs_chain_check(minus, g_minus, Fraction(3, 2), 2, seed=0)
    sub, _ = twist2
    g_three = eigenvector_for(matrix_of(sub), 3)
    # gamma = (1, 0) claims eigenvalue 1 but gamma(sigma(1)) = 2; the digit
    # automata accept any gamma, and the exact law of its layers at t = 3/2
    # and n = 20 had mean 30 where an eigenvector gives 0
    g_claimed = WeightVector((Fraction(1), Fraction(0)), Fraction(1))
    g_long = WeightVector((Fraction(1), Fraction(-1), Fraction(0)), Fraction(1))
    for s, g, message in (
        (minus, g_minus, "needs eigenvalue 1; gamma has eigenvalue -1"),
        (sub, g_three, "needs eigenvalue 1; gamma has eigenvalue 3"),
        (sub, g_claimed, r"not an eigenvector for 1: gamma\(sigma\(1\)\) != 1"),
        (sub, g_long, "one value per letter"),
    ):
        plan = time_expansion(s, Fraction(3, 2))
        with pytest.raises(ValueError, match=message):
            layer_chains(s, g, plan, 4)
        with pytest.raises(ValueError, match=message):
            mixture_prediction(s, g, plan)
        with pytest.raises(ValueError, match=message):
            variance_growth(s, g, plan, n_values=(2, 4))


def test_time_expansion_needs_constant_length():
    # d read from the first image alone made 1: 112; 2: 12212 a base-3
    # stream, and word_vs_chain_check then failed on the window length
    sub = parse_substitution("1: 112\n2: 12212")
    g = eigenvector_for(matrix_of(sub), 1)
    with pytest.raises(ValueError, match="constant-length substitution"):
        time_expansion(sub, Fraction(3, 2))
    with pytest.raises(ValueError, match="constant-length substitution"):
        word_vs_chain_check(sub, g, Fraction(3, 2), 3, seed=0)


def test_mixture_prediction_cases(twist2, sync3):
    sub, g = twist2
    mix = mixture_prediction(sub, g, Fraction(1))
    assert mix.p0 == Fraction(1, 2)
    ((weight, var),) = [(c.weight, c.variance_per_step) for c in mix.components]
    assert weight == Fraction(1, 2) and var == Fraction(8, 3)
    assert mix.dirac_window == (Fraction(-2), Fraction(2))

    pure = mixture_prediction(sub, g, Fraction(3, 2))
    assert pure.p0 == 0 and len(pure.components) == 1
    assert pure.components[0].variance_per_step == Fraction(4, 3)

    allcob = mixture_prediction(*sync3, Fraction(1))
    assert allcob.p0 == 1 and not allcob.components


def test_mixture_prediction_rejects_random_stream(twist2):
    sub, g = twist2
    with pytest.raises(ValueError):
        mixture_prediction(sub, g, RandomDigitStream(3, 1))


def test_mixture_prediction_multi_digit_period(twist2):
    # period (1, 2): the composed two-layer chain drives the limit law
    sub, g = twist2
    stream = DigitStream(3, (), (1, 2))
    mix = mixture_prediction(sub, g, stream)
    assert mix.p0 + sum(c.weight for c in mix.components) == 1
    for comp in mix.components:
        assert comp.variance_per_step > 0


HALF = (Fraction(1, 2), Fraction(-1, 2))
# twist2's mixture laws as the code that built the atom window from a second
# set of digit automata gave them: (gamma, t, p0, components as (weight,
# variance per step, states, lattice step), atom states, window, lattice)
MIXTURE_PINS = {
    "t1": (None, Fraction(1), Fraction(1, 2), [(Fraction(1, 2), Fraction(8, 3), {2, 3, 4, 5}, 2)],
           {0, 1, 6, 7}, (-2, 2), 1),
    "t3/2": (None, Fraction(3, 2), 0, [(1, Fraction(4, 3), set(range(8)), 1)], set(), None, 1),
    "t7/3": (None, Fraction(7, 3), Fraction(1, 2),
             [(Fraction(1, 2), Fraction(8, 3), {2, 3, 4, 5}, 2)], {0, 1, 6, 7}, (-3, 3), 1),
    "t4/3": (None, Fraction(4, 3), Fraction(5, 9),
             [(Fraction(4, 9), Fraction(8, 3), {2, 3, 4, 5}, 2)], {0, 1, 6, 7}, (-3, 3), 1),
    "half-t7/3": (HALF, Fraction(7, 3), Fraction(1, 2),
                  [(Fraction(1, 2), Fraction(2, 3), {2, 3, 4, 5}, 1)], {0, 1, 6, 7},
                  (Fraction(-3, 2), Fraction(3, 2)), 1),
    "half-pre12-per001": (HALF, DigitStream(3, (1, 2), (0, 0, 1), tau0=2), 0,
                          [(1, Fraction(1, 3), set(range(8)), 1)], set(), None, 2),
    # layers on halves whose composed payoffs are integers: the lattice step
    # counts in halves
    "half-per11": (HALF, DigitStream(3, (), (1, 1), tau0=1), 0,
                   [(1, Fraction(1, 3), set(range(8)), 2)], set(), None, 2),
}


def _atom_states(sub, gamma, plan):
    """The states of the coboundary classes of the period-composed chain:
    the states whose mass the atom at zero collects."""
    pre = len(plan.preperiod)
    block = compose(*layer_chains(sub, gamma, plan, pre + len(plan.period))[pre:])
    return {s for cls in recurrent_classes(block) if cls.coboundary for s in cls.states}


@pytest.mark.parametrize("case", MIXTURE_PINS)
def test_mixture_prediction_is_pinned(twist2, case):
    sub, g = twist2
    values, t, p0, comps, atoms, window, lattice = MIXTURE_PINS[case]
    gamma = g if values is None else WeightVector(values, Fraction(1))
    mix = mixture_prediction(sub, gamma, t)
    assert mix.p0 == p0
    assert [
        (c.weight, c.variance_per_step, set(c.states), c.lattice_step) for c in mix.components
    ] == comps
    plan = time_expansion(sub, t)
    assert _atom_states(sub, gamma, plan) == atoms
    assert mix.dirac_window == window
    assert mix.lattice == lattice
    if atoms:
        # the window from layers built afresh for the first horizon steps
        horizon = len(plan.preperiod) + (ATOM_WINDOW_HORIZON // len(plan.period)) * len(
            plan.period
        )
        layers = layer_chains(sub, gamma, plan, horizon)
        init = initial_distribution(sub, gamma, plan.tau0)
        dist = exact_sum_distribution(layers, init, horizon)
        assert _support_bounds(_restricted(dist, atoms)) == window


def _a3_twists():
    """The 20 shuffled twists of acceptance check A3: 1 -> k + 1 ones and k
    twos in a random order, 2 -> its mirror, k in 1..3."""
    rng = random.Random(20240)
    texts = []
    for _ in range(20):
        k = rng.randint(1, 3)
        image = [0] * (k + 1) + [1] * k
        rng.shuffle(image)
        word = "".join("12"[x] for x in image)
        texts.append(f"1: {word}\n2: {word.translate(str.maketrans('12', '21'))}")
    return texts


WINDOW_SUBSTITUTIONS = {
    "twist2": ["1: 112\n2: 221"],
    "sync3": ["1: 12\n2: 13\n3: 23"],
    "twist7": ["1: 1112122\n2: 2221211"],
    "twist5": ["1: 11212\n2: 22121"],
    "three-letter": ["1: 1123\n2: 2231\n3: 3312"],
    "a3-twists": _a3_twists(),
}


@pytest.mark.parametrize("family", WINDOW_SUBSTITUTIONS)
@settings(max_examples=25)
@given(data=st.data())
def test_mixture_window_is_the_restricted_exact_support(family, data):
    # the window from reachability against the exact law it replaced: the
    # sums that the law at the same horizon puts on the atom's states
    text = data.draw(st.sampled_from(WINDOW_SUBSTITUTIONS[family]))
    sub = parse_substitution(text)
    gamma = eigenvector_for(matrix_of(sub), 1)
    d = len(sub.images[0])
    q = data.draw(st.integers(1, 12))
    t = Fraction(data.draw(st.integers(1, d * q - 1)), q)
    mix = mixture_prediction(sub, gamma, t)
    plan = time_expansion(sub, t)
    atom_states = _atom_states(sub, gamma, plan)
    if not atom_states:
        assert mix.dirac_window is None
        return
    per = len(plan.period)
    horizon = len(plan.preperiod) + max(1, ATOM_WINDOW_HORIZON // per) * per
    layers = layer_chains(sub, gamma, plan, horizon)
    dist = exact_sum_distribution(layers, initial_distribution(sub, gamma, plan.tau0), horizon)
    atoms = _restricted(dist, atom_states)
    assert mix.dirac_window == (_support_bounds(atoms) if atoms.table else None)


def test_gof_small(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(1))
    mix = mixture_prediction(sub, g, Fraction(1))
    layers = layer_chains(sub, g, plan, 60)
    init = initial_distribution(sub, g, plan.tau0)
    sample = monte_carlo(layers, init, 60, 2 * 10**4, seed=3)
    res = gof_test(sample, mix)
    assert res.ks_continuous < 0.05
    assert res.window_mass_gap < 0.03


def _reference_gof(sample, prediction):
    """GofResult by its first formulas: class membership through ``np.isin``,
    the observed step from ``np.unique`` and a KS distance that sorts again."""
    n = sample.n
    ks_cont = 0.0
    steps = {}
    for ci, comp in enumerate(prediction.components):
        mask = np.isin(sample.final_states, np.fromiter(comp.states, dtype=np.int64))
        if not mask.any():
            continue
        sub_scaled = sample.scaled[mask]
        uniq = np.unique(sub_scaled)
        steps[ci] = 1 if len(uniq) < 2 else int(np.gcd.reduce(np.diff(uniq)))
        scaled = np.sort(sub_scaled)
        sd = math.sqrt(n * float(comp.variance_per_step)) * sample.lattice
        grid = np.arange(
            int(scaled[0]) - 2 * steps[ci], int(scaled[-1]) + 3 * steps[ci], steps[ci],
            dtype=np.int64,
        )
        emp = np.searchsorted(scaled, grid, side="right") / len(scaled)
        z = (grid + steps[ci] / 2.0) / sd
        model = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        ks_cont = max(ks_cont, float(np.max(np.abs(emp - model))))
    if prediction.dirac_window is None:
        return (ks_cont, 0.0, 0.0, None)
    lo, hi = prediction.dirac_window
    inside = (sample.scaled >= int(lo * sample.lattice)) & (sample.scaled <= int(hi * sample.lattice))
    pred = float(prediction.p0)
    for ci, comp in enumerate(prediction.components):
        sd = math.sqrt(n * float(comp.variance_per_step))
        # an observed step counts 1/sample.lattice, a class's lattice step
        # 1/prediction.lattice
        if ci in steps:
            half = steps[ci] / (2 * sample.lattice)
        else:
            half = comp.lattice_step / (2 * prediction.lattice)
        pred += float(comp.weight) * (
            normal_cdf((float(hi) + half) / sd) - normal_cdf((float(lo) - half) / sd)
        )
    return (ks_cont, float(np.mean(inside)), pred, (float(lo), float(hi)))


@pytest.mark.parametrize("name, t, n, checkpoints", MC_ORACLE_CASES)
def test_gof_matches_its_first_formulas(request, name, t, n, checkpoints):
    # bit for bit, after every step >= 1 of the case's checkpoints; seeded
    # digits are tested against the prediction at t = 1 of the same input
    layers, init = _law_inputs(request, name, t, n)
    sub, g = request.getfixturevalue(name.partition(":")[0])
    prediction = mixture_prediction(sub, g, t if isinstance(t, Fraction) else Fraction(1))
    snaps = monte_carlo(layers, init, n, 3000, seed=17, checkpoints=checkpoints)
    for snap in snaps:
        # the first sample alone: one value per class, whose step reads 1
        first = dataclasses.replace(
            snap, scaled=snap.scaled[:1], final_states=snap.final_states[:1]
        )
        for sample in (snap, first) if snap.n else ():
            assert dataclasses.astuple(gof_test(sample, prediction)) == _reference_gof(
                sample, prediction
            )


def test_moments(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 20)
    init = initial_distribution(sub, g, plan.tau0)
    sample = monte_carlo(layers, init, 20, 10**4, seed=8)
    m = sample_moments(sample)
    assert abs(m["mean"]) < 1.0
    assert m["variance"] > 0


# ---------------------------------------------------------------------------
# KS helpers
# ---------------------------------------------------------------------------


def test_ks_lattice_vs_normal_on_binomial():
    rng = np.random.default_rng(0)
    n = 400
    sample = rng.binomial(n, 0.5, size=10**5) * 2 - n  # lattice step 2, var n
    ks = ks_lattice_vs_normal(sample, 2, 0.0, math.sqrt(n))
    assert ks < 0.01


def test_normal_cdf_symmetry():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(1.0) + normal_cdf(-1.0) - 1.0) < 1e-12
