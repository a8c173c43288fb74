import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
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
from subshift_lab.markov import compose, initial_distribution, initial_state_indices
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


def test_exact_distribution_support_cap(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(3, 2))
    layers = layer_chains(sub, g, plan, 30)
    init = initial_distribution(sub, g, plan.tau0)
    with pytest.raises(SupportCapExceeded) as err:
        exact_sum_distribution(layers, init, 30, support_cap=50)
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


def _diagonal_start(layers):
    """The synchronized states only: the class where the payoff is a potential
    difference, so the law keeps a bounded support."""
    return {i: Fraction(1, 4) for i, (a, v) in enumerate(layers[0].states) if v[0] == a}


def test_coboundary_only_start_has_bounded_support(twist2):
    sub, g = twist2
    plan = time_expansion(sub, Fraction(1))
    layers = layer_chains(sub, g, plan, 40)
    diag = _diagonal_start(layers)
    diameters = set()
    for n in (10, 20, 40):
        lo, hi = exact_sum_distribution(layers, diag, n).support_bounds()
        diameters.add(hi - lo)
    assert len(diameters) == 1


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
# Fraction probabilities (exact) and a per-row float CDF (Monte Carlo)
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
    if isinstance(init, dict):
        init_idx = init  # state index -> probability
    else:
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


class _ReferenceLayer:
    """Padded cumulative-probability rows, the last edge guarded."""

    def __init__(self, chain, lattice):
        width = max(len(group) for group in chain.edges)
        self.cum = np.ones((chain.n, width), dtype=np.float64)
        self.target = np.zeros((chain.n, width), dtype=np.int64)
        self.pay = np.zeros((chain.n, width), dtype=np.int64)
        for i, group in enumerate(chain.edges):
            acc = 0.0
            for j, e in enumerate(group):
                acc += float(e.prob)
                self.cum[i, j] = acc
                self.target[i, j] = e.target
                self.pay[i, j] = int(e.payoff * lattice)
            self.cum[i, len(group) - 1] = 1.0 + 1e-12

    def step(self, states, u):
        idx = (u[:, None] >= self.cum[states]).sum(axis=1)
        return self.target[states, idx], self.pay[states, idx]


def _reference_monte_carlo(layers, init, n, samples, seed):
    """(scaled sums, final states) after n steps."""
    lattice = _reference_lattice(layers[:n])
    rng = np.random.default_rng(seed)
    init_idx = initial_state_indices(layers[0], init)
    states_list = sorted(init_idx)
    probs = np.array([float(init_idx[s]) for s in states_list])
    probs /= probs.sum()
    draws = rng.random(samples)
    states = np.array(states_list, dtype=np.int64)[np.searchsorted(np.cumsum(probs), draws)]
    sums = np.zeros(samples, dtype=np.int64)
    compiled = {}
    for chain in layers[:n]:
        if id(chain) not in compiled:
            compiled[id(chain)] = _ReferenceLayer(chain, lattice)
        states, pay = compiled[id(chain)].step(states, rng.random(samples))
        sums += pay
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
    """1 -> 11212, 2 -> 22121: d = 5, so a step compares against 4 thresholds."""
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
        half = full.restricted_to_states(set(range(0, len(layers[0].states), 2)))
        for dist in (full, half):
            assert dist.sum_marginal() == _reference_sum_marginal(dist)
            marginal = dist.state_marginal()
            assert list(marginal.items()) == list(_reference_state_marginal(dist).items())
            assert dist.mean() == _reference_mean(dist)
            assert dist.variance() == _reference_variance(dist)


def test_exact_rejects_negative_initial_mass(twist2):
    # a negative numerator would borrow across the packed slots
    sub, g = twist2
    layers = layer_chains(sub, g, time_expansion(sub, Fraction(1)), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_sum_distribution(layers, {0: Fraction(3, 2), 1: Fraction(-1, 2)}, 2)


@pytest.fixture(scope="module")
def twist301():
    """A3's twist with k = 150: d = 301 > MAX_CHUNK_WIDTH, so every Monte
    Carlo chunk is one step and its edge codes need more than a uint8."""
    image = [0] * 151 + [1] * 150
    sub = Substitution.from_words([image, [1 - x for x in image]])
    return sub, eigenvector_for(matrix_of(sub), 1)


# chunks are up to 8 steps for d = 2, 5 for d = 3, 3 for d = 5 and 2 for d = 7
MC_ORACLE_CASES = [
    pytest.param("twist2", Fraction(1), 60, (0, 6, 60), id="twist2-t0"),
    pytest.param("twist2", Fraction(7, 3), 60, (0, 6, 60), id="twist2-t1"),
    pytest.param("twist2", RandomDigitStream(3, 11), 60, (0, 6, 60), id="twist2-t2"),
    pytest.param("sync3", Fraction(7, 4), 60, (0, 6, 60), id="sync3-t3"),
    pytest.param("twist5", Fraction(3, 2), 60, (0, 6, 60), id="twist5-t4"),
    pytest.param("sync3", RandomDigitStream(2, 8), 60, (0, 6, 60), id="sync3-random"),
    pytest.param("twist7", RandomDigitStream(7, 3), 60, (0, 6, 60), id="twist7-random"),
    # the layers of one chunk have different lattices
    pytest.param("twist2half", RandomDigitStream(3, 7), 60, (0, 6, 60), id="twist2half-random"),
    # checkpoints that cut chunks short
    pytest.param("twist2", RandomDigitStream(3, 5), 60, (0, 1, 7, 9, 60), id="twist2-cut"),
    pytest.param("sync3", Fraction(5, 3), 60, (0, 1, 7, 9, 60), id="sync3-cut"),
    # a horizon shorter than one chunk
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

    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
    snaps = monte_carlo(layers, init, 3, 5, seed=0, checkpoints=(0, 3))
    assert snaps[0].final_states.tolist() == [max(initial_state_indices(layers[0], init))] * 5
    assert len(snaps[1]) == 5


@pytest.mark.parametrize(
    "name, t", [("twist2", RandomDigitStream(3, 5)), ("twist7", RandomDigitStream(7, 3))]
)
def test_monte_carlo_draws_on_a_threshold_follow_the_float_sums(request, monkeypatch, name, t):
    # a draw u picks edge #{k : u >= (1/d + ... + 1/d), k terms}; floor(u * d)
    # and u >= k/d in exact arithmetic both disagree with it on these draws
    layers, init = _law_inputs(request, name, t, 12)
    d = len(layers[0].edges[0])
    thresholds = np.cumsum(np.full(d - 1, 1 / d))
    edges = np.concatenate([thresholds, np.nextafter(thresholds, 0), [0.0, np.nextafter(1.0, 0)]])
    rule = (edges[:, None] >= thresholds).sum(axis=1)
    exact = [sum(Fraction(u) >= Fraction(k, d) for k in range(1, d)) for u in edges]
    assert (rule != np.floor(edges * d)).any() or (rule != exact).any()

    class EdgeDraws:
        def __init__(self):
            self.calls = 0

        def random(self, size):
            self.calls += 1  # a new rotation per step, so every path meets every draw
            return np.resize(np.roll(edges, self.calls), size)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: EdgeDraws())
    sample = monte_carlo(layers, init, 12, 101, seed=0)
    scaled, states = _reference_monte_carlo(layers, init, 12, 101, seed=0)
    assert np.array_equal(sample.scaled, scaled)
    assert np.array_equal(sample.final_states, states)


def test_engines_reject_layers_without_d_equal_edges(twist2):
    sub, g = twist2
    layer = layer_chains(sub, g, time_expansion(sub, Fraction(1)), 1)[0]
    merged = compose(layer, layer)  # parallel edges merge: fewer than 9, unequal
    assert any(len(group) < 9 for group in merged.edges)
    init = {0: Fraction(1)}
    with pytest.raises(ValueError):
        exact_sum_distribution([merged], init, 1)
    with pytest.raises(ValueError):
        monte_carlo([merged], init, 1, 10, seed=0)


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
    from subshift_lab.limitdist import layer_chains as _lc

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
    assert all(v <= 25 * n for v, n in zip(rep.variances, rep.n_values))


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
    gaps = [v - n * rate for n, v in zip(rep.n_values, rep.variances)]
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
    for s, g, theta in ((minus, g_minus, -1), (sub, g_three, 3)):
        plan = time_expansion(s, Fraction(3, 2))
        message = f"needs eigenvalue 1; gamma has eigenvalue {theta}"
        with pytest.raises(ValueError, match=message):
            layer_chains(s, g, plan, 4)
        with pytest.raises(ValueError, match=message):
            mixture_prediction(s, g, plan)
        with pytest.raises(ValueError, match=message):
            variance_growth(s, g, plan, n_values=(2, 4))


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
    assert mix.dirac_states == atoms
    assert mix.dirac_window == window
    assert mix.lattice == lattice
    if atoms:
        # the window from layers built afresh for the first horizon steps
        plan = mix.plan
        horizon = len(plan.preperiod) + (ATOM_WINDOW_HORIZON // len(plan.period)) * len(
            plan.period
        )
        layers = layer_chains(sub, gamma, plan, horizon)
        init = initial_distribution(sub, gamma, plan.tau0)
        dist = exact_sum_distribution(layers, init, horizon)
        assert dist.restricted_to_states(atoms).support_bounds() == window


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
