"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from subshift_lab.automata import build_tau_automaton
from subshift_lab.bounds import _census_probes, liminf_constant
from subshift_lab.gallery import run_gallery
from subshift_lab.limitdist import (
    RandomDigitStream,
    exact_sum_distribution,
    gof_test,
    ks_exact_vs_sample,
    ks_lattice_vs_normal,
    layer_chains,
    mixture_prediction,
    monte_carlo,
    sample_moments,
    time_expansion,
    variance_growth,
    word_vs_chain_check,
)
from subshift_lab.markov import initial_distribution, recurrent_classes
from subshift_lab.prefix_suffix import sample_path_with_coverage
from subshift_lab.salem import closed_form_poly, salem_check
from subshift_lab.substitution import (
    Substitution,
    eigenvector_for,
    matrix_of,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_a01_salem_family_closed_form():
    start = time.perf_counter()
    ok = True
    for n in range(1, 51):
        rep = salem_check(n)
        ok &= rep.poly == closed_form_poly(n)
        ok &= -2 < rep.s_value < 2 and rep.t_value > 2 and rep.salem
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(
        "A1 salem family",
        ok,
        f"n=1..50 char polys match closed form, s in (-2,2) certified, "
        f"salem flags true ({elapsed:.3f}s)",
    )


def test_a02_gallery_structure():
    start = time.perf_counter()
    entries = run_gallery()
    elapsed = time.perf_counter() - start
    passed = [all(c.passed for c in entry.checks) for entry in entries]
    ok = all(passed) and elapsed < 1.0
    detail = "; ".join(
        f"{e.name}:{'ok' if p else 'FAIL'}" for e, p in zip(entries, passed)
    )
    report("A2 automaton gallery", ok, f"{detail} ({elapsed:.3f}s)")


def test_a03_zero_mean_on_every_recurrent_class():
    rng = random.Random(20240)
    checked = 0
    worst = Fraction(0)
    for _ in range(20):
        k = rng.randint(1, 3)
        image = [0] * (k + 1) + [1] * k
        rng.shuffle(image)
        sub = Substitution.from_words([image, [1 - x for x in image]])
        gamma = eigenvector_for(matrix_of(sub), 1)
        assert gamma is not None
        d = 2 * k + 1
        for tau in range(d):
            chain = build_tau_automaton(sub, gamma, tau)
            for cls in recurrent_classes(chain):
                worst = max(worst, abs(cls.mean))
                checked += 1
    report(
        "A3 zero stationary means",
        worst == 0,
        f"{checked} recurrent classes over 20 randomized substitutions, "
        f"all stationary means exactly 0",
    )


@pytest.mark.parametrize("name", ["twist2", "sync3"])
def test_a04_liminf_below_constant(name, twist2, sync3):
    sub, gamma = {"twist2": twist2, "sync3": sync3}[name]
    d = len(sub.images[0])
    c = liminf_constant(sub, gamma)
    horizon_max = d**12
    horizons = [d**4, d**8, d**12]
    points = 100
    worst = Fraction(0)
    for seed in range(points):
        # as ``bounds`` probes: the sampled path alone, no window built
        path = sample_path_with_coverage(
            sub, seed=seed, min_right=horizon_max, min_left=horizon_max
        )
        for reverse in (False, True):
            # one census per path and direction serves the three horizons
            worst = max(worst, *_census_probes(sub, gamma, path, horizons, reverse))
    report(
        f"A4 liminf bound ({name})",
        worst < c,
        f"{points} points, horizons up to {d}^12, forward+reversed: "
        f"max probe {worst} < C = {c}",
    )


@pytest.mark.parametrize("name", ["twist2", "sync3"])
def test_a05_word_vs_chain_identity(name, twist2, sync3):
    sub, gamma = {"twist2": twist2, "sync3": sync3}[name]
    d = len(sub.images[0])
    rng = random.Random(99 if name == "twist2" else 77)
    bound = 3 * gamma.max_abs
    worst = Fraction(0)
    for trial in range(100):
        n = rng.randint(0, 10)
        denominator = rng.randint(1, 12)
        numerator = rng.randint(1, denominator * d - 1)
        t = Fraction(numerator, denominator)
        disc = word_vs_chain_check(sub, gamma, t, n, seed=trial)
        worst = max(worst, disc)
    report(
        f"A5 word/chain identity ({name})",
        worst <= bound,
        f"100 random (point, t, n<=10) configurations, exact windows rebuilt: "
        f"max |word sum - chain sum| = {worst} <= {bound}",
    )


def test_a06_exact_vs_monte_carlo(twist2, sync3):
    start = time.perf_counter()
    samples = 10**5
    tol = 3 / math.sqrt(samples)
    configs = []
    for t in (Fraction(1), Fraction(3, 2), Fraction(5, 2), Fraction(1, 2), Fraction(7, 3)):
        configs.append((twist2, t))
    for t in (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(2, 3), Fraction(7, 4)):
        configs.append((sync3, t))
    assert len(configs) == 10
    worst = 0.0
    for idx, ((sub, gamma), t) in enumerate(configs):
        plan = time_expansion(sub, t)
        n = 6
        layers = layer_chains(sub, gamma, plan, n)
        init = initial_distribution(sub, gamma, plan.tau0)
        dist = exact_sum_distribution(layers, init, n)
        sample = monte_carlo(layers, init, n, samples, seed=1000 + idx)
        worst = max(worst, ks_exact_vs_sample(dist, sample))
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < 60.0
    report(
        "A6 oracle agreement",
        ok,
        f"10 configurations, KS(exact DP, {samples} MC samples) max {worst:.5f} "
        f"<= {tol:.5f} ({elapsed:.1f}s)",
    )


def test_a07_gaussian_case(twist2):
    sub, gamma = twist2
    n, samples = 200, 10**5
    plan = time_expansion(sub, Fraction(3, 2))  # digits identically 1
    prediction = mixture_prediction(sub, gamma, plan)
    assert prediction.p0 == 0 and len(prediction.components) == 1
    layers = layer_chains(sub, gamma, plan, n)
    init = initial_distribution(sub, gamma, plan.tau0)
    sample = monte_carlo(layers, init, n, samples, seed=2024)
    # normalized by the estimated variance, compared with N(0,1) on the
    # observed lattice (raw sup-distance to the continuous normal carries an
    # irreducible quantization floor ~0.024 at n=200; see the design notes)
    vhat = float(np.var(sample.values))
    step = int(np.gcd.reduce(np.diff(np.unique(sample.scaled))))
    ks = ks_lattice_vs_normal(
        sample.scaled, step, 0.0, math.sqrt(vhat) * sample.lattice
    )
    moments = sample_moments(sample)
    raw = _raw_ks_vs_normal(sample, vhat)
    ok = ks <= 0.02 and abs(moments["skewness"]) <= 0.05 and abs(moments["excess_kurtosis"]) <= 0.1
    report(
        "A7 Gaussian limit",
        ok,
        f"n={n}, {samples} samples: lattice KS {ks:.4f} <= 0.02 (raw sup vs "
        f"continuous normal {raw:.4f}), |skew| {abs(moments['skewness']):.4f} <= 0.05, "
        f"|ex.kurt| {abs(moments['excess_kurtosis']):.4f} <= 0.1",
    )


def _raw_ks_vs_normal(sample, vhat: float) -> float:
    values = np.sort(sample.values / math.sqrt(vhat))
    n = len(values)
    uniq, counts = np.unique(values, return_counts=True)
    after = np.cumsum(counts) / n
    before = after - counts / n
    model = 0.5 * (1.0 + np.vectorize(math.erf)(uniq / math.sqrt(2.0)))
    return float(np.max(np.maximum(np.abs(after - model), np.abs(model - before))))


def test_a08_mixture_case(twist2):
    sub, gamma = twist2
    n, samples = 200, 10**5
    plan = time_expansion(sub, Fraction(1))  # digits identically 0
    prediction = mixture_prediction(sub, gamma, plan)
    assert prediction.p0 == Fraction(1, 2)
    layers = layer_chains(sub, gamma, plan, n)
    init = initial_distribution(sub, gamma, plan.tau0)
    sample = monte_carlo(layers, init, n, samples, seed=4096)
    res = gof_test(sample, prediction)
    ok = res.ks_continuous <= 0.02 and res.window_mass_gap <= 0.01
    report(
        "A8 mixture limit",
        ok,
        f"n={n}: p0 = {prediction.p0} (exact absorption), sigma1^2 = "
        f"{prediction.components[0].variance_per_step}, continuous-part KS "
        f"{res.ks_continuous:.4f} <= 0.02, window {res.window} mass "
        f"{res.window_mass_empirical:.4f} vs predicted {res.window_mass_predicted:.4f} "
        f"(gap {res.window_mass_gap:.4f} <= 0.01)",
    )


def test_a09_variance_growth_band(twist2):
    sub, gamma = twist2
    slopes = []
    for k in range(10):
        stream = RandomDigitStream(3, seed=5000 + k)
        rep = variance_growth(
            sub, gamma, stream, n_values=(25, 50, 75, 100, 125, 150, 175, 200)
        )
        slopes.append(rep.slope)
    ok = all(0.8 <= s <= 1.05 for s in slopes)
    report(
        "A9 variance growth",
        ok,
        f"10 random digit streams, exact, n<=200: slopes in "
        f"[{min(slopes):.3f}, {max(slopes):.3f}] within [0.8, 1.05]",
    )


def test_a10_coboundary_dirac(sync3):
    sub, gamma = sync3
    plan = time_expansion(sub, Fraction(1))  # finite expansion
    layers = layer_chains(sub, gamma, plan, 100)
    init = initial_distribution(sub, gamma, plan.tau0)
    snaps = exact_sum_distribution(
        layers, init, 100, checkpoints=tuple(range(5, 13)) + (100,)
    )
    diameters = {}
    for snap in snaps:
        if snap.n <= 12:
            sums = [s for _, s in snap.table]
            diameters[snap.n] = Fraction(max(sums) - min(sums), snap.lattice)
    constant = len(set(diameters.values())) == 1
    final = snaps[-1]
    # all mass within +-0.2 after dividing by sqrt(n) at n = 100
    window = Fraction(2)  # 0.2 * sqrt(100)
    mass = sum(
        p for s, p in final.sum_marginal().items() if abs(Fraction(s, final.lattice)) <= window
    )
    ok = constant and mass == 1
    report(
        "A10 coboundary Dirac",
        ok,
        f"support diameter {set(diameters.values())} constant for n=5..12; "
        f"mass within +-0.2*sqrt(n) at n=100: {float(mass):.6f} = 1 exactly",
    )
