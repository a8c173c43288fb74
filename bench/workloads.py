"""The operation families of the benchmark and the workloads built from them.

A family is a fixed cycle of operations of one kind: exact laws, Monte Carlo
laws, orbit probes or CLI commands.  Operation ``(cycle, slot)`` draws its
inputs from ``random.Random("<family>/<seed>/<cycle>/<slot>")``, so the same
seed always gives the same inputs.  A workload runs the cycles of its
families one after the other, and a run of any length stops only at the end
of a cycle, so the mix of operation kinds is the same in every run.

Shared state (parsed substitutions, eigenvectors, liminf constants) is built
in the constructors: that is the set-up the benchmark times.  ``op`` is the
timed operation; ``check`` reads its outcome afterwards, outside the timed
region, and names the module of every check that failed.

The calls into the library are wrapped in spans named after the module and
the layer they exercise.  With tracing off the spans cost one no-op context
manager each.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from subshift_lab import cli
from subshift_lab.bounds import liminf_constant, liminf_probe
from subshift_lab.limitdist import (
    RandomDigitStream,
    exact_sum_distribution,
    gof_test,
    ks_exact_vs_sample,
    layer_chains,
    mixture_prediction,
    monte_carlo,
    sample_moments,
    time_expansion,
    word_vs_chain_check,
)
from subshift_lab.markov import initial_distribution
from subshift_lab.prefix_suffix import sample_point_with_coverage
from subshift_lab.substitution import (
    Substitution,
    eigenvector_for,
    iterate_prefix,
    matrix_of,
    parse_substitution,
)

TWIST2 = "1: 112\n2: 221"
SYNC3 = "1: 12\n2: 13\n3: 23"

# A7 and A8 pin these at 10**5 samples; a run with fewer samples restates
# them with the same false-alarm rate by scaling with sqrt(10**5 / samples).
# Unscaled at 2 * 10**4 samples, the window pin is only ~2.9 standard
# deviations of the sampling noise and would fail ~1 correct op in 250.
PIN_SAMPLES = 10**5
PIN_KS_CONTINUOUS = 0.02
PIN_WINDOW_GAP = 0.01


@dataclass
class Outcome:
    """What one operation returned: work done, data to check, bytes to hash."""

    work: int
    value: object
    digest: bytes = b""
    family: str = ""


class Family:
    """Base class: seeded inputs per operation and the span recorder."""

    name = ""
    unit = ""  # what ``Outcome.work`` counts
    slots: tuple = ()  # the operation kinds of one cycle, in order
    default_sizes: dict = {}

    def __init__(self, seed: int, tracer, sizes: dict | None = None):
        self.seed = seed
        self.tr = tracer
        self.sizes = {**self.default_sizes, **(sizes or {})}

    def rng(self, cycle: int, slot) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{cycle}/{slot}")

    def op(self, cycle: int, slot: int) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> list[str]:
        raise NotImplementedError

    def _parse(self, text: str):
        with self.tr.span("substitution.eigen"):
            sub = parse_substitution(text)
            gamma = eigenvector_for(matrix_of(sub), 1)
        return sub, gamma


def _law_inputs(wl: Family, sub, gamma, t, n: int):
    """The shared head of every law operation: layers and initial law."""
    plan = time_expansion(sub, t)
    with wl.tr.span("limitdist.layers") as counts:
        layers = layer_chains(sub, gamma, plan, n)
    counts["distinct_digits"] = len({plan.layer_digit(k) for k in range(1, n + 1)})
    with wl.tr.span("markov.initial"):
        init = initial_distribution(sub, gamma, plan.tau0)
    return plan, layers, init


# ---------------------------------------------------------------------------
# exact-law
# ---------------------------------------------------------------------------


class ExactLaw(Family):
    """``dist --exact --n a,b,c``: the exact law at checkpoints.

    Wide ops (twist2, random digits) grow a support of several hundred
    (state, sum) pairs; narrow ops (sync3 at a coboundary time) keep it
    under fifty, so per-step overhead dominates them.
    """

    name = "exact-law"
    unit = "law-steps"
    slots = ("wide", "narrow:1", "wide", "narrow:3/2")
    default_sizes = {
        "wide_horizon": 64,
        "wide_checkpoints": (16, 32, 64),
        "narrow_horizon": 400,
        "narrow_checkpoints": (100, 200, 400),
    }

    def __init__(self, seed, tracer, sizes=None):
        super().__init__(seed, tracer, sizes)
        self.twist2 = self._parse(TWIST2)
        self.sync3 = self._parse(SYNC3)
        # expected marginals and means per input; narrow ops repeat every cycle
        self._expected: dict = {}

    def op(self, cycle, slot):
        kind = self.slots[slot]
        rng = self.rng(cycle, slot)
        if kind == "wide":
            sub, gamma = self.twist2
            t = RandomDigitStream(3, rng.getrandbits(32))
            n, checkpoints = self.sizes["wide_horizon"], self.sizes["wide_checkpoints"]
        else:
            sub, gamma = self.sync3
            t = Fraction(kind.split(":")[1])
            n, checkpoints = self.sizes["narrow_horizon"], self.sizes["narrow_checkpoints"]
        plan, layers, init = _law_inputs(self, sub, gamma, t, n)
        with self.tr.span("limitdist.exact", steps=n) as counts:
            snaps = exact_sum_distribution(layers, init, n, checkpoints=checkpoints)
        counts["support_max"] = max(len(s.table) for s in snaps)
        digest = "|".join(
            f"{s.n}:{s.lattice}:" + ",".join(f"{v}={p}" for v, p in s.sum_marginal().items())
            for s in snaps
        )
        key = (sub.images, plan.tau0, tuple(plan.layer_digit(k) for k in range(1, n + 1)))
        value = {"key": key, "layers": layers, "init": init, "snaps": snaps}
        return Outcome(n, value, digest.encode())

    def check(self, out):
        key, snaps = out.value["key"], out.value["snaps"]
        if any(s.mass() != 1 for s in snaps):
            return ["limitdist"]
        if key not in self._expected:
            self._expected[key] = _pushed_marginals(
                out.value["layers"], out.value["init"], {s.n for s in snaps}
            )
        expected = self._expected[key]
        if any((s.state_marginal(), s.mean()) != expected[s.n] for s in snaps):
            return ["limitdist"]
        return []


def _pushed_marginals(layers, init, steps):
    """State marginal and mean at each step, from the initial law pushed
    through each layer's edge probabilities and payoffs; no sums tracked."""
    index = {s: i for i, s in enumerate(layers[0].states)}
    mu = {index[s]: p for s, p in init.probs.items() if p}
    mean = Fraction(0)
    out = {}
    for k, chain in enumerate(layers[: max(steps)], start=1):
        new: dict[int, Fraction] = {}
        for q, p in mu.items():
            for e in chain.edges[q]:
                w = p * e.prob
                new[e.target] = new.get(e.target, 0) + w
                mean += w * e.payoff
        mu = new
        if k in steps:
            out[k] = (mu, mean)
    return out


# ---------------------------------------------------------------------------
# mc-law
# ---------------------------------------------------------------------------


class McLaw(Family):
    """``dist`` in Monte Carlo mode on twist2 at n = 200.

    Periodic times add the mixture prediction (which runs a horizon-64
    exact law when the limit has an atom) and the goodness-of-fit test;
    random digit streams add the sample moments.
    """

    name = "mc-law"
    unit = "sample-steps"
    slots = ("periodic:1", "periodic:3/2", "periodic:7/3", "random")
    default_sizes = {"n": 200, "samples": 2 * 10**4, "cross_check_n": 6}

    def __init__(self, seed, tracer, sizes=None):
        super().__init__(seed, tracer, sizes)
        self.twist2 = self._parse(TWIST2)

    def op(self, cycle, slot):
        kind = self.slots[slot]
        rng = self.rng(cycle, slot)
        sub, gamma = self.twist2
        n, samples = self.sizes["n"], self.sizes["samples"]
        if kind == "random":
            t = RandomDigitStream(3, rng.getrandbits(32))
        else:
            t = Fraction(kind.split(":")[1])
        plan, layers, init = _law_inputs(self, sub, gamma, t, n)
        cross = self.sizes["cross_check_n"]
        with self.tr.span("limitdist.mc", sample_steps=samples * n):
            snaps = monte_carlo(
                layers, init, n, samples, seed=rng.getrandbits(32),
                checkpoints=(cross, n), t_digits=plan.describe(),
            )
        digest = b""
        if plan.eventually_periodic:
            with self.tr.span("limitdist.mixture"):
                prediction = mixture_prediction(sub, gamma, plan)
            with self.tr.span("limitdist.gof"):
                stats = gof_test(snaps[-1], prediction)
            digest = json.dumps(
                [prediction.density_description(), str(prediction.dirac_window)]
            ).encode()
        else:
            with self.tr.span("limitdist.gof"):
                stats = sample_moments(snaps[-1])
        value = {"layers": layers, "init": init, "snaps": snaps, "stats": stats}
        return Outcome(samples * n, value, digest)

    def check(self, out):
        snaps, stats = out.value["snaps"], out.value["stats"]
        samples = len(snaps[-1])
        if samples != self.sizes["samples"]:
            return ["limitdist"]
        # A6: the Monte Carlo snapshot against the exact law at the same step
        exact = exact_sum_distribution(out.value["layers"], out.value["init"], snaps[0].n)
        if ks_exact_vs_sample(exact, snaps[0]) > 3 / math.sqrt(samples):
            return ["limitdist"]
        if isinstance(stats, dict):
            return [] if all(math.isfinite(v) for v in stats.values()) else ["limitdist"]
        scale = math.sqrt(PIN_SAMPLES / samples)
        if stats.ks_continuous > PIN_KS_CONTINUOUS * scale:
            return ["limitdist"]
        if stats.window is not None and stats.window_mass_gap > PIN_WINDOW_GAP * scale:
            return ["limitdist"]
        return []


# ---------------------------------------------------------------------------
# orbit-probes
# ---------------------------------------------------------------------------


class OrbitProbes(Family):
    """One symbolic point per operation, as ``bounds``, A4 and A5 handle it.

    Points alternate between twist2 at horizon 3**12 and sync3 at 2**19;
    both windows hold about 5 * 10**5 letters per side.
    """

    name = "orbit-probes"
    unit = "letters"
    slots = ("twist2", "sync3")
    default_sizes = {"twist2_power": 12, "sync3_power": 19, "words_n": 10}

    def __init__(self, seed, tracer, sizes=None):
        super().__init__(seed, tracer, sizes)
        self.subs = {"twist2": self._parse(TWIST2), "sync3": self._parse(SYNC3)}
        self.constants = {}
        for key, (sub, gamma) in self.subs.items():
            with self.tr.span("bounds.constant"):
                self.constants[key] = liminf_constant(sub, gamma)

    def op(self, cycle, slot):
        key = self.slots[slot]
        rng = self.rng(cycle, slot)
        sub, gamma = self.subs[key]
        d = len(sub.images[0])
        horizon = d ** self.sizes[f"{key}_power"]
        with self.tr.span("substitution.prefix", letters=horizon):
            prefix = iterate_prefix(sub, rng.randrange(sub.alphabet_size), horizon)
        with self.tr.span("prefix_suffix.point") as counts:
            point = sample_point_with_coverage(
                sub, rng.getrandbits(31), min_right=horizon, min_left=horizon
            )
        counts["letters"] = len(point.left) + len(point.right)
        probes = []
        for h in sorted({min(d**4, horizon), min(d**8, horizon), horizon}):
            for reverse in (False, True):
                with self.tr.span("bounds.probe", letters=h):
                    probes.append(liminf_probe(sub, gamma, point, h, reverse=reverse))
        den = rng.randint(1, 12)
        t = Fraction(rng.randint(1, den * d - 1), den)
        with self.tr.span("limitdist.words"):
            disc = word_vs_chain_check(
                sub, gamma, t, self.sizes["words_n"], seed=rng.getrandbits(31)
            )
        work = len(prefix) + len(point.left) + len(point.right)
        digest = b"|".join(
            [prefix, point.left, point.right, ",".join(map(str, probes + [disc])).encode()]
        )
        value = {"key": key, "horizon": horizon, "prefix": prefix, "point": point,
                 "probes": probes, "disc": disc}
        return Outcome(work, value, digest)

    def check(self, out):
        v = out.value
        horizon, point = v["horizon"], v["point"]
        _, gamma = self.subs[v["key"]]
        bad = []
        if len(v["prefix"]) != horizon:
            bad.append("substitution")
        if len(point.left) < horizon or len(point.right) < horizon:
            bad.append("prefix_suffix")
        if any(p >= self.constants[v["key"]] for p in v["probes"]):
            bad.append("bounds")
        if v["disc"] > 3 * gamma.max_abs:
            bad.append("limitdist")
        return bad


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def _inline(sub: Substitution) -> str:
    return "; ".join(f"{sub.symbols[a]}: {sub.render(img)}" for a, img in enumerate(sub.images))


class Structure(Family):
    """In-process CLI commands with stdout captured.

    Each cycle runs ``analyze``, ``automaton``, ``prefix-suffix`` and one
    ``classify`` on each of twist2, sync3 and three random two-letter
    substitutions with eigenvalue 1 (A3's generator, lengths 3, 5 and 7),
    then ``salem`` and ``gallery``.  ``classify`` takes one digit or a block
    of digits, in turn from cycle to cycle.
    """

    name = "structure"
    unit = "commands"
    subs_per_cycle = ("twist2", "sync3", 3, 5, 7)
    slots = tuple(
        (i, cmd)
        for i in range(5)
        for cmd in ("analyze", "automaton", "prefix-suffix", "classify")
    ) + ((None, "salem"), (None, "gallery"))
    default_sizes = {"salem_n_max": 50, "random_subs_per_length": 4, "block_lengths": (2, 4)}

    def __init__(self, seed, tracer, sizes=None, gallery_dir=None):
        super().__init__(seed, tracer, sizes)
        self.gallery_dir = gallery_dir
        self.pool: dict = {"twist2": [TWIST2], "sync3": [SYNC3]}
        rng = self.rng(-1, "pool")
        for k in (1, 2, 3):
            texts = []
            for _ in range(self.sizes["random_subs_per_length"]):
                image = [0] * (k + 1) + [1] * k
                rng.shuffle(image)
                with self.tr.span("substitution.eigen"):
                    sub = Substitution.from_words([image, [1 - x for x in image]])
                    gamma = eigenvector_for(matrix_of(sub), 1)
                if gamma is None:
                    raise RuntimeError("A3 generator gave no eigenvalue 1")
                texts.append(_inline(sub))
            self.pool[2 * k + 1] = texts

    def argv(self, cycle: int, slot: int) -> list[str]:
        index, cmd = self.slots[slot]
        if cmd == "salem":
            return ["salem", "--n-max", str(self.sizes["salem_n_max"]), "--table"]
        if cmd == "gallery":
            return ["gallery", "--out", str(self.gallery_dir)]
        kind = self.subs_per_cycle[index]
        text = self.rng(cycle, f"sub{index}").choice(self.pool[kind])
        d = {"twist2": 3, "sync3": 2}.get(kind, kind)
        rng = self.rng(cycle, slot)
        den = rng.randint(1, 4)
        t = Fraction(rng.randint(1, d * den - 1), den)
        inline = ["--inline", text.replace("\n", "; ")]
        if cmd == "analyze":
            return ["analyze", *inline]
        if cmd == "automaton":
            return ["automaton", *inline, "--tau", str(rng.randrange(d)), "--format", "dot"]
        if cmd == "prefix-suffix":
            return ["prefix-suffix", *inline]
        if (cycle + index) % 2 == 0:
            return ["classify", *inline, "--tau", str(rng.randrange(d)), "--t", str(t)]
        lo, hi = self.sizes["block_lengths"]
        block = [str(rng.randrange(d)) for _ in range(rng.randint(lo, hi))]
        return ["classify", *inline, "--block", ",".join(block), "--t", str(t)]

    def op(self, cycle, slot):
        argv = self.argv(cycle, slot)
        stdout, stderr = io.StringIO(), io.StringIO()
        with self.tr.span(f"cli.{argv[0]}") as counts:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        text = stdout.getvalue()
        counts["bytes_out"] = len(text.encode())
        return Outcome(1, {"argv": argv, "code": code, "stdout": text}, text.encode())

    def check(self, out):
        v = out.value
        return [] if v["code"] == 0 and _cli_output_ok(v["argv"][0], v["stdout"]) else ["cli"]


def _cli_output_ok(cmd: str, text: str) -> bool:
    try:
        if cmd == "automaton":
            return text.startswith("digraph") and text.rstrip().endswith("}")
        if cmd == "gallery":
            lines = text.strip().splitlines()
            return lines[-1].startswith("gallery: PASS") and all(
                ln.startswith("PASS") for ln in lines[:-1]
            )
        if cmd == "salem":
            doc = json.loads(text[text.index("\n{") + 1 :])
            return doc["all_salem"] is True
        doc = json.loads(text)
        if cmd == "classify":
            return all(c["expected_payoff"] == "0" for c in doc["classes"])
        return isinstance(doc, dict)
    except (ValueError, KeyError, IndexError):
        return False


class Workload:
    """The cycles of several families run one after the other in one process."""

    def __init__(self, name: str, families: list[Family]):
        self.name = name
        self.families = {f.name: f for f in families}
        self.slots = tuple((f.name, s) for f in families for s in range(len(f.slots)))
        self.seed = families[0].seed

    @property
    def tr(self):
        return next(iter(self.families.values())).tr

    @tr.setter
    def tr(self, tracer):
        for family in self.families.values():
            family.tr = tracer

    @property
    def sizes(self) -> dict:
        return {name: f.sizes for name, f in self.families.items()}

    def op(self, cycle: int, slot: int) -> Outcome:
        name, family_slot = self.slots[slot]
        out = self.families[name].op(cycle, family_slot)
        out.family = name
        return out

    def check(self, out: Outcome) -> list[str]:
        return self.families[out.family].check(out)


# exact and Monte Carlo laws share the law layers; orbit probes and CLI
# commands share none of them and use no law kernel
WORKLOADS = {"laws": (ExactLaw, McLaw), "symbolic": (OrbitProbes, Structure)}
