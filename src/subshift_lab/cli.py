"""Command-line surface: analysis reports, graph exports, simulations.

Every command is deterministic given its flags (seeds included and always
echoed into the output); floats are serialized with fixed precision so
reruns are byte-identical.  JSON is the machine-readable format, DOT is for
graphs, CSV only for histograms.

One writer, ``_json``, turns every report into its JSON text in one
recursive pass: floats become strings of their ``.12g`` form, Fractions
strings, and the layout is ``json.dumps``'s with an indent of 2.  No copy of
the report is made first, and the pure-Python encoder that ``json.dumps``
falls back to whenever an indent is asked for is never run.

Errors have one boundary, ``main``: the commands and the library raise
``ValueError`` (``CliError`` here) for every input they reject, and ``main``
turns it, or an ``OSError`` from a path, into one JSON line
``{"error": msg}`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import gallery as gallery_mod
from . import limitdist as ld
from . import markov as mk
from . import salem as salem_mod
from .automata import build_simplified_automaton, build_tau_automaton, digit_chains
from .prefix_suffix import build_ps_automaton, sample_path_with_coverage
from .substitution import (
    Substitution,
    WeightVector,
    char_poly,
    constant_length,
    eigenvector_for,
    is_primitive,
    matrix_of,
    matrix_to_json,
    parse_substitution,
    parse_substitution_json,
    poly_to_json,
    poly_to_text,
    substitution_to_json,
)


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "") -> str:
    """``value`` as JSON text indented by two spaces per level, in one pass.

    The text is the one ``json.dumps`` writes with an indent of 2, except
    that a float is the string of its ``.12g`` form and a Fraction the
    string of ``str``; tuples are lists.  ``indent`` is where the value's
    closing bracket sits; its items sit two spaces deeper.  Raises
    ``TypeError`` where ``json.dumps`` does."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _encode_str(f"{value:.12g}")
    if isinstance(value, Fraction):
        return _encode_str(str(value))
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_json_key(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [inner + _json(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as ``json.dumps`` writes it: a string, or the quoted JSON
    text of an int, float, bool or None."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + json.dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def emit_text(text: str, out: Path | None, name: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
        print(f"wrote {out / name}")


def emit_json(doc: dict, out: Path | None, name: str) -> None:
    emit_text(_json(doc) + "\n", out, name)


class CliError(ValueError):
    """An input the command line rejects; ``main`` reports it like any other
    ``ValueError`` from the library."""


def load_substitution(args) -> Substitution:
    if args.inline and args.sub:
        raise CliError("use either --sub or --inline, not both")
    try:
        if args.inline:
            return parse_substitution(args.inline.replace(";", "\n"))
        if args.sub:
            text = Path(args.sub).read_text()
            if text.lstrip().startswith("{"):
                return parse_substitution_json(text)
            return parse_substitution(text)
    except ValueError as exc:
        raise CliError(f"cannot parse substitution: {exc}")
    raise CliError("a substitution is required (--sub FILE or --inline TEXT)")


def select_gamma(sub: Substitution, spec: str) -> WeightVector:
    m = matrix_of(sub)
    if spec == "auto":
        for theta in (1, -1):
            gamma = eigenvector_for(m, theta)
            if gamma is not None:
                return gamma
        raise CliError("no eigenvalue 1 or -1; pass --gamma explicitly")
    try:
        values = tuple(Fraction(part.strip()) for part in spec.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse --gamma: {exc}")
    if len(values) != sub.alphabet_size:
        raise CliError("--gamma needs one value per letter")
    image = [sum(Fraction(m[i][j]) * values[j] for j in range(len(values))) for i in range(len(values))]
    pivot = next((i for i, v in enumerate(values) if v != 0), None)
    if pivot is None:
        raise CliError("--gamma must be nonzero")
    theta = image[pivot] / values[pivot]
    if image != [theta * v for v in values]:
        raise CliError("--gamma is not an eigenvector of the occurrence matrix")
    return WeightVector(values, theta)


def parse_time(args, sub: Substitution):
    d = constant_length(sub)
    if d is None:
        raise CliError("this command needs a constant-length substitution")
    given = [x for x in (args.t, args.digits, args.random_digits) if x is not None]
    if len(given) > 1:
        raise CliError("use only one of --t, --digits, --random-digits")
    if args.random_digits is not None:
        return ld.time_expansion(sub, ld.RandomDigitStream(d, args.random_digits))
    if args.digits is not None:
        try:
            if ":" in args.digits:
                pre_text, per_text = args.digits.split(":", 1)
            else:
                pre_text, per_text = args.digits, ""
            pre = tuple(int(x) for x in pre_text.split(",") if x != "")
            per = tuple(int(x) for x in per_text.split(",") if x != "")
        except ValueError as exc:
            raise CliError(f"cannot parse --digits: {exc}")
        return ld.time_expansion(sub, ld.DigitStream(d, pre, per))
    text = args.t if args.t is not None else "1"
    try:
        return ld.time_expansion(sub, Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse --t: {exc}")


def parse_horizons(text: str, many: bool = False) -> list[int]:
    """--n as one positive integer, or (with ``many``) a comma list of them."""
    parts = text.split(",")
    try:
        values = [int(part) for part in parts]
    except ValueError:
        values = []
    if not values or min(values) < 1 or (len(values) > 1 and not many):
        kind = "a positive integer or a comma list of them" if many else "a positive integer"
        raise CliError(f"--n must be {kind}, got {text!r}")
    return values


# Monte Carlo peaks near 57 bytes per sample: the cap is about 0.6 GB
MAX_SAMPLES = 10**7


def check_samples(samples: int) -> None:
    if not 1 <= samples <= MAX_SAMPLES:
        raise CliError(f"--samples must lie in 1..{MAX_SAMPLES}, got {samples}")


def add_sub_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sub", help="substitution file (line format or JSON)")
    p.add_argument("--inline", help="inline substitution, e.g. '1: 112; 2: 221'")
    p.add_argument("--gamma", default="auto", help="'auto' or comma-separated rationals")


def add_time_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", help="rational time parameter in (0, d)")
    p.add_argument("--digits", help="digit stream 'pre,period' as 'a,b:c,d'")
    p.add_argument("--random-digits", type=int, metavar="SEED", help="seeded uniform digits")


def add_out_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=Path, help="output directory (default: stdout)")
    p.add_argument("--format", choices=("json", "dot", "csv"), default="json")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    sub = load_substitution(args)
    m = matrix_of(sub)
    poly = char_poly(m)
    report = {
        "substitution": substitution_to_json(sub),
        "matrix": matrix_to_json(m),
        "char_poly": poly_to_json(poly),
        "char_poly_text": poly_to_text(poly),
        "primitive": is_primitive(sub),
        "constant_length": constant_length(sub),
    }
    if not report["primitive"]:
        report["warning"] = "substitution is not primitive"
    for theta in (1, -1):
        gamma = eigenvector_for(m, theta)
        key = "eigenvector_theta_1" if theta == 1 else "eigenvector_theta_minus_1"
        report[key] = [str(v) for v in gamma.values] if gamma else None
        if gamma:
            report[f"liminf_constant_theta_{'1' if theta == 1 else 'minus_1'}"] = str(
                bounds_mod.liminf_constant(sub, gamma)
            )
    emit_json(report, args.out, "analyze.json")
    return 0


def cmd_automaton(args) -> int:
    sub = load_substitution(args)
    if constant_length(sub) is None:
        raise CliError("digit automata need a constant-length substitution")
    gamma = select_gamma(sub, args.gamma)
    if args.simplified:
        chain = build_simplified_automaton(sub, gamma)
        tau, name = 0, "automaton-simplified"
    else:
        chain = build_tau_automaton(sub, gamma, args.tau)
        tau, name = args.tau, f"automaton-tau{args.tau}"
    if args.format == "dot":
        emit_text(chain.to_dot(graph="automaton"), args.out, f"{name}.dot")
        return 0
    form = chain.integer_form
    edges = [
        {"source": s, "m": m, "target": t, "payoff": Fraction(v, form.lattice)}
        for s, row in enumerate(form.rows)
        for m, (t, _, v) in enumerate(row, start=1)
    ]
    doc = {"tau": tau, "simplified": args.simplified, "states": chain.state_labels, "edges": edges}
    emit_json(doc, args.out, f"{name}.json")
    return 0


def cmd_ps(args) -> int:
    sub = load_substitution(args)
    automaton = build_ps_automaton(sub)
    if args.format == "dot":
        emit_text(automaton.to_dot(), args.out, "prefix-suffix.dot")
    else:
        emit_json(automaton.to_json(), args.out, "prefix-suffix.json")
    return 0


def cmd_classify(args) -> int:
    sub = load_substitution(args)
    if constant_length(sub) is None:
        raise CliError("chain classification needs a constant-length substitution")
    gamma = select_gamma(sub, args.gamma)
    if args.block is not None:
        try:
            digits = [int(x) for x in args.block.split(",")]
        except ValueError as exc:
            raise CliError(f"cannot parse --block: {exc}")
        chain = mk.compose(*digit_chains(sub, gamma, digits))
        name = "chain-block-" + "-".join(str(x) for x in digits)
    elif args.simplified:
        chain = build_simplified_automaton(sub, gamma)
        name = "chain-simplified"
    else:
        chain = build_tau_automaton(sub, gamma, args.tau)
        name = f"chain-tau{args.tau}"
    initial = None
    if is_primitive(sub) and not args.simplified:
        plan = parse_time(args, sub)
        init = mk.initial_distribution(sub, gamma, plan.tau0)
        initial = mk.initial_state_indices(chain, init)
    if args.format == "dot":
        classes = mk.recurrent_classes(chain)
        emit_text(chain.to_dot(classes), args.out, f"{name}.dot")
    else:
        emit_json(mk.chain_report(chain, initial), args.out, f"{name}.json")
    return 0


def cmd_bounds(args) -> int:
    if args.points < 1:
        raise CliError(f"--points must be >= 1, got {args.points}")
    if args.horizon is not None and args.horizon < 1:
        raise CliError(f"--horizon must be >= 1, got {args.horizon}")
    sub = load_substitution(args)
    gamma = select_gamma(sub, args.gamma)
    c = bounds_mod.liminf_constant(sub, gamma)
    d = max(len(img) for img in sub.images)
    horizon = args.horizon if args.horizon is not None else d**8
    probes = []
    worst = Fraction(0)
    for k in range(args.points):
        seed = args.seed + k
        path = sample_path_with_coverage(sub, seed, min_right=horizon, min_left=horizon)
        fwd = bounds_mod.census_probe(sub, gamma, path, horizon)
        rev = bounds_mod.census_probe(sub, gamma, path, horizon, reverse=True)
        worst = max(worst, fwd, rev)
        probes.append({"seed": seed, "forward": str(fwd), "reverse": str(rev)})
    report = {
        "C": str(c),
        "horizon": horizon,
        "probes": probes,
        "max_probe": str(worst),
        "all_below_C": worst < c,
    }
    emit_json(report, args.out, "bounds.json")
    return 0 if worst < c else 1


def _histogram_csv(pairs) -> str:
    lines = ["value,mass"]
    for value, mass in pairs:
        lines.append(f"{value:.12g},{mass:.12g}")
    return "\n".join(lines) + "\n"


def _sample_histogram(sample: ld.EmpiricalSample) -> list[tuple]:
    """(value, share of the samples) per distinct sample value, ascending."""
    uniq, counts = np.unique(sample.scaled, return_counts=True)
    return [(v / sample.lattice, c / len(sample)) for v, c in zip(uniq, counts)]


def cmd_simulate(args) -> int:
    check_samples(args.samples)
    sub = load_substitution(args)
    gamma = select_gamma(sub, args.gamma)
    (n,) = parse_horizons(args.n)
    plan = parse_time(args, sub)
    layers = ld.layer_chains(sub, gamma, plan, n)
    init = mk.initial_distribution(sub, gamma, plan.tau0)
    sample = ld.monte_carlo(layers, init, n, args.samples, args.seed)
    moments = ld.sample_moments(sample)
    report = {
        "t": plan.describe(),
        "n": n,
        "samples": args.samples,
        "seed": args.seed,
        **moments,
    }
    if args.format == "csv":
        emit_text(_histogram_csv(_sample_histogram(sample)), args.out, "simulate-hist.csv")
    emit_json(report, args.out, "simulate.json")
    return 0


def cmd_dist(args) -> int:
    check_samples(args.samples)
    sub = load_substitution(args)
    gamma = select_gamma(sub, args.gamma)
    n_values = sorted(parse_horizons(args.n, many=True))
    plan = parse_time(args, sub)
    report: dict = {"t": plan.describe(), "n": n_values if len(n_values) > 1 else n_values[0]}
    if len(n_values) == 1:
        # the exact growth path reads neither the seed nor the mode
        report["seed"] = args.seed
        report["mode"] = "exact" if args.exact else "mc"
    prediction = None
    if plan.eventually_periodic:
        prediction = ld.mixture_prediction(sub, gamma, plan)
        report["prediction"] = prediction.density_description()
    if len(n_values) > 1:
        growth = ld.variance_growth(sub, gamma, plan, n_values)
        report["variances"] = list(growth.variances)
        report["slope"] = growth.slope
        report["method"] = "exact"
        emit_json(report, args.out, "dist.json")
        return 0
    n = n_values[0]
    layers = ld.layer_chains(sub, gamma, plan, n)
    init = mk.initial_distribution(sub, gamma, plan.tau0)
    if args.exact:
        dist = ld.exact_sum_distribution(layers, init, n)
        report["V_n"] = str(dist.variance())
        marginal = dist.sum_marginal()
        pairs = [(s / dist.lattice, float(p)) for s, p in marginal.items()]
        if args.format == "csv":
            emit_text(_histogram_csv(pairs), args.out, f"dist-exact-n{n}.csv")
    else:
        sample = ld.monte_carlo(layers, init, n, args.samples, args.seed)
        report["samples"] = args.samples
        report["V_n"] = float(np.var(sample.values))
        if prediction is not None:
            gof = ld.gof_test(sample, prediction)
            report["KS_continuous"] = gof.ks_continuous
            if gof.window is not None:
                report["window"] = list(gof.window)
                report["window_mass_empirical"] = gof.window_mass_empirical
                report["window_mass_predicted"] = gof.window_mass_predicted
        if args.format == "csv":
            emit_text(_histogram_csv(_sample_histogram(sample)), args.out, f"dist-mc-n{n}.csv")
    emit_json(report, args.out, "dist.json")
    return 0


def cmd_salem(args) -> int:
    if args.n_max < 1:
        raise CliError(f"--n-max must be >= 1, got {args.n_max}")
    reports = [salem_mod.salem_check(n) for n in range(1, args.n_max + 1)]
    doc = [r.to_json() for r in reports]
    if args.table:
        rows = ["  n  salem  s            t            char poly"]
        for r in reports:
            rows.append(
                f"{r.n:3d}  {'PASS' if r.salem else 'FAIL'}   {r.s_value:<11.8f}  "
                f"{r.t_value:<11.8f}  {poly_to_text(r.poly)}"
            )
        emit_text("\n".join(rows) + "\n", args.out, "salem.txt")
    emit_json({"reports": doc, "all_salem": all(r.salem for r in reports)}, args.out, "salem.json")
    return 0 if all(r.salem for r in reports) else 1


def cmd_gallery(args) -> int:
    entries = gallery_mod.run_gallery()
    out = args.out or Path(".")
    rows = []
    all_ok = True
    for entry in entries:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{entry.name}.dot").write_text(entry.chain.to_dot(entry.classes))
        for check in entry.checks:
            rows.append(
                f"{'PASS' if check.passed else 'FAIL'}  {entry.name:15s} {check.claim}"
                + (f"  [{check.detail}]" if check.detail else "")
            )
            all_ok &= check.passed
    print("\n".join(rows))
    print(f"gallery: {'PASS' if all_ok else 'FAIL'} ({len(entries)} configurations)")
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so in-process callers of ``main`` share it."""
    parser = argparse.ArgumentParser(
        prog="subshift-lab",
        description="exact and stochastic analysis of substitution ergodic sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="matrix, char poly, eigenvectors, liminf constant")
    add_sub_flags(p)
    add_out_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("automaton", help="build a digit automaton (DOT/JSON)")
    add_sub_flags(p)
    add_out_flags(p)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--simplified", action="store_true")
    p.set_defaults(fn=cmd_automaton)

    p = sub.add_parser("prefix-suffix", help="export the prefix-suffix automaton")
    add_sub_flags(p)
    add_out_flags(p)
    p.set_defaults(fn=cmd_ps)

    p = sub.add_parser("classify", help="recurrent classes, coboundary, variances")
    add_sub_flags(p)
    add_out_flags(p)
    add_time_flags(p)
    p.add_argument("--tau", type=int, default=0)
    p.add_argument("--simplified", action="store_true")
    p.add_argument("--block", help="comma-separated digit block for the composed chain")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("bounds", help="liminf constant and orbit probes")
    add_sub_flags(p)
    add_out_flags(p)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--horizon", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("simulate", help="Monte Carlo sample of accumulated payoffs")
    add_sub_flags(p)
    add_out_flags(p)
    add_time_flags(p)
    p.add_argument("--n", default="100", help="horizon (positive integer)")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("dist", help="exact or Monte Carlo law of the sums")
    add_sub_flags(p)
    add_out_flags(p)
    add_time_flags(p)
    p.add_argument("--n", default="100", help="horizon, or comma list for growth")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exact law instead of Monte Carlo")
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("salem", help="verify the interval-exchange family")
    add_out_flags(p)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--table", action="store_true")
    p.set_defaults(fn=cmd_salem)

    p = sub.add_parser("gallery", help="re-derive the four reference configurations")
    p.add_argument("--out", type=Path)
    p.set_defaults(fn=cmd_gallery)

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    This is the one error boundary: a ``ValueError`` (every input the
    commands or the library reject) or an ``OSError`` (an unreadable or
    unwritable path) becomes one JSON line ``{"error": msg}`` on stderr and
    ``SystemExit(2)``, the code argparse uses for a bad command line.
    Anything else is a bug and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
