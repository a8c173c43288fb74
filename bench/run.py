#!/usr/bin/env python3
"""Benchmark of subshift-lab: closed-loop workloads, one caller each.

Run from the repository root:

    python3 bench/run.py                       # every workload, one process each
    python3 bench/run.py --workload laws --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload symbolic --seed 1 --trace 1

Two workloads cover four operation families (see ``workloads.py``):

    laws       exact-law  ``dist --exact``: exact laws at checkpoints
               mc-law     ``dist`` in Monte Carlo mode, with goodness of fit
    symbolic   orbit-probes  one symbolic point: prefix, window, liminf
                             probes, word/chain check
               structure     in-process CLI commands

One process runs one workload with one thread: each operation starts only
when the previous one has returned.  Inputs come only from ``--seed``.  Every
operation's output is checked after its timer stops; an operation that
raises or fails a check counts in ``failed`` and the run goes on.

``--trace 0`` runs operations for ``--seconds`` of operation time, in whole
cycles, and reports the end-to-end metrics:

    setup_s      median over fresh processes of the time from process start
                 to the first operation being ready (imports, parsing,
                 eigenvectors, shared constants)
    op_p50_s     median wall time of one operation
    op_tail_s    wall time with exactly 10 operations slower than it (its
                 percentile and the operation count are printed)
    work_per_s   operations that passed their check per second of
                 operation time; each family's throughput in its own unit
                 (law steps, sample-steps, letters, commands) is printed
    peak_rss_mb  ru_maxrss of the workload process at exit

The failure ratio is ``failed / attempted`` on the result line.

``--trace 1`` runs a fixed number of cycles, each once untraced and once
with spans around every call into the library, so counts repeat exactly for
a seed; ``--seconds`` does not apply to it.  It reports per-layer self time
(``.busy_s``), calls and counts, failures per module, the tracing overhead
(traced against untraced operation time) and the share of operation time the
spans cover, checks each family's dominant span against its prediction, and
writes the spans as JSON lines.

Result files, span files and scratch output go to ``bench/results/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# one thread per workload process; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SUBSHIFT_LAB_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "results"

WORKLOAD_NAMES = ("laws", "symbolic")
RUN_SECONDS = 50
MIN_CYCLES = 2  # every run completes these; the output digest covers them
TRACE_CYCLES = {"laws": 4, "symbolic": 8}
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "ops/s",
    "peak_rss_mb": "MiB",
}

CLI_COMMANDS = ("analyze", "automaton", "prefix-suffix", "classify", "salem", "gallery")
MODULES = ("substitution", "prefix_suffix", "bounds", "limitdist", "markov", "cli")
PER_LAYER = {
    "substitution.eigen.busy_s": "s",
    "substitution.prefix.busy_s": "s",
    "substitution.prefix.letters": "count",
    "prefix_suffix.point.busy_s": "s",
    "prefix_suffix.point.calls": "count",
    "prefix_suffix.point.letters": "count",
    "bounds.constant.busy_s": "s",
    "bounds.probe.busy_s": "s",
    "bounds.probe.letters": "count",
    "limitdist.words.busy_s": "s",
    "limitdist.layers.busy_s": "s",
    "limitdist.layers.distinct_digits": "count",
    "markov.initial.busy_s": "s",
    "limitdist.exact.busy_s": "s",
    "limitdist.exact.steps": "count",
    "limitdist.exact.support_max": "count",
    "limitdist.mixture.busy_s": "s",
    "limitdist.mc.busy_s": "s",
    "limitdist.mc.sample_steps": "count",
    "limitdist.gof.busy_s": "s",
    **{
        f"cli.{cmd}.{key}": unit
        for cmd in CLI_COMMANDS
        for key, unit in (("busy_s", "s"), ("calls", "count"), ("bytes_out", "B"))
    },
    **{f"{module}.failed": "count" for module in MODULES},
    "trace.overhead_ratio": "1",
    "trace.coverage_ratio": "1",
}

# The span expected to take most of each family's operation time, written
# down before measuring.  A span counts towards the prediction when its name
# starts with one of the prefixes.
PREDICTED_DOMINANT = {
    "exact-law": ("limitdist.exact",),
    "mc-law": ("limitdist.mc",),
    "orbit-probes": ("prefix_suffix.point", "substitution.prefix"),
    "structure": ("cli.",),
}


def import_workloads():
    """Import the library from this checkout's ``src`` and the workloads."""
    if not (SRC / "subshift_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no library sources under {SRC}")
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import subshift_lab
    import workloads

    if Path(subshift_lab.__file__).resolve().parent != SRC / "subshift_lab":
        raise SystemExit(f"bench: imported subshift_lab from {subshift_lab.__file__}")
    return workloads


class Tally:
    """Operation times, failures and the output digest of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.passed = 0
        self.families: dict[str, dict] = {}
        self.failed_modules: dict[str, int] = {}
        self.failures: list[dict] = []
        self.sha = hashlib.sha256()

    def record(self, family, seconds, work):
        self.times.append(seconds)
        stats = self.families.setdefault(family, {"ops": 0, "seconds": 0.0, "work": 0})
        stats["ops"] += 1
        stats["seconds"] += seconds
        stats["work"] += work

    def fail(self, cycle, slot, modules, detail):
        for module in modules:
            self.failed_modules[module] = self.failed_modules.get(module, 0) + 1
        self.failures.append({"cycle": cycle, "slot": slot, "modules": modules, "detail": detail})


def run_op(wl, cycle, slot, tally):
    """One timed operation, then its check outside the timed region."""
    tracer = wl.tr
    op_id = cycle * len(wl.slots) + slot
    family = wl.slots[slot][0]
    tracer.op = op_id
    start = perf_counter()
    try:
        with tracer.span("op"):
            out = wl.op(cycle, slot)
    except Exception as exc:
        tally.record(family, perf_counter() - start, 0)
        # the innermost span the exception left names the module; "op" is ours
        raised = [r["name"] for r in getattr(tracer, "spans", ()) if r["op"] == op_id and r["failed"]]
        module = raised[0].split(".", 1)[0] if raised else "unattributed"
        tally.fail(cycle, slot, ["bench" if module == "op" else module], f"{type(exc).__name__}: {exc}")
        return
    elapsed = perf_counter() - start
    try:
        bad, detail = wl.check(out), "check failed"
    except Exception as exc:  # output too malformed to check
        bad, detail = ["unattributed"], f"check raised {type(exc).__name__}: {exc}"
    tally.record(family, elapsed, 0 if bad else out.work)
    if bad:
        tally.fail(cycle, slot, bad, detail)
    else:
        tally.passed += 1
    if cycle < MIN_CYCLES:
        tally.sha.update(len(out.digest).to_bytes(8, "little") + out.digest)


def run_cycle(wl, cycle, tally):
    for slot in range(len(wl.slots)):
        run_op(wl, cycle, slot, tally)


def tail(times):
    """The time with exactly TAIL_BEYOND operations beyond it, and its percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_setup(name, seed, repeats):
    """Median time from spawning a fresh workload process to its first op being ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(repeats):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process for {name} failed with code {code}")
        times.append(elapsed)
    return statistics.median(times), times


def make_workload(workloads, name, families, seed, tracer, sizes, scratch):
    built = []
    for cls in families:
        extra = {"gallery_dir": scratch} if cls.name == "structure" else {}
        built.append(cls(seed, tracer, (sizes or {}).get(cls.name), **extra))
    return workloads.Workload(name, built)


def provenance(wl, seed):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": wl.sizes,
        "cycle": [f"{family}:{wl.families[family].slots[s]}" for family, s in wl.slots],
        "threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def measure(name, seed, seconds, trace, sizes=None, setup_repeats=SETUP_REPEATS, families=None):
    """Run one workload in this process and return its result document.

    ``families`` replaces the workload's family classes (the smoke test
    passes families that return wrong outputs).
    """
    workloads = import_workloads()
    from spans import NullTracer, Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        tracer = Tracer() if trace else NullTracer()
        tracer.op = "setup"
        started = perf_counter()
        wl = make_workload(
            workloads, name, families or workloads.WORKLOADS[name], seed, tracer, sizes, scratch
        )
        doc = {
            "workload": name,
            "trace": bool(trace),
            "inprocess_setup_s": perf_counter() - started,
            "provenance": provenance(wl, seed),
            "units": {f.name: f.unit for f in wl.families.values()},
        }
        if trace:
            doc.update(_traced(wl, NullTracer(), tracer))
        else:
            doc.update(_untraced(wl, seconds, setup_repeats))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not trace:
        doc["metrics"]["peak_rss_mb"] = {"value": doc["peak_rss_mb"], "unit": "MiB"}
    return doc


def _summary(tallies):
    times = [t for tally in tallies for t in tally.times]
    failures = [f for tally in tallies for f in tally.failures]
    return {
        "attempted": len(times),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(times),
        "failures": failures[:20],
        "sha256": tallies[0].sha.hexdigest(),
        "digest_cycles": MIN_CYCLES,
        "families": tallies[0].families,
    }


def _untraced(wl, seconds, setup_repeats):
    tally = Tally()
    cycle = 0
    while cycle < MIN_CYCLES or sum(tally.times) < seconds:
        run_cycle(wl, cycle, tally)
        cycle += 1
    setup_median, setup_times = measure_setup(wl.name, wl.seed, setup_repeats)
    tail_s, tail_pct = tail(tally.times)
    return {
        **_summary([tally]),
        "cycles": cycle,
        "op_times_s": tally.times,
        "setup_times_s": setup_times,
        "tail_percentile": tail_pct,
        "metrics": {
            "setup_s": {"value": setup_median, "unit": "s"},
            "op_p50_s": {"value": statistics.median(tally.times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "work_per_s": {"value": tally.passed / sum(tally.times), "unit": "ops/s"},
        },
    }


def _traced(wl, null, tracer):
    """Each cycle runs untraced and traced on the same inputs, in turn first."""
    plain, traced = Tally(), Tally()
    cycles = TRACE_CYCLES[wl.name]
    for cycle in range(cycles):
        passes = [(null, plain), (tracer, traced)]
        for tr, tally in passes if cycle % 2 == 0 else passes[::-1]:
            wl.tr = tr
            run_cycle(wl, cycle, tally)
    agg = tracer.aggregate()
    metrics = {name: {"value": agg.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    for module in MODULES:
        metrics[f"{module}.failed"]["value"] = traced.failed_modules.get(module, 0)
    op_total = sum(traced.times)
    metrics["trace.overhead_ratio"]["value"] = op_total / sum(plain.times) - 1
    metrics["trace.coverage_ratio"]["value"] = 1 - agg["op.busy_s"] / op_total
    spans_path = OUT / f"{wl.name}-seed{wl.seed}-spans.jsonl"
    tracer.write_jsonl(spans_path)
    return {
        **_summary([plain, traced]),
        "cycles": cycles,
        "dominant": {family: _dominant(wl, tracer, family, traced) for family in wl.families},
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def _dominant(wl, tracer, family, tally):
    """Self time per span within one family's operations, against the prediction."""

    def in_family(rec):
        return isinstance(rec["op"], int) and wl.slots[rec["op"] % len(wl.slots)][0] == family

    agg = tracer.aggregate(keep=in_family)
    op_time = tally.families[family]["seconds"]
    predicted = PREDICTED_DOMINANT[family]
    label = "+".join(p + "*" if p.endswith(".") else p for p in predicted)
    groups: dict[str, float] = {}
    for key, seconds in agg.items():
        span = key[: -len(".busy_s")]
        if key.endswith(".busy_s") and span != "op":
            group = label if span.startswith(predicted) else span
            groups[group] = groups.get(group, 0.0) + seconds
    top = max(groups, key=groups.get)
    return {
        "span": top,
        "share": groups[top] / op_time,
        "coverage": 1 - agg["op.busy_s"] / op_time,
        "predicted": label,
        "matches": top == label,
        "busy_s": dict(sorted(groups.items(), key=lambda kv: -kv[1])),
    }


def result_line(doc):
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }


def report(doc):
    """Human-readable lines for one workload's result."""
    lines = [
        f"workload {doc['workload']}  seed {doc['provenance']['seed']}  "
        f"{doc['attempted']} ops in {doc['cycles']} cycles  "
        f"failed {doc['failed']}/{doc['attempted']} (fail_ratio {doc['fail_ratio']:.4g})"
    ]
    for name, m in doc["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{doc['tail_percentile']:.1f} of {doc['attempted']} ops, {TAIL_BEYOND} beyond)"
        elif name == "setup_s":
            note = f"  (median of {len(doc['setup_times_s'])} fresh processes)"
        lines.append(f"  {name:34s} {m['value']:<14.6g} {m['unit']}{note}")
    for family, stats in doc["families"].items():
        rate = stats["work"] / stats["seconds"]
        lines.append(
            f"  family {family:13s} {stats['ops']} ops  {rate:.6g} {doc['units'][family]}/s"
        )
    for family, dom in doc.get("dominant", {}).items():
        verdict = "matches" if dom["matches"] else "DOES NOT MATCH"
        lines.append(
            f"  family {family:13s} dominant span {dom['span']} ({dom['share']:.1%} of op time, "
            f"spans cover {dom['coverage']:.1%}) {verdict} the prediction {dom['predicted']}"
        )
    if doc["trace"]:
        lines.append(f"  spans written to {doc['spans_file']}")
    lines.append(f"  sha256 of deterministic outputs (first {MIN_CYCLES} cycles) {doc['sha256']}")
    for failure in doc["failures"]:
        lines.append(f"  FAILED cycle {failure['cycle']} slot {failure['slot']}: {failure['modules']} {failure['detail']}")
    return "\n".join(lines)


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from spans import NullTracer

        workloads = import_workloads()
        make_workload(workloads, args.workload, workloads.WORKLOADS[args.workload], args.seed,
                      NullTracer(), None, None)
        print("ready", flush=True)
        return 0
    doc = measure(args.workload, args.seed, args.seconds, args.trace)
    suffix = "-trace" if args.trace else ""
    (OUT / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(json.dumps(doc, indent=1, default=str))
    print(report(doc))
    print(json.dumps(result_line(doc)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
