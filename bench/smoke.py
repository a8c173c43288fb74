#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 bench/smoke.py

It runs every workload untraced and traced, checks the metric names and
units against ``BENCHMARK.json``, checks that traced counts repeat exactly
and that both modes hash the same outputs, and confirms that deliberately
wrong outputs (an exact law with mass other than 1, a probe at the liminf
constant) are counted as failures.  Exits 0 when every check holds.
"""

import json
import sys

import run

TINY = {
    "exact-law": {
        "wide_horizon": 8,
        "wide_checkpoints": (4, 8),
        "narrow_horizon": 20,
        "narrow_checkpoints": (10, 20),
    },
    "mc-law": {"n": 12, "samples": 2000},
    "orbit-probes": {"twist2_power": 6, "sync3_power": 9, "words_n": 4},
    "structure": {"salem_n_max": 5, "random_subs_per_length": 1, "block_lengths": (2, 2)},
}
SEED = 3


def units(doc):
    return {name: m["unit"] for name, m in doc["metrics"].items()}


def counts(doc):
    return {
        name: m["value"]
        for name, m in doc["metrics"].items()
        if m["unit"] in ("count", "B")
    }


def main():
    workloads = run.import_workloads()
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(run.END_TO_END == end_to_end, "run.END_TO_END matches BENCHMARK.json")
    expect(run.PER_LAYER == per_layer, "run.PER_LAYER matches BENCHMARK.json")
    expect(list(run.WORKLOAD_NAMES) == [w["name"] for w in bench["workloads"]],
           "workload names match BENCHMARK.json")
    expect(run.RUN_SECONDS == bench["run_seconds"], "default --seconds matches BENCHMARK.json")
    for name in run.WORKLOAD_NAMES:
        plain = run.measure(name, SEED, 0, trace=0, sizes=TINY, setup_repeats=1)
        expect(plain["failed"] == 0, f"{name}: no failures {plain['failures']}")
        expect(units(plain) == end_to_end, f"{name}: end-to-end names and units")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{name}: end-to-end values > 0")
        line = run.result_line(plain)
        expect(set(line) == {"correct", "attempted", "failed", "metrics"} and line["correct"],
               f"{name}: result line")
        traced = run.measure(name, SEED, 0, trace=1, sizes=TINY)
        again = run.measure(name, SEED, 0, trace=1, sizes=TINY)
        expect(traced["failed"] == 0, f"{name}: no failures when traced")
        expect(units(traced) == per_layer, f"{name}: per-layer names and units")
        expect(counts(traced) == counts(again), f"{name}: traced counts repeat exactly")
        expect(plain["sha256"] == traced["sha256"] == again["sha256"],
               f"{name}: traced and untraced runs hash the same outputs")

    class WrongMass(workloads.ExactLaw):
        def op(self, cycle, slot):
            out = super().op(cycle, slot)
            table = out.value["snaps"][-1].table
            table[next(iter(table))] += 1
            return out

    class ProbeAtConstant(workloads.OrbitProbes):
        def op(self, cycle, slot):
            out = super().op(cycle, slot)
            out.value["probes"][0] = self.constants[out.value["key"]]
            return out

    for name, families, module in (
        ("laws", (WrongMass, workloads.McLaw), "limitdist"),
        ("symbolic", (ProbeAtConstant, workloads.Structure), "bounds"),
    ):
        wrong = families[0]
        doc = run.measure(name, SEED, 0, trace=1, sizes=TINY, families=families)
        ops = doc["families"][wrong.name]["ops"]  # per pass
        expect(doc["failed"] == 2 * ops > 0 and not run.result_line(doc)["correct"],
               f"{wrong.__name__}: every wrong output counted as failed, no other")
        expect(doc["metrics"][f"{module}.failed"]["value"] == ops,
               f"{wrong.__name__}: failures attributed to {module}")
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
