#!/usr/bin/env python3
"""Held-out-seed test of the simulator benchmark.

Run from the root of a checkout (takes about a minute after the build):

    python3 perfbench/test_perfbench.py

At a seed that was not used while the benchmark was written it checks,
for every workload, that:
  - the apps of every cell are the documented ones, but the traces the
    seed generates differ from the default seed's in every benign core
    slot (attack slots replay the same aggressor pattern at any seed);
  - a traced run passes every output check (default-seed cells equal
    the golden or reference, traced passes equal untraced ones, and the
    oracle-off variant changes only oracle fields) and reports every
    per-layer metric named in BENCHMARK.json;
  - an untraced run reports every end-to-end metric.
Per-layer and end-to-end metric sets must match BENCHMARK.json exactly.
"""

import json
import os
import subprocess
import sys

HELD_OUT_SEED = 7919
DEFAULT_SEED = 1


def is_attack(app):
    """Attack slots replay fixed aggressor patterns at every seed."""
    return app == "rowhammer.double" or app.startswith("attack:")


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return out.returncode, result


def inputs(workload, seed):
    binary = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                          "perfbench", "bh_perfbench")
    out = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                          "--inputs"], stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(out.stdout)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        code, traced = bench(w, HELD_OUT_SEED, 1)
        expect(code == 0 and traced["correct"] and traced["failed"] == 0,
               f"{w}: traced run at seed {HELD_OUT_SEED} passes its checks "
               f"({traced['failed']} of {traced['attempted']} cells failed)")
        names = {m["name"] for m in spec["per_layer"]}
        expect(set(traced["metrics"]) == names,
               f"{w}: exactly the per-layer metrics reported "
               f"(differing: {sorted(names ^ set(traced['metrics']))})")

        default, held = inputs(w, DEFAULT_SEED), inputs(w, HELD_OUT_SEED)
        expect(default.keys() == held.keys(), f"{w}: same cells")
        for cell, slots in held.items():
            base = default[cell]
            expect([s["app"] for s in slots] == [s["app"] for s in base],
                   f"{w}/{cell}: same apps")
            expect(all(a["digest"] != b["digest"]
                       for a, b in zip(slots, base) if not is_attack(a["app"])),
                   f"{w}/{cell}: every benign slot's trace differs from the "
                   f"default seed's")

    code, untraced = bench(spec["workloads"][0]["name"], HELD_OUT_SEED, 0)
    names = {m["name"] for m in spec["end_to_end"]}
    expect(code == 0 and set(untraced["metrics"]) == names,
           f"untraced run reports exactly the end-to-end metrics "
           f"(differing: {sorted(names ^ set(untraced['metrics']))})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
