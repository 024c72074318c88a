#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny scale.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that each run prints
every metric of BENCHMARK.json by name with its unit, that no operation
fails, and that the deterministic counters of the traced run repeat
exactly across two runs. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Small inputs; serve-mixed sends a fixed number of jobs from its usual
# two clients, so what the server executes and stores does not depend on
# timing.
TINY = {
    "table1": ["--tiny", "--seconds", "1"],
    "serve-mixed": ["--seconds", "60", "--jobs", "40"],
}
DETERMINISTIC_PREFIXES = ("machine.", "core.degradations")
DETERMINISTIC = ("spmd.fast_iters", "spmd.slow_iters", "spmd.kernel_iters", "spmd.interp_iters",
                 "spmd.segments", "queue.executed", "cache.inserts")


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + TINY[workload]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {r.returncode}")
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(workload, trace, names):
    text, res = run(workload, trace)
    where = f"{workload} trace={trace}"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        sys.exit(f"FAIL {where}: correct={res['correct']} failed={res['failed']} of {res['attempted']}")
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != dict(names):
        sys.exit(f"FAIL {where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(dict(names)))}")
    for name, unit in names + [("failed_frac", "ratio")]:
        if not any(line.split()[1:2] == [name] and line.split()[-1] == unit for line in text):
            sys.exit(f"FAIL {where}: no printed line for {name} [{unit}]")
    if not any(line.split()[1:3] == ["failed_frac", "0"] for line in text):
        sys.exit(f"FAIL {where}: failed_frac is not 0")
    print(f"ok   {where}: {len(names)} metrics, {res['attempted']} operations checked")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    for w in bench["workloads"]:
        name = w["name"]
        check(name, 0, e2e)
        first = check(name, 1, layers)
        second = check(name, 1, layers)
        keys = [k for k in first if k.startswith(DETERMINISTIC_PREFIXES) or k in DETERMINISTIC]
        moved = [f"{k}: {first[k]} vs {second[k]}" for k in keys if first[k] != second[k]]
        if moved:
            sys.exit(f"FAIL {name}: deterministic counters differ between runs: {moved}")
        print(f"ok   {name}: {len(keys)} deterministic counters repeat exactly")
    print("selftest passed")


if __name__ == "__main__":
    main()
