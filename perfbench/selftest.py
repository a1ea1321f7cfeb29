#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of the repository:

    python3 perfbench/selftest.py [workload ...]

It checks that:
- every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and is used
  once, and layer_map.json maps every per-layer metric to end-to-end
  metrics and workloads that exist;
- a run prints exactly the end-to-end metrics (--trace 0) or the
  per-layer metrics (--trace 1) of BENCHMARK.json, with their units;
- the same seed reproduces every simulated metric and the generated
  inputs exactly, and another seed changes the inputs.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Functions of the seed alone: they must repeat bit for bit. The host
# metrics (setup_s, txns_per_cpu_s, peak_heap_mb) need not.
SIMULATED = ["sim_ops_per_s", "sim_latency_p50_ms", "sim_latency_p99_ms",
             "committed_share", "outage_p90_ms"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    inputs = next((l.split()[1] for l in lines if l.startswith("inputs ")), None)
    check(proc.returncode == 0 and result.get("correct") is True,
          f"{workload} seed {seed} trace {trace}: runs correct, exit 0")
    return result, inputs


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)["per_layer"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    names = list(e2e) + list(layers) + workloads
    check(all(NAME.match(n) for n in names), "metric and workload names match [A-Za-z0-9_.-]+")
    check(len(names) == len(set(names)), "every name is used once")
    check(all(m["better"] in ("higher", "lower") for m in list(e2e.values()) + list(layers.values())),
          "every metric has a direction")
    check(set(layer_map) == set(layers), "layer_map.json covers exactly the per-layer metrics")
    pairs = [p for v in layer_map.values() for p in v["moves"] + [v["no_change"]]]
    check(all(m in e2e and w in workloads for m, w in pairs),
          "layer_map.json names only end-to-end metrics and workloads of BENCHMARK.json")

    for workload in sys.argv[1:] or workloads:
        a, inputs_a = run(workload, 1, 0)
        b, inputs_b = run(workload, 1, 0)
        _, inputs_c = run(workload, 2, 0)
        got = a.get("metrics", {})
        check(set(got) == set(e2e) and all(got[n]["unit"] == e2e[n]["unit"] for n in got),
              f"{workload}: --trace 0 prints the end-to-end metrics with their units")
        check(all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in SIMULATED),
              f"{workload}: the same seed repeats every simulated metric exactly")
        check(inputs_a is not None and inputs_a == inputs_b,
              f"{workload}: the same seed generates the same inputs")
        check(inputs_c is not None and inputs_c != inputs_a,
              f"{workload}: another seed generates other inputs")
        t, _ = run(workload, 1, 1)
        got = t.get("metrics", {})
        check(set(got) == set(layers) and all(got[n]["unit"] == layers[n]["unit"] for n in got),
              f"{workload}: --trace 1 prints the per-layer metrics with their units")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
