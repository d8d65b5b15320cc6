#!/usr/bin/env python3
"""Steadiness mode of the scenario benchmark.

Runs every workload of BENCHMARK.json ten times per set, two sets, each
run through the benchmark's own command at the file's ``run_seconds``.
The workloads are interleaved round by round so that host drift hits all
of them alike; round r of set s runs at seed 10*s + r + 1. For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and the metric's bound, and how far the second
set's median moved, in the worse direction, from the first set's.

    python3 perfbench/steady.py

Run it from anywhere; it runs the command from the repository root. Every
run is a separate process, one at a time. It exits 1 if a run fails its
output check or a spread or a move exceeds its metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 10
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload][metric] -> values in round order
    results = []
    failed = 0
    for s in range(SETS):
        per_set = {n: {m["name"]: [] for m in metrics} for n in names}
        for r in range(ROUNDS):
            for name in names:
                res = run_once(bench, name, 10 * s + r + 1)
                if not res["correct"]:
                    failed += 1
                vals = {m: res["metrics"][m]["value"] for m in per_set[name]}
                for m, v in vals.items():
                    per_set[name][m].append(v)
                print(f"set {s} round {r} {name}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"pkts_per_s={vals['pkts_per_s']:.0f} setup_s={vals['setup_s']:.3g}",
                      file=sys.stderr, flush=True)
        results.append(per_set)

    print(f"{'workload':<16} {'metric':<20} {'set':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>7} {'bound':>6} {'drift':>7}  verdict")
    worst = "steady"
    for name in names:
        for m in metrics:
            first = None
            for s, per_set in enumerate(results):
                med, q1, q3, sp = spread(per_set[name][m["name"]])
                if first is None:
                    first = med
                    drift = 0.0
                else:
                    change = (med - first) / first
                    drift = -change if m["better"] == "higher" else change
                bound = m["bound"]
                if sp > bound or drift > bound:
                    verdict = "OUT OF BOUND"
                elif sp > bound / 3 or drift > bound / 3:
                    verdict = "within bound"
                else:
                    verdict = "steady"
                if ["steady", "within bound", "OUT OF BOUND"].index(verdict) > \
                        ["steady", "within bound", "OUT OF BOUND"].index(worst):
                    worst = verdict
                print(f"{name:<16} {m['name']:<20} {s:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {sp:>7.4f} {bound:>6.3f} {drift:>7.4f}  {verdict}")
    print(f"runs failing their output check: {failed}; overall: {worst}")
    return 1 if failed or worst == "OUT OF BOUND" else 0


if __name__ == "__main__":
    sys.exit(main())
