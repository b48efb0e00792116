#!/usr/bin/env python3
"""Checks that the benchmark repeats: two interleaved sets of runs of one build.

    python3 perfbench/steadiness.py [--runs 10] [--workloads serve_paper,...]
                                    [--seconds S]

Run from the root of a checkout. Runs are interleaved (A1 B1 A2 B2 ...),
every run with its own seed (set A: 1..N, set B: 1001..1000+N). For every
workload and end-to-end metric it prints each set's median and quartiles
and the spread (interquartile range over median), then whether the sets
agree within BENCHMARK.json's bounds:
  * each set's spread is within the metric's bound;
  * the two medians differ by no more than the bound, either way;
  * a metric with a zero bound reads the same on every run of both sets;
  * the share of failed operations is the same in both sets.
Exits 1 when any check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for set_name, seed in (("A", 1 + i), ("B", 1001 + i)):
            for workload in workloads:
                started = time.monotonic()
                result = run_once(workload, seed, args.seconds)
                wall = time.monotonic() - started
                results[(workload, set_name)].append(result)
                print(f"run {i + 1}/{args.runs} set {set_name} {workload} "
                      f"seed {seed}: attempted {result['attempted']} "
                      f"failed {result['failed']} ({wall:.1f} s)", flush=True)

    ok = True
    for workload in workloads:
        print(f"\n== {workload}")
        shares = {}
        for set_name in "AB":
            runs = results[(workload, set_name)]
            shares[set_name] = (sum(r["failed"] for r in runs),
                                sum(r["attempted"] for r in runs))
        fa, aa = shares["A"]
        fb, ab = shares["B"]
        same_share = fa * ab == fb * aa
        ok &= same_share and all(r["correct"] for s in "AB"
                                 for r in results[(workload, s)])
        print(f"failed share: A {fa}/{aa}  B {fb}/{ab}  "
              f"{'same' if same_share else 'DIFFERENT'}")
        print(f"{'metric':32} {'set':3} {'q1':>14} {'median':>14} "
              f"{'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bound = metric["bound"]
            medians = {}
            every = set()
            verdicts = []
            for set_name in "AB":
                values = [r["metrics"][name]["value"]
                          for r in results[(workload, set_name)]]
                every.update(values)
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians[set_name] = med
                if spread > bound:
                    verdicts.append(f"spread {set_name} over bound")
                print(f"{name:32} {set_name:3} {q1:14.6g} {med:14.6g} "
                      f"{q3:14.6g} {spread:8.4f} {bound:>6}")
            if bound == 0 and len(every) > 1:
                verdicts.append(f"{len(every)} different values")
            change = (abs(medians["B"] - medians["A"]) / medians["A"]
                      if medians["A"] else float(medians["B"] != 0))
            if change > bound:
                verdicts.append(f"medians differ by {change:.4f}")
            ok &= not verdicts
            print(f"{'':32} {'':3} -> {'; '.join(verdicts) or 'agree'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
