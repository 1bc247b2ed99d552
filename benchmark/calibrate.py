#!/usr/bin/env python3
"""Noise calibration for the benchmark.

Runs each workload once per seed, back to back, with the command and run
length BENCHMARK.json declares, and prints for every end-to-end metric the
median of the per-run values and their spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median.  Run it several times to compare sets; --seeds 0x10 repeats seed 0
ten times, a set of the same inputs.

    python3 benchmark/calibrate.py [--workloads paper,ops] [--seeds 1-10|0x10] [--json OUT]

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    if "x" in text:
        seed, _, count = text.partition("x")
        return [int(seed)] * int(count)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in args.seeds:
            proc = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
            res = json.loads(lines[-1])
            runs[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"{w}: {'metric':<14} {'median':>10} {'spread':>8}")
        for name in sorted(runs[w][0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"{w}: {name:<14} {q2:10.4g} {(q3 - q1) / q2:8.3f}", flush=True)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
