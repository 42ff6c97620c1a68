#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly and compares each
end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--workload W ...]

For each workload it makes `runs` untraced runs of BENCHMARK.json's
run_seconds, with seeds 1, 2, ..., one after the other, and prints per
metric the median, the first and third quartile
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median against
the metric's bound. A spread above a third of the bound is flagged
"noisy"; above the bound, "FAIL". With --sets 2 it repeats the whole
set with the next seeds and also flags a metric whose second median is
worse than the first by more than its bound. Exits 1 when any check
fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_math as bm  # noqa: E402

ROOT = HERE.parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        stderr=subprocess.DEVNULL)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            first = 1 + s * args.runs
            runs = [one_run(workload, seed, bench["run_seconds"])
                    for seed in range(first, first + args.runs)]
            print(f"{workload} set {s + 1} (seeds {first}..."
                  f"{first + args.runs - 1})")
            print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}")
            set_medians = {}
            for metric in bench["end_to_end"]:
                name = metric["name"]
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = bm.quartile_spread(values)
                set_medians[name] = med
                flag = ""
                if spread > metric["bound"]:
                    flag, ok = "FAIL", False
                elif spread > metric["bound"] / 3:
                    flag = "noisy"
                print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {metric['bound']:>6} {flag}")
            medians.append(set_medians)
        if len(medians) == 2:
            print(f"{workload}: second median against the first")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                worse = worse_by(metric, medians[0][name], medians[1][name])
                flag = ""
                if worse > metric["bound"]:
                    flag, ok = "FAIL", False
                print(f"  {name:<16} {worse:>+8.4f} {metric['bound']:>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
