#!/usr/bin/env python3
"""Steadiness check for the estate benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--json FILE]

Runs each workload --runs times, with seeds 1..runs, through
perfbench/run.py, and prints for every end-to-end metric its median, first
and third quartile (statistics.quantiles, n=4) and spread =
(q3 - q1) / median. A metric whose spread exceeds its bound in
BENCHMARK.json is flagged; so is any run that is not correct or has
failures. Exits 1 when anything is flagged. Each set also prints the
median and largest share of CPU time the hypervisor stole during its runs,
so that a flagged spread can be read together with the host's noise.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEAL = re.compile(r"^# host: ([0-9.]+)% of CPU time stolen", re.M)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    steal = STEAL.search(out.stdout)
    return json.loads(lines[-1]), float(steal.group(1)) if steal else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--json", help="write every run's values, medians and "
                        "quartiles here")
    args = parser.parse_args()
    summary = {"runs": args.runs, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    flagged = []
    for workload in args.workloads.split(","):
        values = {}
        steal_pct = []
        for seed in range(1, args.runs + 1):
            result, steal = run_once(workload, seed, spec["run_seconds"])
            steal_pct.append(steal)
            if not result["correct"] or result["failed"] != 0:
                flagged.append(f"{workload} seed {seed}: correct="
                               f"{result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        steal_median = statistics.median(steal_pct)
        print(f"\n{workload} ({args.runs} runs, seeds 1..{args.runs}; "
              f"steal median {steal_median:.1f}%, max {max(steal_pct):.1f}%)")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        rows = {}
        summary["workloads"][workload] = {
            "steal_pct": {"median": steal_median, "max": max(steal_pct),
                          "values": steal_pct},
            "metrics": rows}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            bound = bounds[name]
            mark = ""
            if not spread <= bound:
                mark = "  SPREAD > BOUND"
                flagged.append(f"{workload} {name}: spread {spread:.3f} > "
                               f"bound {bound}")
            elif spread > bound / 3:
                mark = "  (above bound/3)"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound:>6}{mark}")
    summary["flagged"] = flagged
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if flagged:
        print("\nflagged:\n  " + "\n  ".join(flagged))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
