"""Run workloads over several seeds and print every metric by name and unit.

    python3 perfbench/summary.py [--workloads W ...] [--seeds N ...]
                                 [--seconds S] [--trace]

Runs perfbench/run.py once per workload and seed and reads its result
line.  It keeps every result in .bench_build/perfbench/summary.json.
Untraced, it prints for each workload every end-to-end metric's
median and quartiles, the spread (Q3 - Q1 over the median) against the
bound in BENCHMARK.json, and the error rate.  With --trace it prints every
per-layer metric for each run and flags exact counts (units count and B)
that differ between runs; give the same seed twice to check that they
repeat.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "B")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles by statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=workloads.WORKLOADS,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=None)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = args.seeds or ([1, 1] if args.trace else [1])
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    everything = {}
    for workload in args.workloads:
        results = [run_once(workload, s, args.seconds, args.trace)
                   for s in seeds]
        everything[workload] = results
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} run(s), seeds {seeds}, "
              f"error_rate {failed / attempted:.6g} "
              f"({failed} of {attempted} operations)")
        for m in metrics:
            name, unit = m["name"], m["unit"]
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if len(values) < len(results):
                print(f"  {name:<44} missing in {len(results) - len(values)}"
                      f" run(s)")
                continue
            if args.trace:
                shown = " ".join(f"{v:.6g}" for v in values)
                flag = ""
                if unit in EXACT_UNITS and len(set(values)) > 1:
                    flag = "  DIFFERS"
                print(f"  {name:<44} {unit:<6} {shown}{flag}")
                continue
            med, q1, q3, share = spread(values)
            bound = m["bound"]
            flag = "ok" if share < bound / 3 else (
                "within bound" if share <= bound else "OVER BOUND")
            print(f"  {name:<14} {unit:<3} median {med:<11.6g} "
                  f"Q1 {q1:<11.6g} Q3 {q3:<11.6g} spread {share:<8.3%} "
                  f"bound {bound:.0%} {flag}")
    out = ROOT / ".bench_build" / "perfbench" / "summary.json"
    out.write_text(json.dumps({"seeds": seeds, "results": everything}))
    print(f"results of every run: {out}")


if __name__ == "__main__":
    main()
