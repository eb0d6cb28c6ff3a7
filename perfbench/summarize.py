#!/usr/bin/env python3
"""Median and quartiles of repeated benchmark runs, per workload and metric.

Reads the result files `run.sh` writes under perfbench/results/ and prints,
for every metric of the chosen kind, the median, the first and third
quartiles (Python's statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/summarize.py            # end-to-end runs (--trace 0)
    python3 perfbench/summarize.py --trace 1  # per-layer runs
    python3 perfbench/summarize.py --json out.json
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--results", default=os.path.join(HERE, "results"))
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    worst = 0.0
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for path in sorted(glob.glob(os.path.join(args.results, name, f"seed*-trace{args.trace}.json"))):
            with open(path) as f:
                runs.append(json.load(f))
        runs = [r for r in runs if r.get("correct") and not r.get("invalid")]
        if not runs:
            continue
        print(f"\n{name}: {len(runs)} runs, seeds {sorted(r['seed'] for r in runs)}")
        summary[name] = {
            "runs": len(runs),
            "seeds": sorted(r["seed"] for r in runs),
            "seconds": runs[0]["seconds"],
            "provenance": runs[0]["provenance"],
            "metrics": {},
        }
        metrics = runs[0]["metrics"]
        for metric, first in metrics.items():
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            values = [v for v in values if v is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            print(
                f"  {metric:<38} median {med:>12.6g} {first['unit']:<8} q1 {q1:>12.6g} q3 {q3:>12.6g}"
                f"  spread {spread:7.3f}" + (f"  bound {bound}" if bound is not None else "") + flag
            )
            summary[name]["metrics"][metric] = {
                "unit": first["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "values": values,
            }
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if args.trace == 0 and summary:
        print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
