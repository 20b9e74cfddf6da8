#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines `run.py --record FILE` appends, any number of
runs per workload. Plain runs (trace 0) are compared; traced runs are
ignored. For every workload and end-to-end metric the script prints each
side's median with its quartiles, the change of the medians, and each
side's spread (quartile distance over median). A row is:

  unresolved  a side's spread exceeds the metric's bound, unless every
              NEW run is better than every BASE run;
  REGRESSION  NEW's median is worse than BASE's by more than the bound;
  ok          otherwise.

Exits 1 on any regression, when NEW fails a larger share of cells than
BASE, or when any NEW run reported itself not correct; 0 otherwise.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """workload -> list of plain-run results."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs[rec["workload"]].append(rec["result"])
    return runs


def summary(values):
    """(median, q1, q3, spread) of values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(argv[1]), load(argv[2])

    bad = False
    print(f"{'workload':15} {'metric':12} {'base [q1, q3]':>28} "
          f"{'new [q1, q3]':>28} {'change':>8} {'spread b/n':>13} "
          f"{'bound':>6}  status")
    for w in sorted(set(base) & set(new)):
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in base[w]]
            b = [r["metrics"][name]["value"] for r in new[w]]
            am, aq1, aq3, asp = summary(a)
            bm, bq1, bq3, bsp = summary(b)
            sign = -1 if m["better"] == "higher" else 1
            worse = sign * (bm - am) / am if am else 0.0
            if all(sign * y < sign * x for x in a for y in b):
                status = "ok (every run better)"
            elif asp > bound or bsp > bound:
                status = "unresolved"
            elif worse > bound:
                status = "REGRESSION"
                bad = True
            else:
                status = "ok"
            print(f"{w:15} {name:12} "
                  f"{am:10.4g} [{aq1:7.4g}, {aq3:7.4g}] "
                  f"{bm:10.4g} [{bq1:7.4g}, {bq3:7.4g}] "
                  f"{100 * worse:+7.2f}% "
                  f"{100 * asp:5.2f}/{100 * bsp:5.2f}% "
                  f"{100 * bound:5.1f}%  {status}")
        fa, fb = fail_ratio(base[w]), fail_ratio(new[w])
        if fb > fa:
            print(f"{w:15} fail_ratio rose {fa:.4g} -> {fb:.4g}  FAIL")
            bad = True
        incorrect = sum(not r["correct"] for r in new[w])
        if incorrect:
            print(f"{w:15} {incorrect} NEW runs not correct  FAIL")
            bad = True
    for w in sorted(set(base) ^ set(new)):
        print(f"{w:15} runs on one side only; not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
