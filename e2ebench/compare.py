#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 e2ebench/compare.py --base base/*.json --new new/*.json

Each file is one run's result, as written by `e2e_bench --out=FILE` or
`run.py --out FILE`. Runs are grouped by workload and paired in the
order given (run i of the base set with run i of the new set; alternate
which side runs first when collecting them). For every workload and
metric present on both sides it prints each side's median and quartiles,
the new side's win fraction over the pairs (ties count for neither), and
a verdict for the end-to-end metrics, using their bounds from
BENCHMARK.json:

  worse       the new median is worse than the base median by more than
              the bound
  better      the new side wins at least 9 in 10 pairs and the medians
              differ by more than the base side's quartile distance
  unresolved  either side's quartile distance exceeds the bound, unless
              every new run beats every base run
  same        none of the above

The exit status is 1 when any verdict is "worse".
"""

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        runs[result["workload"]].append(result["metrics"])
    return runs


def wins(base, new, lower_is_better):
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if (n < b if lower_is_better else n > b))
    return won / len(pairs) if pairs else 0.0


def verdict(base, new, lower_is_better, bound):
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = (n_med - b_med) if lower_is_better else (b_med - n_med)
    if b_med != 0 and worse_by / abs(b_med) > bound:
        return "worse"
    b_q1, b_q3 = quartiles(base)
    n_q1, n_q3 = quartiles(new)
    if wins(base, new, lower_is_better) >= 0.9 and \
            -worse_by > b_q3 - b_q1:
        return "better"
    all_better = (max(new) < min(base)) if lower_is_better \
        else (min(new) > max(base))
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (n_q3 - n_q1) / abs(n_med) if n_med else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    return "same"


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of e2e benchmark results.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        benchmark = json.load(f)
    declared = {m["name"]: m for m in
                benchmark["end_to_end"] + benchmark["per_layer"]}
    base, new = load(args.base), load(args.new)

    print(f"{'workload':9} {'metric':32} {'base median [q1, q3]':34} "
          f"{'new median [q1, q3]':34} {'change':>8} {'wins':>5}  verdict")
    any_worse = False
    for workload in sorted(set(base) & set(new)):
        names = [n for n in declared
                 if all(n in r for r in base[workload] + new[workload])]
        for name in names:
            spec = declared[name]
            lower = spec["better"] == "lower"
            b = [r[name]["value"] for r in base[workload]]
            n = [r[name]["value"] for r in new[workload]]
            b_med, n_med = statistics.median(b), statistics.median(n)
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            v = verdict(b, n, lower, spec["bound"]) if "bound" in spec \
                else "-"
            any_worse |= v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            print(f"{workload:9} {name + ' [' + spec['unit'] + ']':32} "
                  f"{f'{b_med:.5g} [{bq[0]:.5g}, {bq[1]:.5g}]':34} "
                  f"{f'{n_med:.5g} [{nq[0]:.5g}, {nq[1]:.5g}]':34} "
                  f"{change:>+8.2%} {wins(b, n, lower):>5.2f}  {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
