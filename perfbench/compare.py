#!/usr/bin/env python3
"""Compares two sets of fleet benchmark runs of the end-to-end metrics.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory holding the standard output of ``perfbench/run.py``
runs, one file per run (any number of workloads and seeds). For every
workload and end-to-end metric in BENCHMARK.json it prints each set's
median and quartiles, the spread (quartile distance / median), the
relative difference of B's median from A's, and whether the two sets
agree: B's median within the metric's bound of A's in either direction,
and each set's spread within the bound. The exit status is 0 only if
every row agrees.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path):
    """Returns {workload: [metrics dict, ...]} from the run outputs under `path`."""
    runs = {}
    for name in sorted(os.listdir(path)):
        file = os.path.join(path, name)
        if not os.path.isfile(file):
            continue
        with open(file, encoding="utf-8") as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (IndexError, KeyError, ValueError):
            continue
        if record.get("trace") == 0 and result.get("correct"):
            runs.setdefault(record["workload"], []).append(result["metrics"])
    return runs


def summarize(values):
    """(median, q1, q3, spread) of `values`; quartiles need two or more."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def compare(a, b, metrics):
    """Yields one row per (workload, metric) present in both sets."""
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            name = m["name"]
            va = [r[name]["value"] for r in a[workload] if name in r]
            vb = [r[name]["value"] for r in b[workload] if name in r]
            if not va or not vb:
                continue
            sa, sb = summarize(va), summarize(vb)
            diff = (sb[0] - sa[0]) / sa[0] if sa[0] else float("inf")
            steady = sa[3] <= m["bound"] and sb[3] <= m["bound"]
            yield {
                "workload": workload,
                "metric": name,
                "unit": m["unit"],
                "n": (len(va), len(vb)),
                "a": sa,
                "b": sb,
                "diff": diff,
                "bound": m["bound"],
                "agree": abs(diff) <= m["bound"] and steady,
            }


def fmt(x):
    return f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a")
    parser.add_argument("set_b")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load_set(args.set_a), load_set(args.set_b)
    rows = list(compare(a, b, metrics))
    if not rows:
        sys.exit("compare: no workload has correct end-to-end runs in both sets")
    print(
        "| workload | metric | unit | n A/B | A median [q1, q3] | A spread "
        "| B median [q1, q3] | B spread | B vs A | bound | agree |"
    )
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        (ma, qa1, qa3, spa), (mb, qb1, qb3, spb) = r["a"], r["b"]
        print(
            f"| {r['workload']} | {r['metric']} | {r['unit']} | {r['n'][0]}/{r['n'][1]} "
            f"| {fmt(ma)} [{fmt(qa1)}, {fmt(qa3)}] | {spa:.3f} "
            f"| {fmt(mb)} [{fmt(qb1)}, {fmt(qb3)}] | {spb:.3f} "
            f"| {r['diff']:+.3f} | {r['bound']} | {'yes' if r['agree'] else 'NO'} |"
        )
    sys.exit(0 if all(r["agree"] for r in rows) else 1)


if __name__ == "__main__":
    main()
