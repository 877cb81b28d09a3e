#!/usr/bin/env python3
"""Compares two sets of sync benchmark runs.

Usage:

    python3 syncbench/compare.py BASE CHANGE

BASE and CHANGE are each a runs.jsonl file written by syncbench/run.py (or
a directory holding one), typically one per commit, made with the same
--seconds on the same machine. Only untraced runs are compared. Runs are
paired in file order, so alternate the two commits when making them.

For every workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the change won (ties count for neither), and
a verdict:

    regressed   the change's median is worse than the base median by more
                than the metric's bound
    unresolved  the base runs spread (interquartile range over median) wider
                than the bound, and not every change run beats every base run
    gain        the change won at least 9 of 10 pairs and the medians differ
                by more than the base runs' interquartile range
    same        none of the above

Bounds come from BENCHMARK.json for the metrics every workload reports, and
from WORKLOAD_METRICS below for those only one workload reports. The
failed share of operations is compared too: a change may not fail more.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# End-to-end metrics reported by one workload only (the record's "extra"),
# as name: (unit, better, bound).
WORKLOAD_METRICS = {
    "sync_p99_ms": ("ms", "lower", 0.25),
    "write_p50_ms": ("ms", "lower", 0.25),
    "write_p90_ms": ("ms", "lower", 0.25),
    "replication_lag_p50_ms": ("ms", "lower", 0.25),
}


def load_runs(path):
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace", 0) != 0:
                continue
            runs.setdefault(record["workload"], []).append(record)
    return runs


def metric_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = {m["name"]: (m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]}
    table.update(WORKLOAD_METRICS)
    return table


def values(runs, name):
    out = []
    for record in runs:
        for section in ("metrics", "extra"):
            if name in record.get(section, {}):
                out.append(record[section][name]["value"])
                break
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b_med = statistics.median(base)
    c_med = statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    worse = sign * (c_med - b_med)
    iqr = b_q3 - b_q1
    if b_med != 0 and worse > bound * abs(b_med):
        return won, "regressed"
    if won >= 0.9 and abs(c_med - b_med) > iqr:
        return won, "gain"
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if b_med != 0 and iqr / abs(b_med) > bound and not all_better:
        return won, "unresolved"
    return won, "same"


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return failed / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()
    base_runs = load_runs(args.base)
    change_runs = load_runs(args.change)
    table = metric_table()
    regressed = False
    for workload in sorted(set(base_runs) & set(change_runs)):
        base = base_runs[workload]
        change = change_runs[workload]
        print("%s  (base %d runs, change %d runs)" %
              (workload, len(base), len(change)))
        print("  %-24s %-6s %27s  %27s  %5s  %s" %
              ("metric", "unit", "base median [q1, q3]",
               "change median [q1, q3]", "won", "verdict"))
        for name, (unit, better, bound) in table.items():
            b = values(base, name)
            c = values(change, name)
            if not b or not c:
                continue
            won, word = verdict(b, c, better, bound)
            regressed = regressed or word == "regressed"
            bq = quartiles(b)
            cq = quartiles(c)
            print("  %-24s %-6s %9.4g [%7.4g, %7.4g]  %9.4g [%7.4g, %7.4g]"
                  "  %4.0f%%  %s (bound %g)" %
                  (name, unit, statistics.median(b), bq[0], bq[1],
                   statistics.median(c), cq[0], cq[1], 100 * won, word,
                   bound))
        b_fail = failed_share(base)
        c_fail = failed_share(change)
        more = c_fail > b_fail
        regressed = regressed or more
        print("  %-24s        %27.6f  %27.6f         %s" %
              ("failed share", b_fail, c_fail,
               "regressed" if more else "same"))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
