#!/usr/bin/env python3
"""Compare two sets of stemcp_bench result files.

    python3 bench/e2e/compare.py A/*.json -- B/*.json

A is the parent (baseline), B the change.  Each file is one run's --json
output.  For every workload and metric the table gives each side's median
and quartiles and the share of pairs B won.  The end-to-end metrics of the
repository's BENCHMARK.json also get a verdict against their bound:

  improved    at least MIN_PAIRS pairs, B wins at least 9/10 of them, and
              the medians differ by more than A's interquartile distance,
              in the better direction
  unchanged   B's median is no worse than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) is wider than the bound, and
              not every B run reads better than every A run

setup_s is compared median to median: its spread is not held against its
bound.  Every other metric the runs printed is shown with no verdict; one
BENCHMARK.json does not name counts as better lower, or higher when its
unit ends in /s.
Runs pair by (workload, seed, order of appearance); ties count for neither
side.  Errors are reported on one line and exit with status 2.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json")


class Error(Exception):
    pass


def load_runs(paths):
    runs = []
    for path in paths:
        try:
            with open(path) as f:
                r = json.load(f)
            runs.append((r["workload"], int(r["seed"]), r["metrics"]))
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise Error("cannot read result %s: %s" % (path, e))
    if not runs:
        raise Error("no result files on one side")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def pairs(a_runs, b_runs, workload, metric):
    """(a, b) values matched by seed and order of appearance."""
    def keyed(runs):
        seen = {}
        out = {}
        for w, seed, metrics in runs:
            if w != workload or metric not in metrics:
                continue
            k = (seed, seen.get(seed, 0))
            seen[seed] = k[1] + 1
            out[k] = metrics[metric]["value"]
        return out
    a, b = keyed(a_runs), keyed(b_runs)
    return [(a[k], b[k]) for k in sorted(a)
            if k in b and a[k] is not None and b[k] is not None]


def verdict(a, b, wins, matched, spec, better):
    """Verdict on one gated metric; B won `wins` of `matched` pairs."""
    bound = spec["bound"]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if matched >= MIN_PAIRS and wins * 10 >= 9 * matched and \
            better(b_med, a_med) and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    all_better = all(better(y, x) for x in a for y in b)
    if spec["name"] != "setup_s" and spread > bound and not all_better:
        return "unresolved"
    if a_med and not better(b_med, a_med) and abs(b_med - a_med) / abs(a_med) > bound:
        return "worse"
    return "unchanged"


def main(argv):
    if "--" not in argv:
        raise Error("usage: compare.py A/*.json -- B/*.json")
    split = argv.index("--")
    a_runs = load_runs(argv[:split])
    b_runs = load_runs(argv[split + 1:])
    try:
        with open(BENCHMARK) as f:
            bench = json.load(f)
        gated = {m["name"]: m for m in bench["end_to_end"]}
        direction = {m["name"]: m["better"]
                     for m in bench["end_to_end"] + bench["per_layer"]}
        order = [w["name"] for w in bench["workloads"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise Error("cannot read %s: %s" % (BENCHMARK, e))

    workloads = sorted({w for w, _, _ in a_runs + b_runs},
                       key=lambda w: (order.index(w) if w in order else len(order), w))
    verdicts = {}
    for w in workloads:
        names = []
        for _, _, metrics in [r for r in a_runs + b_runs if r[0] == w]:
            names += [m for m in metrics if m not in names]
        names.sort(key=lambda m: (m not in gated, list(gated).index(m) if m in gated else 0, m))
        print("== %s" % w)
        print("  %-28s %28s %28s %6s %5s  %s" % ("metric", "A median [q1, q3]",
                                                 "B median [q1, q3]", "change",
                                                 "won", "verdict"))
        for m in names:
            a = [r[2][m]["value"] for r in a_runs
                 if r[0] == w and r[2].get(m, {}).get("value") is not None]
            b = [r[2][m]["value"] for r in b_runs
                 if r[0] == w and r[2].get(m, {}).get("value") is not None]
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            change = (b_med - a_med) / abs(a_med) if a_med else 0.0
            # Metrics BENCHMARK.json does not name are times, or rates in /s.
            unit = next(r[2][m]["unit"] for r in a_runs if r[0] == w and m in r[2])
            lower = direction.get(m, "higher" if unit.endswith("/s") else "lower") == "lower"
            better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
            matched = pairs(a_runs, b_runs, w, m)
            wins = sum(1 for x, y in matched if better(y, x))
            won = "%4.0f%%" % (100.0 * wins / len(matched)) if matched else ""
            v = ""
            if m in gated:
                v = verdict(a, b, wins, len(matched), gated[m], better)
                verdicts[v] = verdicts.get(v, 0) + 1
            print("  %-28s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+5.1f%% %5s  %s"
                  % (m, a_med, a_q1, a_q3, b_med, b_q1, b_q3, 100 * change, won, v))
    print("verdicts: " + ", ".join("%s %d" % (k, n) for k, n in sorted(verdicts.items())))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Error as e:
        print("compare.py: error: %s" % e, file=sys.stderr)
        sys.exit(2)
    except Exception as e:  # one line, never a traceback
        print("compare.py: error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        sys.exit(2)
