#!/usr/bin/env python3
"""bench_e2e_smoke: every workload for about a second, scaled down, all checks on.

    python3 bench/e2e/smoke.py --binary <stemcp_bench> --dir <scratch dir>

For each workload it runs stemcp_bench --small twice: seed 1 untraced and
seed 2 traced.  It requires of each run that it exits 0 with every check
passed (no failed request, recovered state byte-identical to the live
state, the same traffic CRC from each of the run's generations), that
seeds 1 and 2 give different traffic CRCs, that the traced run writes a
loadable Chrome trace, and that the printed metric names and units cover
the end-to-end (untraced) and per-layer (traced) lists of the repository's
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
SECONDS = "1"
TIMEOUT_S = 120


def printed(stdout, workload):
    """{name: unit} from the `name workload value unit [n=...]` lines."""
    out = {}
    for line in stdout.splitlines():
        f = line.split()
        if len(f) >= 4 and f[1] == workload:
            out[f[0]] = f[3]
    return out


def check_run(binary, bench, work, w, seed, traced):
    """Problems with one run, and its traffic CRC (None if it did not finish)."""
    tag = "%s seed %d%s" % (w, seed, " traced" if traced else "")
    result = os.path.join(work, "%s-%d.json" % (w, seed))
    trace = os.path.join(work, "%s.trace.json" % w)
    cmd = [binary, "--workload", w, "--seed", str(seed), "--small",
           "--seconds", SECONDS, "--json", result, "--dir", work]
    if traced:
        cmd += ["--trace", trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ["%s: did not finish within %d s" % (tag, TIMEOUT_S)], None
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (tag, proc.returncode, proc.stdout)], None
    problems = []
    with open(result) as f:
        r = json.load(f)
    if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
        problems.append("%s: %s" % (tag, r["checks_failed"]))
    names = printed(proc.stdout, w)
    for m in bench["per_layer" if traced else "end_to_end"]:
        if names.get(m["name"]) != m["unit"]:
            problems.append("%s: metric %s not printed in %s"
                            % (tag, m["name"], m["unit"]))
    if traced:
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        if not any(e["name"] == "request" for e in events):
            problems.append("%s: trace has no request spans" % tag)
    return problems, r["traffic_crc"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--binary", required=True)
    ap.add_argument("--dir", required=True,
                    help="parent of the private directory the runs use")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    os.makedirs(args.dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix="smoke.", dir=args.dir)
    problems = []
    try:
        for w in [x["name"] for x in bench["workloads"]]:
            mine, crcs = [], []
            for seed, traced in ((1, False), (2, True)):
                p, crc = check_run(args.binary, bench, work, w, seed, traced)
                mine += p
                crcs.append(crc)
            if None not in crcs and crcs[0] == crcs[1]:
                mine.append("%s: seeds 1 and 2 gave the same traffic" % w)
            print("%s: %s" % (w, "FAILED" if mine else "ok"))
            problems += mine
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("bench_e2e_smoke: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
