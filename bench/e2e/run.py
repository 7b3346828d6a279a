#!/usr/bin/env python3
"""Build stemcp_bench from this checkout and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
benchmark (Release) into .bench_build/stemcp_bench; later runs only let
CMake confirm the build is current.  Journals, result files and traces go
under .bench_build/run.  The binary's own report lines are passed through,
and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).  Exits nonzero, without that line, when the
benchmark cannot be built or run; exits 1 after printing it when a check
failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "stemcp_bench")
RUN_DIR = os.path.join(OUT, "run")
TMP = os.path.join(OUT, "tmp")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = TMP  # compilers and the benchmark stay inside the checkout
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no stemcp sources at %s/src: run from a full checkout" % ROOT)
    os.makedirs(TMP, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=child_env()).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e), 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path), 3)
    binary = os.path.join(BUILD, "stemcp_bench")
    if not os.access(binary, os.X_OK):
        fail("build produced no %s" % binary, 3)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    stem = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    json_path = os.path.join(RUN_DIR, stem + ".json")
    if os.path.exists(json_path):
        os.remove(json_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--json", json_path,
           "--dir", RUN_DIR]
    if args.trace:
        cmd += ["--trace", os.path.join(RUN_DIR, args.workload + ".trace.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        fail("stemcp_bench did not finish within %d s" % RUN_TIMEOUT_S, 4)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    try:
        with open(json_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        fail("stemcp_bench exited %d after %.1f s without a result"
             % (proc.returncode, time.monotonic() - started), 5)

    correct = bool(result["correct"]) and proc.returncode == 0
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("value") is None:
            print("run.py: metric %s was not reported" % m["name"], file=sys.stderr)
            correct = False
            continue
        if got["unit"] != m["unit"]:
            print("run.py: metric %s has unit %s, BENCHMARK.json says %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            correct = False
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
