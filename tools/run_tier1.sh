#!/usr/bin/env bash
# Tier-1 verification, three ways: a plain RelWithDebInfo run, an opt-in
# ASan/UBSan run, and a ThreadSanitizer pass over the concurrency suites
# (CMake option STEMCP_SANITIZE).  Intended as the CI entry point.
#
#   tools/run_tier1.sh            # plain + sanitized + tsan
#   tools/run_tier1.sh --plain    # plain only
#   tools/run_tier1.sh --sanitize # ASan/UBSan only
#   tools/run_tier1.sh --tsan     # ThreadSanitizer concurrency pass only
#   tools/run_tier1.sh --asan     # fast ASan/UBSan pass over the durability
#                                 suites only (journal/checkpoint/recovery
#                                 code does raw fd I/O and manual rollback —
#                                 the memory-bug surface of this repo)
#   tools/run_tier1.sh --bench    # opt-in Release bench smoke: runs the
#                                 hottest benches and merges their stats into
#                                 build-bench/BENCH.json (see
#                                 docs/PERFORMANCE.md and tools/bench_compare.py)
#   STEMCP_SANITIZE=address tools/run_tier1.sh   # override sanitizer list
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${STEMCP_SANITIZE:-address,undefined}"
# Tests exercising shared state from multiple threads: the design service,
# the line-protocol front end over it, the process-global metrics, and the
# journal, whose commit runs on the appender or on the group-commit flusher.
TSAN_FILTER='DesignService|ServiceProtocol|GlobalMetrics|Telemetry|FlightRecorder|ShardStress|ShardRecovery|FdService|GroupCommit|Segment|JournalTest|ServicePersistence|WorkloadReplay'
# The durability layer: raw-fd journal I/O, checkpoint rename dance, replay,
# and the library reader's rollback — everything that touches memory by
# hand.  Run under ASan/UBSan by --asan.  The workload trace codec/scanner
# (CRC framing, torn-tail scan, FILE* writer) belongs to the same surface,
# and so do the seeded mutation fuzzers of their shared framed-line scanner
# and of the library reader, the one parser of loads and edits.  The shard
# registry's suites ride along: a closed or refused session is destroyed off
# the registry mutex while workers may still hold it.  So does name
# resolution: the library's name index holds raw cell pointers that rollback
# and teardown free, and the path walk slices the caller's string.  So do
# the library reader's scanner, which reads each line as a view of the
# caller's buffer (WordCursor, GoldenSave), and the engine's constraint
# slots, which destroying a constraint empties and compacts (EditingTest).
# So do the suites of nets and instance duals (NetTest, DelayTest, BBoxTest,
# HierarchyTest, CellTest, SignalCheckTest, ReplaceSubcell, GoldenVars):
# each net connection holds a pointer to the signal declaration it joined
# through, and rollback and teardown free cells and nets.
ASAN_FILTER='Journal|Crc32|FsyncPolicy|RecordCodec|Checkpoint|AtomicWrite|Persistence|IoTest|IoSeeds|ExampleDesigns|Fd|GroupCommit|Segment|Trace|Workload|Framed|LibraryReaderFuzz|ShardStress|ShardRecovery|DesignService|NameResolution|WordCursor|GoldenSave|EditingTest|NetTest|DelayTest|BBoxTest|HierarchyTest|CellTest|SignalCheckTest|ReplaceSubcell|GoldenVars'
# The hottest benchmarks, smoked by --bench.
BENCH_SMOKE="bench_fig4_5_simple_network bench_agenda_scheduling bench_design_service bench_persistence bench_latency_under_load bench_fd_selection bench_workload_replay"
RUN_PLAIN=1
RUN_SANITIZED=1
RUN_TSAN=1
RUN_ASAN=0
RUN_BENCH=0
case "${1:-}" in
  --plain) RUN_SANITIZED=0; RUN_TSAN=0 ;;
  --sanitize) RUN_PLAIN=0; RUN_TSAN=0 ;;
  --tsan) RUN_PLAIN=0; RUN_SANITIZED=0 ;;
  --asan) RUN_PLAIN=0; RUN_SANITIZED=0; RUN_TSAN=0; RUN_ASAN=1 ;;
  --bench) RUN_PLAIN=0; RUN_SANITIZED=0; RUN_TSAN=0; RUN_BENCH=1 ;;
  "") ;;
  *) echo "usage: $0 [--plain|--sanitize|--tsan|--asan|--bench]" >&2; exit 2 ;;
esac

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

check_telemetry_exports() {
  local tmp
  tmp="$(mktemp -d)"
  # The shell reads commands from stdin when run without --script.
  build/examples/constraint_shell > "$tmp/shell.out" <<EOF
trace on
set reg.delay 60e-9
set adder.delay 90e-9
set reg.delay 50e-9
export-trace $tmp/engine.trace.json
service open t trace
service load t text cell STAGE\\nsignal in input\\nsignal out output\\ndelay in out\\nend\\n
service flight arm $tmp/flight 1
service assign t STAGE.delay(in->out) 4e-8
service flight dump
export-metrics $tmp/metrics.prom
EOF
  if grep -q "error:" "$tmp/shell.out"; then
    cat "$tmp/shell.out" >&2
    rm -rf "$tmp"
    return 1
  fi
  local rc=0
  python3 - "$tmp" <<'PY' || rc=1
import glob, json, math, os, re, sys
tmp = sys.argv[1]
FIXED_US = re.compile(r"[0-9]+\.[0-9]{3}")

def micros(text):
    # ts and dur are fixed-point microseconds with three decimals.
    if not FIXED_US.fullmatch(text):
        sys.exit("not fixed-point microseconds: %s" % text)
    return float(text)

docs = [os.path.join(tmp, "engine.trace.json")]
docs += sorted(glob.glob(os.path.join(tmp, "flight.*.trace.json")))
if len(docs) < 3:
    sys.exit("expected an engine trace and two flight dumps, got %s" % docs)
for path in docs:
    with open(path) as f:
        events = json.load(f, parse_float=micros)["traceEvents"]
    if not events:
        sys.exit("%s: no events" % path)
    for e in events:
        ts, dur = e["ts"], e.get("dur")
        if not (isinstance(ts, float) and math.isfinite(ts)):
            sys.exit("%s: bad ts in %s" % (path, e))
        if e["ph"] == "X" and not (isinstance(dur, float) and
                                   math.isfinite(dur) and dur >= 0):
            sys.exit("%s: bad dur in %s" % (path, e))
families = []
with open(os.path.join(tmp, "metrics.prom")) as f:
    for line in f:
        if line.startswith("# TYPE "):
            families.append(line.split()[2])
if not families:
    sys.exit("metrics.prom: no metric families")
dupes = sorted({n for n in families if families.count(n) > 1})
if dupes:
    sys.exit("metrics.prom: families written twice: %s" % ", ".join(dupes))
print("%d trace document(s), %d metric families: ok"
      % (len(docs), len(families)))
PY
  rm -rf "$tmp"
  return "$rc"
}

check_latency_smoke() {
  local bench tmp rc=0
  bench="$PWD/build/bench/bench_latency_under_load"
  tmp="$(mktemp -d)"
  # From a scratch directory: the arm journals under the working directory.
  (cd "$tmp" && STEMCP_BENCH_STATS=- "$bench" \
    --benchmark_filter=BM_LatencyUnderLoad/12000/8) || rc=1
  rm -rf "$tmp"
  return "$rc"
}

if [[ "$RUN_PLAIN" == 1 ]]; then
  echo "== tier-1: plain =="
  run_suite build
  # The bench tooling's own error paths must die with one-line diagnostics,
  # never tracebacks (tools/bench_compare.py self-check).
  tools/bench_compare.py self-check
  # The telemetry exports, read back by a real parser: an engine trace, the
  # flight dumps of a traced service session, and a metrics export.
  echo "== tier-1: telemetry exports parse =="
  check_telemetry_exports
  # Latency smoke: the saturating 8-shard arm of the latency bench replays
  # 12,024 synthesized requests open-loop with every-record journals (about
  # 1 s).  Any failed request errors the arm, and the bench exits 1.
  echo "== tier-1: latency smoke (BM_LatencyUnderLoad/12000/8) =="
  check_latency_smoke
  # The end-to-end benchmark's smoke (bench/e2e, its own Release package):
  # every session of all four workloads is recovered and must come back
  # byte-identical with zero outcome mismatches — the recovery oracle over
  # the same replay path live traffic takes.
  echo "== tier-1: e2e recovery oracle (bench_e2e_smoke) =="
  cmake -B build-e2e -S bench/e2e
  cmake --build build-e2e -j "$(nproc)"
  ctest --test-dir build-e2e --output-on-failure
fi

if [[ "$RUN_SANITIZED" == 1 ]]; then
  echo "== tier-1: sanitized ($SANITIZERS) =="
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  run_suite build-sanitize "-DSTEMCP_SANITIZE=$SANITIZERS"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tier-1: thread sanitizer ($TSAN_FILTER) =="
  cmake -B build-tsan -S . -DSTEMCP_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R "$TSAN_FILTER"
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== tier-1: asan durability pass ($ASAN_FILTER) =="
  cmake -B build-sanitize -S . -DSTEMCP_SANITIZE=address,undefined
  cmake --build build-sanitize -j "$(nproc)"
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}" \
  ctest --test-dir build-sanitize --output-on-failure -j "$(nproc)" \
    -R "$ASAN_FILTER"
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== tier-1: bench smoke (Release) =="
  tools/bench_compare.py self-check
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-bench -j "$(nproc)" --target $BENCH_SMOKE
  stats_files=()
  for b in $BENCH_SMOKE; do
    # Flush the previous bench's dirty pages: bench_persistence leaves a
    # writeback backlog that can stall the next bench's fsyncs for ~100ms.
    sync
    STEMCP_BENCH_STATS="build-bench/$b.stats.json" \
      "build-bench/bench/$b" --benchmark_min_time=0.05
    stats_files+=("build-bench/$b.stats.json")
  done
  tools/bench_compare.py merge build-bench/BENCH.json "${stats_files[@]}"
  echo "bench smoke written to build-bench/BENCH.json"
  # Sharding acceptance gate: at the saturating rate, going from one shard
  # (one worker serializing every fsync) to eight shard-per-worker lanes must
  # cut the queue+lock p99 at least 2x, while the propagate/fsync medians stay
  # within one log2 histogram bucket — tol 1.01 because one bucket step on
  # the 2^i-1 bounds is a 2.0000076x ratio; docs/PERFORMANCE.md explains why
  # sub-bucket tolerances are meaningless on this host.
  echo "== sharding gate (queue+lock p99, 12000 rps, 1 vs 8 shards) =="
  if ! tools/bench_compare.py gate build-bench/BENCH.json \
      --bench bench_latency_under_load \
      --base BM_LatencyUnderLoad/12000/1 --test BM_LatencyUnderLoad/12000/8 \
      --phase queue,lock --improve 2.0 \
      --flat propagate,fsync --flat-stat p50 --flat-tol 1.01; then
    if [[ "${STEMCP_BENCH_GATE:-0}" == 1 ]]; then
      echo "sharding gate failed" >&2
      exit 1
    fi
    echo "(sharding gate reported failure; STEMCP_BENCH_GATE=1 makes this fatal)"
  fi
  # Group-commit gate (ISSUE 9, docs/PERSISTENCE.md): at a saturating arrival
  # depth of 64 concurrent requests, batching the flushes must buy at least
  # 5x the journaled req/s of fsync-per-record.  Fatal only with
  # STEMCP_BENCH_GATE=1 (wall time on shared CI machines is noisy).
  echo "== group-commit gate (req/s, every-record vs group-commit, depth 64) =="
  if ! tools/bench_compare.py gate build-bench/BENCH.json \
      --bench bench_persistence \
      --base BM_JournalSaturation/0/64/real_time \
      --test BM_JournalSaturation/1/64/real_time \
      --time --improve 5.0; then
    if [[ "${STEMCP_BENCH_GATE:-0}" == 1 ]]; then
      echo "group-commit gate failed" >&2
      exit 1
    fi
    echo "(group-commit gate reported failure; STEMCP_BENCH_GATE=1 makes this fatal)"
  fi
  # FD selection gate (ISSUE 8, docs/SOLVER.md): at the largest library size
  # (64 families x 64 leaves) the FD solver must explore >= 10x fewer
  # candidates than unpruned generate-and-test — deterministic counters, so
  # this one is ALWAYS fatal — and also finish faster (wall time, fatal only
  # with STEMCP_BENCH_GATE=1 since shared CI machines are noisy).
  echo "== fd selection gate (candidates explored, 64x64 library) =="
  tools/bench_compare.py gate build-bench/BENCH.json \
    --bench bench_fd_selection \
    --base BM_GenerateAndTest/64/64 --test BM_FdSelect/64/64 \
    --counter cands --improve 10.0
  echo "== fd selection gate (wall time, 64x64 library) =="
  if ! tools/bench_compare.py gate build-bench/BENCH.json \
      --bench bench_fd_selection \
      --base BM_GenerateAndTest/64/64 --test BM_FdSelect/64/64 \
      --time --improve 1.0; then
    if [[ "${STEMCP_BENCH_GATE:-0}" == 1 ]]; then
      echo "fd selection wall-time gate failed" >&2
      exit 1
    fi
    echo "(fd wall-time gate reported failure; STEMCP_BENCH_GATE=1 makes this fatal)"
  fi
  # Perf trajectory: diff against the newest committed snapshot.  The diff
  # always prints; STEMCP_BENCH_GATE=1 turns >10% regressions into a hard
  # failure (kept opt-in because shared CI machines are noisy).
  latest_snapshot="$(ls bench/snapshots/BENCH_*.json 2>/dev/null | sort | tail -1 || true)"
  if [[ -n "$latest_snapshot" ]]; then
    echo "== bench diff vs $latest_snapshot =="
    if ! tools/bench_compare.py "$latest_snapshot" build-bench/BENCH.json; then
      if [[ "${STEMCP_BENCH_GATE:-0}" == 1 ]]; then
        echo "bench regression gate failed (vs $latest_snapshot)" >&2
        exit 1
      fi
      echo "(regressions reported; STEMCP_BENCH_GATE=1 makes this fatal)"
    fi
  else
    echo "no committed snapshot in bench/snapshots/ to diff against"
  fi
  # Macro-workload end-to-end latency (ISSUE 10, docs/WORKLOAD.md): diff the
  # e2e p99 of every bench exporting it — the open-loop workload replay and
  # the latency-under-load arms — against the same snapshot.  Fatal only with
  # STEMCP_BENCH_GATE=1, like the wall-time diff.
  if [[ -n "$latest_snapshot" ]]; then
    echo "== e2e p99 diff vs $latest_snapshot =="
    if ! tools/bench_compare.py "$latest_snapshot" build-bench/BENCH.json \
        --phase e2e --percentile 99 --threshold 0.25; then
      if [[ "${STEMCP_BENCH_GATE:-0}" == 1 ]]; then
        echo "e2e p99 gate failed (vs $latest_snapshot)" >&2
        exit 1
      fi
      echo "(e2e p99 regressions reported; STEMCP_BENCH_GATE=1 makes this fatal)"
    fi
  fi
  # STEMCP_BENCH_RECORD=<path> snapshots this run (e.g.
  # bench/snapshots/BENCH_0007.json) for future trajectory diffs.  Recorded
  # AFTER the diff so the run never compares against itself.
  if [[ -n "${STEMCP_BENCH_RECORD:-}" ]]; then
    cp build-bench/BENCH.json "$STEMCP_BENCH_RECORD"
    echo "bench snapshot recorded to $STEMCP_BENCH_RECORD"
  fi
fi

echo "tier-1 verification passed"
