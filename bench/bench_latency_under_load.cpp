// Latency under load: end-to-end and per-phase request latency percentiles
// at fixed OFFERED rates, not at whatever rate the service happens to absorb.
//
// Each arm synthesizes the default workload::Scenario at its rate — 8
// pipeline sessions w0..w7, zipf-1.0 popularity (so per-session lock
// contention is part of the measurement), 50 % assign / 20 % batch-assign /
// 20 % query / 10 % edit — and replays it open-loop through
// workload::replay_records (docs/WORKLOAD.md, "Replaying"):
//   * the sessions' opens, loads and journal attaches are answered before
//     the clock starts;
//   * request i then goes out at the absolute deadline t0 + i/rate and never
//     waits on a response, so a stall shows up as queueing latency instead
//     of silently throttling the generator (no coordinated omission);
//   * latency is taken from the service's own telemetry spans, whose clock
//     starts at submit, so queue wait counts.
// Every session journals with `every-record` fsync, so full durability is
// part of every mutating request's latency.
//
// Each arm is {offered rate in requests/second, shard count}, with ONE
// worker per shard (shard-per-worker, the seastar/redis-cluster shape), so
// the shard count is the only knob that changes between arms.  At one shard
// the single worker must serialize every fsync with every propagation: at
// the saturating rate the offered fsync time alone exceeds one worker's
// budget and the queue grows without bound.  Sharding overlaps one shard's
// fsync wait with other shards' propagation — a real parallelism win even on
// a single-core host, because a worker blocked in fsync burns no CPU.  The
// arms at one rate replay the identical seeded request stream, which the
// gate checks via the phase medians; per-fsync wall time rises with
// concurrency (ext4 group commit batches concurrent fsyncs into shared
// journal transactions) while fsync THROUGHPUT scales, which is the point.
// The names w0..w7 hash to 8 distinct shards, and to 2 per shard at 4
// (tests/workload/trace_test.cpp pins this).  The numbers land in the
// consolidated JSON as e2e_* / queue_* / lock_* / propagate_* / journal_* /
// fsync_* counters (ns), which bench/snapshots/BENCH_*.json snapshots and
// `tools/bench_compare.py gate --phase queue,lock` asserts (see
// tools/run_tier1.sh --bench and docs/PERFORMANCE.md).  A failed request
// errors its arm, and the binary exits 1.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_support.h"
#include "workload/replay.h"
#include "workload/synth.h"

namespace {

using namespace stemcp;

// Each arm offers at least this many requests AND at least one second of
// traffic at its rate: with every-record fsync a single multi-ms disk stall
// is always possible, and the run must be long enough that one stall backs
// up fewer than 1% of requests — otherwise the queue p99 measures the
// disk's worst hiccup instead of the architecture.
constexpr int kMinRequestsPerRun = 3000;

/// One {offered rate, shards} arm: a fresh service per replay, percentiles
/// from the service's own telemetry fold.
void BM_LatencyUnderLoad(benchmark::State& state) {
  workload::Scenario sc;
  sc.rate_rps = static_cast<double>(state.range(0));
  sc.requests = std::max(kMinRequestsPerRun, static_cast<int>(sc.rate_rps));
  const std::vector<workload::TraceRecord> records = workload::synthesize(sc);
  workload::ReplayOptions opts;
  opts.shards = static_cast<std::size_t>(state.range(1));
  opts.workers_per_shard = 1;  // shard-per-worker (see header)
  opts.journal_base = "lat";
  opts.journal_spec = "every-record";
  opts.journal_root = "bench_latency_under_load.tmp";
  opts.collect_images = false;  // measure traffic, not the save epilogue
  for (auto _ : state) {
    workload::ReplayReport report;
    std::string err;
    const bool replayed =
        workload::replay_records(records, opts, &report, &err);
    std::filesystem::remove_all(opts.journal_root);
    if (!replayed || report.errors > 0) {
      if (replayed) err = std::to_string(report.errors) + " request(s) failed";
      state.SkipWithError(err.c_str());
      break;
    }
    benchsupport::counters_from_phases(state, report.telemetry);
  }
  state.counters["offered_rps"] = sc.rate_rps;
  state.counters["shards"] = static_cast<double>(opts.shards);
  state.SetItemsProcessed(state.iterations() * sc.requests);
}
// Three offered rates at 1 shard: comfortable, busy, saturating (at 12000
// rps the offered fsync work alone overloads one worker), then the
// saturating rate again at 4 and 8 shards — the sharding acceptance arms
// (queue+lock p99 must improve >=2x from /12000/1 to /12000/8 while the
// propagate/fsync medians stay within one log2 bucket).  One timed
// repetition per arm — the arm's wall time is dominated by
// requests / rate, so iteration count must not scale with how fast the
// code is.
BENCHMARK(BM_LatencyUnderLoad)
    ->Args({500, 1})
    ->Args({2000, 1})
    ->Args({12000, 1})
    ->Args({12000, 4})
    ->Args({12000, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

STEMCP_BENCH_MAIN()
