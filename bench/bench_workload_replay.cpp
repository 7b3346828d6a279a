// Macro workload replay (docs/WORKLOAD.md): replay the COMMITTED
// mixed_storm scenario (examples/traces/mixed_storm.scenario) through a
// fresh journaled DesignService, in both loops:
//
//   * closed loop — submit as fast as the service absorbs: the throughput
//     arm (items_per_second = requests/s end to end, full durability).
//   * open loop — honor the scenario's recorded arrival offsets (burst/idle
//     phases included): the latency arm.  The sessions' set-up is answered
//     before the clock starts, and no submission waits on a response.
//     Percentiles come from the service's own telemetry spans, whose clock
//     starts at submit time, so queue wait under the bursts is counted (no
//     coordinated omission).  bench_latency_under_load replays the default
//     scenario the same way at fixed rates and shard counts.
//
// The e2e_p99 counter of the open-loop arm is gated by tools/run_tier1.sh
// --bench via tools/bench_compare.py against bench/snapshots/BENCH_*.json.
// Both arms replay the identical synthesized request stream — the scenario
// is seeded, so every run of this binary measures the same traffic.
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_support.h"
#include "workload/replay.h"
#include "workload/synth.h"

namespace {

using namespace stemcp;

const char* kScenarioPath =
    STEMCP_SOURCE_DIR "/examples/traces/mixed_storm.scenario";

const std::vector<workload::TraceRecord>& scenario_records() {
  static const std::vector<workload::TraceRecord> records = [] {
    workload::Scenario sc;
    std::string err;
    if (!workload::load_scenario_file(kScenarioPath, &sc, &err)) {
      std::fprintf(stderr, "bench_workload_replay: %s\n", err.c_str());
      std::exit(1);
    }
    return workload::synthesize(sc);
  }();
  return records;
}

void run_arm(benchmark::State& state, bool closed_loop) {
  const std::vector<workload::TraceRecord>& records = scenario_records();
  const std::string jroot = "bench_workload_replay.tmp";
  for (auto _ : state) {
    workload::ReplayOptions opts;
    opts.closed_loop = closed_loop;
    opts.journal_base = "bwr";
    opts.journal_spec = "every-record";
    opts.journal_root = jroot;
    opts.collect_images = false;  // measure traffic, not the save epilogue
    workload::ReplayReport report;
    std::string err;
    if (!workload::replay_records(records, opts, &report, &err)) {
      state.SkipWithError(err.c_str());
      break;
    }
    state.counters["errors"] = static_cast<double>(report.errors);
    state.counters["achieved_rps"] = report.achieved_rps();
    benchsupport::counters_from_phases(state, report.telemetry);
    std::filesystem::remove_all(jroot);
  }
  state.counters["trace_records"] = static_cast<double>(records.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}

// One timed repetition per arm: the open-loop arm's wall time is pinned to
// the scenario's span, so iteration count must not scale with code speed.
void BM_WorkloadReplayClosedLoop(benchmark::State& state) {
  run_arm(state, /*closed_loop=*/true);
}
BENCHMARK(BM_WorkloadReplayClosedLoop)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_WorkloadReplayOpenLoop(benchmark::State& state) {
  run_arm(state, /*closed_loop=*/false);
}
BENCHMARK(BM_WorkloadReplayOpenLoop)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

STEMCP_BENCH_MAIN()
