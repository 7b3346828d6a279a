// Shared benchmark harness glue.
//
// Every bench binary uses STEMCP_BENCH_MAIN() instead of BENCHMARK_MAIN():
// the run goes through a collecting console reporter, and afterwards the
// binary writes ONE consolidated JSON document combining
//   - per-benchmark timings (name, iterations, ns/iter real + cpu, user
//     counters such as items_per_second), and
//   - the process-global metrics registry, which every PropagationContext
//     folds its lifetime engine Stats into on destruction,
// so a single file per binary captures both wall time and engine work.  A
// run that errors (SkipWithError) is named on stderr and makes the binary
// exit 1, after the file is written.
// tools/bench_compare.py diffs two such files (or directories of them) and
// flags regressions; `tools/bench_compare.py merge` concatenates several
// into one BENCH.json.
//
//   STEMCP_BENCH_STATS=<path>  consolidated JSON destination
//                              (default: <exe-basename>.stats.json in cwd)
//   STEMCP_BENCH_STATS=-       suppress the stats file
//   STEMCP_TRACE=<path>        benches that call maybe_enable_tracing()
//                              record a Chrome trace-event file there
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/core.h"

namespace stemcp::benchsupport {

inline const char* trace_path() { return std::getenv("STEMCP_TRACE"); }

/// Turn on structured tracing (+ metrics) for this context when the run was
/// started with STEMCP_TRACE=<file>.
inline void maybe_enable_tracing(core::PropagationContext& ctx) {
  if (trace_path() != nullptr) {
    ctx.tracer().set_enabled(true);
    ctx.metrics().set_enabled(true);
  }
}

/// Export the context's ring buffer as Chrome trace-event JSON to the
/// STEMCP_TRACE path.  Call after the measurement loop; the last caller in
/// the binary wins.
inline void maybe_export_trace(core::PropagationContext& ctx) {
  if (const char* path = trace_path()) {
    if (!core::export_chrome_trace(ctx.tracer(), path)) {
      std::cerr << "bench_support: failed to write trace to " << path << '\n';
    }
  }
}

/// Attach a histogram's percentile spread to the benchmark as user counters
/// ("<prefix>_p50" ... "<prefix>_max", plus "<prefix>_count"), so latency
/// distributions land in the consolidated JSON and bench_compare.py diffs
/// them like any other number.
inline void counters_from_histogram(benchmark::State& state,
                                    const std::string& prefix,
                                    const core::Histogram& h) {
  if (h.count() == 0) return;
  state.counters[prefix + "_count"] = static_cast<double>(h.count());
  // The mean is the one number here NOT quantized to a log2 bucket bound —
  // flatness assertions (bench_compare.py gate --flat) use it because a
  // percentile sitting on a bucket edge flips between 2^i-1 and 2^(i+1)-1.
  state.counters[prefix + "_mean"] =
      static_cast<double>(h.sum()) / static_cast<double>(h.count());
  state.counters[prefix + "_p50"] = static_cast<double>(h.percentile(50.0));
  state.counters[prefix + "_p90"] = static_cast<double>(h.percentile(90.0));
  state.counters[prefix + "_p99"] = static_cast<double>(h.percentile(99.0));
  state.counters[prefix + "_p999"] = static_cast<double>(h.percentile(99.9));
  state.counters[prefix + "_max"] = static_cast<double>(h.max());
}

/// Attach a service telemetry fold's per-phase latency spreads (its
/// svc.lat.<phase>_ns histograms) as counters: the end-to-end span as
/// "e2e_*", the queue / lock / propagate / journal / fsync phases under their
/// own names.  The sharding gate and the e2e p99 diff read these.
inline void counters_from_phases(benchmark::State& state,
                                 const core::MetricsRegistry& folded) {
  static const char* const kPhases[][2] = {
      {"total", "e2e"},           {"queue", "queue"},
      {"lock", "lock"},           {"propagate", "propagate"},
      {"journal", "journal"},     {"fsync", "fsync"}};
  for (const auto& [phase, prefix] : kPhases) {
    if (const core::Histogram* h = folded.find_histogram(
            std::string("svc.lat.") + phase + "_ns")) {
      counters_from_histogram(state, prefix, *h);
    }
  }
}

/// Shard-count knob for service benches: STEMCP_SHARDS=<n> overrides the
/// bench's default shard count (unset or 0 keeps `fallback`).  The latency
/// bench sweeps explicit shard arms instead; this knob is for one-shot runs
/// of the throughput benches at a chosen shard count.
inline std::size_t env_shards(std::size_t fallback) {
  if (const char* s = std::getenv("STEMCP_SHARDS")) {
    const long n = std::strtol(s, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return fallback;
}

inline std::string stats_json_path(const char* argv0) {
  if (const char* p = std::getenv("STEMCP_BENCH_STATS")) return p;
  std::string exe = (argv0 != nullptr && *argv0) ? argv0 : "bench";
  const auto slash = exe.find_last_of('/');
  if (slash != std::string::npos) exe = exe.substr(slash + 1);
  return exe + ".stats.json";
}

/// One measured benchmark repetition, normalized to ns/iteration.
struct BenchResult {
  std::string name;
  std::int64_t iterations = 0;
  double real_time_ns_per_iter = 0;
  double cpu_time_ns_per_iter = 0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Console reporter that additionally collects every non-aggregate run so
/// bench_main can serialize them alongside the engine metrics.  A run that
/// errored (SkipWithError) is left out of the results and named in failed().
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.error_occurred) {
        failed_.push_back(run.benchmark_name());
        continue;
      }
      BenchResult r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<std::int64_t>(run.iterations);
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      r.real_time_ns_per_iter = run.real_accumulated_time * 1e9 / iters;
      r.cpu_time_ns_per_iter = run.cpu_accumulated_time * 1e9 / iters;
      for (const auto& [cname, counter] : run.counters) {
        r.counters.emplace_back(cname, static_cast<double>(counter.value));
      }
      results_.push_back(std::move(r));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchResult>& results() const { return results_; }
  const std::vector<std::string>& failed() const { return failed_; }

 private:
  std::vector<BenchResult> results_;
  std::vector<std::string> failed_;
};

/// The consolidated per-binary document: benchmark timings + the global
/// metrics registry (engine Stats folded in by every context destructor).
inline std::string consolidated_json(const std::string& bench_name,
                                     const std::vector<BenchResult>& results) {
  std::ostringstream out;
  out << "{\"bench\":" << core::json_string(bench_name) << ",\"benchmarks\":[";
  bool first = true;
  for (const BenchResult& r : results) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":" << core::json_string(r.name)
        << ",\"iterations\":" << r.iterations
        << ",\"real_time_ns_per_iter\":" << r.real_time_ns_per_iter
        << ",\"cpu_time_ns_per_iter\":" << r.cpu_time_ns_per_iter;
    if (!r.counters.empty()) {
      out << ",\"counters\":{";
      bool cfirst = true;
      for (const auto& [cname, v] : r.counters) {
        if (!cfirst) out << ',';
        cfirst = false;
        out << core::json_string(cname) << ':' << v;
      }
      out << '}';
    }
    out << '}';
  }
  out << "],\"metrics\":" << core::global_metrics_snapshot().to_json()
      << '}';
  return out.str();
}

inline int bench_main(int argc, char** argv) {
  const std::string stats_path =
      stats_json_path(argc > 0 ? argv[0] : nullptr);
  std::string exe = (argc > 0 && argv[0] != nullptr) ? argv[0] : "bench";
  if (const auto slash = exe.find_last_of('/'); slash != std::string::npos) {
    exe = exe.substr(slash + 1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (stats_path != "-") {
    std::ofstream out(stats_path, std::ios::out | std::ios::trunc);
    out << consolidated_json(exe, reporter.results()) << '\n';
    if (!out.good()) {
      std::cerr << "bench_support: failed to write " << stats_path << '\n';
      return 1;
    }
  }
  // An errored run must fail the binary, not just vanish from the stats.
  for (const std::string& name : reporter.failed()) {
    std::cerr << "bench_support: " << name << " failed\n";
  }
  return reporter.failed().empty() ? 0 : 1;
}

}  // namespace stemcp::benchsupport

#define STEMCP_BENCH_MAIN()                        \
  int main(int argc, char** argv) {                \
    return stemcp::benchsupport::bench_main(argc, argv); \
  }
