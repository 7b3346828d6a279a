// Trace replayer: drives a fresh DesignService with a recorded or
// synthesized trace in one of two loops, and folds the service's own
// per-phase telemetry into a ReplayReport.
//
//   * Open loop (the default, the latency arm).  The leading offset-0
//     records are set-up — a synthesized trace's prologue of opens and
//     loads, plus the journal attaches `journal_base` injects — and are
//     answered before the clock starts, so no timed request queues behind
//     them.  Every later record goes out at its absolute deadline
//     t0 + offset / speed and never waits on a response: the loop collects
//     only answers already in, so a stalled service piles queue wait onto
//     later requests instead of throttling the arrivals (no coordinated
//     omission).
//   * Closed loop (the throughput arm).  Offsets are ignored; submissions
//     run at most 4,096 responses ahead.
//
// The replayer can collect each surviving session's save image, so a
// recorded trace doubles as a correctness oracle: replaying it into a fresh
// journaled service must reproduce the live run's images byte-identically
// (tests/workload/replay_test.cpp gates the build on this).
//
// Determinism contract: per-session request order is the per-shard FIFO
// order, preserved end-to-end only when each shard has ONE worker — the
// default here, as in bench_latency_under_load.  More workers make the
// replay a load generator, not an oracle.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/trace.h"
#include "workload/recorder.h"
#include "workload/trace.h"

namespace stemcp::workload {

struct ReplayOptions {
  bool closed_loop = false;  ///< ignore offsets, submit as fast as possible
  double speed = 1.0;        ///< open-loop time scale (2.0 = twice as fast)
  std::size_t shards = 1;
  std::size_t workers_per_shard = 1;  ///< >1 forfeits replay determinism
  /// Non-empty: every session the trace opens is journaled to
  /// "<journal_base>_<session>" right after its open, making the replay a
  /// durable run whose journals can themselves be recovered and compared.
  std::string journal_base;
  std::string journal_spec = "every-record";
  std::string journal_root;  ///< DesignService::Config::journal_root
  bool collect_images = true;  ///< save every still-open session at the end
  /// Non-null: record this run's live traffic (the `record` subcommand —
  /// synthesized arrivals in, measured offsets out).  The replayer attaches
  /// the tap before the first request and detaches it after the last.
  TraceRecorder* recorder = nullptr;
};

struct ReplayReport {
  std::uint64_t requests = 0;    ///< trace records submitted
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t violations = 0;  ///< successful requests reporting a violation
  std::uint64_t journals_attached = 0;  ///< injected by `journal_base`
  double wall_s = 0.0;     ///< first submit → last response
  double offered_s = 0.0;  ///< trace duration / speed (open loop)
  /// session → save image, for the byte-identical oracle.
  std::map<std::string, std::string> images;
  /// The service's folded per-phase telemetry (svc.lat.*_ns histograms).
  core::MetricsRegistry telemetry;

  double achieved_rps() const {
    return wall_s > 0.0 ? static_cast<double>(requests) / wall_s : 0.0;
  }
  /// Human-readable summary: counts, rates, per-phase p50/p90/p99 table.
  std::string render() const;
};

/// Replay parsed records.  False (with `*error`) only for harness-level
/// failures (nothing to replay); request-level errors are counted in the
/// report — a trace that legitimately contains failing requests replays them
/// faithfully.
bool replay_records(const std::vector<TraceRecord>& records,
                    const ReplayOptions& opts, ReplayReport* report,
                    std::string* error);

/// Scan (strictly — corruption fails, a torn tail is tolerated) and replay
/// a trace file.
bool replay_file(const std::string& path, const ReplayOptions& opts,
                 ReplayReport* report, std::string* error);

/// Compare two image sets byte-for-byte.  On mismatch fills `*diff` with a
/// one-line description of the first divergence (missing session, first
/// differing byte) and returns false.
bool verify_images(const std::map<std::string, std::string>& got,
                   const std::map<std::string, std::string>& want,
                   std::string* diff);

}  // namespace stemcp::workload
