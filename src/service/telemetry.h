// Request telemetry: per-request latency spans for the design service
// (ROADMAP: latency-under-load before cost-aware scheduling; cf. ssdiq's
// benchlat methodology — you cannot tune what you cannot attribute).
//
// Every DesignService request carries a RequestSpan: a monotonically
// assigned request id plus one steady-clock stamp per phase boundary
//
//   enqueue → dequeue (queue wait) → session-lock acquired (lock wait)
//           → propagate/work done → journal append + fsync → reply
//
// Workers record completed spans into per-worker *lanes* — a
// core::RingBuffer of spans plus lock-free ConcurrentHistograms per phase and
// per request type — so the steady-state record path takes no lock and
// performs ZERO heap allocations (tests/core/hotpath_test.cpp counts).
// Readers fold the lanes into a plain MetricsRegistry snapshot (percentiles
// are computed on bucket snapshots via Histogram::from_parts, never on the
// live atomics) for the `stats --latency` view, the Prometheus exposition
// (`export-metrics`), and the consolidated bench JSON.
//
// The flight recorder keeps the last 256 spans per lane and, when armed,
// dumps them through core's Chrome trace writer on anomaly: a violation
// wave, a journal going dead mid-append, or any request slower than the
// armed threshold.  See docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.h"

namespace stemcp::service {

/// Request phases, in wall-clock order.  kTotal is enqueue→reply.
enum class Phase : std::uint8_t {
  kQueue,      ///< submitted → picked up by a worker
  kLock,       ///< picked up → session mutex acquired
  kPropagate,  ///< the request's own work (propagation wave, query, ...)
  kJournal,    ///< journal append minus the flush-side portion
  kFsync,      ///< fsync portion of the journal append (or the group flush)
  kFlushWait,  ///< group-commit only: blocked on the ticket beyond the fsync
  kReply,      ///< bookkeeping after the journal until the response is ready
  kTotal,      ///< enqueue → response ready
};
constexpr std::size_t kPhaseCount = 8;
const char* to_string(Phase p);

/// Request types mirrored as a dense index (RequestType has 14 verbs; the
/// span stores the raw value so this header stays independent of
/// design_service.h).
constexpr std::size_t kSpanTypeCount = 14;
const char* span_type_name(std::uint8_t type);

/// One request's life, as fixed-size POD — absolute steady-clock stamps at
/// each phase boundary (0 = boundary never reached; derived phase durations
/// clamp to the previous stamp, so partial spans stay monotone).
struct RequestSpan {
  static constexpr std::size_t kSessionCapacity = 24;

  std::uint64_t request_id = 0;
  std::uint8_t type = 0;      ///< RequestType as raw index
  std::uint8_t lane = 0;      ///< worker index that executed it
  std::uint8_t shard = 0;     ///< session shard the request routed to
  bool ok = false;
  bool violation = false;
  bool journal_fault = false; ///< the journal died during THIS request
  char session[kSessionCapacity] = {};

  std::uint64_t t_enqueue = 0;
  std::uint64_t t_dequeue = 0;
  std::uint64_t t_lock = 0;
  std::uint64_t t_work_done = 0;
  std::uint64_t t_journal_done = 0;
  std::uint64_t t_reply = 0;
  std::uint64_t fsync_ns = 0;  ///< portion of the journal phase spent in fsync
  /// Group commit: nanoseconds this request blocked waiting for its
  /// CommitTicket (covers the shared fsync; the kFlushWait phase is the
  /// excess over fsync_ns so the phases still tile the span).  0 under the
  /// synchronous policies.
  std::uint64_t flush_wait_ns = 0;

  void set_session(std::string_view s);
  std::string_view session_view() const;

  /// Duration of one phase in ns; missing boundaries contribute 0.
  std::uint64_t phase_ns(Phase p) const;
  /// Where phase p starts (0 when its boundary was never reached): its slice
  /// in a trace is [phase_start(p), phase_start(p) + phase_ns(p)].
  std::uint64_t phase_start(Phase p) const;
  std::uint64_t total_ns() const {
    return t_reply > t_enqueue ? t_reply - t_enqueue : 0;
  }
};

/// Render one span through core::append_chrome_event: a "request" X slice
/// plus one per non-empty phase, tid = lane.
void append_span_trace_events(const RequestSpan& span, std::string& out,
                              bool& first);

class TelemetryRecorder {
 public:
  /// Spans each lane's flight ring retains.
  static constexpr std::size_t kFlightCapacity = 256;
  /// Anomaly dumps written before the recorder stops dumping, so an anomaly
  /// storm cannot fill the disk.  Manual dumps are never refused.
  static constexpr std::uint64_t kMaxDumps = 64;

  /// `lanes` worker lanes; lane i belongs to shard i / lanes_per_shard.
  TelemetryRecorder(std::size_t lanes, std::size_t lanes_per_shard);
  ~TelemetryRecorder();

  TelemetryRecorder(const TelemetryRecorder&) = delete;
  TelemetryRecorder& operator=(const TelemetryRecorder&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  std::size_t lane_count() const { return lanes_.size(); }

  /// Monotonic request-id source (never returns the same id twice).
  std::uint64_t next_request_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Record one completed span into `lane`'s histograms and flight ring,
  /// then run the anomaly checks.  Lock-free and allocation-free unless an
  /// anomaly actually dumps.  No-op while disabled.
  void record(std::size_t lane, const RequestSpan& span);

  // ---- aggregated views (safe while workers keep recording) -------------

  std::uint64_t requests_recorded() const;
  std::uint64_t violations_recorded() const;
  std::uint64_t anomalies() const;

  /// Fold every lane into a plain registry: histograms
  /// `svc.lat.<phase>_ns` (one per phase) and `svc.lat.e2e.<type>_ns`
  /// (end-to-end per request type, only types that occurred), counters
  /// `svc.telemetry.{requests,violations,anomalies,dumps}`, and per-shard
  /// aggregates: counters `svc.shard.<i>.requests` / `.violations` and
  /// histogram `svc.shard.<i>.e2e_ns`.  Because lanes fold by exact bucket
  /// merge (Histogram::from_parts), the sharded fold equals a
  /// single-recorder fold of the union of spans — tested as a property in
  /// tests/service/telemetry_test.cpp.
  core::MetricsRegistry fold() const;

  /// Human-readable per-phase / per-type percentile table (p50/p90/p99/p999).
  std::string latency_table() const;

  /// All retained spans, oldest request id first.
  std::vector<RequestSpan> recent_spans() const;

  // ---- flight recorder ---------------------------------------------------

  /// Arm anomaly dumping: `dump_base` receives "<base>.<n>.trace.json"
  /// files (empty = in-memory only), `slow_threshold_ns` flags requests
  /// slower than the threshold (0 keeps the slow check off).
  void arm_flight(std::string dump_base, std::uint64_t slow_threshold_ns);
  void disarm_flight();
  bool flight_armed() const { return armed_.load(std::memory_order_relaxed); }
  std::uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Dump the flight rings as one Chrome trace document, write it to the
  /// armed base, and keep it as last_dump().  An anomaly dump is refused
  /// (returns "") once kMaxDumps dumps were written.
  std::string dump_flight(const std::string& reason, bool anomaly = false);

  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }
  /// Last dump document / reason (empty until a dump happened).
  std::string last_dump() const;
  std::string last_dump_reason() const;

 private:
  struct Lane;

  std::size_t lanes_per_shard_;
  std::atomic<bool> enabled_{true};
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> slow_threshold_ns_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> dumps_{0};
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex dump_mu_;  ///< serializes (rare) dumps and their config
  std::string dump_base_;
  std::string last_dump_;
  std::string last_dump_reason_;
};

}  // namespace stemcp::service
