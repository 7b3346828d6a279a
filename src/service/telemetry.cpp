#include "service/telemetry.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <fstream>
#include <sstream>

#include "service/design_service.h"

namespace stemcp::service {

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kQueue: return "queue";
    case Phase::kLock: return "lock";
    case Phase::kPropagate: return "propagate";
    case Phase::kJournal: return "journal";
    case Phase::kFsync: return "fsync";
    case Phase::kFlushWait: return "flush_wait";
    case Phase::kReply: return "reply";
    case Phase::kTotal: return "total";
  }
  return "?";
}

const char* span_type_name(std::uint8_t type) {
  if (type >= kSpanTypeCount) return "unknown";
  return to_string(static_cast<RequestType>(type));
}

// ---------------------------------------------------------------------------
// RequestSpan

void RequestSpan::set_session(std::string_view s) {
  const std::size_t n = std::min(s.size(), kSessionCapacity - 1);
  std::memcpy(session, s.data(), n);
  session[n] = '\0';
}

std::string_view RequestSpan::session_view() const {
  // Bounded scan: a torn flight-ring slot may lack the writer's NUL.
  return std::string_view(session, ::strnlen(session, kSessionCapacity));
}

std::uint64_t RequestSpan::phase_ns(Phase p) const {
  const auto seg = [](std::uint64_t a, std::uint64_t b) {
    return (a != 0 && b > a) ? b - a : 0;
  };
  switch (p) {
    case Phase::kQueue: return seg(t_enqueue, t_dequeue);
    case Phase::kLock: return seg(t_dequeue, t_lock);
    case Phase::kPropagate: return seg(t_lock, t_work_done);
    case Phase::kJournal: {
      // The journal segment minus its flush side: the fsync itself plus —
      // under group commit — any extra ticket-wait beyond it.  The three
      // journal-side phases (journal/fsync/flush_wait) therefore tile
      // t_work_done → t_journal_done exactly, keeping the phase partition
      // (sum of phases == total) intact under every policy.
      const std::uint64_t j = seg(t_work_done, t_journal_done);
      const std::uint64_t flush = std::max(fsync_ns, flush_wait_ns);
      return j > flush ? j - flush : 0;
    }
    case Phase::kFsync: return fsync_ns;
    case Phase::kFlushWait:
      return flush_wait_ns > fsync_ns ? flush_wait_ns - fsync_ns : 0;
    case Phase::kReply:
      return seg(t_journal_done != 0 ? t_journal_done : t_work_done, t_reply);
    case Phase::kTotal: return total_ns();
  }
  return 0;
}

std::uint64_t RequestSpan::phase_start(Phase p) const {
  // The flush side leads into t_journal_done: the flush-wait slice, then
  // the fsync slice, tile [t_journal_done - flush_wait_ns, t_journal_done].
  const auto before_journal_done = [this](std::uint64_t ns) {
    return t_journal_done > ns ? t_journal_done - ns : t_journal_done;
  };
  switch (p) {
    case Phase::kQueue: return t_enqueue;
    case Phase::kLock: return t_dequeue;
    case Phase::kPropagate: return t_lock;
    case Phase::kJournal: return t_work_done;
    case Phase::kFsync: return before_journal_done(fsync_ns);
    case Phase::kFlushWait: return before_journal_done(flush_wait_ns);
    case Phase::kReply:
      return t_journal_done != 0 ? t_journal_done : t_work_done;
    case Phase::kTotal: return t_enqueue;
  }
  return 0;
}

void append_span_trace_events(const RequestSpan& span, std::string& out,
                              bool& first) {
  std::string args = "\"id\":" + std::to_string(span.request_id) +
                     ",\"type\":\"" + span_type_name(span.type) +
                     "\",\"shard\":" + std::to_string(span.shard) +
                     ",\"session\":" + core::json_string(span.session_view());
  args += span.ok ? ",\"ok\":true" : ",\"ok\":false";
  args += span.violation ? ",\"violation\":true" : ",\"violation\":false";

  core::ChromeEvent e;
  e.cat = "request";
  e.ph = 'X';
  e.tid = span.lane;
  e.args = args;
  // The enclosing request slice, then one slice per non-empty phase.
  e.name = "request";
  e.ts_ns = span.t_enqueue;
  e.dur_ns = span.total_ns();
  core::append_chrome_event(out, first, e);
  for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    e.ts_ns = span.phase_start(phase);
    e.dur_ns = span.phase_ns(phase);
    if (e.dur_ns == 0 || e.ts_ns == 0) continue;
    e.name = to_string(phase);
    core::append_chrome_event(out, first, e);
  }
}

// ---------------------------------------------------------------------------
// TelemetryRecorder

struct TelemetryRecorder::Lane {
  // Written by the owning worker only; a flight dump reading another lane
  // tolerates a torn slot in exchange for a lock-free record path.
  core::RingBuffer<RequestSpan, kFlightCapacity> ring;
  core::ConcurrentHistogram phase[kPhaseCount];
  core::ConcurrentHistogram by_type[kSpanTypeCount];
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> violations{0};
};

TelemetryRecorder::TelemetryRecorder(std::size_t lanes,
                                     std::size_t lanes_per_shard)
    : lanes_per_shard_(std::max<std::size_t>(lanes_per_shard, 1)) {
  lanes_.resize(std::max<std::size_t>(lanes, 1));
  for (auto& lane : lanes_) lane = std::make_unique<Lane>();
}

TelemetryRecorder::~TelemetryRecorder() = default;

void TelemetryRecorder::record(std::size_t lane_idx, const RequestSpan& span) {
  if (!enabled()) return;
  Lane& lane = *lanes_[lane_idx % lanes_.size()];

  lane.ring.push(span);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    // Journal phases only exist for requests that actually appended; not
    // recording zeros keeps fsync percentiles meaningful for mixed traffic.
    if ((phase == Phase::kJournal || phase == Phase::kFsync ||
         phase == Phase::kFlushWait) &&
        span.t_journal_done == 0) {
      continue;
    }
    lane.phase[p].record(span.phase_ns(phase));
  }
  if (span.type < kSpanTypeCount) {
    lane.by_type[span.type].record(span.total_ns());
  }
  lane.requests.fetch_add(1, std::memory_order_relaxed);
  if (span.violation) lane.violations.fetch_add(1, std::memory_order_relaxed);

  if (!flight_armed()) return;
  const std::uint64_t slow = slow_threshold_ns();
  const char* reason = nullptr;
  if (span.journal_fault) {
    reason = "journal-dead";
  } else if (span.violation) {
    reason = "violation-wave";
  } else if (slow != 0 && span.total_ns() > slow) {
    reason = "slow-request";
  }
  if (reason == nullptr) return;
  anomalies_.fetch_add(1, std::memory_order_relaxed);
  dump_flight(reason, /*anomaly=*/true);
}

std::uint64_t TelemetryRecorder::requests_recorded() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane->requests.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t TelemetryRecorder::violations_recorded() const {
  std::uint64_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane->violations.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t TelemetryRecorder::anomalies() const {
  return anomalies_.load(std::memory_order_relaxed);
}

core::MetricsRegistry TelemetryRecorder::fold() const {
  core::MetricsRegistry out;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    core::Histogram h;
    for (const auto& lane : lanes_) h.merge(lane->phase[p].snapshot());
    if (h.count() == 0) continue;
    out.histogram(std::string("svc.lat.") +
                  to_string(static_cast<Phase>(p)) + "_ns") = h;
  }
  for (std::size_t t = 0; t < kSpanTypeCount; ++t) {
    core::Histogram h;
    for (const auto& lane : lanes_) h.merge(lane->by_type[t].snapshot());
    if (h.count() == 0) continue;
    out.histogram(std::string("svc.lat.e2e.") +
                  span_type_name(static_cast<std::uint8_t>(t)) + "_ns") = h;
  }
  // Per-shard rollups: lane i belongs to shard i / lanes_per_shard, so a
  // shard's view is just a contiguous slice of the same lane fold — no
  // extra recording on the hot path, and the union across shards equals
  // the global fold exactly (bucket merges are associative).
  const std::size_t lps = lanes_per_shard_;
  for (std::size_t s = 0; s * lps < lanes_.size(); ++s) {
    std::uint64_t requests = 0;
    std::uint64_t violations = 0;
    core::Histogram e2e;
    for (std::size_t l = s * lps; l < std::min((s + 1) * lps, lanes_.size());
         ++l) {
      requests += lanes_[l]->requests.load(std::memory_order_relaxed);
      violations += lanes_[l]->violations.load(std::memory_order_relaxed);
      e2e.merge(
          lanes_[l]->phase[static_cast<std::size_t>(Phase::kTotal)].snapshot());
    }
    const std::string prefix = "svc.shard." + std::to_string(s) + ".";
    out.add_counter(prefix + "requests", requests);
    out.add_counter(prefix + "violations", violations);
    if (e2e.count() != 0) out.histogram(prefix + "e2e_ns") = e2e;
  }
  out.add_counter("svc.telemetry.requests", requests_recorded());
  out.add_counter("svc.telemetry.violations", violations_recorded());
  out.add_counter("svc.telemetry.anomalies", anomalies());
  out.add_counter("svc.telemetry.dumps", dumps());
  return out;
}

namespace {

void table_row(std::ostream& out, const std::string& name,
               const core::Histogram& h) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  %-16s %10" PRIu64 " %12" PRIu64 " %12" PRIu64
                " %12" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n",
                name.c_str(), h.count(), h.percentile(50.0),
                h.percentile(90.0), h.percentile(99.0), h.percentile(99.9),
                h.max());
  out << buf;
}

}  // namespace

std::string TelemetryRecorder::latency_table() const {
  const core::MetricsRegistry reg = fold();
  std::ostringstream out;
  out << "request latency (ns), " << requests_recorded()
      << " request(s) recorded across " << lanes_.size() << " lane(s)\n";
  char head[160];
  std::snprintf(head, sizeof head,
                "  %-16s %10s %12s %12s %12s %12s %12s\n", "phase", "count",
                "p50", "p90", "p99", "p999", "max");
  out << head;
  static const Phase kOrder[] = {Phase::kQueue,     Phase::kLock,
                                 Phase::kPropagate, Phase::kJournal,
                                 Phase::kFsync,     Phase::kFlushWait,
                                 Phase::kReply,     Phase::kTotal};
  for (const Phase p : kOrder) {
    const auto* h = reg.find_histogram(std::string("svc.lat.") +
                                       to_string(p) + "_ns");
    if (h != nullptr) table_row(out, to_string(p), *h);
  }
  bool typed_header = false;
  for (std::size_t t = 0; t < kSpanTypeCount; ++t) {
    const std::string name =
        span_type_name(static_cast<std::uint8_t>(t));
    const auto* h = reg.find_histogram("svc.lat.e2e." + name + "_ns");
    if (h == nullptr) continue;
    if (!typed_header) {
      out << "end-to-end by request type (ns)\n";
      typed_header = true;
    }
    table_row(out, name, *h);
  }
  if (lanes_.size() > lanes_per_shard_) {
    out << "per-shard end-to-end (ns)\n";
    for (std::size_t s = 0; s * lanes_per_shard_ < lanes_.size(); ++s) {
      const auto* h = reg.find_histogram("svc.shard." + std::to_string(s) +
                                         ".e2e_ns");
      if (h != nullptr) table_row(out, "shard " + std::to_string(s), *h);
    }
  }
  if (anomalies() > 0 || dumps() > 0) {
    out << "flight recorder: " << anomalies() << " anomal(ies), " << dumps()
        << " dump(s)\n";
  }
  return out.str();
}

std::vector<RequestSpan> TelemetryRecorder::recent_spans() const {
  std::vector<RequestSpan> out;
  for (const auto& lane : lanes_) {
    const std::vector<RequestSpan> spans = lane->ring.snapshot();
    out.insert(out.end(), spans.begin(), spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              return a.request_id < b.request_id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Flight recorder

void TelemetryRecorder::arm_flight(std::string dump_base,
                                   std::uint64_t slow_threshold_ns) {
  {
    const std::lock_guard<std::mutex> lock(dump_mu_);
    dump_base_ = std::move(dump_base);
  }
  slow_threshold_ns_.store(slow_threshold_ns, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void TelemetryRecorder::disarm_flight() {
  armed_.store(false, std::memory_order_release);
  slow_threshold_ns_.store(0, std::memory_order_relaxed);
}

std::string TelemetryRecorder::dump_flight(const std::string& reason,
                                           bool anomaly) {
  const std::lock_guard<std::mutex> lock(dump_mu_);
  // Checked and counted under the lock, so concurrent anomalies cannot
  // overshoot the cap.
  const std::uint64_t n = dumps_.load(std::memory_order_relaxed);
  if (anomaly && n >= kMaxDumps) return {};
  dumps_.store(n + 1, std::memory_order_relaxed);
  std::string doc =
      "{\"reason\":" + core::json_string(reason) + ",\"traceEvents\":[\n";
  bool first = true;
  for (const RequestSpan& span : recent_spans()) {
    append_span_trace_events(span, doc, first);
  }
  doc += "\n],\"displayTimeUnit\":\"ns\"}\n";
  if (!dump_base_.empty()) {
    std::ofstream f(dump_base_ + "." + std::to_string(n) + ".trace.json",
                    std::ios::out | std::ios::trunc);
    f << doc;
  }
  last_dump_ = doc;
  last_dump_reason_ = reason;
  return doc;
}

std::string TelemetryRecorder::last_dump() const {
  const std::lock_guard<std::mutex> lock(dump_mu_);
  return last_dump_;
}

std::string TelemetryRecorder::last_dump_reason() const {
  const std::lock_guard<std::mutex> lock(dump_mu_);
  return last_dump_reason_;
}

}  // namespace stemcp::service
