#include "workload/replay.h"

#include <chrono>
#include <deque>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "service/design_service.h"
#include "service/telemetry.h"

namespace stemcp::workload {

namespace {

using service::DesignService;
using service::Request;
using service::RequestType;
using service::Response;

/// Closed loop: submissions stay ahead of responses by at most this many
/// in-flight futures — enough to keep every shard queue fed, bounded so a
/// long trace cannot hold every response alive at once.
constexpr std::size_t kMaxInflight = 4096;

bool answered(const std::future<Response>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

void tally(const Response& resp, ReplayReport* report) {
  if (resp.ok) {
    ++report->ok;
    if (resp.violation) ++report->violations;
  } else {
    ++report->errors;
  }
}

}  // namespace

bool replay_records(const std::vector<TraceRecord>& records,
                    const ReplayOptions& opts, ReplayReport* report,
                    std::string* error) {
  *report = ReplayReport{};
  if (records.empty()) {
    if (error != nullptr) *error = "trace has no records";
    return false;
  }
  DesignService svc(DesignService::Config{opts.workers_per_shard, opts.shards,
                                          opts.journal_root});
  if (opts.recorder != nullptr) svc.set_request_tap(opts.recorder->tap());

  // Sessions the trace leaves open — the image-collection set.  Tracked
  // from the trace's own lifecycle verbs (the live run and the replay see
  // the identical stream, so both compute the identical set).
  std::set<std::string> open_sessions;
  std::deque<std::future<Response>> inflight;
  auto drain_one = [&inflight, report] {
    tally(inflight.front().get(), report);
    inflight.pop_front();
  };
  auto send = [&](const TraceRecord& rec) {
    switch (rec.request.type) {
      case RequestType::kOpen:
      case RequestType::kRecover:
        open_sessions.insert(rec.request.session);
        break;
      case RequestType::kClose:
        open_sessions.erase(rec.request.session);
        break;
      default:
        break;
    }
    inflight.push_back(svc.submit(rec.request));
    ++report->requests;
    if (rec.request.type == RequestType::kOpen && !opts.journal_base.empty()) {
      // Per-shard FIFO with one worker: this lands right after the open,
      // before any traffic the trace sends at the session.
      const std::string& session = rec.request.session;
      inflight.push_back(svc.submit(Request{
          RequestType::kJournal, session,
          opts.journal_base + "_" + session + " " + opts.journal_spec, {}}));
      ++report->journals_attached;
    }
  };

  const double speed = opts.speed > 0.0 ? opts.speed : 1.0;
  const auto first_submit = std::chrono::steady_clock::now();
  auto next = records.begin();
  if (!opts.closed_loop) {
    // Set-up: the leading offset-0 records (a synthesized prologue) are
    // answered before the clock starts, so no timed request queues behind
    // them.
    for (; next != records.end() && next->offset_ns == 0; ++next) send(*next);
    while (!inflight.empty()) drain_one();
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (; next != records.end(); ++next) {
    if (!opts.closed_loop) {
      // Absolute deadline off the recorded arrival: never reschedule off
      // the previous submit, so a slow stretch cannot quietly lower the
      // offered rate (coordinated omission).
      const auto deadline =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                   static_cast<double>(next->offset_ns) / speed));
      std::this_thread::sleep_until(deadline);
    }
    send(*next);
    if (opts.closed_loop) {
      while (inflight.size() > kMaxInflight) drain_one();
    } else {
      // Nor wait on a response: collect only the answers already in.
      while (!inflight.empty() && answered(inflight.front())) drain_one();
    }
  }
  while (!inflight.empty()) drain_one();
  report->wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - first_submit)
                       .count();
  report->offered_s =
      static_cast<double>(records.back().offset_ns) / 1e9 / speed;

  // Detach the tap BEFORE collecting images: the oracle's own save requests
  // are harness machinery, not traffic, and must not end up in the trace.
  if (opts.recorder != nullptr) svc.set_request_tap({});
  if (opts.collect_images) {
    for (const std::string& session : open_sessions) {
      Response resp = svc.call(Request{RequestType::kSave, session, {}, {}});
      // A failed save still lands in the image map: the oracle should see
      // "error: ..." diverge loudly rather than silently skip a session.
      report->images[session] = resp.ok ? resp.text : "error: " + resp.error;
    }
  }
  report->telemetry = svc.telemetry().fold();
  return true;
}

bool replay_file(const std::string& path, const ReplayOptions& opts,
                 ReplayReport* report, std::string* error) {
  TraceScan scan = scan_trace_file(path);
  if (!scan.error.empty()) {
    if (error != nullptr) *error = scan.error;
    return false;
  }
  return replay_records(scan.records, opts, report, error);
}

bool verify_images(const std::map<std::string, std::string>& got,
                   const std::map<std::string, std::string>& want,
                   std::string* diff) {
  for (const auto& [session, image] : want) {
    const auto it = got.find(session);
    if (it == got.end()) {
      if (diff != nullptr) *diff = "session '" + session + "' missing from replay";
      return false;
    }
    if (it->second != image) {
      std::size_t at = 0;
      const std::size_t n = std::min(it->second.size(), image.size());
      while (at < n && it->second[at] == image[at]) ++at;
      if (diff != nullptr) {
        *diff = "session '" + session + "' image diverges at byte " +
                std::to_string(at) + " (got " +
                std::to_string(it->second.size()) + " byte(s), want " +
                std::to_string(image.size()) + ")";
      }
      return false;
    }
  }
  for (const auto& [session, image] : got) {
    (void)image;
    if (want.find(session) == want.end()) {
      if (diff != nullptr) {
        *diff = "session '" + session + "' present in replay but not in reference";
      }
      return false;
    }
  }
  return true;
}

std::string ReplayReport::render() const {
  std::ostringstream out;
  out << requests << " request(s): " << ok << " ok, " << errors
      << " error(s), " << violations << " violation(s)";
  if (journals_attached > 0) {
    out << ", " << journals_attached << " journal(s) attached";
  }
  out << '\n';
  char line[160];
  std::snprintf(line, sizeof line,
                "wall %.3f s (%.0f req/s achieved), trace span %.3f s\n",
                wall_s, achieved_rps(), offered_s);
  out << line;
  static const char* kPhases[] = {"total",   "queue", "lock",
                                  "propagate", "journal", "fsync"};
  out << "phase        p50_ns      p90_ns      p99_ns\n";
  for (const char* phase : kPhases) {
    const core::Histogram* h =
        telemetry.find_histogram(std::string("svc.lat.") + phase + "_ns");
    if (h == nullptr) continue;
    std::snprintf(line, sizeof line, "%-10s %9llu %11llu %11llu\n", phase,
                  static_cast<unsigned long long>(h->percentile(50)),
                  static_cast<unsigned long long>(h->percentile(90)),
                  static_cast<unsigned long long>(h->percentile(99)));
    out << line;
  }
  return out.str();
}

}  // namespace stemcp::workload
