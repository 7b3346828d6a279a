// Request-telemetry tests: span lifecycle (phase stamps monotone, queue wait
// measured under a saturated pool), lane folding and percentile views, the
// Prometheus exposition, and flight-recorder dumps triggered by slow
// requests and journal faults.
#include "service/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "persist/journal.h"
#include "pipeline_design.h"
#include "service/design_service.h"

namespace stemcp::service {
namespace {

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

Request assign_one(const std::string& session, double value) {
  Request r;
  r.type = RequestType::kAssign;
  r.session = session;
  r.assignments.push_back({"PIPE/s0.delay(in->out)", value});
  return r;
}

std::string temp_base(const std::string& name) {
  return testing::TempDir() + "stemcp_telemetry_test_" + name;
}

void cleanup(const std::string& base) {
  std::remove((base + ".journal").c_str());
  std::remove((base + ".ckpt").c_str());
}

const RequestSpan* find_span(const std::vector<RequestSpan>& spans,
                             RequestType type) {
  for (const RequestSpan& s : spans) {
    if (s.type == static_cast<std::uint8_t>(type)) return &s;
  }
  return nullptr;
}

/// One event of a Chrome trace document, times in nanoseconds.
struct ChromeSlice {
  std::string name;
  char ph = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Fixed-point microseconds ("123.456") as nanoseconds; all ones when the
/// text is in any other form.
std::uint64_t us_to_ns(const std::string& s) {
  const std::size_t dot = s.find('.');
  if (dot == std::string::npos || dot == 0 || s.size() != dot + 4 ||
      s.find_first_not_of("0123456789.") != std::string::npos) {
    return ~std::uint64_t{0};
  }
  return std::stoull(s.substr(0, dot)) * 1000 + std::stoull(s.substr(dot + 1));
}

/// The writer puts one event per line; read name, ph, ts and dur of each.
std::vector<ChromeSlice> chrome_events(const std::string& doc) {
  // The text after `prefix` up to the first of `stop`.
  const auto field = [](const std::string& line, const std::string& prefix,
                        const char* stop) {
    const std::size_t at = line.find(prefix);
    if (at == std::string::npos) return std::string();
    const std::size_t from = at + prefix.size();
    return line.substr(from, line.find_first_of(stop, from) - from);
  };
  std::vector<ChromeSlice> out;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":", 0) != 0) continue;
    ChromeSlice e;
    e.name = field(line, "\"name\":\"", "\"");
    e.ph = field(line, "\"ph\":\"", "\"")[0];
    e.ts_ns = us_to_ns(field(line, "\"ts\":", ",}"));
    if (e.ph == 'X') e.dur_ns = us_to_ns(field(line, "\"dur\":", ",}"));
    out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Span lifecycle

TEST(TelemetrySpanTest, PhaseStampsAreMonotoneAndComplete) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "a")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "a", kPipeline)).ok);
  ASSERT_TRUE(svc.call(assign_one("a", 10e-9)).ok);

  const std::vector<RequestSpan> spans = svc.telemetry().recent_spans();
  ASSERT_EQ(spans.size(), 3u);
  // Oldest request id first, and ids are unique and increasing.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].request_id, spans[i].request_id);
  }
  const RequestSpan* s = find_span(spans, RequestType::kAssign);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->ok);
  EXPECT_FALSE(s->violation);
  EXPECT_EQ(s->session_view(), "a");
  EXPECT_LT(s->lane, 2);
  // Every boundary stamped, in wall-clock order.
  EXPECT_GT(s->t_enqueue, 0u);
  EXPECT_GE(s->t_dequeue, s->t_enqueue);
  EXPECT_GE(s->t_lock, s->t_dequeue);
  EXPECT_GE(s->t_work_done, s->t_lock);
  EXPECT_GE(s->t_reply, s->t_work_done);
  EXPECT_EQ(s->t_journal_done, 0u) << "no journal attached";
  // Derived durations agree with the stamps.
  EXPECT_EQ(s->phase_ns(Phase::kQueue), s->t_dequeue - s->t_enqueue);
  EXPECT_EQ(s->phase_ns(Phase::kPropagate), s->t_work_done - s->t_lock);
  EXPECT_EQ(s->phase_ns(Phase::kJournal), 0u);
  EXPECT_EQ(s->phase_ns(Phase::kFsync), 0u);
  EXPECT_EQ(s->total_ns(), s->t_reply - s->t_enqueue);
  std::uint64_t phase_total = 0;
  for (std::size_t p = 0; p + 1 < kPhaseCount; ++p) {
    phase_total += s->phase_ns(static_cast<Phase>(p));
  }
  EXPECT_EQ(phase_total, s->total_ns()) << "phases partition the span";
}

TEST(TelemetrySpanTest, QueueWaitMeasuredUnderSaturatedPool) {
  // One worker: while a slow edit executes, a second request MUST sit in the
  // queue, so its queue phase is an honest wall-clock wait, not ~0.
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "q")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "q", kPipeline)).ok);

  // A pile of requests submitted back-to-back: the FIFO guarantees each
  // waits at least as long as its predecessors' execution.
  std::vector<std::future<Response>> inflight;
  for (int i = 0; i < 8; ++i) {
    inflight.push_back(svc.submit(assign_one("q", (i + 1) * 1e-9)));
  }
  for (auto& f : inflight) ASSERT_TRUE(f.get().ok);

  const std::vector<RequestSpan> spans = svc.telemetry().recent_spans();
  ASSERT_GE(spans.size(), 10u);
  // The LAST of the burst queued behind 7 predecessors.
  const RequestSpan& last = spans.back();
  EXPECT_GT(last.phase_ns(Phase::kQueue), 0u)
      << "queue wait must be visible under a saturated 1-worker pool";
  // And queue wait dominates its own lock wait (same-session FIFO: the lock
  // is free by the time the single worker picks it up).
  EXPECT_GE(last.phase_ns(Phase::kQueue), last.phase_ns(Phase::kLock));
}

TEST(TelemetrySpanTest, JournaledRequestSplitsJournalAndFsyncPhases) {
  const std::string base = temp_base("phases");
  cleanup(base);
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "j")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "j", kPipeline)).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "j", base + " every-record")).ok);
  ASSERT_TRUE(svc.call(assign_one("j", 5e-9)).ok);

  const std::vector<RequestSpan> spans = svc.telemetry().recent_spans();
  const RequestSpan* s = &spans.back();
  ASSERT_EQ(s->type, static_cast<std::uint8_t>(RequestType::kAssign));
  EXPECT_GE(s->t_journal_done, s->t_work_done);
  EXPECT_GT(s->phase_ns(Phase::kFsync), 0u) << "every-record policy fsyncs";
  EXPECT_LE(s->fsync_ns, s->t_journal_done - s->t_work_done)
      << "fsync is part of the journal wall time";
  EXPECT_FALSE(s->journal_fault);

  // The folded registry now has journal + fsync histograms with exactly the
  // journaled mutations counted.
  const core::MetricsRegistry reg = svc.telemetry().fold();
  const core::Histogram* fsync = reg.find_histogram("svc.lat.fsync_ns");
  ASSERT_NE(fsync, nullptr);
  EXPECT_EQ(fsync->count(), 1u) << "only the assign after attach journaled";
  cleanup(base);
}

TEST(TelemetrySpanTest, DisabledTelemetryRecordsNothing) {
  DesignService svc(2);
  svc.telemetry().set_enabled(false);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "off")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "off", kPipeline)).ok);
  EXPECT_EQ(svc.telemetry().requests_recorded(), 0u);
  EXPECT_TRUE(svc.telemetry().recent_spans().empty());
  svc.telemetry().set_enabled(true);
  ASSERT_TRUE(svc.call(assign_one("off", 1e-9)).ok);
  EXPECT_EQ(svc.telemetry().requests_recorded(), 1u);
}

// In a session opened with `trace`, the request phases land in the session's
// engine trace at the span's own stamps: an assign's `propagate` slice holds
// the B/E pair of the propagation session it ran.
TEST(TelemetrySpanTest, TracedPropagateSliceContainsItsSession) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "t", "trace")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "t", kPipeline)).ok);
  ASSERT_TRUE(svc.call(assign_one("t", 10e-9)).ok);
  const std::uint64_t id = svc.telemetry().recent_spans().back().request_id;

  std::ostringstream doc;
  core::write_chrome_trace(svc.sessions()
                               .find("t")
                               ->library()
                               .context()
                               .tracer()
                               .ring()
                               ->snapshot(),
                           doc);
  const std::string want = "req#" + std::to_string(id) + " propagate";
  ChromeSlice slice, begin, end;
  for (const ChromeSlice& e : chrome_events(doc.str())) {
    if (e.name == want) slice = e;
    if (e.ph == 'B') begin = e;  // the assign ran the last session
    if (e.ph == 'E') end = e;
  }
  ASSERT_EQ(slice.ph, 'X') << doc.str();
  ASSERT_EQ(begin.ph, 'B') << doc.str();
  ASSERT_EQ(end.ph, 'E') << doc.str();
  EXPECT_LE(slice.ts_ns, begin.ts_ns) << doc.str();
  EXPECT_LE(end.ts_ns, slice.ts_ns + slice.dur_ns) << doc.str();
}

// ---------------------------------------------------------------------------
// Aggregated views

TEST(TelemetryViewsTest, FoldLatencyTableAndPrometheus) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "v")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "v", kPipeline)).ok);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(svc.call(assign_one("v", i * 1e-9)).ok);
  }

  const core::MetricsRegistry reg = svc.telemetry().fold();
  EXPECT_EQ(reg.counter("svc.telemetry.requests"), 7u);
  const core::Histogram* total = reg.find_histogram("svc.lat.total_ns");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->count(), 7u);
  const core::Histogram* by_type =
      reg.find_histogram("svc.lat.e2e.assign_ns");
  ASSERT_NE(by_type, nullptr);
  EXPECT_EQ(by_type->count(), 5u);
  EXPECT_GT(total->percentile(50.0), 0u);
  EXPECT_LE(total->percentile(50.0), total->percentile(99.9));

  const std::string table = svc.telemetry().latency_table();
  EXPECT_NE(table.find("p50"), std::string::npos) << table;
  EXPECT_NE(table.find("p999"), std::string::npos) << table;
  EXPECT_NE(table.find("queue"), std::string::npos) << table;
  EXPECT_NE(table.find("propagate"), std::string::npos) << table;
  EXPECT_NE(table.find("assign"), std::string::npos) << table;

  const std::string prom = core::metrics_to_prometheus(svc.telemetry().fold());
  EXPECT_NE(prom.find("stemcp_svc_lat_total_ns_bucket{le="),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("stemcp_svc_lat_total_ns_count 7"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("le=\"+Inf\"} 7"), std::string::npos) << prom;
  EXPECT_NE(prom.find("stemcp_svc_telemetry_requests 7"), std::string::npos)
      << prom;
}

TEST(TelemetryViewsTest, ChromeTraceEventsFromSpan) {
  RequestSpan span;
  span.request_id = 42;
  span.type = static_cast<std::uint8_t>(RequestType::kAssign);
  span.lane = 1;
  span.ok = true;
  span.set_session("tracey");
  span.t_enqueue = 1000;
  span.t_dequeue = 2000;
  span.t_lock = 2500;
  span.t_work_done = 5000;
  span.t_journal_done = 6000;
  span.fsync_ns = 400;
  span.t_reply = 6100;

  std::string out;
  bool first = true;
  append_span_trace_events(span, out, first);
  EXPECT_NE(out.find("\"name\":\"request\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"queue\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"propagate\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"journal\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"name\":\"fsync\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"tid\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"id\":42"), std::string::npos) << out;
  EXPECT_NE(out.find("\"session\":\"tracey\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"type\":\"assign\""), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, DumpsOnSlowRequest) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "slow")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "slow", kPipeline)).ok);
  ASSERT_TRUE(svc.call(assign_one("slow", 1e-9)).ok);
  EXPECT_EQ(svc.telemetry().anomalies(), 0u) << "disarmed: no anomaly checks";

  // 1 ns threshold: the next request is guaranteed "slow".
  svc.telemetry().arm_flight("", 1);
  ASSERT_TRUE(svc.call(assign_one("slow", 2e-9)).ok);
  EXPECT_GE(svc.telemetry().anomalies(), 1u);
  EXPECT_GE(svc.telemetry().dumps(), 1u);
  EXPECT_EQ(svc.telemetry().last_dump_reason(), "slow-request");
  const std::string dump = svc.telemetry().last_dump();
  EXPECT_NE(dump.find("\"reason\":\"slow-request\""), std::string::npos);
  EXPECT_NE(dump.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(dump.find("\"name\":\"request\""), std::string::npos)
      << "retained spans serialize as trace events";

  // Disarm: anomalies stop registering.
  const std::uint64_t anomalies = svc.telemetry().anomalies();
  svc.telemetry().disarm_flight();
  ASSERT_TRUE(svc.call(assign_one("slow", 3e-9)).ok);
  EXPECT_EQ(svc.telemetry().anomalies(), anomalies);
}

TEST(FlightRecorderTest, DumpsOnJournalFault) {
  const std::string base = temp_base("fault");
  cleanup(base);
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "f")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "f", kPipeline)).ok);
  ASSERT_TRUE(
      svc.call(make(RequestType::kJournal, "f", base + " every-record")).ok);
  svc.telemetry().arm_flight("", 0);

  // Cut the journal's write path: the next mutation's append dies mid-write.
  svc.sessions().find("f")->journal()->set_fail_after(4);
  const Response r = svc.call(assign_one("f", 5e-9));
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.text.find("no longer durable"), std::string::npos);

  EXPECT_GE(svc.telemetry().dumps(), 1u);
  EXPECT_EQ(svc.telemetry().last_dump_reason(), "journal-dead");
  const std::vector<RequestSpan> spans = svc.telemetry().recent_spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_TRUE(spans.back().journal_fault);

  // Later mutations against the already-dead journal are NOT new anomalies
  // (one fault, one dump — not a dump storm).
  const std::uint64_t dumps = svc.telemetry().dumps();
  ASSERT_TRUE(svc.call(assign_one("f", 6e-9)).ok);
  EXPECT_EQ(svc.telemetry().dumps(), dumps);
  cleanup(base);
}

TEST(FlightRecorderTest, DumpFilesWrittenToBase) {
  const std::string dump_base = testing::TempDir() + "stemcp_flight_dump";
  std::remove((dump_base + ".0.trace.json").c_str());
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "d")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "d", kPipeline)).ok);
  svc.telemetry().arm_flight(dump_base, 1);
  ASSERT_TRUE(svc.call(assign_one("d", 1e-9)).ok);
  ASSERT_GE(svc.telemetry().dumps(), 1u);

  std::ifstream in(dump_base + ".0.trace.json");
  ASSERT_TRUE(in.good()) << "dump file must exist";
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"traceEvents\":["), std::string::npos);
  std::remove((dump_base + ".0.trace.json").c_str());
}

TEST(FlightRecorderTest, ManualDumpAndRingCapacity) {
  TelemetryRecorder rec(1, 1);
  RequestSpan span;
  span.set_session("ring");
  constexpr std::size_t kSpans = TelemetryRecorder::kFlightCapacity + 6;
  for (std::size_t i = 0; i < kSpans; ++i) {
    span.request_id = rec.next_request_id();
    span.t_enqueue = 100 * (i + 1);
    span.t_reply = span.t_enqueue + 50;
    rec.record(0, span);
  }
  // The ring keeps only the newest kFlightCapacity (256) spans.
  const std::vector<RequestSpan> spans = rec.recent_spans();
  ASSERT_EQ(spans.size(), TelemetryRecorder::kFlightCapacity);
  EXPECT_EQ(spans.front().request_id, 7u);
  EXPECT_EQ(spans.back().request_id, kSpans);

  const std::string doc = rec.dump_flight("manual");
  EXPECT_NE(doc.find("\"reason\":\"manual\""), std::string::npos);
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_EQ(rec.last_dump_reason(), "manual");
}

// Anomaly dumps stop at kMaxDumps (64); a manual dump is never refused.
TEST(FlightRecorderTest, AnomalyDumpsStopAtTheCap) {
  TelemetryRecorder rec(1, 1);
  rec.arm_flight("", 1);  // every request is slower than 1 ns
  RequestSpan span;
  span.set_session("storm");
  for (int i = 0; i < 100; ++i) {
    span.request_id = rec.next_request_id();
    span.t_enqueue = 1000 * (i + 1);
    span.t_reply = span.t_enqueue + 50;
    rec.record(0, span);
  }
  EXPECT_EQ(rec.anomalies(), 100u);
  EXPECT_EQ(rec.dumps(), TelemetryRecorder::kMaxDumps);
  EXPECT_NE(rec.dump_flight("manual"), "");
  EXPECT_EQ(rec.dumps(), TelemetryRecorder::kMaxDumps + 1);
}

// ---------------------------------------------------------------------------
// Fold correctness under sharding

void expect_histograms_identical(const core::Histogram& a,
                                 const core::Histogram& b,
                                 const std::string& name) {
  EXPECT_EQ(a.count(), b.count()) << name;
  EXPECT_EQ(a.sum(), b.sum()) << name;
  EXPECT_EQ(a.min(), b.min()) << name;
  EXPECT_EQ(a.max(), b.max()) << name;
  EXPECT_EQ(a.buckets(), b.buckets()) << name;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << name << " p" << p;
  }
}

// Property: a recorder with N shard-grouped lanes folds to EXACTLY the same
// svc.lat.* views as one lane fed the union of the same spans.  Lane folds
// merge raw log2 buckets (Histogram::from_parts snapshots), and bucket
// addition is associative and commutative, so this must hold exactly —
// count-for-count and bucket-for-bucket, not merely within percentile
// tolerance.  This is the invariant that makes per-shard telemetry
// trustworthy: sharding the service cannot change what the fold reports.
TEST(TelemetryViewsTest, ShardedFoldEqualsSingleRecorderFoldOfUnion) {
  TelemetryRecorder sharded(8, 2);  // 4 shards x 2 lanes
  TelemetryRecorder single(1, 1);   // one lane, one implicit shard

  // Seeded xorshift: the span stream is identical on every run.
  std::uint64_t seed = 0x2F7B1D3A9E4C6B5Full;
  auto next = [&seed] {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  constexpr int kSpans = 512;
  for (int i = 0; i < kSpans; ++i) {
    RequestSpan s;
    s.request_id = static_cast<std::uint64_t>(i + 1);
    s.type = static_cast<std::uint8_t>(next() % kSpanTypeCount);
    s.ok = true;
    s.violation = next() % 8 == 0;
    s.set_session("p" + std::to_string(next() % 5));
    s.t_enqueue = 1000 + next() % 1000;
    s.t_dequeue = s.t_enqueue + next() % 10000;
    s.t_lock = s.t_dequeue + next() % 5000;
    s.t_work_done = s.t_lock + next() % 100000;
    if (next() % 2 == 0) {  // journaled half: journal + fsync phases exist
      s.t_journal_done = s.t_work_done + 1 + next() % 20000;
      s.fsync_ns = next() % 8000;
      s.t_reply = s.t_journal_done + next() % 1000;
    } else {
      s.t_reply = s.t_work_done + next() % 1000;
    }
    const std::size_t lane = next() % 8;
    s.lane = static_cast<std::uint8_t>(lane);
    s.shard = static_cast<std::uint8_t>(lane / 2);
    sharded.record(lane, s);
    single.record(0, s);
  }

  const core::MetricsRegistry a = sharded.fold();
  const core::MetricsRegistry b = single.fold();

  static const Phase kPhases[] = {Phase::kQueue,   Phase::kLock,
                                  Phase::kPropagate, Phase::kJournal,
                                  Phase::kFsync,   Phase::kReply,
                                  Phase::kTotal};
  for (const Phase p : kPhases) {
    const std::string name = std::string("svc.lat.") + to_string(p) + "_ns";
    const core::Histogram* ha = a.find_histogram(name);
    const core::Histogram* hb = b.find_histogram(name);
    ASSERT_NE(ha, nullptr) << name;
    ASSERT_NE(hb, nullptr) << name;
    expect_histograms_identical(*ha, *hb, name);
  }
  for (std::size_t t = 0; t < kSpanTypeCount; ++t) {
    const std::string name =
        std::string("svc.lat.e2e.") +
        span_type_name(static_cast<std::uint8_t>(t)) + "_ns";
    const core::Histogram* ha = a.find_histogram(name);
    const core::Histogram* hb = b.find_histogram(name);
    ASSERT_EQ(ha == nullptr, hb == nullptr) << name;
    if (ha != nullptr) expect_histograms_identical(*ha, *hb, name);
  }

  // The per-shard rollups partition the union: request counts sum to the
  // total, and merging the four shard e2e histograms reproduces the global
  // total-phase histogram exactly.
  std::uint64_t shard_requests = 0;
  core::Histogram shard_e2e;
  for (int sidx = 0; sidx < 4; ++sidx) {
    const std::string prefix = "svc.shard." + std::to_string(sidx) + ".";
    const auto it = a.counters().find(prefix + "requests");
    ASSERT_NE(it, a.counters().end()) << prefix;
    shard_requests += it->second;
    if (const core::Histogram* h = a.find_histogram(prefix + "e2e_ns")) {
      shard_e2e.merge(*h);
    }
  }
  EXPECT_EQ(shard_requests, static_cast<std::uint64_t>(kSpans));
  const core::Histogram* total = b.find_histogram("svc.lat.total_ns");
  ASSERT_NE(total, nullptr);
  expect_histograms_identical(shard_e2e, *total, "shard e2e union");
  // The single-lane recorder groups everything into shard 0.
  EXPECT_EQ(b.counters().at("svc.shard.0.requests"),
            static_cast<std::uint64_t>(kSpans));
}

}  // namespace
}  // namespace stemcp::service
