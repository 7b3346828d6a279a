// Replay + recorder tests (ISSUE 10).  The headline acceptance test lives
// here: record a live mixed-traffic run through the DesignService tap,
// replay the recorded trace into a FRESH journaled service, and require the
// final save image of every open session to be byte-identical to the live
// run's — then recover a session from the replay's own journal and require
// the same bytes a third time.  Fixture names carry "WorkloadReplay" so the
// tier-1 TSAN lane picks them up (tools/run_tier1.sh).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "persist/checkpoint.h"
#include "service/design_service.h"
#include "workload/recorder.h"
#include "workload/replay.h"
#include "workload/synth.h"
#include "workload/trace.h"

namespace {

using namespace stemcp;
using service::DesignService;
using service::Request;
using service::RequestType;
using service::Response;
using workload::ReplayOptions;
using workload::ReplayReport;
using workload::Scenario;
using workload::TraceRecorder;
using workload::TraceScan;

std::string fresh_dir(const std::string& name) {
  const std::string path = testing::TempDir() + "stemcp_replay_" + name;
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

Scenario mixed_scenario() {
  Scenario sc;
  sc.name = "replay_test";
  sc.seed = 11;
  sc.sessions = 4;
  sc.rate_rps = 50000;  // closed-loop ignores offsets; keep the span tiny
  sc.requests = 600;
  sc.churn = 0.01;
  return sc;
}

// THE acceptance test: recorded-trace determinism, proven end to end.
TEST(WorkloadReplayTest, RecordedLiveRunReplaysToByteIdenticalImages) {
  const std::string dir = fresh_dir("oracle");
  const std::string trace_path = dir + "/live.trace";

  // --- Live run: synthetic mixed traffic driven through a real service
  // with the recorder tap armed; its save images are the reference.
  ReplayReport live;
  std::string err;
  auto recorder = TraceRecorder::open(trace_path, &err);
  ASSERT_NE(recorder, nullptr) << err;
  {
    ReplayOptions opts;
    opts.closed_loop = true;
    opts.recorder = recorder.get();
    ASSERT_TRUE(workload::replay_records(workload::synthesize(mixed_scenario()),
                                         opts, &live, &err))
        << err;
  }
  ASSERT_TRUE(recorder->finish(&err)) << err;
  EXPECT_EQ(recorder->stats().drops, 0u);
  EXPECT_EQ(recorder->stats().records,
            static_cast<std::uint64_t>(live.requests));
  ASSERT_FALSE(live.images.empty());

  // --- Replay the recorded trace into a FRESH service, journaled.
  const std::string jroot = dir + "/journals";
  ReplayReport replayed;
  {
    ReplayOptions opts;
    opts.closed_loop = true;
    opts.journal_base = "rb";
    opts.journal_spec = "every-record";
    opts.journal_root = jroot;
    ASSERT_TRUE(workload::replay_file(trace_path, opts, &replayed, &err))
        << err;
  }
  // `requests` counts trace records only — journal injections are tallied
  // separately — so the replay saw exactly the live run's traffic.
  EXPECT_EQ(replayed.requests, live.requests);
  EXPECT_GT(replayed.journals_attached, 0u);

  std::string diff;
  EXPECT_TRUE(workload::verify_images(replayed.images, live.images, &diff))
      << diff;

  // The journals the replay wrote are real: recover one session from them
  // in a third, fresh service and require the same image a third time.
  const std::string session = live.images.begin()->first;
  DesignService rec(DesignService::Config{1, 1, jroot});
  Response r =
      rec.call(Request{RequestType::kRecover, session, "rb_" + session, {}});
  ASSERT_TRUE(r.ok) << r.error;
  Response img = rec.call(Request{RequestType::kSave, session, {}, {}});
  ASSERT_TRUE(img.ok) << img.error;
  EXPECT_EQ(img.text, live.images.at(session));
}

TEST(WorkloadReplayTest, ReplayIsDeterministicAcrossRuns) {
  Scenario sc = mixed_scenario();
  sc.requests = 300;
  const std::vector<workload::TraceRecord> records = workload::synthesize(sc);
  ReplayOptions opts;
  opts.closed_loop = true;
  ReplayReport a, b;
  std::string err;
  ASSERT_TRUE(workload::replay_records(records, opts, &a, &err)) << err;
  ASSERT_TRUE(workload::replay_records(records, opts, &b, &err)) << err;
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.violations, b.violations);
  std::string diff;
  EXPECT_TRUE(workload::verify_images(a.images, b.images, &diff)) << diff;
}

TEST(WorkloadReplayTest, OpenLoopHonorsRecordedOffsets) {
  Scenario sc;
  sc.sessions = 2;
  sc.rate_rps = 1000;
  sc.requests = 150;  // ~0.15 s span
  const std::vector<workload::TraceRecord> records = workload::synthesize(sc);
  ReplayOptions opts;  // open-loop is the default
  ReplayReport report;
  std::string err;
  ASSERT_TRUE(workload::replay_records(records, opts, &report, &err)) << err;
  EXPECT_GT(report.offered_s, 0.1);
  // sleep_until pins the last submission at t0 + span, so wall time can
  // only exceed the trace span (no upper-bound assert: CI machines stall).
  EXPECT_GE(report.wall_s, report.offered_s * 0.95);

  ReplayOptions fast = opts;
  fast.speed = 10.0;
  ReplayReport quick;
  ASSERT_TRUE(workload::replay_records(records, fast, &quick, &err)) << err;
  EXPECT_GE(quick.wall_s, quick.offered_s * 0.95);
  EXPECT_LT(quick.offered_s, report.offered_s / 5.0);
}

// Open loop: the offset-0 set-up (every open and load, and the journal
// attach after each open) is answered before the clock starts, so the first
// timed request goes out after the slowest set-up request has returned.
TEST(WorkloadReplayTest, OpenLoopStartsItsClockAfterTheSetUp) {
  const std::string dir = fresh_dir("setup");
  Scenario sc;
  sc.sessions = 2;
  sc.rate_rps = 10000;
  sc.requests = 20;
  const std::vector<workload::TraceRecord> records = workload::synthesize(sc);
  std::size_t setup = 0;  // offset-0 records and their journal attaches
  for (const workload::TraceRecord& rec : records) {
    if (rec.offset_ns != 0) break;
    setup += rec.request.type == RequestType::kOpen ? 2 : 1;
  }
  std::string err;
  auto recorder = TraceRecorder::open(dir + "/run.trace", &err);
  ASSERT_NE(recorder, nullptr) << err;
  ReplayOptions opts;  // open-loop is the default
  opts.journal_base = "su";
  opts.journal_spec = "every-record";
  opts.journal_root = dir + "/journals";
  opts.recorder = recorder.get();
  ReplayReport report;
  ASSERT_TRUE(workload::replay_records(records, opts, &report, &err)) << err;
  ASSERT_TRUE(recorder->finish(&err)) << err;
  EXPECT_EQ(report.errors, 0u);

  std::uint64_t slowest_setup_ns = 0;
  for (const char* verb : {"open", "journal", "load"}) {
    const core::Histogram* h = report.telemetry.find_histogram(
        std::string("svc.lat.e2e.") + verb + "_ns");
    ASSERT_NE(h, nullptr) << verb;
    slowest_setup_ns = std::max(slowest_setup_ns, h->max());
  }
  const TraceScan scan = workload::scan_trace_file(dir + "/run.trace");
  ASSERT_TRUE(scan.error.empty()) << scan.error;
  ASSERT_GT(scan.records.size(), setup);
  EXPECT_GE(scan.records[setup].offset_ns, slowest_setup_ns);
}

// Open loop never waits on a response: with the only worker held by a
// `recover` blocked opening a FIFO checkpoint, every query due behind it is
// still submitted.
TEST(WorkloadReplayTest, OpenLoopNeverWaitsOnAResponse) {
  const std::string dir = fresh_dir("never_waits");
  const std::string base = dir + "/held";
  const std::string fifo = persist::checkpoint_path(base);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::vector<workload::TraceRecord> records;
  auto add = [&records](Request r) {
    workload::TraceRecord rec;
    rec.offset_ns = records.size() + 1;  // 1 ns apart; no offset-0 set-up
    rec.request = std::move(r);
    records.push_back(std::move(rec));
  };
  add(Request{RequestType::kRecover, "held", base, {}});
  for (int i = 0; i < 5000; ++i) {
    add(Request{RequestType::kQuery, "held", "PIPE.delay(in->out)", {}});
  }
  std::string err;
  auto recorder = TraceRecorder::open(dir + "/run.trace", &err);
  ASSERT_NE(recorder, nullptr) << err;
  ReplayOptions opts;  // open loop, one shard, one worker
  opts.recorder = recorder.get();
  opts.collect_images = false;
  ReplayReport report;
  bool replayed = false;
  std::thread replay([&] {
    replayed = workload::replay_records(records, opts, &report, &err);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (recorder->stats().records < records.size() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t submitted = recorder->stats().records;
  // Release the worker: the recover's open returns once a writer opens the
  // FIFO, and it reads an empty checkpoint.
  const int fd = ::open(fifo.c_str(), O_WRONLY);
  EXPECT_GE(fd, 0);
  if (fd >= 0) ::close(fd);
  replay.join();
  EXPECT_EQ(submitted, records.size());
  ASSERT_TRUE(replayed) << err;
  EXPECT_EQ(report.requests, records.size());
}

TEST(WorkloadReplayTest, ReportTalliesOutcomesAndTelemetry) {
  ReplayReport report;
  std::string err;
  ReplayOptions opts;
  opts.closed_loop = true;
  ASSERT_TRUE(workload::replay_records(workload::synthesize(mixed_scenario()),
                                       opts, &report, &err))
      << err;
  EXPECT_EQ(report.requests, report.ok + report.errors);
  EXPECT_EQ(report.errors, 0u);
  const core::Histogram* total =
      report.telemetry.find_histogram("svc.lat.total_ns");
  ASSERT_NE(total, nullptr);
  // >= because the image-collection saves run through the same service
  // and land in the fold alongside the trace's own requests.
  EXPECT_GE(total->count(), static_cast<std::uint64_t>(report.requests));
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("request(s)"), std::string::npos);
  EXPECT_NE(rendered.find("total"), std::string::npos);

  // An empty trace is a loud error, not a zero-filled report.
  EXPECT_FALSE(workload::replay_records({}, opts, &report, &err));
}

TEST(WorkloadReplayTest, FailedRequestsCountAsErrorsNotCrashes) {
  // Traffic at a session that was never opened: every request fails, the
  // replay still completes and the image set is empty.
  std::vector<workload::TraceRecord> records;
  for (int i = 0; i < 5; ++i) {
    workload::TraceRecord rec;
    rec.offset_ns = static_cast<std::uint64_t>(i);
    rec.request =
        Request{RequestType::kQuery, "ghost", "PIPE.delay(in->out)", {}};
    records.push_back(rec);
  }
  ReplayOptions opts;
  opts.closed_loop = true;
  ReplayReport report;
  std::string err;
  ASSERT_TRUE(workload::replay_records(records, opts, &report, &err)) << err;
  EXPECT_EQ(report.errors, 5u);
  EXPECT_TRUE(report.images.empty());
}

// The tap under fire: many threads submitting concurrently while the
// recorder is armed must yield a trace that scans clean (monotone offsets,
// valid CRCs) with zero drops — one valid serialization of the traffic.
TEST(WorkloadReplayConcurrencyTest, ConcurrentSubmittersYieldParseableTrace) {
  const std::string dir = fresh_dir("tap_mt");
  const std::string trace_path = dir + "/mt.trace";
  std::string err;
  auto recorder = TraceRecorder::open(trace_path, &err);
  ASSERT_NE(recorder, nullptr) << err;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::uint64_t submitted = 0;
  {
    DesignService svc(DesignService::Config{2, 2, {}});
    svc.set_request_tap(recorder->tap());
    const std::string design = workload::pipeline_design();
    for (int t = 0; t < kThreads; ++t) {
      const std::string s = "mt" + std::to_string(t);
      ASSERT_TRUE(svc.call(Request{RequestType::kOpen, s, {}, {}}).ok);
      ASSERT_TRUE(svc.call(Request{RequestType::kLoad, s, design, {}}).ok);
    }
    submitted = kThreads * 2;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&svc, t] {
        const std::string s = "mt" + std::to_string(t);
        for (int i = 0; i < kPerThread; ++i) {
          Request r{RequestType::kAssign, s, {}, {}};
          r.assignments.push_back(
              {"PIPE/s0.delay(in->out)", 1e-9 + 1e-12 * i});
          svc.submit(std::move(r)).get();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    submitted += kThreads * kPerThread;
    svc.set_request_tap({});
  }
  ASSERT_TRUE(recorder->finish(&err)) << err;
  EXPECT_EQ(recorder->stats().drops, 0u);
  EXPECT_EQ(recorder->stats().records, submitted);

  const TraceScan scan = workload::scan_trace_file(trace_path);
  ASSERT_TRUE(scan.error.empty()) << scan.error;
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records.size(), submitted);
}

}  // namespace
