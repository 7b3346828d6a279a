// Allocation-free hot path (docs/PERFORMANCE.md): after warm-up, a
// steady-state propagation session — schedule, pop, record-visited, assign,
// check — must perform zero heap allocations.  This binary overrides the
// global allocator to count; each test binary is standalone (see
// tests/CMakeLists.txt), so the override affects only this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/core.h"
#include "fig5_1_network.h"
#include "persist/journal.h"
#include "service/session.h"
#include "service/telemetry.h"
#include "stem/io.h"
#include "stem/stem.h"
#include "workload/recorder.h"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stemcp::core {
namespace {

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

// The Fig 4.5-style shape every bench hits: a fan-in of equalities feeding a
// functional adder.  a drives b and c; s = b + c.
struct Diamond {
  PropagationContext ctx;
  Variable a{ctx, "t", "a"}, b{ctx, "t", "b"}, c{ctx, "t", "c"},
      s{ctx, "t", "s"};

  Diamond() {
    EqualityConstraint::among(ctx, {&a, &b});
    EqualityConstraint::among(ctx, {&a, &c});
    auto& add = ctx.make<UniAdditionConstraint>();
    add.set_result(s);
    add.basic_add_argument(b);
    add.basic_add_argument(c);
  }
};

TEST(HotPathTest, SteadyStateSessionAllocatesNothing) {
  Diamond d;
  // Warm-up: first sessions size the trail, agenda FIFOs, per-task queued_
  // lists, and the fan-out scratch pool.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.a.set_user(Value(i)));
  }
  const std::uint64_t before = alloc_count();
  for (int i = 4; i < 64; ++i) {
    ASSERT_TRUE(d.a.set_user(Value(i)));
    ASSERT_EQ(d.s.value().as_int(), 2 * i);
  }
  EXPECT_EQ(alloc_count(), before)
      << "steady-state schedule/pop/record-visited must not allocate";
}

TEST(HotPathTest, SteadyStateCanBeSetToAllocatesNothing) {
  Diamond d;
  ASSERT_TRUE(d.a.set_user(Value(1)));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.a.can_be_set_to(Value(100 + i)));
  }
  const std::uint64_t before = alloc_count();
  for (int i = 4; i < 32; ++i) {
    ASSERT_TRUE(d.a.can_be_set_to(Value(100 + i)));
    ASSERT_EQ(d.a.value().as_int(), 1) << "probe must restore";
  }
  EXPECT_EQ(alloc_count(), before);
}

TEST(HotPathTest, SteadyStateSchedulerPathAllocatesNothing) {
  PropagationContext ctx;
  AgendaScheduler sched;
  auto& c1 = ctx.make<EqualityConstraint>();
  auto& c2 = ctx.make<EqualityConstraint>();
  // Warm-up: intern, grow fifos and queued_ capacity.
  for (int i = 0; i < 4; ++i) {
    sched.schedule_cached(c1, kFunctionalConstraintsAgenda, nullptr);
    sched.schedule_cached(c2, kImplicitConstraintsAgenda, nullptr);
    while (sched.pop_highest_priority()) {
    }
    sched.clear();
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        sched.schedule_cached(c1, kFunctionalConstraintsAgenda, nullptr));
    ASSERT_FALSE(
        sched.schedule_cached(c1, kFunctionalConstraintsAgenda, nullptr));
    ASSERT_TRUE(
        sched.schedule_cached(c2, kImplicitConstraintsAgenda, nullptr));
    ASSERT_TRUE(sched.pop_highest_priority().has_value());
    ASSERT_TRUE(sched.pop_highest_priority().has_value());
    ASSERT_FALSE(sched.pop_highest_priority().has_value());
    sched.clear();
  }
  EXPECT_EQ(alloc_count(), before);
}

// E5.1's hierarchical network (bench/fig5_1_network.h): a head change runs
// the internal chain, then crosses the class characteristic's implicit links
// to N instance duals, each of which fans out again.  Every fan-out
// snapshots its implicit links into the context's pooled scratch, so a
// steady-state change allocates nothing.
TEST(HotPathTest, HierarchicalFanOutAllocatesNothing) {
  constexpr int kInstances = 16;
  constexpr int kInternal = 64;
  fig5_1::Hierarchical net(kInstances, kInternal);
  for (int i = 0; i < 4; ++i) {  // warm-up: trail, agendas, scratch pool
    ASSERT_TRUE(net.head.set_user(Value(static_cast<double>(i))));
  }
  const std::uint64_t before = alloc_count();
  for (int i = 4; i < 68; ++i) {
    ASSERT_TRUE(net.head.set_user(Value(static_cast<double>(i))));
  }
  EXPECT_EQ(alloc_count(), before)
      << "a head change must not allocate per dual it crosses";
  EXPECT_DOUBLE_EQ(net.external.back()->value().as_number(),
                   67.0 + kInternal + 5.0);
}

// Name resolution walks a path through the design database with string_view
// slices of it (src/service/session.cpp): no path shape allocates, even with
// names past std::string's inline buffer.
TEST(HotPathTest, NameResolutionAllocatesNothing) {
  service::DesignSession s("hotpath");
  env::LibraryReader::read_string(s.library(), R"(cell LONG_LEAF_CLASS.REALIZATION
  bbox 0 0 4 4
  signal input_signal_with_a_long_name input width 8
  signal output_signal_with_a_long_name output
  param drive_strength_parameter 1 8 default 2
  delay input_signal_with_a_long_name output_signal_with_a_long_name value 1e-9
end
cell LONG_COMPOSITE_CLASS_NAME
  subcell instance_with_a_long_name.0 LONG_LEAF_CLASS.REALIZATION R0 0 0
end
)");
  env::CellInstance& inst = *s.library()
                                 .cell("LONG_COMPOSITE_CLASS_NAME")
                                 .find_subcell("instance_with_a_long_name.0");
  inst.bit_width("input_signal_with_a_long_name");
  inst.parameter("drive_strength_parameter");
  inst.delay("input_signal_with_a_long_name", "output_signal_with_a_long_name");
  const std::string leaf = "LONG_LEAF_CLASS.REALIZATION";
  const std::string in = "input_signal_with_a_long_name";
  const std::string out = "output_signal_with_a_long_name";
  const std::string delay = "delay(" + in + "->" + out + ")";
  const std::string owner =
      "LONG_COMPOSITE_CLASS_NAME/instance_with_a_long_name.0";
  const std::vector<std::string> paths = {
      leaf + ".boundingBox",
      leaf + "." + in + ".bitWidth",
      leaf + "." + out + ".dataType",
      leaf + "." + in + ".electricalType",
      leaf + ".param(drive_strength_parameter)",
      leaf + "." + delay,
      owner + ".boundingBox",
      owner + ".bitWidth(" + in + ")",
      owner + ".param(drive_strength_parameter)",
      owner + "." + delay,
  };
  const std::string unknown = owner + ".param(no_such_parameter_anywhere)";
  for (const std::string& p : paths) EXPECT_NE(s.find_variable(p), nullptr) << p;
  EXPECT_EQ(s.find_variable(unknown), nullptr);
  const std::uint64_t before = alloc_count();
  for (int round = 0; round < 16; ++round) {
    for (const std::string& p : paths) s.find_variable(p);
    s.find_variable(unknown);
  }
  EXPECT_EQ(alloc_count(), before) << "a lookup must not allocate";
}

// The library reader scans its text in place, one line at a time
// (src/stem/word_cursor.h): a comment or blank line costs no allocation, so
// 10,000 of them, each past std::string's inline buffer, cost what 10 do.
TEST(HotPathTest, LibraryTextCommentLinesAllocateNothing) {
  const auto load_allocs = [](int filler_lines) {
    const std::string comment = "  # " + std::string(120, 'c') + '\n';
    const std::string blank = std::string(80, ' ') + "\t\r\n";
    std::string text = "cell STAGE\n  signal in input\n";
    for (int i = 0; i < filler_lines; ++i) text += i % 2 ? comment : blank;
    text += "  signal out output\n  delay in out value 1e-9\nend\n";
    env::Library lib("hotpath");
    const std::uint64_t before = alloc_count();
    env::LibraryReader::read_string(lib, text);
    return alloc_count() - before;
  };
  load_allocs(10);  // warm-up
  EXPECT_EQ(load_allocs(10), load_allocs(10000))
      << "a comment or blank line must not allocate";
}

// The pop order of a full session must match the pre-optimization engine:
// implicit agenda drains before functional, FIFO within each, duplicates
// suppressed.  stats().scheduled_runs pins exactly how many entries ran.
TEST(HotPathTest, SessionPopOrderEquivalence) {
  Diamond d;
  d.ctx.reset_stats();
  ASSERT_TRUE(d.a.set_user(Value(3)));
  EXPECT_EQ(d.s.value().as_int(), 6);
  EXPECT_EQ(d.ctx.stats().scheduled_runs, 1u)
      << "adder scheduled by both equalities, deduplicated to one run";
  EXPECT_EQ(d.ctx.stats().sessions, 1u);
  EXPECT_EQ(d.ctx.visited_variable_count(), 4u) << "a, b, c, s";
}

TEST(HotPathTest, MetricHandlesAreStableUntilClear) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const auto gen = reg.generation();
  std::uint64_t* c = reg.counter_handle("requests");
  Histogram* h = reg.histogram_handle("latency");
  *c += 5;
  h->record(100);
  // Creating more slots must not move existing handles (std::map nodes).
  for (int i = 0; i < 100; ++i) {
    reg.counter_handle("other." + std::to_string(i));
  }
  EXPECT_EQ(reg.counter_handle("requests"), c);
  EXPECT_EQ(reg.histogram_handle("latency"), h);
  EXPECT_EQ(reg.counter("requests"), 5u);
  EXPECT_EQ(reg.generation(), gen);
  // clear() invalidates: the generation moves, so cached handles re-resolve.
  reg.clear();
  EXPECT_NE(reg.generation(), gen);
  EXPECT_EQ(reg.counter("requests"), 0u);
}

// Per-constraint-type timing histograms must survive the switch to cached
// handles: the same run_ns.* / check_ns.* keys appear, with sane counts.
TEST(HotPathTest, PerTypeTimingKeysUnchanged) {
  Diamond d;
  d.ctx.metrics().set_enabled(true);
  ASSERT_TRUE(d.a.set_user(Value(2)));
  ASSERT_TRUE(d.a.set_user(Value(5)));
  const auto* run = d.ctx.metrics().find_histogram("run_ns.uniAddition");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count(), 2u) << "one scheduled adder run per session";
  const auto* chk = d.ctx.metrics().find_histogram("check_ns.equality");
  ASSERT_NE(chk, nullptr);
  EXPECT_GE(chk->count(), 2u);
  EXPECT_EQ(d.ctx.metrics().find_histogram("check_ns.propagatable"), nullptr)
      << "no stray keys from eager handle resolution";
}

// Metric recording stays correct across a mid-run clear(): the engine's
// cached handles must notice the generation change and re-resolve instead of
// writing through dangling pointers.
TEST(HotPathTest, TimingHandlesSurviveRegistryClear) {
  Diamond d;
  d.ctx.metrics().set_enabled(true);
  ASSERT_TRUE(d.a.set_user(Value(2)));
  d.ctx.metrics().clear();
  ASSERT_TRUE(d.a.set_user(Value(7)));
  const auto* run = d.ctx.metrics().find_histogram("run_ns.uniAddition");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->count(), 1u) << "only the post-clear session is recorded";
}

// The request-telemetry record path rides on every service request: id
// assignment, span stamps, ring write, per-phase + per-type histogram
// updates.  Steady state must add ZERO heap allocations per request (the
// lanes and rings are sized at construction).
TEST(HotPathTest, TelemetryRecordAllocatesNothing) {
  service::TelemetryRecorder rec(2, 1);
  service::RequestSpan span;
  span.set_session("hotpath");
  span.type = 3;  // kAssign
  const auto stamp = [&span, &rec] {
    span.request_id = rec.next_request_id();
    span.t_enqueue = Tracer::now_ns();
    span.t_dequeue = span.t_enqueue + 10;
    span.t_lock = span.t_dequeue + 5;
    span.t_work_done = span.t_lock + 100;
    span.t_journal_done = span.t_work_done + 40;
    span.fsync_ns = 25;
    span.t_reply = span.t_journal_done + 3;
    span.ok = true;
  };
  for (int i = 0; i < 8; ++i) {  // warm-up (nothing to size, but symmetric)
    stamp();
    rec.record(i % 2, span);
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 512; ++i) {
    stamp();
    rec.record(i % 2, span);
  }
  EXPECT_EQ(alloc_count(), before)
      << "per-request telemetry must not allocate in steady state";
  EXPECT_EQ(rec.requests_recorded(), 520u);
}

// The workload recorder rides the same dispatch path as telemetry
// (src/workload/recorder.h): render + frame + fwrite through member scratch
// buffers whose capacity sticks after the first few records.  Steady state
// must add ZERO heap allocations per recorded request.
TEST(HotPathTest, WorkloadRecorderRecordAllocatesNothing) {
  const std::string path = testing::TempDir() + "stemcp_hotpath_rec.trace";
  std::string err;
  auto rec = workload::TraceRecorder::open(path, &err);
  ASSERT_NE(rec, nullptr) << err;
  service::Request r;
  r.type = service::RequestType::kBatchAssign;
  r.session = "hotpath";
  r.assignments.push_back({"PIPE/s0.delay(in->out)", 1.25e-9});
  r.assignments.push_back({"PIPE/s1.delay(in->out)", 2.5e-9});
  for (int i = 0; i < 8; ++i) {  // warm-up: scratch + stdio buffer sizing
    rec->record(r);
  }
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 512; ++i) {
    rec->record(r);
  }
  EXPECT_EQ(alloc_count(), before)
      << "steady-state trace recording must not allocate";
  ASSERT_TRUE(rec->finish(&err)) << err;
  EXPECT_EQ(rec->stats().records, 520u);
  EXPECT_EQ(rec->stats().drops, 0u);
  std::remove(path.c_str());
}

// A one-record journal commit allocates nothing but its ticket: the commit
// reuses its line buffer and write vector.
TEST(HotPathTest, InlineJournalCommitAllocatesOnlyItsTicket) {
  const std::string path = testing::TempDir() + "stemcp_hotpath.journal";
  persist::Journal::Options opts;
  opts.fsync = persist::FsyncPolicy::kNone;
  opts.truncate = true;
  std::string err;
  auto j = persist::Journal::open(path, opts, &err);
  ASSERT_NE(j, nullptr) << err;
  persist::JournalRecord r;
  r.line = "assign hotpath PIPE/s0.delay(in->out) 1.25e-09";
  for (int i = 0; i < 16; ++i) {  // warm-up: buffers reach a 2-digit seq
    ASSERT_TRUE(j->append(r));
  }
  constexpr std::uint64_t kAppends = 64;
  const std::uint64_t before = alloc_count();
  for (std::uint64_t i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(j->append(r));
  }
  EXPECT_EQ(alloc_count() - before, kAppends)
      << "a steady-state append allocates its ticket and nothing else";
  j.reset();
  std::remove(path.c_str());
}

// Violation log ring semantics: oldest entries drop in O(1), oldest-first
// view, dropped counter advances.
TEST(HotPathTest, ViolationLogRingDropsOldestFirst) {
  PropagationContext ctx;
  ctx.set_violation_log_limit(3);
  for (int i = 0; i < 5; ++i) {
    ctx.report_violation(
        {nullptr, nullptr, Value(i), "warn " + std::to_string(i)});
  }
  EXPECT_EQ(ctx.violation_log().size(), 3u);
  EXPECT_EQ(ctx.violation_log_dropped(), 2u);
  EXPECT_NE(ctx.violation_log().front().find("warn 2"), std::string::npos);
  EXPECT_NE(ctx.violation_log().back().find("warn 4"), std::string::npos);
  // Shrinking the limit trims immediately, still oldest-first.
  ctx.set_violation_log_limit(1);
  EXPECT_EQ(ctx.violation_log().size(), 1u);
  EXPECT_EQ(ctx.violation_log_dropped(), 4u);
  EXPECT_NE(ctx.violation_log().front().find("warn 4"), std::string::npos);
}

}  // namespace
}  // namespace stemcp::core
