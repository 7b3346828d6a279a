// Engine accounting: the statistics counters the benchmark harness leans on
// must mean exactly what they claim.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/core.h"

namespace stemcp::core {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  PropagationContext ctx;
};

TEST_F(StatsTest, SessionCountsEachExternalAssignment) {
  Variable a(ctx, "t", "a");
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(1)));
  EXPECT_TRUE(a.set_user(Value(2)));
  EXPECT_EQ(ctx.stats().sessions, 2u);
}

TEST_F(StatsTest, AssignmentsCountValueWrites) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b"), c(ctx, "t", "c");
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  eq.basic_add_argument(b);
  eq.basic_add_argument(c);
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_EQ(ctx.stats().assignments, 3u) << "a, b and c";
  // NoChange propagation writes nothing new.
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_EQ(ctx.stats().assignments, 4u) << "only a's own re-assertion";
}

TEST_F(StatsTest, ActivationsCountPropagateVariableSends) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(1)));
  // a activates eq once; b's assignment skips its source.
  EXPECT_EQ(ctx.stats().activations, 1u);
}

TEST_F(StatsTest, ScheduledRunsCountAgendaPops) {
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  ctx.reset_stats();
  EXPECT_TRUE(x.set_user(Value(1)));
  EXPECT_EQ(ctx.stats().scheduled_runs, 1u);
  EXPECT_TRUE(y.set_user(Value(2)));
  // y's session: adder scheduled + its result assignment reschedules
  // nothing further (s's only constraint is its producer).
  EXPECT_EQ(ctx.stats().scheduled_runs, 2u);
}

TEST_F(StatsTest, ViolationsAndRestoresCounted) {
  Variable a(ctx, "t", "a");
  BoundConstraint::upper(ctx, a, Value(10));
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(99)).is_violation());
  EXPECT_EQ(ctx.stats().violations, 1u);
  EXPECT_EQ(ctx.stats().restores, 1u) << "only a itself was touched";
}

TEST_F(StatsTest, ChecksCountFinalSweepEvaluations) {
  Variable a(ctx, "t", "a");
  BoundConstraint::upper(ctx, a, Value(10));
  BoundConstraint::lower(ctx, a, Value(0));
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_EQ(ctx.stats().checks, 2u) << "both bounds visited and checked";
}

TEST_F(StatsTest, DisabledContextDoesNoAccounting) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  ctx.set_enabled(false);
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(1)));
  EXPECT_EQ(ctx.stats().sessions, 0u);
  EXPECT_EQ(ctx.stats().activations, 0u);
}

TEST_F(StatsTest, ProbeSessionsCounted) {
  Variable a(ctx, "t", "a");
  ctx.reset_stats();
  EXPECT_TRUE(a.can_be_set_to(Value(1)));
  EXPECT_EQ(ctx.stats().sessions, 1u) << "a probe is a session";
}

TEST_F(StatsTest, AgendaHighWaterMarkTracksQueuePressure) {
  Variable x(ctx, "t", "x"), y(ctx, "t", "y");
  Variable s1(ctx, "t", "s1"), s2(ctx, "t", "s2");
  // Two functional constraints fed by x: both are queued before either runs,
  // so the agenda holds two entries at its peak.
  UniAdditionConstraint::sum(ctx, s1, {&x});
  UniAdditionConstraint::sum(ctx, s2, {&x});
  ctx.reset_stats();
  EXPECT_TRUE(x.set_user(Value(1)));
  EXPECT_EQ(ctx.stats().agenda_high_water, 2u);
  // A single-producer session cannot raise the mark.
  EXPECT_TRUE(y.set_user(Value(1)));
  EXPECT_EQ(ctx.stats().agenda_high_water, 2u);
  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().agenda_high_water, 0u);
}

TEST_F(StatsTest, PerPriorityScheduledAndExecutedCounters) {
  Variable x(ctx, "t", "x"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x});
  ctx.reset_stats();
  EXPECT_TRUE(x.set_user(Value(3)));
  // Functional agenda is queue index 1 in the default priority order
  // (implicit first — see agenda.cpp).
  EXPECT_EQ(ctx.stats().scheduled_by_priority[1], 1u);
  EXPECT_EQ(ctx.stats().executed_by_priority[1], 1u);
  EXPECT_EQ(ctx.stats().scheduled_by_priority[0], 0u);
  EXPECT_EQ(ctx.stats().executed_by_priority[0], 0u);
  // Executed totals agree with the aggregate scheduled_runs counter.
  std::uint64_t executed = 0;
  for (auto n : ctx.stats().executed_by_priority) executed += n;
  EXPECT_EQ(executed, ctx.stats().scheduled_runs);
}

TEST_F(StatsTest, DuplicateSuppressedEntriesNotCountedScheduled) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b"), c(ctx, "t", "c"),
      s(ctx, "t", "s");
  EqualityConstraint::among(ctx, {&a, &b});
  EqualityConstraint::among(ctx, {&a, &c});
  auto& add = ctx.make<UniAdditionConstraint>();
  add.set_result(s);
  add.basic_add_argument(b);
  add.basic_add_argument(c);
  ctx.reset_stats();
  EXPECT_TRUE(a.set_user(Value(2)));
  EXPECT_EQ(ctx.stats().scheduled_by_priority[1], 1u)
      << "b and c both try to queue the adder; the duplicate is suppressed";
}

TEST_F(StatsTest, ViolationLogCapDropsOldestAndCounts) {
  ctx.set_violation_log_limit(2);
  for (int i = 1; i <= 4; ++i) {
    ctx.report_violation(
        {nullptr, nullptr, Value(i), "m" + std::to_string(i)});
  }
  EXPECT_EQ(ctx.violation_log().size(), 2u);
  EXPECT_EQ(ctx.violation_log_dropped(), 2u);
  // The newest entries are the ones retained.
  EXPECT_NE(ctx.violation_log().front().find("m3"), std::string::npos);
  EXPECT_NE(ctx.violation_log().back().find("m4"), std::string::npos);
}

TEST_F(StatsTest, ViolationLogCapAppliesToEngineReports) {
  Variable a(ctx, "t", "a");
  BoundConstraint::upper(ctx, a, Value(10));
  ctx.set_violation_log_limit(2);
  for (int i = 91; i <= 94; ++i) {
    EXPECT_TRUE(a.set_user(Value(i)).is_violation());
  }
  EXPECT_EQ(ctx.violation_log().size(), 2u);
  EXPECT_EQ(ctx.violation_log_dropped(), 2u);
}

TEST_F(StatsTest, LoweringViolationLogLimitTrimsImmediately) {
  Variable a(ctx, "t", "a");
  BoundConstraint::upper(ctx, a, Value(10));
  EXPECT_TRUE(a.set_user(Value(91)).is_violation());
  EXPECT_TRUE(a.set_user(Value(92)).is_violation());
  EXPECT_TRUE(a.set_user(Value(93)).is_violation());
  ctx.set_violation_log_limit(1);
  EXPECT_EQ(ctx.violation_log().size(), 1u);
  EXPECT_EQ(ctx.violation_log_dropped(), 2u);
  EXPECT_EQ(ctx.violation_log_limit(), 1u);
}

TEST_F(StatsTest, ViolationLogPersistsAcrossSessions) {
  Variable a(ctx, "t", "a");
  BoundConstraint::upper(ctx, a, Value(10));
  EXPECT_TRUE(a.set_user(Value(99)).is_violation());
  EXPECT_TRUE(a.set_user(Value(98)).is_violation());
  EXPECT_EQ(ctx.violation_log().size(), 2u);
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_EQ(ctx.violation_log().size(), 2u) << "successes don't log";
  EXPECT_FALSE(ctx.last_violation().has_value())
      << "last_violation cleared by the successful session";
}

// The process-global metrics aggregation is the one piece of the tracing
// subsystem shared across threads (every engine context folds into it on
// destruction, and the design service folds whole sessions concurrently).
// Hammer it from many threads and check nothing is lost; run under
// tools/run_tier1.sh --tsan for the data-race proof.
TEST(GlobalMetricsTest, ConcurrentMergesLoseNothing) {
  reset_global_metrics();
  constexpr int kThreads = 8;
  constexpr int kMergesPerThread = 50;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kMergesPerThread; ++i) {
        MetricsRegistry m;
        m.set_enabled(true);
        m.add_counter("shared", 2);
        m.add_counter("per_thread_" + std::to_string(t), 1);
        m.histogram("lat").record(static_cast<std::uint64_t>(i + 1));
        merge_into_global_metrics(m);
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::string json = global_metrics_snapshot().to_json();
  const auto expect_count = [&json](const std::string& needle) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " in " << json;
  };
  expect_count("\"shared\":" +
               std::to_string(2 * kThreads * kMergesPerThread));
  for (int t = 0; t < kThreads; ++t) {
    expect_count("\"per_thread_" + std::to_string(t) +
                 "\":" + std::to_string(kMergesPerThread));
  }
  // Histogram count = total records; min/max span the recorded range.
  expect_count("\"count\":" + std::to_string(kThreads * kMergesPerThread));
  expect_count("\"min\":1");
  expect_count("\"max\":" + std::to_string(kMergesPerThread));

  reset_global_metrics();
  EXPECT_EQ(global_metrics_snapshot().counter("shared"), 0u);
}

// ---- Histogram percentile math (request-telemetry reads these) ----------

// Against exact order statistics on a known uniform sample, the log2-bucket
// estimate must be an upper bound and within one bucket (< 2x) of exact.
TEST(HistogramPercentileTest, UpperBoundsExactWithinOneBucket) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const struct {
    double p;
    std::uint64_t exact;  // ceil(p/100 * 1000)-th smallest of 1..1000
  } cases[] = {{50.0, 500}, {90.0, 900}, {99.0, 990}, {99.9, 999}};
  for (const auto& c : cases) {
    const std::uint64_t est = h.percentile(c.p);
    EXPECT_GE(est, c.exact) << "p" << c.p;
    EXPECT_LT(est, 2 * c.exact) << "p" << c.p;
  }
  // The top of the distribution is clamped to the true max, not the bucket
  // upper bound (1023).
  EXPECT_EQ(h.percentile(100.0), 1000u);
  // Concrete bucket math: p50 target is the 500th value; values 1..511 fill
  // buckets 0..9, so the estimate is bucket 9's upper bound.
  EXPECT_EQ(h.percentile(50.0), 511u);
}

TEST(HistogramPercentileTest, ExactForSingleValuedSamples) {
  // A bucket-boundary value: every percentile is exactly it.
  Histogram a;
  for (int i = 0; i < 100; ++i) a.record(255);
  EXPECT_EQ(a.percentile(50.0), 255u);
  EXPECT_EQ(a.percentile(99.9), 255u);
  // Mid-bucket single value: the max clamp makes it exact too.
  Histogram b;
  for (int i = 0; i < 100; ++i) b.record(256);
  EXPECT_EQ(b.percentile(50.0), 256u);
  EXPECT_EQ(b.percentile(99.9), 256u);
  // Zero stays zero (bucket 0).
  Histogram z;
  z.record(0);
  EXPECT_EQ(z.percentile(99.0), 0u);
}

// Percentile reads racing concurrent writers: readers must do the math on a
// snapshot(), never the live atomics, so every percentile they compute is
// internally consistent (monotone in p, bounded by the recorded range) no
// matter how the write storm interleaves.  TSan lane covers this (the
// fixture name matches tools/run_tier1.sh's TSAN_FILTER).
TEST(GlobalMetricsTest, ConcurrentHistogramSnapshotsStayConsistent) {
  ConcurrentHistogram ch;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&ch, &stop] {
      std::uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        ch.record(v);
        v = v % 1024 + 1;  // values stay in [1, 1024]
      }
    });
  }
  std::uint64_t last_count = 0;
  for (int i = 0; i < 400; ++i) {
    const Histogram s = ch.snapshot();
    if (s.count() == 0) continue;
    EXPECT_GE(s.count(), last_count) << "count is monotone across snapshots";
    last_count = s.count();
    EXPECT_GE(s.min(), 1u);
    EXPECT_LE(s.min(), s.max());
    EXPECT_LE(s.max(), 1024u);
    const std::uint64_t p50 = s.percentile(50.0);
    const std::uint64_t p99 = s.percentile(99.0);
    const std::uint64_t p999 = s.percentile(99.9);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, s.max()) << "never past the recorded range";
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  // Quiescent: the final snapshot agrees with itself exactly.
  const Histogram s = ch.snapshot();
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets()) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count());
  EXPECT_EQ(s.count(), ch.count());
}

// A snapshot that counts a record also sees its range.  The narrowest
// window: a fresh histogram, one writer's first record, and a reader
// snapshotting until the count shows up.  Publishing the count before min
// and max let that reader see min 2^64-1 beside max 0 in 617 of 2,000
// rounds on an otherwise idle 4-core VM.
TEST(GlobalMetricsTest, SnapshotThatCountsARecordSeesItsRange) {
  int torn = 0;
  for (int round = 0; round < 2000; ++round) {
    ConcurrentHistogram ch;
    std::thread writer([&ch] { ch.record(7); });
    Histogram s;
    do {
      s = ch.snapshot();
    } while (s.count() == 0);
    writer.join();
    if (s.min() != 7 || s.max() != 7) ++torn;
  }
  EXPECT_EQ(torn, 0) << "rounds whose snapshot counted the record but not "
                        "its min/max";
}

TEST(GlobalMetricsTest, ResetRacingMergeStaysConsistent) {
  reset_global_metrics();
  std::thread merger([] {
    for (int i = 0; i < 200; ++i) {
      MetricsRegistry m;
      m.set_enabled(true);
      m.add_counter("racy", 1);
      merge_into_global_metrics(m);
    }
  });
  std::thread resetter([] {
    for (int i = 0; i < 50; ++i) reset_global_metrics();
  });
  merger.join();
  resetter.join();
  // No crash, no TSan report; the value is whatever survived the last reset.
  reset_global_metrics();
}

}  // namespace
}  // namespace stemcp::core
