// Propagation tracing & metrics: structured event stream, the event ring,
// Chrome trace export, and the zero-cost-when-disabled guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.h"

namespace stemcp::core {
namespace {

std::vector<TraceEventType> types_of(const std::vector<TraceEvent>& events) {
  std::vector<TraceEventType> out;
  out.reserve(events.size());
  for (const auto& e : events) out.push_back(e.type);
  return out;
}

/// Index of the first event of `t`, or npos.
std::size_t first_index(const std::vector<TraceEvent>& events,
                        TraceEventType t) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == t) return i;
  }
  return static_cast<std::size_t>(-1);
}

/// Minimal structural JSON check: braces/brackets balance outside strings,
/// and the payload is non-trivial.  (Not a full parser, but catches broken
/// quoting, truncation, and unbalanced output.)
bool json_balanced(const std::string& s) {
  int brace = 0, bracket = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': --brace; break;
      case '[': ++bracket; break;
      case ']': --bracket; break;
      default: break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

class TraceTest : public ::testing::Test {
 protected:
  PropagationContext ctx;
};

// ---------------------------------------------------------------------------
// Zero-event guarantee

TEST_F(TraceTest, DisabledTracerEmitsNothing) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  BoundConstraint::upper(ctx, a, Value(10));
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_TRUE(a.set_user(Value(99)).is_violation());
  EXPECT_EQ(ctx.tracer().events_emitted(), 0u);
  EXPECT_EQ(ctx.tracer().ring(), nullptr)
      << "no sink is ever installed while disabled";
}

TEST_F(TraceTest, EmitIsNoOpWhileDisabled) {
  Tracer t;
  t.set_enabled(true);
  t.set_enabled(false);
  t.emit(TraceEventType::kAssignment, "x");
  EXPECT_EQ(t.events_emitted(), 0u);
  ASSERT_NE(t.ring(), nullptr);
  EXPECT_EQ(t.ring()->total(), 0u);
}

// ---------------------------------------------------------------------------
// Event ordering

TEST_F(TraceTest, SessionEventsBracketTheRun) {
  ctx.tracer().set_enabled(true);
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  EXPECT_TRUE(a.set_user(Value(5)));

  const auto events = ctx.tracer().ring()->snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, TraceEventType::kSessionBegin);
  EXPECT_EQ(events.back().type, TraceEventType::kSessionEnd);
  EXPECT_EQ(events.back().label_view(), "ok");

  // The session contains the external assignment, the activation of the
  // equality, b's propagated assignment, and the final check.
  const auto ts = types_of(events);
  EXPECT_EQ(std::count(ts.begin(), ts.end(), TraceEventType::kAssignment), 2);
  EXPECT_GE(std::count(ts.begin(), ts.end(), TraceEventType::kActivation), 1);
  EXPECT_EQ(std::count(ts.begin(), ts.end(), TraceEventType::kCheck), 1);

  // Sequence numbers are strictly increasing; timestamps are monotonic.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
  }
}

TEST_F(TraceTest, ViolationSessionOrdersViolationBeforeRestore) {
  ctx.tracer().set_enabled(true);
  Variable a(ctx, "t", "a");
  // Constructing the bound runs its own (clean) re-propagation session;
  // examine only the violating session that follows.
  BoundConstraint::upper(ctx, a, Value(10));
  EXPECT_TRUE(a.set_user(Value(99)).is_violation());

  auto events = ctx.tracer().ring()->snapshot();
  std::size_t last_begin = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type == TraceEventType::kSessionBegin) last_begin = i;
  }
  events.erase(events.begin(),
               events.begin() + static_cast<std::ptrdiff_t>(last_begin));
  const auto i_begin = first_index(events, TraceEventType::kSessionBegin);
  const auto i_assign = first_index(events, TraceEventType::kAssignment);
  const auto i_viol = first_index(events, TraceEventType::kViolation);
  const auto i_restore = first_index(events, TraceEventType::kRestore);
  const auto i_end = first_index(events, TraceEventType::kSessionEnd);

  ASSERT_NE(i_begin, static_cast<std::size_t>(-1));
  ASSERT_NE(i_assign, static_cast<std::size_t>(-1));
  ASSERT_NE(i_viol, static_cast<std::size_t>(-1));
  ASSERT_NE(i_restore, static_cast<std::size_t>(-1));
  ASSERT_NE(i_end, static_cast<std::size_t>(-1));

  EXPECT_LT(i_begin, i_assign);
  EXPECT_LT(i_assign, i_viol);
  EXPECT_LT(i_viol, i_restore);
  EXPECT_LT(i_restore, i_end);
  EXPECT_EQ(events[i_end].label_view(), "violation");
  EXPECT_EQ(events[i_restore].label_view(), "t.a");
}

TEST_F(TraceTest, AgendaEventsCarryPriorityAndDuration) {
  ctx.tracer().set_enabled(true);
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  EXPECT_TRUE(x.set_user(Value(1)));

  const auto events = ctx.tracer().ring()->snapshot();
  const auto i_sched = first_index(events, TraceEventType::kAgendaSchedule);
  const auto i_pop = first_index(events, TraceEventType::kAgendaPop);
  ASSERT_NE(i_sched, static_cast<std::size_t>(-1));
  ASSERT_NE(i_pop, static_cast<std::size_t>(-1));
  EXPECT_LT(i_sched, i_pop);
  // The functional agenda is the second queue in the default order.
  EXPECT_EQ(events[i_sched].priority, 1u);
  EXPECT_EQ(events[i_pop].priority, 1u);
  EXPECT_TRUE(std::string(events[i_pop].label_view()).find("uniAddition") !=
              std::string::npos);
}

TEST_F(TraceTest, NetworkEditsAreTraced) {
  ctx.tracer().set_enabled(true);
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  EXPECT_TRUE(eq.add_argument(b));
  ctx.destroy_constraint(eq);

  const auto events = ctx.tracer().ring()->snapshot();
  const auto ts = types_of(events);
  EXPECT_EQ(std::count(ts.begin(), ts.end(), TraceEventType::kNetworkEdit),
            2);
}

// ---------------------------------------------------------------------------
// Ring buffer

TEST(RingBufferTest, WraparoundKeepsNewestAndCountsOverwritten) {
  RingBuffer<TraceEvent, 4> ring;
  for (std::uint64_t i = 0; i < 10; ++i) {
    TraceEvent e;
    e.seq = i;
    ring.push(e);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.overwritten(), 6u);
  EXPECT_EQ(ring.size(), 4u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6u + i) << "oldest-first, newest retained";
  }
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<TraceEvent, 4> ring;
  TraceEvent e;
  ring.push(e);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST_F(TraceTest, EngineWraparoundUnderSmallRing) {
  ctx.tracer().set_enabled(true);
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  // Each assignment session emits several events: 20,000 sessions wrap the
  // tracer's 65,536-event ring.
  for (int i = 1; i <= 20000; ++i) ASSERT_TRUE(a.set_user(Value(i)));
  EXPECT_GT(ctx.tracer().ring()->overwritten(), 0u);
  const auto events = ctx.tracer().ring()->snapshot();
  EXPECT_EQ(events.size(), Tracer::kRingCapacity);
  // The retained suffix still has strictly increasing sequence numbers.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  ctx.tracer().set_enabled(true);
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  BoundConstraint::upper(ctx, s, Value(10));
  EXPECT_TRUE(x.set_user(Value(1)));
  EXPECT_TRUE(y.set_user(Value(2)));
  EXPECT_TRUE(y.set_user(Value(20)).is_violation());

  std::ostringstream out;
  write_chrome_trace(ctx.tracer().ring()->snapshot(), out);
  const std::string json = out.str();

  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  // Session spans, per-constraint check spans, and agenda-run spans.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"check\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"agendaPop\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"violation\""), std::string::npos);
  EXPECT_NE(json.find("uniAddition"), std::string::npos);
}

TEST_F(TraceTest, ExportChromeTraceToFile) {
  ctx.tracer().set_enabled(true);
  Variable a(ctx, "t", "a");
  EXPECT_TRUE(a.set_user(Value(1)));
  const std::string path = ::testing::TempDir() + "/stemcp_trace_test.json";
  ASSERT_TRUE(export_chrome_trace(ctx.tracer(), path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(json_balanced(buf.str()));
  std::remove(path.c_str());
}

// `ts` and `dur` are fixed-point microseconds with three decimals, so a
// steady-clock stamp far from zero keeps its nanosecond resolution: two
// events stamped 1 µs apart export exactly 1.000 apart.  A span is stamped
// when its work ends, and its X slice starts where the work started.
TEST_F(TraceTest, ChromeTimestampsKeepNanosecondResolution) {
  std::vector<TraceEvent> events(3);
  events[0].type = events[1].type = TraceEventType::kAssignment;
  events[0].timestamp_ns = 687'341'123'456;
  events[1].timestamp_ns = 687'341'124'456;
  events[2].type = TraceEventType::kAgendaPop;
  events[2].timestamp_ns = 687'341'200'000;
  events[2].duration_ns = 2'500;
  std::ostringstream out;
  write_chrome_trace(events, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"ts\":687341123.456,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":687341124.456,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":687341197.500,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos) << json;
}

TEST(TracerTest, ExportWithoutRingFails) {
  Tracer t;
  EXPECT_FALSE(export_chrome_trace(t, "/dev/null"));
}

TEST(TraceEventTest, LongLabelsAreTruncatedInPlace) {
  TraceEvent e;
  const std::string longlabel(200, 'x');
  e.set_label(longlabel);
  EXPECT_EQ(e.label_view().size(), TraceEvent::kLabelCapacity - 1);
  EXPECT_TRUE(std::string(e.label_view()).find_first_not_of('x') ==
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics

TEST(HistogramTest, RecordsBasicAggregates) {
  Histogram h;
  h.record(1);
  h.record(100);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1101u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_GE(h.percentile(99.0), 512u);
  EXPECT_LE(h.percentile(99.0), 1000u);
}

TEST(MetricsRegistryTest, CountersAndJsonSnapshot) {
  MetricsRegistry m;
  m.add_counter("a", 2);
  m.add_counter("a", 3);
  m.histogram("lat").record(7);
  EXPECT_EQ(m.counter("a"), 5u);
  const std::string json = m.to_json();
  EXPECT_TRUE(json_balanced(json));
  EXPECT_NE(json.find("\"a\":5"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, MergeAddsEverything) {
  MetricsRegistry a, b;
  a.add_counter("n", 1);
  b.add_counter("n", 2);
  a.histogram("h").record(4);
  b.histogram("h").record(16);
  a.merge(b);
  EXPECT_EQ(a.counter("n"), 3u);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").max(), 16u);
}

TEST_F(TraceTest, EnabledMetricsCollectPerTypeHistograms) {
  ctx.metrics().set_enabled(true);
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  EXPECT_TRUE(x.set_user(Value(1)));
  EXPECT_TRUE(y.set_user(Value(2)));

  const Histogram* runs = ctx.metrics().find_histogram("run_ns.uniAddition");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->count(), 2u) << "one scheduled run per session";
  const Histogram* checks =
      ctx.metrics().find_histogram("check_ns.uniAddition");
  ASSERT_NE(checks, nullptr);
  EXPECT_GE(checks->count(), 2u);
  const Histogram* depth =
      ctx.metrics().find_histogram("agenda_depth.p1");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count(), 2u);
}

TEST_F(TraceTest, MetricsOffCollectsNothing) {
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  EXPECT_TRUE(x.set_user(Value(1)));
  EXPECT_TRUE(ctx.metrics().histograms().empty());
  EXPECT_TRUE(ctx.metrics().counters().empty());
}

}  // namespace
}  // namespace stemcp::core
