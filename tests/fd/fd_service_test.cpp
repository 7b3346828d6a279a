// FD module selection through the design service (ISSUE 8): the `select` /
// `select-stats` verbs end to end — journaled selection must recover
// byte-identically (commit included), the request type must show up in the
// latency telemetry, and concurrent selects across sharded sessions must be
// race-free (this file runs under TSan in tools/run_tier1.sh).
#include <gtest/gtest.h>

#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "persist/checkpoint.h"
#include "service/design_service.h"
#include "service/protocol.h"

namespace stemcp::service {
namespace {

// The shell demo's selection design (thesis §8): a generic adder with a
// slow/small and a fast/large realization under a 6 ns parent budget —
// only the carry-select meets it.
const char* kSelectionDesign = R"(cell ADD generic
  signal a input
  signal out output
  delay a out
end
cell ADD.RC super ADD
  bbox 0 0 8 10
  signal a input
  signal out output
  delay a out value 8e-9
end
cell ADD.CS super ADD
  bbox 0 0 8 22
  signal a input
  signal out output
  delay a out value 5e-9
end
cell ALU
  signal a input
  signal out output
  delay a out
    spec <= 6e-9
  subcell add ADD R0 0 0
  net n_in
    io a
    conn add a
  net n_out
    conn add out
    io out
end
)";

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

std::string save_image(DesignService& svc, const std::string& session) {
  Response r = svc.call(make(RequestType::kSave, session));
  EXPECT_TRUE(r.ok) << r.error;
  return r.text;
}

TEST(FdServiceTest, SelectEndToEnd) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "s")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "s", kSelectionDesign)).ok);

  // Dry run: exploration counters, no realization committed.  The search
  // can still assign a realization's missing bounding box, which is why
  // select-stats is journaled; both realizations here declare theirs.
  Response stats = svc.call(make(RequestType::kSelectStats, "s", "ALU"));
  ASSERT_TRUE(stats.ok) << stats.error;
  EXPECT_NE(stats.text.find("solutions: 1"), std::string::npos) << stats.text;
  EXPECT_NE(stats.text.find("candidates explored: 2"), std::string::npos)
      << stats.text;
  EXPECT_NE(stats.text.find("filter runs: 0, prunings: 0, wipeouts: 0\n"),
            std::string::npos)
      << stats.text;
  EXPECT_EQ(stats.assignments_applied, 0u);
  Response q = svc.call(make(RequestType::kQuery, "s", "ALU.delay(a->out)"));
  ASSERT_TRUE(q.ok);
  EXPECT_NE(q.text.find("nil"), std::string::npos) << q.text;

  // select-stats never commits.
  Response bad = svc.call(make(RequestType::kSelectStats, "s", "ALU commit"));
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("never commits"), std::string::npos) << bad.error;

  // Enumerate, then commit: only ADD.CS fits the 6 ns budget, and the
  // committed ALU delay becomes concrete.
  Response sel = svc.call(make(RequestType::kSelect, "s", "ALU limit 0"));
  ASSERT_TRUE(sel.ok) << sel.error;
  EXPECT_NE(sel.text.find("add=ADD.CS"), std::string::npos) << sel.text;
  EXPECT_EQ(sel.text.find("ADD.RC"), std::string::npos) << sel.text;

  Response commit = svc.call(make(RequestType::kSelect, "s", "ALU commit"));
  ASSERT_TRUE(commit.ok) << commit.error;
  EXPECT_EQ(commit.assignments_applied, 1u);
  EXPECT_NE(commit.text.find("committed solution 0: add=ADD.CS"),
            std::string::npos)
      << commit.text;
  q = svc.call(make(RequestType::kQuery, "s", "ALU.delay(a->out)"));
  ASSERT_TRUE(q.ok);
  EXPECT_NE(q.text.find("5e-09"), std::string::npos) << q.text;

  // The select tally shows in the session stats, and the request type in
  // the latency telemetry (`stats --latency`).
  q = svc.call(make(RequestType::kQuery, "s", "stats"));
  ASSERT_TRUE(q.ok);
  EXPECT_NE(q.text.find("selection: 3 request(s)"), std::string::npos)
      << q.text;
  ServiceFrontEnd fe(svc);
  const std::string lat = fe.execute("stats --latency");
  EXPECT_NE(lat.find("select"), std::string::npos) << lat;
}

TEST(FdServiceTest, SelectErrorsAreRequestLevel) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "s")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "s", kSelectionDesign)).ok);

  Response r = svc.call(make(RequestType::kSelect, "s", "NOSUCH"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown cell"), std::string::npos) << r.error;

  r = svc.call(make(RequestType::kSelect, "s", "ALU slot nosuch"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown subcell"), std::string::npos) << r.error;

  r = svc.call(make(RequestType::kSelect, "s", "ADD"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no generic slots"), std::string::npos) << r.error;

  r = svc.call(make(RequestType::kSelect, "s", "ALU frob"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown select option"), std::string::npos)
      << r.error;
}

// The durability half of satellite 3: a journaled session that loaded,
// enumerated, and committed a selection must rebuild byte-identically from
// checkpoint + journal — the replayed `select` re-runs the same search and
// re-commits the same realization.
TEST(FdServiceTest, JournaledSelectRecoversByteIdentically) {
  const std::string root = testing::TempDir() + "stemcp_fd_recover";
  std::string image;
  {
    DesignService svc(DesignService::Config{2, 1, root});
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "s")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kJournal, "s", "sel none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, "s", kSelectionDesign)).ok);
    Response sel = svc.call(make(RequestType::kSelect, "s", "ALU limit 0"));
    ASSERT_TRUE(sel.ok) << sel.error;
    Response commit = svc.call(make(RequestType::kSelect, "s", "ALU commit"));
    ASSERT_TRUE(commit.ok) << commit.error;
    ASSERT_EQ(commit.assignments_applied, 1u);
    image = save_image(svc, "s");
    EXPECT_NE(image.find("subcell add ADD.CS"), std::string::npos) << image;
    // The service dies here with the journal open: the crash.
  }

  DesignService rec(DesignService::Config{2, 1, root});
  Response r = rec.call(make(RequestType::kRecover, "s", "sel"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("0 outcome mismatch(es)"), std::string::npos)
      << r.text;
  EXPECT_EQ(save_image(rec, "s"), image);
  // The recovered session keeps serving: the committed design has no
  // generic slot left, so a fresh select reports exactly that.
  Response again = rec.call(make(RequestType::kSelect, "s", "ALU"));
  EXPECT_FALSE(again.ok);
  EXPECT_NE(again.error.find("no generic slots"), std::string::npos)
      << again.error;
}

// Concurrent selects across sharded sessions: every session runs its own
// load → select-stats → select → commit pipeline with all requests of a
// round in flight at once.  TSan-clean is the assertion that matters (the
// per-session engines never share propagation state).
TEST(FdServiceTest, ConcurrentSelectAcrossShards) {
  DesignService svc(DesignService::Config{2, 2, {}});
  constexpr int kSessions = 8;
  std::vector<std::string> names;
  for (int i = 0; i < kSessions; ++i) names.push_back("sel" + std::to_string(i));

  std::vector<std::future<Response>> waves;
  for (const auto& n : names) {
    waves.push_back(svc.submit(make(RequestType::kOpen, n)));
  }
  for (auto& f : waves) ASSERT_TRUE(f.get().ok);
  waves.clear();
  for (const auto& n : names) {
    waves.push_back(svc.submit(make(RequestType::kLoad, n, kSelectionDesign)));
  }
  for (auto& f : waves) ASSERT_TRUE(f.get().ok);
  waves.clear();

  for (int round = 0; round < 4; ++round) {
    for (const auto& n : names) {
      waves.push_back(svc.submit(make(RequestType::kSelectStats, n, "ALU")));
      waves.push_back(svc.submit(make(RequestType::kSelect, n, "ALU limit 0")));
    }
    for (auto& f : waves) {
      const Response r = f.get();
      ASSERT_TRUE(r.ok) << r.error;
    }
    waves.clear();
  }
  for (const auto& n : names) {
    waves.push_back(svc.submit(make(RequestType::kSelect, n, "ALU commit")));
  }
  for (auto& f : waves) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.assignments_applied, 1u);
  }
  waves.clear();
  for (const auto& n : names) {
    waves.push_back(
        svc.submit(make(RequestType::kQuery, n, "ALU.delay(a->out)")));
  }
  for (auto& f : waves) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.text.find("5e-09"), std::string::npos) << r.text;
  }
}

}  // namespace
}  // namespace stemcp::service
