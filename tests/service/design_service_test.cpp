// DesignService tests: session lifecycle, batched vs sequential assignment
// equivalence, violation recovery, and the multi-thread smoke test that the
// ThreadSanitizer tier-1 pass (tools/run_tier1.sh --tsan) runs over.
#include "service/design_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/core.h"
#include "pipeline_design.h"
#include "stem/stem.h"

namespace stemcp::service {
namespace {

constexpr double kNs = 1e-9;

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

Request assign(RequestType t, const std::string& session,
               std::vector<Assignment> as) {
  Request r;
  r.type = t;
  r.session = session;
  r.assignments = std::move(as);
  return r;
}

double value_of(DesignService& svc, const std::string& session,
                const std::string& path) {
  auto s = svc.sessions().find(session);
  EXPECT_NE(s, nullptr);
  core::Variable* v = s->find_variable(path);
  EXPECT_NE(v, nullptr) << path;
  return v->value().as_number();
}

TEST(DesignServiceTest, SessionLifecycle) {
  DesignService svc(2);
  Response r = svc.call(make(RequestType::kOpen, "alpha"));
  ASSERT_TRUE(r.ok) << r.error;

  r = svc.call(make(RequestType::kLoad, "alpha", kPipeline));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("2 cell(s)"), std::string::npos) << r.text;

  r = svc.call(assign(RequestType::kAssign, "alpha",
                      {{"PIPE/s0.delay(in->out)", 40 * kNs}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.violation);
  EXPECT_EQ(r.assignments_applied, 1u);

  r = svc.call(make(RequestType::kQuery, "alpha", "PIPE/s0.delay(in->out)"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("4e-08"), std::string::npos) << r.text;

  r = svc.call(make(RequestType::kQuery, "alpha", "cells"));
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.text.find("PIPE"), std::string::npos);

  r = svc.call(make(RequestType::kSave, "alpha"));
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.text.find("cell STAGE"), std::string::npos) << r.text;

  r = svc.call(make(RequestType::kReport, "alpha", "PIPE"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("PIPE"), std::string::npos);

  r = svc.call(make(RequestType::kClose, "alpha"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(svc.sessions().size(), 0u);

  // Requests against a closed session fail cleanly.
  r = svc.call(make(RequestType::kQuery, "alpha", "cells"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown session"), std::string::npos);
}

TEST(DesignServiceTest, RequestErrors) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "a")).ok);

  Response r = svc.call(make(RequestType::kOpen, "a"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("already exists"), std::string::npos);

  r = svc.call(make(RequestType::kOpen, ""));
  EXPECT_FALSE(r.ok);

  r = svc.call(make(RequestType::kOpen, "b", "bogus-option"));
  EXPECT_FALSE(r.ok);

  r = svc.call(make(RequestType::kLoad, "a", "cell X\nbad keyword\nend\n"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;

  // A failed load leaves the (empty) library untouched.
  r = svc.call(make(RequestType::kQuery, "a", "cells"));
  ASSERT_TRUE(r.ok);
  EXPECT_NE(r.text.find("0 cell(s)"), std::string::npos) << r.text;

  r = svc.call(assign(RequestType::kAssign, "a", {{"NO.SUCH.VAR", 1.0}}));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown variable"), std::string::npos);

  r = svc.call(make(RequestType::kClose, "zzz"));
  EXPECT_FALSE(r.ok);
}

TEST(DesignServiceTest, BatchedMatchesSequentialAndUsesOneWave) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "seq")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "bat")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "seq", kPipeline)).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "bat", kPipeline)).ok);

  const std::vector<Assignment> as = {{"PIPE/s0.delay(in->out)", 40 * kNs},
                                      {"PIPE/s1.delay(in->out)", 70 * kNs}};

  const auto sessions_before = [&](const std::string& name) {
    return svc.sessions().find(name)->library().context().stats().sessions;
  };
  const std::uint64_t seq0 = sessions_before("seq");
  const std::uint64_t bat0 = sessions_before("bat");

  Response rs = svc.call(assign(RequestType::kAssign, "seq", as));
  Response rb = svc.call(assign(RequestType::kBatchAssign, "bat", as));
  ASSERT_TRUE(rs.ok) << rs.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_FALSE(rs.violation);
  EXPECT_FALSE(rb.violation);
  EXPECT_EQ(rs.assignments_applied, 2u);
  EXPECT_EQ(rb.assignments_applied, 2u);

  // Same final state...
  for (const char* path : {"PIPE/s0.delay(in->out)", "PIPE/s1.delay(in->out)",
                           "PIPE.delay(in->out)"}) {
    EXPECT_DOUBLE_EQ(value_of(svc, "seq", path), value_of(svc, "bat", path))
        << path;
  }
  EXPECT_DOUBLE_EQ(value_of(svc, "bat", "PIPE.delay(in->out)"), 110 * kNs);

  // ...but the batch coalesced everything into ONE propagation session
  // where the sequential request opened one per assignment.
  EXPECT_EQ(sessions_before("seq") - seq0, 2u);
  EXPECT_EQ(sessions_before("bat") - bat0, 1u);
}

TEST(DesignServiceTest, BatchViolationRestoresWholeWave) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "v")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "v", kPipeline)).ok);

  // 90 + 90 = 180 ns blows the 160 ns budget: the whole batch must unwind,
  // including the first (individually fine) assignment.
  Response r = svc.call(assign(RequestType::kBatchAssign, "v",
                               {{"PIPE/s0.delay(in->out)", 90 * kNs},
                                {"PIPE/s1.delay(in->out)", 90 * kNs}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.violation);
  EXPECT_FALSE(r.violation_message.empty());
  EXPECT_EQ(r.assignments_applied, 0u);
  EXPECT_GT(r.variables_restored, 0u);

  auto s = svc.sessions().find("v");
  EXPECT_TRUE(s->find_variable("PIPE/s0.delay(in->out)")->value().is_nil());
  EXPECT_TRUE(s->find_variable("PIPE/s1.delay(in->out)")->value().is_nil());
}

TEST(DesignServiceTest, EditCommandsBuildADesign) {
  DesignService svc(2);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "e")).ok);
  const char* steps[] = {
      "cell STAGE",
      "signal STAGE in input",
      "signal STAGE out output",
      "delay STAGE in out",
      "cell TOP",
      "signal TOP in input",
      "signal TOP out output",
      "spec TOP in out <= 100e-9",
      "subcell TOP u0 STAGE",
      "net TOP n_in",
      "io TOP n_in in",
      "conn TOP n_in u0 in",
      "net TOP n_out",
      "conn TOP n_out u0 out",
      "io TOP n_out out",
      "build-delays TOP",
  };
  for (const char* step : steps) {
    Response r = svc.call(make(RequestType::kEdit, "e", step));
    ASSERT_TRUE(r.ok) << step << ": " << r.error;
  }
  Response r = svc.call(assign(RequestType::kBatchAssign, "e",
                               {{"TOP/u0.delay(in->out)", 120 * kNs}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.violation);  // 120 ns > 100 ns budget

  r = svc.call(assign(RequestType::kBatchAssign, "e",
                      {{"TOP/u0.delay(in->out)", 80 * kNs}}));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.violation);
  EXPECT_DOUBLE_EQ(value_of(svc, "e", "TOP.delay(in->out)"), 80 * kNs);

  r = svc.call(make(RequestType::kEdit, "e", "leaf-delay STAGE in out 30e-9"));
  ASSERT_TRUE(r.ok) << r.error;

  r = svc.call(make(RequestType::kEdit, "e", "bogus"));
  EXPECT_FALSE(r.ok);
}

// A load runs in place on the session's one engine context, so the
// request count the load bumped before it ran survives it: the metrics
// mirror and the session's own count agree.
TEST(DesignServiceTest, LoadKeepsTheRequestCount) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "m", "metrics")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "m", kPipeline)).ok);
  const Response r = svc.call(make(RequestType::kQuery, "m", "stats"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("requests served: 2\n"), std::string::npos) << r.text;
  EXPECT_NE(r.text.find("\"svc.requests\":2"), std::string::npos) << r.text;
}

// `query vars <cell>` lists that cell's class-level variables and nothing
// of a class whose name merely starts with `<cell>.`.
TEST(DesignServiceTest, QueryVarsListsOnlyThatCellsClassVariables) {
  DesignService svc(1);
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, "t")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, "t", R"(cell ADD
  bbox 0 0 4 4
  signal a input
  param w 1 8 default 2
  delay a a
end
cell ADD.X super ADD
  bbox 0 0 4 4
  signal b input
end
cell TOP
  subcell u ADD R0 0 0
end
)")).ok);
  Response r = svc.call(make(RequestType::kQuery, "t", "vars ADD"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.text.find("ADD.X"), std::string::npos) << r.text;
  for (const char* path : {"ADD.boundingBox = ", "ADD.a.bitWidth = ",
                           "ADD.a.dataType = ", "ADD.a.electricalType = ",
                           "ADD.param(w) = ", "ADD.delay(a->a) = "}) {
    EXPECT_NE(r.text.find(path), std::string::npos) << path << '\n' << r.text;
  }
  EXPECT_EQ(std::count(r.text.begin(), r.text.end(), '\n'), 6) << r.text;

  r = svc.call(make(RequestType::kQuery, "t", "vars ADD.X"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.text.rfind("ADD.X.boundingBox = ", 0), 0u) << r.text;
  EXPECT_EQ(std::count(r.text.begin(), r.text.end(), '\n'), 4) << r.text;

  // A misspelt cell is an error, as in `report`, not a cell with no
  // variables.
  r = svc.call(make(RequestType::kQuery, "t", "vars NOSUCH"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown cell 'NOSUCH'");
  EXPECT_EQ(r.text, "");
}

TEST(DesignServiceTest, CloseFoldsSessionMetricsIntoGlobal) {
  core::reset_global_metrics();
  {
    DesignService svc(2);
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, "m", "metrics")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, "m", kPipeline)).ok);
    ASSERT_TRUE(svc.call(assign(RequestType::kBatchAssign, "m",
                                {{"PIPE/s0.delay(in->out)", 10 * kNs}}))
                    .ok);
    ASSERT_TRUE(svc.call(make(RequestType::kClose, "m")).ok);
  }
  const std::string json = core::global_metrics_snapshot().to_json();
  EXPECT_NE(json.find("ctx.sessions"), std::string::npos) << json;
  EXPECT_NE(json.find("ctx.assignments"), std::string::npos) << json;
}

// The TSan target: ≥4 client threads driving ≥12 sessions through mixed
// load / assign / edit / query / save traffic.  Values are per-session
// distinct so any cross-session bleed shows up as a wrong final value.
TEST(DesignServiceTest, MultiThreadSmoke) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 3;  // 12 sessions total
  DesignService svc(4);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&svc, &failures, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const std::string name =
            "t" + std::to_string(t) + "s" + std::to_string(i);
        const double d = (10 + 3 * t + i) * kNs;
        bool ok = svc.call(make(RequestType::kOpen, name, "metrics")).ok;
        ok = ok && svc.call(make(RequestType::kLoad, name, kPipeline)).ok;
        ok = ok && svc.call(make(RequestType::kEdit, name,
                                 "param STAGE width 1 64 default 8"))
                       .ok;
        Response ra =
            svc.call(assign(RequestType::kBatchAssign, name,
                            {{"PIPE/s0.delay(in->out)", d},
                             {"PIPE/s1.delay(in->out)", 2 * d}}));
        ok = ok && ra.ok && !ra.violation;
        Response rq =
            svc.call(make(RequestType::kQuery, name, "PIPE.delay(in->out)"));
        ok = ok && rq.ok;
        Response rs = svc.call(make(RequestType::kSave, name));
        ok = ok && rs.ok &&
             rs.text.find("cell PIPE") != std::string::npos;
        if (!ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Zero cross-session interference: every session kept its own values.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kSessionsPerThread; ++i) {
      const std::string name =
          "t" + std::to_string(t) + "s" + std::to_string(i);
      const double d = (10 + 3 * t + i) * kNs;
      EXPECT_DOUBLE_EQ(value_of(svc, name, "PIPE/s0.delay(in->out)"), d);
      EXPECT_DOUBLE_EQ(value_of(svc, name, "PIPE.delay(in->out)"), 3 * d);
      ASSERT_TRUE(svc.call(make(RequestType::kClose, name)).ok);
    }
  }
  EXPECT_EQ(svc.sessions().size(), 0u);
  EXPECT_GE(svc.requests_served(), kThreads * kSessionsPerThread * 6u);
}

TEST(DesignServiceTest, SubmitIsAsynchronous) {
  DesignService svc(4);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(
        svc.submit(make(RequestType::kOpen, "s" + std::to_string(i))));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(svc.sessions().size(), 16u);
}

}  // namespace
}  // namespace stemcp::service
