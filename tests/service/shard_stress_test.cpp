// Sharded session tier under deterministic concurrent load (ISSUE 7):
//   * mixed multi-threaded traffic whose per-session outcomes must match a
//     single-shard oracle — both a live sequential replay of the same
//     scripts and a 1-shard recovery service replaying the shard journals,
//   * shard isolation: a dead journal in shard i never degrades shard j,
//     and a shard whose workers are all wedged never stalls another shard
//     (the acceptance test that the request path takes no global lock),
//   * the close-vs-request hammer regression for the session close /
//     metrics-fold window (runs under --tsan via TSAN_FILTER).
// Every test is seeded (fixed xorshift) and synchronizes on atomic shard
// counters or futures — never on sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/design_service.h"

namespace stemcp::service {
namespace {

const char* kPipeline = R"(cell STAGE
  signal in input
  signal out output
  delay in out
end
cell PIPE
  signal in input
  signal out output
  delay in out
    spec <= 160e-9
  subcell s0 STAGE R0 0 0
  subcell s1 STAGE R0 10 0
  net n_in
    io in
    conn s0 in
  net n_mid
    conn s0 out
    conn s1 in
  net n_out
    conn s1 out
    io out
end
)";

std::string tmp_root(const std::string& name) {
  return testing::TempDir() + "stemcp_shard_stress_" + name;
}

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

/// Deterministic xorshift so every run drives the identical scripts.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed | 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

/// First name with the given stem that hashes onto `shard`.
std::string name_on_shard(const ShardedSessionManager& mgr, std::size_t shard,
                          const std::string& stem) {
  for (int i = 0;; ++i) {
    std::string n = stem + std::to_string(i);
    if (mgr.shard_of(n) == shard) return n;
  }
}

/// Seeded per-session script of mixed mutating + query traffic.  Includes
/// violating assignments (s0+s1 > the 160 ns spec) so restore outcomes are
/// exercised and must re-derive on replay.
std::vector<Request> make_script(std::uint64_t seed, const std::string& name,
                                 int ops) {
  Rng rng(seed);
  std::vector<Request> script;
  script.reserve(ops);
  double value = 10e-9;
  for (int i = 0; i < ops; ++i) {
    value += static_cast<double>(rng.next() % 30 + 1) * 1e-9;
    const std::uint64_t kind = rng.next() % 10;
    if (i % 7 == 6) {
      // Violating batch: blows the spec, restores everything.
      Request r = make(RequestType::kBatchAssign, name);
      r.assignments.push_back({"PIPE/s0.delay(in->out)", 100e-9 + value});
      r.assignments.push_back({"PIPE/s1.delay(in->out)", 110e-9 + value});
      script.push_back(std::move(r));
    } else if (kind < 5) {
      Request r = make(RequestType::kAssign, name);
      r.assignments.push_back({"PIPE/s0.delay(in->out)", value});
      script.push_back(std::move(r));
    } else if (kind < 7) {
      Request r = make(RequestType::kBatchAssign, name);
      r.assignments.push_back({"PIPE/s0.delay(in->out)", value});
      r.assignments.push_back({"PIPE/s1.delay(in->out)", value + 5e-9});
      script.push_back(std::move(r));
    } else if (kind < 9) {
      script.push_back(
          make(RequestType::kQuery, name, "PIPE.delay(in->out)"));
    } else {
      char text[64];
      std::snprintf(text, sizeof text, "leaf-delay STAGE in out %g", value);
      script.push_back(make(RequestType::kEdit, name, text));
    }
  }
  return script;
}

/// Comparable per-request outcome.  Query text is deterministic per script;
/// mutation text may carry durability warnings, so only its verdict counts.
std::string outcome_of(const Request& req, const Response& r) {
  std::string o = r.ok ? "ok" : "err:" + r.error;
  if (r.violation) o += " violation";
  o += " applied=" + std::to_string(r.assignments_applied);
  o += " restored=" + std::to_string(r.variables_restored);
  if (req.type == RequestType::kQuery) o += " " + r.text;
  return o;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

// M threads x K sessions of seeded mixed traffic on a 4-shard service; every
// per-session outcome stream must match a single-shard oracle running the
// same scripts sequentially, and a single-shard recovery service replaying
// each shard journal must re-derive every outcome and land on a
// byte-identical save image.
TEST(ShardStressTest, OutcomesMatchSingleShardOracle) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 2;
  constexpr int kOpsPerSession = 24;
  constexpr std::uint64_t kSeed = 0xA2C95F61D3B74E19ull;

  const std::string root = tmp_root("oracle");
  DesignService svc(DesignService::Config{2, 4, root});

  std::vector<std::string> names;
  std::vector<std::vector<Request>> scripts;
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kSessionsPerThread; ++k) {
      names.push_back("w" + std::to_string(t) + "_s" + std::to_string(k));
      scripts.push_back(make_script(
          kSeed ^ ShardedSessionManager::hash_of(names.back()), names.back(),
          kOpsPerSession));
    }
  }
  for (const auto& n : names) {
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, n)).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kJournal, n, n + " none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, n, kPipeline)).ok);
  }

  // Concurrent phase: each thread drives its own sessions in script order.
  std::vector<std::vector<std::string>> outcomes(names.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kSessionsPerThread; ++k) {
        const std::size_t idx =
            static_cast<std::size_t>(t * kSessionsPerThread + k);
        for (const Request& req : scripts[idx]) {
          outcomes[idx].push_back(outcome_of(req, svc.call(req)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<std::string> images;
  std::vector<std::size_t> shard_of;
  for (const auto& n : names) {
    Response r = svc.call(make(RequestType::kSave, n));
    ASSERT_TRUE(r.ok) << r.error;
    images.push_back(r.text);
    shard_of.push_back(svc.sessions().shard_of(n));
    // Per-shard journal namespace: the log landed under <root>/shard-<i>/.
    EXPECT_TRUE(file_exists(root + "/shard-" +
                            std::to_string(shard_of.back()) + "/" + n +
                            ".journal"))
        << n;
  }
  for (const auto& n : names) {
    ASSERT_TRUE(svc.call(make(RequestType::kClose, n)).ok);
  }

  // Live oracle: the same scripts, sequentially, on a 1-shard service.
  DesignService oracle(DesignService::Config{1, 1, {}});
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(oracle.call(make(RequestType::kOpen, names[i])).ok);
    ASSERT_TRUE(oracle.call(make(RequestType::kLoad, names[i], kPipeline)).ok);
    for (std::size_t op = 0; op < scripts[i].size(); ++op) {
      EXPECT_EQ(outcomes[i][op],
                outcome_of(scripts[i][op], oracle.call(scripts[i][op])))
          << names[i] << " op " << op;
    }
    Response r = oracle.call(make(RequestType::kSave, names[i]));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(images[i], r.text) << names[i];
  }

  // Recovery oracle: a 1-shard service replays each shard journal and must
  // re-derive every recorded outcome, ending byte-identical.
  DesignService replay(DesignService::Config{1, 1, {}});
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string base =
        root + "/shard-" + std::to_string(shard_of[i]) + "/" + names[i];
    Response r = replay.call(make(RequestType::kRecover, names[i], base));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_NE(r.text.find("0 outcome mismatch(es)"), std::string::npos)
        << r.text;
    r = replay.call(make(RequestType::kSave, names[i]));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(images[i], r.text) << names[i];
  }
}

// A journal that dies in shard i degrades only shard i's session: shard j
// keeps serving with full durability, warning-free.
TEST(ShardStressTest, DeadJournalInOneShardDoesNotDegradeOthers) {
  const std::string root = tmp_root("dead");
  DesignService svc(DesignService::Config{1, 2, root});
  const std::string a = name_on_shard(svc.sessions(), 0, "a");
  const std::string b = name_on_shard(svc.sessions(), 1, "b");
  for (const auto& n : {a, b}) {
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, n)).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kJournal, n, n + " none")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, n, kPipeline)).ok);
  }
  {
    const auto sa = svc.sessions().find(a);
    ASSERT_NE(sa, nullptr);
    std::lock_guard<std::mutex> lk(sa->mutex());
    sa->journal()->set_fail_after(1);
  }

  Request ra = make(RequestType::kAssign, a);
  ra.assignments.push_back({"PIPE/s0.delay(in->out)", 50e-9});
  Response r = svc.call(ra);
  ASSERT_TRUE(r.ok) << r.error;  // in-memory session keeps serving
  EXPECT_NE(r.text.find("journal write failed"), std::string::npos) << r.text;

  // Shard 1 is untouched: mutations stay warning-free and checkpointable.
  for (double d : {40e-9, 41e-9, 42e-9}) {
    Request rb = make(RequestType::kAssign, b);
    rb.assignments.push_back({"PIPE/s0.delay(in->out)", d});
    r = svc.call(rb);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.text.find("journal write failed"), std::string::npos)
        << r.text;
  }
  EXPECT_TRUE(svc.call(make(RequestType::kCheckpoint, b)).ok);
  r = svc.call(make(RequestType::kCheckpoint, a));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("dead"), std::string::npos) << r.error;
}

// The no-global-lock acceptance test: wedge EVERY worker of shard 0 behind a
// session mutex the test holds, then require a shard-1 request to complete.
// If any mutating request took a global lock, the shard-1 call would hang
// behind the wedged workers and the test would never return.
TEST(ShardStressTest, BlockedShardDoesNotStallOthers) {
  constexpr std::size_t kWorkersPerShard = 2;
  DesignService svc(DesignService::Config{kWorkersPerShard, 2, {}});
  const std::string a = name_on_shard(svc.sessions(), 0, "a");
  const std::string b = name_on_shard(svc.sessions(), 1, "b");
  for (const auto& n : {a, b}) {
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, n)).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, n, kPipeline)).ok);
  }

  const auto sa = svc.sessions().find(a);
  ASSERT_NE(sa, nullptr);
  std::unique_lock<std::mutex> wedge(sa->mutex());

  const std::uint64_t dequeued0 = svc.sessions().dequeued(0);
  std::vector<std::future<Response>> stuck;
  for (std::size_t i = 0; i < kWorkersPerShard; ++i) {
    Request r = make(RequestType::kAssign, a);
    r.assignments.push_back(
        {"PIPE/s0.delay(in->out)", 50e-9 + static_cast<double>(i) * 1e-9});
    stuck.push_back(svc.submit(std::move(r)));
  }
  // Both shard-0 workers have dequeued and are now blocked on the wedge
  // (atomic counter poll, no sleeps).
  while (svc.sessions().dequeued(0) < dequeued0 + kWorkersPerShard) {
    std::this_thread::yield();
  }

  // Shard 1 must be fully live: lifecycle, mutation, and query verbs all
  // complete while shard 0 is wedged.
  Request rb = make(RequestType::kAssign, b);
  rb.assignments.push_back({"PIPE/s0.delay(in->out)", 60e-9});
  Response r = svc.call(rb);
  ASSERT_TRUE(r.ok) << r.error;
  r = svc.call(make(RequestType::kQuery, b, "PIPE.delay(in->out)"));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.text.find("PIPE.delay"), std::string::npos) << r.text;
  EXPECT_TRUE(svc.call(make(RequestType::kOpen, name_on_shard(
                                                    svc.sessions(), 1, "c")))
                  .ok);

  wedge.unlock();
  for (auto& f : stuck) {
    const Response resp = f.get();
    EXPECT_TRUE(resp.ok) << resp.error;
  }
}

// Close-vs-request hammer: concurrent close (with metrics fold) against
// in-flight mutations and queries on the same session, with steady traffic
// on the other shard so cross-shard folds overlap session teardown.  Every
// future must resolve to ok or "unknown session" — nothing hangs, nothing
// crashes, and the registry is empty-for-that-name at round end.  This is
// the regression test for the close / metrics-fold race window; it runs
// under TSan via TSAN_FILTER in tools/run_tier1.sh.
TEST(ShardStressTest, CloseVsRequestHammer) {
  constexpr int kRounds = 30;
  constexpr std::uint64_t kSeed = 0x6E1B8D24F9A35C07ull;
  DesignService svc(DesignService::Config{2, 2, {}});
  const std::string h = name_on_shard(svc.sessions(), 0, "h");
  const std::string g = name_on_shard(svc.sessions(), 1, "g");

  // Background traffic on the other shard for the whole hammer.
  ASSERT_TRUE(svc.call(make(RequestType::kOpen, g, "metrics")).ok);
  ASSERT_TRUE(svc.call(make(RequestType::kLoad, g, kPipeline)).ok);
  std::atomic<bool> stop{false};
  std::thread background([&] {
    double d = 10e-9;
    while (!stop.load(std::memory_order_relaxed)) {
      d += 1e-9;
      Request r = make(RequestType::kAssign, g);
      r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
      svc.call(r);
      svc.call(make(RequestType::kQuery, g, "PIPE.delay(in->out)"));
    }
  });

  Rng rng(kSeed);
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(svc.call(make(RequestType::kOpen, h, "metrics")).ok);
    ASSERT_TRUE(svc.call(make(RequestType::kLoad, h, kPipeline)).ok);

    std::vector<std::future<Response>> inflight;
    double d = 20e-9 + static_cast<double>(round) * 1e-9;
    const auto burst = [&](int n) {
      for (int i = 0; i < n; ++i) {
        const std::uint64_t kind = rng.next() % 3;
        if (kind == 0) {
          Request r = make(RequestType::kAssign, h);
          d += 1e-9;
          r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
          inflight.push_back(svc.submit(std::move(r)));
        } else if (kind == 1) {
          inflight.push_back(
              svc.submit(make(RequestType::kQuery, h, "cells")));
        } else {
          inflight.push_back(svc.submit(make(RequestType::kSave, h)));
        }
      }
    };
    burst(4);
    std::future<Response> close1 = svc.submit(make(RequestType::kClose, h));
    burst(4);
    std::future<Response> close2 = svc.submit(make(RequestType::kClose, h));

    for (auto& f : inflight) {
      const Response resp = f.get();
      EXPECT_TRUE(resp.ok ||
                  resp.error.find("unknown session") != std::string::npos)
          << resp.error;
    }
    // Exactly one close wins; the other (they execute concurrently on the
    // shard's two workers) sees the session already gone.
    const Response c1 = close1.get();
    const Response c2 = close2.get();
    EXPECT_NE(c1.ok, c2.ok) << c1.error << " / " << c2.error;
    const Response& lost = c1.ok ? c2 : c1;
    EXPECT_NE(lost.error.find("unknown session"), std::string::npos)
        << lost.error;
    EXPECT_EQ(svc.sessions().find(h), nullptr);
  }

  stop.store(true, std::memory_order_relaxed);
  background.join();
  ASSERT_TRUE(svc.call(make(RequestType::kClose, g)).ok);
  EXPECT_EQ(svc.sessions().size(), 0u);
}

}  // namespace
}  // namespace stemcp::service
