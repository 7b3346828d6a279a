// Durability-layer cost: requests/second through one session with the
// operation journal off versus attached under each fsync policy.  The
// journal-off arm is the PR-3 hot path and must not regress; the journaled
// arms price the durability spectrum (none < interval < group-commit <
// every-record) so operators can pick a policy with eyes open.
//
// BM_JournalSaturation is the group-commit acceptance matrix: req/s as a
// function of flush policy x concurrent arrival depth.  At depth 1 group
// commit degenerates to every-record (one record per fsync); at saturating
// depth the flusher coalesces the whole in-flight window into one fsync and
// throughput must multiply — run_tier1.sh --bench gates >= 5x at depth 64.
// Two final benchmarks time recovery replay, single-file and segmented.
#include <sys/stat.h>

#include <cstdio>
#include <deque>
#include <future>
#include <string>

#include "bench_support.h"
#include "persist/journal.h"
#include "service/design_service.h"
#include "workload/synth.h"

namespace {

using namespace stemcp;
using service::DesignService;
using service::Request;
using service::RequestType;

constexpr double kNs = 1e-9;

Request make(RequestType t, const std::string& session, std::string text = {}) {
  Request r;
  r.type = t;
  r.session = session;
  r.text = std::move(text);
  return r;
}

std::string bench_base(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (base.back() != '/') base.push_back('/');
  // Dedicated directory: journal opens and segment scans readdir the
  // parent, so sharing /tmp would bill its unrelated entries (hundreds of
  // stale test files on a CI host) to the recovery numbers.
  base += "stemcp_bench_persistence.d";
  ::mkdir(base.c_str(), 0755);
  return base + "/" + tag;
}

void remove_base(const std::string& base) {
  std::remove((base + ".ckpt").c_str());
  const std::string jpath = base + ".journal";
  for (const std::uint64_t n : stemcp::persist::list_journal_segments(jpath)) {
    std::remove(stemcp::persist::journal_segment_path(jpath, n).c_str());
  }
  std::remove(jpath.c_str());
}

// state.range(0): 0 = journal off, 1 = fsync none, 2 = fsync interval,
// 3 = fsync every-record, 4 = fsync group-commit.
const char* kPolicyArg[] = {"off", "none", "interval 32", "every-record",
                            "group-commit"};
const char* kPolicyTag[] = {"off", "none", "interval", "every", "group"};

void BM_JournaledAssign(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const std::string base = bench_base(kPolicyTag[mode]);
  remove_base(base);
  DesignService svc(1);
  svc.call(make(RequestType::kOpen, "b"));
  svc.call(make(RequestType::kLoad, "b", workload::pipeline_design()));
  if (mode != 0) {
    service::Response r = svc.call(make(
        RequestType::kJournal, "b", base + " " + kPolicyArg[mode]));
    if (!r.ok) {
      state.SkipWithError(("journal attach failed: " + r.error).c_str());
      return;
    }
  }
  double d = 1 * kNs;
  for (auto _ : state) {
    d += kNs;  // new value every wave (one-value-change rule)
    Request r = make(RequestType::kAssign, "b");
    r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
    benchmark::DoNotOptimize(svc.call(std::move(r)).ok);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  svc.call(make(RequestType::kClose, "b"));
  remove_base(base);
}
BENCHMARK(BM_JournaledAssign)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

/// The group-commit saturation matrix.  range(0): 0 = every-record,
/// 1 = group-commit.  range(1): arrival depth — how many requests are kept
/// in flight via submit() futures.  A ticket wait parks a worker, so the
/// worker pool is sized to the largest depth and the flusher sees the whole
/// window queued at once.
void BM_JournalSaturation(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const std::size_t inflight_max =
      static_cast<std::size_t>(state.range(1));
  const std::string base = bench_base(
      (std::string("sat_") + (mode == 0 ? "every_" : "group_") +
       std::to_string(inflight_max))
          .c_str());
  remove_base(base);
  DesignService::Config cfg;
  cfg.workers_per_shard = 64;
  cfg.shards = 1;
  DesignService svc(cfg);
  svc.call(make(RequestType::kOpen, "b"));
  svc.call(make(RequestType::kLoad, "b", workload::pipeline_design()));
  {
    const char* policy =
        mode == 0 ? " every-record" : " group-commit batch 64 delay-us 200";
    service::Response r =
        svc.call(make(RequestType::kJournal, "b", base + policy));
    if (!r.ok) {
      state.SkipWithError(("journal attach failed: " + r.error).c_str());
      return;
    }
  }
  double d = 1 * kNs;
  std::deque<std::future<service::Response>> window;
  for (auto _ : state) {
    d += kNs;
    Request r = make(RequestType::kAssign, "b");
    r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
    window.push_back(svc.submit(std::move(r)));
    if (window.size() >= inflight_max) {
      benchmark::DoNotOptimize(window.front().get().ok);
      window.pop_front();
    }
  }
  while (!window.empty()) {
    window.front().get();
    window.pop_front();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  if (const auto s = svc.sessions().find("b")) {
    if (const stemcp::persist::Journal* j = s->journal()) {
      state.counters["fsyncs"] = static_cast<double>(j->fsyncs());
      state.counters["records"] = static_cast<double>(j->records_written());
    }
  }
  svc.call(make(RequestType::kClose, "b"));
  remove_base(base);
}
BENCHMARK(BM_JournalSaturation)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({0, 64})
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({1, 64})
    ->UseRealTime();

/// Recovery replay throughput: rebuild a session from a checkpoint plus a
/// journal of `range(0)` assignment records.
void BM_RecoveryReplay(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const std::string base = bench_base("replay");
  remove_base(base);
  {
    DesignService svc(1);
    svc.call(make(RequestType::kOpen, "b"));
    svc.call(make(RequestType::kJournal, "b", base + " none"));
    svc.call(make(RequestType::kLoad, "b", workload::pipeline_design()));
    double d = 1 * kNs;
    for (int i = 0; i < records; ++i) {
      d += kNs;
      Request r = make(RequestType::kAssign, "b");
      r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
      svc.call(std::move(r));
    }
    // No close: leave the log as a crash would.
  }
  for (auto _ : state) {
    DesignService svc(1);
    service::Response r = svc.call(make(RequestType::kRecover, "b", base));
    if (!r.ok) {
      state.SkipWithError(("recover failed: " + r.error).c_str());
      return;
    }
    benchmark::DoNotOptimize(r.text.size());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["records"] = records;
  state.counters["replay_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records),
      benchmark::Counter::kIsRate);
  remove_base(base);
}
BENCHMARK(BM_RecoveryReplay)->Arg(64)->Arg(512);

/// Segmented recovery: same replay as BM_RecoveryReplay but the log was
/// rolled into sealed 2 KiB segments, so recovery goes through the parallel
/// segment scan and its seq-continuity seam checks.
void BM_SegmentedRecoveryReplay(benchmark::State& state) {
  const int records = static_cast<int>(state.range(0));
  const std::string base = bench_base("seg_replay");
  remove_base(base);
  std::uint64_t segments = 0;
  {
    DesignService svc(1);
    svc.call(make(RequestType::kOpen, "b"));
    svc.call(make(RequestType::kJournal, "b", base + " none segment 2048"));
    svc.call(make(RequestType::kLoad, "b", workload::pipeline_design()));
    double d = 1 * kNs;
    for (int i = 0; i < records; ++i) {
      d += kNs;
      Request r = make(RequestType::kAssign, "b");
      r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
      svc.call(std::move(r));
    }
    if (const auto s = svc.sessions().find("b")) {
      segments = s->journal()->sealed_segments();
    }
    // No close: leave the log as a crash would.
  }
  for (auto _ : state) {
    DesignService svc(1);
    service::Response r = svc.call(make(RequestType::kRecover, "b", base));
    if (!r.ok) {
      state.SkipWithError(("recover failed: " + r.error).c_str());
      return;
    }
    benchmark::DoNotOptimize(r.text.size());
  }
  state.SetItemsProcessed(state.iterations() * records);
  state.counters["records"] = records;
  state.counters["segments"] = static_cast<double>(segments);
  state.counters["replay_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * records),
      benchmark::Counter::kIsRate);
  remove_base(base);
}
BENCHMARK(BM_SegmentedRecoveryReplay)->Arg(512);

}  // namespace

STEMCP_BENCH_MAIN()
