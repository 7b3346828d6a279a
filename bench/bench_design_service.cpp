// Design-service throughput: requests/second against the worker pool as the
// number of concurrent sessions grows.  Each iteration drives one batched
// assignment per session (the service's hot path: lock session, one
// propagation wave, unlock), so the benchmark measures how well independent
// sessions scale across the pool.
#include <future>
#include <string>
#include <vector>

#include "bench_support.h"
#include "service/design_service.h"
#include "workload/synth.h"

namespace {

using namespace stemcp;
using service::Assignment;
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

/// requests/sec over N sessions, every session's batch in flight at once.
void BM_BatchAssignThroughput(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  DesignService svc(4, benchsupport::env_shards(1));
  std::vector<std::string> names;
  for (int i = 0; i < sessions; ++i) {
    names.push_back("s" + std::to_string(i));
    svc.call(make(RequestType::kOpen, names.back()));
    svc.call(
        make(RequestType::kLoad, names.back(), workload::pipeline_design()));
  }

  double d = 1 * kNs;
  std::vector<std::future<service::Response>> inflight;
  inflight.reserve(names.size());
  for (auto _ : state) {
    d += kNs;  // new value every wave (one-value-change rule)
    for (const auto& name : names) {
      Request r = make(RequestType::kBatchAssign, name);
      r.assignments.push_back({"PIPE/s0.delay(in->out)", d});
      r.assignments.push_back({"PIPE/s1.delay(in->out)", d});
      inflight.push_back(svc.submit(std::move(r)));
    }
    for (auto& f : inflight) benchmark::DoNotOptimize(f.get().ok);
    inflight.clear();
  }
  state.SetItemsProcessed(state.iterations() * sessions);
  state.counters["sessions"] = sessions;
  state.counters["shards"] = static_cast<double>(svc.shard_count());
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchAssignThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

/// Mixed traffic: assign + query + save per session per iteration.
void BM_MixedTrafficThroughput(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  DesignService svc(4, benchsupport::env_shards(1));
  std::vector<std::string> names;
  for (int i = 0; i < sessions; ++i) {
    names.push_back("s" + std::to_string(i));
    svc.call(make(RequestType::kOpen, names.back()));
    svc.call(
        make(RequestType::kLoad, names.back(), workload::pipeline_design()));
  }
  double d = 1 * kNs;
  std::vector<std::future<service::Response>> inflight;
  for (auto _ : state) {
    d += kNs;
    for (const auto& name : names) {
      Request a = make(RequestType::kAssign, name);
      a.assignments.push_back({"PIPE/s0.delay(in->out)", d});
      inflight.push_back(svc.submit(std::move(a)));
      inflight.push_back(
          svc.submit(make(RequestType::kQuery, name, "PIPE.delay(in->out)")));
      inflight.push_back(svc.submit(make(RequestType::kSave, name)));
    }
    for (auto& f : inflight) benchmark::DoNotOptimize(f.get().ok);
    inflight.clear();
  }
  state.SetItemsProcessed(state.iterations() * sessions * 3);
  state.counters["sessions"] = sessions;
  state.counters["shards"] = static_cast<double>(svc.shard_count());
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions * 3),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MixedTrafficThroughput)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

STEMCP_BENCH_MAIN()
