// E5.1 — Fig 5.1/9.1: hierarchical constraint networks avoid redundant
// propagation.
//
// A cell's internal network (a functional chain of length M) feeds one
// class-level characteristic used by N instances.  Hierarchically, a change
// at the head propagates the internal chain ONCE and then crosses the
// implicit links to the N instances: cost ~ M + N.  Flattened — as a system
// without class/instance abstraction would represent it — the internal
// chain is replicated per instance: cost ~ N * M.  The networks live in
// fig5_1_network.h, which the experiment-count tests share.
#include <benchmark/benchmark.h>

#include "fig5_1_network.h"

using namespace stemcp;
using core::Value;

namespace {

template <typename Network>
void run_head_changes(benchmark::State& state) {
  Network net(static_cast<int>(state.range(0)),
              static_cast<int>(state.range(1)));
  double next = 1.0;
  for (auto _ : state) {
    net.head.set_user(Value(next));
    next += 1.0;
  }
  state.counters["assignments/op"] =
      benchmark::Counter(static_cast<double>(net.ctx.stats().assignments),
                         benchmark::Counter::kAvgIterations);
}

}  // namespace

// Hierarchical: one internal chain, N implicit duals, N external consumers.
static void BM_Hierarchical(benchmark::State& state) {
  run_head_changes<fig5_1::Hierarchical>(state);
}
BENCHMARK(BM_Hierarchical)
    ->ArgsProduct({{1, 4, 16, 64}, {64}})
    ->ArgsProduct({{16}, {16, 64, 256}});

// Flat: the internal chain replicated once per instance (no abstraction).
static void BM_Flat(benchmark::State& state) {
  run_head_changes<fig5_1::Flat>(state);
}
BENCHMARK(BM_Flat)
    ->ArgsProduct({{1, 4, 16, 64}, {64}})
    ->ArgsProduct({{16}, {16, 64, 256}});

#include "bench_support.h"
STEMCP_BENCH_MAIN();
