// E8.4 — Figs 8.2-8.4: generate-and-test ablation — tree pruning via
// generic cells versus exhaustive leaf testing, sweeping the class-tree
// shape.  The thesis's claim: failing a generic's ideal characteristics
// rules out its whole subtree.
#include <benchmark/benchmark.h>

#include "selection_tree.h"

using stemcp::selection_tree::Tree;

static void BM_Pruned(benchmark::State& state) {
  Tree t(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.root->valid_realizations_for(*t.slot, {}));
  }
  state.counters["tests/op"] = benchmark::Counter(
      static_cast<double>(t.lib.selection_stats().candidates_tested),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Pruned)
    ->ArgsProduct({{2, 8, 32}, {8}})
    ->ArgsProduct({{8}, {2, 32}});

static void BM_Unpruned(benchmark::State& state) {
  Tree t(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        t.root->valid_realizations_unpruned(*t.slot, {}));
  }
  state.counters["tests/op"] = benchmark::Counter(
      static_cast<double>(t.lib.selection_stats().candidates_tested),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_Unpruned)
    ->ArgsProduct({{2, 8, 32}, {8}})
    ->ArgsProduct({{8}, {2, 32}});

#include "bench_support.h"
STEMCP_BENCH_MAIN();
