// E-FD — FD module selection versus generate-and-test (ISSUE 8,
// docs/SOLVER.md), on the same class-tree family as bench_fig8_4_pruning:
// a generic root with `families` generic subtrees of `leaves` leaves each,
// only the last family feasible under the parent's 10 ns budget.
//
// The generate-and-test arm probes every leaf through the propagation
// engine (assign, propagate, restore per candidate).  The FD arm builds one
// set-domain variable over the candidates and prunes it with arithmetic
// filters — generic subtree cuts included — so at the largest library size
// it explores an order of magnitude fewer candidates and finishes faster.
// Both arms report the same "cands" counter; tools/run_tier1.sh --bench
// gates FD/G&T on it via bench_compare.py.
//
// BM_NQueens drives the raw fd::Problem/Search machinery on a classic CSP
// stress network (all-solutions n-queens) to size propagator scheduling and
// trail costs without any design-database involvement.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fd/selection.h"
#include "fd/solver.h"
#include "selection_tree.h"

using namespace stemcp;
using selection_tree::Tree;

static void BM_FdSelect(benchmark::State& state) {
  Tree t(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  std::uint64_t cands = 0;
  std::uint64_t sols = 0;
  for (auto _ : state) {
    fd::SelectionSpace space(t.lib);
    space.add_slot(*t.root, *t.slot);
    if (space.establish()) space.solve(0);
    benchmark::DoNotOptimize(space.solutions());
    cands += space.stats().candidates_explored;
    sols += space.stats().solutions;
  }
  state.counters["cands"] = benchmark::Counter(
      static_cast<double>(cands), benchmark::Counter::kAvgIterations);
  state.counters["sols"] = benchmark::Counter(
      static_cast<double>(sols), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FdSelect)->Args({8, 8})->Args({16, 16})->Args({64, 64});

static void BM_GenerateAndTest(benchmark::State& state) {
  Tree t(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  std::uint64_t sols = 0;
  for (auto _ : state) {
    const auto found = t.root->valid_realizations_unpruned(*t.slot, {});
    benchmark::DoNotOptimize(found);
    sols += found.size();
  }
  state.counters["cands"] = benchmark::Counter(
      static_cast<double>(t.lib.selection_stats().candidates_tested),
      benchmark::Counter::kAvgIterations);
  state.counters["sols"] = benchmark::Counter(
      static_cast<double>(sols), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_GenerateAndTest)->Args({8, 8})->Args({16, 16})->Args({64, 64});

static void BM_NQueens(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t nodes = 0;
  std::uint64_t sols = 0;
  for (auto _ : state) {
    fd::Problem p;
    std::vector<fd::DomainVariable*> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back(&p.add_set_variable("q" + std::to_string(i), n));
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const long long d = static_cast<long long>(j - i);
        p.make<fd::NotEqualOffsetPropagator>(*rows[i], *rows[j], 0);
        p.make<fd::NotEqualOffsetPropagator>(*rows[i], *rows[j], d);
        p.make<fd::NotEqualOffsetPropagator>(*rows[i], *rows[j], -d);
      }
    }
    fd::Search search(p);
    fd::Search::Options opts;
    opts.max_solutions = 0;  // all
    search.solve(opts, [] { return true; });
    nodes += search.stats().nodes;
    sols += search.stats().solutions;
  }
  state.counters["nodes"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kAvgIterations);
  state.counters["sols"] = benchmark::Counter(
      static_cast<double>(sols), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NQueens)->Arg(6)->Arg(8)->Arg(9);

#include "bench_support.h"
STEMCP_BENCH_MAIN();
