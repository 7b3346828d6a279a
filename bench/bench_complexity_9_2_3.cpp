// E9.2.3 — the thesis's complexity claim (§9.2.3):
//
//   complexity ∝ Σ_v |constraints(v)|
//
// We sweep the number of variables V and the constraints-per-variable
// density D independently; the time per full propagation should scale with
// the product V*D (the sum above), not with V or D alone.  The lattice and
// its shapes live in lattice_network.h, which the experiment-count tests
// share.
#include <benchmark/benchmark.h>

#include "lattice_network.h"

using namespace stemcp::core;
using stemcp::lattice::Lattice;

static void BM_SumOfConstraintsOverVariables(benchmark::State& state) {
  const int v = static_cast<int>(state.range(0));
  const int density = static_cast<int>(state.range(1));
  Lattice lattice(v, density);
  std::int64_t next = 1;
  for (auto _ : state) {
    lattice.vars[0]->set_user(Value(next++));
  }
  // The quantity the thesis says drives cost.
  std::size_t sum = 0;
  for (const auto& var : lattice.vars) sum += var->constraints().size();
  state.counters["sum|constraints(v)|"] = static_cast<double>(sum);
  state.counters["activations/op"] =
      benchmark::Counter(static_cast<double>(lattice.ctx.stats().activations),
                         benchmark::Counter::kAvgIterations);
  state.SetComplexityN(static_cast<std::int64_t>(sum));
}
// Same sum reached three ways: times should cluster per sum, not per shape.
BENCHMARK(BM_SumOfConstraintsOverVariables)
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const auto& shape : stemcp::lattice::kShapes) {
        b->Args({shape[0], shape[1]});
      }
    })
    ->Complexity();

#include "bench_support.h"
STEMCP_BENCH_MAIN();
