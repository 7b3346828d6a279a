// The E9.2.3 lattice (thesis §9.2.3, complexity ∝ Σ_v |constraints(v)|),
// shared by bench_complexity_9_2_3 and the activation counts pinned in
// tests/stem/experiment_counts_test.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/core.h"

namespace stemcp::lattice {

/// V variables in a chain carrying the value (equality), plus D-1
/// additional predicate constraints attached to every variable (each must
/// be visited and checked during propagation).
struct Lattice {
  core::PropagationContext ctx;
  std::vector<std::unique_ptr<core::Variable>> vars;

  Lattice(int v, int density) {
    for (int i = 0; i < v; ++i) {
      vars.push_back(
          std::make_unique<core::Variable>(ctx, "l", "v" + std::to_string(i)));
    }
    for (int i = 0; i + 1 < v; ++i) {
      core::EqualityConstraint::among(
          ctx, {vars[static_cast<std::size_t>(i)].get(),
                vars[static_cast<std::size_t>(i) + 1].get()});
    }
    for (auto& var : vars) {
      for (int d = 0; d + 1 < density; ++d) {
        auto& c = ctx.make<core::BoundConstraint>(core::Relation::kLessEqual,
                                                  core::Value(1e18));
        c.basic_add_argument(*var);
      }
    }
  }
};

/// (V, D) shapes: each sum Σ_v |constraints(v)| reached three ways — many
/// sparse variables, few dense variables, and balanced.
inline constexpr int kShapes[][2] = {
    {1024, 2}, {512, 4},  {128, 16},  // sum ~ 3k, ~ 3k, ~ 2.3k
    {2048, 2}, {1024, 4}, {256, 16},  // sum ~ 6k, ~ 6k, ~ 4.6k
    {4096, 2}, {2048, 4}, {512, 16},
};

}  // namespace stemcp::lattice
