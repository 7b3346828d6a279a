// The paper's counts as always-fatal gates, on the benches' own networks
// (bench/fig5_1_network.h, bench/lattice_network.h): the benches print
// these counters, and this suite fails when one moves.
//
// E5.1 (Fig 5.1/9.1): a head change makes M + 2N + 1 assignments through
// the hierarchy and N(M + 2) + 1 through the flattened copy.  E9.2.3: one
// propagation over the lattice makes V·D - 1 activations, the thesis's
// Σ_v |constraints(v)| less the assigned variable's own entry point.
#include <gtest/gtest.h>

#include <cstdint>

#include "fig5_1_network.h"
#include "lattice_network.h"

namespace stemcp {
namespace {

using core::Value;

/// (N instances, M internal constraints) pairs from the bench's sweep.
constexpr int kFig5_1Shapes[][2] = {
    {1, 64}, {4, 64}, {64, 64}, {16, 16}, {16, 256}};

/// Assignments one head change makes, checked on two consecutive changes
/// (the first from nil, the second over a settled network).
template <typename Network>
void expect_assignments_per_change(int instances, int internal,
                                   std::uint64_t expected) {
  Network net(instances, internal);
  for (int change = 1; change <= 2; ++change) {
    const std::uint64_t before = net.ctx.stats().assignments;
    ASSERT_TRUE(net.head.set_user(Value(static_cast<double>(change))));
    EXPECT_EQ(net.ctx.stats().assignments - before, expected)
        << "N=" << instances << " M=" << internal << " change " << change;
  }
}

TEST(ExperimentCountsTest, Fig5_1HierarchicalMakesMPlus2NPlus1Assignments) {
  for (const auto& [n, m] : kFig5_1Shapes) {
    expect_assignments_per_change<fig5_1::Hierarchical>(
        n, m, static_cast<std::uint64_t>(m + 2 * n + 1));
  }
}

TEST(ExperimentCountsTest, Fig5_1FlatMakesNTimesMPlus2Plus1Assignments) {
  for (const auto& [n, m] : kFig5_1Shapes) {
    expect_assignments_per_change<fig5_1::Flat>(
        n, m, static_cast<std::uint64_t>(n * (m + 2) + 1));
  }
}

TEST(ExperimentCountsTest, Complexity9_2_3ActivationsAreVTimesDMinus1) {
  for (const auto& [v, d] : lattice::kShapes) {
    lattice::Lattice net(v, d);
    for (int change = 1; change <= 2; ++change) {
      const std::uint64_t before = net.ctx.stats().activations;
      ASSERT_TRUE(net.vars[0]->set_user(Value(change)));
      EXPECT_EQ(net.ctx.stats().activations - before,
                static_cast<std::uint64_t>(v * d - 1))
          << "V=" << v << " D=" << d << " change " << change;
    }
  }
}

}  // namespace
}  // namespace stemcp
