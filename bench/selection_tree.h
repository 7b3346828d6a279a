// The class-tree family of E8.4 (thesis Figs 8.2-8.4), shared by
// bench_fig8_4_pruning and bench_fd_selection.
#pragma once

#include <string>

#include "stem/stem.h"

namespace stemcp::selection_tree {

inline constexpr double kNs = 1e-9;

/// A generic root with `families` generic subtrees of `leaves` leaves each,
/// instantiated once in TOP under a 10 ns delay budget.  Only the last
/// family's subtree can meet the budget.
struct Tree {
  env::Library lib;
  env::CellClass* root;
  env::CellInstance* slot;

  Tree(int families, int leaves) {
    using core::Rect;
    using core::Value;
    using env::SignalDirection;
    root = &lib.define_cell("GEN");
    root->set_generic(true);
    root->declare_signal("in", SignalDirection::kInput);
    root->declare_signal("out", SignalDirection::kOutput);
    root->declare_delay("in", "out");
    for (int f = 0; f < families; ++f) {
      auto& fam = lib.define_cell("FAM" + std::to_string(f), root);
      fam.set_generic(true);
      const bool feasible = f + 1 == families;
      // Ideal (best-case) characteristics on the generic (thesis Fig 8.4).
      const double best = feasible ? 5 * kNs : 50 * kNs;
      fam.set_leaf_delay("in", "out", best);
      fam.bounding_box().set_user(Value(Rect{0, 0, 8, 8}));
      for (int l = 0; l < leaves; ++l) {
        auto& leaf = lib.define_cell(
            "FAM" + std::to_string(f) + ".L" + std::to_string(l), &fam);
        leaf.set_leaf_delay("in", "out", best + l * kNs);
        leaf.bounding_box().set_user(Value(Rect{0, 0, 8, 8 + l}));
      }
    }
    auto& top = lib.define_cell("TOP");
    top.declare_signal("in", SignalDirection::kInput);
    top.declare_signal("out", SignalDirection::kOutput);
    auto& d = top.declare_delay("in", "out");
    slot = &top.add_subcell(*root, "u");
    auto& n1 = top.add_net("n1");
    n1.connect_io("in");
    n1.connect(*slot, "in");
    auto& n2 = top.add_net("n2");
    n2.connect(*slot, "out");
    n2.connect_io("out");
    top.build_delay_networks();
    slot->bounding_box().set_user(Value(Rect{0, 0, 64, 64}));
    core::BoundConstraint::upper(lib.context(), d, Value(10 * kNs));
  }
};

}  // namespace stemcp::selection_tree
