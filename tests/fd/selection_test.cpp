// fd::SelectionSpace vs the engine's generate-and-test module selection
// (thesis ch. 8): same result sets on the Fig 8.1 / Fig 8.4 scenarios,
// fewer candidate probes, and cross-slot pruning for joint budgets.
#include <gtest/gtest.h>

#include "core/constraints/predicate.h"
#include "fd/selection.h"
#include "stem/stem.h"

namespace stemcp::fd {
namespace {

using core::BoundConstraint;
using core::Rect;
using core::Transform;
using core::Value;
using env::CellClass;
using env::CellInstance;
using env::ClassDelayVar;
using env::Library;
using env::SignalDirection;

constexpr double kNs = 1e-9;

/// Thesis Fig 8.1: ALU = LU8 -> generic ADD8 with a ripple-carry (slow,
/// small) and a carry-select (fast, large) realization.
class Fig81 {
 public:
  Library lib;
  CellClass* add8;
  CellClass* add8_rc;
  CellClass* add8_cs;
  CellClass* alu;
  CellInstance* adder_inst;
  ClassDelayVar* alu_delay;

  Fig81() {
    add8 = &lib.define_cell("ADD8", nullptr);
    add8->set_generic(true);
    add8->declare_signal("in", SignalDirection::kInput);
    add8->declare_signal("out", SignalDirection::kOutput);
    add8->declare_delay("in", "out");

    add8_rc = &lib.define_cell("ADD8.RC", add8);
    EXPECT_TRUE(add8_rc->set_leaf_delay("in", "out", 8 * kNs));
    EXPECT_TRUE(add8_rc->bounding_box().set_user(Value(Rect{0, 0, 8, 10})));
    add8_cs = &lib.define_cell("ADD8.CS", add8);
    EXPECT_TRUE(add8_cs->set_leaf_delay("in", "out", 5 * kNs));
    EXPECT_TRUE(add8_cs->bounding_box().set_user(Value(Rect{0, 0, 8, 22})));

    auto& lu8 = lib.define_cell("LU8", nullptr);
    lu8.declare_signal("in", SignalDirection::kInput);
    lu8.declare_signal("out", SignalDirection::kOutput);
    EXPECT_TRUE(lu8.set_leaf_delay("in", "out", 3 * kNs));
    EXPECT_TRUE(lu8.bounding_box().set_user(Value(Rect{0, 0, 8, 20})));

    alu = &lib.define_cell("ALU", nullptr);
    alu->declare_signal("in", SignalDirection::kInput);
    alu->declare_signal("out", SignalDirection::kOutput);
    alu_delay = &alu->declare_delay("in", "out");

    auto& lu = alu->add_subcell(lu8, "lu", Transform::translate({0, 0}));
    adder_inst =
        &alu->add_subcell(*add8, "add", Transform::translate({0, 20}));
    auto& n_in = alu->add_net("n_in");
    EXPECT_TRUE(n_in.connect_io("in"));
    EXPECT_TRUE(n_in.connect(lu, "in"));
    auto& n_mid = alu->add_net("n_mid");
    EXPECT_TRUE(n_mid.connect(lu, "out"));
    EXPECT_TRUE(n_mid.connect(*adder_inst, "in"));
    auto& n_out = alu->add_net("n_out");
    EXPECT_TRUE(n_out.connect(*adder_inst, "out"));
    EXPECT_TRUE(n_out.connect_io("out"));
    alu->build_delay_networks();
  }
};

TEST(FdSelectionTest, Fig8_1TightAreaSelectsRippleCarry) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 30})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(11 * kNs));

  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  ASSERT_EQ(space.solve(0), 1u);
  EXPECT_EQ(space.solutions()[0][0], f.add8_rc)
      << "carry-select is too big for the slot";
}

TEST(FdSelectionTest, Fig8_1TightDelaySelectsCarrySelect) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 62})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(8 * kNs));

  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  ASSERT_EQ(space.solve(0), 1u);
  EXPECT_EQ(space.solutions()[0][0], f.add8_cs) << "ripple-carry is too slow";
}

TEST(FdSelectionTest, SolutionsComeInCostOrder) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 62})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(20 * kNs));

  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  ASSERT_EQ(space.solve(0), 2u);
  EXPECT_EQ(space.solutions()[0][0], f.add8_rc) << "smaller area first (§8)";
  EXPECT_EQ(space.solutions()[1][0], f.add8_cs);
}

TEST(FdSelectionTest, InfeasibleBudgetYieldsNoSolutions) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 62})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(6 * kNs));

  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  EXPECT_EQ(space.solve(0), 0u);
}

TEST(FdSelectionTest, AgreesWithGenerateAndTest) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 30})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(11 * kNs));

  const auto engine = f.add8->select_realizations_for(*f.adder_inst, {});
  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  space.solve(0);
  std::vector<CellClass*> fd_found;
  for (const auto& sol : space.solutions()) fd_found.push_back(sol[0]);
  EXPECT_EQ(fd_found, engine) << "same set, same cost order";
}

TEST(FdSelectionTest, FilteringNeverProbesTheNetwork) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 62})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(8 * kNs));

  const auto sessions_before = f.lib.context().stats().sessions;
  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  ASSERT_EQ(space.solve(0), 1u);
  EXPECT_EQ(f.lib.context().stats().sessions, sessions_before)
      << "delay slack is computed arithmetically, not via probe sessions";
  EXPECT_TRUE(f.alu_delay->value().is_nil());
}

TEST(FdSelectionTest, CommitRealizesTheChosenCandidate) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 30})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(11 * kNs));

  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  ASSERT_EQ(space.solve(1), 1u);
  const auto replaced = space.commit(0);
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(&replaced[0]->cls(), f.add8_rc);
  // The realized network now carries a committed delay: 3 + 8 = 11 ns.
  ASSERT_TRUE(f.alu_delay->value().is_number());
  EXPECT_NEAR(f.alu_delay->value().as_number(), 11 * kNs, 1e-15);
}

// Fig 8.4 shape: generic intermediates carry best-case characteristics;
// FD must prune the same subtrees while exploring no more candidates than
// the engine's pruned walk — and far fewer than the unpruned one.
TEST(FdSelectionTest, Fig8_4SubtreePruningMatchesEngine) {
  Library lib;
  auto& adder8 = lib.define_cell("Adder8", nullptr);
  adder8.set_generic(true);
  adder8.declare_signal("in", SignalDirection::kInput);
  adder8.declare_signal("out", SignalDirection::kOutput);
  adder8.declare_delay("in", "out");

  auto& ripple = lib.define_cell("RippleCarryAdder8", &adder8);
  ripple.set_generic(true);
  EXPECT_TRUE(ripple.set_leaf_delay("in", "out", 8 * kNs));
  EXPECT_TRUE(ripple.bounding_box().set_user(Value(Rect{0, 0, 8, 8})));
  for (int i = 0; i < 5; ++i) {
    auto& leaf = lib.define_cell("RCAdd8V" + std::to_string(i), &ripple);
    EXPECT_TRUE(leaf.set_leaf_delay("in", "out", (8 + i) * kNs));
    EXPECT_TRUE(leaf.bounding_box().set_user(Value(Rect{0, 0, 8, 8})));
  }

  auto& csel = lib.define_cell("CarrySelectAdder8", &adder8);
  csel.set_generic(true);
  EXPECT_TRUE(csel.set_leaf_delay("in", "out", 4 * kNs));
  EXPECT_TRUE(csel.bounding_box().set_user(Value(Rect{0, 0, 16, 8})));
  auto& cs_1 = lib.define_cell("CSAdd8A", &csel);
  EXPECT_TRUE(cs_1.set_leaf_delay("in", "out", 4 * kNs));
  EXPECT_TRUE(cs_1.bounding_box().set_user(Value(Rect{0, 0, 16, 8})));
  auto& cs_2 = lib.define_cell("CSAdd8B", &csel);
  EXPECT_TRUE(cs_2.set_leaf_delay("in", "out", 5 * kNs));
  EXPECT_TRUE(cs_2.bounding_box().set_user(Value(Rect{0, 0, 16, 9})));

  auto& top = lib.define_cell("TOP", nullptr);
  top.declare_signal("in", SignalDirection::kInput);
  top.declare_signal("out", SignalDirection::kOutput);
  auto& d = top.declare_delay("in", "out");
  auto& inst = top.add_subcell(adder8, "u");
  auto& n1 = top.add_net("n1");
  EXPECT_TRUE(n1.connect_io("in"));
  EXPECT_TRUE(n1.connect(inst, "in"));
  auto& n2 = top.add_net("n2");
  EXPECT_TRUE(n2.connect(inst, "out"));
  EXPECT_TRUE(n2.connect_io("out"));
  top.build_delay_networks();

  BoundConstraint::upper(lib.context(), d, Value(6 * kNs));
  EXPECT_TRUE(inst.bounding_box().set_user(Value(Rect{0, 0, 32, 32})));

  const auto engine = adder8.valid_realizations_for(inst, {});
  lib.reset_selection_stats();
  (void)adder8.valid_realizations_unpruned(inst, {});
  const auto unpruned_tests = lib.selection_stats().candidates_tested;

  SelectionSpace space(lib);
  space.add_slot(adder8, inst);
  space.solve(0);
  std::vector<CellClass*> fd_found;
  for (const auto& sol : space.solutions()) fd_found.push_back(sol[0]);

  EXPECT_EQ(fd_found, engine);
  EXPECT_EQ(space.stats().subtrees_pruned, 1u) << "ripple subtree cut";
  // 2 generics + 2 carry-select leaves = 4 tests; the unpruned engine walk
  // visits all 7 leaves.
  EXPECT_EQ(space.stats().candidates_explored, 4u);
  EXPECT_LT(space.stats().candidates_explored, unpruned_tests);
}

/// Two generic slots on one path: in -> u1 -> u2 -> out with a joint
/// budget only the fast/fast pair satisfies.
TEST(FdSelectionTest, CrossSlotBudgetForcesJointChoice) {
  Library lib;
  auto make_generic = [&](const std::string& name, CellClass*& slow,
                          CellClass*& fast) {
    auto& g = lib.define_cell(name, nullptr);
    g.set_generic(true);
    g.declare_signal("in", SignalDirection::kInput);
    g.declare_signal("out", SignalDirection::kOutput);
    g.declare_delay("in", "out");
    slow = &lib.define_cell(name + ".SLOW", &g);
    EXPECT_TRUE(slow->set_leaf_delay("in", "out", 8 * kNs));
    EXPECT_TRUE(slow->bounding_box().set_user(Value(Rect{0, 0, 4, 4})));
    fast = &lib.define_cell(name + ".FAST", &g);
    EXPECT_TRUE(fast->set_leaf_delay("in", "out", 3 * kNs));
    EXPECT_TRUE(fast->bounding_box().set_user(Value(Rect{0, 0, 8, 8})));
    return &g;
  };
  CellClass *slow1, *fast1, *slow2, *fast2;
  CellClass* g1 = make_generic("G1", slow1, fast1);
  CellClass* g2 = make_generic("G2", slow2, fast2);

  auto& top = lib.define_cell("TOP", nullptr);
  top.declare_signal("in", SignalDirection::kInput);
  top.declare_signal("out", SignalDirection::kOutput);
  auto& d = top.declare_delay("in", "out");
  auto& u1 = top.add_subcell(*g1, "u1", Transform::translate({0, 0}));
  auto& u2 = top.add_subcell(*g2, "u2", Transform::translate({0, 10}));
  auto& n1 = top.add_net("n1");
  EXPECT_TRUE(n1.connect_io("in"));
  EXPECT_TRUE(n1.connect(u1, "in"));
  auto& n2 = top.add_net("n2");
  EXPECT_TRUE(n2.connect(u1, "out"));
  EXPECT_TRUE(n2.connect(u2, "in"));
  auto& n3 = top.add_net("n3");
  EXPECT_TRUE(n3.connect(u2, "out"));
  EXPECT_TRUE(n3.connect_io("out"));
  top.build_delay_networks();

  BoundConstraint::upper(lib.context(), d, Value(8 * kNs));
  EXPECT_TRUE(u1.bounding_box().set_user(Value(Rect{0, 0, 8, 8})));
  EXPECT_TRUE(u2.bounding_box().set_user(Value(Rect{0, 10, 8, 18})));

  SelectionSpace space(lib);
  space.add_slot(*g1, u1);
  space.add_slot(*g2, u2);
  ASSERT_EQ(space.solve(0), 1u) << "only 3 + 3 <= 8 survives";
  EXPECT_EQ(space.solutions()[0][0], fast1);
  EXPECT_EQ(space.solutions()[0][1], fast2);
  EXPECT_GT(space.stats().fails, 0u)
      << "the cost heuristic tries the small slow parts first";
  // Pinned: the cross-slot filter's runs over establish and search.
  EXPECT_EQ(space.problem().stats().filter_runs, 4u);
}

TEST(FdSelectionTest, SearchLeavesTheDesignUntouched) {
  Fig81 f;
  EXPECT_TRUE(
      f.adder_inst->bounding_box().set_user(Value(Rect{0, 20, 8, 62})));
  BoundConstraint::upper(f.lib.context(), *f.alu_delay, Value(8 * kNs));
  SelectionSpace space(f.lib);
  space.add_slot(*f.add8, *f.adder_inst);
  space.solve(0);
  EXPECT_TRUE(f.alu_delay->value().is_nil());
  EXPECT_TRUE(f.adder_inst->delay("in", "out").value().is_nil());
  EXPECT_EQ(&f.adder_inst->cls(), f.add8) << "no commit, no replacement";
}

}  // namespace
}  // namespace stemcp::fd
