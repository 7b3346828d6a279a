// Network editing: addition and deletion of constraints with
// re-propagation (thesis §4.2.5, Figs 4.13/4.14).
#include <gtest/gtest.h>

#include "core/core.h"

namespace stemcp::core {
namespace {

class EditingTest : public ::testing::Test {
 protected:
  PropagationContext ctx;
};

TEST_F(EditingTest, AddingConstraintPropagatesExistingValues) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EXPECT_TRUE(a.set_user(Value(5)));
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  EXPECT_TRUE(eq.add_argument(b));
  EXPECT_EQ(b.value().as_int(), 5) << "a's value pushed through on add";
}

TEST_F(EditingTest, UserSpecifiedValuesTakePrecedenceOnAdd) {
  // Two user values that disagree: the add reports a violation and leaves
  // the values untouched (the designer must resolve it).
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EXPECT_TRUE(a.set_user(Value(5)));
  EXPECT_TRUE(b.set_user(Value(7)));
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  const Status s = eq.add_argument(b);
  EXPECT_TRUE(s.is_violation());
  EXPECT_EQ(a.value().as_int(), 5);
  EXPECT_EQ(b.value().as_int(), 7);
}

TEST_F(EditingTest, UserValueWinsOverPropagatedOnAdd) {
  // a holds a propagated value, b a user value: re-propagation pushes the
  // user value first, overwriting the propagated chain consistently.
  Variable a(ctx, "t", "a"), b(ctx, "t", "b"), src(ctx, "t", "src");
  EqualityConstraint::among(ctx, {&src, &a});
  EXPECT_TRUE(src.set(Value(1), Justification::application()));
  EXPECT_EQ(a.value().as_int(), 1);
  EXPECT_TRUE(b.set_user(Value(9)));

  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  eq.basic_add_argument(b);
  EXPECT_TRUE(eq.reinitialize_variables());
  EXPECT_EQ(a.value().as_int(), 9) << "user-specified b re-propagated first";
  EXPECT_EQ(src.value().as_int(), 9) << "and rippled through to src";
}

TEST_F(EditingTest, AddWhileDisabledSkipsRePropagation) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EXPECT_TRUE(a.set_user(Value(5)));
  ctx.set_enabled(false);
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  EXPECT_TRUE(eq.add_argument(b));
  EXPECT_TRUE(b.value().is_nil()) << "no local propagation while disabled";
  ctx.set_enabled(true);
}

TEST_F(EditingTest, RemoveArgumentRePropagatesRemainder) {
  Variable a(ctx, "t", "a"), b(ctx, "t", "b"), c(ctx, "t", "c");
  auto& eq = ctx.make<EqualityConstraint>();
  eq.basic_add_argument(a);
  eq.basic_add_argument(b);
  eq.basic_add_argument(c);
  EXPECT_TRUE(b.set_user(Value(4)));
  EXPECT_EQ(a.value().as_int(), 4);
  EXPECT_EQ(c.value().as_int(), 4);

  // Remove the user-specified source: a and c were its consequences, so
  // they are erased; re-propagation of the remaining {a, c} has nothing to
  // push (both nil).
  eq.remove_argument(b);
  EXPECT_TRUE(a.value().is_nil());
  EXPECT_TRUE(c.value().is_nil());
  EXPECT_EQ(b.value().as_int(), 4) << "removed variable keeps its own value";
}

TEST_F(EditingTest, EditChurnKeepsNetworkConsistent) {
  // Repeatedly adding/removing a bound over a live equality chain must
  // never corrupt values.
  Variable a(ctx, "t", "a"), b(ctx, "t", "b");
  EqualityConstraint::among(ctx, {&a, &b});
  EXPECT_TRUE(a.set_user(Value(5)));
  for (int i = 0; i < 10; ++i) {
    auto& bound = BoundConstraint::upper(ctx, b, Value(100));
    EXPECT_EQ(b.value().as_int(), 5);
    ctx.destroy_constraint(bound);
    EXPECT_EQ(b.value().as_int(), 5)
        << "b did not depend on the bound, so it survives removal";
  }
}

TEST_F(EditingTest, AddingViolatedBoundReportsImmediately) {
  Variable v(ctx, "t", "v");
  EXPECT_TRUE(v.set_user(Value(50)));
  auto& bound = ctx.make<BoundConstraint>(Relation::kLessEqual, Value(10));
  const Status s = bound.add_argument(v);
  EXPECT_TRUE(s.is_violation())
      << "adding a constraint checks existing values";
  EXPECT_EQ(v.value().as_int(), 50);
}

TEST_F(EditingTest, FunctionalConstraintArrivesAfterValues) {
  Variable x(ctx, "t", "x"), y(ctx, "t", "y"), s(ctx, "t", "s");
  EXPECT_TRUE(x.set_user(Value(2)));
  EXPECT_TRUE(y.set_user(Value(3)));
  UniAdditionConstraint::sum(ctx, s, {&x, &y});
  EXPECT_EQ(s.value().as_int(), 5) << "sum computed on constraint creation";
}

// Rollback destroys the constraints past a count, so destroying any one
// must leave the others in creation order.
TEST_F(EditingTest, DestroyConstraintKeepsCreationOrder) {
  auto& c0 = ctx.make<EqualityConstraint>();
  auto& c1 = ctx.make<EqualityConstraint>();
  auto& c2 = ctx.make<EqualityConstraint>();
  auto& c3 = ctx.make<EqualityConstraint>();
  ctx.destroy_constraint(c1);
  EXPECT_EQ(ctx.all_constraints(),
            (std::vector<Constraint*>{&c0, &c2, &c3}));
  ctx.destroy_constraint(c3);
  ctx.destroy_constraint(c0);
  EXPECT_EQ(ctx.all_constraints(), (std::vector<Constraint*>{&c2}));
}

// A destroyed constraint's slot is emptied, trailing slots are dropped and
// the rest squeezed out as they pile up; through every step, from the
// front, the middle and the back, the survivors keep their creation order
// and the count stays exact.
TEST_F(EditingTest, DestroyFromFrontMiddleAndBackKeepsOrderAndCount) {
  std::vector<Constraint*> live;
  for (int i = 0; i < 64; ++i) live.push_back(&ctx.make<EqualityConstraint>());
  const auto destroy_at = [&](std::size_t i) {
    ctx.destroy_constraint(*live[i]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    ASSERT_EQ(ctx.constraint_count(), live.size());
    ASSERT_EQ(ctx.all_constraints(), live);
  };
  for (int i = 0; i < 10; ++i) destroy_at(0);                // front
  for (int i = 0; i < 10; ++i) destroy_at(live.size() / 2);  // middle
  for (int i = 0; i < 10; ++i) destroy_at(live.size() - 1);  // back
  // New constraints go after the survivors, and the survivors stay
  // destroyable wherever compaction moved them.
  for (int i = 0; i < 8; ++i) live.push_back(&ctx.make<EqualityConstraint>());
  ASSERT_EQ(ctx.all_constraints(), live);
  for (std::size_t i = 0; !live.empty(); ++i) destroy_at(i % live.size());
  EXPECT_EQ(ctx.constraint_count(), 0u);
}

TEST_F(EditingTest, DestroyConstraintUnknownToContextThrows) {
  PropagationContext other;
  Variable a(other, "t", "a"), b(other, "t", "b");
  auto& eq = other.make<EqualityConstraint>();
  ASSERT_TRUE(eq.add_argument(a));
  ASSERT_TRUE(eq.add_argument(b));
  ASSERT_TRUE(a.set_user(Value(5)));
  EXPECT_THROW(ctx.destroy_constraint(eq), std::logic_error);
  // Refused before it touched the other context's network.
  EXPECT_EQ(eq.arguments().size(), 2u);
  EXPECT_EQ(a.constraints().size(), 1u);
  EXPECT_EQ(b.value().as_int(), 5);
}

// Another context's constraint is refused even when this context has a
// constraint in the slot it records.
TEST_F(EditingTest, DestroyConstraintOfAnotherContextAtAnOwnedSlotThrows) {
  PropagationContext other;
  auto& mine = ctx.make<EqualityConstraint>();
  auto& theirs = other.make<EqualityConstraint>();
  EXPECT_THROW(ctx.destroy_constraint(theirs), std::logic_error);
  EXPECT_EQ(ctx.all_constraints(), (std::vector<Constraint*>{&mine}));
  EXPECT_EQ(other.all_constraints(), (std::vector<Constraint*>{&theirs}));
}

}  // namespace
}  // namespace stemcp::core
