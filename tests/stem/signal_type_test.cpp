// Signal type hierarchies, compatibility and inference (thesis §7.1).
#include <gtest/gtest.h>

#include "stem/stem.h"

namespace stemcp::env {
namespace {

using core::Value;

class SignalTypeTest : public ::testing::Test {
 protected:
  core::PropagationContext ctx;
  SignalTypeRegistry reg;
};

TEST_F(SignalTypeTest, StandardHierarchyPresent) {
  // Thesis Fig 7.2.
  for (const char* name :
       {"DataType", "Bit", "FloatSignal", "IntegerSignal", "A2CIntSignal",
        "BCDSignal", "SignedMagIntSignal", "WholeSignal", "ElectricalType",
        "Analog", "Digital", "BIPOLAR", "TTL", "CMOS"}) {
    EXPECT_NE(reg.find(name), nullptr) << name;
  }
  EXPECT_EQ(reg.at("TTL")->parent(), reg.at("Digital").get());
  EXPECT_EQ(reg.at("Digital")->parent(), reg.at("ElectricalType").get());
  EXPECT_EQ(reg.at("A2CIntSignal")->parent(), reg.at("IntegerSignal").get());
}

TEST_F(SignalTypeTest, CompatibilityIsAncestorRelation) {
  const auto digital = reg.at("Digital");
  const auto ttl = reg.at("TTL");
  const auto cmos = reg.at("CMOS");
  const auto analog = reg.at("Analog");
  EXPECT_TRUE(ttl->is_compatible_with(*digital));
  EXPECT_TRUE(digital->is_compatible_with(*ttl));
  EXPECT_TRUE(ttl->is_compatible_with(*ttl));
  EXPECT_FALSE(ttl->is_compatible_with(*cmos)) << "siblings are incompatible";
  EXPECT_FALSE(ttl->is_compatible_with(*analog));
  EXPECT_FALSE(reg.at("Bit")->is_compatible_with(*ttl))
      << "data and electrical trees are disjoint";
}

TEST_F(SignalTypeTest, AbstractnessOrdering) {
  const auto digital = reg.at("Digital");
  const auto ttl = reg.at("TTL");
  EXPECT_TRUE(ttl->is_less_abstract_than(*digital));
  EXPECT_FALSE(digital->is_less_abstract_than(*ttl));
  EXPECT_FALSE(ttl->is_less_abstract_than(*ttl));
}

TEST_F(SignalTypeTest, LeastAbstractOfPair) {
  const auto digital = reg.at("Digital");
  const auto ttl = reg.at("TTL");
  const auto cmos = reg.at("CMOS");
  EXPECT_EQ(SignalType::least_abstract(digital.get(), ttl.get()), ttl.get());
  EXPECT_EQ(SignalType::least_abstract(ttl.get(), digital.get()), ttl.get());
  EXPECT_EQ(SignalType::least_abstract(nullptr, ttl.get()), ttl.get());
  EXPECT_EQ(SignalType::least_abstract(ttl.get(), cmos.get()), nullptr);
}

TEST_F(SignalTypeTest, UserDefinedExtension) {
  const auto lvds = reg.define("LVDS", reg.at("Digital"));
  EXPECT_TRUE(lvds->is_less_abstract_than(*reg.at("ElectricalType")));
  EXPECT_TRUE(lvds->is_compatible_with(*reg.at("Digital")));
  EXPECT_FALSE(lvds->is_compatible_with(*reg.at("TTL")));
  EXPECT_THROW(reg.define("LVDS", reg.at("Digital")), std::invalid_argument);
}

TEST_F(SignalTypeTest, TypeVarAllowsOnlyRefinement) {
  // Thesis Fig 7.4 overwrite rule.
  SignalTypeVar v(ctx, "sig", "electricalType");
  const core::Justification propagated;  // any non-user works for this check
  EXPECT_TRUE(v.can_change_value_to(type_value(reg.at("Digital")), propagated))
      << "nil -> anything";
  ASSERT_TRUE(v.set_user(type_value(reg.at("Digital"))));
  EXPECT_TRUE(v.can_change_value_to(type_value(reg.at("TTL")), propagated))
      << "refinement to a subtype";
  EXPECT_FALSE(v.can_change_value_to(type_value(reg.at("ElectricalType")),
                                     propagated))
      << "no abstraction";
  EXPECT_FALSE(v.can_change_value_to(type_value(reg.at("Analog")), propagated))
      << "no incompatible overwrite";
  EXPECT_TRUE(v.can_change_value_to(Value::nil(), propagated))
      << "erasure always allowed";
}

TEST_F(SignalTypeTest, CompatibleConstraintInfersNetType) {
  SignalTypeVar net(ctx, "net", "dataType");
  SignalTypeVar s1(ctx, "sig1", "dataType");
  SignalTypeVar s2(ctx, "sig2", "dataType");
  auto& c = ctx.make<CompatibleConstraint>();
  c.set_net_variable(net);
  c.basic_add_argument(s1);
  c.basic_add_argument(s2);
  EXPECT_TRUE(s1.set_user(type_value(reg.at("IntegerSignal"))));
  EXPECT_EQ(type_of(net.value()), reg.at("IntegerSignal").get());
  EXPECT_EQ(type_of(s2.value()), reg.at("IntegerSignal").get())
      << "unspecified signal types inferred from connections";
}

TEST_F(SignalTypeTest, CompatibleConstraintRefinesTowardLeastAbstract) {
  SignalTypeVar net(ctx, "net", "dataType");
  SignalTypeVar s1(ctx, "sig1", "dataType");
  SignalTypeVar s2(ctx, "sig2", "dataType");
  auto& c = ctx.make<CompatibleConstraint>();
  c.set_net_variable(net);
  c.basic_add_argument(s1);
  c.basic_add_argument(s2);
  EXPECT_TRUE(s1.set_user(type_value(reg.at("IntegerSignal"))));
  // A more specific type arrives: everything refines to it.
  EXPECT_TRUE(s2.set_user(type_value(reg.at("BCDSignal"))));
  EXPECT_EQ(type_of(net.value()), reg.at("BCDSignal").get());
  EXPECT_EQ(type_of(s1.value()), reg.at("BCDSignal").get());
}

TEST_F(SignalTypeTest, IncompatibleTypesViolate) {
  SignalTypeVar net(ctx, "net", "electricalType");
  SignalTypeVar s1(ctx, "sig1", "electricalType");
  SignalTypeVar s2(ctx, "sig2", "electricalType");
  auto& c = ctx.make<CompatibleConstraint>();
  c.set_net_variable(net);
  c.basic_add_argument(s1);
  c.basic_add_argument(s2);
  EXPECT_TRUE(s1.set_user(type_value(reg.at("TTL"))));
  EXPECT_EQ(type_of(s2.value()), reg.at("TTL").get())
      << "s2 inferred TTL from s1";
  EXPECT_TRUE(s2.set_user(type_value(reg.at("CMOS"))).is_violation())
      << "TTL and CMOS cannot share a net";
  EXPECT_EQ(type_of(s2.value()), reg.at("TTL").get()) << "restored";
}

TEST_F(SignalTypeTest, CompatibleConstraintJoinLateChecksExisting) {
  SignalTypeVar net(ctx, "net", "electricalType");
  SignalTypeVar s1(ctx, "sig1", "electricalType");
  SignalTypeVar s2(ctx, "sig2", "electricalType");
  EXPECT_TRUE(s1.set_user(type_value(reg.at("TTL"))));
  EXPECT_TRUE(s2.set_user(type_value(reg.at("CMOS"))));
  auto& c = ctx.make<CompatibleConstraint>();
  c.set_net_variable(net);
  c.basic_add_argument(s1);
  const core::Status s = c.add_argument(s2);
  EXPECT_TRUE(s.is_violation()) << "connecting incompatible signals rejected";
}

// Type names are std::string, not const char*: a pointer parameter prints as
// its run-time address, and the printed parameters name each test case.
class AbstractnessCase
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 bool>> {};

TEST_P(AbstractnessCase, IsLessAbstract) {
  SignalTypeRegistry reg;
  const auto [a, b, expected] = GetParam();
  EXPECT_EQ(reg.at(a)->is_less_abstract_than(*reg.at(b)), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, AbstractnessCase,
    ::testing::Values(std::make_tuple("TTL", "Digital", true),
                      std::make_tuple("TTL", "ElectricalType", true),
                      std::make_tuple("Digital", "TTL", false),
                      std::make_tuple("BCDSignal", "IntegerSignal", true),
                      std::make_tuple("BCDSignal", "DataType", true),
                      std::make_tuple("Bit", "IntegerSignal", false),
                      std::make_tuple("Analog", "Digital", false)));

}  // namespace
}  // namespace stemcp::env
