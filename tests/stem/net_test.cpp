// Net behaviour: connection bookkeeping, electrical context queries, and
// edge cases not covered by the signal-checking suite.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "stem/stem.h"

namespace stemcp::env {
namespace {

using core::Value;

class NetTest : public ::testing::Test {
 protected:
  Library lib;
};

TEST_F(NetTest, QualifiedNamesAndLookup) {
  auto& top = lib.define_cell("TOP");
  auto& net = top.add_net("bus");
  EXPECT_EQ(net.qualified_name(), "TOP:bus");
  EXPECT_EQ(top.find_net("bus"), &net);
  EXPECT_EQ(top.find_net("nope"), nullptr);
}

TEST_F(NetTest, ConnectRejectsForeignInstances) {
  auto& leaf = lib.define_cell("LEAF");
  leaf.declare_signal("p", SignalDirection::kInput);
  auto& a = lib.define_cell("A");
  auto& b = lib.define_cell("B");
  auto& inst_in_a = a.add_subcell(leaf, "i");
  auto& net_in_b = b.add_net("n");
  EXPECT_THROW(net_in_b.connect(inst_in_a, "p"), std::logic_error);
  EXPECT_THROW(net_in_b.connect_io("nope"), std::out_of_range);
}

TEST_F(NetTest, DoubleConnectIsIdempotent) {
  auto& leaf = lib.define_cell("LEAF");
  leaf.declare_signal("p", SignalDirection::kInput);
  auto& top = lib.define_cell("TOP");
  auto& inst = top.add_subcell(leaf, "i");
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect(inst, "p"));
  EXPECT_TRUE(net.connect(inst, "p"));
  EXPECT_EQ(net.connections().size(), 1u);
}

TEST_F(NetTest, DriverResistanceFindsSubcellOutput) {
  auto& drv = lib.define_cell("DRV");
  auto& q = drv.declare_signal("q", SignalDirection::kOutput);
  q.set_output_resistance(2e3);
  auto& rcv = lib.define_cell("RCV");
  auto& d = rcv.declare_signal("d", SignalDirection::kInput);
  d.set_load_capacitance(1e-14);
  auto& top = lib.define_cell("TOP");
  auto& s = top.add_subcell(drv, "s");
  auto& r1 = top.add_subcell(rcv, "r1");
  auto& r2 = top.add_subcell(rcv, "r2");
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect(r1, "d"));
  EXPECT_DOUBLE_EQ(net.driver_resistance(), 0.0) << "undriven yet";
  EXPECT_TRUE(net.connect(s, "q"));
  EXPECT_TRUE(net.connect(r2, "d"));
  EXPECT_DOUBLE_EQ(net.driver_resistance(), 2e3);
  EXPECT_DOUBLE_EQ(net.total_load_capacitance(), 2e-14);
  EXPECT_DOUBLE_EQ(net.total_load_capacitance(&r1, "d"), 1e-14)
      << "exclusion removes one load";
}

TEST_F(NetTest, ParentInputIoDrivesInternalNet) {
  auto& top = lib.define_cell("TOP");
  auto& io = top.declare_signal("in", SignalDirection::kInput);
  io.set_output_resistance(500.0);  // source impedance at the boundary
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect_io("in"));
  EXPECT_DOUBLE_EQ(net.driver_resistance(), 500.0);
}

TEST_F(NetTest, ParentOutputIoContributesExternalLoad) {
  auto& top = lib.define_cell("TOP");
  auto& io = top.declare_signal("out", SignalDirection::kOutput);
  io.set_load_capacitance(5e-14);  // estimated external load
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect_io("out"));
  EXPECT_DOUBLE_EQ(net.total_load_capacitance(), 5e-14);
}

TEST_F(NetTest, DisconnectIoClearsInternalNetPointer) {
  auto& top = lib.define_cell("TOP");
  top.declare_signal("in", SignalDirection::kInput);
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect_io("in"));
  EXPECT_EQ(top.signal("in").internal_net(), &net);
  net.disconnect_io("in");
  EXPECT_EQ(top.signal("in").internal_net(), nullptr);
  EXPECT_TRUE(net.connections().empty());
}

TEST_F(NetTest, RemoveNetDetachesEverything) {
  auto& leaf = lib.define_cell("LEAF");
  leaf.declare_signal("p", SignalDirection::kInput);
  auto& top = lib.define_cell("TOP");
  top.declare_signal("in", SignalDirection::kInput);
  auto& inst = top.add_subcell(leaf, "i");
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect_io("in"));
  EXPECT_TRUE(net.connect(inst, "p"));
  top.remove_net(net);
  EXPECT_EQ(top.nets().size(), 0u);
  EXPECT_EQ(inst.net_for("p"), nullptr);
  EXPECT_EQ(top.signal("in").internal_net(), nullptr);
  EXPECT_TRUE(leaf.signal("p").data_type().constraints().empty())
      << "typing constraints dissolved";
}

TEST_F(NetTest, WireCapZeroWithoutTechnology) {
  auto& leaf = lib.define_cell("LEAF");
  EXPECT_TRUE(
      leaf.bounding_box().set_user(Value(core::Rect{0, 0, 10, 10})));
  leaf.declare_signal("p", SignalDirection::kInOut)
      .add_pin({0, 5}, Side::kLeft);
  auto& top = lib.define_cell("TOP");
  auto& i1 = top.add_subcell(leaf, "i1");
  auto& i2 = top.add_subcell(leaf, "i2",
                             core::Transform::translate({100, 0}));
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect(i1, "p"));
  EXPECT_TRUE(net.connect(i2, "p"));
  EXPECT_DOUBLE_EQ(net.wire_capacitance(), 0.0)
      << "no capacitance-per-unit configured";
  net.set_capacitance_per_unit(2e-16);
  EXPECT_DOUBLE_EQ(net.wire_capacitance(), 100 * 2e-16);
}

TEST_F(NetTest, InheritedSignalsConnectable) {
  auto& base = lib.define_cell("BASE");
  base.declare_signal("p", SignalDirection::kInput);
  auto& sub = lib.define_cell("SUB", &base);
  auto& top = lib.define_cell("TOP");
  auto& inst = top.add_subcell(sub, "i");
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect(inst, "p")) << "signal resolved via superclass";
  EXPECT_EQ(inst.net_for("p"), &net);
}

/// The message a refused connect throws, or "" when it did not throw.
template <typename Connect>
std::string refusal(Connect&& connect) {
  try {
    connect();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(NetTest, PinJoinsAtMostOneNet) {
  auto& leaf = lib.define_cell("LEAF");
  leaf.declare_signal("p", SignalDirection::kInput);
  auto& top = lib.define_cell("TOP");
  auto& inst = top.add_subcell(leaf, "i");
  auto& n1 = top.add_net("n1");
  auto& n2 = top.add_net("n2");
  EXPECT_TRUE(n1.connect(inst, "p"));
  EXPECT_EQ(refusal([&] { n2.connect(inst, "p"); }),
            "net TOP:n2: pin i p is already on net TOP:n1");
  EXPECT_TRUE(n2.connections().empty());
  EXPECT_EQ(n2.width_constraint().arguments().size(), 1u)
      << "only the net's own width";
  EXPECT_EQ(inst.net_for("p"), &n1);
  n1.disconnect(inst, "p");
  EXPECT_TRUE(n2.connect(inst, "p")) << "a pin that left may join another";
  EXPECT_EQ(inst.net_for("p"), &n2);
}

TEST_F(NetTest, IoSignalJoinsAtMostOneNetOfItsCell) {
  auto& top = lib.define_cell("TOP");
  top.declare_signal("in", SignalDirection::kInput);
  auto& n1 = top.add_net("n1");
  auto& n2 = top.add_net("n2");
  EXPECT_TRUE(n1.connect_io("in"));
  EXPECT_TRUE(n1.connect_io("in")) << "a second connect to the same net";
  EXPECT_EQ(refusal([&] { n2.connect_io("in"); }),
            "net TOP:n2: io in is already on net TOP:n1");
  EXPECT_TRUE(n2.connections().empty());
  EXPECT_EQ(top.signal("in").internal_net(), &n1);
  // The rule is per cell: a subclass's own net may take the inherited io.
  auto& sub = lib.define_cell("SUB", &top);
  EXPECT_TRUE(sub.add_net("n").connect_io("in"));
}

TEST_F(NetTest, ShadowedSignalKeepsTheDeclarationItJoinedThrough) {
  auto& base = lib.define_cell("BASE");
  base.declare_signal("p", SignalDirection::kInput)
      .set_load_capacitance(1e-14);
  auto& sub = lib.define_cell("SUB", &base);
  auto& top = lib.define_cell("TOP");
  auto& inst = top.add_subcell(sub, "i");
  auto& net = top.add_net("n");
  EXPECT_TRUE(net.connect(inst, "p"));
  // SUB now declares its own p; the pin still joined through BASE.p.
  sub.declare_signal("p", SignalDirection::kInput)
      .set_load_capacitance(5e-14);
  EXPECT_DOUBLE_EQ(net.total_load_capacitance(), 1e-14)
      << "the load of the declaration the typing constraints hold";
  net.disconnect(inst, "p");
  EXPECT_EQ(net.data_constraint().arguments().size(), 1u)
      << "only the net's own type is left";
  EXPECT_EQ(net.electrical_constraint().arguments().size(), 1u);
  EXPECT_TRUE(base.signal("p").data_type().constraints().empty());
  EXPECT_TRUE(base.signal("p").electrical_type().constraints().empty());
}

}  // namespace
}  // namespace stemcp::env
