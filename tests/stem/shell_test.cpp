// The constraint shell (scriptable editor, thesis §5.4) and wire-cap
// coupling between geometry and timing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "stem/shell.h"
#include "stem/stem.h"

namespace stemcp::env {
namespace {

using core::Value;

class ShellTest : public ::testing::Test {
 protected:
  core::PropagationContext ctx;
  core::Variable a{ctx, "cell", "a"};
  core::Variable b{ctx, "cell", "b"};
  ConstraintShell shell{ctx};

  void SetUp() override {
    core::EqualityConstraint::among(ctx, {&a, &b});
    core::BoundConstraint::upper(ctx, b, Value(100.0));
    shell.register_variable(a);
    shell.register_variable(b);
  }
};

TEST_F(ShellTest, SetAndShow) {
  EXPECT_NE(shell.execute("set cell.a 5"), "");
  EXPECT_NE(shell.execute("show cell.b").find("5"), std::string::npos);
  EXPECT_NE(shell.execute("show cell.b").find("propagated"),
            std::string::npos);
}

TEST_F(ShellTest, ViolationReportedNotThrown) {
  const std::string out = shell.execute("set cell.a 500");
  EXPECT_NE(out.find("VIOLATION"), std::string::npos);
  EXPECT_NE(out.find("bound"), std::string::npos);
  EXPECT_NE(shell.execute("warnings").find("bound"), std::string::npos);
}

TEST_F(ShellTest, ProbeHasNoSideEffects) {
  shell.execute("set cell.a 5");
  EXPECT_NE(shell.execute("probe cell.a 50").find("can be set"),
            std::string::npos);
  EXPECT_NE(shell.execute("probe cell.a 500").find("canNOT"),
            std::string::npos);
  EXPECT_NE(shell.execute("show cell.a").find("5"), std::string::npos);
}

TEST_F(ShellTest, TracesAndDot) {
  shell.execute("set cell.a 7");
  EXPECT_NE(shell.execute("antecedents cell.b").find("cell.a"),
            std::string::npos);
  EXPECT_NE(shell.execute("consequences cell.a").find("cell.b"),
            std::string::npos);
  EXPECT_NE(shell.execute("constraints cell.a").find("equality"),
            std::string::npos);
  EXPECT_NE(shell.execute("dot cell.a").find("digraph"), std::string::npos);
}

TEST_F(ShellTest, ToggleAndRestore) {
  EXPECT_NE(shell.execute("off").find("disabled"), std::string::npos);
  shell.execute("set cell.a 9");
  EXPECT_NE(shell.execute("show cell.b").find("nil"), std::string::npos);
  EXPECT_NE(shell.execute("on").find("enabled"), std::string::npos);
  shell.execute("set cell.a 10");
  EXPECT_NE(shell.execute("show cell.b").find("10"), std::string::npos);
  shell.execute("restore");
  EXPECT_NE(shell.execute("show cell.a").find("9"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAndHelp) {
  EXPECT_NE(shell.execute("").find("commands:"), std::string::npos);
  EXPECT_NE(shell.execute("help").find("commands:"), std::string::npos);
  EXPECT_NE(shell.execute("bogus x").find("commands:"), std::string::npos);
  EXPECT_NE(shell.execute("show nope").find("unknown variable"),
            std::string::npos);
  EXPECT_NE(shell.execute("set cell.a").find("needs a numeric"),
            std::string::npos);
  EXPECT_NE(shell.execute("vars").find("cell.a"), std::string::npos);
}

TEST_F(ShellTest, WorkloadVerbsNeedAnAttachedHandler) {
  // `record` / `replay` are forwarded to the workload layer when one is
  // attached (examples/constraint_shell.cpp wires it up); bare shells say so
  // instead of guessing.
  EXPECT_EQ(shell.execute("record status"), "no workload recorder attached\n");
  EXPECT_EQ(shell.execute("replay /tmp/x.trace"),
            "no workload recorder attached\n");
  std::string seen;
  shell.attach_workload([&seen](const std::string& line) {
    seen = line;
    return std::string("handled\n");
  });
  EXPECT_EQ(shell.execute("record start /tmp/x.trace"), "handled\n");
  EXPECT_EQ(seen, "record start /tmp/x.trace")
      << "the full command line reaches the handler";
  EXPECT_NE(shell.execute("help").find("record start"), std::string::npos);
}

TEST_F(ShellTest, AliasRegistration) {
  shell.register_variable("alpha", a);
  shell.execute("set alpha 3");
  EXPECT_NE(shell.execute("show cell.b").find("3"), std::string::npos);
}

// Without a service attached, export-metrics renders the live context's
// registry merged with the process-global one.  Once a metrics-enabled
// context has been destroyed both hold run_ns.uniAddition; the Prometheus
// text format allows each family once, with the counts of both sources.
TEST(ShellMetricsTest, ExportMetricsWritesEachFamilyOnce) {
  core::reset_global_metrics();
  const auto exercise = [](core::PropagationContext& c) {
    c.metrics().set_enabled(true);
    core::Variable x(c, "t", "x"), y(c, "t", "y"), s(c, "t", "s");
    core::UniAdditionConstraint::sum(c, s, {&x, &y});
    EXPECT_TRUE(x.set_user(Value(1)));
    EXPECT_TRUE(y.set_user(Value(2)));
    return c.metrics().find_histogram("run_ns.uniAddition")->count();
  };
  std::uint64_t runs = 0;
  {
    core::PropagationContext gone;
    runs += exercise(gone);
  }
  core::PropagationContext ctx;
  runs += exercise(ctx);
  ConstraintShell shell(ctx);
  const std::string path = testing::TempDir() + "stemcp_shell_metrics.prom";
  EXPECT_EQ(shell.execute("export-metrics " + path),
            "metrics written to " + path + "\n");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::map<std::string, int> families;
  std::string line;
  std::string run_count;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      ++families[rest.substr(0, rest.find(' '))];
    }
    if (line.rfind("stemcp_run_ns_uniAddition_count ", 0) == 0) {
      run_count = line.substr(line.find(' ') + 1);
    }
  }
  ASSERT_FALSE(families.empty());
  for (const auto& [name, n] : families) EXPECT_EQ(n, 1) << name;
  EXPECT_EQ(run_count, std::to_string(runs));
  std::remove(path.c_str());
}

// ---- wire capacitance couples geometry and timing --------------------------

TEST(WireCapTest, LongerNetsCarryMoreCapacitance) {
  Library lib;
  auto& drv = lib.define_cell("DRV");
  EXPECT_TRUE(drv.bounding_box().set_user(Value(core::Rect{0, 0, 10, 10})));
  auto& q = drv.declare_signal("q", SignalDirection::kOutput);
  q.add_pin({10, 5}, Side::kRight);
  q.set_output_resistance(1e3);
  auto& rcv = lib.define_cell("RCV");
  EXPECT_TRUE(rcv.bounding_box().set_user(Value(core::Rect{0, 0, 10, 10})));
  auto& d = rcv.declare_signal("d", SignalDirection::kInput);
  d.add_pin({0, 5}, Side::kLeft);

  auto& top = lib.define_cell("TOP");
  auto& s = top.add_subcell(drv, "s");
  auto& far = top.add_subcell(rcv, "far",
                              core::Transform::translate({1000, 0}));
  auto& net = top.add_net("n");
  net.set_capacitance_per_unit(1e-16);  // 0.1 fF per grid unit
  EXPECT_TRUE(net.connect(s, "q"));
  EXPECT_TRUE(net.connect(far, "d"));
  // Pin span: from (10,5) to (1000,5): half-perimeter 990.
  EXPECT_NEAR(net.wire_capacitance(), 990 * 1e-16, 1e-20);
  EXPECT_NEAR(net.total_load_capacitance(&s, "q"), 990 * 1e-16, 1e-20);

  // Moving the receiver closer shortens the wire.
  far.set_transform(core::Transform::translate({100, 0}));
  EXPECT_NEAR(net.wire_capacitance(), 90 * 1e-16, 1e-20);
}

TEST(WireCapTest, WireLoadEntersDelayAdjustment) {
  Library lib;
  auto& inv = lib.define_cell("INV");
  EXPECT_TRUE(inv.bounding_box().set_user(Value(core::Rect{0, 0, 10, 10})));
  auto& in = inv.declare_signal("in", SignalDirection::kInput);
  in.add_pin({0, 5}, Side::kLeft);
  auto& out = inv.declare_signal("out", SignalDirection::kOutput);
  out.add_pin({10, 5}, Side::kRight);
  out.set_output_resistance(1e3);
  inv.declare_delay("in", "out");

  auto& top = lib.define_cell("TOP");
  top.declare_signal("in", SignalDirection::kInput);
  top.declare_signal("out", SignalDirection::kOutput);
  auto& u0 = top.add_subcell(inv, "u0");
  auto& u1 = top.add_subcell(inv, "u1",
                             core::Transform::translate({2000, 0}));
  auto& n_in = top.add_net("n_in");
  EXPECT_TRUE(n_in.connect_io("in"));
  EXPECT_TRUE(n_in.connect(u0, "in"));
  auto& mid = top.add_net("mid");
  mid.set_capacitance_per_unit(1e-15);  // 1 fF per unit: a long slow wire
  EXPECT_TRUE(mid.connect(u0, "out"));
  EXPECT_TRUE(mid.connect(u1, "in"));
  auto& n_out = top.add_net("n_out");
  EXPECT_TRUE(n_out.connect(u1, "out"));
  EXPECT_TRUE(n_out.connect_io("out"));
  top.declare_delay("in", "out");
  top.build_delay_networks();
  EXPECT_TRUE(inv.set_leaf_delay("in", "out", 1e-9));

  // Wire span (10,5)->(2000,5): 1990 units = 1.99 pF; R_out 1k gives
  // ~1.99 us of wire delay on u0's stage — dominating the 2 ns of logic.
  const auto* d = top.find_delay("in", "out");
  ASSERT_TRUE(d->value().is_number());
  EXPECT_NEAR(d->value().as_number(), 2e-9 + 1e3 * 1990e-15, 1e-12);
}

}  // namespace
}  // namespace stemcp::env
