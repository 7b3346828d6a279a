// Golden derived values.  The save images of tests/stem/golden/*.lib hold
// no instance value, so they cannot see a changed class-to-instance default
// or RC term.  This test loads each design of tests/stem/golden_designs.h
// and examples/designs/ into a DesignSession, runs a fixed script of edits
// over it, and writes every variable for_each_variable visits — its path,
// its value and its justification — after the load and after each step.
// The images were captured once and committed as tests/stem/golden/
// vars_*.txt; the design database must still produce them byte for byte.
#include <gtest/gtest.h>

#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../stem/golden_designs.h"
#include "service/session.h"
#include "stem/io.h"
#include "stem/stem.h"
#include "workload/synth.h"

namespace stemcp::service {
namespace {

using env::CellClass;
using env::LibraryReader;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string image_path(const std::string& image) {
  return std::string(STEMCP_SOURCE_DIR) + "/tests/stem/golden/vars_" + image +
         ".txt";
}

std::string status_text(core::Status s) {
  return s.is_violation() ? "violation" : "ok";
}

/// The values of every variable, one line each: reals as %.17g (a `query
/// vars` line prints only 6 digits), everything else as Value::to_string.
class Image {
 public:
  explicit Image(DesignSession& s) : s_(s) {}

  /// Runs one edit command and notes it with its outcome.
  void edit(const std::string& command) {
    std::string outcome;
    try {
      outcome = status_text(LibraryReader::edit(s_.library(), command));
    } catch (const std::exception& e) {
      outcome = std::string("error: ") + e.what();
    }
    note(command + ": " + outcome);
  }

  void note(const std::string& line) { text_ += "# " + line + '\n'; }

  /// Every variable, after the steps noted since the last dump.
  void dump() {
    s_.for_each_variable([this](core::Variable& v) {
      const core::Value& value = v.value();
      text_ += v.path() + " = " +
               (value.is_real() ? env::golden::num(value.as_real())
                                : value.to_string()) +
               " (" + v.last_set_by().to_string() + ")\n";
    });
    text_ += '\n';
  }

  const std::string& text() const { return text_; }

 private:
  DesignSession& s_;
  std::string text_;
};

std::vector<CellClass*> cells(DesignSession& s) {
  std::vector<CellClass*> out;
  for (const auto& c : s.library().cells()) out.push_back(c.get());
  return out;
}

/// The fixed script over one design; returns its image.
std::string derived_values(const std::string& design) {
  DesignSession s("golden");
  env::Library& lib = s.library();
  LibraryReader::read_string(lib, design);
  Image image(s);
  image.note("load");
  image.dump();

  // Leaf characteristics: every own delay of a cell without subcells takes a
  // new value, which crosses to each instance with its RC term.
  for (CellClass* c : cells(s)) {
    if (!c->subcells().empty()) continue;
    for (env::ClassDelayVar* d : c->delay_variables()) {
      if (&d->owner() != c) continue;
      const double v = d->value().is_number() ? d->value().as_number() * 1.25
                                              : 2e-9;
      image.edit("leaf-delay " + c->name() + ' ' + d->from() + ' ' + d->to() +
                 ' ' + env::golden::num(v));
    }
  }
  image.dump();

  // A loose spec on every composite delay.
  for (CellClass* c : cells(s)) {
    if (c->subcells().empty()) continue;
    for (env::ClassDelayVar* d : c->delay_variables()) {
      if (&d->owner() != c) continue;
      image.edit("spec " + c->name() + ' ' + d->from() + ' ' + d->to() +
                 " <= 1");
    }
  }
  image.dump();

  // One more load on the first driven net of every composite: a new subcell
  // of the driver's class joins it through its first input, and the delay
  // networks are rebuilt, so the driver's RC term grows.
  for (CellClass* c : cells(s)) {
    for (const auto& net : c->nets()) {
      const env::CellInstance* driver = nullptr;
      for (const env::NetConnection& conn : net->connections()) {
        if (conn.instance != nullptr &&
            conn.instance->cls().signal(conn.signal).is_output()) {
          driver = conn.instance;
          break;
        }
      }
      if (driver == nullptr) continue;
      const env::IoSignal* input = nullptr;
      for (const env::IoSignal* sig : driver->cls().all_signals()) {
        if (input == nullptr && sig->is_input()) input = sig;
      }
      if (input == nullptr) continue;
      image.edit("subcell " + c->name() + " probe " + driver->cls().name());
      image.edit("conn " + c->name() + ' ' + net->name() + " probe " +
                 input->name());
      image.edit("build-delays " + c->name());
      image.dump();
      break;
    }
  }

  // Instance parameters take the class default; a changed class default
  // then leaves them as they are.
  for (CellClass* c : cells(s)) {
    for (const auto& sub : c->subcells()) {
      for (const CellClass* k = &sub->cls(); k != nullptr;
           k = k->superclass()) {
        for (const auto& [name, p] : k->parameters()) {
          if (sub->cls().find_parameter(name) == p.get()) sub->parameter(name);
        }
      }
    }
  }
  image.note("parameter() on every instance of a parameterised class");
  image.dump();
  for (CellClass* c : cells(s)) {
    for (const auto& [name, p] : c->parameters()) {
      const double v = p->lo() + (p->hi() - p->lo()) / 4;
      image.note("class default " + c->name() + '.' + name + ' ' +
                 env::golden::num(v) + ": " +
                 status_text(p->set(core::Value(v),
                                    core::Justification::default_value())));
    }
  }
  image.dump();

  // One new placement per composite: its first subcell's box re-derives.
  for (CellClass* c : cells(s)) {
    if (c->subcells().empty()) continue;
    env::CellInstance& first = *c->subcells().front();
    const core::Point t = first.transform().translation();
    first.set_transform(
        core::Transform{core::Orientation::kR90, {t.x + 3, t.y + 5}});
    image.note("set_transform " + first.qualified_name() + " R90");
  }
  image.dump();

  // Module selection's commit: the ALU/add slot of the selection design
  // takes each realization in turn.
  CellClass* alu = lib.find("ALU");
  if (alu != nullptr && alu->find_subcell("add") != nullptr) {
    for (const char* realization : {"ADD.RC", "ADD.CS"}) {
      alu->replace_subcell(*alu->find_subcell("add"), *lib.find(realization));
      image.note(std::string("replace_subcell ALU/add ") + realization);
      image.dump();
    }
  }
  return image.text();
}

void expect_image(const std::string& design, const std::string& image) {
  const std::string golden = read_file(image_path(image));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(derived_values(design), golden);
}

TEST(GoldenVarsTest, ExampleDesignsDeriveAsCaptured) {
  for (const char* name : {"alu", "inverter", "pipeline"}) {
    SCOPED_TRACE(name);
    expect_image(read_file(std::string(STEMCP_SOURCE_DIR) +
                           "/examples/designs/" + name + ".lib"),
                 std::string("example_") + name);
  }
}

TEST(GoldenVarsTest, WorkloadDesignsDeriveAsCaptured) {
  expect_image(workload::pipeline_design(), "workload_pipeline");
  expect_image(workload::selection_design(), "workload_selection");
}

TEST(GoldenVarsTest, SeventeenDigitHierarchyDerivesAsCaptured) {
  expect_image(env::golden::two_level_hierarchy(), "two_level_hierarchy");
}

}  // namespace
}  // namespace stemcp::service
