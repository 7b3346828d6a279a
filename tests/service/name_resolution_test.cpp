// Name resolution: DesignSession::find_variable walks an identification path
// through the objects that own the variable (docs/SERVICE.md "Variable
// paths").  The oracle is the lookup it replaced, a scan of every variable
// for_each_variable yields: the walk must resolve exactly what the scan
// resolves, create nothing, and never crash on a malformed path.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "service/session.h"
#include "stem/io.h"
#include "stem/stem.h"
#include "workload/synth.h"

namespace stemcp::service {
namespace {

/// The first variable for_each_variable yields whose path is `path`.
core::Variable* scan(DesignSession& s, const std::string& path) {
  core::Variable* found = nullptr;
  s.for_each_variable([&](core::Variable& v) {
    if (found == nullptr && v.path() == path) found = &v;
  });
  return found;
}

std::size_t variable_count(DesignSession& s) {
  std::size_t n = 0;
  s.for_each_variable([&n](core::Variable&) { ++n; });
  return n;
}

/// Creates every instance variable a subcell can have (bit widths,
/// parameters, delays), so the instance maps the walk reads are populated.
void create_instance_variables(DesignSession& s) {
  for (const auto& cell : s.library().cells()) {
    for (const auto& sub : cell->subcells()) {
      env::CellClass& cls = sub->cls();
      for (env::IoSignal* sig : cls.all_signals()) sub->bit_width(sig->name());
      for (const env::CellClass* c = &cls; c != nullptr; c = c->superclass()) {
        for (const auto& [name, p] : c->parameters()) sub->parameter(name);
      }
      for (env::ClassDelayVar* d : cls.delay_variables()) {
        sub->delay(d->from(), d->to());
      }
    }
  }
}

/// Checks every variable's path, and near misses of it, against the scan.
/// Returns how many variables were checked.
std::size_t expect_walk_matches_scan(DesignSession& s) {
  std::vector<core::Variable*> vars;
  s.for_each_variable([&vars](core::Variable& v) { vars.push_back(&v); });
  std::map<std::string, core::Variable*> first;
  for (core::Variable* v : vars) first.emplace(v->path(), v);
  const std::uint64_t assignments = s.library().context().stats().assignments;
  for (core::Variable* v : vars) {
    const std::string path = v->path();
    EXPECT_EQ(s.find_variable(path), first[path]) << path;
    std::string slashed = path;
    for (char& c : slashed) {
      if (c == '.') c = '/';
    }
    for (const std::string& miss :
         {path + "x", path.substr(0, path.size() - 1), path.substr(1),
          "x" + path, slashed}) {
      EXPECT_EQ(s.find_variable(miss), scan(s, miss)) << miss;
    }
  }
  EXPECT_EQ(variable_count(s), vars.size()) << "a lookup created a variable";
  EXPECT_EQ(s.library().context().stats().assignments, assignments)
      << "a lookup assigned a value";
  return vars.size();
}

void load(DesignSession& s, const std::string& text) {
  env::LibraryReader::read_string(s.library(), text);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), {}};
}

/// A small hierarchy shaped like the e2e benchmark's: `levels` levels of
/// `fanout` subcells each, one dotted leaf class instantiated everywhere,
/// `delay in out` on every class, and dotted class and instance names.
std::string generated_hierarchy(int levels, int fanout) {
  std::ostringstream o;
  o << "cell LEAF.R\n  signal in input width 4\n  signal out output\n"
       "  param drive 1 8 default 2\n  delay in out value 1e-9\nend\n";
  std::string child = "LEAF.R";
  for (int l = 1; l <= levels; ++l) {
    const std::string name = "L" + std::to_string(l) + ".BLK";
    o << "cell " << name << "\n  signal in input\n  signal out output\n"
      << "  delay in out\n";
    for (int i = 0; i < fanout; ++i) {
      o << "  subcell u." << i << ' ' << child << " R0 " << 10 * i << " 0\n";
    }
    o << "  net n_in\n    io in\n    conn u.0 in\n";
    for (int i = 0; i + 1 < fanout; ++i) {
      o << "  net n" << i << "\n    conn u." << i << " out\n    conn u."
        << i + 1 << " in\n";
    }
    o << "  net n_out\n    conn u." << fanout - 1 << " out\n    io out\nend\n";
    child = name;
  }
  return o.str();
}

TEST(NameResolutionTest, ExampleDesignsResolveLikeTheScan) {
  for (const char* file : {"pipeline.lib", "inverter.lib", "alu.lib"}) {
    SCOPED_TRACE(file);
    DesignSession s("t");
    load(s, read_file(std::string(STEMCP_SOURCE_DIR) + "/examples/designs/" +
                      file));
    create_instance_variables(s);
    EXPECT_GT(expect_walk_matches_scan(s), 0u);
  }
}

TEST(NameResolutionTest, WorkloadDesignsResolveLikeTheScan) {
  for (const char* text :
       {workload::pipeline_design(), workload::selection_design()}) {
    DesignSession s("t");
    load(s, text);
    EXPECT_GT(expect_walk_matches_scan(s), 0u) << "as loaded";
    create_instance_variables(s);
    EXPECT_GT(expect_walk_matches_scan(s), 0u) << "every instance variable";
  }
}

TEST(NameResolutionTest, GeneratedHierarchyResolvesLikeTheScan) {
  DesignSession s("t");
  load(s, generated_hierarchy(3, 3));
  create_instance_variables(s);
  EXPECT_GT(expect_walk_matches_scan(s), 40u);
  EXPECT_NE(s.find_variable("L2.BLK/u.1.delay(in->out)"), nullptr);
  EXPECT_NE(s.find_variable("L1.BLK/u.2.param(drive)"), nullptr);
  EXPECT_NE(s.find_variable("LEAF.R.in.bitWidth"), nullptr);
}

TEST(NameResolutionTest, DottedClassNamesParseFromTheRight) {
  DesignSession s("t");
  load(s, R"(cell ALU
  signal a input
  signal out output
  param width 1 64 default 8
  delay a out
end
cell ALU.RIPPLE super ALU
  signal a input width 16
end
cell ADD
  bbox 0 0 4 4
end
cell ADD.X super ADD
  bbox 0 0 4 4
  signal y output
end
)");
  env::CellClass& ripple = s.library().cell("ALU.RIPPLE");
  EXPECT_EQ(s.find_variable("ALU.RIPPLE.a.bitWidth"),
            &ripple.find_signal("a")->bit_width());
  EXPECT_EQ(s.find_variable("ALU.a.bitWidth"),
            &s.library().cell("ALU").find_signal("a")->bit_width());
  EXPECT_EQ(s.find_variable("ALU.RIPPLE.boundingBox"), &ripple.bounding_box());
  EXPECT_EQ(s.find_variable("ADD.X.y.dataType"),
            &s.library().cell("ADD.X").find_signal("y")->data_type());
  EXPECT_EQ(s.find_variable("ADD.X.boundingBox"),
            &s.library().cell("ADD.X").bounding_box());
  expect_walk_matches_scan(s);
}

TEST(NameResolutionTest, InheritedSignalsDelaysAndParametersDoNotResolve) {
  DesignSession s("t");
  load(s, R"(cell BASE
  signal in input
  signal out output
  param width 1 64 default 8
  delay in out value 1e-9
end
cell SUB super BASE
end
)");
  // Each prints its owner's name, so only BASE's paths name them.
  for (const char* path :
       {"SUB.in.bitWidth", "SUB.out.dataType", "SUB.delay(in->out)",
        "SUB.param(width)"}) {
    EXPECT_EQ(s.find_variable(path), nullptr) << path;
    EXPECT_EQ(scan(s, path), nullptr) << path;
  }
  EXPECT_NE(s.find_variable("BASE.in.bitWidth"), nullptr);
  EXPECT_NE(s.find_variable("BASE.delay(in->out)"), nullptr);
  EXPECT_NE(s.find_variable("BASE.param(width)"), nullptr);
  EXPECT_NE(s.find_variable("SUB.boundingBox"), nullptr);
}

TEST(NameResolutionTest, NetsDoNotResolveAndASignalSharingTheirNameDoes) {
  DesignSession s("t");
  load(s, R"(cell LEAF
  signal n input
  signal out output
end
cell TOP
  signal n input width 4
  subcell u LEAF R0 0 0
  net n
    io n
    conn u n
end
)");
  env::CellClass& top = s.library().cell("TOP");
  EXPECT_EQ(s.find_variable("TOP.n.bitWidth"),
            &top.find_signal("n")->bit_width());
  // A net's variables print `<cell>:<net>`; the scan never yields them.
  EXPECT_EQ(top.find_net("n")->bit_width().path(), "TOP:n.bitWidth");
  EXPECT_EQ(s.find_variable("TOP:n.bitWidth"), nullptr);
  expect_walk_matches_scan(s);
}

TEST(NameResolutionTest, TwoVariablesPrintingOnePathResolveToTheFirst) {
  DesignSession s("t");
  // `A` with signal `b.c` and `A.b` with signal `c` both print
  // `A.b.c.bitWidth`; `P` holds two subcells named `i`.
  load(s, R"(cell A.b
  signal c input
end
cell A
  signal b.c input
end
cell X
  signal in input
end
cell Y
  signal in input
  param w 1 8
end
cell P
  subcell i X R0 0 0
  subcell i Y R0 10 0
end
)");
  EXPECT_EQ(s.find_variable("A.b.c.bitWidth"),
            &s.library().cell("A.b").find_signal("c")->bit_width());
  env::CellClass& p = s.library().cell("P");
  EXPECT_EQ(s.find_variable("P/i.boundingBox"),
            &p.subcells()[0]->bounding_box());
  // Only the second `i` has the parameter: the scan found it, and so must
  // the walk.
  env::InstanceParamVar& w = p.subcells()[1]->parameter("w");
  EXPECT_EQ(s.find_variable("P/i.param(w)"), &w);
  // Both have a bit width for `in`: the first subcell's wins.
  env::InstanceBitWidthVar& second = p.subcells()[1]->bit_width("in");
  env::InstanceBitWidthVar& first = p.subcells()[0]->bit_width("in");
  EXPECT_NE(&first, &second);
  EXPECT_EQ(s.find_variable("P/i.bitWidth(in)"), &first);
  expect_walk_matches_scan(s);
}

TEST(NameResolutionTest, InstanceVariablesNotYetCreatedResolveToNothing) {
  DesignSession s("t");
  load(s, R"(cell STAGE
  signal in input width 8
  signal out output
  param drive 1 4 default 2
  delay in out value 6e-8
end
cell PIPE
  subcell s0 STAGE R0 0 0
end
)");
  env::CellInstance& s0 = *s.library().cell("PIPE").find_subcell("s0");
  const std::size_t vars = variable_count(s);
  const std::uint64_t assignments = s.library().context().stats().assignments;
  for (const char* path : {"PIPE/s0.bitWidth(in)", "PIPE/s0.param(drive)",
                           "PIPE/s0.delay(in->out)"}) {
    EXPECT_EQ(s.find_variable(path), nullptr) << path;
  }
  EXPECT_EQ(variable_count(s), vars);
  EXPECT_EQ(s.library().context().stats().assignments, assignments);
  EXPECT_TRUE(s0.bit_width_variables().empty());
  EXPECT_TRUE(s0.parameter_variables().empty());
  EXPECT_TRUE(s0.delay_variables().empty());
  // Once created they resolve.
  EXPECT_EQ(s.find_variable("PIPE/s0.param(drive)"), &s0.parameter("drive"));
  EXPECT_EQ(s.find_variable("PIPE/s0.delay(in->out)"), &s0.delay("in", "out"));
}

TEST(NameResolutionTest, MalformedPathsResolveToNothing) {
  DesignSession s("t");
  load(s, workload::pipeline_design());
  create_instance_variables(s);
  for (const char* path :
       {"", ".", "..", "A", "A/", "A/s0.", "/x.boundingBox", "PIPE.",
        "PIPE/", "PIPE/s0", "PIPE/s0.", "/s0.boundingBox", "PIPE//s0.boundingBox",
        "A.delay(in->out", "PIPE.delay(in->out", "PIPE.delay(in-out)",
        "PIPE.delay()", "PIPE.delay(->)", "PIPE.param()", "PIPE.param(",
        ".param(x)", "PIPE/s0.bitWidth()", "PIPE/s0.bitWidth(", ")", ".)",
        "PIPE.in.", "PIPE..bitWidth", ".in.bitWidth", "PIPE.in.width"}) {
    EXPECT_EQ(s.find_variable(path), nullptr) << '"' << path << '"';
    EXPECT_EQ(scan(s, path), nullptr) << '"' << path << '"';
  }
}

TEST(NameResolutionTest, EditedStructureResolves) {
  DesignSession s("t");
  load(s, workload::pipeline_design());
  env::Library& lib = s.library();
  for (const char* edit :
       {"subcell PIPE s2 STAGE 80 0", "signal PIPE extra input",
        "signal STAGE aux output", "delay STAGE in aux",
        "param STAGE drive 1 8 default 3"}) {
    ASSERT_TRUE(env::LibraryReader::edit(lib, edit)) << edit;
  }
  env::CellInstance& s2 = *lib.cell("PIPE").find_subcell("s2");
  EXPECT_EQ(s.find_variable("PIPE/s2.boundingBox"), &s2.bounding_box());
  EXPECT_EQ(s.find_variable("PIPE.extra.bitWidth"),
            &lib.cell("PIPE").find_signal("extra")->bit_width());
  EXPECT_EQ(s.find_variable("STAGE.delay(in->aux)"),
            lib.cell("STAGE").find_delay("in", "aux"));
  EXPECT_EQ(s.find_variable("STAGE.param(drive)"),
            lib.cell("STAGE").find_parameter("drive"));
  EXPECT_EQ(s.find_variable("PIPE/s2.param(drive)"), nullptr)
      << "not created yet";
  EXPECT_EQ(s.find_variable("PIPE/s2.delay(in->aux)"), &s2.delay("in", "aux"));
  expect_walk_matches_scan(s);
}

TEST(NameResolutionTest, RolledBackCellsNoLongerResolve) {
  DesignSession s("t");
  load(s, workload::pipeline_design());
  const std::size_t cells = s.library().cells().size();
  EXPECT_THROW(load(s, R"(cell NEW.ONE
  signal in input
  signal out output
  delay in out
end
cell NEW.TWO
  subcell n NEW.ONE R0 0 0
  subcell m NOSUCHCLASS R0 0 0
end
)"),
               std::exception);
  ASSERT_EQ(s.library().cells().size(), cells);
  EXPECT_EQ(s.library().find("NEW.ONE"), nullptr);
  EXPECT_EQ(s.library().find("NEW.TWO"), nullptr);
  for (const char* path : {"NEW.ONE.boundingBox", "NEW.ONE.in.bitWidth",
                           "NEW.ONE.delay(in->out)", "NEW.TWO/n.boundingBox"}) {
    EXPECT_EQ(s.find_variable(path), nullptr) << path;
  }
  // The names are free again.
  load(s, "cell NEW.ONE\n  signal in input\nend\n");
  EXPECT_EQ(s.find_variable("NEW.ONE.in.bitWidth"),
            &s.library().cell("NEW.ONE").find_signal("in")->bit_width());
  expect_walk_matches_scan(s);
}

}  // namespace
}  // namespace stemcp::service
