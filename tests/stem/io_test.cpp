// Library persistence round trips (design database file-out / file-in).
#include <gtest/gtest.h>

#include "stem/io.h"
#include "stem/stem.h"

namespace stemcp::env {
namespace {

using core::Rect;
using core::Transform;
using core::Value;

constexpr double kNs = 1e-9;

/// Build the accumulator design used throughout the suite.
void build_accumulator(Library& lib) {
  auto& reg = lib.define_cell("REGISTER");
  reg.declare_signal("in", SignalDirection::kInput)
      .set_load_capacitance(1e-14);
  reg.declare_signal("out", SignalDirection::kOutput)
      .set_output_resistance(500.0);
  reg.declare_delay("in", "out");
  ASSERT_TRUE(reg.set_leaf_delay("in", "out", 60 * kNs));
  ASSERT_TRUE(reg.bounding_box().set_user(Value(Rect{0, 0, 20, 10})));

  auto& adder = lib.define_cell("ADDER");
  adder.declare_signal("a", SignalDirection::kInput);
  adder.declare_signal("out", SignalDirection::kOutput);
  auto& ad = adder.declare_delay("a", "out");
  core::BoundConstraint::upper(lib.context(), ad, Value(120 * kNs));

  auto& acc = lib.define_cell("ACCUMULATOR");
  acc.declare_signal("in", SignalDirection::kInput);
  acc.declare_signal("out", SignalDirection::kOutput);
  auto& acc_d = acc.declare_delay("in", "out");
  core::BoundConstraint::upper(lib.context(), acc_d, Value(160 * kNs));
  auto& r = acc.add_subcell(reg, "reg");
  auto& a = acc.add_subcell(adder, "add", Transform::translate({20, 0}));
  auto& n_in = acc.add_net("n_in");
  ASSERT_TRUE(n_in.connect_io("in"));
  ASSERT_TRUE(n_in.connect(r, "in"));
  auto& mid = acc.add_net("n_mid");
  ASSERT_TRUE(mid.connect(r, "out"));
  ASSERT_TRUE(mid.connect(a, "a"));
  auto& n_out = acc.add_net("n_out");
  ASSERT_TRUE(n_out.connect(a, "out"));
  ASSERT_TRUE(n_out.connect_io("out"));
  acc.build_delay_networks();
}

TEST(IoTest, WriterEmitsReadableText) {
  Library lib;
  build_accumulator(lib);
  const std::string text = LibraryWriter::to_string(lib);
  EXPECT_NE(text.find("cell REGISTER"), std::string::npos);
  EXPECT_NE(text.find("delay in out value"), std::string::npos);
  EXPECT_NE(text.find("spec <="), std::string::npos);
  EXPECT_NE(text.find("subcell reg REGISTER R0 0 0"), std::string::npos);
  EXPECT_NE(text.find("io in"), std::string::npos);
}

TEST(IoTest, RoundTripPreservesStructureAndBehaviour) {
  Library original;
  build_accumulator(original);
  const std::string text = LibraryWriter::to_string(original);

  Library loaded;
  LibraryReader::read_string(loaded, text);

  // Structure.
  CellClass& acc = loaded.cell("ACCUMULATOR");
  EXPECT_EQ(acc.subcells().size(), 2u);
  EXPECT_EQ(acc.nets().size(), 3u);
  EXPECT_EQ(loaded.cell("REGISTER").bounding_box().value().as_rect(),
            (Rect{0, 0, 20, 10}));

  // Characteristics re-derived on load.
  ClassDelayVar* acc_d = acc.find_delay("in", "out");
  ASSERT_NE(acc_d, nullptr);
  EXPECT_TRUE(acc_d->value().is_nil()) << "adder uncharacterized";

  // Behaviour: the loaded constraint networks are live — the 110 ns adder
  // still violates the 160 ns budget exactly as in the original.
  CellClass& adder = loaded.cell("ADDER");
  EXPECT_TRUE(adder.set_leaf_delay("a", "out", 110 * kNs).is_violation());
  EXPECT_TRUE(adder.set_leaf_delay("a", "out", 90 * kNs));
  EXPECT_DOUBLE_EQ(acc_d->value().as_number(), 150 * kNs);
}

TEST(IoTest, RoundTripIsIdempotent) {
  Library original;
  build_accumulator(original);
  const std::string text1 = LibraryWriter::to_string(original);
  Library loaded;
  LibraryReader::read_string(loaded, text1);
  const std::string text2 = LibraryWriter::to_string(loaded);
  EXPECT_EQ(text1, text2) << "save(load(save(x))) == save(x)";
}

TEST(IoTest, InheritanceAndGenericFlagsSurvive) {
  Library lib;
  auto& g = lib.define_cell("ADD8");
  g.set_generic(true);
  g.declare_signal("in", SignalDirection::kInput);
  lib.define_cell("ADD8.RC", &g);
  const std::string text = LibraryWriter::to_string(lib);

  Library loaded;
  LibraryReader::read_string(loaded, text);
  EXPECT_TRUE(loaded.cell("ADD8").is_generic());
  EXPECT_EQ(loaded.cell("ADD8.RC").superclass(), &loaded.cell("ADD8"));
  EXPECT_NE(loaded.cell("ADD8.RC").find_signal("in"), nullptr)
      << "inherited interface resolves after load";
}

TEST(IoTest, SignalTypesAndPinsSurvive) {
  Library lib;
  auto& c = lib.define_cell("C");
  auto& s = c.declare_signal("q", SignalDirection::kOutput);
  s.add_pin({5, 0}, Side::kBottom);
  ASSERT_TRUE(s.bit_width().set_user(Value(8)));
  ASSERT_TRUE(s.data_type().set_user(type_value(lib.types().at("BCDSignal"))));
  ASSERT_TRUE(
      s.electrical_type().set_user(type_value(lib.types().at("CMOS"))));
  const std::string text = LibraryWriter::to_string(lib);

  Library loaded;
  LibraryReader::read_string(loaded, text);
  IoSignal& q = loaded.cell("C").signal("q");
  EXPECT_EQ(q.bit_width().value().as_int(), 8);
  EXPECT_EQ(type_of(q.data_type().value())->name(), "BCDSignal");
  EXPECT_EQ(type_of(q.electrical_type().value())->name(), "CMOS");
  ASSERT_EQ(q.pins().size(), 1u);
  EXPECT_EQ(q.pins()[0].position, (core::Point{5, 0}));
  EXPECT_EQ(q.pins()[0].side, Side::kBottom);
}

TEST(IoTest, ParametersSurvive) {
  Library lib;
  auto& c = lib.define_cell("C");
  c.declare_parameter("width", 1, 64, Value(8));
  c.declare_parameter("drive", 0.5, 4.0, Value());
  const std::string text = LibraryWriter::to_string(lib);
  EXPECT_NE(text.find("param drive 0.5 4"), std::string::npos);
  EXPECT_NE(text.find("param width 1 64 default 8"), std::string::npos);

  Library loaded;
  LibraryReader::read_string(loaded, text);
  ClassParamVar* w = loaded.cell("C").find_parameter("width");
  ASSERT_NE(w, nullptr);
  EXPECT_DOUBLE_EQ(w->lo(), 1.0);
  EXPECT_DOUBLE_EQ(w->hi(), 64.0);
  EXPECT_DOUBLE_EQ(w->value().as_number(), 8.0);
  ClassParamVar* d = loaded.cell("C").find_parameter("drive");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->value().is_nil());
  // The reloaded range is live: instances out of range still violate.
  auto& top = loaded.define_cell("TOP");
  auto& inst = top.add_subcell(loaded.cell("C"), "i");
  EXPECT_TRUE(inst.parameter("width").set_user(Value(99)).is_violation());
}

TEST(IoTest, DeviceCellsSurvive) {
  Library lib;
  auto& r = lib.define_cell("R1K");
  r.declare_signal("a", SignalDirection::kInOut);
  r.declare_signal("b", SignalDirection::kInOut);
  r.device().kind = DeviceInfo::Kind::kResistor;
  r.device().value = 1000.0;
  const std::string text = LibraryWriter::to_string(lib);
  Library loaded;
  LibraryReader::read_string(loaded, text);
  EXPECT_TRUE(loaded.cell("R1K").is_device());
  EXPECT_EQ(loaded.cell("R1K").device().kind, DeviceInfo::Kind::kResistor);
  EXPECT_DOUBLE_EQ(loaded.cell("R1K").device().value, 1000.0);
}

TEST(IoTest, ParseErrorsCarryLineNumbers) {
  Library lib;
  EXPECT_THROW(LibraryReader::read_string(lib, "cell A\nbogus keyword\nend\n"),
               std::runtime_error);
  Library lib2;
  try {
    LibraryReader::read_string(lib2, "cell A\n  subcell x NOPE R0 0 0\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(IoTest, ParseErrorsIncludeTheOffendingLineText) {
  Library lib;
  try {
    LibraryReader::read_string(lib, "cell A\nbogus keyword here\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("in \"bogus keyword here\""), std::string::npos)
        << what;
  }
}

TEST(IoTest, ParseErrorLeavesLibraryUntouched) {
  // Reading into an empty library is transactional: a parse error on line
  // 2000 of a big file must not leave half a design behind.
  Library lib("target");
  lib.types().define("customSignal", lib.types().find("DataType"));
  try {
    LibraryReader::read_string(lib,
                               "cell GOOD\n  signal p input\nend\n"
                               "cell BAD\n  frobnicate\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(lib.cells().empty()) << "failed load must not leave cells";
  EXPECT_EQ(lib.find("GOOD"), nullptr);
  EXPECT_EQ(lib.name(), "target");
  // The caller's registered signal types survive the rollback.
  EXPECT_NE(lib.types().find("customSignal"), nullptr);
  // And the library is still fully usable afterwards.
  LibraryReader::read_string(lib, "cell GOOD\n  signal p input\nend\n");
  EXPECT_NE(lib.find("GOOD"), nullptr);
}

TEST(IoTest, SuccessfulLoadIntoEmptyLibraryKeepsEngineWiring) {
  // The transactional swap moves cells built against a scratch context into
  // the target; constraints must keep firing afterwards.
  Library src;
  build_accumulator(src);
  const std::string text = LibraryWriter::to_string(src);

  Library lib;
  LibraryReader::read_string(lib, text);
  auto& adder = lib.cell("ADDER");
  auto* d = adder.find_delay("a", "out");
  ASSERT_NE(d, nullptr);
  // The 120 ns upper bound survived the move: propagation still rejects.
  EXPECT_TRUE(d->set_user(Value(200 * kNs)).is_violation());
  EXPECT_TRUE(d->set_user(Value(100 * kNs)));
}

TEST(IoTest, ReadIntoNonEmptyLibraryStillAppends) {
  Library lib;
  LibraryReader::read_string(lib, "cell FIRST\n  signal p input\nend\n");
  LibraryReader::read_string(lib, "cell SECOND\n  signal q output\nend\n");
  EXPECT_NE(lib.find("FIRST"), nullptr);
  EXPECT_NE(lib.find("SECOND"), nullptr);
  // A failed append keeps what was already there.
  EXPECT_THROW(LibraryReader::read_string(lib, "cell X\n  junk\nend\n"),
               std::runtime_error);
  EXPECT_NE(lib.find("FIRST"), nullptr);
  EXPECT_NE(lib.find("SECOND"), nullptr);
}

TEST(IoTest, FailedAppendRollsBackCompletely) {
  // Appending into a populated library is transactional too (strong
  // guarantee by rollback): the failing text below instantiates an EXISTING
  // class and attaches a spec constraint before hitting the bad line, so the
  // rollback must unwind the instance registration, the new constraints and
  // every value they propagated — the save image must come back bit-equal.
  Library lib;
  build_accumulator(lib);
  const std::string before = LibraryWriter::to_string(lib);
  const std::size_t cells_before = lib.cells().size();
  const std::size_t constraints_before = lib.context().constraint_count();
  EXPECT_THROW(LibraryReader::read_string(lib,
                                          "cell WRAP\n"
                                          "  signal in input\n"
                                          "  signal out output\n"
                                          "  delay in out\n"
                                          "    spec <= 1e-6\n"
                                          "  subcell inner ACCUMULATOR R0 0 0\n"
                                          "  junk\n"
                                          "end\n"),
               std::runtime_error);
  EXPECT_EQ(lib.find("WRAP"), nullptr);
  EXPECT_EQ(lib.cells().size(), cells_before);
  EXPECT_EQ(lib.context().constraint_count(), constraints_before);
  EXPECT_EQ(LibraryWriter::to_string(lib), before);
  // And the library is still fully usable: the fixed text appends cleanly.
  LibraryReader::read_string(
      lib, "cell WRAP\n  subcell inner ACCUMULATOR R0 0 0\nend\n");
  EXPECT_NE(lib.find("WRAP"), nullptr);
}

TEST(IoTest, FailedAppendUnwindsAcrossMultipleNewCells) {
  Library lib;
  LibraryReader::read_string(lib, "cell BASE\n  signal p input\nend\n");
  const std::string before = LibraryWriter::to_string(lib);
  // Two good cells (the second subclassing BASE) parse before the third
  // fails; all three must vanish, newest-first.
  EXPECT_THROW(
      LibraryReader::read_string(lib,
                                 "cell ONE\n  signal a input\nend\n"
                                 "cell TWO super BASE\n  param w 1 8\nend\n"
                                 "cell THREE\n  delay a\nend\n"),
      std::runtime_error);
  EXPECT_EQ(lib.find("ONE"), nullptr);
  EXPECT_EQ(lib.find("TWO"), nullptr);
  EXPECT_EQ(lib.find("THREE"), nullptr);
  EXPECT_EQ(LibraryWriter::to_string(lib), before);
}

TEST(IoTest, LoadedWidthViolationIsCaughtDuringParse) {
  // The loaded text wires an 8-bit signal to a 4-bit-constrained one; the
  // constraint networks re-instantiate during load, so the inconsistency is
  // reported immediately via the violation log.
  Library lib;
  const char* text = R"(
cell A
  signal p input width 8
end
cell B
  signal q output width 4
end
cell TOP
  subcell ia A R0 0 0
  subcell ib B R0 0 0
  net n
    conn ia p
    conn ib q
end
)";
  LibraryReader::read_string(lib, text);
  EXPECT_FALSE(lib.context().violation_log().empty())
      << "loading re-checks the design";
}

/// Read `text` into a fresh library and expect an error at `line` whose
/// message is `message`.
void expect_line_error(const std::string& text, int line,
                       const std::string& message) {
  Library lib;
  try {
    LibraryReader::read_string(lib, text);
    ADD_FAILURE() << "expected an error from:\n" << text;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("library parse error, line " + std::to_string(line) +
                        ": " + message + " in \""),
              0u)
        << what;
  }
  EXPECT_TRUE(lib.cells().empty());
}

// Errors the design database throws inside a statement carry the line too.
TEST(IoTest, DuplicateCellErrorNamesItsLine) {
  expect_line_error("cell X\nend\ncell X\nend\n", 3,
                    "cell already defined: X");
}

TEST(IoTest, DuplicateSignalErrorNamesItsLine) {
  expect_line_error("cell A\n  signal p input\n  signal p output\nend\n", 3,
                    "signal 'p' already declared on A");
}

TEST(IoTest, UndeclaredDelayEndpointErrorNamesItsLine) {
  expect_line_error("cell C\n  signal a input\n  delay a b\nend\n", 3,
                    "delay endpoints must be declared signals of C");
}

TEST(IoTest, ConnectToUnknownSignalErrorNamesItsLine) {
  expect_line_error(
      "cell L\n  signal a input\nend\n"
      "cell T\n  subcell u L R0 0 0\n  net n\n    conn u nope\nend\n",
      7, "net T:n: no signal 'nope' on class L");
}

TEST(IoTest, ConnectToUnknownIoSignalErrorNamesItsLine) {
  expect_line_error("cell T\n  net n\n    io nope\nend\n", 3,
                    "net T:n: no io-signal 'nope' on T");
}

TEST(IoTest, PinOnTwoNetsErrorNamesItsLineAndRollsBack) {
  expect_line_error(
      "cell L\n  signal a input\nend\n"
      "cell T\n  subcell u L R0 0 0\n  net n1\n    conn u a\n"
      "  net n2\n    conn u a\nend\n",
      9, "net T:n2: pin u a is already on net T:n1");
  expect_line_error(
      "cell T\n  signal in input\n  net n1\n    io in\n  net n2\n    io in\n"
      "end\n",
      6, "net T:n2: io in is already on net T:n1");
  // Appended to a populated library, the refused text leaves it as it was.
  Library lib;
  build_accumulator(lib);
  const std::string before = LibraryWriter::to_string(lib);
  const std::size_t constraints_before = lib.context().constraint_count();
  EXPECT_THROW(LibraryReader::read_string(lib,
                                          "cell W\n"
                                          "  subcell r REGISTER R0 0 0\n"
                                          "  net a\n"
                                          "    conn r in\n"
                                          "  net b\n"
                                          "    conn r in\n"
                                          "end\n"),
               std::runtime_error);
  EXPECT_EQ(lib.find("W"), nullptr);
  EXPECT_EQ(lib.context().constraint_count(), constraints_before);
  EXPECT_EQ(LibraryWriter::to_string(lib), before);
}

TEST(IoTest, DuplicateParameterErrorNamesItsLine) {
  expect_line_error("cell A\n  param w 1 8\n  param w 1 8\nend\n", 3,
                    "parameter 'w' already declared on A");
}

// Instantiation stays acyclic: the library destroys a class only after
// every instance of it, which a cell containing itself makes impossible.
TEST(IoTest, SelfInstantiationIsRefused) {
  expect_line_error("cell A\n  subcell x A R0 0 0\nend\n", 2,
                    "cyclic instantiation: A contains A");
}

// The reader accepts exactly the words the writer writes.
TEST(IoTest, UnknownWordsAreRefused) {
  expect_line_error("cell A\n  signal a sideways\nend\n", 2,
                    "unknown direction 'sideways'");
  expect_line_error("cell A\n  signal a input\n    pin 0 0 nowhere\nend\n", 3,
                    "unknown side 'nowhere'");
  expect_line_error("cell A\n  device foo 1 2\nend\n", 2,
                    "unknown device kind 'foo'");
  expect_line_error("cell L\nend\ncell T\n  subcell u L R45 0 0\nend\n", 4,
                    "unknown orientation 'R45'");
  expect_line_error("cell A\n  signal a input width 8 junk\nend\n", 2,
                    "unknown signal attribute 'junk'");
  expect_line_error("cell A\n  net n extra\nend\n", 2, "unexpected 'extra'");
}

TEST(IoTest, EveryWordTheWriterWritesReadsBack) {
  Library lib;
  const DeviceInfo::Kind kinds[] = {
      DeviceInfo::Kind::kNmos, DeviceInfo::Kind::kPmos,
      DeviceInfo::Kind::kResistor, DeviceInfo::Kind::kCapacitor,
      DeviceInfo::Kind::kVoltageSource};
  for (const DeviceInfo::Kind k : kinds) {
    auto& d = lib.define_cell("D" + std::to_string(static_cast<int>(k)));
    d.device() = DeviceInfo{k, 2.0, 3.0};
  }
  auto& leaf = lib.define_cell("LEAF");
  const SignalDirection dirs[] = {SignalDirection::kInput,
                                  SignalDirection::kOutput,
                                  SignalDirection::kInOut};
  const Side sides[] = {Side::kLeft, Side::kBottom, Side::kRight, Side::kTop};
  for (const SignalDirection d : dirs) {
    auto& sig = leaf.declare_signal(to_string(d), d);
    for (const Side side : sides) sig.add_pin({1, 2}, side);
  }
  auto& top = lib.define_cell("TOP");
  for (int o = 0; o < 8; ++o) {
    top.add_subcell(leaf, "u" + std::to_string(o),
                    Transform{static_cast<core::Orientation>(o), {o, 0}});
  }
  const std::string text = LibraryWriter::to_string(lib);
  Library loaded;
  LibraryReader::read_string(loaded, text);
  EXPECT_EQ(LibraryWriter::to_string(loaded), text);
}

// A failed read that made a net: the net's constraints die with its cell,
// exactly once, so the rollback must destroy the read's cells before the
// constraints it made.
TEST(IoTest, FailedAppendWithANetRollsBackCompletely) {
  Library lib;
  build_accumulator(lib);
  const std::string before = LibraryWriter::to_string(lib);
  const std::size_t constraints_before = lib.context().constraint_count();
  EXPECT_THROW(LibraryReader::read_string(lib,
                                          "cell W\n"
                                          "  signal in input\n"
                                          "  subcell r REGISTER R0 0 0\n"
                                          "  net n\n"
                                          "    io in\n"
                                          "    conn r in\n"
                                          "  junk\n"
                                          "end\n"),
               std::runtime_error);
  EXPECT_EQ(lib.find("W"), nullptr);
  EXPECT_EQ(lib.context().constraint_count(), constraints_before);
  EXPECT_EQ(LibraryWriter::to_string(lib), before);
}

TEST(IoTest, EditRunsItsStatementInTheNamedCell) {
  Library lib;
  build_accumulator(lib);
  // ADDER's a->out delay carries a 120 ns spec.
  EXPECT_TRUE(
      LibraryReader::edit(lib, "leaf-delay ADDER a out 200e-9").is_violation());
  EXPECT_TRUE(LibraryReader::edit(lib, "leaf-delay ADDER a out 90e-9"));
  EXPECT_DOUBLE_EQ(lib.cell("ACCUMULATOR").find_delay("in", "out")->value()
                       .as_number(),
                   150 * kNs);
  ASSERT_TRUE(LibraryReader::edit(lib, "cell BUF"));
  ASSERT_TRUE(LibraryReader::edit(lib, "signal BUF a input width 4"));
  ASSERT_TRUE(LibraryReader::edit(lib, "signal BUF b output"));
  ASSERT_TRUE(LibraryReader::edit(lib, "spec BUF a b <= 1e-9"));
  ASSERT_TRUE(LibraryReader::edit(lib, "subcell BUF r REGISTER 5 6"));
  ASSERT_TRUE(LibraryReader::edit(lib, "net BUF n"));
  ASSERT_TRUE(LibraryReader::edit(lib, "io BUF n a"));
  ASSERT_TRUE(LibraryReader::edit(lib, "conn BUF n r in"));
  const std::string text = LibraryWriter::to_string(lib);
  EXPECT_NE(text.find("cell BUF\n"
                      "  signal a input width 4\n"
                      "  signal b output\n"
                      "  delay a b\n"
                      "    spec <= 1.0000000000000001e-09\n"
                      "  subcell r REGISTER R0 5 6\n"
                      "  net n\n"
                      "    io a\n"
                      "    conn r in\n"
                      "end\n"),
            std::string::npos)
      << text;
}

// '#' starts a comment in an edit command as on a library line, so every
// name an edit creates saves and loads back.
TEST(IoTest, EditCommentIsIgnoredLikeALibraryComment) {
  Library lib;
  ASSERT_TRUE(LibraryReader::edit(lib, "cell X#1"));
  EXPECT_NE(lib.find("X"), nullptr);
  const std::string text = LibraryWriter::to_string(lib);
  Library loaded;
  LibraryReader::read_string(loaded, text);
  EXPECT_EQ(LibraryWriter::to_string(loaded), text);
}

// A refused edit changes nothing, and its error quotes the command.  A spec
// edit declares its delay only once the spec's words check out.
TEST(IoTest, RefusedEditChangesNothingAndQuotesTheCommand) {
  Library lib;
  build_accumulator(lib);
  const std::string before = LibraryWriter::to_string(lib);
  const char* refused[] = {
      "spec ADDER a out <> 1e-9",   "spec REGISTER out in <= one",
      "signal ADDER a input",       "subcell ACCUMULATOR x NOPE",
      "subcell ACCUMULATOR x REGISTER 1", "conn ACCUMULATOR n_in reg nope",
      "leaf-delay ADDER a out",     "net ACCUMULATOR",
      "delay ADDER a out value x",  "build-delays ACCUMULATOR now",
      "bbox REGISTER 0 0 1 1",      "",
      // Cyclic instantiation, directly and through a subcell.
      "subcell ACCUMULATOR x ACCUMULATOR", "subcell REGISTER x ACCUMULATOR",
  };
  for (const char* command : refused) {
    try {
      LibraryReader::edit(lib, command);
      ADD_FAILURE() << "accepted: " << command;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("library edit error: "), 0u) << what;
      EXPECT_NE(what.find(std::string(" in \"") + command + "\""),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(LibraryWriter::to_string(lib), before) << command;
  }
  EXPECT_EQ(lib.cell("REGISTER").find_delay("out", "in"), nullptr);
}

}  // namespace
}  // namespace stemcp::env
