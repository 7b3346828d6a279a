#include "stem/io.h"

#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "stem/cell.h"
#include "stem/net.h"
#include "stem/word_cursor.h"

namespace stemcp::env {

namespace {

using core::Status;

/// The edit commands (docs/FORMAT.md "Edit commands").
const std::string kEditCommands =
    "cell signal param delay leaf-delay spec subcell net conn io build-delays";

const char* device_kind_name(DeviceInfo::Kind k) {
  switch (k) {
    case DeviceInfo::Kind::kNone: return "none";
    case DeviceInfo::Kind::kNmos: return "nmos";
    case DeviceInfo::Kind::kPmos: return "pmos";
    case DeviceInfo::Kind::kResistor: return "resistor";
    case DeviceInfo::Kind::kCapacitor: return "capacitor";
    case DeviceInfo::Kind::kVoltageSource: return "vsource";
  }
  return "none";
}

/// Library text appended to one string: words as they are, integers in
/// decimal, and reals as %.17g, which reads back as the same double.
class TextOut {
 public:
  explicit TextOut(std::string& out) : out_(out) {}

  TextOut& operator<<(std::string_view word) {
    out_ += word;
    return *this;
  }
  TextOut& operator<<(char c) {
    out_ += c;
    return *this;
  }
  TextOut& operator<<(std::int64_t v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  TextOut& operator<<(double v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, 17)
                         .ptr);
    return *this;
  }

 private:
  std::string& out_;
};

/// Bound specifications attached to a variable, serialized one per line.
void write_specs(const core::Variable& v, std::string_view prefix,
                 TextOut& out) {
  for (const core::Propagatable* p : v.constraints()) {
    const auto* bound = dynamic_cast<const core::BoundConstraint*>(p);
    if (bound == nullptr || !bound->bound().is_number()) continue;
    out << prefix << " " << core::to_string(bound->relation()) << ' '
        << bound->bound().as_number() << '\n';
  }
}

void write_cell(const CellClass& cell, TextOut& out) {
  out << "cell " << cell.name();
  if (cell.superclass() != nullptr) out << " super " << cell.superclass()->name();
  if (cell.is_generic()) out << " generic";
  out << '\n';

  if (cell.is_device()) {
    const DeviceInfo& d = cell.device();
    out << "  device " << device_kind_name(d.kind) << ' '
        << d.value << ' ' << d.ron << '\n';
  }

  const core::Value& bb = cell.bounding_box().value();
  if (bb.is_rect() && cell.bounding_box().last_set_by().is_user()) {
    const core::Rect& r = bb.as_rect();
    out << "  bbox " << r.x0 << ' ' << r.y0 << ' ' << r.x1 << ' ' << r.y1
        << '\n';
  }

  for (const auto& sig : cell.signals()) {
    out << "  signal " << sig->name() << ' ' << to_string(sig->direction());
    if (sig->bit_width().value().is_int() &&
        sig->bit_width().last_set_by().is_user()) {
      out << " width " << sig->bit_width().value().as_int();
    }
    if (const SignalType* t = type_of(sig->data_type().value())) {
      out << " data " << t->name();
    }
    if (const SignalType* t = type_of(sig->electrical_type().value())) {
      out << " elec " << t->name();
    }
    if (sig->load_capacitance() != 0.0) {
      out << " load " << sig->load_capacitance();
    }
    if (sig->output_resistance() != 0.0) {
      out << " rout " << sig->output_resistance();
    }
    out << '\n';
    for (const IoPin& pin : sig->pins()) {
      out << "    pin " << pin.position.x << ' ' << pin.position.y << ' '
          << to_string(pin.side) << '\n';
    }
  }

  for (const auto& [pname, pvar] : cell.parameters()) {
    out << "  param " << pname;
    if (pvar->has_range()) {
      out << ' ' << pvar->lo() << ' ' << pvar->hi();
    } else {
      out << " 0 0";
    }
    if (pvar->has_value() && pvar->value().is_number()) {
      out << " default " << pvar->value().as_number();
    }
    out << '\n';
  }

  for (ClassDelayVar* d : cell.delay_variables()) {
    if (&d->owner() != &cell) continue;  // inherited: written with its owner
    out << "  delay " << d->from() << ' ' << d->to();
    if (d->value().is_number() && !d->last_set_by().is_propagated()) {
      out << " value " << d->value().as_number();
    }
    out << '\n';
    write_specs(*d, "    spec", out);
  }

  for (const auto& sub : cell.subcells()) {
    out << "  subcell " << sub->name() << ' ' << sub->cls().name() << ' '
        << core::to_string(sub->transform().orientation()) << ' '
        << sub->transform().translation().x << ' '
        << sub->transform().translation().y << '\n';
  }

  for (const auto& net : cell.nets()) {
    out << "  net " << net->name() << '\n';
    for (const NetConnection& c : net->connections()) {
      if (c.instance != nullptr) {
        out << "    conn " << c.instance->name() << ' ' << c.signal << '\n';
      } else {
        out << "    io " << c.signal << '\n';
      }
    }
  }

  out << "end\n";
}

/// `text` with each control byte but tab written as \xNN, so an error
/// message stays one printable line whatever the input held.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if ((u < 0x20 && c != '\t') || u == 0x7f) {
      static const char kHex[] = "0123456789abcdef";
      out += {'\\', 'x', kHex[u >> 4], kHex[u & 15]};
    } else {
      out += c;
    }
  }
  return out;
}

/// Thrown by Parser::fail.  Any other exception a statement raises (the
/// design database refusing it) is rethrown as one, so every error names its
/// line, or quotes its edit command.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Runs library statements in place on `lib`: every line of a file, or the
/// one statement an edit command names.  Each handler reads and checks all
/// its words before it changes the design, and returns the propagation
/// status of the change it made.
struct Parser {
  explicit Parser(Library& l) : lib(l) {}

  Library& lib;
  int line_no = 0;        ///< 0 while applying an edit command
  std::string_view text;  ///< the line or edit command being applied
  CellClass* cell = nullptr;
  IoSignal* signal = nullptr;
  ClassDelayVar* delay = nullptr;
  std::pair<std::string, std::string> edit_delay;  ///< named by a `spec` edit
  Net* net = nullptr;
  struct Build {
    CellClass* cell;
    int line_no;
    std::string_view text;
  };
  std::vector<Build> deferred_builds;  ///< one per structured cell's `end`

  [[noreturn]] void fail(const std::string& msg) const {
    const std::string where =
        line_no > 0 ? "library parse error, line " + std::to_string(line_no)
                    : std::string("library edit error");
    throw ParseError(
        printable(where + ": " + msg + " in \"" + std::string(text) + "\""));
  }

  template <typename F>
  auto guarded(F&& body) -> decltype(body()) {
    try {
      return body();
    } catch (const ParseError&) {
      throw;
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  /// Every line of `input`, which must outlive the parser: each line is
  /// read in place, and its text is kept for error messages.
  void read(std::string_view input) {
    std::string keyword;
    while (!input.empty()) {
      const std::size_t newline = input.find('\n');
      text = input.substr(0, newline);
      input.remove_prefix(newline == input.npos ? input.size() : newline + 1);
      ++line_no;
      WordCursor ls(text.substr(0, text.find('#')));
      if (!(ls >> keyword)) continue;
      // A load restores a saved design, so a designer-entered box or delay
      // value the design rejects makes the file inconsistent.
      if (statement(keyword, ls).is_violation()) {
        if (keyword == "bbox") fail("bounding box violates existing constraints");
        if (keyword == "delay") fail("delay value violates existing constraints");
      }
    }
    // Rebuild delay networks for every structured cell so the loaded
    // design re-derives (and re-checks) its characteristics.
    for (const Build& b : deferred_builds) {
      line_no = b.line_no;
      text = b.text;
      guarded([&] { b.cell->build_delay_networks(); });
    }
  }

  /// One edit command: the library statement it names, run inside the
  /// named cell (docs/FORMAT.md "Edit commands").
  Status edit(const std::string& command) {
    text = command;
    // As on a library line, '#' starts a comment: a name the format cannot
    // save must not enter the design.
    WordCursor ls(text.substr(0, text.find('#')));
    std::string op;
    std::string cell_name;
    if (!(ls >> op)) fail("edit needs a command: " + kEditCommands);
    if ((' ' + kEditCommands + ' ').find(' ' + op + ' ') == std::string::npos) {
      fail("unknown edit command '" + op + "'");
    }
    if (op == "cell") return statement(op, ls);
    if (!(ls >> cell_name)) fail(op + " needs a cell name");
    cell = lib.find(cell_name);
    if (cell == nullptr) fail("unknown cell '" + cell_name + "'");
    if (op == "conn" || op == "io") {
      std::string net_name;
      if (!(ls >> net_name)) fail(op + " needs a net name");
      net = cell->find_net(net_name);
      if (net == nullptr) {
        fail("unknown net '" + net_name + "' on " + cell_name);
      }
    } else if (op == "spec") {
      if (!(ls >> edit_delay.first >> edit_delay.second)) {
        fail("spec needs a delay: <from> <to>");
      }
    }
    if (op != "leaf-delay" && op != "subcell" && op != "build-delays") {
      return statement(op, ls);
    }
    // The three commands whose words are not their statement's.
    std::vector<std::string> w;
    for (std::string word; ls >> word;) w.push_back(std::move(word));
    if (op == "leaf-delay" && w.size() == 3) {
      const std::string line = w[0] + ' ' + w[1] + " value " + w[2];
      WordCursor st(line);
      return statement("delay", st);
    }
    if (op == "subcell" && (w.size() == 2 || w.size() == 4)) {
      if (w.size() == 2) w.insert(w.end(), {"0", "0"});
      const std::string line = w[0] + ' ' + w[1] + " R0 " + w[2] + ' ' + w[3];
      WordCursor st(line);
      return statement("subcell", st);
    }
    if (op == "build-delays" && w.empty()) {
      guarded([&] { cell->build_delay_networks(); });
      return Status::ok();
    }
    fail(op == "leaf-delay" ? "leaf-delay <cell> <from> <to> <seconds>"
         : op == "subcell"  ? "subcell <parent> <name> <class> [<x> <y>]"
                            : "build-delays <cell>");
  }

  Status statement(const std::string& keyword, WordCursor& ls) {
    return guarded([&] { return dispatch(keyword, ls); });
  }

  Status dispatch(const std::string& keyword, WordCursor& ls) {
    if (keyword == "cell") return begin_cell(ls);
    if (cell == nullptr) fail("'" + keyword + "' outside a cell");
    if (keyword == "end") return end_cell(ls);
    if (keyword == "device") return parse_device(ls);
    if (keyword == "bbox") return parse_bbox(ls);
    if (keyword == "signal") return parse_signal(ls);
    if (keyword == "pin") return parse_pin(ls);
    if (keyword == "param") return parse_param(ls);
    if (keyword == "delay") return parse_delay(ls);
    if (keyword == "spec") return parse_spec(ls);
    if (keyword == "subcell") return parse_subcell(ls);
    if (keyword == "net") return parse_net(ls);
    if (keyword == "conn") return parse_conn(ls);
    if (keyword == "io") return parse_io(ls);
    fail("unknown keyword '" + keyword + "'");
  }

  void expect_end(WordCursor& ls) const {
    std::string extra;
    if (ls >> extra) fail("unexpected '" + extra + "'");
  }

  /// The value in [first, last] whose writer name is `word`: the reader
  /// accepts exactly the words the writer writes.
  template <typename E>
  E named(const std::string& word, E first, E last, const char* (*name)(E),
          const char* what) const {
    for (int i = static_cast<int>(first); i <= static_cast<int>(last); ++i) {
      if (word == name(static_cast<E>(i))) return static_cast<E>(i);
    }
    fail(std::string("unknown ") + what + " '" + word + "'");
  }

  Status begin_cell(WordCursor& ls) {
    if (cell != nullptr) fail("nested cell");
    std::string name;
    if (!(ls >> name)) fail("cell needs a name");
    CellClass* super = nullptr;
    bool generic = false;
    std::string word;
    while (ls >> word) {
      if (word == "super") {
        std::string super_name;
        if (!(ls >> super_name)) fail("super needs a name");
        super = lib.find(super_name);
        if (super == nullptr) fail("unknown superclass " + super_name);
      } else if (word == "generic") {
        generic = true;
      } else {
        fail("unknown cell attribute '" + word + "'");
      }
    }
    cell = &lib.define_cell(name, super);
    cell->set_generic(generic);
    return Status::ok();
  }

  Status end_cell(WordCursor& ls) {
    expect_end(ls);
    if (!cell->subcells().empty() && !cell->delay_variables().empty()) {
      deferred_builds.push_back({cell, line_no, text});
    }
    cell = nullptr;
    signal = nullptr;
    delay = nullptr;
    net = nullptr;
    return Status::ok();
  }

  Status parse_device(WordCursor& ls) {
    std::string kind;
    double value = 0.0;
    double ron = 0.0;
    if (!(ls >> kind >> value >> ron)) fail("device kind value ron");
    const DeviceInfo::Kind k =
        named(kind, DeviceInfo::Kind::kNmos, DeviceInfo::Kind::kVoltageSource,
              device_kind_name, "device kind");
    expect_end(ls);
    cell->device() = DeviceInfo{k, value, ron};
    return Status::ok();
  }

  Status parse_bbox(WordCursor& ls) {
    core::Rect r;
    if (!(ls >> r.x0 >> r.y0 >> r.x1 >> r.y1)) fail("bbox x0 y0 x1 y1");
    expect_end(ls);
    return cell->bounding_box().set_user(core::Value(r));
  }

  Status parse_signal(WordCursor& ls) {
    std::string name;
    std::string dir;
    if (!(ls >> name >> dir)) fail("signal name direction");
    const SignalDirection d = named(dir, SignalDirection::kInput,
                                    SignalDirection::kInOut, to_string,
                                    "direction");
    core::Value width;
    core::Value data;
    core::Value elec;
    double load = 0.0;
    double rout = 0.0;
    std::string attr;
    while (ls >> attr) {
      if (attr == "width") {
        std::int64_t w = 0;
        if (!(ls >> w)) fail("width needs an integer");
        width = core::Value(w);
      } else if (attr == "data" || attr == "elec") {
        std::string type_name;
        if (!(ls >> type_name)) fail(attr + " needs a type name");
        const SignalTypePtr t = lib.types().find(type_name);
        if (t == nullptr) fail("unknown signal type " + type_name);
        (attr == "data" ? data : elec) = type_value(t);
      } else if (attr == "load") {
        if (!(ls >> load)) fail("load needs a number");
      } else if (attr == "rout") {
        if (!(ls >> rout)) fail("rout needs a number");
      } else {
        fail("unknown signal attribute '" + attr + "'");
      }
    }
    signal = &cell->declare_signal(name, d);
    if (!width.is_nil()) signal->bit_width().set_user(width);
    if (!data.is_nil()) signal->data_type().set_user(data);
    if (!elec.is_nil()) signal->electrical_type().set_user(elec);
    signal->set_load_capacitance(load);
    signal->set_output_resistance(rout);
    return Status::ok();
  }

  Status parse_pin(WordCursor& ls) {
    if (signal == nullptr) fail("pin outside a signal");
    core::Point p;
    std::string side;
    if (!(ls >> p.x >> p.y >> side)) fail("pin x y side");
    const Side s = named(side, Side::kLeft, Side::kTop, to_string, "side");
    expect_end(ls);
    signal->add_pin(p, s);
    return Status::ok();
  }

  Status parse_param(WordCursor& ls) {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
    if (!(ls >> name >> lo >> hi)) fail("param name lo hi");
    core::Value def;
    std::string word;
    if (ls >> word) {
      if (word != "default") fail("expected 'default'");
      double v = 0.0;
      if (!(ls >> v)) fail("default needs a number");
      def = core::Value(v);
      expect_end(ls);
    }
    cell->declare_parameter(name, lo, hi, def);
    return Status::ok();
  }

  Status parse_delay(WordCursor& ls) {
    std::string from;
    std::string to;
    if (!(ls >> from >> to)) fail("delay from to");
    std::string word;
    double v = 0.0;
    const bool valued = static_cast<bool>(ls >> word);
    if (valued) {
      if (word != "value") fail("expected 'value'");
      if (!(ls >> v)) fail("delay value needs a number");
      expect_end(ls);
    }
    delay = &cell->declare_delay(from, to);
    if (!valued) return Status::ok();
    return delay->set(core::Value(v), core::Justification::application());
  }

  Status parse_spec(WordCursor& ls) {
    std::string rel;
    double bound = 0.0;
    if (!(ls >> rel >> bound)) fail("spec relation bound");
    core::Relation relation;
    if (rel == "<=") {
      relation = core::Relation::kLessEqual;
    } else if (rel == ">=") {
      relation = core::Relation::kGreaterEqual;
    } else if (rel == "<") {
      relation = core::Relation::kLess;
    } else if (rel == ">") {
      relation = core::Relation::kGreater;
    } else {
      fail("unknown spec relation " + rel);
    }
    expect_end(ls);
    // A spec edit names its delay; it is declared only now that the
    // statement's words check out.
    if (delay == nullptr && !edit_delay.first.empty()) {
      delay = &cell->declare_delay(edit_delay.first, edit_delay.second);
    }
    if (delay == nullptr) fail("spec outside a delay");
    auto& c = lib.context().make<core::BoundConstraint>(relation,
                                                        core::Value(bound));
    return c.add_argument(*delay);
  }

  Status parse_subcell(WordCursor& ls) {
    std::string name;
    std::string cls_name;
    std::string orient;
    core::Point t;
    if (!(ls >> name >> cls_name >> orient >> t.x >> t.y)) {
      fail("subcell name class orientation x y");
    }
    expect_end(ls);
    CellClass* sub_cls = lib.find(cls_name);
    if (sub_cls == nullptr) fail("unknown class " + cls_name);
    const core::Orientation o =
        named(orient, core::Orientation::kR0, core::Orientation::kMYR90,
              core::to_string, "orientation");
    cell->add_subcell(*sub_cls, name, core::Transform{o, t});
    return Status::ok();
  }

  Status parse_net(WordCursor& ls) {
    std::string name;
    if (!(ls >> name)) fail("net needs a name");
    expect_end(ls);
    net = &cell->add_net(name);
    return Status::ok();
  }

  Status parse_conn(WordCursor& ls) {
    if (net == nullptr) fail("conn outside a net");
    std::string inst_name;
    std::string sig_name;
    if (!(ls >> inst_name >> sig_name)) fail("conn instance signal");
    expect_end(ls);
    CellInstance* inst = cell->find_subcell(inst_name);
    if (inst == nullptr) fail("unknown subcell " + inst_name);
    return net->connect(*inst, sig_name);
  }

  Status parse_io(WordCursor& ls) {
    if (net == nullptr) fail("io outside a net");
    std::string sig_name;
    if (!(ls >> sig_name)) fail("io signal");
    expect_end(ls);
    return net->connect_io(sig_name);
  }
};

}  // namespace

void LibraryWriter::write(const Library& lib, std::ostream& out) {
  const std::string text = to_string(lib);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string LibraryWriter::to_string(const Library& lib) {
  std::string text;
  TextOut out(text);
  out << "# stemcp library '" << lib.name() << "'\n";
  for (const auto& cell : lib.cells()) write_cell(*cell, out);
  return text;
}

void LibraryReader::read(Library& lib, std::istream& in) {
  read_string(lib, std::string(std::istreambuf_iterator<char>(in), {}));
}

void LibraryReader::read_string(Library& lib, const std::string& text) {
  // Strong guarantee by rollback.  A statement changes only cells this read
  // defined, so on error it suffices to destroy those cells newest-first —
  // their nets and delay networks go with them, and so do their instances
  // of older classes — and then the constraints made since that no cell
  // owns (`spec` bounds).  The other order would destroy a cell's own
  // constraints twice.  Destroying a constraint retracts every value it
  // propagated.
  const std::size_t cells_before = lib.cells().size();
  const std::size_t constraints_before = lib.context().constraint_count();
  try {
    Parser{lib}.read(text);
  } catch (...) {
    lib.rollback_cells_to(cells_before);
    const std::vector<core::Constraint*> cs = lib.context().all_constraints();
    for (std::size_t i = cs.size(); i > constraints_before; --i) {
      lib.context().destroy_constraint(*cs[i - 1]);
    }
    throw;
  }
}

core::Status LibraryReader::edit(Library& lib, const std::string& command) {
  return Parser{lib}.edit(command);
}

}  // namespace stemcp::env
